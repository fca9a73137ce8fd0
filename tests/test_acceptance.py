"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from anatvox.cli import run
from anatvox.grid import Dims, VoxelGrid, make_grid
from anatvox.losses import (
    LossConfig,
    af_loss,
    combined_loss,
    cross_entropy_grad,
    cross_entropy_loss,
    soft_dice_grad,
    soft_dice_loss,
)
from anatvox.maskgen import OrganConfig, build_ooi
from anatvox.metrics import seg_metrics, surface_voxels, edt
from anatvox.morphology import FACE6, FULL26, dilate_mask, erode_mask
from anatvox.phantom import PhantomSpec, arc_params, gen_phantom
from anatvox.sampling import (
    PatchSpec,
    SamplingMap,
    combine_psm,
    draw_centers,
    gain_map,
    psm_from_gain,
)
from anatvox.sslmask import NoiseSpec, l1_recon_loss, mask_bowel_wall

from conftest import (
    ANISO,
    ISO,
    brute_edt,
    dilate_naive,
    directed_surface_distances,
    erode_naive,
    gain_at_naive,
    random_mask,
    shifted,
)


def _report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def _gain_direct_3d(mask: np.ndarray, spec: PatchSpec) -> np.ndarray:
    """Direct definition: dense 3D truncated-Gaussian kernel, no separable passes."""
    rz, ry, rx = spec.radii
    vz, vy, vx = spec.variances
    o = mask.astype(np.float64)
    acc = np.zeros_like(o)
    for dz in range(-rz, rz + 1):
        for dy in range(-ry, ry + 1):
            for dx in range(-rx, rx + 1):
                w = math.exp(-0.5 * (dz * dz / vz + dy * dy / vy + dx * dx / vx))
                acc += w * shifted(o, dz, dy, dx, fill=0.0)
    return spec.norm_const * acc


def test_criterion_01_separable_gain_matches_naive_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        shape = tuple(int(v) for v in rng.integers(4, 17, 3))
        mask = random_mask(rng, shape, float(rng.uniform(0.1, 0.5)))
        spec = PatchSpec(tuple(int(d) for d in rng.integers(2, 9, 3)))
        grid = VoxelGrid(mask, ISO)
        got = gain_map(grid, spec).data
        ref = _gain_direct_3d(mask, spec)
        zero = ref == 0.0
        assert np.all(got[zero] == 0.0)
        if np.any(~zero):
            rel = np.abs(got[~zero] - ref[~zero]) / np.abs(ref[~zero])
            worst = max(worst, float(rel.max()))
        # spot-check the triple-loop oracle as well
        for _ in range(3):
            p = tuple(int(rng.integers(0, s)) for s in shape)
            direct = gain_at_naive(grid, spec, p)
            if direct == 0.0:
                assert got[p] == 0.0
            else:
                assert abs(got[p] - direct) / abs(direct) <= 1e-9
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(1, f"separable gain == direct oracle on 50 masks (max rel {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_psm_algebra():
    rng = np.random.default_rng(202)
    for mu in (0.5, 1.0, 2.0):
        g = rng.random((6, 6, 6)) * 3.0
        s = psm_from_gain(VoxelGrid(g, ISO), mu=mu).grid.data
        n = g.size
        expected = (g / mu + 1.0 / n) / (g.sum() / mu + 1.0)
        assert np.abs(s - expected).max() <= 1e-12

    zero = psm_from_gain(
        make_grid(Dims(4, 4, 4), ISO, 0.0, dtype=np.float64),
        mu=1.0,
    )
    assert np.all(zero.grid.data == 1.0 / 64)

    a = SamplingMap(VoxelGrid(np.full((4, 4, 4), 1.0 / 64), ISO))
    bdata = np.zeros((4, 4, 4))
    bdata[1, 2, 3] = 1.0
    b = SamplingMap(VoxelGrid(bdata, ISO))
    assert np.array_equal(combine_psm(a, b, 0.0).grid.data, a.grid.data)
    assert np.array_equal(combine_psm(a, b, 1.0).grid.data, b.grid.data)
    mixed = combine_psm(a, b, 0.33).grid.data
    assert np.abs(mixed - (0.67 * a.grid.data + 0.33 * bdata)).max() <= 1e-15
    assert abs(float(mixed.sum()) - 1.0) <= 1e-12
    _report(2, "PSM closed form to 1e-12, uniform for zero gain, mix endpoints exact")


def test_criterion_03_sampling_chi_square_and_determinism():
    rng = np.random.default_rng(303)
    mask = random_mask(rng, (8, 8, 8), 0.3)
    smap = psm_from_gain(gain_map(VoxelGrid(mask, ISO), PatchSpec((4, 4, 4))), mu=1.0)
    n = 1_000_000
    centers = draw_centers(smap, n, seed=777)
    again = draw_centers(smap, n, seed=777)
    assert np.array_equal(centers, again)

    flat = np.ravel_multi_index(centers.T, (8, 8, 8))
    counts = np.bincount(flat, minlength=512)
    expected = smap.grid.data.reshape(-1) * n
    assert expected.min() > 5.0  # chi-square validity
    chi = scipy.stats.chisquare(counts, f_exp=expected * (counts.sum() / expected.sum()))
    assert chi.pvalue > 0.001
    _report(3, f"1e6 seeded draws fit the map (chi-square p = {chi.pvalue:.3f}), reruns identical")


def test_criterion_04_morphology_laws():
    rng = np.random.default_rng(404)
    for i in range(200):
        mask = random_mask(rng, (8, 8, 8), float(rng.uniform(0.1, 0.6)))
        bigger = mask | random_mask(rng, (8, 8, 8), 0.15)
        elem = FACE6 if i % 2 == 0 else FULL26
        d1 = dilate_mask(mask, elem, 1)
        e1 = erode_mask(mask, elem, 1)
        assert np.all(d1 >= mask) and np.all(e1 <= mask)
        assert np.all(dilate_mask(bigger, elem, 1) >= d1)
        assert np.all(erode_mask(bigger, elem, 1) >= e1)
        assert np.array_equal(
            dilate_mask(mask, elem, 3), dilate_mask(dilate_mask(mask, elem, 2), elem, 1)
        )
        interior = np.zeros((8, 8, 8), dtype=bool)
        interior[1:-1, 1:-1, 1:-1] = mask[1:-1, 1:-1, 1:-1]
        assert np.array_equal(erode_mask(interior, elem, 1), ~dilate_mask(~interior, elem, 1))
        for t in (1, 2):
            assert np.array_equal(dilate_mask(mask, elem, t), dilate_naive(mask, elem, t))
            assert np.array_equal(erode_mask(mask, elem, t), erode_naive(mask, elem, t))
    _report(4, "morphology laws hold on 200 masks; production path == naive oracle bitwise")


def test_criterion_05_ooi_covers_tumor_despite_erased_segment():
    spec = PhantomSpec(seed=7)
    _, labels, tumor = gen_phantom(spec)
    (cz, cy, cx), _ = arc_params(spec)
    sz, sy, sx = spec.spacing.zyx
    ny, nx = spec.dims.ny, spec.dims.nx
    phi = np.arctan2(
        (np.arange(ny) * sy)[None, :, None] - cy,
        (np.arange(nx) * sx)[None, None, :] - cx,
    )
    phi = np.broadcast_to(phi, labels.data.shape)

    # wipe the angular segment holding the tumor (mid-arc) from one source
    ts_data = labels.data.copy()
    erased = (np.abs(phi) < 0.5) & (ts_data == 1)
    assert erased.any()
    ts_data[erased] = 0
    ts = VoxelGrid(ts_data, spec.spacing)

    cfg = OrganConfig(set_ts=frozenset({1}), set_word=frozenset({1}), dilate_times=3)
    ooi = build_ooi(ts, labels, cfg)
    coverage = float((tumor.data & ooi.data).sum() / tumor.data.sum())
    assert coverage >= 0.99
    _report(5, f"OOI with t=3 covers {coverage:.1%} of tumor voxels despite an erased segment")


def test_criterion_06_edt_exactness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(30):
        shape = tuple(int(v) for v in rng.integers(2, 13, 3))
        mask = random_mask(rng, shape, float(rng.uniform(0.05, 0.4)))
        got = edt(VoxelGrid(mask, ANISO)).data
        ref = brute_edt(mask, ANISO)
        if not mask.any():
            assert np.all(np.isinf(got))
            continue
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst <= 1e-9
    _report(6, f"separable EDT == brute force on 30 anisotropic masks (max err {worst:.2e} mm)")


def test_criterion_07_surface_metrics_match_all_pairs_oracle():
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(25):
        shape = tuple(int(v) for v in rng.integers(3, 13, 3))
        y = random_mask(rng, shape, 0.25)
        p = random_mask(rng, shape, 0.25)
        if not y.any() or not p.any():
            continue
        r = seg_metrics(VoxelGrid(y, ANISO), VoxelGrid(p, ANISO), nsd_tol_mm=4.0)
        sy = surface_voxels(VoxelGrid(y, ANISO)).data
        sp = surface_voxels(VoxelGrid(p, ANISO)).data
        d_p = directed_surface_distances(sp, sy, ANISO)
        d_y = directed_surface_distances(sy, sp, ANISO)
        nsd_ref = ((d_p <= 4.0).sum() + (d_y <= 4.0).sum()) / (d_p.size + d_y.size)
        hd_ref = max(
            float(np.sort(d_p)[math.ceil(0.95 * d_p.size) - 1]),
            float(np.sort(d_y)[math.ceil(0.95 * d_y.size) - 1]),
        )
        assert abs(r.nsd - nsd_ref) <= 1e-9
        assert abs(r.hd95_mm - hd_ref) <= 1e-9
        checked += 1
    assert checked >= 15

    y = make_grid(Dims(6, 6, 6), ANISO, False)
    y.data[2:4, 2:4, 2:4] = True
    r = seg_metrics(y, make_grid(Dims(6, 6, 6), ANISO, False))
    assert r.hd95_mm == 1000.0
    _report(7, f"NSD/HD95 == all-pairs oracle on {checked} mask pairs; empty pred -> 1000.0 mm")


def test_criterion_08_af_loss_invariance():
    rng = np.random.default_rng(808)
    cfg = LossConfig()
    for _ in range(100):
        y = VoxelGrid(random_mask(rng, (4, 4, 4), 0.4), ISO)
        o = VoxelGrid(random_mask(rng, (4, 4, 4), 0.6), ISO)
        p = rng.uniform(0.0, 1.0, (4, 4, 4))
        base = af_loss(y, VoxelGrid(p, ISO), o, cfg)
        perturbed = p.copy()
        outside = ~o.data
        perturbed[outside] = rng.uniform(0.0, 1.0, int(outside.sum()))
        assert af_loss(y, VoxelGrid(perturbed, ISO), o, cfg) == base

        ones = make_grid(Dims(4, 4, 4), ISO, True)
        assert af_loss(y, VoxelGrid(p, ISO), ones, cfg) == combined_loss(y, VoxelGrid(p, ISO), cfg)
    _report(8, "af_loss unchanged by any perturbation outside the mask; full mask == plain loss")


def test_criterion_09_loss_gradients():
    rng = np.random.default_rng(909)
    cfg = LossConfig()
    y = VoxelGrid(random_mask(rng, (4, 4, 4), 0.5), ISO)
    p = rng.uniform(0.05, 0.95, (4, 4, 4))
    dice_grad = soft_dice_grad(y, VoxelGrid(p, ISO), cfg)
    ce_grad = cross_entropy_grad(y, VoxelGrid(p, ISO), cfg)
    h = 1e-6
    picks = rng.choice(64, size=20, replace=False)
    for k in picks:
        idx = np.unravel_index(int(k), (4, 4, 4))
        hi, lo = p.copy(), p.copy()
        hi[idx] += h
        lo[idx] -= h
        fd_dice = (
            soft_dice_loss(y, VoxelGrid(hi, ISO), cfg) - soft_dice_loss(y, VoxelGrid(lo, ISO), cfg)
        ) / (2 * h)
        fd_ce = (
            cross_entropy_loss(y, VoxelGrid(hi, ISO), cfg)
            - cross_entropy_loss(y, VoxelGrid(lo, ISO), cfg)
        ) / (2 * h)
        assert abs(fd_dice - dice_grad[idx]) <= 1e-5 * max(abs(fd_dice), 1e-8)
        assert abs(fd_ce - ce_grad[idx]) <= 1e-5 * max(abs(fd_ce), 1e-8)
    _report(9, "finite-difference gradients match analytic on 20 voxels to 1e-5 relative")


def test_criterion_10_ssl_transform():
    rng = np.random.default_rng(1010)
    x = VoxelGrid(rng.standard_normal((8, 8, 8)), ISO)
    band = VoxelGrid(random_mask(rng, (8, 8, 8), 0.3), ISO)
    masked = mask_bowel_wall(x, band, NoiseSpec(seed=4))
    assert np.array_equal(masked.data[~band.data], x.data[~band.data])

    flat = make_grid(Dims(32, 32, 32), ISO, 0.0)
    full = make_grid(Dims(32, 32, 32), ISO, True)
    noisy = mask_bowel_wall(flat, full, NoiseSpec(mean=0.0, stddev=1.0, seed=6))
    n = noisy.data.size
    assert abs(float(noisy.data.mean())) < 5.0 / math.sqrt(n)
    assert abs(float(noisy.data.std()) - 1.0) < 0.02

    for _ in range(25):
        a, b, c = (VoxelGrid(rng.standard_normal((4, 4, 4)), ISO) for _ in range(3))
        dab = l1_recon_loss(a, b)
        assert dab >= 0.0
        assert dab == l1_recon_loss(b, a)
        assert l1_recon_loss(a, a) == 0.0
        assert dab <= l1_recon_loss(a, c) + l1_recon_loss(c, b) + 1e-12
    _report(10, "mask transform exact outside band, noise stats in bounds, L1 metric axioms hold")


def test_criterion_11_full_cli_pipeline(tmp_path):
    spec = {"dims": [64, 96, 96], "spacing": [5.0, 0.78, 0.78], "seed": 7}
    start = time.perf_counter()
    outputs = {}
    for run_dir in ("run1", "run2"):
        d = tmp_path / run_dir
        d.mkdir()
        (d / "spec.json").write_text(json.dumps(spec))
        steps = [
            ["phantom", "--spec", str(d / "spec.json"), "--out-ct", str(d / "ct.nii"),
             "--out-labels", str(d / "labels.nii"), "--out-tumor", str(d / "tumor.nii")],
            ["ooi", "--ts", str(d / "labels.nii"), "--word", str(d / "labels.nii"),
             "--set-ts", "1", "--set-word", "1", "--dilate-times", "3", "--out", str(d / "ooi.nii")],
            ["ooi", "--ts", str(d / "labels.nii"), "--word", str(d / "labels.nii"),
             "--set-ts", "1", "--set-word", "1", "--dilate-times", "0", "--out", str(d / "ooi0.nii")],
            ["wall", "--ooi", str(d / "ooi0.nii"), "--out", str(d / "wall.nii")],
            ["psm", "--ooi", str(d / "ooi.nii"), "--tumor", str(d / "tumor.nii"),
             "--patch-size", "8,24,24", "--lambda", "0.33", "--out", str(d / "psm.nii")],
            ["sample", "--psm", str(d / "psm.nii"), "--count", "50", "--seed", "11",
             "--out", str(d / "centers.json")],
            ["ssl-mask", "--ct", str(d / "ct.nii"), "--wall", str(d / "wall.nii"),
             "--seed", "5", "--out", str(d / "masked.nii")],
            ["loss", "--gt", str(d / "tumor.nii"), "--pred", str(d / "tumor.nii"),
             "--ooi", str(d / "ooi.nii"), "--out", str(d / "loss.json")],
            ["metrics", "--gt", str(d / "tumor.nii"), "--pred", str(d / "tumor.nii"),
             "--out", str(d / "metrics.json")],
        ]
        for argv in steps:
            assert run(argv) == 0, argv[0]
        outputs[run_dir] = d
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    report = json.loads((outputs["run1"] / "metrics.json").read_text())
    assert set(report) == {"dice", "precision", "recall", "nsd", "hd95_mm"}
    assert report["dice"] == 1.0
    loss = json.loads((outputs["run1"] / "loss.json").read_text())
    assert set(loss) == {"dice_loss", "ce_loss", "af_loss"}

    files = ["ct.nii", "labels.nii", "tumor.nii", "ooi.nii", "ooi0.nii", "wall.nii",
             "psm.nii", "centers.json", "masked.nii", "loss.json", "metrics.json"]
    for name in files:
        a = (outputs["run1"] / name).read_bytes()
        b = (outputs["run2"] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    _report(11, f"full CLI pipeline deterministic twice over in {elapsed:.1f}s (< 60s)")
