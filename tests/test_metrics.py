import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox import metrics
from anatvox.grid import Dims, Spacing, VoxelGrid
from anatvox.losses import LossConfig, soft_dice_loss
from anatvox.metrics import (
    MetricReport,
    cohort_lines,
    edt,
    seg_metrics,
    surface_voxels,
    write_cohort_report,
)

from conftest import ANISO, ISO, bool_grid, brute_edt, directed_surface_distances, make_grid, peak_bytes, random_mask


# ---------------------------------------------------------------------------
# Distance transform
# ---------------------------------------------------------------------------

def test_edt_full_mask_is_zero():
    m = make_grid(Dims(4, 5, 6), ANISO, True)
    assert np.all(edt(m).data == 0.0)


def test_edt_empty_mask_is_inf():
    m = make_grid(Dims(4, 4, 4), ISO, False)
    assert np.all(np.isinf(edt(m).data))


def test_edt_single_voxel_axis_distance():
    m = make_grid(Dims(7, 7, 7), ISO, False)
    m.data[0, 0, 0] = True
    d = edt(m).data
    assert d[0, 0, 3] == 3.0
    assert d[2, 0, 0] == 2.0
    assert d[0, 0, 0] == 0.0
    assert d[1, 1, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_edt_matches_brute_force_anisotropic(rng):
    for _ in range(12):
        shape = tuple(int(v) for v in rng.integers(2, 13, 3))
        mask = random_mask(rng, shape, 0.12)
        g = VoxelGrid(mask, ANISO)
        got = edt(g).data
        ref = brute_edt(mask, ANISO)
        if not mask.any():
            assert np.all(np.isinf(got))
        else:
            assert np.abs(got - ref).max() <= 1e-9


@st.composite
def edt_cases(draw):
    shape = draw(st.tuples(*[st.integers(1, 8)] * 3))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill == "random":
        mask = draw(arrays(np.bool_, shape))
        # blank whole lines along one axis, so some lines of a pass hold no site
        axis = draw(st.integers(0, 2))
        keep = draw(arrays(np.bool_, shape[:axis] + shape[axis + 1:]))
        mask &= np.expand_dims(keep, axis)
    else:
        mask = np.full(shape, fill == "full")
    spacing = Spacing(*draw(st.tuples(*[st.floats(0.05, 20.0)] * 3)))
    return mask, spacing


@settings(max_examples=300)
@given(case=edt_cases())
def test_edt_matches_brute_force_on_any_mask(case):
    mask, spacing = case
    before = mask.copy()
    got = edt(VoxelGrid(mask, spacing)).data
    assert np.array_equal(mask, before)  # the input grid is not written through
    if mask.any():
        assert np.abs(got - brute_edt(mask, spacing)).max() <= 1e-9
    else:
        assert np.all(np.isinf(got))


def test_edt_spacing_scale_equivariance(rng):
    mask = random_mask(rng, (6, 6, 6), 0.2)
    base = edt(VoxelGrid(mask, ANISO)).data
    doubled = edt(VoxelGrid(mask, Spacing(10.0, 1.56, 1.56))).data
    assert np.array_equal(doubled, 2.0 * base)


def test_edt_requires_bool():
    g = make_grid(Dims(2, 2, 2), ISO, 0.0)
    with pytest.raises(ValueError):
        edt(g)


@st.composite
def edt_at_cases(draw):
    shape = draw(st.tuples(*[st.integers(1, 9)] * 3))
    mask = draw(arrays(np.bool_, shape, elements=st.booleans() | st.just(False)))
    # blank whole lines along one axis and whole planes across another, so passes meet empty lines
    axis = draw(st.integers(0, 2))
    mask &= np.expand_dims(draw(arrays(np.bool_, shape[:axis] + shape[axis + 1:])), axis)
    plane = draw(st.integers(0, 2))
    mask &= draw(arrays(np.bool_, shape[plane])).reshape([-1 if a == plane else 1 for a in range(3)])
    at = draw(arrays(np.bool_, shape))
    # in-plane spacings as a NIfTI header stores them (float32), CT-like slice steps along z
    sy, sx = (float(np.float32(draw(st.floats(0.3, 1.6)))) for _ in range(2))
    spacing = Spacing(draw(st.sampled_from([1.25, 2.5, 5.0])), sy, sx)
    chunk = draw(st.sampled_from([1, 7, metrics._AT_CHUNK]))
    return mask, at, spacing, chunk


@settings(max_examples=300)
@given(case=edt_at_cases())
def test_edt_at_voxels_is_the_full_transform_read_there(case):
    mask, at, spacing, chunk = case
    before, at_before = mask.copy(), at.copy()
    grid = VoxelGrid(mask, spacing)
    with mock.patch.object(metrics, "_AT_CHUNK", chunk):
        got = edt(grid, at)
    assert np.array_equal(mask, before) and np.array_equal(at, at_before)  # neither input is written through
    assert got.dtype == np.float64 and got.shape == (int(np.count_nonzero(at)),)
    assert np.array_equal(got, edt(grid).data[at])  # bitwise, infinities included
    if mask.any():
        assert np.abs(got - brute_edt(mask, spacing)[at]).max(initial=0.0) <= 1e-9
    else:
        assert np.all(np.isinf(got))


def test_edt_at_no_voxels_is_empty():
    got = edt(make_grid(Dims(3, 4, 5), ANISO, True), np.zeros((3, 4, 5), bool))
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("at", [np.ones((3, 4, 6), bool), np.ones((3, 4, 5), np.uint8), [[[True] * 5] * 4] * 3])
def test_edt_at_must_be_a_bool_array_of_the_mask_shape(at):
    with pytest.raises(ValueError):
        edt(make_grid(Dims(3, 4, 5), ANISO, True), at)


def test_edt_at_surface_memory_stays_under_the_full_transform():
    # a cohort-shaped box: a colon-like cross-section filling 14 CT slices, scored at a shifted copy's surface
    shape = (14, 64, 58)
    _, y, x = np.ogrid[:1, :64, :58]
    solid = np.broadcast_to(((y - 31.5) / 30) ** 2 + ((x - 28.5) / 27) ** 2 <= 1, shape)
    spacing = Spacing(2.5, 0.78125, 0.78125)
    surf = surface_voxels(VoxelGrid(solid.copy(), spacing))
    other = surface_voxels(VoxelGrid(np.roll(solid, 2, axis=2), spacing))
    got, peak = peak_bytes(edt, surf, other.data)
    assert got.size == np.count_nonzero(other.data)
    # the whole-box transform of the earlier version measured 37.7 B/voxel here; this one 37.1
    assert peak < 38 * math.prod(shape)


# one y row and one z plane a block; 2 of 9 rows (8 lines) a block, a partial last block, and one plane;
# 4 rows, 2 of 5 planes a block, a partial last block. The boxed masks hold sites in z planes 1-2 and y
# rows 3-7 only, so whole blocks of z lines and lines beside the sites' lines in a block have no site.
@pytest.mark.parametrize("lines", [1, 10, 16])
@pytest.mark.parametrize("density", [0.02, 0.3])
def test_edt_in_blocks_of_z_lines_is_the_unblocked_transform(rng, lines, density):
    spacing = Spacing(2.5, 0.78125, 0.9)
    for _ in range(4):
        spread = random_mask(rng, (5, 9, 4), density)
        boxed = np.zeros_like(spread)
        boxed[1:3, 3:8] = spread[1:3, 3:8]
        boxed[1, 3, 0] = boxed[2, 7, 3] = True
        for mask in (spread, boxed):
            at = random_mask(rng, mask.shape, 0.4)
            grid = VoxelGrid(mask, spacing)
            want_full, want_at = edt(grid).data, edt(grid, at)
            with mock.patch.object(metrics, "_LINES", lines):
                got_full, got_at = edt(grid).data, edt(grid, at)
            assert np.array_equal(got_full, want_full) and np.array_equal(got_at, want_at)  # bitwise, infinities too
            if mask.any():
                ref = brute_edt(mask, spacing)
                assert np.abs(got_full - ref).max() <= 1e-9
                assert np.abs(got_at - ref[at]).max(initial=0.0) <= 1e-9


def test_edt_at_surface_memory_is_bounded_by_a_block_of_z_lines():
    # a cross-section of 60000 z lines, two blocks of y rows: 109 of 200 rows, then 91
    shape = (12, 200, 300)
    assert shape[1] > metrics._LINES // shape[2]
    _, y, x = np.ogrid[:1, :200, :300]
    solid = np.broadcast_to(((y - 99.5) / 95) ** 2 + ((x - 149.5) / 140) ** 2 <= 1, shape)
    spacing = Spacing(2.5, 0.78125, 0.78125)
    surf = surface_voxels(VoxelGrid(solid.copy(), spacing))
    other = surface_voxels(VoxelGrid(np.roll(solid, 2, axis=2), spacing))
    got, peak = peak_bytes(edt, surf, other.data)
    assert got.size == np.count_nonzero(other.data)
    # the float64 box and the z pass's state on the larger block: 24.6 B/voxel here;
    # the earlier version ran the z pass on every line at once and read 37.8
    assert peak < 27 * math.prod(shape)


def test_edt_memory_is_bounded_by_a_block_of_z_planes():
    # the surface above, whose full transform runs its y pass on 2 blocks of 6 of its 12 planes
    shape = (12, 200, 300)
    _, y, x = np.ogrid[:1, :200, :300]
    solid = np.broadcast_to(((y - 99.5) / 95) ** 2 + ((x - 149.5) / 140) ** 2 <= 1, shape)
    surf = surface_voxels(VoxelGrid(solid.copy(), Spacing(2.5, 0.78125, 0.78125)))
    got, peak = peak_bytes(edt, surf)
    assert got.data.shape == shape
    # 24.5 B/voxel here; the earlier version ran the y pass on every line at once and read 28.7
    assert peak < 27 * math.prod(shape)


@pytest.mark.parametrize("spacing", [(1e300, 1.0, 1.0), (1e100, 1e-100, 1.0), (1e-200, 1.0, 1.0)])
def test_edt_refuses_a_spacing_whose_squared_distances_overflow(spacing):
    # the z line at (y 2, x 3) holds two sites after pass 1, at squared x distances 0 and sx^2, so the z pass
    # takes their crossing, which overflows (or divides by a step^2 of 0) unless refused
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[0, 2, 3] = mask[2, 2, 4] = True
    grid = VoxelGrid(mask, Spacing(*spacing))
    for at in (None, mask):
        with pytest.raises(ValueError, match=re.escape(f"spacing {grid.spacing.zyx} mm on a grid of shape (3, 4, 5)")):
            edt(grid, at)


# ---------------------------------------------------------------------------
# Surface extraction
# ---------------------------------------------------------------------------

def test_surface_of_solid_cube():
    m = make_grid(Dims(7, 7, 7), ISO, False)
    m.data[2:5, 2:5, 2:5] = True
    s = surface_voxels(m).data
    assert int(s.sum()) == 26
    assert not s[3, 3, 3]


def test_surface_of_single_voxel():
    m = make_grid(Dims(5, 5, 5), ISO, False)
    m.data[2, 2, 2] = True
    s = surface_voxels(m).data
    assert int(s.sum()) == 1 and s[2, 2, 2]


def test_surface_of_full_grid_is_outer_shell():
    m = make_grid(Dims(5, 6, 7), ISO, True)
    s = surface_voxels(m).data
    interior = np.zeros((5, 6, 7), dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    assert np.array_equal(s, ~interior)


# ---------------------------------------------------------------------------
# Metric suite
# ---------------------------------------------------------------------------

def test_perfect_prediction():
    m = make_grid(Dims(7, 7, 7), ISO, False)
    m.data[2:5, 2:5, 2:5] = True
    r = seg_metrics(m, m)
    assert r == MetricReport(1.0, 1.0, 1.0, 1.0, 0.0)


def test_empty_prediction_penalty():
    y = make_grid(Dims(6, 6, 6), ANISO, False)
    y.data[2:4, 2:4, 2:4] = True
    p = make_grid(Dims(6, 6, 6), ANISO, False)
    r = seg_metrics(y, p)
    assert r.hd95_mm == 1000.0
    assert r.dice == 0.0 and r.nsd == 0.0 and r.precision == 0.0 and r.recall == 0.0
    r2 = seg_metrics(y, p, hd_penalty_mm=500.0)
    assert r2.hd95_mm == 500.0


def test_both_empty_convention():
    y = make_grid(Dims(4, 4, 4), ISO, False)
    r = seg_metrics(y, y)
    assert r == MetricReport(1.0, 1.0, 1.0, 1.0, 0.0)


def test_parallel_plates_nsd_and_hd95():
    def plate(z):
        g = make_grid(Dims(12, 5, 5), ISO, False)
        g.data[z, :, :] = True
        return g

    near = seg_metrics(plate(2), plate(5), nsd_tol_mm=4.0)
    assert near.nsd == 1.0
    assert near.hd95_mm == 3.0
    far = seg_metrics(plate(2), plate(7), nsd_tol_mm=4.0)
    assert far.nsd == 0.0
    assert far.hd95_mm == 5.0


def test_metrics_symmetry_and_pr_re_swap(rng):
    for _ in range(10):
        y = bool_grid(random_mask(rng, (6, 6, 6), 0.3), ANISO)
        p = bool_grid(random_mask(rng, (6, 6, 6), 0.3), ANISO)
        a = seg_metrics(y, p)
        b = seg_metrics(p, y)
        assert a.dice == b.dice
        assert a.nsd == b.nsd
        assert a.hd95_mm == b.hd95_mm
        assert a.precision == b.recall and a.recall == b.precision


def _surface_oracle(y: np.ndarray, p: np.ndarray, spacing: Spacing, tol: float) -> tuple[float, float]:
    """NSD and HD95 from all-pairs distances between the two full-grid surfaces."""
    sy = surface_voxels(bool_grid(y, spacing)).data
    sp = surface_voxels(bool_grid(p, spacing)).data
    d_p = directed_surface_distances(sp, sy, spacing)
    d_y = directed_surface_distances(sy, sp, spacing)
    nsd_ref = ((d_p <= tol).sum() + (d_y <= tol).sum()) / (d_p.size + d_y.size)

    def rank95(d):
        return float(np.sort(d)[math.ceil(0.95 * d.size) - 1])

    return nsd_ref, max(rank95(d_p), rank95(d_y))


def test_nsd_hd95_match_all_pairs_oracle(rng):
    for _ in range(10):
        shape = tuple(int(v) for v in rng.integers(3, 13, 3))
        y = random_mask(rng, shape, 0.2)
        p = random_mask(rng, shape, 0.2)
        if not y.any() or not p.any():
            continue
        tol = 4.0
        r = seg_metrics(VoxelGrid(y, ANISO), VoxelGrid(p, ANISO), nsd_tol_mm=tol)
        nsd_ref, hd_ref = _surface_oracle(y, p, ANISO, tol)
        assert r.nsd == pytest.approx(nsd_ref, abs=1e-12)
        assert r.hd95_mm == pytest.approx(hd_ref, abs=1e-9)


@st.composite
def padded_mask_pairs(draw):
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    y = draw(arrays(np.bool_, shape))
    p = draw(arrays(np.bool_, shape))
    pads = tuple(draw(st.tuples(st.integers(0, 4), st.integers(0, 4))) for _ in range(3))
    return y, p, pads


@settings(max_examples=200)
@given(pair=padded_mask_pairs())
def test_seg_metrics_ignore_zero_padding(pair):
    # seg_metrics crops to the box of gt | pred, so empty margins change nothing
    y, p, pads = pair
    r = seg_metrics(VoxelGrid(y, ANISO), VoxelGrid(p, ANISO))
    yp, pp = np.pad(y, pads), np.pad(p, pads)
    assert seg_metrics(VoxelGrid(yp, ANISO), VoxelGrid(pp, ANISO)) == r
    if y.any() and p.any():
        nsd_ref, hd_ref = _surface_oracle(yp, pp, ANISO, 4.0)
        assert r.nsd == pytest.approx(nsd_ref, abs=1e-12)
        assert r.hd95_mm == pytest.approx(hd_ref, abs=1e-9)


def test_dice_consistent_with_soft_dice_loss(rng):
    y = bool_grid(random_mask(rng, (6, 6, 6), 0.4))
    p = bool_grid(random_mask(rng, (6, 6, 6), 0.4))
    r = seg_metrics(y, p)
    soft = soft_dice_loss(y, p.with_data(p.data.astype(np.float64)), LossConfig(dice_eps=1e-9))
    assert r.dice == pytest.approx(1.0 - soft, abs=1e-6)


def test_spacing_scaling_behavior(rng):
    y = random_mask(rng, (6, 6, 6), 0.3)
    p = random_mask(rng, (6, 6, 6), 0.3)
    base = seg_metrics(VoxelGrid(y, ANISO), VoxelGrid(p, ANISO), nsd_tol_mm=4.0)
    big = Spacing(10.0, 1.56, 1.56)
    scaled = seg_metrics(VoxelGrid(y, big), VoxelGrid(p, big), nsd_tol_mm=8.0)
    assert scaled.hd95_mm == 2.0 * base.hd95_mm
    assert scaled.dice == base.dice
    assert scaled.precision == base.precision and scaled.recall == base.recall
    assert scaled.nsd == base.nsd  # tolerance scaled along with the grid


def test_seg_metrics_shape_mismatch():
    y = make_grid(Dims(4, 4, 4), ISO, False)
    p = make_grid(Dims(4, 4, 5), ISO, False)
    with pytest.raises(ValueError):
        seg_metrics(y, p)


@settings(max_examples=200)
@given(values=arrays(np.float64, st.integers(1, 60), elements=st.sampled_from([0.0, 0.5, 1.25, 3.0, 1e3])
                     | st.floats(0.0, 50.0)))
def test_nearest_rank_95_is_the_sorted_rank(values):
    # ties come from the few sampled values; m = 1 from the smallest size
    before = values.copy()
    assert metrics._nearest_rank_95(values) == np.sort(values)[math.ceil(0.95 * values.size) - 1]
    assert np.array_equal(values, before)


# ---------------------------------------------------------------------------
# Cohort report
# ---------------------------------------------------------------------------

def test_cohort_jsonl_layout(tmp_path):
    r1 = MetricReport(1.0, 1.0, 1.0, 1.0, 0.0)
    r2 = MetricReport(0.0, 0.0, 0.0, 0.0, 1000.0)
    path = tmp_path / "report.jsonl"
    write_cohort_report(path, [("case_a", r1), ("case_b", r2)])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["case_id"] == "case_a" and first["dice"] == 1.0
    tail = json.loads(lines[-1])
    assert tail["case_id"] == "mean"
    assert tail["dice"] == 0.5 and tail["hd95_mm"] == 500.0


def test_cohort_empty_rejected():
    with pytest.raises(ValueError):
        cohort_lines([])
