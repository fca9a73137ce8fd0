import gc
import math
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox import grid, sampling
from anatvox.grid import Dims, VoxelGrid, bounding_box
from anatvox.maskgen import OrganConfig, build_ooi
from anatvox.phantom import PhantomSpec, gen_phantom
from anatvox.sampling import (
    PatchSpec,
    combine_psm,
    draw_centers,
    box_psm,
    gain_map,
    psm_from_gain,
)
from anatvox.volio import VolumeMeta, VolumeReader, write_volume

from conftest import (
    ANISO, ISO, assert_read_once_by_leaf, bool_grid, box_psm_union, boxed_mask, gain_at_naive, gain_map_full, make_grid,
    mask_pairs, mixed_psm, peak_bytes, random_mask,
)


def test_patch_spec_derived_quantities():
    spec = PatchSpec((4, 6, 5))
    assert spec.variances == pytest.approx((0.4, 0.6, 0.5), rel=1e-15)
    assert spec.radii == (2, 3, 2)
    vz, vy, vx = spec.variances
    expected_c = (2 * math.pi) ** -1.5 / math.sqrt(vz * vy * vx)
    assert spec.norm_const == pytest.approx(expected_c, rel=1e-15)


def test_patch_spec_stddev_reading_changes_kernel():
    var_spec = PatchSpec((4, 4, 4))
    std_spec = PatchSpec((4, 4, 4), sigma_is_stddev=True)
    assert std_spec.variances == ((0.4) ** 2,) * 3
    assert std_spec.norm_const != var_spec.norm_const


def test_patch_spec_rejects_bad_size():
    with pytest.raises(ValueError):
        PatchSpec((0, 4, 4))
    with pytest.raises(ValueError):
        PatchSpec((4, 4))
    with pytest.raises(ValueError):  # a fractional size is not rounded
        PatchSpec((4.5, 4, 4))


def test_gain_of_empty_mask_is_zero():
    o = make_grid(Dims(5, 5, 5), ISO, False)
    g = gain_map(o, PatchSpec((4, 4, 4)))
    assert np.all(g.data == 0.0)


def test_gain_single_voxel_center_equals_norm_const():
    o = make_grid(Dims(9, 9, 9), ISO, False)
    o.data[4, 4, 4] = True
    spec = PatchSpec((6, 6, 6))
    g = gain_map(o, spec)
    assert g.data[4, 4, 4] == pytest.approx(spec.norm_const, rel=1e-12)
    assert gain_at_naive(o, spec, (4, 4, 4)) == pytest.approx(spec.norm_const, rel=1e-12)


def test_gain_full_mask_center_equals_truncated_kernel_mass():
    o = make_grid(Dims(11, 11, 11), ISO, True)
    spec = PatchSpec((4, 4, 4))
    rz, ry, rx = spec.radii
    vz, vy, vx = spec.variances
    mass = 0.0
    for dz in range(-rz, rz + 1):
        for dy in range(-ry, ry + 1):
            for dx in range(-rx, rx + 1):
                mass += math.exp(-0.5 * (dz * dz / vz + dy * dy / vy + dx * dx / vx))
    mass *= spec.norm_const
    g = gain_map(o, spec)
    assert g.data[5, 5, 5] == pytest.approx(mass, rel=1e-12)


def test_gain_zero_outside_reach(rng):
    o = make_grid(Dims(12, 12, 12), ISO, False)
    o.data[0, 0, 0] = True
    spec = PatchSpec((4, 4, 4))
    g = gain_map(o, spec)
    assert g.data[0, 0, 6] == 0.0
    assert gain_at_naive(o, spec, (0, 0, 6)) == 0.0
    assert np.all(g.data >= 0.0)


def test_gain_separable_matches_naive_everywhere(rng):
    for _ in range(3):
        o = bool_grid(random_mask(rng, (6, 7, 5), 0.3))
        spec = PatchSpec(tuple(int(d) for d in rng.integers(2, 8, 3)))
        g = gain_map(o, spec).data
        for z in range(6):
            for y in range(7):
                for x in range(5):
                    ref = gain_at_naive(o, spec, (z, y, x))
                    if ref == 0.0:
                        assert g[z, y, x] == 0.0
                    else:
                        assert g[z, y, x] == pytest.approx(ref, rel=1e-9)


@st.composite
def boxed_masks(draw):
    """A random mask filling a random sub-box of a random grid, faces included."""
    return draw(boxed_mask(draw(st.tuples(*[st.integers(1, 12)] * 3))))


@settings(max_examples=300)
@given(
    mask=boxed_masks(),
    size=st.tuples(*[st.integers(1, 30)] * 3),
    stddev=st.booleans(),
    block=st.integers(1, 600),
)
def test_gain_map_bitwise_equals_full_grid_passes(mask, size, stddev, block):
    # patch radii reach up to 15 voxels, past every axis of the grid; a box's plane and its
    # z-by-x section hold at most 144 voxels, so blocks of 1..600 voxels run one row or plane
    # a block, several with a partial last one, or the whole box, as the default block does
    o = bool_grid(mask, ANISO)
    spec = PatchSpec(size, sigma_is_stddev=stddev)
    with mock.patch.object(sampling, "_BLOCK", block):
        g = gain_map(o, spec).data
    assert g.dtype == np.float64 and g.shape == mask.shape
    assert np.array_equal(g, gain_map_full(o, spec))


def _face_and_corner_masks(shape):
    nz, ny, nx = shape
    yield np.zeros(shape, dtype=bool)
    for axis in range(3):
        for end in (0, shape[axis] - 1):
            m = np.zeros(shape, dtype=bool)
            index = [slice(1, n - 1) for n in shape]
            index[axis] = end
            m[tuple(index)] = True  # a face's plane without its rim
            yield m
    for z in (0, nz - 1):
        for y in (0, ny - 1):
            for x in (0, nx - 1):
                m = np.zeros(shape, dtype=bool)
                m[z, y, x] = True
                yield m


@pytest.mark.parametrize("size", [(1, 1, 1), (4, 6, 8), (9, 20, 3), (40, 40, 40)])
def test_gain_map_on_faces_and_corners_equals_full_grid_passes(size):
    spec = PatchSpec(size)
    for mask in _face_and_corner_masks((7, 9, 11)):
        o = bool_grid(mask)
        assert np.array_equal(gain_map(o, spec).data, gain_map_full(o, spec))


def test_gain_passes_build_only_the_taps_that_land():
    # the x pass of a 1x1x400001 patch over a 4-voxel-wide mask needs 7 taps, not 400001
    mask = np.zeros((2, 2, 4), dtype=bool)
    mask[0, 1, 2] = mask[1, 0, 0] = True
    o = bool_grid(mask, ANISO)
    spec = PatchSpec((1, 1, 400001))
    g, peak = peak_bytes(gain_map, o, spec)
    assert np.array_equal(g.data, gain_map_full(o, spec))
    assert peak < 2**18  # the full kernel alone is 3.2 MB


@pytest.mark.parametrize("block, z_blocks, yx_blocks", [
    (1, 9, 7),  # one y row a z-pass block, one z plane a y- and x-pass block
    (198, 5, 4),  # 2 of 9 y rows (2 * 7 * 11 <= 198) and 2 of 7 z planes (2 * 9 * 11 = 198): partial last blocks
    (1 << 20, 1, 1),  # a box narrower than one block
])
@pytest.mark.parametrize("fill", [(slice(None),) * 3, (slice(2, 5), slice(3, 6), slice(4, 7))])
def test_gain_blocks_split_each_pass_as_documented(rng, block, z_blocks, yx_blocks, fill):
    # patch radii (2, 3, 4) grow the partial fill's box to the whole 7x9x11 grid
    mask = np.zeros((7, 9, 11), dtype=bool)
    mask[fill] = random_mask(rng, mask[fill].shape, 0.4)
    mask[fill][0, 0, 0] = mask[fill][-1, -1, -1] = True
    o = bool_grid(mask, ANISO)
    spec = PatchSpec((5, 7, 9))
    with mock.patch.object(sampling, "_BLOCK", block), \
            mock.patch.object(sampling, "_taps", wraps=sampling._taps) as taps:
        g = gain_map(o, spec).data
    assert taps.call_count == z_blocks + 2 * yx_blocks
    assert np.array_equal(g, gain_map_full(o, spec))


def test_psm_uniform_for_zero_gain():
    o = make_grid(Dims(4, 4, 4), ISO, False)
    s = psm_from_gain(gain_map(o, PatchSpec((2, 2, 2))), mu=1.0)
    assert np.all(s.data == 1.0 / 64)


def test_psm_two_voxel_hand_case():
    # gains (0, 1), mu=1: intermediate (0.5, 1.5) normalizes to (0.25, 0.75)
    gain_grid = VoxelGrid(np.array([[[0.0, 1.0]]]), ISO)
    s = psm_from_gain(gain_grid, mu=1.0)
    assert s.data[0, 0, 0] == pytest.approx(0.25, abs=1e-15)
    assert s.data[0, 0, 1] == pytest.approx(0.75, abs=1e-15)


def test_psm_algebraic_identity(rng):
    for mu in (0.5, 1.0, 3.0):
        g = rng.random((4, 5, 6)) * 2.0
        before = g.copy()
        s = psm_from_gain(VoxelGrid(g, ISO), mu=mu)
        assert np.array_equal(g, before)  # the float64 gain is read, not overwritten
        n = g.size
        gbar = g.sum()
        expected = (g / mu + 1.0 / n) / (gbar / mu + 1.0)
        assert np.allclose(s.data, expected, rtol=0, atol=1e-12)
        assert abs(float(s.data.sum()) - 1.0) < 1e-12


def test_psm_monotone_in_gain(rng):
    g = rng.random((3, 3, 3))
    s = psm_from_gain(VoxelGrid(g, ISO), mu=1.0).data
    flat_g = g.ravel()
    flat_s = s.ravel()
    order = np.argsort(flat_g)
    assert np.all(np.diff(flat_s[order]) > 0)


def test_psm_rejects_nonpositive_mu():
    o = make_grid(Dims(2, 2, 2), ISO, False)
    g = gain_map(o, PatchSpec((2, 2, 2)))
    for mu in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            psm_from_gain(g, mu)


def _uniform_map(shape):
    data = np.full(shape, 1.0 / np.prod(shape))
    return VoxelGrid(data, ISO)


def _delta_map(shape, index):
    data = np.zeros(shape)
    data[index] = 1.0
    return VoxelGrid(data, ISO)


def test_combine_psm_endpoints_and_affinity(rng):
    a = _uniform_map((3, 3, 3))
    b = _delta_map((3, 3, 3), (1, 2, 0))
    assert np.array_equal(combine_psm(a, b, 0.0).data, a.data)
    assert np.array_equal(combine_psm(a, b, 1.0).data, b.data)
    lam = 0.33
    mixed = combine_psm(a, b, lam).data
    assert np.allclose(mixed, (1 - lam) * a.data + lam * b.data, atol=0)
    assert abs(float(mixed.sum()) - 1.0) < 1e-12


def test_combine_psm_rejects_bad_lambda_and_shape():
    a = _uniform_map((3, 3, 3))
    b = _uniform_map((3, 3, 4))
    with pytest.raises(ValueError):
        combine_psm(a, a, 1.5)
    with pytest.raises(ValueError):
        combine_psm(a, a, -0.1)
    with pytest.raises(ValueError):
        combine_psm(a, b, 0.5)


def _reference_psm(ooi, tumor, spec, mu, lam) -> np.ndarray:
    s_organ = psm_from_gain(gain_map(ooi, spec), mu)
    s_tumor = psm_from_gain(gain_map(tumor, spec), mu)
    return combine_psm(s_organ, s_tumor, lam).data


@settings(max_examples=300)
@given(
    masks=mask_pairs(),
    size=st.tuples(*[st.integers(1, 30)] * 3),
    stddev=st.booleans(),
    lam=st.sampled_from([0.0, 0.33, 1.0]),
    mu=st.sampled_from([0.3, 1.0, 2.0]),
)
def test_mixed_psm_within_float32_rounding_of_the_reference(masks, size, stddev, lam, mu):
    # patch radii reach up to 15 voxels, past every axis of the grid
    ooi, tumor = (bool_grid(m, ANISO) for m in masks)
    spec = PatchSpec(size, sigma_is_stddev=stddev)
    got = mixed_psm(ooi, tumor, spec, mu, lam)
    want = _reference_psm(ooi, tumor, spec, mu, lam)
    assert got.data.dtype == np.float32 and got.data.shape == want.shape and got.spacing == ANISO
    rel = np.abs(got.data.astype(np.float64) - want) / want
    assert rel.max() <= 2.0**-24 + 1e-12


def test_mixed_psm_is_the_stored_reference_on_the_criterion_11_phantom():
    spec = {"dims": [64, 96, 96], "spacing": [5.0, 0.78, 0.78], "seed": 7}
    _, labels, tumor = gen_phantom(PhantomSpec.from_json(spec))
    ooi = build_ooi(labels, labels, OrganConfig(set_ts=frozenset({1}), set_word=frozenset({1}), dilate_times=3))
    spec = PatchSpec((8, 24, 24))
    want = _reference_psm(ooi, tumor, spec, 1.0, 0.33).astype(np.float32)
    assert np.array_equal(mixed_psm(ooi, tumor, spec, 1.0, 0.33).data, want)


@settings(max_examples=300)
@given(
    masks=mask_pairs(),
    size=st.tuples(*[st.integers(1, 30)] * 3),
    stddev=st.booleans(),
    lam=st.floats(0.0, 1.0),
    mu=st.floats(1e-3, 1e3),
)
def test_box_psm_on_the_whole_grid_is_the_library_chain_bitwise(masks, size, stddev, lam, mu):
    # one blend and one mix: with no voxel off the box, box_psm runs exactly the library's steps
    spec = PatchSpec(size, sigma_is_stddev=stddev)
    s, _ = box_psm(*masks, masks[0].size, spec, mu, lam)
    want = combine_psm(*(psm_from_gain(gain_map(bool_grid(m, ANISO), spec), mu) for m in masks), lam).data
    assert s.dtype == want.dtype and s.tobytes() == want.tobytes()


def test_psm_refuses_a_mu_that_overflows_the_blend_and_stays_uniform_on_empty_masks():
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[1, 2, 3] = True
    spec = PatchSpec((2, 2, 2))
    for mu in (1e-320, 5e-324):
        with pytest.raises(ValueError, match=f"mu = {mu}"):
            psm_from_gain(gain_map(bool_grid(mask), spec), mu)
        with pytest.raises(ValueError, match=f"mu = {mu}"):
            box_psm(mask, mask, mask.size, spec, mu, 0.33)
        empty = np.zeros_like(mask)
        assert np.all(psm_from_gain(gain_map(bool_grid(empty), spec), mu).data == 1.0 / 64)
        s, c = box_psm(empty[:0, :0, :0], empty[:0, :0, :0], 64, spec, mu, 0.33)
        assert s.size == 0 and c == box_psm(empty[:0, :0, :0], empty[:0, :0, :0], 64, spec, 1.0, 0.33)[1]


def test_box_psm_rejects_bad_arguments():
    o = np.zeros((3, 3, 3), dtype=bool)
    spec = PatchSpec((2, 2, 2))
    bad = ((0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (1.0, 1.5), (1.0, -0.1), (1.0, math.nan))
    for mu, lam in bad:
        with pytest.raises(ValueError):
            box_psm(o, o, o.size, spec, mu, lam)
    with pytest.raises(ValueError):
        box_psm(o, np.zeros((3, 3, 1), dtype=bool), o.size, spec, 1.0, 0.33)  # it would broadcast
    with pytest.raises(ValueError):
        box_psm(o, np.zeros((3, 3, 3)), o.size, spec, 1.0, 0.33)


def test_box_psm_refuses_mu_and_lambda_before_building_a_gain():
    o = np.ones((6, 6, 6), dtype=bool)
    for mu, lam in ((0.0, 0.5), (math.nan, 0.5), (1.0, 1.5), (1.0, math.nan)):
        with mock.patch.object(sampling, "_gain", wraps=sampling._gain) as gain, pytest.raises(ValueError):
            box_psm(o, o, o.size, PatchSpec((2, 2, 2)), mu, lam)
        assert gain.call_count == 0


def _box_masks(shape, ooi_box, tumor_box, seed, density):
    """(OOI, tumor) masks of ``shape``, each random voxels of its box (None for no voxel) with the box's corners set."""
    rng = np.random.default_rng(seed)
    masks = []
    for box in (ooi_box, tumor_box):
        mask = np.zeros(shape, dtype=bool)
        if box is not None:
            sl = tuple(slice(a, b) for a, b in box)
            mask[sl] = rng.random(mask[sl].shape) < density
            mask[tuple(a for a, _ in box)] = mask[tuple(b - 1 for _, b in box)] = True
        masks.append(mask)
    return masks


@st.composite
def _psm_case(draw, kind):
    """(OOI, tumor) masks of a grid of up to 40^3 voxels: the tumor's box is inside, straddles or lies outside the
    OOI's box, or the tumor is empty."""
    shape = draw(st.tuples(*[st.integers(1, 40)] * 3))
    axis = draw(st.integers(0, 2))
    if kind in ("straddling", "outside"):
        shape = tuple(max(n, 3) if a == axis else n for a, n in enumerate(shape))

    def interval(lo, hi):
        a = draw(st.integers(lo, hi - 1))
        return a, draw(st.integers(a + 1, hi))

    ooi_box = [interval(0, n) for n in shape]
    tumor_box = [interval(a, b) if kind == "inside" else interval(0, n) for (a, b), n in zip(ooi_box, shape)]
    if kind in ("straddling", "outside"):  # the OOI's box ends at ``cut`` along ``axis``
        cut = draw(st.integers(1, shape[axis] - 1))
        ooi_box[axis] = interval(0, cut)[0], cut
        tumor_box[axis] = interval(cut, shape[axis]) if kind == "outside" else (
            draw(st.integers(0, cut - 1)), draw(st.integers(cut + 1, shape[axis])))
    seed, density = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.05, 0.3, 1.0]))
    return _box_masks(shape, ooi_box, None if kind == "empty" else tumor_box, seed, density)


def _check_box_psm_against_union_box_maps(ooi, tumor, spec, mu, lam):
    box = bounding_box(ooi | tumor, spec.radii)
    n = 3 * ooi.size  # a grid larger than the box, so Z adds the voxels off it
    s, c = box_psm(ooi[box], tumor[box], n, spec, mu, lam)
    want, want_c = box_psm_union(ooi[box], tumor[box], n, spec, mu, lam)
    assert s.dtype == want.dtype and s.tobytes() == want.tobytes()
    assert c == want_c


@pytest.mark.parametrize("kind", ["inside", "straddling", "outside", "empty"])
@settings(max_examples=200)
@given(data=st.data(), size=st.tuples(*[st.integers(1, 9)] * 3), stddev=st.booleans(),
       lam=st.floats(0.0, 1.0), mu=st.floats(1e-3, 1e3))
def test_box_psm_is_the_map_with_the_tumor_map_on_the_whole_box_bitwise(kind, data, size, stddev, lam, mu):
    ooi, tumor = data.draw(_psm_case(kind))
    _check_box_psm_against_union_box_maps(ooi, tumor, PatchSpec(size, sigma_is_stddev=stddev), mu, lam)


# (grid shape, OOI box, tumor box, patch size) per axis
_PSM_BOXES = {
    "one-voxel-union": ((1, 1, 1), [(0, 1)] * 3, [(0, 1)] * 3, (1, 1, 1)),
    "one-voxel-tumor": ((5, 6, 7), [(0, 5), (0, 6), (0, 7)], [(2, 3), (0, 1), (6, 7)], (1, 1, 1)),
    "one-voxel-straddle": ((1, 9, 1), [(0, 1), (0, 2), (0, 1)], [(0, 1), (8, 9), (0, 1)], (1, 3, 1)),
    # 42735 voxels: the pairwise sum's leaves hold 10680, 10680, 10680 and 10695 voxels
    "unequal-leaves-inside": ((33, 35, 37), [(0, 33), (0, 35), (0, 37)], [(10, 14), (3, 9), (30, 37)], (5, 7, 9)),
    "unequal-leaves-outside": ((33, 35, 37), [(0, 20), (0, 35), (0, 37)], [(25, 30), (3, 9), (30, 37)], (5, 7, 9)),
}


@pytest.mark.parametrize("case", _PSM_BOXES)
def test_box_psm_is_the_map_with_the_tumor_map_on_the_whole_box_at_the_edges(case):
    shape, ooi_box, tumor_box, size = _PSM_BOXES[case]
    ooi, tumor = _box_masks(shape, ooi_box, tumor_box, 7, 0.3)
    _check_box_psm_against_union_box_maps(ooi, tumor, PatchSpec(size), 0.7, 0.33)


# A colon-like cross-section fills a 40x160x160 grid's planes 10-29, radius 50 voxels; the tumor ball lies
# inside, across the edge of or outside the OOI's box, which the patch radii grow to 83-100% of the union box.
_TUMOR_BALLS = {"inside": ((20, 60, 90), 6), "straddling": ((20, 30, 80), 6), "outside": ((20, 150, 150), 4)}


@pytest.mark.parametrize("where", _TUMOR_BALLS)
def test_box_psm_holds_one_float64_box_map(where):
    z, y, x = np.ogrid[:40, :160, :160]
    (cz, cy, cx), r = _TUMOR_BALLS[where]
    ooi = ((y - 80) ** 2 + (x - 80) ** 2 <= 50**2) & (z >= 10) & (z < 30)
    tumor = (z - cz) ** 2 + (y - cy) ** 2 + (x - cx) ** 2 <= r * r
    spec = PatchSpec((16, 32, 32))
    box = bounding_box(ooi | tumor, spec.radii)
    ooi, tumor = ooi[box], tumor[box]
    (s, _), peak = peak_bytes(box_psm, ooi, tumor, 64 * ooi.size, spec, 1.0, 0.33)
    assert s.shape == ooi.shape
    # the organ's map on the box (8 B/voxel), the tumor's gain on its own box (under 0.8 B/voxel), the
    # two block buffers of a gain (1 MiB, 1.4-1.6 B/voxel) and a pairwise leaf: 9.4-10.4 B/voxel; with
    # the tumor's map on the whole box too it read 16.7-18.2
    assert peak < 10.5 * ooi.size


def test_box_psm_holds_at_most_two_float64_box_maps():
    # a colon-like cross-section fills the 20x128x128 box, with a tumor ball inside it
    shape = (20, 128, 128)
    z, y, x = np.ogrid[:20, :128, :128]
    ooi = np.broadcast_to((y - 63.5) ** 2 + (x - 63.5) ** 2 <= 62**2, shape).copy()
    tumor = (z - 10) ** 2 + (y - 40) ** 2 + (x - 70) ** 2 <= 36
    spec = PatchSpec((16, 32, 32))
    (s, _), peak = peak_bytes(box_psm, ooi, tumor, 64 * ooi.size, spec, 1.0, 0.33)
    assert s.shape == shape
    # the bound held the organ's map and the tumor's map on the box (16 B/voxel), the two block buffers
    # of a gain (1 MiB) and the tumor's gain on its own box: 19.0 B/voxel in all; the earlier version,
    # two box buffers per gain pass, a product per tap and a third map for lam * s_t, read 32.3
    assert peak < 17 * ooi.size + 16 * sampling._BLOCK


def test_draw_centers_rejects_maps_without_a_distribution():
    neg = np.full((2, 2, 2), 0.25)
    neg[0, 0, 0] = -0.75
    bad = [neg, np.zeros((2, 2, 2)), np.full((2, 2, 2), np.inf)]
    for at in (0, 7):  # NaN at the first voxel, then at the last
        nan = np.full(8, 1.0 / 7)
        nan[at] = np.nan
        bad.append(nan.reshape(2, 2, 2))
    for data in bad:
        with pytest.raises(ValueError, match="sampling map"):
            draw_centers(VoxelGrid(data.astype(np.float32), ISO), 3, seed=1)


def _draw_flat(prob: np.ndarray, count: int, seed: int) -> np.ndarray:
    """The documented draw rule, as flat indices: inverse cdf of the map renormalized in float64."""
    p64 = prob.astype(np.float64)
    cdf = np.cumsum(p64 / np.sum(p64))
    u = np.random.default_rng(seed).random(count)
    return np.clip(np.searchsorted(cdf, u, "right"), 0, p64.size - 1)


@st.composite
def stored_maps(draw):
    """Float32 maps as stored: random weights with zeros, or one-hot."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * 3))
    if draw(st.booleans()):
        data = np.zeros(shape, dtype=np.float32)
        data[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(st.sampled_from([2.0**-100, 1.0, 3e38]))
        return data
    weights = st.one_of(st.just(0.0), st.floats(2.0**-100, 2.0**100, width=32))
    data = draw(arrays(np.float32, shape, elements=weights))
    if not data.any():
        data.flat[draw(st.integers(0, data.size - 1))] = 1.0
    return data


@settings(max_examples=300)
@given(prob=stored_maps(), count=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_draw_centers_follows_the_documented_rule(prob, count, seed):
    got = draw_centers(VoxelGrid(prob, ISO), count, seed)
    want = np.stack(np.unravel_index(_draw_flat(prob, count, seed), prob.shape), axis=1)
    assert np.array_equal(got, want)


@st.composite
def slab_walk_maps(draw):
    """Float32 or uint8 maps with zero runs across slab edges, or mass on the first and last voxels only."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 16)))
    dtype = draw(st.sampled_from([np.float32, np.uint8]))
    n = math.prod(shape)
    if draw(st.booleans()):
        flat = np.zeros(n, dtype=dtype)
        flat[[0, -1]] = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (3, 200)]))
    else:
        weights = st.integers(1, 255) if dtype == np.uint8 else st.floats(2.0**-20, 2.0**20, width=32)
        flat = draw(arrays(dtype, n, elements=weights))
        for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 80)), max_size=4)):
            flat[start : start + length] = 0
    if not flat.any():
        flat[0] = 1
    return flat.reshape(shape)


@settings(max_examples=300)
@given(prob=slab_walk_maps(), slab=st.sampled_from([1, 7, 64]), count=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_draw_centers_walks_slab_edges_like_the_full_cdf(prob, slab, count, seed):
    with mock.patch.object(sampling, "_SLAB", slab):
        got = draw_centers(VoxelGrid(prob, ISO), count, seed)
    want = np.stack(np.unravel_index(_draw_flat(prob, count, seed), prob.shape), axis=1)
    assert np.array_equal(got, want)


@settings(max_examples=100)
@given(prob=slab_walk_maps(), slab=st.sampled_from([1, 7, 64]), chunk=st.sampled_from([16, 40, 1 << 14]),
       ext=st.sampled_from([".nii", ".raw"]), count=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_draw_centers_draws_from_a_volume_reader_what_it_draws_from_the_grid(prob, slab, chunk, ext, count, seed):
    # Chunks of 16 and 40 are below numpy's 128-element pairwise block, so the sum is no longer
    # np.sum's; the draw is therefore compared only with the draw from the grid under the same patch.
    vox = VoxelGrid(prob, ISO)
    with tempfile.TemporaryDirectory() as d, mock.patch.object(sampling, "_SLAB", slab), \
            mock.patch.object(grid, "_PAIRWISE_CHUNK", chunk):  # the sum's runs and the cdf's slabs differ
        path = Path(d) / f"map{ext}"
        write_volume(vox, VolumeMeta.for_grid(vox), path)
        with VolumeReader(path) as src:
            got = draw_centers(src, count, seed)
        assert np.array_equal(got, draw_centers(vox, count, seed))


def test_draw_centers_reads_the_map_once_by_leaf_for_the_sum_then_once_by_slab_for_the_cdf(tmp_path, rng):
    vox = VoxelGrid(rng.random((5, 16, 27)).astype(np.float32), ISO)  # leaves of uneven length
    write_volume(vox, VolumeMeta.for_grid(vox), tmp_path / "map.nii")
    n = vox.size
    with VolumeReader(tmp_path / "map.nii") as src, mock.patch.object(grid, "_PAIRWISE_CHUNK", 128), \
            mock.patch.object(sampling, "_SLAB", 500):
        with mock.patch.object(src, "read", wraps=src.read) as read:
            got = draw_centers(src, 50, seed=3)
        want = draw_centers(vox, 50, seed=3)
        runs = [c.args for c in read.call_args_list]
        k = next(i for i, (_, hi) in enumerate(runs) if hi == n) + 1  # the sum's last run
        assert_read_once_by_leaf(runs[:k], n)
    assert runs[k:] == [(lo, min(lo + 500, n)) for lo in range(0, n, 500)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("slab", [1, 7, 64])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_draw_centers_rejects_a_bad_voxel_in_the_last_slab_only(slab, bad):
    data = np.full(200, 0.5, dtype=np.float32)
    data[-1] = bad  # a -1 leaves the sum positive, so only the slab's min check sees it
    with mock.patch.object(sampling, "_SLAB", slab), pytest.raises(ValueError, match="sampling map"):
        draw_centers(VoxelGrid(data.reshape(2, 10, 10), ISO), 5, seed=1)


@pytest.mark.parametrize("slab", [1, 2, 3, 5, 8])
def test_a_uniform_equal_to_a_slab_edge_cdf_goes_to_the_next_voxel_with_mass(slab):
    flat = np.array([1, 1, 0, 0, 1, 3, 0, 0, 2, 0], dtype=np.float32)
    total = float(np.sum(flat.astype(np.float64)))
    cdf = np.cumsum(flat.astype(np.float64) / total)
    # every cdf value, so every slab's last one, the values just below them, 0 and the largest uniform
    u = np.sort(np.concatenate([[0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, 0.0)]))
    want = np.clip(np.searchsorted(cdf, u, "right"), 0, flat.size - 1)
    with mock.patch.object(sampling, "_SLAB", slab):
        assert np.array_equal(sampling._invert_sorted(VoxelGrid(flat.reshape(1, 1, -1), ISO), total, u), want)


def test_draw_centers_frees_the_map_without_the_cycle_collector():
    data = np.ones((4, 64, 256), dtype=np.float32)  # several pairwise runs
    ref = weakref.ref(data)
    gc.disable()
    try:
        draw_centers(VoxelGrid(data, ISO), 3, seed=1)
        del data
        assert ref() is None  # no reference cycle keeps the map alive after the draw
    finally:
        gc.enable()


def test_draw_centers_holds_40_bytes_a_draw():
    # the sorted uniforms, their order and the flat indices, then the order, the flat indices and the
    # (count, 3) rows, which the indices are split into in place: 40 B a draw (72 with unravel_index and stack)
    prob = np.random.default_rng(1).random((8, 16, 16)).astype(np.float32)
    count = 200_000
    _, peak = peak_bytes(draw_centers, VoxelGrid(prob, ISO), count, 3)
    assert peak < 41 * count


def test_draw_centers_degenerate_distribution():
    s = _delta_map((4, 4, 4), (2, 1, 3))
    centers = draw_centers(s, 50, seed=9)
    assert centers.shape == (50, 3) and np.issubdtype(centers.dtype, np.integer)
    assert np.all(centers == (2, 1, 3))


def test_draw_centers_deterministic_per_seed():
    s = _uniform_map((4, 4, 4))
    a = draw_centers(s, 100, seed=31)
    b = draw_centers(s, 100, seed=31)
    c = draw_centers(s, 100, seed=32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_centers_uniform_frequencies():
    # 2*10^5 draws on 4^3 uniform: every voxel within 5 sigma of the binomial mean
    s = _uniform_map((4, 4, 4))
    n = 200_000
    centers = draw_centers(s, n, seed=5)
    counts = np.bincount(np.ravel_multi_index(centers.T, (4, 4, 4)), minlength=64)
    p = 1.0 / 64
    sigma = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 5 * sigma)


def test_draw_centers_rejects_bad_count():
    s = _uniform_map((2, 2, 2))
    with pytest.raises(ValueError):
        draw_centers(s, 0, seed=1)
