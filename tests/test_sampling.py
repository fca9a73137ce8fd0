import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox.grid import Dims, VoxelGrid, make_grid
from anatvox.sampling import (
    PatchSpec,
    SamplingMap,
    combine_psm,
    draw_centers,
    gain_map,
    psm_from_gain,
)

from conftest import ANISO, ISO, bool_grid, gain_at_naive, gain_map_full, random_mask


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
    shape = draw(st.tuples(*[st.integers(1, 12)] * 3))
    lo = [draw(st.integers(0, n - 1)) for n in shape]
    hi = [draw(st.integers(a + 1, n)) for a, n in zip(lo, shape)]
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(map(slice, lo, hi))] = draw(arrays(np.bool_, tuple(b - a for a, b in zip(lo, hi))))
    return mask


@settings(max_examples=300)
@given(
    mask=boxed_masks(),
    size=st.tuples(*[st.integers(1, 30)] * 3),
    stddev=st.booleans(),
)
def test_gain_map_bitwise_equals_full_grid_passes(mask, size, stddev):
    # patch radii reach up to 15 voxels, past every axis of the grid
    o = bool_grid(mask, ANISO)
    spec = PatchSpec(size, sigma_is_stddev=stddev)
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


def test_psm_uniform_for_zero_gain():
    o = make_grid(Dims(4, 4, 4), ISO, False)
    s = psm_from_gain(gain_map(o, PatchSpec((2, 2, 2))), mu=1.0)
    assert np.all(s.grid.data == 1.0 / 64)


def test_psm_two_voxel_hand_case():
    # gains (0, 1), mu=1: intermediate (0.5, 1.5) normalizes to (0.25, 0.75)
    gain_grid = VoxelGrid(np.array([[[0.0, 1.0]]]), ISO)
    s = psm_from_gain(gain_grid, mu=1.0)
    assert s.grid.data[0, 0, 0] == pytest.approx(0.25, abs=1e-15)
    assert s.grid.data[0, 0, 1] == pytest.approx(0.75, abs=1e-15)


def test_psm_algebraic_identity(rng):
    for mu in (0.5, 1.0, 3.0):
        g = rng.random((4, 5, 6)) * 2.0
        before = g.copy()
        s = psm_from_gain(VoxelGrid(g, ISO), mu=mu)
        assert np.array_equal(g, before)  # the float64 gain is read, not overwritten
        n = g.size
        gbar = g.sum()
        expected = (g / mu + 1.0 / n) / (gbar / mu + 1.0)
        assert np.allclose(s.grid.data, expected, rtol=0, atol=1e-12)
        assert abs(float(s.grid.data.sum()) - 1.0) < 1e-12


def test_psm_monotone_in_gain(rng):
    g = rng.random((3, 3, 3))
    s = psm_from_gain(VoxelGrid(g, ISO), mu=1.0).grid.data
    flat_g = g.ravel()
    flat_s = s.ravel()
    order = np.argsort(flat_g)
    assert np.all(np.diff(flat_s[order]) > 0)


def test_psm_rejects_nonpositive_mu():
    o = make_grid(Dims(2, 2, 2), ISO, False)
    g = gain_map(o, PatchSpec((2, 2, 2)))
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError):
            psm_from_gain(g, mu)


def _uniform_map(shape):
    data = np.full(shape, 1.0 / np.prod(shape))
    return SamplingMap(VoxelGrid(data, ISO))


def _delta_map(shape, index):
    data = np.zeros(shape)
    data[index] = 1.0
    return SamplingMap(VoxelGrid(data, ISO))


def test_combine_psm_endpoints_and_affinity(rng):
    a = _uniform_map((3, 3, 3))
    b = _delta_map((3, 3, 3), (1, 2, 0))
    assert np.array_equal(combine_psm(a, b, 0.0).grid.data, a.grid.data)
    assert np.array_equal(combine_psm(a, b, 1.0).grid.data, b.grid.data)
    lam = 0.33
    mixed = combine_psm(a, b, lam).grid.data
    assert np.allclose(mixed, (1 - lam) * a.grid.data + lam * b.grid.data, atol=0)
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


def test_sampling_map_validation():
    with pytest.raises(ValueError):
        SamplingMap(VoxelGrid(np.full((2, 2, 2), 0.2), ISO))  # sums to 1.6
    with pytest.raises(ValueError):
        neg = np.full((2, 2, 2), 0.25)
        neg[0, 0, 0] = -0.75
        SamplingMap(VoxelGrid(neg, ISO))
    for bad in (0, 7):  # NaN at the first voxel, then at the last
        nan = np.full(8, 1.0 / 7)
        nan[bad] = np.nan
        with pytest.raises(ValueError):
            SamplingMap(VoxelGrid(nan.reshape(2, 2, 2), ISO))


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
