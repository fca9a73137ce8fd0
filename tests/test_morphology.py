import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox.grid import Dims, make_grid
from anatvox.morphology import (
    FACE6,
    FULL26,
    StructElem,
    boundary_band,
    dilate,
    dilate_mask,
    erode,
    erode_mask,
)

from conftest import ISO, bool_grid, dilate_naive, erode_naive, random_mask


def test_struct_elem_offsets():
    assert len(FACE6.offsets) == 6
    assert len(FULL26.offsets) == 26
    assert (0, 0, 0) not in FULL26.offsets
    with pytest.raises(ValueError):
        StructElem("ball")


def test_dilate_empty_stays_empty():
    m = make_grid(Dims(6, 6, 6), ISO, False)
    assert not np.any(dilate(m, FACE6, 5).data)
    assert not np.any(dilate(m, FULL26, 5).data)


def test_dilate_single_voxel_face6():
    m = make_grid(Dims(9, 9, 9), ISO, False)
    m.data[4, 4, 4] = True
    d = dilate(m, FACE6, 1)
    assert int(d.data.sum()) == 7
    assert d.data[4, 4, 4] and d.data[3, 4, 4] and d.data[4, 4, 5]


def test_dilate_single_voxel_full26():
    m = make_grid(Dims(9, 9, 9), ISO, False)
    m.data[4, 4, 4] = True
    d = dilate(m, FULL26, 1)
    assert int(d.data.sum()) == 27
    assert np.all(d.data[3:6, 3:6, 3:6])


def test_dilate_times_zero_is_identity(rng):
    m = bool_grid(random_mask(rng, (5, 6, 7)))
    assert np.array_equal(dilate(m, FACE6, 0).data, m.data)
    assert np.array_equal(erode(m, FULL26, 0).data, m.data)


def test_dilate_matches_brute_force_neighborhood_union(rng):
    # brute force: voxel-by-voxel union over the structuring element
    mask = random_mask(rng, (8, 8, 8), 0.25)
    for elem in (FACE6, FULL26):
        expected = mask.copy()
        for _ in range(2):
            step = np.zeros_like(expected)
            for z in range(8):
                for y in range(8):
                    for x in range(8):
                        if not expected[z, y, x]:
                            continue
                        step[z, y, x] = True
                        for dz, dy, dx in elem.offsets:
                            zz, yy, xx = z + dz, y + dy, x + dx
                            if 0 <= zz < 8 and 0 <= yy < 8 and 0 <= xx < 8:
                                step[zz, yy, xx] = True
            expected = step
        assert np.array_equal(dilate_mask(mask, elem, 2), expected)


def test_erode_full_grid_removes_border():
    m = make_grid(Dims(5, 6, 7), ISO, True)
    e = erode(m, FACE6, 1)
    expected = np.zeros((5, 6, 7), dtype=bool)
    expected[1:-1, 1:-1, 1:-1] = True
    assert np.array_equal(e.data, expected)


def test_erode_of_dilated_point_returns_point():
    m = make_grid(Dims(9, 9, 9), ISO, False)
    m.data[4, 4, 4] = True
    opened = erode(dilate(m, FACE6, 1), FACE6, 1)
    assert np.array_equal(opened.data, m.data)


def test_duality_on_interior_masks(rng):
    # masks padded away from the border satisfy erode(A) == NOT dilate(NOT A)
    for elem in (FACE6, FULL26):
        for _ in range(25):
            inner = random_mask(rng, (6, 6, 6), 0.4)
            mask = np.zeros((8, 8, 8), dtype=bool)
            mask[1:-1, 1:-1, 1:-1] = inner
            lhs = erode_mask(mask, elem, 1)
            rhs = ~dilate_mask(~mask, elem, 1)
            assert np.array_equal(lhs, rhs)


def test_extensivity_and_monotonicity(rng):
    for _ in range(30):
        a = random_mask(rng, (8, 8, 8), 0.3)
        b = a | random_mask(rng, (8, 8, 8), 0.2)
        for elem in (FACE6, FULL26):
            da, db = dilate_mask(a, elem, 1), dilate_mask(b, elem, 1)
            ea, eb = erode_mask(a, elem, 1), erode_mask(b, elem, 1)
            assert np.all(da >= a) and np.all(ea <= a)  # extensive / anti-extensive
            assert np.all(db >= da) and np.all(eb >= ea)  # monotone in the mask


def test_iteration_additivity(rng):
    for _ in range(10):
        m = random_mask(rng, (7, 9, 11), 0.15)
        for elem in (FACE6, FULL26):
            ab = dilate_mask(m, elem, 3)
            a_then_b = dilate_mask(dilate_mask(m, elem, 1), elem, 2)
            assert np.array_equal(ab, a_then_b)


@pytest.mark.parametrize("nx", [3, 13, 63, 64, 65, 100, 128, 130])
def test_packed_equals_naive_across_word_boundaries(rng, nx):
    mask = random_mask(rng, (4, 5, nx), 0.35)
    for elem in (FACE6, FULL26):
        for t in (1, 2, 3):
            assert np.array_equal(dilate_mask(mask, elem, t), dilate_naive(mask, elem, t))
            assert np.array_equal(erode_mask(mask, elem, t), erode_naive(mask, elem, t))


@settings(max_examples=300, deadline=None)
@given(
    mask=arrays(np.bool_, st.tuples(*[st.integers(1, 6)] * 3)),
    elem=st.sampled_from([FACE6, FULL26]),
    times=st.integers(0, 3),
)
def test_morphology_equals_naive_oracle_on_small_axes(mask, elem, times):
    # size-1 axes have no in-grid neighbor on either side
    assert np.array_equal(dilate_mask(mask, elem, times), dilate_naive(mask, elem, times))
    assert np.array_equal(erode_mask(mask, elem, times), erode_naive(mask, elem, times))


def test_boundary_band_cube_shell():
    # solid 5^3 cube: band at r=1 is the two-voxel shell straddling the surface
    m = make_grid(Dims(11, 11, 11), ISO, False)
    m.data[3:8, 3:8, 3:8] = True
    band = boundary_band(m, FACE6, 1, 1)
    expected = dilate_naive(m.data, FACE6, 1) & ~erode_naive(m.data, FACE6, 1)
    assert np.array_equal(band.data, expected)
    # contains the cube's own boundary voxels
    boundary = m.data & ~erode_naive(m.data, FACE6, 1)
    assert np.all(band.data[boundary])


def test_boundary_band_empty_and_zero_radius(rng):
    empty = make_grid(Dims(6, 6, 6), ISO, False)
    assert not np.any(boundary_band(empty, FACE6, 1, 1).data)
    m = bool_grid(random_mask(rng, (6, 6, 6)))
    assert not np.any(boundary_band(m, FACE6, 0, 0).data)


def test_boundary_band_contains_face_boundary(rng):
    for _ in range(10):
        m = bool_grid(random_mask(rng, (8, 8, 8), 0.3))
        band = boundary_band(m, FACE6, 1, 1)
        boundary = m.data & ~erode_naive(m.data, FACE6, 1)
        assert np.all(band.data[boundary])


def test_negative_times_rejected(rng):
    m = bool_grid(random_mask(rng, (4, 4, 4)))
    with pytest.raises(ValueError):
        dilate(m, FACE6, -1)
    with pytest.raises(ValueError):
        boundary_band(m, FACE6, -1, 0)
