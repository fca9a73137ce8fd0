import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anatvox import morphology
from anatvox.grid import Dims, VoxelGrid, bounding_box
from anatvox.maskgen import OrganConfig, build_ooi
from anatvox.morphology import (
    FACE6,
    FULL26,
    StructElem,
    boundary_band,
    dilate,
    dilate_mask,
    elem_from_name,
    erode,
    erode_mask,
)

from conftest import ISO, bool_grid, dilate_naive, erode_naive, make_grid, offsets, random_mask


def test_struct_elem_offsets():
    assert len(offsets(FACE6)) == 6
    assert len(offsets(FULL26)) == 26
    assert (0, 0, 0) not in offsets(FULL26)
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
                        for dz, dy, dx in offsets(elem):
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
def test_boolean_path_equals_naive_on_long_x_axes(rng, nx):
    mask = random_mask(rng, (4, 5, nx), 0.35)
    for elem in (FACE6, FULL26):
        for t in (1, 2, 3):
            assert np.array_equal(dilate_mask(mask, elem, t), dilate_naive(mask, elem, t))
            assert np.array_equal(erode_mask(mask, elem, t), erode_naive(mask, elem, t))


@settings(max_examples=300)
@given(
    mask=arrays(np.bool_, st.tuples(*[st.integers(1, 6)] * 3)),
    elem=st.sampled_from([FACE6, FULL26]),
    times=st.integers(0, 3),
)
def test_morphology_equals_naive_oracle_on_small_axes(mask, elem, times):
    # size-1 axes have no in-grid neighbor on either side
    assert np.array_equal(dilate_mask(mask, elem, times), dilate_naive(mask, elem, times))
    assert np.array_equal(erode_mask(mask, elem, times), erode_naive(mask, elem, times))


@settings(max_examples=200)
@given(
    mask=arrays(np.bool_, st.tuples(*[st.integers(1, 5)] * 3)),
    elem=st.sampled_from([FACE6, FULL26]),
    extra=st.integers(1, 4),
)
def test_repeats_past_sum_of_shape_change_nothing(mask, elem, extra):
    # by sum(shape) steps dilation is empty or full and erosion is empty
    cap = sum(mask.shape)
    for op, oracle in ((dilate_mask, dilate_naive), (erode_mask, erode_naive)):
        at_cap = op(mask, elem, cap)
        assert np.array_equal(at_cap, oracle(mask, elem, cap))
        assert np.array_equal(op(mask, elem, cap + extra), at_cap)
        assert np.array_equal(oracle(mask, elem, cap + extra), at_cap)


def test_elem_name_must_be_a_string():
    assert elem_from_name("FULL26") == FULL26
    for bad in (5, None, b"face6", ["face6"]):
        with pytest.raises(ValueError):
            elem_from_name(bad)
    with pytest.raises(ValueError):
        elem_from_name("cross")


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


@st.composite
def sparse_masks(draw):
    """A grid of up to 10x12x14 holding up to four voxels or small blobs, often on its faces, edges and corners."""
    shape = draw(st.tuples(st.integers(1, 10), st.integers(1, 12), st.integers(1, 14)))
    mask = np.zeros(shape, dtype=bool)
    for _ in range(draw(st.integers(0, 4))):
        lo = [draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1)) for n in shape]
        blob = tuple(slice(a, a + draw(st.integers(1, 4))) for a in lo)
        mask[blob] |= draw(arrays(np.bool_, mask[blob].shape))
    return mask


@settings(max_examples=300, deadline=None)
@given(mask=sparse_masks(), elem=st.sampled_from([FACE6, FULL26]), times=st.integers(0, 4), past=st.booleans())
def test_morphology_on_sparse_masks_equals_naive_oracle(mask, elem, times, past):
    # the steps run on the mask's grown box alone, which here is seldom the whole grid
    if past:
        times += sum(mask.shape)
    want = dilate_naive(mask, elem, times)
    assert np.array_equal(dilate_mask(mask, elem, times), want)
    assert np.array_equal(erode_mask(mask, elem, times), erode_naive(mask, elem, times))
    labels = VoxelGrid(mask.astype(np.uint8), ISO)  # build_ooi dilates its own union in place
    cfg = OrganConfig(set_ts={1}, set_word={1}, dilate_times=times, elem=elem)
    assert np.array_equal(build_ooi(labels, labels.with_data(np.zeros_like(labels.data)), cfg).data, want)


@settings(max_examples=300, deadline=None)
@given(mask=sparse_masks(), elem=st.sampled_from([FACE6, FULL26]), r_out=st.integers(0, 3), r_in=st.integers(0, 3))
def test_boundary_band_on_sparse_masks_equals_naive_oracle(mask, elem, r_out, r_in):
    want = dilate_naive(mask, elem, r_out) ^ erode_naive(mask, elem, r_in)
    assert np.array_equal(boundary_band(bool_grid(mask), elem, r_out, r_in).data, want)


@pytest.fixture
def pass_shapes(monkeypatch):
    """(shape, erode) of the array each ``_axis_pass`` call works on, in call order."""
    shapes = []
    real = morphology._axis_pass

    def spy(out, src, axis, erode):
        shapes.append((out.shape, erode))
        real(out, src, axis, erode)

    monkeypatch.setattr(morphology, "_axis_pass", spy)
    return shapes


@pytest.mark.parametrize("elem", [FACE6, FULL26])
def test_steps_work_on_the_masks_box_alone(pass_shapes, elem):
    mask = np.zeros((20, 40, 40), dtype=bool)
    mask[10, 20, 20] = True
    dilate_mask(mask, elem, 3)
    assert pass_shapes == [((7, 7, 7), False)] * 9  # the voxel grown by 3 on every side
    pass_shapes.clear()
    mask[9:12, 18:23, 20] = True
    erode_mask(mask, elem, 2)
    assert pass_shapes == [((3, 5, 1), True)] * 6  # an erosion never leaves the mask's box


def test_an_empty_mask_makes_no_pass(pass_shapes):
    empty = np.zeros((20, 40, 40), dtype=bool)
    for elem in (FACE6, FULL26):
        assert not dilate_mask(empty, elem, 3).any() and not erode_mask(empty, elem, 3).any()
        assert not boundary_band(bool_grid(empty), elem, 2, 2).data.any()
    assert pass_shapes == []


@pytest.mark.parametrize("elem", [FACE6, FULL26])
def test_boundary_band_works_on_the_masks_box_grown_by_r_out(pass_shapes, elem):
    mask = np.zeros((20, 40, 40), dtype=bool)
    mask[4:9, 30:39, 1:6] = True
    grown = tuple(s.stop - s.start for s in bounding_box(mask, (2, 2, 2)))
    assert grown == (9, 12, 8)  # clipped at the high y face and the low x face
    boundary_band(bool_grid(mask), elem, 2, 1)
    assert pass_shapes == [((5, 9, 5), True)] * 3 + [(grown, False)] * 6
