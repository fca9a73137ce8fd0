from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anatvox import grid
from anatvox.grid import Dims, Spacing, VoxelGrid, bounding_box, extract_patch, pairwise_sum, pasted_run, to_bool

from conftest import ISO, make_grid


def test_make_grid_constant_fill():
    g = make_grid(Dims(2, 2, 2), ISO, 0.0)
    assert g.data.shape == (2, 2, 2)
    assert np.all(g.data == 0.0)


def test_make_grid_single_voxel():
    g = make_grid(Dims(1, 1, 1), ISO, 1.0)
    assert g.data.shape == (1, 1, 1)
    assert g.data[0, 0, 0] == 1.0


def test_make_grid_rejects_degenerate_dims():
    with pytest.raises(ValueError):
        Dims(0, 3, 3)
    with pytest.raises(ValueError):
        Dims(3, -1, 3)


def test_spacing_must_be_positive_finite():
    with pytest.raises(ValueError):
        Spacing(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Spacing(1.0, float("nan"), 1.0)


def test_extract_patch_full_cover_identity():
    g = make_grid(Dims(3, 3, 3), ISO, 1.0)
    p = extract_patch(g, (1, 1, 1), (3, 3, 3), pad=0.0)
    assert np.array_equal(p.data, g.data)
    assert p.spacing == g.spacing


def test_extract_patch_corner_overlap():
    # center at the corner: only the high octant overlaps, 8 ones + 19 pads
    g = make_grid(Dims(3, 3, 3), ISO, 1.0)
    p = extract_patch(g, (0, 0, 0), (3, 3, 3), pad=0.0)
    assert int(p.data.sum()) == 8
    assert int((p.data == 0).sum()) == 19
    assert np.all(p.data[1:, 1:, 1:] == 1.0)


def test_extract_patch_even_size_convention():
    # size 2 covers coordinates c-1..c: center is the high-index voxel
    g = make_grid(Dims(4, 4, 4), ISO, 0.0)
    g.data[1, 1, 1] = 7.0
    g.data[2, 2, 2] = 9.0
    p = extract_patch(g, (2, 2, 2), (2, 2, 2), pad=0.0)
    assert p.data[0, 0, 0] == 7.0
    assert p.data[1, 1, 1] == 9.0


def test_extract_patch_center_outside_rejected():
    g = make_grid(Dims(3, 3, 3), ISO, 0.0)
    with pytest.raises(ValueError):
        extract_patch(g, (3, 0, 0), (3, 3, 3))
    with pytest.raises(ValueError):
        extract_patch(g, (0, -1, 0), (3, 3, 3))
    # a center or size value that is not an integer is refused, not truncated
    for center, size in [((1.7, 2, 2), (1, 1, 1)), ((1, 1, 1), (2.9, 1, 1)), ((True, 1, 1), (1, 1, 1)),
                         ((1, 1, 1), (1, True, 1)), (("1", 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1, "1")),
                         ((1.0, 1, 1), (1, 1, 1)), ((1, 1, 1), (3, 3, 3.0)), ((1, 1), (1, 1, 1)),
                         ((1, 1, 1), (0, 1, 1))]:
        with pytest.raises(ValueError, match="integers"):
            extract_patch(g, center, size)
    # numpy integers, which draw_centers returns, stay accepted
    center = tuple(np.array([1, 1, 1]))
    assert extract_patch(g, center, (np.int32(3), 3, 3)).data.tobytes() == g.data.tobytes()


def test_extract_patch_pad_must_read_back_from_the_grid_dtype():
    labels = VoxelGrid(np.ones((3, 3, 3), dtype=np.uint8), ISO)
    for bad in (-1, -1.0, 256, 300.0, 0.5, float("nan"), float("inf"), 2**70):
        with pytest.raises(ValueError, match="uint8"):
            extract_patch(labels, (0, 0, 0), (3, 3, 3), pad=bad)
    p = extract_patch(labels, (0, 0, 0), (3, 3, 3), pad=255.0)
    assert p.data.dtype == np.uint8 and p.data[0, 0, 0] == 255 and p.data[2, 2, 2] == 1
    ct = make_grid(Dims(3, 3, 3), ISO, 1.0)  # float32
    for bad in (0.1, 1e300):  # rounded, and overflowing to inf
        with pytest.raises(ValueError, match="float32"):
            extract_patch(ct, (0, 0, 0), (3, 3, 3), pad=bad)
    assert np.isnan(extract_patch(ct, (0, 0, 0), (3, 3, 3), pad=float("nan")).data[0, 0, 0])
    assert extract_patch(ct, (0, 0, 0), (3, 3, 3), pad=-1024).data[0, 0, 0] == -1024.0


def test_extract_patch_interior_idempotent(rng):
    g = VoxelGrid(rng.random((8, 8, 8)).astype(np.float32), ISO)
    p1 = extract_patch(g, np.array([4, 4, 4]), (3, 3, 3), pad=0.0)
    p2 = extract_patch(p1, (1, 1, 1), (3, 3, 3), pad=0.0)
    assert np.array_equal(p1.data, p2.data)


def test_to_bool_from_labels():
    g = make_grid(Dims(2, 2, 2), ISO, 0, dtype=np.uint8)
    g.data[0, 0, 0] = 5
    b = to_bool(g)
    assert b.data.dtype == np.bool_
    assert int(b.data.sum()) == 1


def test_bounding_box_grows_and_clips():
    m = np.zeros((5, 6, 7), dtype=bool)
    assert bounding_box(m) is None
    assert bounding_box(m, (2, 2, 2)) is None
    m[1, 2, 3] = m[2, 4, 3] = True
    assert bounding_box(m) == (slice(1, 3), slice(2, 5), slice(3, 4))
    assert bounding_box(m, (1, 0, 2)) == (slice(0, 4), slice(2, 5), slice(1, 6))
    assert bounding_box(m, (9, 9, 9)) == (slice(0, 5), slice(0, 6), slice(0, 7))
    m[:] = False
    m[4, 5, 6] = True  # the far corner: growth clips at the high ends
    assert bounding_box(m, (1, 1, 1)) == (slice(3, 5), slice(4, 6), slice(5, 7))
    assert np.array_equal(m[bounding_box(m)], np.ones((1, 1, 1), dtype=bool))


@pytest.mark.parametrize("n", [1, 127, 128, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_pairwise_sum_of_widened_runs_is_bitwise_np_sum(n):
    rng = np.random.default_rng(n)
    # magnitudes over 16 decades, so a sum in another order rounds differently
    x = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)).astype(np.float32)
    want = float(np.sum(x.astype(np.float64))).hex()
    # runs of at least numpy's 128-element pairwise block: the chunks the loss tests patch in, and the default
    for chunk in (128, 200, 1 << 14):
        with mock.patch.object(grid, "_PAIRWISE_CHUNK", chunk):
            got = pairwise_sum(lambda lo, hi: np.sum(x[lo:hi].astype(np.float64)), 0, n)
        assert float(got).hex() == want, chunk


@given(data=st.data(), shape=st.tuples(*[st.integers(1, 6)] * 3), dtype=st.sampled_from([np.float64, np.float32]))
def test_pasted_run_is_the_run_of_the_constant_array_with_the_box_pasted_in(data, shape, dtype):
    if data.draw(st.booleans(), "empty box"):
        box = (slice(0, 0),) * 3
    else:
        lo = [data.draw(st.integers(0, n - 1)) for n in shape]
        box = tuple(slice(a, data.draw(st.integers(a + 1, n))) for a, n in zip(lo, shape))
    values = np.random.default_rng(0).random(tuple(s.stop - s.start for s in box))
    whole = np.full(shape, 0.25, dtype=dtype)
    whole[box] = values
    lo = data.draw(st.integers(0, whole.size))
    hi = data.draw(st.integers(lo, whole.size))
    got = pasted_run(shape, box, values, 0.25, lo, hi, dtype)
    assert got.dtype == dtype and got.tobytes() == whole.reshape(-1)[lo:hi].tobytes()
