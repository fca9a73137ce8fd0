import numpy as np
import pytest

from anatvox.grid import Dims, Spacing, VoxelGrid, extract_patch, make_grid, to_bool

from conftest import ISO


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
