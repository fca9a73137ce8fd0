"""Public operations never write through their inputs, though the CLI stages work in place.

Each test runs an operation and checks that every input array it was given
holds the same bytes afterwards.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from anatvox.grid import VoxelGrid, to_bool
from anatvox.maskgen import OrganConfig, build_ooi, select_labels
from anatvox.morphology import FACE6, FULL26, boundary_band, dilate, erode
from anatvox.sslmask import NoiseSpec, mask_bowel_wall
from anatvox.volio import VolumeMeta, write_volume

from conftest import ANISO

SHAPES = array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6)
ELEMS = st.sampled_from([FACE6, FULL26])
RADII = st.integers(0, 3)
CODES = st.frozensets(st.integers(0, 6), min_size=1, max_size=3)


def _label_grids(dtype):
    return arrays(dtype, SHAPES, elements=st.integers(0, 6)).map(lambda a: VoxelGrid(a, ANISO))


def _unchanged(*grids):
    """A check that each grid's array still holds the bytes it holds now."""
    before = [(g.data, g.data.tobytes()) for g in grids]
    return lambda: all(a.tobytes() == b for a, b in before)


@settings(max_examples=100)
@given(mask=arrays(np.bool_, SHAPES), elem=ELEMS, r_out=RADII, r_in=RADII)
def test_morphology_leaves_its_mask_unchanged(mask, elem, r_out, r_in):
    grid = VoxelGrid(mask, ANISO)
    unchanged = _unchanged(grid)
    dilate(grid, elem, r_out)
    erode(grid, elem, r_in)
    boundary_band(grid, elem, r_out, r_in)
    assert unchanged()


@settings(max_examples=100)
@given(data=st.data(), dtype=st.sampled_from([np.uint8, np.int16, np.int32, np.float32]),
       set_ts=CODES, set_word=CODES, times=RADII, elem=ELEMS)
def test_label_selection_leaves_its_labels_unchanged(data, dtype, set_ts, set_word, times, elem):
    ts = data.draw(_label_grids(dtype))
    word = VoxelGrid(data.draw(arrays(dtype, ts.data.shape, elements=st.integers(0, 6))), ANISO)
    unchanged = _unchanged(ts, word)
    select_labels(ts, set_ts)
    build_ooi(ts, word, OrganConfig(set_ts=set_ts, set_word=set_word, dilate_times=times, elem=elem))
    assert unchanged()


@settings(max_examples=100)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.int16]), seed=st.integers(0, 2**32))
def test_mask_bowel_wall_leaves_image_and_band_unchanged(data, dtype, seed):
    image = VoxelGrid(data.draw(arrays(dtype, SHAPES, elements=st.integers(-1000, 1000))), ANISO)
    band = VoxelGrid(data.draw(arrays(np.bool_, image.data.shape)), ANISO)
    unchanged = _unchanged(image, band)
    out = mask_bowel_wall(image, band, NoiseSpec(seed=seed))
    assert unchanged()
    assert not np.shares_memory(out.data, image.data)


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=_label_grids(np.uint8), mask=arrays(np.bool_, SHAPES))
def test_to_bool_and_a_bool_write_leave_their_grid_unchanged(tmp_path, labels, mask):
    unchanged = _unchanged(labels)
    assert not np.shares_memory(to_bool(labels).data, labels.data)
    assert unchanged()
    grid = VoxelGrid(mask, ANISO)
    unchanged = _unchanged(grid)
    write_volume(grid, VolumeMeta.for_grid(grid), tmp_path / "mask.nii")
    assert unchanged()
