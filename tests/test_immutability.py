"""Public operations never write through their inputs, though the CLI stages and the psm steps work in place.

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
from anatvox.sampling import PatchSpec, box_psm, combine_psm, gain_map, psm_from_gain
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
    out = mask_bowel_wall(image, band, NoiseSpec(), seed)
    assert unchanged()
    assert not np.shares_memory(out.data, image.data)


FLOATS = st.sampled_from([np.float32, np.float64])


@settings(max_examples=100)
@given(data=st.data(), mask=arrays(np.bool_, SHAPES), size=st.tuples(*[st.integers(1, 5)] * 3),
       mu=st.sampled_from([0.5, 1.0, 2.0]), lam=st.sampled_from([0.0, 0.33, 1.0]))
def test_the_psm_algebra_leaves_its_masks_gains_and_maps_unchanged(data, mask, size, mu, lam):
    # the blend and the mix work in place, so each public step must hand them a copy
    ooi, tumor = VoxelGrid(mask, ANISO), VoxelGrid(data.draw(arrays(np.bool_, mask.shape)), ANISO)
    gain, s_organ, s_tumor = (
        VoxelGrid(data.draw(arrays(data.draw(FLOATS), mask.shape, elements=st.floats(0, 4, width=32))), ANISO)
        for _ in range(3)
    )
    unchanged = _unchanged(ooi, tumor, gain, s_organ, s_tumor)
    spec = PatchSpec(size)
    outs = [gain_map(ooi, spec).data, psm_from_gain(gain, mu).data, combine_psm(s_organ, s_tumor, lam).data,
            box_psm(ooi.data, tumor.data, mask.size, spec, mu, lam)[0]]
    assert unchanged()
    assert not any(np.shares_memory(out, g.data) for out in outs for g in (ooi, tumor, gain, s_organ, s_tumor))


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
