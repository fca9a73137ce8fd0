import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anatvox import volio
from anatvox.grid import Dims, Spacing, VoxelGrid, bounding_box
from anatvox.maskgen import bowel_wall
from anatvox.morphology import FACE6
from anatvox.phantom import (
    ARC_HALF_ANGLE,
    PhantomSpec,
    TissueStats,
    arc_params,
    centerline_distance,
    gen_phantom,
    tumor_center_voxel,
)

from conftest import JSON_VALUES, gen_phantom_full, peak_bytes

SMALL = PhantomSpec(dims=Dims(24, 64, 64), spacing=Spacing(2.0, 1.0, 1.0), seed=7)


def _analytic_distance(spec, zyx_mm):
    """Independent centerline distance for a single physical point."""
    (cz, cy, cx), radius = arc_params(spec)
    pz, py, px = zyx_mm
    rho = math.hypot(py - cy, px - cx)
    phi = math.atan2(py - cy, px - cx)
    if abs(phi) <= ARC_HALF_ANGLE:
        return math.hypot(rho - radius, pz - cz)
    best = math.inf
    for ang in (ARC_HALF_ANGLE, -ARC_HALF_ANGLE):
        ey, ex = cy + radius * math.sin(ang), cx + radius * math.cos(ang)
        best = min(best, math.sqrt((pz - cz) ** 2 + (py - ey) ** 2 + (px - ex) ** 2))
    return best


def test_same_spec_bit_identical():
    a = gen_phantom(SMALL)
    b = gen_phantom(SMALL)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga.data, gb.data)


def test_label_codes_partition():
    ct, labels, tumor = gen_phantom(SMALL)
    codes = set(np.unique(labels.data).tolist())
    assert codes >= {0, 1}
    assert codes <= set(range(2 + SMALL.n_distractors))
    assert ct.data.dtype == np.float32
    assert np.all(np.isfinite(ct.data))
    assert tumor.data.dtype == np.bool_


def test_tumor_centroid_distance_in_range():
    _, _, tumor = gen_phantom(SMALL)
    idx = np.argwhere(tumor.data)
    assert idx.size > 0
    centroid = idx.mean(axis=0) * np.array(SMALL.spacing.zyx)
    d = _analytic_distance(SMALL, centroid)
    lo = SMALL.tube_radius_mm - SMALL.wall_thickness_mm - SMALL.tumor_radius_mm
    hi = SMALL.tube_radius_mm + SMALL.tumor_radius_mm
    assert lo <= d <= hi


def test_tumor_center_is_a_wall_voxel():
    _, labels, tumor = gen_phantom(SMALL)
    c = tumor_center_voxel(SMALL)
    assert len(c) == 3 and all(type(v) is int for v in c)
    dist = centerline_distance(SMALL)
    assert labels.data[c] == 1
    assert SMALL.tube_radius_mm - SMALL.wall_thickness_mm <= dist[c] <= SMALL.tube_radius_mm
    wall = (labels.data == 1) & (dist >= SMALL.tube_radius_mm - SMALL.wall_thickness_mm)
    assert int((tumor.data & wall).sum()) > 0


def test_wall_band_covers_analytic_surface():
    _, labels, _ = gen_phantom(SMALL)
    colon = VoxelGrid(labels.data == 1, SMALL.spacing)
    band = bowel_wall(colon, FACE6, 1, 1)
    dist = centerline_distance(SMALL)
    near_surface = np.abs(dist - SMALL.tube_radius_mm) <= 0.5 * min(SMALL.spacing.zyx)
    assert near_surface.any()
    covered = (band.data & near_surface).sum() / near_surface.sum()
    assert covered >= 0.95


def test_seed_changes_only_intensity_and_distractors():
    spec_a = SMALL
    spec_b = PhantomSpec(dims=SMALL.dims, spacing=SMALL.spacing, seed=99)
    ct_a, labels_a, tumor_a = gen_phantom(spec_a)
    ct_b, labels_b, tumor_b = gen_phantom(spec_b)
    assert np.array_equal(tumor_a.data, tumor_b.data)
    assert np.array_equal(labels_a.data == 1, labels_b.data == 1)
    assert not np.array_equal(ct_a.data, ct_b.data)


def test_no_distractors():
    spec = PhantomSpec(dims=SMALL.dims, spacing=SMALL.spacing, n_distractors=0, seed=1)
    _, labels, _ = gen_phantom(spec)
    assert set(np.unique(labels.data).tolist()) == {0, 1}


def test_geometric_impossibility_rejected():
    with pytest.raises(ValueError):
        gen_phantom(PhantomSpec(dims=Dims(8, 12, 12), spacing=Spacing(1, 1, 1)))
    with pytest.raises(ValueError):
        PhantomSpec(wall_thickness_mm=9.0, tube_radius_mm=8.0)
    with pytest.raises(ValueError):
        TissueStats(0.0, -1.0)


def test_from_json_round_trip_and_unknown_keys():
    spec = PhantomSpec.from_json(
        {
            "dims": [24, 64, 64],
            "spacing": [2.0, 1.0, 1.0],
            "tube_radius_mm": 7.0,
            "intensity": {"tumor": [0.9, 0.01]},
            "seed": 5,
        }
    )
    assert spec.tube_radius_mm == 7.0
    assert spec.tumor == TissueStats(0.9, 0.01)
    with pytest.raises(ValueError):
        PhantomSpec.from_json({"tube_radius": 7.0})
    with pytest.raises(ValueError):
        PhantomSpec.from_json({"intensity": {"bone": [1, 0.1]}})


def test_to_json_round_trips():
    assert PhantomSpec.from_json(SMALL.to_json()) == SMALL
    assert PhantomSpec.from_json({}) == PhantomSpec()
    assert PhantomSpec.from_json({"dims": (24, 64, 64), "spacing": (2.0, 1, 1), "seed": 7}) == SMALL


SPEC_JSON = PhantomSpec().to_json()
SPEC_PATHS = [(key,) for key in SPEC_JSON] + [("intensity", region) for region in SPEC_JSON["intensity"]]


@settings(max_examples=300)
@given(path=st.sampled_from(SPEC_PATHS), value=JSON_VALUES)
def test_any_json_value_at_any_spec_key_is_accepted_or_rejected_cleanly(path, value):
    obj = {path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}}
    try:
        spec = PhantomSpec.from_json(obj)
    except (ValueError, TypeError, OverflowError):
        return
    j = spec.to_json()
    assert PhantomSpec.from_json(j) == spec
    reals = [*j["spacing"], j["tube_radius_mm"], j["tumor_radius_mm"], *sum(j["intensity"].values(), [])]
    assert all(math.isfinite(v) for v in reals)


def test_region_intensities_separate():
    # with tiny stddevs the mean intensities of the regions must sort correctly
    spec = PhantomSpec(
        dims=Dims(24, 64, 64),
        spacing=Spacing(2.0, 1.0, 1.0),
        background=TissueStats(-1.0, 0.01),
        lumen=TissueStats(-0.5, 0.01),
        wall=TissueStats(0.4, 0.01),
        tumor=TissueStats(0.9, 0.01),
        organ=TissueStats(0.1, 0.01),
        seed=3,
    )
    ct, labels, tumor = gen_phantom(spec)
    dist = centerline_distance(spec)
    wall = (labels.data == 1) & (dist >= spec.tube_radius_mm - spec.wall_thickness_mm)
    lumen = (labels.data == 1) & ~wall
    assert ct.data[tumor.data].mean() > ct.data[wall & ~tumor.data].mean()
    assert ct.data[wall & ~tumor.data].mean() > ct.data[lumen & ~tumor.data].mean()
    assert ct.data[labels.data == 0].mean() < ct.data[lumen & ~tumor.data].mean()


def _same_bytes(a, b) -> bool:
    return all(x.data.dtype == y.data.dtype and x.data.tobytes() == y.data.tobytes() for x, y in zip(a, b))


@st.composite
def phantom_specs(draw):
    """Specs whose tube fits; radii on a 0.25 mm lattice, so voxel centers often land on a shape's surface."""
    spacing = Spacing(
        draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 5.0])),
        draw(st.sampled_from([0.5, 0.78, 1.0, 1.25])),
        draw(st.sampled_from([0.5, 0.78, 1.0, 1.25])),
    )
    dims = Dims(draw(st.integers(3, 40)), draw(st.integers(12, 72)), draw(st.integers(12, 72)))
    (nz, ny, nx), (sz, sy, sx) = dims.shape, spacing.zyx
    half_in = min((ny - 1) / 2 * sy, (nx - 1) / 2 * sx)
    quanta = int(min(0.4 * half_in - max(sy, sx), (nz - 1) / 2 * sz) / 0.25)  # the largest tube that fits
    assume(quanta >= 2)
    tube = draw(st.integers(2, quanta))
    try:
        return PhantomSpec(
            dims=dims,
            spacing=spacing,
            tube_radius_mm=0.25 * tube,
            wall_thickness_mm=0.25 * draw(st.integers(1, tube - 1)),
            tumor_radius_mm=0.25 * draw(st.integers(1, 240)),
            n_distractors=draw(st.integers(0, 30)),
            seed=draw(st.integers(0, 2**32)),
        )
    except ValueError:  # rounding at the in-plane fit limit
        assume(False)


@settings(max_examples=200)
# slabs of one plane up to the whole grid, so the full-grid noise regions are drawn in pieces
@given(spec=phantom_specs(), slab=st.integers(1, 16000))
# many distractors and a tumor wider than the wall
@example(spec=PhantomSpec(dims=Dims(40, 60, 70), spacing=Spacing(1.0, 1.0, 1.0), wall_thickness_mm=2.0,
                          tumor_radius_mm=6.0, n_distractors=250, seed=5), slab=4200)
# the tube at the z faces of the grid, and a tumor box clipped to the whole grid
@example(spec=PhantomSpec(dims=Dims(17, 64, 64), spacing=Spacing(1.0, 1.0, 1.0), tumor_radius_mm=40.0, seed=1),
         slab=1)
# the largest tube that fits in-plane
@example(spec=PhantomSpec(dims=Dims(25, 64, 64), spacing=Spacing(1.0, 1.0, 1.0), tube_radius_mm=11.5, seed=4),
         slab=1 << 20)
def test_box_built_phantom_matches_the_full_grid_oracle(spec, slab):
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        assert _same_bytes(gen_phantom(spec), gen_phantom_full(spec))


def test_shapes_touching_every_face_of_their_box_match_the_oracle():
    # integer mm: voxel centers lie on the tube at z = cz ± r, y = cy ± (R + r) and x = cx + R + r
    # (the arc's gap faces -x), and on the tumor at its center ± its radius on every axis
    spec = PhantomSpec(dims=Dims(17, 61, 61), spacing=Spacing(1.0, 1.0, 1.0), tube_radius_mm=8.0,
                       tumor_radius_mm=4.0, seed=2)
    (cz, cy, cx), radius = arc_params(spec)
    assert (cz, cy, cx, radius) == (8.0, 30.0, 30.0, 18.0)
    out = gen_phantom(spec)
    _, labels, tumor = out
    assert bounding_box(labels.data == 1) == (slice(0, 17), slice(4, 57), slice(10, 57))
    assert tumor_center_voxel(spec) == (8, 30, 42)
    assert bounding_box(tumor.data) == (slice(4, 13), slice(26, 35), slice(38, 47))
    assert _same_bytes(out, gen_phantom_full(spec))


def test_centerline_distance_on_a_box_is_the_full_grid_slice():
    full = centerline_distance(SMALL)
    for box in [np.s_[3:9, 10:40, 0:64], np.s_[0:1, 63:64, 5:6], np.s_[0:24, 0:64, 0:64]]:
        assert np.array_equal(centerline_distance(SMALL, box), full[box])


def test_gen_phantom_peak_allocation_per_voxel():
    # the outputs alone are 6 B/vox (float32 ct, uint8 labels, bool tumor); one full-grid
    # float64 temporary would add 8, and the full-grid construction peaks at ~32
    spec = PhantomSpec(dims=Dims(128, 256, 256), spacing=Spacing(5.0, 0.78, 0.78), seed=3)
    _, peak = peak_bytes(gen_phantom, spec)
    assert peak / spec.dims.n < 10.0
