import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anatvox.grid import Dims, Spacing, VoxelGrid
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

from conftest import JSON_VALUES

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
    dist = centerline_distance(SMALL)
    assert labels.data[c.z, c.y, c.x] == 1
    assert SMALL.tube_radius_mm - SMALL.wall_thickness_mm <= dist[c.z, c.y, c.x] <= SMALL.tube_radius_mm
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
    assert ct.data[tumor.data].mean() > ct.data[wall.data & ~tumor.data].mean()
    assert ct.data[wall.data & ~tumor.data].mean() > ct.data[lumen.data & ~tumor.data].mean()
    assert ct.data[labels.data == 0].mean() < ct.data[lumen.data & ~tumor.data].mean()
