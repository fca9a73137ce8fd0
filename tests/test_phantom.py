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
    arc_params,
    centerline_distance,
    gen_phantom,
    phantom_slab,
    tumor_center_voxel,
)
from anatvox.sslmask import NoiseSpec

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
        NoiseSpec(0.0, -1.0)


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
    assert spec.tumor == NoiseSpec(0.9, 0.01)
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
        background=NoiseSpec(-1.0, 0.01),
        lumen=NoiseSpec(-0.5, 0.01),
        wall=NoiseSpec(0.4, 0.01),
        tumor=NoiseSpec(0.9, 0.01),
        organ=NoiseSpec(0.1, 0.01),
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


def _stacked_slabs(spec):
    """(ct, labels, tumor) as grids stacked from ``phantom_slab`` of each of ``volio.z_slabs``'s slabs."""
    slabs = [phantom_slab(spec, z0, z1) for z0, z1 in volio.z_slabs(spec.dims.shape)]
    return [VoxelGrid(np.concatenate(parts), spec.spacing) for parts in zip(*slabs)]


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
    oracle = gen_phantom_full(spec)
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        assert _same_bytes(_stacked_slabs(spec), oracle)
    assert _same_bytes(gen_phantom(spec), oracle)


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


def _coords(spec, box):
    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    return ((np.arange(nz) * sz)[box[0]][:, None, None], (np.arange(ny) * sy)[box[1]][None, :, None],
            (np.arange(nx) * sx)[None, None, box[2]])


def _centerline_distance_on_every_column(spec, box):
    """centerline_distance as it was computed before it took each column's distance on its own columns only:
    both distances on the whole box, then the arc's where the column's angle lies on the arc."""
    (cz, cy, cx), radius = arc_params(spec)
    z, y, x = _coords(spec, box)
    rho = np.hypot(y - cy, x - cx)
    in_arc = np.abs(np.arctan2(y - cy, x - cx)) <= ARC_HALF_ANGLE
    d_arc = np.hypot(rho - radius, z - cz)
    d_end = None
    for ang in (ARC_HALF_ANGLE, -ARC_HALF_ANGLE):
        ey, ex = cy + radius * math.sin(ang), cx + radius * math.cos(ang)
        d = np.sqrt((z - cz) ** 2 + (y - ey) ** 2 + (x - ex) ** 2)
        d_end = d if d_end is None else np.minimum(d_end, d)
    return np.where(in_arc, d_arc, d_end)


@settings(max_examples=100)
@given(spec=phantom_specs(), data=st.data())
def test_centerline_distance_is_bitwise_the_every_column_construction(spec, data):
    box = tuple(slice(*sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2))))
                for n in spec.dims.shape)
    got = centerline_distance(spec, box)
    assert got.tobytes() == _centerline_distance_on_every_column(spec, box).tobytes()
    full = (slice(0, spec.dims.nz), slice(0, spec.dims.ny), slice(0, spec.dims.nx))
    assert centerline_distance(spec).tobytes() == _centerline_distance_on_every_column(spec, full).tobytes()


def _labels_and_tumor_built_whole(spec):
    """Labels and tumor as gen_phantom built them on whole-grid arrays, shape box by shape box, before it
    streamed z slabs: a copy of that construction, so that the streamed bytes are pinned to it."""
    def grown_box(center_mm, half_mm):
        return tuple(
            slice(max(math.floor((c - h) / s) - 2, 0), min(math.floor((c + h) / s) + 1 + 2, n))
            for c, h, s, n in zip(center_mm, half_mm, spec.spacing.zyx, spec.dims.shape)
        )

    sz, sy, sx = spec.spacing.zyx
    arc_center, radius = arc_params(spec)
    reach = radius + spec.tube_radius_mm
    tube = grown_box(arc_center, (spec.tube_radius_mm, reach, reach))
    labels = np.zeros(spec.dims.shape, dtype=np.uint8)
    labels[tube][_centerline_distance_on_every_column(spec, tube) <= spec.tube_radius_mm] = 1

    tz, ty, tx = tumor_center_voxel(spec)
    r = spec.tumor_radius_mm
    lesion = grown_box((tz * sz, ty * sy, tx * sx), (r, r, r))
    z, y, x = _coords(spec, lesion)
    tumor = np.zeros(spec.dims.shape, dtype=np.bool_)
    tumor[lesion] = np.sqrt((z - tz * sz) ** 2 + (y - ty * sy) ** 2 + (x - tx * sx) ** 2) <= r

    rng = np.random.default_rng(spec.seed)
    nz, ny, nx = spec.dims.shape
    extent = np.array([(nz - 1) * sz, (ny - 1) * sy, (nx - 1) * sx])
    for k in range(spec.n_distractors):
        center = extent * rng.uniform(0.15, 0.85, 3)
        semi = rng.uniform(2.5, 8.0, 3)
        box = grown_box(center, semi)
        z, y, x = _coords(spec, box)
        inside = (
            ((z - center[0]) / semi[0]) ** 2 + ((y - center[1]) / semi[1]) ** 2 + ((x - center[2]) / semi[2]) ** 2
        ) <= 1.0
        organ = labels[box]
        organ[inside & (organ == 0)] = 2 + k
    return labels, tumor


CRITERION_11 = PhantomSpec(dims=Dims(64, 96, 96), spacing=Spacing(5.0, 0.78, 0.78), seed=7)


@settings(max_examples=100)
@given(spec=phantom_specs(), slab=st.integers(1, 16000))
@example(spec=CRITERION_11, slab=5000)
@example(spec=PhantomSpec(dims=Dims(40, 60, 70), spacing=Spacing(1.0, 1.0, 1.0), wall_thickness_mm=2.0,
                          tumor_radius_mm=6.0, n_distractors=250, seed=5), slab=4200)
def test_streamed_labels_and_tumor_keep_the_whole_grid_bytes(spec, slab):
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        _, labels, tumor = _stacked_slabs(spec)
    want_labels, want_tumor = _labels_and_tumor_built_whole(spec)
    assert labels.data.tobytes() == want_labels.tobytes()
    assert tumor.data.tobytes() == want_tumor.tobytes()


def test_each_tissue_keeps_its_noise_and_planes_draw_independently():
    spec = CRITERION_11
    ct, labels, tumor = (g.data for g in gen_phantom(spec))
    dist = centerline_distance(spec)
    wall = (labels == 1) & (dist >= spec.tube_radius_mm - spec.wall_thickness_mm)
    tissues = {"background": labels == 0, "lumen": (labels == 1) & ~wall, "wall": wall, "organ": labels >= 2}
    tissues = {name: mask & ~tumor for name, mask in tissues.items()} | {"tumor": tumor}  # the tumor is drawn last
    for name, mask in tissues.items():
        stats, values = getattr(spec, name), ct[mask].astype(np.float64)
        n = values.size
        assert n >= 45, name
        # criterion 10's bounds as standard errors: 5 / sqrt(n) on the mean, and on the stddev the
        # 0.02 that is 5 / sqrt(2n) at its 32768 voxels
        assert abs(values.mean() - stats.mean) < 5.0 * stats.stddev / math.sqrt(n), name
        assert abs(values.std() - stats.stddev) < 5.0 * stats.stddev / math.sqrt(2 * n), name

    # a plane's draws share no stream with the next plane's
    bg = tissues["background"]
    for z in range(spec.dims.nz - 1):
        both = bg[z] & bg[z + 1]
        r = np.corrcoef(ct[z][both], ct[z + 1][both])[0, 1]
        assert abs(r) < 5.0 / math.sqrt(int(both.sum())), z

    # plane z is drawn from default_rng([seed, z]) whatever the slab it is built in
    oracle = gen_phantom_full(spec)[0].data
    for z in range(spec.dims.nz):
        assert phantom_slab(spec, z, z + 1)[0].tobytes() == oracle[z].tobytes() == ct[z].tobytes()


def test_a_slab_outside_the_grid_is_refused():
    for z0, z1 in [(-1, 2), (3, 3), (5, 4), (0, SMALL.dims.nz + 1)]:
        with pytest.raises(ValueError, match="not a slab"):
            phantom_slab(SMALL, z0, z1)


def test_centerline_distance_on_a_box_is_the_full_grid_slice():
    full = centerline_distance(SMALL)
    for box in [np.s_[3:9, 10:40, 0:64], np.s_[0:1, 63:64, 5:6], np.s_[0:24, 0:64, 0:64]]:
        assert np.array_equal(centerline_distance(SMALL, box), full[box])


def test_gen_phantom_peak_allocation_per_voxel():
    # the outputs alone are 6 B/vox (float32 ct, uint8 labels, bool tumor); one full-grid
    # float64 temporary would add 8, and the full-grid construction peaks at ~32. At isotropic
    # spacing the tube's and the tumor's boxes span more of the grid.
    for dims, spacing in [(Dims(128, 256, 256), Spacing(5.0, 0.78, 0.78)),
                          (Dims(64, 128, 128), Spacing(1.0, 1.0, 1.0)),
                          (Dims(40, 128, 128), Spacing(1.0, 0.5, 0.5))]:
        spec = PhantomSpec(dims=dims, spacing=spacing, seed=3)
        _, peak = peak_bytes(gen_phantom, spec)
        assert peak / spec.dims.n < 10.0, spec
