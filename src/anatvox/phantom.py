"""Deterministic synthetic abdomen phantom.

The "colon" is a 270-degree torus arc in the central axial plane: a tube of
``tube_radius_mm`` around the arc, whose outer ``wall_thickness_mm`` shell is
the wall and whose core is the lumen. A spherical tumor sits on the inner
wall at the middle of the arc, growing into the lumen, which is where such
lesions live. Distractor ellipsoids with label codes >= 2 exercise
multi-label selection. All geometry derives from the spec fields; the seed
only moves intensities and distractor placement.

The volumes can be built one z slab at a time. The CT noise of plane z is
drawn from its own generator, seeded with ``[seed, z]``, so a slab's bytes do
not depend on how the grid is cut into slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sslmask
from .grid import Dims, Spacing, VoxelGrid, is_int
from .jsoncheck import overlay_json

ARC_HALF_ANGLE = 0.75 * math.pi  # 270 degree arc
_MAJOR_RADIUS_FRACTION = 0.6
_REGIONS = ("background", "lumen", "wall", "tumor", "organ")
_BOX_GROW = 2  # voxels added to each side of a shape's box against mm rounding


@dataclass(frozen=True)
class PhantomSpec:
    dims: Dims = Dims(64, 96, 96)
    spacing: Spacing = Spacing(5.0, 0.78, 0.78)
    tube_radius_mm: float = 8.0
    wall_thickness_mm: float = 3.0
    tumor_radius_mm: float = 3.0
    n_distractors: int = 3
    background: sslmask.NoiseSpec = sslmask.NoiseSpec(-1.0, 0.05)
    lumen: sslmask.NoiseSpec = sslmask.NoiseSpec(-0.6, 0.05)
    wall: sslmask.NoiseSpec = sslmask.NoiseSpec(0.4, 0.05)
    tumor: sslmask.NoiseSpec = sslmask.NoiseSpec(0.8, 0.05)
    organ: sslmask.NoiseSpec = sslmask.NoiseSpec(0.1, 0.05)
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tube_radius_mm < math.inf and 0 < self.tumor_radius_mm < math.inf):
            raise ValueError("tube and tumor radii must be positive and finite")
        if not (0 < self.wall_thickness_mm < self.tube_radius_mm):
            raise ValueError("wall thickness must be in (0, tube_radius)")
        if not (is_int(self.n_distractors) and 0 <= self.n_distractors <= 250):
            raise ValueError(f"n_distractors must be an integer in [0, 250], got {self.n_distractors!r}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        arc_params(self)  # the tube must fit the grid

    @classmethod
    def from_json(cls, obj) -> "PhantomSpec":
        """Spec from a JSON object shaped like ``to_json``'s; absent keys keep their defaults."""
        j = overlay_json(obj, cls().to_json(), "phantom spec")
        return cls(
            dims=Dims(*j["dims"]),
            spacing=Spacing(*(float(v) for v in j["spacing"])),
            tube_radius_mm=float(j["tube_radius_mm"]),
            wall_thickness_mm=float(j["wall_thickness_mm"]),
            tumor_radius_mm=float(j["tumor_radius_mm"]),
            n_distractors=j["n_distractors"],
            seed=j["seed"],
            **{region: _tissue(region, pair) for region, pair in j["intensity"].items()},
        )

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims.shape),
            "spacing": list(self.spacing.zyx),
            "tube_radius_mm": self.tube_radius_mm,
            "wall_thickness_mm": self.wall_thickness_mm,
            "tumor_radius_mm": self.tumor_radius_mm,
            "n_distractors": self.n_distractors,
            "intensity": {r: [getattr(self, r).mean, getattr(self, r).stddev] for r in _REGIONS},
            "seed": self.seed,
        }


def _tissue(region: str, pair: list) -> sslmask.NoiseSpec:
    """A spec's ``intensity[region]``, which must be exactly [mean, stddev]: no NoiseSpec default fills it."""
    if len(pair) != 2:
        raise ValueError(f"intensity {region} must be [mean, stddev], got {pair}")
    try:
        return sslmask.NoiseSpec(*(float(v) for v in pair))
    except ValueError as exc:
        raise ValueError(f"intensity {region}: {exc}") from None


def _grid_coords_mm(spec: PhantomSpec, box=None):
    """Voxel-center mm coordinates along z, y and x, broadcastable over ``box`` (default: the grid)."""
    box = box or (slice(None),) * 3
    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    z = (np.arange(nz) * sz)[box[0]][:, None, None]
    y = (np.arange(ny) * sy)[box[1]][None, :, None]
    x = (np.arange(nx) * sx)[None, None, box[2]]
    return z, y, x


def _box(spec: PhantomSpec, center_mm, half_mm) -> tuple[slice, slice, slice]:
    """Voxel box of the mm box ``center ± half``, grown against mm rounding and clipped to the grid."""
    return tuple(
        slice(max(math.floor((c - h) / s) - _BOX_GROW, 0), min(math.floor((c + h) / s) + 1 + _BOX_GROW, n))
        for c, h, s, n in zip(center_mm, half_mm, spec.spacing.zyx, spec.dims.shape)
    )


def arc_params(spec: PhantomSpec) -> tuple[tuple[float, float, float], float]:
    """Arc frame: volume center in mm (z, y, x) and the torus major radius."""
    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    center = ((nz - 1) / 2 * sz, (ny - 1) / 2 * sy, (nx - 1) / 2 * sx)
    half_in = min((ny - 1) / 2 * sy, (nx - 1) / 2 * sx)
    radius = _MAJOR_RADIUS_FRACTION * half_in
    margin = max(sy, sx)
    # passing this also keeps the tube radius below the arc radius (at most 0.4 half_in - margin)
    if radius + spec.tube_radius_mm > half_in - margin:
        raise ValueError("tube does not fit inside the volume in-plane")
    if spec.tube_radius_mm > (nz - 1) / 2 * sz:
        raise ValueError("tube does not fit inside the volume along z")
    return center, radius


def centerline_distance(spec: PhantomSpec, box=None) -> np.ndarray:
    """Distance in mm from every voxel center in ``box`` (default: the grid) to the arc centerline.

    A (y, x) column whose angle lies on the arc takes the distance to the arc,
    any other the distance to the nearer arc end; each is computed only on its
    own columns.
    """
    (cz, cy, cx), radius = arc_params(spec)
    z, y, x = _grid_coords_mm(spec, box)
    rho = np.hypot(y - cy, x - cx)[0]
    arc = (np.abs(np.arctan2(y - cy, x - cx)) <= ARC_HALF_ANGLE)[0]
    dz = z[:, :, 0] - cz
    out = np.empty((len(dz), *arc.shape))
    out[:, arc] = np.hypot(rho[arc] - radius, dz)
    gap = ~arc
    yg, xg = (np.broadcast_to(v[0], arc.shape)[gap] for v in (y, x))
    d_end = None
    for ang in (ARC_HALF_ANGLE, -ARC_HALF_ANGLE):
        ey = cy + radius * math.sin(ang)
        ex = cx + radius * math.cos(ang)
        d = np.sqrt(dz ** 2 + (yg - ey) ** 2 + (xg - ex) ** 2)
        d_end = d if d_end is None else np.minimum(d_end, d)
    out[:, gap] = d_end
    return out


def tumor_center_voxel(spec: PhantomSpec) -> tuple[int, int, int]:
    """Tumor center as a (z, y, x) voxel: mid-arc, inner wall, snapped to the nearest voxel."""
    (cz, cy, cx), radius = arc_params(spec)
    r_c = spec.tube_radius_mm - 0.75 * spec.wall_thickness_mm
    sz, sy, sx = spec.spacing.zyx
    return (round(cz / sz), round(cy / sy), round((cx + radius - r_c) / sx))


def _cut(box, z0: int, z1: int):
    """``box`` cut to the z planes [z0, z1): (in grid planes, in the slab's), empty on all axes if it misses them."""
    a = min(max(box[0].start, z0), z1)
    b = max(min(box[0].stop, z1), a)
    yx = box[1:] if a < b else (slice(0, 0),) * 2
    return (slice(a, b), *yx), (slice(a - z0, b - z0), *yx)


def phantom_slab(spec: PhantomSpec, z0: int, z1: int):
    """(ct, labels, tumor_gt) of the z planes [z0, z1), as arrays.

    Each shape is evaluated only on its own voxel box cut to the slab, and the
    distractors are placed by the same draws from ``default_rng(spec.seed)``
    in every slab, so labels and tumor are the grid's planes whatever the
    slab. The CT noise of plane z comes from its own ``default_rng([spec.seed,
    z])``: the plane's background, lumen, wall, organ and tumor voxels take
    its consecutive draws in that order, each region in C order, and a later
    region overwrites an earlier one where they meet (the tumor the wall).
    """
    nz, ny, nx = spec.dims.shape
    if not 0 <= z0 < z1 <= nz:
        raise ValueError(f"planes [{z0}, {z1}) are not a slab of a grid of {nz} planes")
    sz, sy, sx = spec.spacing.zyx
    shape = (z1 - z0, ny, nx)
    labels, tumor = np.zeros(shape, dtype=np.uint8), np.zeros(shape, dtype=np.bool_)
    arc_center, radius = arc_params(spec)
    reach = radius + spec.tube_radius_mm
    tube, tube_at = _cut(_box(spec, arc_center, (spec.tube_radius_mm, reach, reach)), z0, z1)
    dist = centerline_distance(spec, tube)
    colon = dist <= spec.tube_radius_mm
    wall = colon & (dist >= spec.tube_radius_mm - spec.wall_thickness_mm)
    labels[tube_at][colon] = 1
    lumen = colon & ~wall
    del dist, colon  # the float64 distances are gone before any later array is allocated
    tz, ty, tx = tumor_center_voxel(spec)
    r = spec.tumor_radius_mm
    lesion = _box(spec, (tz * sz, ty * sy, tx * sx), (r, r, r))
    box, at = _cut(lesion, z0, z1)
    z, y, x = _grid_coords_mm(spec, box)
    tumor[at] = np.sqrt((z - tz * sz) ** 2 + (y - ty * sy) ** 2 + (x - tx * sx) ** 2) <= r

    # Distractor ellipsoids claim only background voxels so labels stay a
    # partition; their geometry is the only seed-dependent shape.
    rng = np.random.default_rng(spec.seed)
    extent = np.array([(nz - 1) * sz, (ny - 1) * sy, (nx - 1) * sx])
    for k in range(spec.n_distractors):
        center = extent * rng.uniform(0.15, 0.85, 3)
        semi = rng.uniform(2.5, 8.0, 3)
        box, at = _cut(_box(spec, center, semi), z0, z1)
        z, y, x = _grid_coords_mm(spec, box)
        inside = (
            ((z - center[0]) / semi[0]) ** 2
            + ((y - center[1]) / semi[1]) ** 2
            + ((x - center[2]) / semi[2]) ** 2
        ) <= 1.0
        organ = labels[at]
        organ[inside & (organ == 0)] = 2 + k

    ct = np.empty(shape, dtype=np.float32)  # allocated after the shapes' float64 temporaries are gone
    for k, plane in enumerate(ct):
        rng = np.random.default_rng([spec.seed, z0 + k])
        sslmask.fill_band(plane, labels[k] == 0, rng, spec.background)
        t = k - tube_at[0].start
        if 0 <= t < len(lumen):
            sslmask.fill_band(plane[tube_at[1:]], lumen[t], rng, spec.lumen)
            sslmask.fill_band(plane[tube_at[1:]], wall[t], rng, spec.wall)
        sslmask.fill_band(plane, labels[k] >= 2, rng, spec.organ)
        sslmask.fill_band(plane[lesion[1:]], tumor[k][lesion[1:]], rng, spec.tumor)
    return ct, labels, tumor


def gen_phantom(spec: PhantomSpec) -> tuple[VoxelGrid, VoxelGrid, VoxelGrid]:
    """(ct, labels, tumor_gt) as grids: ``phantom_slab`` of the whole grid.

    Label codes: 0 background, 1 colon (wall + lumen), 2..k distractors. The
    tumor mask is separate and overlaps the colon wall by construction.
    Identical spec gives bit-identical output, and its float64 temporaries
    span one shape's voxel box at a time.
    """
    return tuple(VoxelGrid(a, spec.spacing) for a in phantom_slab(spec, 0, spec.dims.nz))
