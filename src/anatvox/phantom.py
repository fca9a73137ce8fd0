"""Deterministic synthetic abdomen phantom.

The "colon" is a 270-degree torus arc in the central axial plane: a tube of
``tube_radius_mm`` around the arc, whose outer ``wall_thickness_mm`` shell is
the wall and whose core is the lumen. A spherical tumor sits on the inner
wall at the middle of the arc, growing into the lumen, which is where such
lesions live. Distractor ellipsoids with label codes >= 2 exercise
multi-label selection. All geometry derives from the spec fields; the seed
only moves intensities and distractor placement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import Coord, Dims, Spacing, VoxelGrid
from .jsoncheck import overlay_json

ARC_HALF_ANGLE = 0.75 * math.pi  # 270 degree arc
_MAJOR_RADIUS_FRACTION = 0.6
_REGIONS = ("background", "lumen", "wall", "tumor", "organ")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TissueStats:
    mean: float
    stddev: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 <= self.stddev < math.inf):
            raise ValueError(f"tissue mean must be finite and stddev finite and >= 0, got {self}")


@dataclass(frozen=True)
class PhantomSpec:
    dims: Dims = Dims(64, 96, 96)
    spacing: Spacing = Spacing(5.0, 0.78, 0.78)
    tube_radius_mm: float = 8.0
    wall_thickness_mm: float = 3.0
    tumor_radius_mm: float = 3.0
    n_distractors: int = 3
    background: TissueStats = TissueStats(-1.0, 0.05)
    lumen: TissueStats = TissueStats(-0.6, 0.05)
    wall: TissueStats = TissueStats(0.4, 0.05)
    tumor: TissueStats = TissueStats(0.8, 0.05)
    organ: TissueStats = TissueStats(0.1, 0.05)
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.tube_radius_mm < math.inf and 0 < self.tumor_radius_mm < math.inf):
            raise ValueError("tube and tumor radii must be positive and finite")
        if not (0 < self.wall_thickness_mm < self.tube_radius_mm):
            raise ValueError("wall thickness must be in (0, tube_radius)")
        if not (_is_int(self.n_distractors) and 0 <= self.n_distractors <= 250):
            raise ValueError(f"n_distractors must be an integer in [0, 250], got {self.n_distractors!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")

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
            **{region: TissueStats(*(float(v) for v in pair)) for region, pair in j["intensity"].items()},
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


def _grid_coords_mm(spec: PhantomSpec):
    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    z = (np.arange(nz) * sz)[:, None, None]
    y = (np.arange(ny) * sy)[None, :, None]
    x = (np.arange(nx) * sx)[None, None, :]
    return z, y, x


def arc_params(spec: PhantomSpec) -> tuple[tuple[float, float, float], float]:
    """Arc frame: volume center in mm (z, y, x) and the torus major radius."""
    nz, ny, nx = spec.dims.shape
    sz, sy, sx = spec.spacing.zyx
    center = ((nz - 1) / 2 * sz, (ny - 1) / 2 * sy, (nx - 1) / 2 * sx)
    half_in = min((ny - 1) / 2 * sy, (nx - 1) / 2 * sx)
    radius = _MAJOR_RADIUS_FRACTION * half_in
    margin = max(sy, sx)
    if radius + spec.tube_radius_mm > half_in - margin:
        raise ValueError("tube does not fit inside the volume in-plane")
    if spec.tube_radius_mm >= radius:
        raise ValueError("tube radius must be smaller than the arc radius")
    if spec.tube_radius_mm > (nz - 1) / 2 * sz:
        raise ValueError("tube does not fit inside the volume along z")
    return center, radius


def centerline_distance(spec: PhantomSpec) -> np.ndarray:
    """Distance in mm from every voxel center to the arc centerline."""
    (cz, cy, cx), radius = arc_params(spec)
    z, y, x = _grid_coords_mm(spec)
    rho = np.hypot(y - cy, x - cx)
    phi = np.arctan2(y - cy, x - cx)
    in_arc = np.abs(phi) <= ARC_HALF_ANGLE
    d_arc = np.hypot(rho - radius, z - cz)
    d_end = None
    for ang in (ARC_HALF_ANGLE, -ARC_HALF_ANGLE):
        ey = cy + radius * math.sin(ang)
        ex = cx + radius * math.cos(ang)
        d = np.sqrt((z - cz) ** 2 + (y - ey) ** 2 + (x - ex) ** 2)
        d_end = d if d_end is None else np.minimum(d_end, d)
    return np.where(in_arc, d_arc, d_end)


def tumor_center_voxel(spec: PhantomSpec) -> Coord:
    """Tumor center: mid-arc, inner wall, snapped to the nearest voxel."""
    (cz, cy, cx), radius = arc_params(spec)
    r_c = spec.tube_radius_mm - 0.75 * spec.wall_thickness_mm
    sz, sy, sx = spec.spacing.zyx
    return Coord(
        int(round(cz / sz)),
        int(round(cy / sy)),
        int(round((cx + radius - r_c) / sx)),
    )


def gen_phantom(spec: PhantomSpec) -> tuple[VoxelGrid, VoxelGrid, VoxelGrid]:
    """Build (ct, labels, tumor_gt). Identical spec gives bit-identical output.

    Label codes: 0 background, 1 colon (wall + lumen), 2..k distractors. The
    tumor mask is separate and overlaps the colon wall by construction.
    """
    dist = centerline_distance(spec)
    colon = dist <= spec.tube_radius_mm
    wall = colon & (dist >= spec.tube_radius_mm - spec.wall_thickness_mm)
    lumen = colon & ~wall

    labels = np.zeros(spec.dims.shape, dtype=np.uint8)
    labels[colon] = 1

    tc = tumor_center_voxel(spec)
    z, y, x = _grid_coords_mm(spec)
    sz, sy, sx = spec.spacing.zyx
    d_tumor = np.sqrt((z - tc.z * sz) ** 2 + (y - tc.y * sy) ** 2 + (x - tc.x * sx) ** 2)
    tumor = d_tumor <= spec.tumor_radius_mm

    rng = np.random.default_rng(spec.seed)

    # Distractor ellipsoids claim only background voxels so labels stay a
    # partition; their geometry is the only seed-dependent shape.
    nz, ny, nx = spec.dims.shape
    extent = np.array([(nz - 1) * sz, (ny - 1) * sy, (nx - 1) * sx])
    for k in range(spec.n_distractors):
        center = extent * rng.uniform(0.15, 0.85, 3)
        semi = rng.uniform(2.5, 8.0, 3)
        inside = (
            ((z - center[0]) / semi[0]) ** 2
            + ((y - center[1]) / semi[1]) ** 2
            + ((x - center[2]) / semi[2]) ** 2
        ) <= 1.0
        labels[inside & (labels == 0)] = 2 + k

    ct = np.empty(spec.dims.shape, dtype=np.float64)
    regions = [
        (labels == 0, spec.background),
        (lumen, spec.lumen),
        (wall, spec.wall),
        (labels >= 2, spec.organ),
        (tumor, spec.tumor),
    ]
    for mask, stats in regions:
        count = int(np.count_nonzero(mask))
        if count:
            ct[mask] = rng.normal(stats.mean, stats.stddev, count)

    ct_grid = VoxelGrid(ct.astype(np.float32), spec.spacing)
    return ct_grid, VoxelGrid(labels, spec.spacing), VoxelGrid(tumor, spec.spacing)
