"""Canonical 3D voxel grid types, the shared input checks, grid operations and a pairwise-order sum.

Axis order is (z, y, x) everywhere, z slowest, matching slice-stacked CT
storage. Grids are treated as immutable after construction: every public
operation returns a new grid and never writes through its inputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def is_int(value) -> bool:
    """True for a Python or numpy integer; a bool is not a size, count or code."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_bool(*arrays: np.ndarray) -> None:
    """Refuse any of ``arrays`` that is not a boolean mask."""
    for a in arrays:
        if a.dtype != np.bool_:
            raise ValueError(f"expected a boolean mask, got dtype {a.dtype}")


@dataclass(frozen=True)
class Dims:
    """Voxel counts per axis, all strictly positive."""

    nz: int
    ny: int
    nx: int

    def __post_init__(self):
        for name in ("nz", "ny", "nx"):
            v = getattr(self, name)
            if not (is_int(v) and v > 0):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nz, self.ny, self.nx)

    @property
    def n(self) -> int:
        return self.nz * self.ny * self.nx


@dataclass(frozen=True)
class Spacing:
    """Physical voxel spacing in millimeters per axis."""

    sz: float
    sy: float
    sx: float

    def __post_init__(self):
        for name in ("sz", "sy", "sx"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @property
    def zyx(self) -> tuple[float, float, float]:
        return (float(self.sz), float(self.sy), float(self.sx))


@dataclass
class VoxelGrid:
    """Dense 3D array with physical spacing.

    ``data`` is a C-contiguous (nz, ny, nx) array, so the flat view is in
    z-major order. Element kind is one of boolean, integer label, or real
    scalar, carried by the numpy dtype. ``size`` and ``read`` are those of a
    ``volio.VolumeReader``, so a kernel that reads runs takes either.
    """

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"grid data must be 3D, got shape {self.data.shape}")
        self.data = np.ascontiguousarray(self.data)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Voxels [lo, hi) in z-major order, as a view of ``data``."""
        return self.data.reshape(-1)[lo:hi]

    def with_data(self, data: np.ndarray) -> "VoxelGrid":
        """New grid sharing this grid's spacing."""
        return VoxelGrid(data, self.spacing)


def require_same_geometry(*grids) -> None:
    """Refuse grids (or anything with a grid's ``shape`` and ``spacing``) that differ in either."""
    first = grids[0]
    for g in grids[1:]:
        if g.shape != first.shape or g.spacing != first.spacing:
            raise ValueError(
                f"grid geometry mismatch: {first.shape}/{first.spacing} vs {g.shape}/{g.spacing}"
            )


def extract_patch(grid: VoxelGrid, center, size, pad=0) -> VoxelGrid:
    """Patch of ``size`` voxels around the (z, y, x) ``center``, padded out of bounds.

    ``center`` and ``size`` are integer triples (``is_int``). Output voxel k
    maps to grid coordinate center - size//2 + k. For even sizes the center
    is the high-index voxel of the central pair. The center must lie inside
    the grid; the patch itself may hang over any border, and those reads
    yield ``pad``, which must read back unchanged from the grid's dtype (so
    -1 or 0.5 is refused for a uint8 grid, not wrapped or truncated).
    """
    size, center, shape = tuple(size), tuple(center), grid.data.shape
    if len(size) != 3 or not all(is_int(s) and s >= 1 for s in size):
        raise ValueError(f"patch size must be 3 integers >= 1, got {size!r}")
    if len(center) != 3 or not all(is_int(c) and 0 <= c < n for c, n in zip(center, shape)):
        raise ValueError(f"patch center must be 3 integers inside grid shape {shape}, got {center!r}")

    start = [c - s // 2 for c, s in zip(center, size)]
    out = np.full(size, pad_value(pad, grid.data.dtype), dtype=grid.data.dtype)
    # the center is inside the grid, so the patch overlaps it on every axis
    src = tuple(slice(max(st, 0), min(st + s, n)) for st, s, n in zip(start, size, shape))
    dst = tuple(slice(sl.start - st, sl.stop - st) for sl, st in zip(src, start))
    out[dst] = grid.data[src]
    return VoxelGrid(out, grid.spacing)


def pad_value(pad, dtype):
    """``pad`` as a ``dtype`` scalar; refused unless it reads back unchanged."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            fill = np.array(pad).astype(dtype).item()
    except (OverflowError, TypeError, ValueError):
        fill = None
    if not (fill == pad or (fill != fill and pad != pad)):  # NaN may pad a float grid
        raise ValueError(f"pad {pad!r} is not representable as {dtype}")
    return fill


def bounding_box(mask: np.ndarray, grow=(0, 0, 0)) -> tuple[slice, ...] | None:
    """Per-axis slices of the true voxels' bounding box, or None if there are none.

    Each axis is grown by ``grow`` voxels on both sides and clipped to the grid.
    """
    return hits_box(plane_hits(mask), grow)


def plane_hits(mask: np.ndarray) -> list[np.ndarray]:
    """Per axis, which planes across it hold a true voxel: ``np.any`` over every other axis.

    Axis 0 is reduced first, and the other axes only over the planes from
    its first to its last hit, which hold every true voxel.
    """
    hits = [np.any(mask, axis=tuple(range(1, mask.ndim)))]
    at = np.flatnonzero(hits[0])
    inner = mask[at[0] : at[-1] + 1] if at.size else mask[:0]
    axes = range(mask.ndim)
    return hits + [np.any(inner, axis=tuple(a for a in axes if a != axis)) for axis in axes[1:]]


def hits_box(hits, grow=(0, 0, 0)) -> tuple[slice, ...] | None:
    """Per-axis slices from the first to the last true entry of each 1D ``hits``, or None if one has none.

    ``hits[axis]`` marks the planes across that axis that hold a true voxel,
    so the slices are those planes' bounding box. Each axis is grown by
    ``grow`` voxels on both sides and clipped to its length.
    """
    box = []
    for hit, g in zip(hits, grow):
        at = np.flatnonzero(hit)
        if at.size == 0:
            return None
        box.append(slice(max(int(at[0]) - g, 0), min(int(at[-1]) + 1 + g, hit.size)))
    return tuple(box)


# Longest run pairwise_sum hands to one leaf: at least numpy's pairwise block of 128,
# and 2^14 keeps a leaf's float64 temporaries in cache (fastest of 2^11..2^16).
_PAIRWISE_CHUNK = 1 << 14


def pairwise_sum(leaf, lo: int, hi: int):
    """Sum of ``leaf(a, b)`` over runs that tile [lo, hi), added in numpy's pairwise order.

    Numpy's pairwise summation halves a contiguous run longer than its block at
    a multiple of 8 and adds the halves' sums. The runs split exactly there, so
    a leaf that returns ``np.sum`` of its slice widened to float64 makes the
    result bitwise ``np.sum`` of the whole widened slice [lo, hi), while only
    one run is ever widened at a time. A leaf may return an array to sum
    several terms.
    """
    # it recurses through itself rather than a nested closure: a closure that calls
    # itself is a reference cycle, which keeps the leaf's arrays alive until gc runs
    if hi - lo > _PAIRWISE_CHUNK:
        mid = lo + (hi - lo) // 2 // 8 * 8
        return pairwise_sum(leaf, lo, mid) + pairwise_sum(leaf, mid, hi)
    return leaf(lo, hi)


def pasted_run(shape, box, values: np.ndarray, fill, lo: int, hi: int, dtype=np.float64) -> np.ndarray:
    """Voxels [lo, hi), in z-major order, of a ``shape`` array of ``fill`` with ``values`` pasted at ``box``.

    ``box`` holds three slices with explicit bounds, the empty box included,
    and ``values`` has its shape. Only the x rows that hold the run are built,
    as ``dtype``, and the box is pasted into them one z plane at a time. A box
    that covers the array reads the run from ``values`` as it is, without a
    copy if it is already ``dtype``.
    """
    if values.shape == tuple(shape):
        return values.reshape(-1)[lo:hi].astype(dtype, copy=False)
    ny, nx = shape[1:]
    r0, r1 = lo // nx, -(-hi // nx)  # the rows that hold the run
    out = np.full((r1 - r0, nx), fill, dtype=dtype)
    bz, by, bx = box
    for z in range(max(bz.start, r0 // ny), min(bz.stop, -(-r1 // ny))):
        a, b = max(z * ny + by.start, r0), min(z * ny + by.stop, r1)
        if a < b:
            out[a - r0 : b - r0, bx] = values[z - bz.start, a - z * ny - by.start : b - z * ny - by.start]
    return out.reshape(-1)[lo - r0 * nx : hi - r0 * nx]


def to_bool(grid: VoxelGrid) -> VoxelGrid:
    """Nonzero voxels as a boolean mask (uint8 label files round-trip here)."""
    if grid.data.dtype == np.bool_:
        return grid
    return VoxelGrid(grid.data != 0, grid.spacing)
