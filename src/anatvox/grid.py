"""Canonical 3D voxel grid types and element-wise operations.

Axis order is (z, y, x) everywhere, z slowest, matching slice-stacked CT
storage. Grids are treated as immutable after construction: every public
operation returns a new grid and never writes through its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Dims:
    """Voxel counts per axis, all strictly positive."""

    nz: int
    ny: int
    nx: int

    def __post_init__(self):
        for name in ("nz", "ny", "nx"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v <= 0:
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


@dataclass(frozen=True)
class Coord:
    """Integer voxel index (z, y, x)."""

    z: int
    y: int
    x: int

    @property
    def zyx(self) -> tuple[int, int, int]:
        return (int(self.z), int(self.y), int(self.x))


@dataclass
class VoxelGrid:
    """Dense 3D array with physical spacing.

    ``data`` is a C-contiguous (nz, ny, nx) array, so the flat view is in
    z-major order. Element kind is one of boolean, integer label, or real
    scalar, carried by the numpy dtype.
    """

    data: np.ndarray
    spacing: Spacing

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"grid data must be 3D, got shape {self.data.shape}")
        self.data = np.ascontiguousarray(self.data)

    @property
    def dims(self) -> Dims:
        nz, ny, nx = self.data.shape
        return Dims(nz, ny, nx)

    def copy(self) -> "VoxelGrid":
        return VoxelGrid(self.data.copy(), self.spacing)

    def with_data(self, data: np.ndarray) -> "VoxelGrid":
        """New grid sharing this grid's spacing."""
        return VoxelGrid(data, self.spacing)


def make_grid(dims: Dims, spacing: Spacing, fill=0.0, dtype=None) -> VoxelGrid:
    """Constant-filled grid. dtype defaults to the natural type of ``fill``."""
    if dtype is None:
        if isinstance(fill, (bool, np.bool_)):
            dtype = np.bool_
        elif isinstance(fill, (int, np.integer)):
            dtype = np.int32
        else:
            dtype = np.float32
    return VoxelGrid(np.full(dims.shape, fill, dtype=dtype), spacing)


def same_geometry(a: VoxelGrid, b: VoxelGrid) -> bool:
    return a.data.shape == b.data.shape and a.spacing == b.spacing


def require_same_geometry(*grids: VoxelGrid) -> None:
    first = grids[0]
    for g in grids[1:]:
        if not same_geometry(first, g):
            raise ValueError(
                f"grid geometry mismatch: {first.data.shape}/{first.spacing} vs "
                f"{g.data.shape}/{g.spacing}"
            )


def extract_patch(grid: VoxelGrid, center, size, pad=0) -> VoxelGrid:
    """Patch of ``size`` voxels around the (z, y, x) ``center``, padded out of bounds.

    Output voxel k maps to grid coordinate center - size//2 + k. For even
    sizes the center is the high-index voxel of the central pair. The center
    must lie inside the grid; the patch itself may hang over any border, and
    those reads yield ``pad``.
    """
    size = tuple(int(s) for s in size)
    if len(size) != 3 or any(s <= 0 for s in size):
        raise ValueError(f"patch size must be 3 positive integers, got {size}")
    center = tuple(int(c) for c in center)
    dims = grid.dims
    if len(center) != 3 or not all(0 <= c < n for c, n in zip(center, dims.shape)):
        raise ValueError(f"patch center {center} outside grid dims {dims}")

    start = [c - s // 2 for c, s in zip(center, size)]
    out = np.full(size, pad, dtype=grid.data.dtype)
    src = []
    dst = []
    for st, s, n in zip(start, size, dims.shape):
        lo = max(st, 0)
        hi = min(st + s, n)
        if lo >= hi:
            return VoxelGrid(out, grid.spacing)
        src.append(slice(lo, hi))
        dst.append(slice(lo - st, hi - st))
    out[tuple(dst)] = grid.data[tuple(src)]
    return VoxelGrid(out, grid.spacing)


def to_bool(grid: VoxelGrid) -> VoxelGrid:
    """Nonzero voxels as a boolean mask (uint8 label files round-trip here)."""
    if grid.data.dtype == np.bool_:
        return grid
    return VoxelGrid(grid.data != 0, grid.spacing)
