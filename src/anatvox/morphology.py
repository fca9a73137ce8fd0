"""Binary 3D morphology on boolean arrays.

One step combines each voxel with its two neighbors along each axis, in
place on array slices: the face-6 cross reads all three axes from the
step's input, the full-26 cube runs the three axis passes in sequence.

Voxels outside the grid are background for both dilation and erosion, so
dilation never wraps and erosion strips open borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid


@dataclass(frozen=True)
class StructElem:
    """Structuring element: face-6 cross or full 26-neighborhood cube.

    The origin voxel is always part of the element; ``offsets`` lists only
    the neighbors.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("face6", "full26"):
            raise ValueError(f"unknown structuring element {self.kind!r}")

    @property
    def offsets(self) -> tuple[tuple[int, int, int], ...]:
        if self.kind == "face6":
            return (
                (1, 0, 0), (-1, 0, 0),
                (0, 1, 0), (0, -1, 0),
                (0, 0, 1), (0, 0, -1),
            )
        return tuple(
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dz, dy, dx) != (0, 0, 0)
        )


FACE6 = StructElem("face6")
FULL26 = StructElem("full26")


def elem_from_name(name: str) -> StructElem:
    return StructElem(name.lower())


def _check_mask(mask: np.ndarray, times: int) -> None:
    if mask.dtype != np.bool_:
        raise ValueError("morphology requires a boolean mask")
    if mask.ndim != 3:
        raise ValueError("morphology requires a 3D mask")
    if times < 0:
        raise ValueError(f"repeat count must be >= 0, got {times}")


def _axis_pass(out: np.ndarray, src: np.ndarray, axis: int, erode: bool) -> None:
    """OR (AND to erode) every voxel of ``out`` in place with its two ``src`` neighbors.

    The neighbors are the voxels before and after along ``axis``. For erosion
    the out-of-grid neighbor is background, so the two border planes of
    ``out`` are cleared.
    """
    op = np.logical_and if erode else np.logical_or
    n = out.shape[axis]
    lead = (slice(None),) * axis
    lo, hi = lead + (slice(0, n - 1),), lead + (slice(1, n),)
    op(out[hi], src[lo], out=out[hi])
    op(out[lo], src[hi], out=out[lo])
    if erode:
        out[lead + (0,)] = False
        out[lead + (n - 1,)] = False


def _iterate(mask: np.ndarray, elem: StructElem, times: int, erode: bool) -> np.ndarray:
    _check_mask(mask, times)
    out = mask.copy()
    for _ in range(times):
        for axis in range(3):
            # The face-6 cross reads the step's input on every axis. The
            # full-26 cube is the product of three axis segments, so each of
            # its passes reads the previous pass.
            if axis == 0 or elem.kind == "full26":
                src = out.copy()
            _axis_pass(out, src, axis, erode)
    return out


def dilate_mask(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Iterated binary dilation on a boolean array."""
    return _iterate(mask, elem, times, erode=False)


def erode_mask(mask: np.ndarray, elem: StructElem, times: int) -> np.ndarray:
    """Iterated binary erosion on a boolean array."""
    return _iterate(mask, elem, times, erode=True)


# ---------------------------------------------------------------------------
# Grid-level API
# ---------------------------------------------------------------------------

def dilate(mask: VoxelGrid, elem: StructElem, times: int) -> VoxelGrid:
    return mask.with_data(dilate_mask(mask.data, elem, times))


def erode(mask: VoxelGrid, elem: StructElem, times: int) -> VoxelGrid:
    return mask.with_data(erode_mask(mask.data, elem, times))


def boundary_band(mask: VoxelGrid, elem: StructElem, r_out: int, r_in: int) -> VoxelGrid:
    """XOR of the r_out-dilated and r_in-eroded mask: a thick boundary shell."""
    if r_out < 0 or r_in < 0:
        raise ValueError(f"band radii must be >= 0, got ({r_out}, {r_in})")
    outer = dilate_mask(mask.data, elem, r_out)
    inner = erode_mask(mask.data, elem, r_in)
    return mask.with_data(outer ^ inner)
