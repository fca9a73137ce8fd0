"""Binary 3D morphology on boolean arrays.

One step combines each voxel with its two neighbors along each axis, in
place on array slices: the face-6 cross reads all three axes from the
step's input, the full-26 cube runs the three axis passes in sequence.

Voxels outside the grid are background for both dilation and erosion, so
dilation never wraps and erosion strips open borders.

The steps run only on the mask's bounding box, grown by as far as the
steps can reach, so their cost follows the organ's size, not the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, bounding_box, require_bool


@dataclass(frozen=True)
class StructElem:
    """Structuring element: face-6 cross or full 26-neighborhood cube.

    The origin voxel is always part of the element.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("face6", "full26"):
            raise ValueError(f"unknown structuring element {self.kind!r}")


FACE6 = StructElem("face6")
FULL26 = StructElem("full26")


def elem_from_name(name: str) -> StructElem:
    if not isinstance(name, str):
        raise ValueError(f"structuring element name must be a string, got {name!r}")
    return StructElem(name.lower())


def _check_mask(mask: np.ndarray, times: int) -> None:
    require_bool(mask)
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


def _iterate(mask: np.ndarray, elem: StructElem, times: int, erode: bool, in_place: bool = False) -> np.ndarray:
    """``times`` steps on a copy of ``mask``, or with ``in_place`` on ``mask`` itself, which the caller owns.

    The steps run only on the view of the mask's bounding box, grown by the
    step count for dilation, with one scratch box. Off that view the mask is
    False and stays so, as a dilation step reaches one voxel and an erosion
    sets none. An erosion clears the view's edge planes, as it would on the
    whole array: each of their voxels has a False neighbor off the view.
    """
    _check_mask(mask, times)
    out = mask if in_place else mask.copy()
    # A step changes any mask that is neither empty nor full, and every voxel
    # lies within sum(shape) face steps of every other voxel and of the outside
    # of the grid, so by then dilation and erosion have reached a fixed point.
    steps = min(times, sum(mask.shape))
    box = bounding_box(out, (0 if erode else steps,) * 3) if steps else None
    if box is None:  # no step, or an empty mask, which no step changes
        return out
    view = out[box]
    src = np.empty_like(view)  # one scratch box, refilled before each read
    for _ in range(steps):
        for axis in range(3):
            # The face-6 cross reads the step's input on every axis. The
            # full-26 cube is the product of three axis segments, so each of
            # its passes reads the previous pass.
            if axis == 0 or elem.kind == "full26":
                np.copyto(src, view)
            _axis_pass(view, src, axis, erode)
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
    """XOR of the r_out-dilated and r_in-eroded mask: a thick boundary shell.

    Both lie in the mask's bounding box grown by ``r_out``, so the band is
    built in place on that box of a copy of the mask, False off the box.
    """
    if r_out < 0 or r_in < 0:
        raise ValueError(f"band radii must be >= 0, got ({r_out}, {r_in})")
    _check_mask(mask.data, 0)
    band = mask.data.copy()
    box = bounding_box(band, (r_out,) * 3)
    if box is not None:
        outer = band[box]
        eroded = erode_mask(outer, elem, r_in)
        _iterate(outer, elem, r_out, erode=False, in_place=True)
        outer ^= eroded
    return mask.with_data(band)
