"""Noise-fill masking for reconstruction pretraining data.

Replaces the voxels under a mask (typically the bowel-wall band) with seeded
Gaussian noise and scores reconstructions with a mean-reduced L1 distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, require_bool, require_same_geometry


@dataclass(frozen=True)
class NoiseSpec:
    """A Gaussian: the wall noise, or a phantom tissue's CT. Defaults assume intensity-normalized volumes."""

    mean: float = 0.0
    stddev: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"noise mean must be finite, got {self.mean}")
        if not 0 <= self.stddev < math.inf:  # written so that NaN fails too
            raise ValueError(f"noise stddev must be finite and >= 0, got {self.stddev}")


def mask_bowel_wall(image: VoxelGrid, band: VoxelGrid, noise: NoiseSpec, seed: int) -> VoxelGrid:
    """Copy of ``image`` with every ``band`` voxel replaced by fresh noise from ``default_rng(seed)``.

    Draws are assigned in the fixed z-major traversal order of the band, so a
    given seed always produces the identical volume; voxels outside the band
    are copied bit-exactly. Integer images come back as floats so that the
    noise is not truncated; float images keep their dtype.
    """
    require_same_geometry(image, band)
    require_bool(band.data)
    out = image.data.astype(np.promote_types(image.data.dtype, np.float32))
    fill_band(out, band.data, np.random.default_rng(seed), noise)
    return image.with_data(out)


def fill_band(slab: np.ndarray, band: np.ndarray, rng: np.random.Generator, noise: NoiseSpec) -> None:
    """Fill ``slab``'s ``band`` voxels, in place and in C order, with ``rng``'s next draws.

    ``slab`` and ``band`` are the same voxels of an image and of its mask: a
    run, a z slab or a box.
    Each draw is rounded once to ``slab``'s dtype. Drawing k normals in pieces
    gives the same stream as one draw of k, so filling the slabs of a grid in
    order with one generator fills it as one slab would. A draw that overflows
    ``slab``'s dtype raises ValueError, with the band voxels left undefined.
    """
    count = int(np.count_nonzero(band))
    if count:
        draws = rng.standard_normal(count)  # rng.normal's draws bit for bit, scaled in place
        try:
            with np.errstate(over="raise"):
                draws *= noise.stddev
                draws += noise.mean
                slab[band] = draws  # cast as assigned, with no copy
        except FloatingPointError:
            raise ValueError(f"noise of mean {noise.mean} and stddev {noise.stddev} overflows {slab.dtype}") from None


def l1_recon_loss(image: VoxelGrid, recon: VoxelGrid, restrict_to: VoxelGrid | None = None) -> float:
    """Mean absolute voxel difference.

    Mean-reduced so values are comparable across patch sizes. Pass a boolean
    grid as ``restrict_to`` to average over those voxels only.
    """
    require_same_geometry(image, recon)
    diff = np.abs(image.data.astype(np.float64) - recon.data.astype(np.float64))
    if restrict_to is None:
        return float(np.mean(diff))
    require_same_geometry(image, restrict_to)
    require_bool(restrict_to.data)
    if not np.any(restrict_to.data):
        raise ValueError("restrict_to mask is empty")
    return float(np.mean(diff[restrict_to.data]))
