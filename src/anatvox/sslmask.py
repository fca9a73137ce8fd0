"""Noise-fill masking for reconstruction pretraining data.

Replaces the voxels under a mask (typically the bowel-wall band) with seeded
Gaussian noise and scores reconstructions with a mean-reduced L1 distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, require_same_geometry


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian fill parameters. Defaults assume intensity-normalized volumes."""

    mean: float = 0.0
    stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.stddev < 0:
            raise ValueError(f"stddev must be >= 0, got {self.stddev}")


def mask_bowel_wall(image: VoxelGrid, band: VoxelGrid, noise: NoiseSpec) -> VoxelGrid:
    """Copy of ``image`` with every ``band`` voxel replaced by fresh noise.

    Draws are assigned in the fixed z-major traversal order of the band, so a
    given seed always produces the identical volume; voxels outside the band
    are copied bit-exactly. Integer images come back as floats so that the
    noise is not truncated; float images keep their dtype.
    """
    require_same_geometry(image, band)
    if band.data.dtype != np.bool_:
        raise ValueError("mask must be a boolean grid")
    out = image.data.astype(np.promote_types(image.data.dtype, np.float32))
    count = int(np.count_nonzero(band.data))
    if count:
        rng = np.random.default_rng(noise.seed)
        draws = rng.normal(noise.mean, noise.stddev, count)
        out[band.data] = draws.astype(out.dtype, copy=False)
    return image.with_data(out)


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
    if restrict_to.data.dtype != np.bool_:
        raise ValueError("restrict_to must be a boolean grid")
    if not np.any(restrict_to.data):
        raise ValueError("restrict_to mask is empty")
    return float(np.mean(diff[restrict_to.data]))
