"""Probabilistic training-patch sampling driven by an interest mask.

The gain of centering a patch at voxel p is the truncated-Gaussian-weighted
count of interest voxels inside the patch-sized box around p. Because the
kernel covariance is diagonal, the full gain field factorizes into three 1D
passes.

The gain field is turned into a probability map by an additive blend with
the uniform distribution followed by renormalization, organ- and
tumor-driven maps are mixed linearly, and centers are drawn by inverse-CDF
lookup over the flat z-major order with a seeded generator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, bounding_box, require_same_geometry

PSM_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PatchSpec:
    """Patch size in voxels (dz, dy, dx) plus the derived kernel geometry.

    The per-axis Gaussian variance is 0.1 * d. Set ``sigma_is_stddev`` to
    read 0.1 * d as a standard deviation instead (variance (0.1 d)^2).
    Truncation is the inclusive box |q - p| <= d // 2 per axis.
    """

    size: tuple[int, int, int]
    sigma_is_stddev: bool = False

    def __post_init__(self):
        size = tuple(self.size)
        if len(size) != 3 or not all(isinstance(s, numbers.Integral) and s >= 1 for s in size):
            raise ValueError(f"patch size must be 3 integers >= 1, got {self.size!r}")
        object.__setattr__(self, "size", tuple(int(s) for s in size))

    @property
    def variances(self) -> tuple[float, float, float]:
        if self.sigma_is_stddev:
            return tuple((0.1 * d) ** 2 for d in self.size)
        return tuple(0.1 * d for d in self.size)

    @property
    def radii(self) -> tuple[int, int, int]:
        return tuple(d // 2 for d in self.size)

    @property
    def norm_const(self) -> float:
        vz, vy, vx = self.variances
        return (2.0 * math.pi) ** -1.5 / math.sqrt(vz * vy * vx)


@dataclass
class SamplingMap:
    """Per-voxel probability of being chosen as a patch center."""

    grid: VoxelGrid

    def __post_init__(self):
        data = self.grid.data
        if not data.min() >= 0:  # written so that NaN fails too
            raise ValueError("sampling map has negative or NaN entries")
        total = float(np.sum(data, dtype=np.float64))
        if not abs(total - 1.0) <= PSM_SUM_TOL:
            raise ValueError(f"sampling map sums to {total!r}, not 1")


def _axis_kernel(radius: int, variance: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(t * t) / (2.0 * variance))


def gain_map(interest: VoxelGrid, patch: PatchSpec) -> VoxelGrid:
    """Gain field of an interest mask: three separable truncated-Gaussian passes.

    Each pass adds the weighted in-grid neighbors along one axis, so the mask
    is in effect zero-padded and the gain is exactly 0 wherever no interest
    voxel falls inside the box. The passes therefore run only on the mask's
    bounding box grown by the patch radii: every term the box leaves out
    adds ``k * 0.0``, so the field is bitwise the same as passes over the grid.
    """
    if interest.data.dtype != np.bool_:
        raise ValueError("interest map must be boolean")
    radii = patch.radii
    out = np.zeros(interest.data.shape)
    box = bounding_box(interest.data, radii)
    if box is None:
        return interest.with_data(out)
    acc = interest.data[box].astype(np.float64)
    variances = patch.variances
    for axis in (0, 1, 2):
        r = radii[axis]
        n = acc.shape[axis]
        k = _axis_kernel(r, variances[axis])
        lead = (slice(None),) * axis
        nxt = np.zeros_like(acc)
        for i, t in enumerate(range(-r, r + 1)):
            if abs(t) >= n:
                continue
            # nxt[v] += k[i] * acc[v + t] wherever v + t is inside the box
            dst = lead + (slice(max(-t, 0), n - max(t, 0)),)
            src = lead + (slice(max(t, 0), n - max(-t, 0)),)
            nxt[dst] += k[i] * acc[src]
        acc = nxt
    acc *= patch.norm_const
    out[box] = acc
    return interest.with_data(out)


def psm_from_gain(gain: VoxelGrid, mu: float = 1.0) -> SamplingMap:
    """Blend the gain field with the uniform map and renormalize.

    s_i = (g_i / mu + 1/n) / sum_j (g_j / mu + 1/n). Every probability is
    strictly positive because of the uniform floor.
    """
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    s = gain.data.astype(np.float64, copy=False) / mu
    s += 1.0 / s.size
    s /= np.sum(s, dtype=np.float64)
    return SamplingMap(gain.with_data(s))


def combine_psm(s_organ: SamplingMap, s_tumor: SamplingMap, lam: float) -> SamplingMap:
    """Convex mix of the organ-driven and tumor-driven maps."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    require_same_geometry(s_organ.grid, s_tumor.grid)
    mixed = s_organ.grid.data * (1.0 - lam)
    mixed += lam * s_tumor.grid.data
    return SamplingMap(s_organ.grid.with_data(mixed))


def draw_centers(s: SamplingMap, count: int, seed: int) -> np.ndarray:
    """``count`` seeded categorical draws from the map, as a (count, 3) int array.

    Row i is the (z, y, x) voxel of draw i. Inverse-CDF over the flat z-major
    order; identical (map, count, seed) always reproduces the identical array.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    flat = s.grid.data.reshape(-1)
    cdf = np.cumsum(flat, dtype=np.float64)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    np.clip(idx, 0, flat.size - 1, out=idx)
    return np.stack(np.unravel_index(idx, s.grid.data.shape), axis=1)
