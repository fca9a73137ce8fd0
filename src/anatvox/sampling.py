"""Probabilistic training-patch sampling driven by an interest mask.

The gain of centering a patch at voxel p is the truncated-Gaussian-weighted
count of interest voxels inside the patch-sized box around p. Because the
kernel covariance is diagonal, the full gain field factorizes into three 1D
passes.

The gain field is turned into a probability map by an additive blend with
the uniform distribution followed by renormalization, organ- and
tumor-driven maps are mixed linearly, and centers are drawn by inverse-CDF
lookup over the flat z-major order with a seeded generator. The draw reads
the map as a run source, a grid or a ``volio.VolumeReader``, and walks its
cdf slab by slab, so it holds neither the map nor a full-size float64 array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    VoxelGrid, bounding_box, is_int, pairwise_sum, pasted_run, require_bool, require_same_geometry,
)


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
        if len(size) != 3 or not all(is_int(s) and s >= 1 for s in size):
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


def _axis_kernel(radius: int, variance: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(t * t) / (2.0 * variance))


# Voxels in one block of the gain passes, the size of the y pass's block buffer.
_BLOCK = 1 << 16


def _taps(dst: np.ndarray, src: np.ndarray, k: np.ndarray, axis: int) -> None:
    """dst = 0, then dst[v] += k[i] * src[v + t] for each tap t = i - r that lands in the array, in tap order."""
    n, r = src.shape[axis], k.size // 2
    lead = (slice(None),) * axis
    dst[...] = 0.0
    for i, t in enumerate(range(-r, r + 1)):
        part = src[lead + (slice(max(t, 0), n - max(-t, 0)),)]
        dst[lead + (slice(max(-t, 0), n - max(t, 0)),)] += k[i] * part


def _gain(mask: np.ndarray, patch: PatchSpec) -> np.ndarray:
    """Float64 gain field of a boolean mask array: three separable truncated-Gaussian passes.

    Each pass adds the weighted neighbors inside the array along one axis, so
    the mask is in effect zero-padded. The gain is exactly 0 wherever no mask
    voxel falls inside the patch box, so the passes run only on the mask's
    bounding box grown by the patch radii, in place in that box of the
    zero-filled field: every term the box leaves out adds ``k * 0.0``, so the
    field is bitwise the same as passes over the array.

    Besides the field, two blocks of ``_BLOCK`` voxels (or of one y row or z
    plane, if that is larger) are held: the block buffer and one tap's
    product, a temporary freed as the tap is added. The z pass fills the box
    from the boolean crop a block of y rows at a time (``k * True`` is
    ``k * 1.0``). Then, a block of z planes at a time, the y pass goes into
    the block buffer and the x pass back into the box. Every voxel takes the
    same products and sums in the same tap order as three whole-box passes.
    """
    out = np.zeros(mask.shape)
    box = bounding_box(mask, patch.radii)
    if box is None:
        return out
    crop, acc = mask[box], out[box]
    nz, ny, nx = acc.shape
    k = [_axis_kernel(min(r, n - 1), v)  # a tap |t| >= n lands nowhere in the box
         for r, n, v in zip(patch.radii, acc.shape, patch.variances)]
    rows = min(max(1, _BLOCK // (nz * nx)), ny)  # y rows of a z-pass block
    planes = min(max(1, _BLOCK // (ny * nx)), nz)  # z planes of a y- and x-pass block
    block = np.empty(planes * ny * nx)
    for y0 in range(0, ny, rows):
        _taps(acc[:, y0 : y0 + rows], crop[:, y0 : y0 + rows], k[0], 0)
    for z0 in range(0, nz, planes):
        slab = acc[z0 : z0 + planes]
        ypass = block[: slab.size].reshape(slab.shape)
        _taps(ypass, slab, k[1], 1)
        _taps(slab, ypass, k[2], 2)
    acc *= patch.norm_const
    return out


def gain_map(interest: VoxelGrid, patch: PatchSpec) -> VoxelGrid:
    """Gain field of an interest mask, as a float64 grid; its cost scales with the mask's box."""
    require_bool(interest.data)
    return interest.with_data(_gain(interest.data, patch))


def require_mu(mu: float) -> None:
    """Raise ValueError unless the blend weight mu is finite and > 0."""
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be finite and > 0, got {mu}")


def require_lambda(lam: float) -> None:
    """Raise ValueError unless the mix weight lambda is in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")


def _blend(s: np.ndarray, n: int, mu: float, shape=None, box=None) -> tuple[np.ndarray, float]:
    """s <- (s / mu + 1/n) / Z in place, for a float64 gain on part of an n-voxel grid; returns s and the map off it.

    ``s`` is the gain on ``box`` of a ``shape`` array (by default, ``s`` is
    that array) whose other voxels have gain 0. Z sums the blended array in
    its own pairwise order, one ``pasted_run`` at a time, so it is bitwise
    ``np.sum`` of the array although only ``s`` is held; it adds the n voxels
    less the array's, of gain 0, as one term: an exact 0.0 when the array is
    the grid. Raises ValueError for a mu that ``require_mu`` refuses, or so
    small that the blend overflows float64.
    """
    require_mu(mu)
    shape = s.shape if shape is None else shape
    size = math.prod(shape)
    try:
        with np.errstate(over="raise"):
            s /= mu
            s += 1.0 / n
            z = pairwise_sum(lambda lo, hi: np.sum(pasted_run(shape, box, s, 1.0 / n, lo, hi)), 0, size)
            z += (n - size) * (1.0 / n)
    except FloatingPointError:
        raise ValueError(f"mu = {mu} is too small: gain / mu overflows float64") from None
    s /= z
    return s, (1.0 / n) / z


def _mix(a, b, lam: float):
    """a <- (1 - lam) * a + lam * b, returned; in place in ``a`` and ``b`` when they are arrays."""
    require_lambda(lam)
    a *= 1.0 - lam
    b *= lam  # lam * b, bitwise
    a += b
    return a


def psm_from_gain(gain: VoxelGrid, mu: float = 1.0) -> VoxelGrid:
    """Blend the gain field with the uniform map and renormalize, as a float64 grid.

    s_i = (g_i / mu + 1/n) / sum_j (g_j / mu + 1/n). Every probability is
    strictly positive because of the uniform floor.
    """
    s, _ = _blend(gain.data.astype(np.float64), gain.data.size, mu)  # on a copy
    return gain.with_data(s)


def combine_psm(s_organ: VoxelGrid, s_tumor: VoxelGrid, lam: float) -> VoxelGrid:
    """Convex mix of the organ-driven and tumor-driven maps."""
    require_same_geometry(s_organ, s_tumor)
    a, b = (g.data.astype(np.result_type(g.data, 1.0)) for g in (s_organ, s_tumor))  # copies, as each term's dtype
    return s_organ.with_data(_mix(a, b, lam))


def _outside(shape, box) -> list[tuple[slice, ...]]:
    """At most six disjoint boxes that tile the voxels of a ``shape`` array outside ``box``, or all of them."""
    (bz, by, bx), (nz, ny, nx) = box, shape
    return [(slice(0, bz.start),), (slice(bz.stop, nz),),
            (bz, slice(0, by.start)), (bz, slice(by.stop, ny)),
            (bz, by, slice(0, bx.start)), (bz, by, slice(bx.stop, nx))]


def box_psm(ooi: np.ndarray, tumor: np.ndarray, n: int, patch: PatchSpec, mu: float, lam: float):
    """(the float64 mixed map on the box, the mixed constant off it): ``combine_psm`` of two ``psm_from_gain`` maps.

    ``ooi`` and ``tumor`` are boolean masks of a grid of ``n`` voxels, both
    cropped to the box of their union grown by the patch radii (an empty
    union crops to an empty box). Neither gain reaches past the box, so each
    map off it is the constant (1/n) / Z; the grid's map is the constant as
    float32 with the box pasted in. Blend and mix are ``psm_from_gain``'s and
    ``combine_psm``'s steps, run on the box: with the box equal to the grid
    the map is bitwise theirs, and on a smaller box Z may round otherwise,
    within float32 rounding once stored.

    The tumor's gain is built only on the tumor's own box grown by the patch
    radii, the tumor box; off it the tumor's map is its constant, and its Z
    sums the union box in the union box's pairwise order, so the map is
    bitwise that of a tumor map built on the whole box. The mix runs in place
    in the organ's map, with the tumor's map on the tumor box and with its
    constant on the rest. One float64 box map is held, 8 B per box voxel, and
    the tumor's gain on the tumor box, with ``_gain``'s two blocks while a
    gain is built. mu and lambda are checked before either gain is built.
    """
    require_bool(ooi, tumor)
    if ooi.shape != tumor.shape:
        raise ValueError(f"mask box shapes differ: {ooi.shape} vs {tumor.shape}")
    require_mu(mu)
    require_lambda(lam)
    # each gain is blended as soon as it is built, while its map is still in cache
    s_o, c_o = _blend(_gain(ooi, patch), n, mu)
    tb = bounding_box(tumor, patch.radii) or (slice(0, 0),) * 3
    s_t, c_t = _blend(_gain(tumor[tb], patch), n, mu, tumor.shape, tb)
    _mix(s_o[tb], s_t, lam)
    for part in _outside(s_o.shape, tb):
        _mix(s_o[part], c_t, lam)
    return s_o, _mix(c_o, c_t, lam)


# Voxels the draw widens at once, into one reused 2 MB float64 buffer (2^16..2^20 draw equally fast).
_SLAB = 1 << 18

_NO_DISTRIBUTION = "a sampling map needs finite voxels >= 0 and a positive sum"


def _invert_sorted(src, total: float, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` clipped to n - 1, for sorted uniforms ``u``.

    ``src`` is a run source, a grid or a ``volio.VolumeReader``, read one slab
    at a time. The cdf of its voxels / ``total`` is built slab by slab in a
    reused float64 buffer, the slab's first value carrying the previous slab's
    last cdf value. ``np.cumsum`` adds in order, so each slab's values are
    bitwise the full cdf's. The uniforms below a slab's last cdf value land in
    that slab. Raises ValueError at a slab holding a negative voxel.
    """
    n = src.size
    idx = np.full(u.size, n - 1, dtype=np.intp)
    buf = np.empty(min(_SLAB, n))
    carry, done = 0.0, 0
    for lo in range(0, n, _SLAB):
        c = buf[: min(n - lo, _SLAB)]
        c[...] = src.read(lo, lo + c.size)
        if not c.min() >= 0:
            raise ValueError(_NO_DISTRIBUTION)
        c /= total
        c[0] += carry
        np.cumsum(c, out=c)
        carry = c[-1]
        stop = done + int(np.searchsorted(u[done:], carry, side="left"))
        idx[done:stop] = lo + np.searchsorted(c, u[done:stop], side="right")
        done = stop
    return idx


def draw_centers(src, count: int, seed: int) -> np.ndarray:
    """``count`` seeded categorical draws from a map, as a (count, 3) int array.

    The map may hold any finite weights >= 0 with a positive sum, such as a
    float32 map as stored. Row i is the (z, y, x) voxel of draw i: the first
    voxel whose z-major float64 cdf of map / sum exceeds the i-th uniform of
    ``default_rng(seed)``, or the last voxel if none does. ``src`` is a run
    source, a grid or a ``volio.VolumeReader``, read twice: one pairwise run
    at a time for the sum, one slab at a time for the cdf. The sum and the cdf
    are bitwise those of the map widened to float64, but only one run or slab
    is ever widened; identical (map, count, seed) reproduces the identical
    array.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    total = pairwise_sum(lambda lo, hi: np.sum(src.read(lo, hi).astype(np.float64, copy=False)), 0, src.size)
    if not 0 < total < math.inf:  # written so that NaN fails too
        raise ValueError(_NO_DISTRIBUTION)
    u = np.random.default_rng(seed).random(count)
    order = np.argsort(u)
    flat = _invert_sorted(src, total, u[order])
    del u  # before the rows are made
    rows = np.empty((count, 3), dtype=np.intp)
    idx = rows[:, 2]
    idx[order] = flat  # draw i's flat index, split in place into its (z, y, x)
    del order, flat
    _, ny, nx = src.shape
    np.divmod(idx, ny * nx, out=(rows[:, 0], idx))
    np.divmod(idx, nx, out=(rows[:, 1], idx))
    return rows
