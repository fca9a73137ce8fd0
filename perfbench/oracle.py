"""Reference computations for the benchmark's output checks.

Nothing here imports anatvox. Output volumes are read with a small NIfTI-1
reader of its own, and each stage's result is derived again with numpy and
scipy.ndimage, so a defect in the package cannot hide behind its own code.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import ndimage

FACE6 = ndimage.generate_binary_structure(3, 1)
# the package's defaults, which every stage of the benchmark runs with
DICE_EPS, CE_EPS = 1e-5, 1e-7
NSD_TOL_MM, HD_PENALTY_MM = 4.0, 1000.0
_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 8: np.dtype("<i4"), 16: np.dtype("<f4")}


class CheckFailed(Exception):
    """An output differs from its reference."""


class Volume(NamedTuple):
    data: np.ndarray
    spacing: tuple[float, float, float]


def read_nii(path) -> Volume:
    """Read an uncompressed little-endian NIfTI-1 file (no intensity scaling)."""
    raw = Path(path).read_bytes()
    if len(raw) < 352 or struct.unpack_from("<i", raw, 0)[0] != 348 or raw[344:348] != b"n+1\x00":
        raise CheckFailed(f"{path}: not a NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    nx, ny, nz = dim[1:4]
    code = struct.unpack_from("<h", raw, 70)[0]
    if dim[0] != 3 or code not in _DTYPES:
        raise CheckFailed(f"{path}: dim {dim} / datatype {code} unexpected")
    sx, sy, sz = struct.unpack_from("<3f", raw, 80)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    slope = struct.unpack_from("<f", raw, 112)[0]
    if slope not in (0.0, 1.0):
        raise CheckFailed(f"{path}: unexpected scl_slope {slope}")
    dtype = _DTYPES[code]
    if len(raw) != offset + nx * ny * nz * dtype.itemsize:
        raise CheckFailed(f"{path}: payload size does not match the header")
    data = np.frombuffer(raw, dtype, count=nx * ny * nz, offset=offset).reshape(nz, ny, nx)
    return Volume(data, (float(sz), float(sy), float(sx)))


def stored_spacing(spacing) -> tuple[float, float, float]:
    """Spacing as it reads back from a NIfTI header (float32 fields)."""
    return tuple(float(np.float32(s)) for s in spacing)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expect_volume(path, want: np.ndarray, spacing, dtype: str) -> None:
    """The file at ``path`` holds exactly ``want`` (as ``dtype``) at ``spacing``."""
    vol = read_nii(path)
    expect(vol.data.dtype == np.dtype(dtype), f"{path}: dtype {vol.data.dtype}, want {dtype}")
    expect(vol.data.shape == want.shape, f"{path}: shape {vol.data.shape}, want {want.shape}")
    expect(vol.spacing == stored_spacing(spacing), f"{path}: spacing {vol.spacing}")
    expect(np.array_equal(vol.data, want), f"{path}: voxels differ from the reference")


def dilate(mask: np.ndarray, times: int) -> np.ndarray:
    # scipy treats iterations=0 as "until stable", so 0 is handled here
    return ndimage.binary_dilation(mask, FACE6, iterations=times) if times else mask.copy()


def erode(mask: np.ndarray, times: int) -> np.ndarray:
    return ndimage.binary_erosion(mask, FACE6, iterations=times) if times else mask.copy()


def wall_band(ooi0: np.ndarray) -> np.ndarray:
    """The wall band with the default radii: one voxel out, one voxel in."""
    return dilate(ooi0, 1) ^ erode(ooi0, 1)


def bbox(mask: np.ndarray, grow=(0, 0, 0)) -> tuple[slice, ...]:
    """Bounding box of ``mask`` grown by ``grow`` voxels per axis, clipped to the grid."""
    box = []
    for axis, g in enumerate(grow):
        hits = np.flatnonzero(mask.any(axis=tuple(a for a in range(3) if a != axis)))
        if hits.size == 0:
            return (slice(0, 0),) * 3
        box.append(slice(max(int(hits[0]) - g, 0), min(int(hits[-1]) + g + 1, mask.shape[axis])))
    return tuple(box)


def gain(mask: np.ndarray, patch) -> np.ndarray:
    """Truncated-Gaussian patch gain: one correlate1d pass per axis, zero padded.

    The gain is 0 beyond the patch radii of the mask, so only that box is
    computed.
    """
    box = bbox(mask, [d // 2 for d in patch])
    acc = mask[box].astype(np.float64)
    variances = [0.1 * d for d in patch]
    for axis, (d, var) in enumerate(zip(patch, variances)):
        t = np.arange(-(d // 2), d // 2 + 1, dtype=np.float64)
        acc = ndimage.correlate1d(acc, np.exp(-t * t / (2.0 * var)), axis=axis, mode="constant")
    out = np.zeros(mask.shape)
    out[box] = acc * ((2.0 * math.pi) ** -1.5 / math.sqrt(math.prod(variances)))
    return out


def psm(ooi: np.ndarray, tumor: np.ndarray, patch, lam: float) -> np.ndarray:
    def blend(g):  # mu = 1
        shat = g + 1.0 / g.size
        return shat / shat.sum()

    return (1.0 - lam) * blend(gain(ooi, patch)) + lam * blend(gain(tumor, patch))


def draw_flat(prob: np.ndarray, count: int, seed: int):
    """Seeded inverse-CDF draws from a stored probability map, as flat indices.

    The map is renormalised in float64 (undoing its float32 storage) and its
    z-major cumulative sum is searched with the first ``count`` uniforms of
    ``default_rng(seed)``: a draw is the first voxel whose cumulative sum
    exceeds its uniform. Returns the indices, the uniforms and the
    cumulative sum.
    """
    p = prob.astype(np.float64)
    cdf = np.cumsum(p / np.sum(p), axis=None)
    u = np.random.default_rng(seed).random(count)
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1), u, cdf


def patch_at(image: np.ndarray, center, size) -> np.ndarray:
    """The ``size`` box centred at ``center``, zero beyond the grid (the default pad)."""
    out = np.zeros(size, dtype=image.dtype)
    src, dst = [], []
    for c, s, n in zip(center, size, image.shape):
        lo = c - s // 2
        src.append(slice(max(lo, 0), min(lo + s, n)))
        dst.append(slice(max(lo, 0) - lo, min(lo + s, n) - lo))
    out[tuple(dst)] = image[tuple(src)]
    return out


def loss_report(gt, pred, ooi) -> dict:
    y = gt.astype(np.float64)
    p = pred.astype(np.float64)

    def dice(q):
        return 1.0 - (2.0 * float(np.sum(q * y)) + DICE_EPS) / (float(np.sum(q) + np.sum(y)) + DICE_EPS)

    def ce(q):
        qc = np.clip(q, CE_EPS, 1.0 - CE_EPS)
        return float(-np.mean(y * np.log(qc) + (1.0 - y) * np.log(1.0 - qc)))

    masked = p * ooi
    return {"dice_loss": dice(p), "ce_loss": ce(p), "af_loss": dice(masked) + ce(masked)}


def _surface(mask: np.ndarray) -> np.ndarray:
    return mask & ~erode(mask, 1)


def _rank95(values: np.ndarray) -> float:
    return float(np.sort(values)[math.ceil(0.95 * values.size) - 1])


def seg_report(gt, pred, spacing) -> dict:
    """Dice, precision, recall, NSD and HD95 with the package's conventions."""
    n_gt = int(np.count_nonzero(gt))
    n_pr = int(np.count_nonzero(pred))
    inter = int(np.count_nonzero(gt & pred))

    def ratio(num, den, other):
        if den == 0:
            return 1.0 if other == 0 else 0.0
        return num / den

    precision, recall = ratio(inter, n_pr, n_gt), ratio(inter, n_gt, n_pr)
    if n_gt == 0 and n_pr == 0:
        return dict(dice=1.0, precision=1.0, recall=1.0, nsd=1.0, hd95_mm=0.0)
    if n_gt == 0 or n_pr == 0:
        return dict(dice=0.0, precision=precision, recall=recall, nsd=0.0, hd95_mm=HD_PENALTY_MM)
    # every surface voxel, and so every nearest one, lies in the box of gt | pred
    box = bbox(gt | pred)
    s_gt, s_pr = _surface(gt)[box], _surface(pred)[box]
    d_gt = ndimage.distance_transform_edt(~s_pr, sampling=spacing)[s_gt]
    d_pr = ndimage.distance_transform_edt(~s_gt, sampling=spacing)[s_pr]
    nsd = (np.count_nonzero(d_gt <= NSD_TOL_MM) + np.count_nonzero(d_pr <= NSD_TOL_MM)) / (
        d_gt.size + d_pr.size
    )
    return dict(
        dice=2.0 * inter / (n_gt + n_pr),
        precision=precision,
        recall=recall,
        nsd=float(nsd),
        hd95_mm=max(_rank95(d_gt), _rank95(d_pr)),
    )


def expect_report(got: dict, want: dict, where: str) -> None:
    """Every value in ``want`` is in ``got`` to within 1e-9 (in mm for distances)."""
    expect(set(got) >= set(want), f"{where}: keys {sorted(got)}")
    for key, value in want.items():
        expect(abs(got[key] - value) <= 1e-9, f"{where}: {key} = {got[key]!r}, want {value!r}")
