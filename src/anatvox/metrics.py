"""Segmentation evaluation: overlap scores and surface-distance metrics.

Surfaces are voxel sets (foreground voxels with a face-6 background or
out-of-bounds neighbor) and distances are voxel-center to voxel-center in
millimeters, computed with an exact anisotropic Euclidean distance
transform (Felzenszwalb and Huttenlocher's separable passes). ``seg_metrics``
asks ``edt`` for each surface's distances only at the other surface's
voxels, the only ones it reads. Conventions for degenerate masks:

* both masks empty:  dice = precision = recall = nsd = 1, hd95 = 0
* exactly one empty: dice = 0, nsd = 0, hd95 = the penalty distance

HD95 uses the nearest-rank percentile (the ceil(0.95 m)-th smallest of the
m directed distances).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .grid import VoxelGrid, bounding_box, require_bool, require_same_geometry
from .morphology import FACE6, boundary_band

_INF = float("inf")


@dataclass(frozen=True)
class MetricReport:
    dice: float
    precision: float
    recall: float
    nsd: float
    hd95_mm: float

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Exact Euclidean distance transform
# ---------------------------------------------------------------------------

def _envelope_pass(sq: np.ndarray, axis: int, step: float) -> None:
    """In place along ``axis``: sq[i] becomes min over q of sq[q] + (step * (i - q))^2.

    The Felzenszwalb-Huttenlocher lower envelope of parabolas, run one
    position at a time with every line of the axis handled at once. Sites
    with sq = inf never enter an envelope, so a line without one stays inf.
    """
    f = np.moveaxis(sq, axis, 0)
    n, m = f.shape[0], f[0].size
    w2 = step * step
    v = np.empty((n, m), np.int32)  # per line, the envelope's vertices bottom-up
    h = np.empty((n, m))  # their values sq[v]
    z = np.empty((n + 1, m))  # z[k]: where vertex k starts to lie lowest
    top = np.full(m, -1, np.intp)  # each line's top vertex; -1 when none
    for q in range(n):
        site = f[q] < _INF
        live = np.flatnonzero(site)
        fq = f[q][site]
        lifted = fq + w2 * q * q
        k = top[live]
        start = np.full(live.size, -_INF)  # where q starts to lie lowest; -inf once all are popped
        todo = np.flatnonzero(k >= 0)
        while todo.size:
            lines, kk = live[todo], k[todo]
            p = v[kk, lines]
            cross = (lifted[todo] - (h[kk, lines] + w2 * p * p)) / (2.0 * w2 * (q - p))
            pop = cross <= z[kk, lines]
            start[todo[~pop]] = cross[~pop]
            todo = todo[pop]
            k[todo] -= 1
            todo = todo[k[todo] >= 0]
        k += 1
        v[k, live] = q
        h[k, live] = fq
        z[k, live] = start
        z[k + 1, live] = _INF
        top[live] = k
    has = (top >= 0).reshape(f.shape[1:])  # a line without sites stays inf
    lines = np.flatnonzero(has)
    k = np.zeros(lines.size, np.intp)
    for i in range(n):
        ahead = np.flatnonzero(z[k + 1, lines] < i)
        while ahead.size:
            k[ahead] += 1
            ahead = ahead[z[k[ahead] + 1, lines[ahead]] < i]
        d = (i - v[k, lines]) * step
        f[i][has] = d * d + h[k, lines]


def _nearest_site_pass(mask: np.ndarray, step: float) -> np.ndarray:
    """Squared distances along the last axis from each voxel to its line's nearest true voxel.

    The first pass in closed form: the sites are binary, so a voxel's value is
    (step * k)^2 with k its voxel distance to the nearest site on the line,
    the d * d that the envelope gives with every site at 0. k comes from a
    running maximum of site positions, forward and on the reversed line. A
    line without sites stays inf.
    """
    n = mask.shape[-1]
    pos = np.arange(n, dtype=np.int32)
    none = np.int32(-n)  # n before the first position, so k >= n where a side has no site
    k = np.where(mask, pos, none)
    np.maximum.accumulate(k, axis=-1, out=k)
    np.subtract(pos, k, out=k)  # back to the last site at or before each voxel
    ahead = np.where(mask[..., ::-1], pos, none)
    np.maximum.accumulate(ahead, axis=-1, out=ahead)
    np.subtract(pos, ahead, out=ahead)  # on the reversed line: on to the next site
    np.minimum(k, ahead[..., ::-1], out=k)
    del ahead  # before the float64 result is allocated
    sq = np.multiply(k, step)
    np.multiply(sq, sq, out=sq)
    sq[k >= n] = _INF
    return sq


_AT_CHUNK = 1 << 13  # candidate sums per step of the last pass at given voxels
_LINES = 1 << 15  # z lines per block of the z envelope pass, whose state is ~29 B per voxel of a block


def _min_along_y(sq: np.ndarray, at: np.ndarray, step: float) -> np.ndarray:
    """min over y' of ((y - y') * step)^2 + sq[z, y', x] at each true voxel of ``at``, in C order."""
    z, y, x = np.nonzero(at)
    ny = sq.shape[1]
    ys = np.arange(ny)
    out = np.empty(z.size)
    rows = max(1, _AT_CHUNK // ny)
    for lo in range(0, z.size, rows):
        part = slice(lo, lo + rows)
        d = (y[part, None] - ys) * step
        d *= d
        d += sq[z[part], :, x[part]]
        d.min(axis=1, out=out[part])
    return out


def _require_finite_terms(shape, spacing) -> None:
    """Refuse a shape and spacing whose squared mm distances or envelope crossings can overflow float64.

    ``span``, the sum over axes of (2 n step)^2, is at least 4 times every
    squared distance, every product of pass 1 and every sum the envelope
    passes form. A crossing divides a difference of two such sums by at
    least 2 step^2 of an axis of 2 or more voxels the envelope runs along (z
    and y), so it is at most span / (8 step^2). Both bounds must be finite,
    and that step^2 must not round to 0.
    """
    span = sum((2 * n * s) * (2 * n * s) for n, s in zip(shape, spacing.zyx))
    steps = [s * s for n, s in zip(shape[:2], spacing.zyx[:2]) if n > 1]
    if not (math.isfinite(span) and all(w2 > 0 and math.isfinite(span / w2) for w2 in steps)):
        raise ValueError(f"spacing {spacing.zyx} mm on a grid of shape {tuple(shape)}: "
                         "squared distances overflow float64")


def edt(mask: VoxelGrid, at: np.ndarray | None = None) -> VoxelGrid | np.ndarray:
    """Distance in mm from every voxel to the nearest true voxel.

    Exact under anisotropic spacing. Pass 1 gives each voxel its squared
    distance to the nearest true voxel on its x line in closed form; a
    lower-envelope pass along z and then one along y fold in those axes. The
    z pass runs on blocks of y rows of at most ``_LINES`` lines, and the y
    pass on blocks of z planes of at most as many voxels, so their state is
    bounded by a block, not the box. An empty mask yields +inf everywhere
    (the one documented infinity in the package). A spacing whose squared
    distances could overflow float64 on the mask's shape is refused with a
    ValueError before any pass.

    With ``at``, a boolean array of the mask's shape, the y pass runs only at
    ``at``'s true voxels, as a minimum over each voxel's y line, and the
    result is a 1-D float64 array of their distances in C order, equal to
    ``edt(mask).data[at]``. Otherwise the result is a grid like ``mask``.
    """
    require_bool(mask.data)
    if at is not None and not (isinstance(at, np.ndarray) and at.dtype == np.bool_ and at.shape == mask.data.shape):
        raise ValueError(f"at must be a boolean array of shape {mask.data.shape}")
    _require_finite_terms(mask.data.shape, mask.spacing)
    sz, sy, sx = mask.spacing.zyx
    sq = _nearest_site_pass(mask.data, sx)
    nz, ny, nx = sq.shape
    rows = max(1, _LINES // nx)
    for y0 in range(0, ny, rows):  # lines are independent, so any blocks give the same bits
        _envelope_pass(sq[:, y0 : y0 + rows], 0, sz)
    if at is not None:
        d = _min_along_y(sq, at, sy)
        return np.sqrt(d, out=d)
    planes = max(1, rows * nz // ny)  # a block of at most a z-pass block's voxels
    for z0 in range(0, nz, planes):
        _envelope_pass(sq[z0 : z0 + planes], 1, sy)
    return mask.with_data(np.sqrt(sq, out=sq))


def surface_voxels(mask: VoxelGrid) -> VoxelGrid:
    """True voxels with a face-6 neighbor that is background or out of bounds."""
    return boundary_band(mask, FACE6, 0, 1)  # the mask less its erosion, which lies inside it


def _nearest_rank_95(values: np.ndarray) -> float:
    m = values.size
    rank = math.ceil(0.95 * m)
    return float(np.partition(values, rank - 1)[rank - 1])


def _count_ratio(inter: int, denom: int, other: int) -> float:
    if denom == 0:
        return 1.0 if other == 0 else 0.0
    return inter / denom


def seg_metrics(
    gt: VoxelGrid,
    pred: VoxelGrid,
    nsd_tol_mm: float = 4.0,
    hd_penalty_mm: float = 1000.0,
) -> MetricReport:
    """Full per-case report: Dice, precision, recall, NSD, HD95.

    NSD counts the surface voxels of each mask lying within ``nsd_tol_mm``
    of the other mask's surface, over the total surface voxel count. When
    exactly one mask is empty, HD95 is pinned to ``hd_penalty_mm``.
    """
    require_same_geometry(gt, pred)
    require_bool(gt.data, pred.data)

    n_gt = int(np.count_nonzero(gt.data))
    n_pr = int(np.count_nonzero(pred.data))
    inter = int(np.count_nonzero(gt.data & pred.data))

    precision = _count_ratio(inter, n_pr, n_gt)
    recall = _count_ratio(inter, n_gt, n_pr)

    if n_gt == 0 and n_pr == 0:
        return MetricReport(1.0, 1.0, 1.0, 1.0, 0.0)
    if n_gt == 0 or n_pr == 0:
        return MetricReport(0.0, precision, recall, 0.0, float(hd_penalty_mm))

    dice = 2.0 * inter / (n_gt + n_pr)

    # Out-of-grid voxels are background, so the box of gt | pred holds every
    # surface voxel with the same classification, and every distance between them.
    box = bounding_box(gt.data | pred.data)
    surf_gt = surface_voxels(gt.with_data(gt.data[box]))
    surf_pr = surface_voxels(pred.with_data(pred.data[box]))
    # each surface's distances are taken only at the other surface's voxels
    d_pr = edt(surf_gt, surf_pr.data)
    d_gt = edt(surf_pr, surf_gt.data)

    nsd = (int(np.count_nonzero(d_pr <= nsd_tol_mm)) + int(np.count_nonzero(d_gt <= nsd_tol_mm))) / (
        d_pr.size + d_gt.size
    )
    hd95 = max(_nearest_rank_95(d_pr), _nearest_rank_95(d_gt))
    return MetricReport(dice, precision, recall, nsd, hd95)


# ---------------------------------------------------------------------------
# Cohort reporting
# ---------------------------------------------------------------------------

MEAN_CASE_ID = "mean"  # the case_id of a cohort report's trailing aggregate row


def cohort_lines(cases: Iterable[tuple[str, MetricReport]]) -> list[str]:
    """JSON lines for a cohort: one object per case plus a trailing mean row."""
    lines = []
    sums = {"dice": 0.0, "precision": 0.0, "recall": 0.0, "nsd": 0.0, "hd95_mm": 0.0}
    count = 0
    for case_id, report in cases:
        rec = {"case_id": case_id, **report.as_dict()}
        lines.append(json.dumps(rec, sort_keys=True, allow_nan=False))
        for key in sums:
            sums[key] += rec[key]
        count += 1
    if count == 0:
        raise ValueError("cohort is empty")
    mean = {"case_id": MEAN_CASE_ID, **{k: v / count for k, v in sums.items()}}
    lines.append(json.dumps(mean, sort_keys=True, allow_nan=False))
    return lines


def write_cohort_report(path, cases: Iterable[tuple[str, MetricReport]]) -> None:
    """Write ``cohort_lines``; the file is created only once they are all built."""
    text = "\n".join(cohort_lines(cases)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
