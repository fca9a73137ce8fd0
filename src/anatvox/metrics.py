"""Segmentation evaluation: overlap scores and surface-distance metrics.

Surfaces are voxel sets (foreground voxels with a face-6 background or
out-of-bounds neighbor) and distances are voxel-center to voxel-center in
millimeters, computed with an exact anisotropic Euclidean distance
transform. Conventions for degenerate masks:

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

from .grid import VoxelGrid, bounding_box, require_same_geometry
from .morphology import FACE6, erode_mask

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


def edt(mask: VoxelGrid) -> VoxelGrid:
    """Distance in mm from every voxel to the nearest true voxel.

    Exact under anisotropic spacing: squared distances start at 0 on the
    mask and inf elsewhere, and one lower-envelope pass each along x, y and
    z folds in that axis. An empty mask yields +inf everywhere (the one
    documented infinity in the package).
    """
    if mask.data.dtype != np.bool_:
        raise ValueError("edt requires a boolean grid")
    sq = np.where(mask.data, 0.0, _INF)
    for axis in (2, 1, 0):
        _envelope_pass(sq, axis, mask.spacing.zyx[axis])
    return mask.with_data(np.sqrt(sq, out=sq))


def surface_voxels(mask: VoxelGrid) -> VoxelGrid:
    """True voxels with a face-6 neighbor that is background or out of bounds."""
    if mask.data.dtype != np.bool_:
        raise ValueError("surface_voxels requires a boolean grid")
    m = mask.data
    return mask.with_data(m & ~erode_mask(m, FACE6, 1))


def _nearest_rank_95(values: np.ndarray) -> float:
    m = values.size
    rank = math.ceil(0.95 * m)
    return float(np.sort(values)[rank - 1])


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
    if gt.data.dtype != np.bool_ or pred.data.dtype != np.bool_:
        raise ValueError("seg_metrics requires boolean grids")

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
    # each distance grid is dropped before the next EDT allocates its own
    d_pr = edt(surf_gt).data[surf_pr.data]
    d_gt = edt(surf_pr).data[surf_gt.data]

    nsd = (int(np.count_nonzero(d_pr <= nsd_tol_mm)) + int(np.count_nonzero(d_gt <= nsd_tol_mm))) / (
        d_pr.size + d_gt.size
    )
    hd95 = max(_nearest_rank_95(d_pr), _nearest_rank_95(d_gt))
    return MetricReport(dice, precision, recall, nsd, hd95)


# ---------------------------------------------------------------------------
# Cohort reporting
# ---------------------------------------------------------------------------

def cohort_lines(cases: Iterable[tuple[str, MetricReport]]) -> list[str]:
    """JSON lines for a cohort: one object per case plus a trailing mean row."""
    lines = []
    sums = {"dice": 0.0, "precision": 0.0, "recall": 0.0, "nsd": 0.0, "hd95_mm": 0.0}
    count = 0
    for case_id, report in cases:
        rec = {"case_id": case_id, **report.as_dict()}
        lines.append(json.dumps(rec, sort_keys=True))
        for key in sums:
            sums[key] += rec[key]
        count += 1
    if count == 0:
        raise ValueError("cohort is empty")
    mean = {"case_id": "mean", **{k: v / count for k, v in sums.items()}}
    lines.append(json.dumps(mean, sort_keys=True))
    return lines


def write_cohort_report(path, cases: Iterable[tuple[str, MetricReport]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(cohort_lines(cases)) + "\n")
