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

def _envelope_1d(f: list, step: float) -> list:
    """Lower envelope of parabolas y(i) = f[q] + (step * (i - q))^2.

    Sites with f = inf never touch the envelope and are skipped, so lines
    with no finite entry come back all-inf.
    """
    n = len(f)
    w2 = step * step
    out = [_INF] * n
    v = [0] * n
    z = [0.0] * (n + 1)
    k = -1
    for q in range(n):
        fq = f[q]
        if fq == _INF:
            continue
        fq += w2 * q * q
        while k >= 0:
            p = v[k]
            s = (fq - (f[p] + w2 * p * p)) / (2.0 * w2 * (q - p))
            if s <= z[k]:
                k -= 1
            else:
                break
        if k < 0:
            k = 0
            v[0] = q
            z[0] = -_INF
        else:
            k += 1
            v[k] = q
            z[k] = s
        z[k + 1] = _INF
    if k < 0:
        return out
    k = 0
    for i in range(n):
        while z[k + 1] < i:
            k += 1
        d = (i - v[k]) * step
        out[i] = d * d + f[v[k]]
    return out


def _envelope_pass(sq: np.ndarray, axis: int, step: float) -> np.ndarray:
    moved = np.moveaxis(sq, axis, -1)
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(-1, shape[-1])
    for r in range(flat.shape[0]):
        row = flat[r]
        if np.all(np.isinf(row)):
            continue
        flat[r] = _envelope_1d(row.tolist(), step)
    return np.moveaxis(flat.reshape(shape), -1, axis)


def edt(mask: VoxelGrid) -> VoxelGrid:
    """Distance in mm from every voxel to the nearest true voxel.

    Exact under anisotropic spacing: a vectorized two-sweep pass along x
    gives the 1D distances, then parabolic lower envelopes along y and z
    fold in the remaining axes. An empty mask yields +inf everywhere (the
    one documented infinity in the package).
    """
    if mask.data.dtype != np.bool_:
        raise ValueError("edt requires a boolean grid")
    sz, sy, sx = mask.spacing.zyx
    d = np.where(mask.data, 0.0, _INF)
    nx = d.shape[2]
    for i in range(1, nx):
        np.minimum(d[:, :, i], d[:, :, i - 1] + sx, out=d[:, :, i])
    for i in range(nx - 2, -1, -1):
        np.minimum(d[:, :, i], d[:, :, i + 1] + sx, out=d[:, :, i])
    sq = d * d
    sq = _envelope_pass(sq, 1, sy)
    sq = _envelope_pass(sq, 0, sz)
    return mask.with_data(np.sqrt(sq))


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
    dist_to_gt = edt(surf_gt).data
    dist_to_pr = edt(surf_pr).data
    d_gt = dist_to_pr[surf_gt.data]
    d_pr = dist_to_gt[surf_pr.data]

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
