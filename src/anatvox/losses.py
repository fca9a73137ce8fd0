"""Supervised segmentation losses over soft predictions.

Single foreground class. The focalized variant zeroes the prediction outside
an organ mask before scoring, so prediction values outside the mask cannot
move the loss; ground truth is never masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, pairwise_sum, require_bool, require_same_geometry


@dataclass(frozen=True)
class LossConfig:
    dice_eps: float = 1e-5
    ce_eps: float = 1e-7
    dice_weight: float = 1.0
    ce_weight: float = 1.0

    def __post_init__(self):
        for name in ("dice_eps", "ce_eps"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-2):
                raise ValueError(f"{name} must be in (0, 1e-2], got {v}")
        for name in ("dice_weight", "ce_weight"):
            if not 0 <= getattr(self, name) < np.inf:  # written so that NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")


def _require_unit(p: np.ndarray) -> None:
    if not (p.min() >= 0 and p.max() <= 1):  # written so that NaN fails too
        raise ValueError("prediction values must lie in [0, 1]")


def _score(gt, pred, cfg: LossConfig, *organs):
    """[(num, den, ce)] per entry of ``organs``: soft Dice is 1 - num / den, ce the mean clamped CE.

    An entry is an organ mask to zero the prediction outside of, or None to
    score it as it is. ``gt``, ``pred`` and each organ are run sources, a
    grid or a ``volio.VolumeReader``, each read one run at a time; the masks'
    runs must be boolean. One pass reads the prediction in its stored dtype,
    checks that each run lies in [0, 1] and that each mask run is boolean,
    and only then does the work the run's masks leave open, with bitwise the
    same terms. A run whose gt is all False forms no P*Y: its sum is 0.0, as
    p >= 0. An entry whose organ and gt runs are both all False takes the
    terms of an all-zero run, computed once per run length by the same code.
    Any other entry widens the run to float64, zeroes it outside its organ
    and scores it. ``pairwise_sum`` splits the runs where numpy's pairwise
    summation does and visits them in ascending order, so every sum is
    bitwise the full-grid sum and each input is read once, front to back.
    """
    require_same_geometry(pred, gt, *(o for o in organs if o is not None))  # a reader's from its header
    zero_terms = {}  # run length -> the terms of an all-zero run against an all-False gt

    def run_terms(p, y, n_true):  # [sum(P*Y), sum(P), sum of the log clamped P of the true class]; clobbers p
        out = [np.sum(p * y) if n_true else 0.0, np.sum(p)]
        np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps, out=p)
        q = 1.0 - p
        if n_true:
            np.copyto(q, p, where=y)
        out.append(np.sum(np.log(q, out=q)))
        return out

    def sums(lo, hi):  # |Y|, then each entry's terms
        run = pred.read(lo, hi)
        _require_unit(run)
        y = gt.read(lo, hi)
        require_bool(y)
        masks = [None if o is None else o.read(lo, hi) for o in organs]
        require_bool(*(m for m in masks if m is not None))
        n_true = np.count_nonzero(y)
        out = [n_true]
        for mask in masks:
            if mask is not None and n_true == 0 and not np.any(mask):
                if run.size not in zero_terms:
                    zero_terms[run.size] = run_terms(np.zeros(run.size), y, 0)
                out += zero_terms[run.size]
                continue
            p = run.astype(np.float64)
            if mask is not None:
                p *= mask
            out += run_terms(p, y, n_true)
        return np.array(out)

    n_true, *terms = pairwise_sum(sums, 0, gt.size)  # counts below 2^53 add exactly in float64
    return [
        (float(2.0 * inter + cfg.dice_eps), float(total + n_true + cfg.dice_eps), float(-ll / gt.size))
        for inter, total, ll in np.reshape(terms, (-1, 3))
    ]


def _weighted(cfg: LossConfig, num: float, den: float, ce: float) -> float:
    """The Dice + CE training loss from ``_score``'s terms."""
    return cfg.dice_weight * (1.0 - num / den) + cfg.ce_weight * ce


def soft_dice_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """1 - (2 * sum(P*Y) + eps) / (sum(P) + sum(Y) + eps)."""
    num, den, _ = _score(gt, pred, cfg, None)[0]
    return 1.0 - num / den


def cross_entropy_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Mean binary cross-entropy with the prediction clamped away from {0, 1}."""
    return _score(gt, pred, cfg, None)[0][2]


def combined_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Weighted sum of soft Dice and cross-entropy (the plain training loss)."""
    return _weighted(cfg, *_score(gt, pred, cfg, None)[0])


def af_loss(
    gt: VoxelGrid, pred: VoxelGrid, organ: VoxelGrid, cfg: LossConfig = LossConfig()
) -> float:
    """Anatomy-focalized loss: the combined loss of the organ-masked prediction.

    Only the prediction is multiplied by the mask; ground truth outside the
    mask still counts, which penalizes any mask that misses true lesion.
    """
    return _weighted(cfg, *_score(gt, pred, cfg, organ)[0])


def loss_report(gt, pred, organ, cfg: LossConfig = LossConfig()) -> dict:
    """{dice_loss, ce_loss, af_loss} from one pass, bitwise equal to the three calls.

    Each input is a grid or a ``volio.VolumeReader`` (the masks' reading
    boolean runs), read one pairwise run at a time, so files are scored
    without being held whole.
    """
    (num, den, ce), masked = _score(gt, pred, cfg, None, organ)
    return {"dice_loss": 1.0 - num / den, "ce_loss": ce, "af_loss": _weighted(cfg, *masked)}


def soft_dice_grad(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Analytic d(soft_dice_loss)/dP, same shape as the prediction."""
    num, den, _ = _score(gt, pred, cfg, None)[0]
    return (num - 2.0 * gt.data * den) / (den * den)


def cross_entropy_grad(
    gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()
) -> np.ndarray:
    """Analytic d(cross_entropy_loss)/dP; zero where the clamp is active."""
    require_same_geometry(pred, gt)
    require_bool(gt.data)
    _require_unit(pred.data)
    p = pred.data.astype(np.float64, copy=False)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    g = np.where(gt.data, -1.0 / pc, 1.0 / (1.0 - pc)) / p.size
    active = (p > cfg.ce_eps) & (p < 1.0 - cfg.ce_eps)
    return np.where(active, g, 0.0)
