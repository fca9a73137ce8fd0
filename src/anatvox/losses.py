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


def _check(gt: VoxelGrid, pred: VoxelGrid, organ: VoxelGrid | None = None) -> None:
    masks = (gt,) if organ is None else (gt, organ)
    require_same_geometry(pred, *masks)
    require_bool(*(m.data for m in masks))
    if not (pred.data.min() >= 0 and pred.data.max() <= 1):  # written so that NaN fails too
        raise ValueError("prediction values must lie in [0, 1]")


def _score(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig, organ: VoxelGrid | None = None):
    """(num, den, ce): soft Dice is 1 - num / den, ce the mean clamped cross-entropy.

    Walks the prediction chunk by chunk in its stored dtype, widening only a
    chunk to float64 and, given an organ mask, zeroing it outside the mask.
    ``pairwise_sum`` splits the chunks where numpy's pairwise summation does,
    so every sum is bitwise the full-grid sum.
    """
    _check(gt, pred, organ)
    p_all, y_all = pred.data.reshape(-1), gt.data.reshape(-1)
    o_all = None if organ is None else organ.data.reshape(-1)

    def sums(lo, hi):  # [sum(P*Y), sum(P), sum of the log clamped P of the true class]
        p = p_all[lo:hi].astype(np.float64)
        if o_all is not None:
            p *= o_all[lo:hi]
        y = y_all[lo:hi]
        inter, total = np.sum(p * y), np.sum(p)
        np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps, out=p)
        q = 1.0 - p
        np.copyto(q, p, where=y)
        return np.array([inter, total, np.sum(np.log(q, out=q))])

    inter, total, ll = pairwise_sum(sums, 0, p_all.size)
    num = 2.0 * inter + cfg.dice_eps
    den = total + np.count_nonzero(y_all) + cfg.dice_eps
    return float(num), float(den), float(-ll / p_all.size)


def _weighted(cfg: LossConfig, num: float, den: float, ce: float) -> float:
    """The Dice + CE training loss from ``_score``'s terms."""
    return cfg.dice_weight * (1.0 - num / den) + cfg.ce_weight * ce


def soft_dice_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """1 - (2 * sum(P*Y) + eps) / (sum(P) + sum(Y) + eps)."""
    num, den, _ = _score(gt, pred, cfg)
    return 1.0 - num / den


def cross_entropy_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Mean binary cross-entropy with the prediction clamped away from {0, 1}."""
    return _score(gt, pred, cfg)[2]


def combined_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Weighted sum of soft Dice and cross-entropy (the plain training loss)."""
    return _weighted(cfg, *_score(gt, pred, cfg))


def af_loss(
    gt: VoxelGrid, pred: VoxelGrid, organ: VoxelGrid, cfg: LossConfig = LossConfig()
) -> float:
    """Anatomy-focalized loss: the combined loss of the organ-masked prediction.

    Only the prediction is multiplied by the mask; ground truth outside the
    mask still counts, which penalizes any mask that misses true lesion.
    """
    return _weighted(cfg, *_score(gt, pred, cfg, organ))


def loss_report(
    gt: VoxelGrid, pred: VoxelGrid, organ: VoxelGrid, cfg: LossConfig = LossConfig()
) -> dict:
    """{dice_loss, ce_loss, af_loss} from two passes, bitwise equal to the three calls."""
    num, den, ce = _score(gt, pred, cfg)
    return {
        "dice_loss": 1.0 - num / den,
        "ce_loss": ce,
        "af_loss": af_loss(gt, pred, organ, cfg),
    }


def soft_dice_grad(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Analytic d(soft_dice_loss)/dP, same shape as the prediction."""
    num, den, _ = _score(gt, pred, cfg)
    return (num - 2.0 * gt.data * den) / (den * den)


def cross_entropy_grad(
    gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()
) -> np.ndarray:
    """Analytic d(cross_entropy_loss)/dP; zero where the clamp is active."""
    _check(gt, pred)
    p = pred.data.astype(np.float64, copy=False)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    g = np.where(gt.data, -1.0 / pc, 1.0 / (1.0 - pc)) / p.size
    active = (p > cfg.ce_eps) & (p < 1.0 - cfg.ce_eps)
    return np.where(active, g, 0.0)
