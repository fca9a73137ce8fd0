"""Supervised segmentation losses over soft predictions.

Single foreground class. The focalized variant zeroes the prediction outside
an organ mask before scoring, so prediction values outside the mask cannot
move the loss; ground truth is never masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VoxelGrid, require_same_geometry


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


def _as_float_pair(gt: VoxelGrid, pred: VoxelGrid):
    require_same_geometry(gt, pred)
    if gt.data.dtype != np.bool_:
        raise ValueError("ground truth must be a boolean grid")
    p = pred.data.astype(np.float64, copy=False)
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # written so that NaN fails too
        raise ValueError("prediction values must lie in [0, 1]")
    return gt.data.astype(np.float64), p


def soft_dice_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """1 - (2 * sum(P*Y) + eps) / (sum(P) + sum(Y) + eps)."""
    y, p = _as_float_pair(gt, pred)
    eps = cfg.dice_eps
    inter = float(np.sum(p * y))
    union = float(np.sum(p) + np.sum(y))
    return 1.0 - (2.0 * inter + eps) / (union + eps)


def cross_entropy_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Mean binary cross-entropy with the prediction clamped away from {0, 1}."""
    y, p = _as_float_pair(gt, pred)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    ll = y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)
    return float(-np.mean(ll))


def combined_loss(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> float:
    """Weighted sum of soft Dice and cross-entropy (the plain training loss)."""
    return cfg.dice_weight * soft_dice_loss(gt, pred, cfg) + cfg.ce_weight * cross_entropy_loss(
        gt, pred, cfg
    )


def af_loss(
    gt: VoxelGrid, pred: VoxelGrid, organ: VoxelGrid, cfg: LossConfig = LossConfig()
) -> float:
    """Anatomy-focalized loss: the combined loss of the organ-masked prediction.

    Only the prediction is multiplied by the mask; ground truth outside the
    mask still counts, which penalizes any mask that misses true lesion.
    """
    require_same_geometry(gt, pred, organ)
    if organ.data.dtype != np.bool_:
        raise ValueError("organ mask must be a boolean grid")
    masked = pred.with_data(pred.data * organ.data)
    return combined_loss(gt, masked, cfg)


def soft_dice_grad(gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Analytic d(soft_dice_loss)/dP, same shape as the prediction."""
    y, p = _as_float_pair(gt, pred)
    eps = cfg.dice_eps
    num = 2.0 * float(np.sum(p * y)) + eps
    den = float(np.sum(p) + np.sum(y)) + eps
    return (num - 2.0 * y * den) / (den * den)


def cross_entropy_grad(
    gt: VoxelGrid, pred: VoxelGrid, cfg: LossConfig = LossConfig()
) -> np.ndarray:
    """Analytic d(cross_entropy_loss)/dP; zero where the clamp is active."""
    y, p = _as_float_pair(gt, pred)
    pc = np.clip(p, cfg.ce_eps, 1.0 - cfg.ce_eps)
    g = (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size
    active = (p > cfg.ce_eps) & (p < 1.0 - cfg.ce_eps)
    return np.where(active, g, 0.0)
