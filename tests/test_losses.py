import math

import numpy as np
import pytest

from anatvox.grid import Dims, VoxelGrid, make_grid
from anatvox.losses import (
    LossConfig,
    af_loss,
    combined_loss,
    cross_entropy_grad,
    cross_entropy_loss,
    soft_dice_grad,
    soft_dice_loss,
)

from conftest import ISO, bool_grid, random_mask

CFG = LossConfig()


def _pred(arr):
    return VoxelGrid(np.asarray(arr, dtype=np.float64), ISO)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(dice_eps=0.0)
    with pytest.raises(ValueError):
        LossConfig(ce_eps=0.1)
    with pytest.raises(ValueError):
        LossConfig(dice_weight=-1.0)


def test_soft_dice_perfect_prediction_is_zero(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.4))
    p = _pred(y.data.astype(np.float64))
    assert soft_dice_loss(y, p, CFG) == 0.0


def test_soft_dice_zero_prediction_formula(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.4))
    k = int(y.data.sum())
    assert k > 0
    p = _pred(np.zeros((4, 4, 4)))
    expected = 1.0 - CFG.dice_eps / (k + CFG.dice_eps)
    assert soft_dice_loss(y, p, CFG) == pytest.approx(expected, rel=1e-12)


def test_soft_dice_empty_empty_is_zero():
    y = make_grid(Dims(3, 3, 3), ISO, False)
    p = _pred(np.zeros((3, 3, 3)))
    assert soft_dice_loss(y, p, CFG) == 0.0


def test_soft_dice_rejects_out_of_range_prediction():
    y = make_grid(Dims(2, 2, 2), ISO, False)
    with pytest.raises(ValueError):
        soft_dice_loss(y, _pred(np.full((2, 2, 2), 1.5)), CFG)
    with pytest.raises(ValueError):
        soft_dice_loss(y, _pred(np.full((2, 2, 2), -0.1)), CFG)
    nan = np.full((2, 2, 2), 0.5)
    nan[1, 1, 1] = np.nan
    with pytest.raises(ValueError):
        soft_dice_loss(y, _pred(nan), CFG)


def test_cross_entropy_hard_perfect_hits_clamp_floor(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.5))
    p = _pred(y.data.astype(np.float64))
    assert cross_entropy_loss(y, p, CFG) == pytest.approx(-math.log(1 - CFG.ce_eps), rel=1e-9)


def test_cross_entropy_half_is_log_two(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.5))
    p = _pred(np.full((4, 4, 4), 0.5))
    assert cross_entropy_loss(y, p, CFG) == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_matches_scalar_sum(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.5))
    p = rng.uniform(0.0, 1.0, (4, 4, 4))
    total = 0.0
    for z in range(4):
        for yy in range(4):
            for x in range(4):
                pc = min(max(p[z, yy, x], CFG.ce_eps), 1 - CFG.ce_eps)
                t = 1.0 if y.data[z, yy, x] else 0.0
                total += -(t * math.log(pc) + (1 - t) * math.log(1 - pc))
    assert cross_entropy_loss(y, _pred(p), CFG) == pytest.approx(total / 64, rel=1e-12)


def test_af_loss_full_mask_reduces_to_plain_loss(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.4))
    p = _pred(rng.uniform(0, 1, (4, 4, 4)))
    ones = make_grid(Dims(4, 4, 4), ISO, True)
    assert af_loss(y, p, ones, CFG) == combined_loss(y, p, CFG)


def test_af_loss_ignores_prediction_outside_mask(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.3))
    o = bool_grid(random_mask(rng, (4, 4, 4), 0.6))
    p1 = rng.uniform(0, 1, (4, 4, 4))
    p2 = p1.copy()
    p2[~o.data] = rng.uniform(0, 1, int((~o.data).sum()))
    base = af_loss(y, _pred(p1), o, CFG)
    assert af_loss(y, _pred(p2), o, CFG) == base
    # and masking is idempotent at the value level
    masked = _pred(p1 * o.data)
    assert af_loss(y, masked, o, CFG) == base


def test_af_loss_hand_worked_two_cube():
    # one true voxel inside the mask with p=0.8; one voxel outside with p=0.9
    y = make_grid(Dims(2, 2, 2), ISO, False)
    y.data[0, 0, 0] = True
    o = make_grid(Dims(2, 2, 2), ISO, True)
    o.data[1, 1, 1] = False
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.8
    p[1, 1, 1] = 0.9
    got = af_loss(y, _pred(p), o, CFG)

    eps, ce_eps = CFG.dice_eps, CFG.ce_eps
    dice = 1.0 - (2 * 0.8 + eps) / (0.8 + 1.0 + eps)
    ce = -(math.log(0.8) + 7 * math.log(1 - ce_eps)) / 8
    assert got == pytest.approx(dice + ce, rel=1e-12)


def test_losses_nonnegative_and_dice_bounded(rng):
    for _ in range(20):
        y = bool_grid(random_mask(rng, (3, 3, 3), 0.5))
        p = _pred(rng.uniform(0, 1, (3, 3, 3)))
        d = soft_dice_loss(y, p, CFG)
        c = cross_entropy_loss(y, p, CFG)
        assert 0.0 <= d <= 1.0
        assert c >= 0.0


def test_af_loss_shape_mismatch():
    y = make_grid(Dims(2, 2, 2), ISO, False)
    p = _pred(np.zeros((2, 2, 2)))
    o = make_grid(Dims(2, 2, 3), ISO, True)
    with pytest.raises(ValueError):
        af_loss(y, p, o, CFG)


def _check_gradient(loss_fn, grad_fn, y, p, cfg, n_points, rng, rel=1e-5):
    analytic = grad_fn(y, _pred(p), cfg)
    flat = [tuple(idx) for idx in np.argwhere(np.ones_like(p, dtype=bool))]
    picks = rng.choice(len(flat), size=n_points, replace=False)
    h = 1e-6
    for k in picks:
        idx = flat[int(k)]
        hi, lo = p.copy(), p.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (loss_fn(y, _pred(hi), cfg) - loss_fn(y, _pred(lo), cfg)) / (2 * h)
        assert fd == pytest.approx(analytic[idx], rel=rel, abs=1e-12)


def test_finite_difference_gradients_match_analytic(rng):
    y = bool_grid(random_mask(rng, (4, 4, 4), 0.5))
    p = rng.uniform(0.05, 0.95, (4, 4, 4))
    _check_gradient(soft_dice_loss, soft_dice_grad, y, p, CFG, 10, rng)
    _check_gradient(cross_entropy_loss, cross_entropy_grad, y, p, CFG, 10, rng)


def test_loss_weights_apply():
    y = make_grid(Dims(2, 2, 2), ISO, False)
    y.data[0, 0, 0] = True
    p = _pred(np.full((2, 2, 2), 0.5))
    cfg = LossConfig(dice_weight=2.0, ce_weight=0.5)
    expected = 2.0 * soft_dice_loss(y, p, cfg) + 0.5 * cross_entropy_loss(y, p, cfg)
    assert combined_loss(y, p, cfg) == expected
