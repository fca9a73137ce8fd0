import contextlib
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anatvox import grid, losses, volio
from anatvox.grid import Dims, VoxelGrid
from anatvox.volio import VolumeMeta, VolumeReader, write_volume
from anatvox.losses import (
    LossConfig,
    af_loss,
    combined_loss,
    cross_entropy_grad,
    cross_entropy_loss,
    loss_report,
    soft_dice_grad,
    soft_dice_loss,
)

from conftest import (
    ISO,
    af_loss_full,
    assert_read_once_by_leaf,
    bool_grid,
    combined_loss_full,
    cross_entropy_grad_full,
    cross_entropy_loss_full,
    make_grid,
    pairwise_leaves,
    peak_bytes,
    random_mask,
    scale_nifti,
    soft_dice_grad_full,
    soft_dice_loss_full,
)

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
    with pytest.raises(ValueError):
        LossConfig(ce_weight=float("nan"))


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


def _mask_of(kind, rng, shape):
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < 0.4


def _assert_matches_full_grid_oracle(y, p, o, cfg):
    # The scorer adds its chunk sums in numpy's own pairwise order, so it
    # reproduces the full-grid sums bit for bit, not just within 1e-12.
    assert soft_dice_loss(y, p, cfg) == soft_dice_loss_full(y, p, cfg)
    assert cross_entropy_loss(y, p, cfg) == cross_entropy_loss_full(y, p, cfg)
    assert combined_loss(y, p, cfg) == combined_loss_full(y, p, cfg)
    assert af_loss(y, p, o, cfg) == af_loss_full(y, p, o, cfg)
    assert np.array_equal(soft_dice_grad(y, p, cfg), soft_dice_grad_full(y, p, cfg))
    assert np.array_equal(cross_entropy_grad(y, p, cfg), cross_entropy_grad_full(y, p, cfg))


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
    dtype=st.sampled_from(["float32", "float64", "uint8"]),
    gt_kind=st.sampled_from(["random", "empty", "full"]),
    organ_kind=st.sampled_from(["random", "empty", "full"]),
    chunk=st.sampled_from([128, 200, 1 << 14]),
    seed=st.integers(0, 2**32 - 1),
)
def test_losses_match_the_full_grid_oracle(shape, dtype, gt_kind, organ_kind, chunk, seed):
    rng = np.random.default_rng(seed)
    if dtype == "uint8":
        pred = (rng.random(shape) < 0.5).astype(np.uint8)
    else:
        pred = rng.random(shape).astype(dtype)
        pred[rng.random(shape) < 0.2] = 0.0
        pred[rng.random(shape) < 0.2] = 1.0
    y = bool_grid(_mask_of(gt_kind, rng, shape))
    o = bool_grid(_mask_of(organ_kind, rng, shape))
    cfg = LossConfig(dice_weight=float(rng.uniform(0, 2)), ce_weight=float(rng.uniform(0, 2)))
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", chunk):  # several chunks on small grids
        _assert_matches_full_grid_oracle(y, VoxelGrid(pred, ISO), o, cfg)


def test_losses_match_the_full_grid_oracle_over_many_chunks(rng):
    shape = (21, 64, 97)  # ~8 chunks of the default size, of uneven length
    y = bool_grid(random_mask(rng, shape, 0.3))
    o = bool_grid(random_mask(rng, shape, 0.7))
    p = VoxelGrid(rng.random(shape).astype(np.float32), ISO)
    _assert_matches_full_grid_oracle(y, p, o, CFG)


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
    dtype=st.sampled_from(["float32", "float64", "uint8"]),
    gt_kind=st.sampled_from(["random", "empty", "full"]),
    organ_kind=st.sampled_from(["random", "empty", "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_loss_report_is_the_three_calls(shape, dtype, gt_kind, organ_kind, seed):
    rng = np.random.default_rng(seed)
    pred = rng.random(shape)
    p = VoxelGrid((pred < 0.5).astype(np.uint8) if dtype == "uint8" else pred.astype(dtype), ISO)
    y = bool_grid(_mask_of(gt_kind, rng, shape))
    o = bool_grid(_mask_of(organ_kind, rng, shape))
    cfg = LossConfig(dice_weight=float(rng.uniform(0, 2)), ce_weight=float(rng.uniform(0, 2)))
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", 128):  # several chunks on small grids
        report = loss_report(y, p, o, cfg)
        calls = {
            "dice_loss": soft_dice_loss(y, p, cfg),
            "ce_loss": cross_entropy_loss(y, p, cfg),
            "af_loss": af_loss(y, p, o, cfg),
        }
    assert {k: float.hex(v) for k, v in report.items()} == {k: float.hex(v) for k, v in calls.items()}


@pytest.mark.parametrize("dtype", ["float32", "uint8"])
def test_loss_report_reads_each_prediction_run_once(tmp_path, rng, dtype):
    shape = (5, 16, 27)  # leaves of uneven length
    y, o = (bool_grid(random_mask(rng, shape)) for _ in range(2))
    data = rng.random(shape)
    p = VoxelGrid((data < 0.5).astype(np.uint8) if dtype == "uint8" else data.astype(dtype), ISO)
    write_volume(p, VolumeMeta.for_grid(p), tmp_path / "pred.nii")
    with VolumeReader(tmp_path / "pred.nii") as src, mock.patch.object(grid, "_PAIRWISE_CHUNK", 128):
        with mock.patch.object(src, "read", wraps=src.read) as read, \
                mock.patch.object(y, "read", wraps=y.read) as read_y, mock.patch.object(o, "read", wraps=o.read) as read_o:
            report = loss_report(y, src, o, CFG)
        want = loss_report(y, p, o, CFG)
        for calls in (read, read_y, read_o):  # the prediction, gt and organ, each read once by leaf
            assert_read_once_by_leaf([c.args for c in calls.call_args_list], p.data.size)
    assert {k: float.hex(v) for k, v in report.items()} == {k: float.hex(v) for k, v in want.items()}


class _MaskReader(VolumeReader):
    """A reader whose runs are boolean masks, as the cli's mask streams read them."""

    def read(self, lo, hi):
        return super().read(lo, hi) != 0


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 16), st.integers(1, 27)),
       pred=st.sampled_from(["float32", "scaled int16"]), chunk=st.sampled_from([128, 200]),
       seed=st.integers(0, 2**32 - 1))
def test_loss_report_of_mask_readers_is_the_grids_bitwise(tmp_path, shape, pred, chunk, seed):
    rng = np.random.default_rng(seed)
    y, o = (bool_grid(random_mask(rng, shape)) for _ in range(2))
    for name, g in (("gt", y), ("organ", o)):
        write_volume(g, VolumeMeta.for_grid(g), tmp_path / f"{name}.nii")
    if pred == "float32":
        write_volume(VoxelGrid(rng.random(shape).astype(np.float32), ISO), VolumeMeta("float32"),
                     tmp_path / "pred.nii")
    else:  # stored 512..2560 read as stored / 2048 - 0.25, exactly [0, 1]
        write_volume(VoxelGrid(rng.integers(512, 2561, shape).astype(np.int16), ISO), VolumeMeta("int16"),
                     tmp_path / "pred.nii")
        scale_nifti(tmp_path / "pred.nii", 2.0**-11, -0.25)
    p, meta = volio.read_volume(tmp_path / "pred.nii")
    assert meta.datatype == "float32"
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", chunk):
        with _MaskReader(tmp_path / "gt.nii") as gt, _MaskReader(tmp_path / "organ.nii") as organ, \
                VolumeReader(tmp_path / "pred.nii") as src:
            got = loss_report(gt, src, organ, CFG)
        want = loss_report(y, p, o, CFG)
    assert {k: float.hex(v) for k, v in got.items()} == {k: float.hex(v) for k, v in want.items()}


def _leaf_blocks(rng, leaves, kinds, n) -> np.ndarray:
    """A flat mask of ``n`` voxels that is all False, all True or mixed on each leaf, as ``kinds`` says."""
    flat = np.zeros(n, dtype=bool)
    for (lo, hi), kind in zip(leaves, kinds):
        if kind == "full":
            flat[lo:hi] = True
        elif kind == "mixed":
            flat[lo:hi] = rng.random(hi - lo) < 0.5
            flat[lo], flat[hi - 1] = True, False  # mixed whenever the leaf holds two voxels
    return flat


_KIND_PAIRS = [(o, g) for o in ("empty", "full", "mixed") for g in ("empty", "full", "mixed")]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 16)),
       dtype=st.sampled_from(["float32", "float64", "uint8"]), chunk=st.sampled_from([128, 200]),
       readers=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_losses_of_whole_leaf_blocks_match_the_full_grid_oracle(tmp_path, shape, dtype, chunk, readers, seed):
    # Each leaf's organ and gt runs are each empty, full or mixed, so the scorer skips
    # some of their work; the first nine leaves take the nine (organ, gt) pairs. The
    # chunk is at least numpy's 128-element pairwise block, below which the full-grid
    # sum stops halving and the leaves' sums would no longer be its partial sums.
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", chunk):
        leaves = pairwise_leaves(n)
        picks = rng.integers(0, 9, len(leaves))
        picks[:9] = rng.permutation(9)[: len(leaves)]
        o_kinds, y_kinds = zip(*(_KIND_PAIRS[k] for k in picks))
        o = bool_grid(_leaf_blocks(rng, leaves, o_kinds, n).reshape(shape))
        y = bool_grid(_leaf_blocks(rng, leaves, y_kinds, n).reshape(shape))
        if dtype == "uint8":
            pred = (rng.random(shape) < 0.5).astype(np.uint8)
        else:
            pred = rng.random(shape).astype(dtype)
            for value, frac in ((0.0, 0.2), (1.0, 0.2), (-0.0, 0.1)):
                pred[rng.random(shape) < frac] = value
        p = VoxelGrid(pred, ISO)
        cfg = LossConfig(dice_weight=float(rng.uniform(0, 2)), ce_weight=float(rng.uniform(0, 2)))
        want = {"dice_loss": soft_dice_loss_full(y, p, cfg), "ce_loss": cross_entropy_loss_full(y, p, cfg),
                "af_loss": af_loss_full(y, p, o, cfg)}
        with contextlib.ExitStack() as stack:
            gt, pr, organ = y, p, o
            if readers:  # the masks as boolean-run readers, and the prediction too unless float64, which no volume holds
                for name, g in (("gt", y), ("organ", o)) + ((("pred", p),) if dtype != "float64" else ()):
                    write_volume(g, VolumeMeta.for_grid(g), tmp_path / f"{name}.nii")
                gt, organ = (stack.enter_context(_MaskReader(tmp_path / f"{name}.nii")) for name in ("gt", "organ"))
                if dtype != "float64":
                    pr = stack.enter_context(VolumeReader(tmp_path / "pred.nii"))
            got = {"dice_loss": soft_dice_loss(gt, pr, cfg), "ce_loss": cross_entropy_loss(gt, pr, cfg),
                   "af_loss": af_loss(gt, pr, organ, cfg)}
            report = loss_report(gt, pr, organ, cfg)
    for calls in (got, report):
        assert {k: float.hex(v) for k, v in calls.items()} == {k: float.hex(v) for k, v in want.items()}


def _one_leaf_each(rng, shape):
    """(gt, organ) of ``shape``: the organ is full on leaf 0, mixed on leaf 1 and empty on every other
    leaf, where the gt is empty too."""
    n = math.prod(shape)
    leaves = pairwise_leaves(n)
    organ = _leaf_blocks(rng, leaves, ["full", "mixed"], n)
    gt = _leaf_blocks(rng, leaves, ["mixed", "mixed"], n)
    return leaves, bool_grid(gt.reshape(shape)), bool_grid(organ.reshape(shape))


def test_leaves_whose_organ_and_gt_runs_are_empty_skip_their_log_pass(rng):
    shape = (4, 16, 27)  # 16 leaves of 104 or 112 voxels
    p = VoxelGrid(rng.random(shape), ISO)
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", 128):
        leaves, y, o = _one_leaf_each(rng, shape)
        with mock.patch.object(np, "log", wraps=np.log) as log:
            report = loss_report(y, p, o, CFG)
    # the plain entry logs every leaf; the focalized entry logs the full and the mixed
    # leaf and one all-zero run per length of the empty leaves
    lengths = {hi - lo for lo, hi in leaves[2:]}
    assert log.call_count == len(leaves) + 2 + len(lengths) < 2 * len(leaves)
    assert report["af_loss"] == af_loss_full(y, p, o, CFG)
    assert report["dice_loss"] == soft_dice_loss_full(y, p, CFG)
    assert report["ce_loss"] == cross_entropy_loss_full(y, p, CFG)


@pytest.mark.parametrize("fault,message", [("1.5", r"\[0, 1\]"), ("nan", r"\[0, 1\]"),
                                           ("uint8 organ run", "boolean mask"), ("uint8 gt run", "boolean mask")])
def test_a_leaf_whose_masks_are_empty_is_still_checked(rng, fault, message):
    shape = (4, 16, 27)
    p = VoxelGrid(rng.random(shape), ISO)
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", 128):
        leaves, y, o = _one_leaf_each(rng, shape)
        lo, hi = leaves[-1]
        assert not y.read(lo, hi).any() and not o.read(lo, hi).any()
        if fault in ("1.5", "nan"):
            p.data.reshape(-1)[hi - 1] = float(fault)
        else:
            src = o if fault == "uint8 organ run" else y
            read = src.read
            src.read = lambda a, b: read(a, b).view(np.uint8) if a == lo else read(a, b)
        for score in (loss_report, af_loss):  # with and without the unmasked entry
            with pytest.raises(ValueError, match=message):
                score(y, p, o, CFG)


def test_a_mask_reader_must_read_booleans(tmp_path, rng):
    y = bool_grid(random_mask(rng, (2, 3, 4)))
    labels = y.with_data(y.data.astype(np.uint8))
    write_volume(y, VolumeMeta.for_grid(y), tmp_path / "gt.nii")
    with VolumeReader(tmp_path / "gt.nii") as reader:  # reads the uint8 runs as they are stored
        for gt, organ in ((reader, y), (y, reader), (labels, y), (y, labels)):
            with pytest.raises(ValueError, match="boolean mask"):
                loss_report(gt, VoxelGrid(np.zeros((2, 3, 4)), ISO), organ, CFG)


def test_af_loss_allocates_less_than_one_float64_grid(rng):
    shape = (32, 128, 128)
    y = bool_grid(random_mask(rng, shape, 0.3))
    o = bool_grid(random_mask(rng, shape, 0.7))
    p = VoxelGrid(rng.random(shape, dtype=np.float32), ISO)
    _, peak = peak_bytes(af_loss, y, p, o, CFG)
    assert peak < p.data.size * 8


def test_scoring_frees_the_prediction_without_the_cycle_collector(rng):
    shape = (4, 64, 256)  # several pairwise runs
    y = bool_grid(random_mask(rng, shape, 0.3))
    p = VoxelGrid(rng.random(shape, dtype=np.float32), ISO)
    ref = weakref.ref(p.data)
    gc.disable()
    try:
        af_loss(y, p, y, CFG)
        del p
        assert ref() is None  # no reference cycle keeps the prediction alive after scoring
    finally:
        gc.enable()
