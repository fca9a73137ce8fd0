"""Batch command line wiring the pipeline stages together.

One subcommand per stage so intermediates stay inspectable:

    ooi       two multi-organ label volumes -> merged organ-of-interest mask
    wall      undilated OOI mask -> bowel-wall band
    psm       OOI + tumor masks -> combined sampling map
    sample    sampling map -> seeded patch-center draws (optional patches)
    ssl-mask  CT + wall band -> noise-masked CT
    loss      ground truth + soft prediction + OOI -> loss report JSON
    metrics   ground truth + prediction -> metric report JSON (or a cohort)
    phantom   spec JSON -> synthetic ct / labels / tumor volumes

Exit codes: 0 success, 2 usage or config error, 1 processing error. All
diagnostics go to stderr. Randomized subcommands require an explicit seed,
so rerunning any command with the same inputs reproduces its outputs byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import maskgen, metrics, phantom, sampling, sslmask, volio
from .grid import VoxelGrid, extract_patch, to_bool
from .jsoncheck import overlay_json
from .losses import LossConfig, af_loss, cross_entropy_loss, soft_dice_loss


class UsageError(ValueError):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults for every stage; flags override config-file values."""

    organ: maskgen.OrganConfig = maskgen.OrganConfig()
    patch: sampling.PatchSpec = sampling.PatchSpec((16, 32, 32))
    lam: float = 0.33
    mu: float = 1.0
    noise: sslmask.NoiseSpec = sslmask.NoiseSpec()  # ssl-mask sets the seed
    loss: LossConfig = LossConfig()
    nsd_tol_mm: float = 4.0
    hd_penalty_mm: float = 1000.0

    def __post_init__(self):
        if not 0 <= self.lam <= 1:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        for name in ("nsd_tol_mm", "hd_penalty_mm"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @classmethod
    def from_json(cls, obj) -> "PipelineConfig":
        """Config from a JSON object shaped like ``to_json``'s; absent keys keep their defaults."""
        j = overlay_json(obj, cls().to_json(), "config")
        return cls(
            organ=maskgen.OrganConfig.from_json(j["organ"]),
            patch=sampling.PatchSpec(tuple(j["patch_size"]), j["sigma_is_stddev"]),
            lam=float(j["lambda"]),
            mu=float(j["mu"]),
            noise=sslmask.NoiseSpec(float(j["noise"]["mean"]), float(j["noise"]["stddev"])),
            loss=LossConfig(**{k: float(v) for k, v in j["loss"].items()}),
            nsd_tol_mm=float(j["nsd_tol_mm"]),
            hd_penalty_mm=float(j["hd_penalty_mm"]),
        )

    def to_json(self) -> dict:
        return {
            "organ": self.organ.to_json(),
            "patch_size": list(self.patch.size),
            "sigma_is_stddev": self.patch.sigma_is_stddev,
            "lambda": self.lam,
            "mu": self.mu,
            "noise": {"mean": self.noise.mean, "stddev": self.noise.stddev},
            "loss": asdict(self.loss),
            "nsd_tol_mm": self.nsd_tol_mm,
            "hd_penalty_mm": self.hd_penalty_mm,
        }


def _int_list(value: str) -> list[int]:
    return [int(p) for p in value.split(",")]


# Every config flag, once: the config-JSON path it overrides, its argparse
# keywords and the stages that take it. The path is also the flag's dest.
_CONFIG_FLAGS = (
    ("--set-ts", "organ.set_ts", {"type": _int_list}, ("ooi",)),
    ("--set-word", "organ.set_word", {"type": _int_list}, ("ooi",)),
    ("--dilate-times", "organ.dilate_times", {"type": int}, ("ooi",)),
    ("--elem", "organ.elem", {"choices": ("face6", "full26")}, ("ooi", "wall")),
    ("--r-out", "organ.wall_r_out", {"type": int}, ("wall",)),
    ("--r-in", "organ.wall_r_in", {"type": int}, ("wall",)),
    ("--patch-size", "patch_size", {"type": _int_list}, ("psm", "sample")),
    ("--sigma-is-stddev", "sigma_is_stddev", {"action": "store_const", "const": True}, ("psm",)),
    ("--mu", "mu", {"type": float}, ("psm",)),
    ("--lambda", "lambda", {"type": float}, ("psm",)),
    ("--noise-mean", "noise.mean", {"type": float}, ("ssl-mask",)),
    ("--noise-std", "noise.stddev", {"type": float}, ("ssl-mask",)),
    ("--dice-eps", "loss.dice_eps", {"type": float}, ("loss",)),
    ("--ce-eps", "loss.ce_eps", {"type": float}, ("loss",)),
    ("--nsd-tol", "nsd_tol_mm", {"type": float}, ("metrics",)),
    ("--hd-penalty", "hd_penalty_mm", {"type": float}, ("metrics",)),
)


def _int_at_least(value: str, low: int) -> int:
    n = int(value)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return n


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _seed(value: str) -> int:
    return _int_at_least(value, 0)


def _load_grid(path) -> VoxelGrid:
    grid, _ = volio.read_volume(path)
    data = grid.data  # min and max, unlike isfinite(), allocate no full-size temporary
    if data.dtype.kind == "f" and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError(f"{path}: volume holds non-finite voxel values")
    return grid


def _load_mask(path) -> VoxelGrid:
    return to_bool(_load_grid(path))


def _load_probability(path) -> VoxelGrid:
    grid = _load_grid(path)
    return grid.with_data(grid.data.astype(np.float64))


def _write_mask(mask: VoxelGrid, path) -> None:
    volio.write_volume(mask, volio.VolumeMeta.for_grid(mask, "uint8"), path)


def _write_float(grid: VoxelGrid, path) -> None:
    out = grid.with_data(grid.data.astype(np.float32))
    volio.write_volume(out, volio.VolumeMeta.for_grid(out, "float32"), path)


def _emit_json(obj, out_path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _require(args, *names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"missing required arguments: {', '.join(missing)}")


def _effective_config(args) -> PipelineConfig:
    """The config file's JSON object with the given flags written over it, validated once."""
    obj = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config {path}: {exc}") from None
        if not isinstance(obj, dict):
            raise UsageError(f"config {path} must be a JSON object")
    for _, dest, _, _ in _CONFIG_FLAGS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        block, _, key = dest.rpartition(".")
        node = obj.setdefault(block, {}) if block else obj
        if isinstance(node, dict):  # else from_json names the bad block
            node[key] = value
    try:
        return PipelineConfig.from_json(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad config: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ooi(args, cfg: PipelineConfig) -> int:
    _require(args, "ts", "word", "out")
    ts = _load_grid(args.ts)
    word = _load_grid(args.word)
    ooi = maskgen.build_ooi(ts, word, cfg.organ)
    _write_mask(ooi, args.out)
    return 0


def _cmd_wall(args, cfg: PipelineConfig) -> int:
    _require(args, "ooi", "out")
    ooi = _load_mask(args.ooi)
    band = maskgen.bowel_wall(ooi, cfg.organ.elem, cfg.organ.wall_r_out, cfg.organ.wall_r_in)
    _write_mask(band, args.out)
    return 0


def _cmd_psm(args, cfg: PipelineConfig) -> int:
    _require(args, "ooi", "tumor", "out")
    ooi = _load_mask(args.ooi)
    tumor = _load_mask(args.tumor)
    s_organ = sampling.psm_from_gain(sampling.gain_map(ooi, cfg.patch), cfg.mu)
    s_tumor = sampling.psm_from_gain(sampling.gain_map(tumor, cfg.patch), cfg.mu)
    final = sampling.combine_psm(s_organ, s_tumor, cfg.lam)
    del s_organ, s_tumor  # so that only the final map is alive while it is written
    _write_float(final.grid, args.out)
    return 0


def _cmd_sample(args, cfg: PipelineConfig) -> int:
    _require(args, "psm", "seed")
    if args.patch_dir:
        _require(args, "image")  # before the centers file is written
    grid = _load_probability(args.psm)
    data = grid.data / np.sum(grid.data, dtype=np.float64)  # undo float32 quantization
    smap = sampling.SamplingMap(grid.with_data(data))
    centers = sampling.draw_centers(smap, args.count, args.seed)
    payload = {
        "count": args.count,
        "seed": args.seed,
        "centers": centers.tolist(),
    }
    _emit_json(payload, args.out)
    if args.patch_dir:
        image = _load_grid(args.image)
        out_dir = Path(args.patch_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(centers):
            patch = extract_patch(image, c, cfg.patch.size, pad=args.pad)
            _write_float(patch, out_dir / f"patch_{i:04d}.nii")
    return 0


def _cmd_ssl_mask(args, cfg: PipelineConfig) -> int:
    _require(args, "ct", "wall", "seed", "out")
    ct = _load_grid(args.ct)
    band = _load_mask(args.wall)
    masked = sslmask.mask_bowel_wall(ct, band, replace(cfg.noise, seed=args.seed))
    _write_float(masked, args.out)
    return 0


def _cmd_loss(args, cfg: PipelineConfig) -> int:
    _require(args, "gt", "pred", "ooi")
    gt = _load_mask(args.gt)
    pred = _load_probability(args.pred)
    ooi = _load_mask(args.ooi)
    report = {
        "dice_loss": soft_dice_loss(gt, pred, cfg.loss),
        "ce_loss": cross_entropy_loss(gt, pred, cfg.loss),
        "af_loss": af_loss(gt, pred, ooi, cfg.loss),
    }
    _emit_json(report, args.out)
    return 0


def _metric_case(paths, cfg: PipelineConfig) -> metrics.MetricReport:
    gt = _load_mask(paths[0])
    pred = _load_mask(paths[1])
    return metrics.seg_metrics(gt, pred, cfg.nsd_tol_mm, cfg.hd_penalty_mm)


def _read_manifest(path) -> list:
    """(case_id, (gt, pred)) per nonblank JSON line of a cohort manifest."""
    cases = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} line {n}: not valid JSON ({exc})") from None
        if not (isinstance(rec, dict) and "case_id" in rec
                and isinstance(rec.get("gt"), str) and isinstance(rec.get("pred"), str)):
            raise UsageError(f"{path} line {n}: need a JSON object with case_id, gt and pred paths")
        cases.append((str(rec["case_id"]), (rec["gt"], rec["pred"])))
    return cases


def _cmd_metrics(args, cfg: PipelineConfig) -> int:
    if args.cohort:
        _require(args, "out")
        cases = _read_manifest(args.cohort)
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(lambda c: _metric_case(c[1], cfg), cases))
        pairs = [(case_id, report) for (case_id, _), report in zip(cases, reports)]
        metrics.write_cohort_report(args.out, pairs)
        return 0
    _require(args, "gt", "pred")
    report = _metric_case((args.gt, args.pred), cfg)
    _emit_json(report.as_dict(), args.out)
    return 0


def _cmd_phantom(args, cfg: PipelineConfig) -> int:
    _require(args, "spec", "out_ct", "out_labels", "out_tumor")
    path = Path(args.spec)
    if not path.exists():
        raise FileNotFoundError(f"phantom spec not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        if args.seed is not None and isinstance(obj, dict):  # else from_json names the bad spec
            obj["seed"] = args.seed
        spec = phantom.PhantomSpec.from_json(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad phantom spec {path}: {exc}") from None
    ct, labels, tumor = phantom.gen_phantom(spec)
    _write_float(ct, args.out_ct)
    volio.write_volume(labels, volio.VolumeMeta.for_grid(labels, "uint8"), args.out_labels)
    _write_mask(tumor, args.out_tumor)
    return 0


_DISPATCH = {
    "ooi": _cmd_ooi,
    "wall": _cmd_wall,
    "psm": _cmd_psm,
    "sample": _cmd_sample,
    "ssl-mask": _cmd_ssl_mask,
    "loss": _cmd_loss,
    "metrics": _cmd_metrics,
    "phantom": _cmd_phantom,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anatvox", description="anatomy-guided volume pipeline stages"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def stage(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="pipeline config JSON; flags override it")
        p.add_argument(
            "--print-config", action="store_true",
            help="echo the effective config as JSON and exit",
        )
        return p

    p = stage("ooi", "merge two multi-organ label volumes into an OOI mask")
    p.add_argument("--ts")
    p.add_argument("--word")
    p.add_argument("--out")

    p = stage("wall", "bowel-wall band from an undilated OOI mask")
    p.add_argument("--ooi")
    p.add_argument("--out")

    p = stage("psm", "combined sampling map from OOI and tumor masks")
    p.add_argument("--ooi")
    p.add_argument("--tumor")
    p.add_argument("--out")

    p = stage("sample", "draw seeded patch centers from a sampling map")
    p.add_argument("--psm")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")
    p.add_argument("--image", help="volume to cut patches from")
    p.add_argument("--patch-dir", dest="patch_dir", help="directory for patch volumes")
    p.add_argument("--pad", type=float, default=0.0)

    p = stage("ssl-mask", "replace bowel-wall voxels with seeded noise")
    p.add_argument("--ct")
    p.add_argument("--wall")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")

    p = stage("loss", "dice / cross-entropy / focalized loss report")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--ooi")
    p.add_argument("--out")

    p = stage("metrics", "segmentation metric report for one case or a cohort")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--out")
    p.add_argument("--cohort", help="JSON-lines manifest of {case_id, gt, pred}")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = stage("phantom", "generate a synthetic phantom from a spec JSON")
    p.add_argument("--spec")
    p.add_argument("--seed", type=_seed, help="override the seed in the spec")
    p.add_argument("--out-ct", dest="out_ct")
    p.add_argument("--out-labels", dest="out_labels")
    p.add_argument("--out-tumor", dest="out_tumor")

    for flag, dest, kwargs, stages in _CONFIG_FLAGS:
        for name in stages:
            sub.choices[name].add_argument(flag, dest=dest, help=f"config {dest}", **kwargs)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _effective_config(args)
        if args.print_config:
            sys.stdout.write(json.dumps(cfg.to_json(), indent=2, sort_keys=True) + "\n")
            return 0
        return _DISPATCH[args.cmd](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
