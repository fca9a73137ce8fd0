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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import maskgen, metrics, phantom, sampling, sslmask, volio
from .grid import VoxelGrid, extract_patch, to_bool
from .losses import LossConfig, af_loss, cross_entropy_loss, soft_dice_loss
from .morphology import elem_from_name


class UsageError(ValueError):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults for every stage; flags override config-file values."""

    organ: maskgen.OrganConfig = maskgen.OrganConfig()
    patch_size: tuple[int, int, int] = (16, 32, 32)
    sigma_is_stddev: bool = False
    lam: float = 0.33
    mu: float = 1.0
    noise_mean: float = 0.0
    noise_stddev: float = 1.0
    loss: LossConfig = LossConfig()
    nsd_tol_mm: float = 4.0
    hd_penalty_mm: float = 1000.0

    @classmethod
    def from_json(cls, obj: dict) -> "PipelineConfig":
        known = {
            "organ", "patch_size", "sigma_is_stddev", "lambda", "mu",
            "noise", "loss", "nsd_tol_mm", "hd_penalty_mm",
        }
        unknown = set(obj) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        if "organ" in obj:
            kwargs["organ"] = maskgen.OrganConfig.from_json(obj["organ"])
        if "patch_size" in obj:
            kwargs["patch_size"] = _parse_size(obj["patch_size"])
        if "sigma_is_stddev" in obj:
            kwargs["sigma_is_stddev"] = bool(obj["sigma_is_stddev"])
        if "lambda" in obj:
            kwargs["lam"] = float(obj["lambda"])
        if "mu" in obj:
            kwargs["mu"] = float(obj["mu"])
        if "noise" in obj:
            noise = obj["noise"]
            bad = set(noise) - {"mean", "stddev"}
            if bad:
                raise UsageError(f"unknown noise config keys: {sorted(bad)}")
            kwargs["noise_mean"] = float(noise.get("mean", 0.0))
            kwargs["noise_stddev"] = float(noise.get("stddev", 1.0))
        if "loss" in obj:
            loss = obj["loss"]
            bad = set(loss) - {"dice_eps", "ce_eps", "dice_weight", "ce_weight"}
            if bad:
                raise UsageError(f"unknown loss config keys: {sorted(bad)}")
            kwargs["loss"] = LossConfig(**{k: float(v) for k, v in loss.items()})
        for key in ("nsd_tol_mm", "hd_penalty_mm"):
            if key in obj:
                kwargs[key] = float(obj[key])
        return cls(**kwargs)

    def to_json(self) -> dict:
        return {
            "organ": self.organ.to_json(),
            "patch_size": list(self.patch_size),
            "sigma_is_stddev": self.sigma_is_stddev,
            "lambda": self.lam,
            "mu": self.mu,
            "noise": {"mean": self.noise_mean, "stddev": self.noise_stddev},
            "loss": {
                "dice_eps": self.loss.dice_eps,
                "ce_eps": self.loss.ce_eps,
                "dice_weight": self.loss.dice_weight,
                "ce_weight": self.loss.ce_weight,
            },
            "nsd_tol_mm": self.nsd_tol_mm,
            "hd_penalty_mm": self.hd_penalty_mm,
        }


def _parse_size(value) -> tuple[int, int, int]:
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value)
    if len(parts) != 3:
        raise UsageError(f"patch size needs 3 components, got {value!r}")
    try:
        size = tuple(int(p) for p in parts)
    except (TypeError, ValueError):
        raise UsageError(f"bad patch size {value!r}") from None
    if any(s < 1 for s in size):
        raise UsageError(f"patch size components must be >= 1, got {size}")
    return size


def _parse_labels(value: str) -> frozenset:
    try:
        labels = frozenset(int(p) for p in value.split(","))
    except ValueError:
        raise UsageError(f"bad label list {value!r}") from None
    if not labels:
        raise UsageError("label list must be nonempty")
    return labels


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _load_grid(path) -> VoxelGrid:
    grid, _ = volio.read_volume(path)
    return grid


def _load_mask(path) -> VoxelGrid:
    return to_bool(_load_grid(path))


def _load_probability(path) -> VoxelGrid:
    grid = _load_grid(path)
    return grid.with_data(grid.data.astype(np.float64))


def _write_mask(mask: VoxelGrid, path) -> None:
    meta = volio.VolumeMeta.for_grid(mask, "uint8", _fmt(path))
    volio.write_volume(mask, meta, path)


def _write_float(grid: VoxelGrid, path) -> None:
    out = grid.with_data(grid.data.astype(np.float32))
    meta = volio.VolumeMeta.for_grid(out, "float32", _fmt(path))
    volio.write_volume(out, meta, path)


def _fmt(path) -> str:
    return "nifti1" if Path(path).suffix == ".nii" else "rawjson"


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
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config {path}: {exc}") from None
        cfg = PipelineConfig.from_json(obj)

    organ_over = {}
    for attr, key in (
        ("set_ts", "set_ts"), ("set_word", "set_word"),
        ("dilate_times", "dilate_times"), ("elem", "elem"),
        ("r_out", "wall_r_out"), ("r_in", "wall_r_in"),
    ):
        val = getattr(args, attr, None)
        if val is not None:
            organ_over[key] = val
    if "elem" in organ_over:
        organ_over["elem"] = elem_from_name(organ_over["elem"])
    if organ_over:
        cfg = replace(cfg, organ=replace(cfg.organ, **organ_over))

    simple = {
        "patch_size": "patch_size", "lam": "lam", "mu": "mu",
        "noise_mean": "noise_mean", "noise_stddev": "noise_stddev",
        "nsd_tol_mm": "nsd_tol_mm", "hd_penalty_mm": "hd_penalty_mm",
    }
    for attr, key in simple.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg = replace(cfg, **{key: val})
    if getattr(args, "sigma_is_stddev", None):
        cfg = replace(cfg, sigma_is_stddev=True)
    loss_over = {}
    for attr in ("dice_eps", "ce_eps"):
        val = getattr(args, attr, None)
        if val is not None:
            loss_over[attr] = val
    if loss_over:
        cfg = replace(cfg, loss=replace(cfg.loss, **loss_over))
    return cfg


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
    spec = sampling.PatchSpec(cfg.patch_size, cfg.sigma_is_stddev)
    ooi = _load_mask(args.ooi)
    tumor = _load_mask(args.tumor)
    s_organ = sampling.psm_from_gain(sampling.gain_map(ooi, spec), cfg.mu)
    s_tumor = sampling.psm_from_gain(sampling.gain_map(tumor, spec), cfg.mu)
    final = sampling.combine_psm(s_organ, s_tumor, cfg.lam)
    _write_float(final.grid, args.out)
    return 0


def _cmd_sample(args, cfg: PipelineConfig) -> int:
    _require(args, "psm", "seed")
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
        _require(args, "image")
        image = _load_grid(args.image)
        spec = sampling.PatchSpec(cfg.patch_size, cfg.sigma_is_stddev)
        out_dir = Path(args.patch_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, c in enumerate(centers):
            patch = extract_patch(image, c, spec.size, pad=args.pad)
            _write_float(patch, out_dir / f"patch_{i:04d}.nii")
    return 0


def _cmd_ssl_mask(args, cfg: PipelineConfig) -> int:
    _require(args, "ct", "wall", "seed", "out")
    ct = _load_grid(args.ct)
    band = _load_mask(args.wall)
    noise = sslmask.NoiseSpec(cfg.noise_mean, cfg.noise_stddev, args.seed)
    masked = sslmask.mask_bowel_wall(ct, band, noise)
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


def _cmd_metrics(args, cfg: PipelineConfig) -> int:
    if args.cohort:
        _require(args, "out")
        cases = []
        for line in Path(args.cohort).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            cases.append((str(rec["case_id"]), (rec["gt"], rec["pred"])))
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
        spec = phantom.PhantomSpec.from_json(obj)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise UsageError(f"bad phantom spec {path}: {exc}") from None
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    ct, labels, tumor = phantom.gen_phantom(spec)
    _write_float(ct, args.out_ct)
    meta = volio.VolumeMeta.for_grid(labels, "uint8", _fmt(args.out_labels))
    volio.write_volume(labels, meta, args.out_labels)
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
    p.add_argument("--set-ts", dest="set_ts", type=_parse_labels)
    p.add_argument("--set-word", dest="set_word", type=_parse_labels)
    p.add_argument("--dilate-times", dest="dilate_times", type=int)
    p.add_argument("--elem", choices=("face6", "full26"))

    p = stage("wall", "bowel-wall band from an undilated OOI mask")
    p.add_argument("--ooi")
    p.add_argument("--out")
    p.add_argument("--r-out", dest="r_out", type=int)
    p.add_argument("--r-in", dest="r_in", type=int)
    p.add_argument("--elem", choices=("face6", "full26"))

    p = stage("psm", "combined sampling map from OOI and tumor masks")
    p.add_argument("--ooi")
    p.add_argument("--tumor")
    p.add_argument("--out")
    p.add_argument("--patch-size", dest="patch_size", type=_parse_size)
    p.add_argument("--mu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--sigma-is-stddev", dest="sigma_is_stddev", action="store_true")

    p = stage("sample", "draw seeded patch centers from a sampling map")
    p.add_argument("--psm")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--image", help="volume to cut patches from")
    p.add_argument("--patch-dir", dest="patch_dir", help="directory for patch volumes")
    p.add_argument("--pad", type=float, default=0.0)
    p.add_argument("--patch-size", dest="patch_size", type=_parse_size)

    p = stage("ssl-mask", "replace bowel-wall voxels with seeded noise")
    p.add_argument("--ct")
    p.add_argument("--wall")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--noise-mean", dest="noise_mean", type=float)
    p.add_argument("--noise-std", dest="noise_stddev", type=float)

    p = stage("loss", "dice / cross-entropy / focalized loss report")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--ooi")
    p.add_argument("--out")
    p.add_argument("--dice-eps", dest="dice_eps", type=float)
    p.add_argument("--ce-eps", dest="ce_eps", type=float)

    p = stage("metrics", "segmentation metric report for one case or a cohort")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--out")
    p.add_argument("--cohort", help="JSON-lines manifest of {case_id, gt, pred}")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--nsd-tol", dest="nsd_tol_mm", type=float)
    p.add_argument("--hd-penalty", dest="hd_penalty_mm", type=float)

    p = stage("phantom", "generate a synthetic phantom from a spec JSON")
    p.add_argument("--spec")
    p.add_argument("--seed", type=int, help="override the seed in the spec")
    p.add_argument("--out-ct", dest="out_ct")
    p.add_argument("--out-labels", dest="out_labels")
    p.add_argument("--out-tumor", dest="out_tumor")

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
