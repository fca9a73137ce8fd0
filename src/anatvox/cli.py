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
import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import starmap
from pathlib import Path

import numpy as np

from . import maskgen, metrics, phantom, sampling, sslmask, volio
from .grid import VoxelGrid, extract_patch, hits_box, pad_value, pasted_run, require_same_geometry
from .jsoncheck import overlay_json
from .losses import LossConfig, loss_report


class UsageError(ValueError):
    """Bad flag or config value; maps to exit code 2."""


@dataclass(frozen=True)
class PipelineConfig:
    """Defaults for every stage; flags override config-file values."""

    organ: maskgen.OrganConfig = maskgen.OrganConfig()
    patch: sampling.PatchSpec = sampling.PatchSpec((16, 32, 32))
    lam: float = 0.33
    mu: float = 1.0
    noise: sslmask.NoiseSpec = sslmask.NoiseSpec()
    loss: LossConfig = LossConfig()
    nsd_tol_mm: float = 4.0
    hd_penalty_mm: float = 1000.0

    def __post_init__(self):
        sampling.require_lambda(self.lam)
        sampling.require_mu(self.mu)
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


def _finite_float(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return x


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _seed(value: str) -> int:
    return _int_at_least(value, 0)


def _require_finite(data: np.ndarray, path) -> None:
    # min and max, unlike isfinite(), allocate no full-size temporary
    if data.dtype.kind == "f" and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError(f"{path}: volume holds non-finite voxel values")


class _Stream(volio.VolumeReader):
    """A volume read run by run, each run checked for non-finite voxels."""

    def read(self, lo: int, hi: int) -> np.ndarray:
        run = super().read(lo, hi)
        _require_finite(run, self.path)
        return run


class _ImageStream(_Stream):
    """A ``_Stream`` of an image written out as float32, each run refused if float32 would round a voxel of it."""

    def read(self, lo: int, hi: int) -> np.ndarray:
        run = super().read(lo, hi)
        # uint8 and int16 always fit, and so does an int32 of magnitude at most 2**24, which min and max settle
        if run.dtype == np.int32 and run.size and not (-(1 << 24) <= run.min() and run.max() <= 1 << 24) \
                and not np.array_equal(run.astype(np.float32), run):  # compared as float64, exactly
            raise ValueError(f"{self.path}: int32 voxel values that float32 would round")
        return run


class _MaskStream(_Stream):
    """A ``_Stream`` whose runs come back as boolean masks of their nonzero voxels."""

    def read(self, lo: int, hi: int) -> np.ndarray:
        return super().read(lo, hi) != 0


def _read_planes(src, a: int, b: int) -> np.ndarray:
    """Planes [a, b) of a run source as a (b - a, ny, nx) array."""
    ny, nx = src.shape[1:]
    return src.read(a * ny * nx, b * ny * nx).reshape(b - a, ny, nx)


def _write_by_slab(path, datatype: str, kernel, halo: int, *srcs: _Stream) -> None:
    """Write ``kernel`` of the sources' grids as a ``datatype`` volume, z slab by z slab.

    The sources must share one geometry. Each slab is read with ``halo`` more
    planes on both sides, clipped to the grid, and only its own planes of the
    kernel's output are written. That equals the kernel on the whole grid
    when the kernel is at most ``halo`` morphology steps: a step moves
    information at most one plane in z, and an erosion's cleared edge planes
    spoil at most one more plane per step, so only the halo is wrong. A halo
    of nz or more makes the slab the whole grid. A kernel that draws from a
    generator takes a halo of 0, so that it sees each voxel once, in order.
    """
    require_same_geometry(*srcs)
    shape, spacing = srcs[0].shape, srcs[0].spacing
    halo = min(halo, shape[0])

    def slab(z0, z1):  # a function, so that its inputs are freed before the next slab is read
        a, b = max(z0 - halo, 0), min(z1 + halo, shape[0])
        return [kernel(*[VoxelGrid(_read_planes(src, a, b), spacing) for src in srcs]).data[z0 - a : z1 - a]]

    volio.write_slabs([(path, volio.VolumeMeta(datatype))], shape, spacing, starmap(slab, volio.z_slabs(shape, halo)))


def _emit_json(obj, out_path) -> None:
    _emit_text([json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"], out_path)


def _emit_text(chunks, out_path) -> None:
    """Write the strings of ``chunks`` in turn to ``out_path``, or to stdout without one."""
    with open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)


# One center as json.dumps(indent=2) writes it inside the "centers" list.
_CENTER_ROW = "    [\n      %d,\n      %d,\n      %d\n    ]"
_CENTER_CHUNK = 1 << 12  # rows formatted at once, so the text is never held whole


def _centers_json(count: int, seed: int, centers: np.ndarray):
    """The text ``_emit_json`` writes for {count, seed, centers}, byte for byte, in chunks of rows.

    ``json.dumps(indent=2)`` runs the pure-Python encoder, which is slow on
    many rows; one ``%`` template per center writes the same text.
    """
    yield '{\n  "centers": [\n'
    for lo in range(0, len(centers), _CENTER_CHUNK):
        rows = centers[lo : lo + _CENTER_CHUNK]
        yield (",\n" if lo else "") + ",\n".join([_CENTER_ROW] * len(rows)) % tuple(rows.ravel().tolist())
    yield '\n  ],\n  "count": %d,\n  "seed": %d\n}\n' % (count, seed)


def _parse_json(data: bytes, where: str):
    """``data`` as JSON; bad UTF-8, bad JSON or too deep nesting is a UsageError naming ``where``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{where}: not valid JSON ({exc})") from None


def _require(args, *names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"missing required arguments: {', '.join(missing)}")


def _effective_config(args) -> PipelineConfig:
    """The config file's JSON object with the given flags written over it, validated once."""
    obj = {}
    if args.config:
        try:
            data = Path(args.config).read_bytes()
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        obj = _parse_json(data, f"config {args.config}")
        if not isinstance(obj, dict):
            raise UsageError(f"config {args.config} must be a JSON object")
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
    with _Stream(args.ts) as ts, _Stream(args.word) as word:
        _write_by_slab(args.out, "uint8", lambda t, w: maskgen.build_ooi(t, w, cfg.organ),
                       cfg.organ.dilate_times, ts, word)
    return 0


def _cmd_wall(args, cfg: PipelineConfig) -> int:
    _require(args, "ooi", "out")
    o = cfg.organ
    with _MaskStream(args.ooi) as ooi:
        _write_by_slab(args.out, "uint8",
                       lambda m: maskgen.bowel_wall(m, o.elem, o.wall_r_out, o.wall_r_in),
                       max(o.wall_r_out, o.wall_r_in), ooi)
    return 0


def _read_union_box(srcs, grow=(0, 0, 0)):
    """(``bounding_box`` of the union of the mask sources grown by ``grow``, each source's voxels in that box).

    The sources are ``_MaskStream``s of one geometry; the first one's runs,
    which it owns, take the union in place. One pass of z slabs gathers the
    planes across each axis that hold the union, checking every run as it is
    read; then only the box's z planes are read again and cropped. An empty
    union gives an empty box, of three empty slices.
    """
    require_same_geometry(*srcs)
    shape = srcs[0].shape
    hits = [np.zeros(n, dtype=bool) for n in shape]  # the planes across each axis that hold the union
    for z0, z1 in volio.z_slabs(shape):
        union = _read_planes(srcs[0], z0, z1)
        for src in srcs[1:]:
            union |= _read_planes(src, z0, z1)
        hits[0][z0:z1] = union.any(axis=(1, 2))
        hits[1] |= union.any(axis=(0, 2))
        hits[2] |= union.any(axis=(0, 1))
    del union  # before the box is read
    bz, by, bx = box = hits_box(hits, grow) or (slice(0, 0),) * 3
    crops = [np.empty([sl.stop - sl.start for sl in box], dtype=bool) for _ in srcs]
    for z0, z1 in volio.z_slabs(shape, lo=bz.start, hi=bz.stop):
        for src, crop in zip(srcs, crops):
            crop[z0 - bz.start : z1 - bz.start] = _read_planes(src, z0, z1)[:, by, bx]
    return box, crops


def _cmd_psm(args, cfg: PipelineConfig) -> int:
    _require(args, "ooi", "tumor", "out")
    with _MaskStream(args.ooi) as ooi, _MaskStream(args.tumor) as tumor:
        box, crops = _read_union_box((ooi, tumor), cfg.patch.radii)
        s, c = sampling.box_psm(*crops, ooi.size, cfg.patch, cfg.mu, cfg.lam)
        del crops  # before the map is written
        plane = math.prod(ooi.shape[1:])

        def slab(z0, z1):  # the constant, with the box's planes of the slab pasted in
            return [pasted_run(ooi.shape, box, s, c, z0 * plane, z1 * plane, np.float32)]

        volio.write_slabs([(args.out, volio.VolumeMeta("float32"))], ooi.shape, ooi.spacing,
                          starmap(slab, volio.z_slabs(ooi.shape)))
    return 0


def _swept_patches(image, centers: np.ndarray, size, pad):
    """(i, ``extract_patch`` of the image around ``centers[i]``) for every center, reading the image by z slab.

    The centers are taken in order of z, a stable sort. The planes
    [max(z0 - rz, 0), min(z1 - 1 - rz + dz, nz)) hold every plane inside the
    grid of each patch (dz planes, rz = dz // 2 of them before its center)
    whose center lies in [z0, z1), so the patch cut from that slab, its
    center shifted by the slab's first plane, is padded as on the whole image.
    """
    nz, (dz, rz) = image.shape[0], (size[0], size[0] // 2)
    slabs = volio.z_slabs(image.shape)
    order = np.argsort(centers[:, 0], kind="stable")
    bounds = np.searchsorted(centers[order, 0], [z0 for z0, _ in slabs] + [nz])
    for (z0, z1), lo, hi in zip(slabs, bounds, bounds[1:]):
        if lo == hi:
            continue
        a, b = max(z0 - rz, 0), min(z1 - 1 - rz + dz, nz)
        slab = VoxelGrid(_read_planes(image, a, b), image.spacing)
        for i in order[lo:hi]:
            z, y, x = centers[i]
            yield i, extract_patch(slab, (z - a, y, x), size, pad=pad)
        del slab  # before the next slab is read


def _cmd_sample(args, cfg: PipelineConfig) -> int:
    _require(args, "psm", "seed")
    if args.patch_dir:
        _require(args, "image")  # before anything is written
    elif args.image is not None or args.pad is not None:
        raise UsageError("--image and --pad are read only to cut patches into --patch-dir")
    pad = 0.0 if args.pad is None else args.pad
    with _Stream(args.psm) as psm:
        try:
            centers = sampling.draw_centers(psm, args.count, args.seed)
        except ValueError as exc:
            if str(psm.path) in str(exc):  # a run that could not be read names the map already
                raise
            raise ValueError(f"sampling from {args.psm}: {exc}") from None
        shape = psm.shape
    if args.patch_dir:
        with _ImageStream(args.image) as image:  # every check on the image comes before the first write
            if image.shape != shape:
                raise ValueError(f"{args.image}: shape {image.shape} is not the map's {shape}")
            for dtype in (volio.DATATYPES[image.meta.datatype][1], np.float32):  # the image's and the patches'
                pad_value(pad, dtype)
            out_dir = Path(args.patch_dir)  # its nearest existing ancestor must be a directory
            if not next(p for p in (out_dir, *out_dir.parents) if p.exists()).is_dir():
                raise ValueError(f"{out_dir}: --patch-dir is not a directory and cannot be made one")
            if image.meta.datatype in ("float32", "int32"):  # an unscaled uint8 or int16 image is finite and fits
                for lo in range(0, image.size, volio.SLAB_VOXELS):
                    image.read(lo, min(lo + volio.SLAB_VOXELS, image.size))  # each run is checked as it is read
            out_dir.mkdir(parents=True, exist_ok=True)
            for i, patch in _swept_patches(image, centers, cfg.patch.size, pad):
                volio.write_volume(patch, volio.VolumeMeta("float32"), out_dir / f"patch_{i:04d}.nii")
    _emit_text(_centers_json(args.count, args.seed, centers), args.out)  # after the sweep, so --out may name the image
    return 0


def _cmd_ssl_mask(args, cfg: PipelineConfig) -> int:
    _require(args, "ct", "wall", "seed", "out")
    rng = np.random.default_rng(args.seed)

    def masked(ct, band):  # a CT slab as float32, its band voxels filled with the next draws
        out = ct.data.astype(np.float32, copy=False)
        sslmask.fill_band(out, band.data, rng, cfg.noise)
        return ct.with_data(out)

    with _ImageStream(args.ct) as ct, _MaskStream(args.wall) as band:
        _write_by_slab(args.out, "float32", masked, 0, ct, band)
    return 0


def _cmd_loss(args, cfg: PipelineConfig) -> int:
    _require(args, "gt", "pred", "ooi")
    # every volume is scored slab by slab, never held whole
    with _MaskStream(args.gt) as gt, _Stream(args.pred) as pred, _MaskStream(args.ooi) as ooi:
        report = loss_report(gt, pred, ooi, cfg.loss)
    _emit_json(report, args.out)
    return 0


def _metric_case(paths, cfg: PipelineConfig) -> metrics.MetricReport:
    """``seg_metrics`` of two mask files, handed only the box of gt | pred: off it both are background."""
    with _MaskStream(paths[0]) as gt, _MaskStream(paths[1]) as pred:
        _, crops = _read_union_box((gt, pred))
    return metrics.seg_metrics(*(VoxelGrid(crop, gt.spacing) for crop in crops), cfg.nsd_tol_mm, cfg.hd_penalty_mm)


def _read_manifest(path) -> list:
    """(where, case_id, (gt, pred)) per nonblank JSON line of a cohort manifest; ``where`` is "<path> line N"."""
    cases, seen = [], {}  # case_id -> the line that named it
    for n, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path} line {n}"
        rec = _parse_json(line, where)
        if not (isinstance(rec, dict) and "case_id" in rec
                and isinstance(rec.get("gt"), str) and isinstance(rec.get("pred"), str)):
            raise UsageError(f"{where}: need a JSON object with case_id, gt and pred paths")
        case_id = str(rec["case_id"])
        if case_id == metrics.MEAN_CASE_ID:
            raise UsageError(f"{where}: case_id {case_id!r} is the name of the report's aggregate row")
        if case_id in seen:  # the report names rows by str(case_id), so 1 and "1" collide too
            raise UsageError(f"{where}: case_id {case_id!r} repeats line {seen[case_id]}")
        seen[case_id] = n
        cases.append((where, case_id, (rec["gt"], rec["pred"])))
    return cases


def _cohort_case(case, cfg: PipelineConfig) -> metrics.MetricReport:
    """``_metric_case`` for one manifest case, whose read or geometry error names its line and case."""
    where, case_id, paths = case
    try:
        return _metric_case(paths, cfg)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"{where} ({case_id}): {exc}") from None


def _cmd_metrics(args, cfg: PipelineConfig) -> int:
    if args.cohort:
        if args.gt is not None or args.pred is not None:
            raise UsageError("--cohort takes its cases from the manifest, not from --gt or --pred")
        _require(args, "out")
        cases = _read_manifest(args.cohort)
        with ThreadPoolExecutor(max_workers=args.jobs or 1) as pool:
            # map yields in manifest order, so the first failing case is the one reported
            reports = list(pool.map(lambda c: _cohort_case(c, cfg), cases))
        pairs = [(case_id, report) for (_, case_id, _), report in zip(cases, reports)]
        metrics.write_cohort_report(args.out, pairs)
        return 0
    _require(args, "gt", "pred")
    if args.jobs is not None:
        raise UsageError("--jobs sets the threads that score a --cohort's cases")
    report = _metric_case((args.gt, args.pred), cfg)
    _emit_json(report.as_dict(), args.out)
    return 0


def _cmd_phantom(args, cfg: PipelineConfig) -> int:
    _require(args, "spec", "out_ct", "out_labels", "out_tumor")
    obj = _parse_json(Path(args.spec).read_bytes(), f"bad phantom spec {args.spec}")
    if args.seed is not None and isinstance(obj, dict):  # else from_json names the bad spec
        obj["seed"] = args.seed
    try:
        spec = phantom.PhantomSpec.from_json(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad phantom spec {args.spec}: {exc}") from None
    outputs = [(path, volio.VolumeMeta(datatype)) for path, datatype in
               ((args.out_ct, "float32"), (args.out_labels, "uint8"), (args.out_tumor, "uint8"))]
    slabs = (phantom.phantom_slab(spec, z0, z1) for z0, z1 in volio.z_slabs(spec.dims.shape))
    volio.write_slabs(outputs, spec.dims.shape, spec.spacing, slabs)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anatvox", description="anatomy-guided volume pipeline stages"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def stage(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="pipeline config JSON; flags override it")
        p.add_argument(
            "--print-config", action="store_true",
            help="echo the effective config as JSON and exit",
        )
        return p

    p = stage("ooi", _cmd_ooi, "merge two multi-organ label volumes into an OOI mask")
    p.add_argument("--ts")
    p.add_argument("--word")
    p.add_argument("--out")

    p = stage("wall", _cmd_wall, "bowel-wall band from an undilated OOI mask")
    p.add_argument("--ooi")
    p.add_argument("--out")

    p = stage("psm", _cmd_psm, "combined sampling map from OOI and tumor masks")
    p.add_argument("--ooi")
    p.add_argument("--tumor")
    p.add_argument("--out")

    p = stage("sample", _cmd_sample, "draw seeded patch centers from a sampling map")
    p.add_argument("--psm")
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")
    p.add_argument("--image", help="volume to cut patches from")
    p.add_argument("--patch-dir", dest="patch_dir", help="directory for patch volumes")
    p.add_argument("--pad", type=_finite_float, help="value of patch voxels outside the image (default 0)")

    p = stage("ssl-mask", _cmd_ssl_mask, "replace bowel-wall voxels with seeded noise")
    p.add_argument("--ct")
    p.add_argument("--wall")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--out")

    p = stage("loss", _cmd_loss, "dice / cross-entropy / focalized loss report")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--ooi")
    p.add_argument("--out")

    p = stage("metrics", _cmd_metrics, "segmentation metric report for one case or a cohort")
    p.add_argument("--gt")
    p.add_argument("--pred")
    p.add_argument("--out")
    p.add_argument("--cohort", help="JSON-lines manifest of {case_id, gt, pred}")
    p.add_argument("--jobs", type=_positive_int, help="threads that score a --cohort's cases (default 1)")

    p = stage("phantom", _cmd_phantom, "generate a synthetic phantom from a spec JSON")
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
        return args.handler(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
