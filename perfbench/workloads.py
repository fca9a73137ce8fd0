"""The benchmark's workloads: seeded inputs, one iteration's CLI stages, checks.

A workload writes its inputs under ``<work>/in`` (``setup``), names the
stages of one iteration with every output under ``<work>/out``
(``stages``), derives reference results once with ``oracle``
(``build_references``), and lists the checks an iteration's outputs must
pass (``checks``). Input generation uses anatvox's own phantom and writer,
since that is the data the program is meant for; references never do.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from oracle import expect, expect_report, expect_volume, read_nii

JOBS = 2  # cores of the reference machine; cohort's second pass uses this many threads


@dataclass
class Stage:
    name: str  # the cli subcommand, as in the metric names (cli.<name>.s)
    argv: list
    read_vox: int  # voxels of the input volumes the stage reads
    counts: dict = field(default_factory=dict)  # recorded on the traced stage span


def _sector(shape, lo_deg: float, hi_deg: float) -> np.ndarray:
    """Voxels whose in-plane angle about the grid centre lies in [lo, hi)."""
    nz, ny, nx = shape
    y = np.arange(ny)[:, None] - (ny - 1) / 2
    x = np.arange(nx)[None, :] - (nx - 1) / 2
    phi = np.degrees(np.arctan2(y, x))
    return np.broadcast_to(((phi >= lo_deg) & (phi < hi_deg))[None], shape)


def _opened(mask: np.ndarray) -> np.ndarray:
    return oracle.dilate(oracle.erode(mask, 1), 1)


class Workload:
    name = ""
    # run_s and setup_s on clock's interpreter-speed clock rather than raw
    # wall time: chosen per workload by which of the two spread less over
    # runs of the same code on the reference host (see clock.py)
    on_clock = True

    def __init__(self, work: Path, seed: int, size: str = "full"):
        self.work = Path(work).resolve()
        self.inp = self.work / "in"
        self.out = self.work / "out"
        self.seed = seed
        self.size = size
        self.gen_phantom_s: list[float] = []

    def _seed(self, tag: int) -> int:
        return int(np.random.default_rng([self.seed, tag]).integers(2**31))

    def _rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def _phantom(self, **spec):
        from anatvox import phantom

        start = time.perf_counter()
        out = phantom.gen_phantom(phantom.PhantomSpec.from_json(spec))
        self.gen_phantom_s.append(time.perf_counter() - start)
        return out

    def _write(self, array: np.ndarray, spacing, name: str, datatype: str) -> Path:
        from anatvox import volio
        from anatvox.grid import Spacing, VoxelGrid

        grid = VoxelGrid(array, Spacing(*spacing))
        path = self.inp / name
        volio.write_volume(grid, volio.VolumeMeta.for_grid(grid, datatype), path)
        return path

    def reset_inputs(self) -> None:
        shutil.rmtree(self.inp, ignore_errors=True)
        self.inp.mkdir(parents=True)

    def reset_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def build_references(self) -> None:
        raise NotImplementedError

    def stages(self) -> list[Stage]:
        raise NotImplementedError

    def checks(self) -> list:
        raise NotImplementedError


def _expect_json_report(path: Path, want: dict) -> None:
    expect_report(json.loads(path.read_text()), want, path.name)


def _expect_masked(path: Path, ct: np.ndarray, band: np.ndarray, spacing) -> None:
    """Bit-exact copy of the CT outside the band, finite noise inside it."""
    vol = read_nii(path)
    expect(vol.data.dtype == np.float32 and vol.data.shape == ct.shape, f"{path.name}: dtype/shape")
    expect(vol.spacing == oracle.stored_spacing(spacing), f"{path.name}: spacing {vol.spacing}")
    outside = ~band
    expect(
        np.array_equal(vol.data[outside].view(np.uint32), ct[outside].view(np.uint32)),
        f"{path.name}: CT changed outside the wall band",
    )
    expect(bool(np.isfinite(vol.data[band]).all()), f"{path.name}: non-finite noise in the band")


# A draw may differ from the reference only where its uniform lies this close
# to a step of the cumulative sum. That is about the rounding of a float64
# running sum over 8 Mvox, and under 1/800 of the narrowest step on pipeline
# (8.6e-10, a voxel on the uniform floor of the tumor-driven map).
CDF_TIE = 1e-12


def _expect_draws(path: Path, psm_path: Path, count: int, seed: int) -> np.ndarray:
    """The centers in ``path`` are the seeded draws from the map at ``psm_path``."""
    obj = json.loads(path.read_text())
    expect(obj.get("count") == count and obj.get("seed") == seed, f"{path.name}: count/seed fields")
    prob = read_nii(psm_path).data
    c = np.asarray(obj["centers"], dtype=np.int64).reshape(-1, 3)
    expect(c.shape[0] == count, f"{path.name}: {c.shape[0]} centers, want {count}")
    expect(bool(((c >= 0) & (c < np.array(prob.shape))).all()), f"{path.name}: center outside the grid")
    got = np.ravel_multi_index(tuple(c.T), prob.shape)
    want, u, cdf = oracle.draw_flat(prob, count, seed)
    off = np.flatnonzero(got != want)
    k = got[off]
    lo = np.where(k > 0, cdf[k - 1], 0.0)
    tie = (lo - CDF_TIE <= u[off]) & (u[off] < cdf[k] + CDF_TIE)
    expect(bool(tie.all()), f"{path.name}: {int(np.count_nonzero(~tie))} draws differ from the reference")
    return c


class Pipeline(Workload):
    """The full stage chain on one phantom with a sparse organ of interest."""

    name = "pipeline"
    on_clock = False
    SIZES = {
        "full": dict(dims=(128, 256, 256), count=200_000, patches=256),
        "tiny": dict(dims=(32, 64, 64), count=2_000, patches=16),
    }
    SPACING = (5.0, 0.78, 0.78)
    PATCH = (16, 32, 32)
    LAM = 0.33
    CENTERS_TAG, PATCHES_TAG = 3, 4  # seed tags of the two sample stages

    def setup(self) -> None:
        dims = self.SIZES[self.size]["dims"]
        spec = {"dims": list(dims), "spacing": list(self.SPACING), "seed": self._seed(1)}
        (self.inp / "spec.json").write_text(json.dumps(spec))
        ct, labels, tumor = self._phantom(**spec)
        rng = self._rng(2)
        soft = (0.9 * oracle.dilate(tumor.data, 1) + 0.05 * rng.random(dims)).astype(np.float32)
        colon = labels.data == 1
        # opened, and the last third of the 270-degree arc missed entirely
        pred = _opened(colon) & ~_sector(dims, 45.0, 135.0)
        self._write(soft, self.SPACING, "pred_tumor.nii", "float32")
        self._write(pred, self.SPACING, "pred_colon.nii", "uint8")
        self.arrays = dict(ct=ct.data, labels=labels.data, tumor=tumor.data, soft=soft, pred=pred)

    def build_references(self) -> None:
        a = self.arrays
        ooi0 = a["labels"] == 1
        ooi = oracle.dilate(ooi0, 3)
        spacing = oracle.stored_spacing(self.SPACING)
        self.ref = dict(
            ct=a["ct"], labels=a["labels"], tumor=a["tumor"], ooi=ooi, ooi0=ooi0,
            wall=oracle.wall_band(ooi0),
            psm=oracle.psm(ooi, a["tumor"], self.PATCH, self.LAM),
            loss=oracle.loss_report(a["tumor"], a["soft"], ooi),
            metrics=oracle.seg_report(ooi0, a["pred"], spacing),
        )
        del self.arrays

    def stages(self) -> list[Stage]:
        i, o = self.inp, self.out
        sz = self.SIZES[self.size]
        n = int(np.prod(sz["dims"]))
        patch = ",".join(map(str, self.PATCH))
        labels = ["--ts", f"{o}/labels.nii", "--word", f"{o}/labels.nii", "--set-ts", "1", "--set-word", "1"]
        return [
            Stage("phantom", ["phantom", "--spec", f"{i}/spec.json", "--out-ct", f"{o}/ct.nii",
                              "--out-labels", f"{o}/labels.nii", "--out-tumor", f"{o}/tumor.nii"], 0),
            Stage("ooi", ["ooi", *labels, "--dilate-times", "3", "--out", f"{o}/ooi.nii"], 2 * n),
            Stage("ooi", ["ooi", *labels, "--dilate-times", "0", "--out", f"{o}/ooi0.nii"], 2 * n),
            Stage("wall", ["wall", "--ooi", f"{o}/ooi0.nii", "--out", f"{o}/wall.nii"], n),
            Stage("psm", ["psm", "--ooi", f"{o}/ooi.nii", "--tumor", f"{o}/tumor.nii", "--patch-size", patch,
                          "--lambda", str(self.LAM), "--out", f"{o}/psm.nii"], 2 * n),
            Stage("sample", ["sample", "--psm", f"{o}/psm.nii", "--count", str(sz["count"]),
                             "--seed", str(self._seed(self.CENTERS_TAG)), "--out", f"{o}/centers.json"], n),
            Stage("sample", ["sample", "--psm", f"{o}/psm.nii", "--count", str(sz["patches"]),
                             "--seed", str(self._seed(self.PATCHES_TAG)), "--out", f"{o}/patch_centers.json",
                             "--image", f"{o}/ct.nii", "--patch-dir", f"{o}/patches",
                             "--patch-size", patch], 2 * n),
            Stage("ssl_mask", ["ssl-mask", "--ct", f"{o}/ct.nii", "--wall", f"{o}/wall.nii",
                               "--seed", str(self._seed(5)), "--out", f"{o}/masked.nii"], 2 * n),
            Stage("loss", ["loss", "--gt", f"{o}/tumor.nii", "--pred", f"{i}/pred_tumor.nii",
                           "--ooi", f"{o}/ooi.nii", "--out", f"{o}/loss.json"], 3 * n),
            Stage("metrics", ["metrics", "--gt", f"{o}/ooi0.nii", "--pred", f"{i}/pred_colon.nii",
                              "--out", f"{o}/metrics.json"], 2 * n),
        ]

    def checks(self) -> list:
        r, o, sp = self.ref, self.out, self.SPACING
        return [
            ("phantom", lambda: (expect_volume(o / "ct.nii", r["ct"], sp, "float32"),
                                 expect_volume(o / "labels.nii", r["labels"], sp, "uint8"),
                                 expect_volume(o / "tumor.nii", r["tumor"], sp, "uint8"))),
            ("ooi", lambda: expect_volume(o / "ooi.nii", r["ooi"], sp, "uint8")),
            ("ooi0", lambda: expect_volume(o / "ooi0.nii", r["ooi0"], sp, "uint8")),
            ("wall", lambda: expect_volume(o / "wall.nii", r["wall"], sp, "uint8")),
            ("psm", self._check_psm),
            ("centers", self._check_centers),
            ("patches", self._check_patches),
            ("ssl_mask", lambda: _expect_masked(o / "masked.nii", r["ct"], r["wall"], sp)),
            ("loss", lambda: _expect_json_report(o / "loss.json", r["loss"])),
            ("metrics", lambda: _expect_json_report(o / "metrics.json", r["metrics"])),
        ]

    def _check_psm(self) -> None:
        vol = read_nii(self.out / "psm.nii")
        want = self.ref["psm"]
        expect(vol.data.dtype == np.float32 and vol.data.shape == want.shape, "psm.nii: dtype/shape")
        got = vol.data.astype(np.float64)
        expect(bool((got > 0).all()), "psm.nii: a probability is not strictly positive")
        expect(abs(float(got.sum()) - 1.0) <= 1e-6, f"psm.nii: sums to {got.sum()!r}")
        err = float(np.max(np.abs(got - want) / want))
        expect(err <= 2.0**-23, f"psm.nii: max relative error {err:.3g} beyond float32 storage")

    def _check_centers(self) -> None:
        _expect_draws(self.out / "centers.json", self.out / "psm.nii", self.SIZES[self.size]["count"],
                      self._seed(self.CENTERS_TAG))

    def _check_patches(self) -> None:
        count = self.SIZES[self.size]["patches"]
        centers = _expect_draws(self.out / "patch_centers.json", self.out / "psm.nii", count,
                                self._seed(self.PATCHES_TAG))
        files = sorted(p.name for p in (self.out / "patches").iterdir())
        expect(files == [f"patch_{k:04d}.nii" for k in range(count)], "patches: unexpected file set")
        for k, c in enumerate(centers):
            want = oracle.patch_at(self.ref["ct"], tuple(int(v) for v in c), self.PATCH)
            expect_volume(self.out / "patches" / files[k], want, self.SPACING, "float32")


class Cohort(Workload):
    """Metrics over a manifest of cases, once with one thread and once with JOBS."""

    name = "cohort"
    GEOMETRIES = {
        "full": [dict(dims=(20, 72, 72), spacing=(1.5, 0.8, 0.8), tube_radius_mm=7.0),
                 dict(dims=(24, 56, 80), spacing=(1.25, 0.8, 0.8), tube_radius_mm=6.0)],
        "tiny": [dict(dims=(16, 48, 48), spacing=(1.5, 0.8, 0.8), tube_radius_mm=5.0),
                 dict(dims=(18, 40, 56), spacing=(1.25, 0.8, 0.8), tube_radius_mm=4.5)],
    }
    CASES = [(0, "opened"), (0, "dilated"), (0, "eroded"), (0, "shifted"),
             (1, "segment_erased"), (1, "empty"), (1, "identical"), (1, "opened")]

    def _perturb(self, gt: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
        if kind == "opened":
            return _opened(gt)
        if kind == "dilated":
            return oracle.dilate(gt, 2)
        if kind == "eroded":
            return oracle.erode(gt, 2)
        if kind == "shifted":
            return np.roll(gt, tuple(int(v) for v in rng.choice([-2, -1, 1, 2], 2)), axis=(1, 2))
        if kind == "segment_erased":
            lo = float(rng.uniform(-135.0, 75.0))
            return gt & ~_sector(gt.shape, lo, lo + 60.0)
        if kind == "empty":
            return np.zeros_like(gt)
        return gt.copy()

    def setup(self) -> None:
        geos = self.GEOMETRIES[self.size]
        gts = []
        for g, geo in enumerate(geos):
            _, labels, _ = self._phantom(**{**geo, "seed": self._seed(10 + g)})
            gts.append(labels.data == 1)
        self.cases = []
        lines = []
        for k, (g, kind) in enumerate(self.CASES):
            case_id = f"case{k:02d}_{kind}"
            pred = self._perturb(gts[g], kind, self._rng(100 + k))
            spacing = geos[g]["spacing"]
            gt_path = self._write(gts[g], spacing, f"{case_id}_gt.nii", "uint8")
            pred_path = self._write(pred, spacing, f"{case_id}_pred.nii", "uint8")
            lines.append(json.dumps({"case_id": case_id, "gt": str(gt_path), "pred": str(pred_path)}))
            self.cases.append((case_id, gts[g], pred, spacing))
        (self.inp / "cohort.jsonl").write_text("\n".join(lines) + "\n")

    def build_references(self) -> None:
        rows = [
            (case_id, oracle.seg_report(gt, pred, oracle.stored_spacing(spacing)))
            for case_id, gt, pred, spacing in self.cases
        ]
        mean = {k: sum(r[k] for _, r in rows) / len(rows) for k in rows[0][1]}
        self.ref = rows + [("mean", mean)]
        self.read_vox = sum(2 * gt.size for _, gt, _, _ in self.cases)
        del self.cases

    def stages(self) -> list[Stage]:
        return [
            Stage("metrics", ["metrics", "--cohort", f"{self.inp}/cohort.jsonl", "--jobs", str(jobs),
                              "--out", f"{self.out}/report_jobs{jobs}.jsonl"], self.read_vox, {"jobs": jobs})
            for jobs in (1, JOBS)
        ]

    def checks(self) -> list:
        files = [self.out / f"report_jobs{jobs}.jsonl" for jobs in (1, JOBS)]
        return [(f.stem, lambda f=f: self._check_report(f)) for f in files] + [
            ("reports_equal", lambda: expect(files[0].read_bytes() == files[1].read_bytes(),
                                             "cohort reports differ between --jobs 1 and --jobs N")),
        ]

    def _check_report(self, path: Path) -> None:
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        expect([r.get("case_id") for r in rows] == [c for c, _ in self.ref], f"{path.name}: case ids")
        for row, (case_id, want) in zip(rows, self.ref):
            expect_report(row, want, f"{path.name}:{case_id}")


class Fullres(Workload):
    """Voxel-bound stages at CT in-plane size; no gain map and no EDT."""

    name = "fullres"
    SIZES = {"full": (128, 512, 512), "tiny": (32, 64, 64)}
    SPACING = (5.0, 0.78, 0.78)
    # second label source in another code scheme: colon 10, distractors 5, 9, 11, 13
    WORD_CODES = {1: 10, 2: 5, 3: 9, 4: 11, 5: 13}

    def setup(self) -> None:
        dims = self.SIZES[self.size]
        ct, labels, _ = self._phantom(dims=list(dims), spacing=list(self.SPACING), n_distractors=4,
                                      seed=self._seed(1))
        lut = np.zeros(256, dtype=np.uint8)
        for code, word in self.WORD_CODES.items():
            lut[code] = word
        word = lut[labels.data]
        gt = labels.data == 1
        soft = (0.8 * np.roll(gt, 1, axis=2) + 0.1 * self._rng(2).random(dims)).astype(np.float32)
        for array, name, datatype in ((ct.data, "ct.nii", "float32"), (labels.data, "labels_ts.nii", "uint8"),
                                      (word, "labels_word.nii", "uint8"), (gt, "gt.nii", "uint8"),
                                      (soft, "pred.nii", "float32")):
            self._write(array, self.SPACING, name, datatype)
        self.arrays = dict(ct=ct.data, labels=labels.data, word=word, gt=gt, soft=soft)

    def build_references(self) -> None:
        a = self.arrays
        ooi = oracle.dilate(np.isin(a["labels"], [1]) | np.isin(a["word"], [10]), 3)
        ooi0 = np.isin(a["labels"], [1, 2]) | np.isin(a["word"], [10, 9])
        self.ref = dict(ct=a["ct"], ooi=ooi, ooi0=ooi0, wall=oracle.wall_band(ooi0),
                        loss=oracle.loss_report(a["gt"], a["soft"], ooi))
        del self.arrays

    def stages(self) -> list[Stage]:
        i, o = self.inp, self.out
        n = int(np.prod(self.SIZES[self.size]))
        sources = ["--ts", f"{i}/labels_ts.nii", "--word", f"{i}/labels_word.nii"]
        return [
            Stage("ooi", ["ooi", *sources, "--set-ts", "1", "--set-word", "10", "--dilate-times", "3",
                          "--out", f"{o}/ooi.nii"], 2 * n),
            Stage("ooi", ["ooi", *sources, "--set-ts", "1,2", "--set-word", "10,9", "--dilate-times", "0",
                          "--out", f"{o}/ooi0.nii"], 2 * n),
            Stage("wall", ["wall", "--ooi", f"{o}/ooi0.nii", "--out", f"{o}/wall.nii"], n),
            Stage("ssl_mask", ["ssl-mask", "--ct", f"{i}/ct.nii", "--wall", f"{o}/wall.nii",
                               "--seed", str(self._seed(5)), "--out", f"{o}/masked.nii"], 2 * n),
            Stage("loss", ["loss", "--gt", f"{i}/gt.nii", "--pred", f"{i}/pred.nii", "--ooi", f"{o}/ooi.nii",
                           "--out", f"{o}/loss.json"], 3 * n),
        ]

    def checks(self) -> list:
        r, o, sp = self.ref, self.out, self.SPACING
        return [
            ("ooi", lambda: expect_volume(o / "ooi.nii", r["ooi"], sp, "uint8")),
            ("ooi0", lambda: expect_volume(o / "ooi0.nii", r["ooi0"], sp, "uint8")),
            ("wall", lambda: expect_volume(o / "wall.nii", r["wall"], sp, "uint8")),
            ("ssl_mask", lambda: _expect_masked(o / "masked.nii", r["ct"], r["wall"], sp)),
            ("loss", lambda: _expect_json_report(o / "loss.json", r["loss"])),
        ]


WORKLOADS = {w.name: w for w in (Pipeline, Cohort, Fullres)}
