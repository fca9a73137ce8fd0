"""Span tracing of anatvox from outside the package.

``Tracer.install`` replaces every public function of the layer modules, in
every anatvox namespace that binds it (so ``cli.extract_patch`` and
``maskgen.dilate`` are wrapped too), with a wrapper that records one span
per call. Calls inside a module go through its globals, so nested calls
become child spans: ``seg_metrics -> edt``, ``boundary_band -> dilate_mask``,
``af_loss -> combined_loss -> soft_dice_loss``. ``uninstall`` puts the
original functions back.

A span is ``[id, parent, thread, name, start, end, counts]``. Each thread
keeps its own parent stack. A thread whose stack is empty, such as a
``--jobs`` pool thread, hangs its spans under the open stage span. Spans
stay in memory until ``write``.

The per-layer metrics are computed here from the spans alone; nothing is
counted inside the package.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import oracle

LAYERS = ("volio", "grid", "morphology", "maskgen", "sampling", "sslmask", "losses", "metrics", "phantom")
MB = float(2**20)
PACKAGE = "anatvox"
RSS_INTERVAL_S = 0.001  # how often RssPeak samples the resident set


def _bbox_vox(mask: np.ndarray, grow=(0, 0, 0)) -> int:
    """Voxels in the bounding box of ``mask`` grown by ``grow``, clipped to the grid."""
    return math.prod(s.stop - s.start for s in oracle.bbox(mask, grow))


# Counts recorded per call from its arguments, after it returns (so written files exist).
COUNTERS = {
    "sampling.gain_map": lambda a: {
        "vox": a["interest"].data.size,
        "support": _bbox_vox(a["interest"].data, a["patch"].radii),
    },
    "sampling.draw_centers": lambda a: {"draws": int(a["count"])},
    "metrics.seg_metrics": lambda a: {
        "vox": a["gt"].data.size,
        "bbox": _bbox_vox(a["gt"].data | a["pred"].data),
    },
    "metrics.edt": lambda a: {"vox": a["mask"].data.size},
    "morphology.dilate_mask": lambda a: {"voxel_steps": a["mask"].size * int(a["times"])},
    "morphology.erode_mask": lambda a: {"voxel_steps": a["mask"].size * int(a["times"])},
    "sslmask.mask_bowel_wall": lambda a: {"band_vox": int(np.count_nonzero(a["band"].data))},
    "losses.af_loss": lambda a: {"vox": a["gt"].data.size},
    "losses.soft_dice_loss": lambda a: {"vox": a["gt"].data.size},
    "losses.cross_entropy_loss": lambda a: {"vox": a["gt"].data.size},
    "volio.read_volume": lambda a: {"bytes": os.path.getsize(a["path"])},
    "volio.write_volume": lambda a: {"bytes": os.path.getsize(a["path"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.root = None  # id of the open stage span, parent of pool-thread spans
        self._ids = itertools.count()  # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        return self._local.__dict__.setdefault("stack", [])

    def open(self, name: str, counts=None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else self.root
        span = [next(self._ids), parent, threading.get_ident(), name, time.perf_counter(), None, counts or {}]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def stage(self, name: str, **counts):
        """Top-level span around one ``cli.run`` call, opened by the worker."""
        span = self.open(name, counts)
        self.root = span[0]
        try:
            yield span
        finally:
            self.root = None
            self.close(span)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = counter(bound.arguments)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, threads numbered in order of first appearance."""
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, thread, name, start, end, counts in sorted(self.spans, key=lambda s: s[0]):
                tid = threads.setdefault(thread, len(threads))
                fh.write(json.dumps([sid, parent, tid, name, start, end, counts]) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class RssPeak:
    """Highest resident set size above the entry level, sampled every millisecond.

    tracemalloc would give an allocation peak instead, but its per-allocation
    hook slows the pure-Python EDT about fifteenfold, so the stage would no
    longer resemble the untraced one.
    """

    def __init__(self):
        self.peak_mb = 0.0

    def _rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _poll(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self._peak = max(self._peak, self._rss())

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._base = self._peak = self._rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, self._rss())
        os.close(self._fd)
        self.peak_mb = (self._peak - self._base) / MB
        return False


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _, _, _, start, end, _ in spans
    }


def layer_metrics(spans, stage_peaks: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metric values (unit-less numbers) from one traced iteration."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    m: dict = defaultdict(float)
    for sid, parent, _, name, start, end, counts in spans:
        if name.startswith("cli."):
            m[f"{name}.s"] += end - start
            m["trace.cli_s"] += end - start
            continue
        m[f"{name}.s"] += own[sid]
        m[f"{name}.calls"] += 1
        for key, value in counts.items():
            m[f"{name}.{key}"] += value
        if name.startswith("losses.") and (parent is None or not by_id[parent][3].startswith("losses.")):
            m["losses.vox"] += counts.get("vox", 0)

    out = {k: v for k, v in m.items() if k.endswith((".s", ".calls", ".draws"))}
    for stage, peak in stage_peaks.items():
        out[f"cli.{stage}.peak_mb"] = peak
    out["sampling.gain_map.mvox"] = m["sampling.gain_map.vox"] / 1e6
    out["sampling.gain_map.support_frac"] = _ratio(m["sampling.gain_map.support"], m["sampling.gain_map.vox"])
    out["metrics.edt.mvox"] = m["metrics.edt.vox"] / 1e6
    out["metrics.bbox_frac"] = _ratio(m["metrics.seg_metrics.bbox"], m["metrics.seg_metrics.vox"])
    out["metrics.seg_metrics.inflation"] = inflation(spans)
    out["losses.mvox"] = m["losses.vox"] / 1e6
    out["morphology.voxel_steps"] = m["morphology.dilate_mask.voxel_steps"] + m["morphology.erode_mask.voxel_steps"]
    out["sslmask.band_vox"] = m["sslmask.mask_bowel_wall.band_vox"]
    for op in ("read_volume", "write_volume"):
        out[f"volio.{op}.mb"] = m[f"volio.{op}.bytes"] / MB
    out["trace.run_s"] = traced_run_s
    out["trace.cover_frac"] = _ratio(m["trace.cli_s"], traced_run_s)
    out["trace.overhead_frac"] = (traced_run_s - untraced_run_s) / untraced_run_s
    return out


def inflation(spans) -> float:
    """Median seg_metrics span under the widest pool over the median under jobs=1.

    Pool width comes from the ``jobs`` count on the enclosing stage span; 0
    when the iteration has no multi-job pass to compare.
    """
    jobs_of = {s[0]: s[6].get("jobs") for s in spans if s[3] == "cli.metrics"}
    per_jobs = defaultdict(list)
    for _, parent, _, name, start, end, _ in spans:
        if name == "metrics.seg_metrics" and jobs_of.get(parent):
            per_jobs[jobs_of[parent]].append(end - start)
    if 1 not in per_jobs or len(per_jobs) < 2:
        return 0.0
    return statistics.median(per_jobs[max(per_jobs)]) / statistics.median(per_jobs[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
