"""anatvox benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
run generates the workload's inputs from the seed (``setup_s`` is the median
of at least five set-ups taking at least 2 s together), builds reference
results, then runs iterations until ``--seconds`` have passed, each in a
fresh ``worker.py`` process, checking every iteration's outputs. With
``--trace 1`` one more, traced iteration follows and the per-layer metrics
are printed instead of the end-to-end ones. On an ``on_clock`` workload
``run_s`` and ``setup_s`` are read on ``clock``'s interpreter-speed clock.
The metric names and units come from ``BENCHMARK.json``. The last line of
stdout is the JSON result; the lines before it repeat the metrics for people.
Scratch files go to ``.perfbench_work/<workload>/``, spans to
``.perfbench_work/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import workloads

# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S have
# passed, so a short set-up (cohort's takes ~32 ms) gets many samples.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
SETUP_CAL_EVERY_S = 0.5  # the set-ups are timed against clock.interpreter_s this often
DEADLINE_S = 170.0  # the whole run must end within 180 s
PEAK_STAGES = ("psm", "loss", "metrics")


class Tally:
    """Operations attempted and failed: every stage run and every output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def tree_hashes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def run_iteration(wl: workloads.Workload, stages, trace: bool, timeout: float) -> dict:
    """Run one iteration in a child process; ``{"error": ...}`` if it did not finish."""
    wl.reset_outputs()
    plan = {
        "stages": [{"name": s.name, "argv": s.argv, "counts": s.counts} for s in stages],
        "trace": trace,
        "calibrate": wl.on_clock,
        "peak_stages": list(PEAK_STAGES),
        "trace_out": str(wl.work / "spans.jsonl"),
    }
    plan_path, result_path = wl.work / "plan.json", wl.work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": "iteration timed out"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def evaluate(wl: workloads.Workload, stages, res: dict, tally: Tally, first_hashes) -> dict:
    """Count the iteration's stages and checks into ``tally``; return its output hashes."""
    if "error" in res:
        for st in stages:
            tally.record(False, f"stage {st.name}: {res['error']}")
        return {}
    for st in res["stages"]:
        tally.record(st["rc"] == 0, f"stage {st['name']}: exit {st['rc']} {st['error'] or ''}")
    for name, check in wl.checks():
        try:
            check()
            tally.record(True, name)
        except Exception as exc:  # a missing or garbled output is a failed check, not a crash
            tally.record(False, f"check {name}: {type(exc).__name__}: {exc}")
    hashes = tree_hashes(wl.out)
    if first_hashes is not None:
        differ = sorted(k for k in hashes.keys() | first_hashes.keys() if hashes.get(k) != first_hashes.get(k))
        tally.record(not differ, f"outputs differ from the first iteration: {differ[:5]}")
    return hashes


def measure(wl: workloads.Workload, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    shutil.rmtree(wl.work, ignore_errors=True)
    setup_s, gen_s, setup_cal_s = [], [], []
    last_cal = float("-inf")
    while len(setup_s) < SETUP_MIN_REPS or sum(setup_s) < SETUP_MIN_S:
        if wl.on_clock and time.perf_counter() - last_cal >= SETUP_CAL_EVERY_S:
            setup_cal_s.append(clock.interpreter_s())
            last_cal = time.perf_counter()
        wl.reset_inputs()
        wl.gen_phantom_s.clear()
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(sum(wl.gen_phantom_s))
    if wl.on_clock:
        setup_cal_s.append(clock.interpreter_s())
    wl.build_references()
    stages = wl.stages()
    tally, runs = Tally(), []
    first = None
    loop_start = time.perf_counter()
    while not runs or time.perf_counter() - loop_start < seconds:
        res = run_iteration(wl, stages, False, DEADLINE_S - (time.perf_counter() - started))
        hashes = evaluate(wl, stages, res, tally, first)
        if "error" in res:
            break
        first = hashes if first is None else first
        runs.append(res)

    out = {"tally": tally, "setup_s": setup_s, "setup_cal_s": setup_cal_s, "gen_phantom_s": gen_s,
           "runs": runs, "stages": stages}
    if trace and runs:
        res = run_iteration(wl, stages, True, DEADLINE_S - (time.perf_counter() - started))
        evaluate(wl, stages, res, tally, first)
        out["traced"] = res
        out["spans_path"] = wl.work / "spans.jsonl"
    return out


def on_clock(seconds: float, cal_s: list) -> float:
    """``seconds`` on the interpreter-speed clock, or as measured without timings of it."""
    return clock.at_reference(seconds, cal_s) if cal_s else seconds


def end_to_end(m: dict) -> dict:
    run_s = statistics.median(on_clock(r["run_s"], r["cal_s"]) for r in m["runs"])
    read_vox = sum(s.read_vox for s in m["stages"])
    return {
        "setup_s": on_clock(statistics.median(m["setup_s"]), m["setup_cal_s"]),
        "run_s": run_s,
        "mvox_per_s": read_vox / 1e6 / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in m["runs"]),
    }


def scaling_eff(m: dict) -> float:
    """t(jobs=1) / (JOBS * t(jobs=JOBS)) per iteration, median; 0 without a pool pass."""
    if [s.counts.get("jobs") for s in m["stages"]] != [1, workloads.JOBS]:
        return 0.0
    passes = [[st["s"] for st in r["stages"]] for r in m["runs"]]
    return statistics.median(t1 / (workloads.JOBS * tn) for t1, tn in passes)


def per_layer(m: dict) -> dict:
    import spans

    traced = m["traced"]
    if "error" in traced:
        return {}
    values = spans.layer_metrics(
        spans.read_spans(m["spans_path"]),
        traced["stage_peak_mb"],
        traced["run_s"],
        statistics.median(r["run_s"] for r in m["runs"]),
    )
    values["scaling_eff"] = scaling_eff(m)
    values["setup.gen_phantom.s"] = statistics.median(m["gen_phantom_s"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anatvox" / "__init__.py").is_file():
        print("error: src/anatvox not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench_work" / (args.workload if args.size == "full" else f"{args.workload}-{args.size}")
    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.size)
    m = measure(wl, args.seconds, bool(args.trace))
    tally = m["tally"]
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if not m["runs"]:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    if args.trace:
        listed, values = spec["per_layer"], per_layer(m)
    else:
        listed, values = spec["end_to_end"], end_to_end(m)
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]} for d in listed}

    fail_frac = len(tally.failures) / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(m['runs'])}"
          f"{'  +1 traced' if args.trace else ''}")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':40s} {fail_frac:14.6g} ratio")
        if scaling_eff(m):
            print(f"  {'scaling_eff':40s} {scaling_eff(m):14.6g} ratio")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
