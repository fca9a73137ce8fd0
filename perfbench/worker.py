"""One workload iteration in a fresh process: each stage through anatvox.cli.run.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan lists the stages (name, argv, span counts) and whether to trace.
Stages run back to back in this process, each as soon as the previous one
returns. The clock starts after the imports and stops after the last stage.
The result holds each stage's exit code and seconds, the iteration's
seconds, and this process's peak resident memory. The peak is ``VmHWM``,
which belongs to the address space made at exec, so it does not include the
memory of the parent that started the worker (``ru_maxrss`` would: it is
kept across fork and exec). A plan with ``calibrate`` also times
``clock.interpreter_s`` before each stage and after the last one, outside
the iteration's clock, so the caller can put the iteration on the
interpreter-speed clock. A traced iteration also writes its spans and the
memory peaks of the stages named in the plan.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from anatvox import cli  # noqa: E402  (the package imports every layer module)
from clock import interpreter_s  # noqa: E402


def vm_hwm_mb() -> float:
    """Peak resident set size of this process's address space, in MB."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the field is in kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_plan(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from spans import RssPeak, Tracer

        tracer = Tracer()
        tracer.install()
    stages, peaks, cal_s = [], {}, []
    start = time.perf_counter()

    def calibrate() -> float:
        if not plan["calibrate"]:
            return 0.0
        t0 = time.perf_counter()
        cal_s.append(interpreter_s())
        return time.perf_counter() - t0

    cal_wall = 0.0
    try:
        for st in plan["stages"]:
            cal_wall += calibrate()
            t0 = time.perf_counter()
            peak = None
            with ExitStack() as ctx:
                if tracer is not None:
                    ctx.enter_context(tracer.stage(f"cli.{st['name']}", **st["counts"]))
                    if st["name"] in plan["peak_stages"]:
                        peak = ctx.enter_context(RssPeak())
                try:
                    rc, error = cli.run(st["argv"]), None
                except Exception as exc:  # a stage that raises counts as failed; the chain goes on
                    rc, error = -1, f"{type(exc).__name__}: {exc}"
            if peak is not None:
                peaks[st["name"]] = max(peaks.get(st["name"], 0.0), peak.peak_mb)
            stages.append({"name": st["name"], "rc": rc, "s": time.perf_counter() - t0, "error": error})
        cal_wall += calibrate()
        run_s = time.perf_counter() - start - cal_wall
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(plan["trace_out"])
    return {
        "stages": stages,
        "run_s": run_s,
        "peak_rss_mb": vm_hwm_mb(),
        "stage_peak_mb": peaks,
        "cal_s": cal_s,
    }


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(run_plan(plan)), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
