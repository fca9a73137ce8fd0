"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Each workload runs at tiny size without a failure, a corrupted output is
counted as a failure, and self time is checked on a synthetic span tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_without_failures(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, proc.stderr
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_flipped_mask_voxel_counts_as_failure(tmp_path):
    wl = workloads.Pipeline(tmp_path, seed=3, size="tiny")
    m = run.measure(wl, 0, trace=False)
    assert m["tally"].attempted > 0 and not m["tally"].failures
    first = run.tree_hashes(wl.out)

    path = wl.out / "wall.nii"
    raw = bytearray(path.read_bytes())
    raw[352 + int(np.flatnonzero(wl.ref["wall"])[0])] ^= 1
    path.write_bytes(bytes(raw))

    tally = run.Tally()
    run.evaluate(wl, wl.stages(), m["runs"][0], tally, first)
    assert len(tally.failures) == 2, tally.failures  # the wall check and byte identity
    assert tally.failures[0].startswith("check wall")


def test_center_off_by_one_voxel_counts_as_failure(tmp_path):
    wl = workloads.Pipeline(tmp_path, seed=3, size="tiny")
    m = run.measure(wl, 0, trace=False)
    assert not m["tally"].failures

    path = wl.out / "centers.json"
    obj = json.loads(path.read_text())
    z, y, x = obj["centers"][0]
    obj["centers"][0] = [z, y, x + 1 if x + 1 < wl.SIZES["tiny"]["dims"][2] else x - 1]
    path.write_text(json.dumps(obj))

    tally = run.Tally()
    run.evaluate(wl, wl.stages(), m["runs"][0], tally, None)
    assert len(tally.failures) == 1 and tally.failures[0].startswith("check centers"), tally.failures


def test_iteration_on_the_clock_is_scaled_to_the_reference_interpreter_speed():
    slow = 2 * clock.CAL_REF_S
    assert run.on_clock(3.0, [slow, slow, 3 * clock.CAL_REF_S]) == pytest.approx(1.5)  # loop at half speed
    assert run.on_clock(3.0, []) == 3.0  # a workload off the clock
    assert [w.name for w in workloads.WORKLOADS.values() if w.on_clock] == ["cohort", "fullres"]


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        [0, None, 0, "cli.metrics", 0.0, 10.0, {"jobs": 2}],
        [1, 0, 1, "metrics.seg_metrics", 1.0, 4.0, {}],
        [2, 0, 2, "metrics.seg_metrics", 3.0, 6.0, {}],  # overlaps span 1 on another thread
        [3, 1, 1, "metrics.edt", 2.0, 3.0, {"vox": 8}],
        [4, 0, 0, "volio.read_volume", 9.5, 10.5, {"bytes": 2**20}],  # clipped at its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx({0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0})

    m = spans.layer_metrics(tree, {}, traced_run_s=10.0, untraced_run_s=8.0)
    assert m["cli.metrics.s"] == pytest.approx(10.0)
    assert m["metrics.seg_metrics.s"] == pytest.approx(5.0)
    assert m["metrics.seg_metrics.calls"] == 2
    assert m["metrics.edt.mvox"] == pytest.approx(8e-6)
    assert m["volio.read_volume.mb"] == pytest.approx(1.0)
    assert m["trace.cover_frac"] == pytest.approx(1.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def test_inflation_compares_pool_passes():
    tree = [[0, None, 0, "cli.metrics", 0.0, 3.0, {"jobs": 1}], [1, None, 0, "cli.metrics", 3.0, 9.0, {"jobs": 2}]]
    tree += [[10 + k, 0, 1, "metrics.seg_metrics", k, k + 1.0, {}] for k in range(3)]
    tree += [[20 + k, 1, 1 + k % 2, "metrics.seg_metrics", 3.0 + k, 5.0 + k, {}] for k in range(3)]
    assert spans.inflation(tree) == pytest.approx(2.0)


def test_tracer_nests_pool_spans_and_restores_functions():
    from concurrent.futures import ThreadPoolExecutor

    from anatvox import metrics
    from anatvox.grid import Spacing, VoxelGrid

    mask = np.zeros((4, 8, 8), dtype=bool)
    mask[1:3, 2:6, 2:6] = True
    grid = VoxelGrid(mask, Spacing(1.0, 1.0, 1.0))
    original = metrics.edt
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.stage("cli.metrics", jobs=2) as stage:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda _: metrics.seg_metrics(grid, grid), range(2)))
    finally:
        tracer.uninstall()
    assert metrics.edt is original
    by_id = {s[0]: s for s in tracer.spans}
    seg = [s for s in tracer.spans if s[3] == "metrics.seg_metrics"]
    assert len(seg) == 2 and all(s[1] == stage[0] for s in seg)
    edt = [s for s in tracer.spans if s[3] == "metrics.edt"]
    assert len(edt) == 4 and all(by_id[s[1]][3] == "metrics.seg_metrics" for s in edt)
