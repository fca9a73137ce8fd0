import json

import numpy as np
import pytest

from anatvox.cli import PipelineConfig, run
from anatvox.grid import Spacing, VoxelGrid
from anatvox.volio import VolumeMeta, read_volume, write_volume

SPEC = {"dims": [24, 64, 64], "spacing": [2.0, 1.0, 1.0], "seed": 7}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    rc = run(
        [
            "phantom", "--spec", str(tmp_path / "spec.json"),
            "--out-ct", str(tmp_path / "ct.nii"),
            "--out-labels", str(tmp_path / "labels.nii"),
            "--out-tumor", str(tmp_path / "tumor.nii"),
        ]
    )
    assert rc == 0
    return tmp_path


def _ooi(workdir, out, times="3"):
    return run(
        [
            "ooi", "--ts", str(workdir / "labels.nii"), "--word", str(workdir / "labels.nii"),
            "--set-ts", "1", "--set-word", "1", "--dilate-times", times,
            "--out", str(workdir / out),
        ]
    )


def test_phantom_outputs_exist_and_load(workdir):
    ct, _ = read_volume(workdir / "ct.nii")
    labels, meta = read_volume(workdir / "labels.nii")
    assert ct.data.shape == (24, 64, 64)
    assert meta.datatype == "uint8"
    assert set(np.unique(labels.data)) >= {0, 1}


def test_pipeline_stage_chain(workdir):
    assert _ooi(workdir, "ooi.nii") == 0
    assert _ooi(workdir, "ooi0.nii", times="0") == 0
    assert run(["wall", "--ooi", str(workdir / "ooi0.nii"), "--out", str(workdir / "wall.nii")]) == 0
    assert (
        run(
            [
                "psm", "--ooi", str(workdir / "ooi.nii"), "--tumor", str(workdir / "tumor.nii"),
                "--patch-size", "8,16,16", "--lambda", "0.33", "--out", str(workdir / "psm.nii"),
            ]
        )
        == 0
    )
    s, _ = read_volume(workdir / "psm.nii")
    assert abs(float(np.sum(s.data, dtype=np.float64)) - 1.0) < 1e-6
    assert np.all(s.data >= 0)

    assert (
        run(
            [
                "sample", "--psm", str(workdir / "psm.nii"), "--count", "10",
                "--seed", "3", "--out", str(workdir / "centers.json"),
            ]
        )
        == 0
    )
    centers = json.loads((workdir / "centers.json").read_text())
    assert centers["count"] == 10 and len(centers["centers"]) == 10

    assert (
        run(
            [
                "ssl-mask", "--ct", str(workdir / "ct.nii"), "--wall", str(workdir / "wall.nii"),
                "--seed", "5", "--out", str(workdir / "masked.nii"),
            ]
        )
        == 0
    )
    masked, _ = read_volume(workdir / "masked.nii")
    ct, _ = read_volume(workdir / "ct.nii")
    wall, _ = read_volume(workdir / "wall.nii")
    outside = wall.data == 0
    assert np.array_equal(masked.data[outside], ct.data[outside])
    assert not np.array_equal(masked.data, ct.data)

    assert (
        run(
            [
                "loss", "--gt", str(workdir / "tumor.nii"), "--pred", str(workdir / "tumor.nii"),
                "--ooi", str(workdir / "ooi.nii"), "--out", str(workdir / "loss.json"),
            ]
        )
        == 0
    )
    report = json.loads((workdir / "loss.json").read_text())
    assert set(report) == {"dice_loss", "ce_loss", "af_loss"}
    assert report["dice_loss"] == 0.0

    assert (
        run(
            [
                "metrics", "--gt", str(workdir / "tumor.nii"), "--pred", str(workdir / "tumor.nii"),
                "--out", str(workdir / "metrics.json"),
            ]
        )
        == 0
    )
    m = json.loads((workdir / "metrics.json").read_text())
    assert m["dice"] == 1.0 and m["hd95_mm"] == 0.0


def test_metrics_empty_prediction_penalty(workdir):
    empty = VoxelGrid(np.zeros((24, 64, 64), dtype=np.uint8), Spacing(2.0, 1.0, 1.0))
    write_volume(empty, VolumeMeta.for_grid(empty), workdir / "empty.nii")
    rc = run(
        [
            "metrics", "--gt", str(workdir / "tumor.nii"), "--pred", str(workdir / "empty.nii"),
            "--out", str(workdir / "m.json"),
        ]
    )
    assert rc == 0
    assert json.loads((workdir / "m.json").read_text())["hd95_mm"] == 1000.0


def test_metrics_cohort_jsonl(workdir):
    manifest = workdir / "cases.jsonl"
    manifest.write_text(
        json.dumps({"case_id": "a", "gt": str(workdir / "tumor.nii"), "pred": str(workdir / "tumor.nii")})
        + "\n"
        + json.dumps({"case_id": "b", "gt": str(workdir / "tumor.nii"), "pred": str(workdir / "tumor.nii")})
        + "\n"
    )
    rc = run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "cohort.jsonl"), "--jobs", "2"])
    assert rc == 0
    lines = (workdir / "cohort.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1])["case_id"] == "mean"
    # the report must not depend on the worker count
    rc = run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "cohort1.jsonl"), "--jobs", "1"])
    assert rc == 0
    assert (workdir / "cohort.jsonl").read_bytes() == (workdir / "cohort1.jsonl").read_bytes()


def test_usage_errors_exit_2(workdir):
    assert run(["sample", "--psm", str(workdir / "tumor.nii"), "--count", "0", "--seed", "1"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["ooi", "--ts", str(workdir / "labels.nii")]) == 2  # missing required args
    assert run(["sample", "--psm", str(workdir / "tumor.nii"), "--count", "5"]) == 2  # no seed
    assert run(["metrics", "--cohort", str(workdir / "cases.jsonl"), "--out", str(workdir / "c.jsonl"),
                "--jobs", "0"]) == 2


def test_missing_input_exit_1(workdir):
    assert run(["metrics", "--gt", str(workdir / "nope.nii"), "--pred", str(workdir / "tumor.nii")]) == 1
    assert run(["wall", "--ooi", str(workdir / "nope.nii"), "--out", str(workdir / "w.nii")]) == 1


def test_config_file_and_flag_precedence(workdir, capsys):
    cfg = {
        "lambda": 0.5, "patch_size": [4, 8, 8],
        "organ": {"set_ts": [1], "set_word": [1], "dilate_times": 2, "elem": "full26"},
    }
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    rc = run(["psm", "--config", str(workdir / "cfg.json"), "--lambda", "0.25", "--print-config"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["lambda"] == 0.25  # flag wins
    assert printed["patch_size"] == [4, 8, 8]  # config survives
    assert printed["organ"]["set_ts"] == [1]
    rc = run(["ooi", "--config", str(workdir / "cfg.json"), "--dilate-times", "1", "--print-config"])
    assert rc == 0
    organ = json.loads(capsys.readouterr().out)["organ"]
    assert organ["dilate_times"] == 1  # organ flag wins
    assert organ["elem"] == "full26" and organ["set_word"] == [1]  # organ block survives
    rc = run(["ooi", "--config", str(workdir / "cfg.json"), "--elem", "face6", "--print-config"])
    assert rc == 0
    organ = json.loads(capsys.readouterr().out)["organ"]
    assert organ["elem"] == "face6" and organ["dilate_times"] == 2


def test_unknown_config_key_rejected(workdir):
    (workdir / "bad.json").write_text(json.dumps({"lambda": 0.5, "typo_key": 1}))
    rc = run(["psm", "--config", str(workdir / "bad.json"), "--print-config"])
    assert rc == 2


def test_print_config_defaults(capsys):
    assert run(["metrics", "--print-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["lambda"] == 0.33
    assert printed["mu"] == 1.0
    assert printed["nsd_tol_mm"] == 4.0
    assert printed["hd_penalty_mm"] == 1000.0
    assert printed == PipelineConfig().to_json()


def test_reruns_byte_identical(workdir, tmp_path):
    # identical seeds and inputs give byte-identical outputs
    for d in ("r1", "r2"):
        (tmp_path / d).mkdir(exist_ok=True)
        rc = run(
            [
                "ssl-mask", "--ct", str(workdir / "ct.nii"),
                "--wall", str(workdir / "tumor.nii"),
                "--seed", "11", "--out", str(tmp_path / d / "masked.nii"),
            ]
        )
        assert rc == 0
    a = (tmp_path / "r1" / "masked.nii").read_bytes()
    b = (tmp_path / "r2" / "masked.nii").read_bytes()
    assert a == b


def test_sample_with_patch_outputs(workdir):
    assert _ooi(workdir, "ooi.nii") == 0
    assert (
        run(
            [
                "psm", "--ooi", str(workdir / "ooi.nii"), "--tumor", str(workdir / "tumor.nii"),
                "--patch-size", "4,8,8", "--out", str(workdir / "psm.nii"),
            ]
        )
        == 0
    )
    rc = run(
        [
            "sample", "--psm", str(workdir / "psm.nii"), "--count", "3", "--seed", "2",
            "--out", str(workdir / "c.json"), "--image", str(workdir / "ct.nii"),
            "--patch-dir", str(workdir / "patches"), "--patch-size", "4,8,8",
        ]
    )
    assert rc == 0
    patches = sorted((workdir / "patches").glob("patch_*.nii"))
    assert len(patches) == 3
    p, _ = read_volume(patches[0])
    assert p.data.shape == (4, 8, 8)
