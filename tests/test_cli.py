import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anatvox.cli import PipelineConfig, run
from anatvox.grid import Spacing, VoxelGrid
from anatvox.volio import VolumeMeta, read_volume, write_volume

from conftest import JSON_VALUES

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
    # a negative seed is a usage error, not numpy's "expected non-negative integer"
    assert run(["sample", "--psm", str(workdir / "tumor.nii"), "--seed", "-1"]) == 2
    assert run(["ssl-mask", "--ct", str(workdir / "ct.nii"), "--wall", str(workdir / "tumor.nii"),
                "--seed", "-1", "--out", str(workdir / "m.nii")]) == 2
    assert run(["phantom", "--spec", str(workdir / "spec.json"), "--seed", "-1", "--out-ct", str(workdir / "c.nii"),
                "--out-labels", str(workdir / "l.nii"), "--out-tumor", str(workdir / "t.nii")]) == 2
    assert not (workdir / "m.nii").exists() and not (workdir / "c.nii").exists()


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


# Malformed config values, each wrong in its own way: out of range, an unknown
# key, a wrong JSON type, or a number that is not an integer. A list is a
# stage's argv with a flag; a dict is a config file given to `ooi`.
BAD_CONFIGS = [
    ["psm", "--mu", "0"],
    ["psm", "--lambda", "2"],
    ["ssl-mask", "--noise-std", "-1"],
    ["metrics", "--nsd-tol", "-1"],
    ["metrics", "--hd-penalty", "nan"],
    ["ooi", "--dilate-times", "-1"],
    ["wall", "--r-out", "-2"],
    ["loss", "--dice-eps", "0"],
    {"organ": {"typo": 1}},
    {"organ": {"dilate_times": "x"}},
    {"patch_size": 5},
    {"organ": {"set_ts": 6}},
    {"nsd_tol_mm": None},
    {"organ": {"dilate_times": 1.5}},
    {"sigma_is_stddev": "false"},
]


@pytest.mark.parametrize("bad", BAD_CONFIGS, ids=json.dumps)
def test_bad_config_value_exits_2_before_any_stage(bad, tmp_path, capsys):
    argv = bad
    if isinstance(bad, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(bad))
        argv = ["ooi", "--config", str(tmp_path / "cfg.json")]
    assert run([*argv, "--print-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_flag_over_a_malformed_block_names_the_block(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"organ": 5}))
    assert run(["ooi", "--config", str(tmp_path / "cfg.json"), "--dilate-times", "1", "--print-config"]) == 2
    assert "organ must be a JSON object" in capsys.readouterr().err


BAD_PHANTOM_SPECS = [
    [],
    {"intensity": []},
    {"intensity": {"wall": [1]}},
    {"seed": 1.5},
    {"seed": "7"},
    {"seed": -1},
    {"dims": [16.9, 96, 96]},
    {"n_distractors": True},
    {"tumor_radius_mm": math.nan},
    {"intensity": {"wall": [math.nan, 0.05]}},
    {"intensity": {"tumor": [0.8, math.inf]}},
]


@pytest.mark.parametrize("bad", BAD_PHANTOM_SPECS, ids=json.dumps)
def test_bad_phantom_spec_exits_2(bad, tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps(bad))
    out = [str(tmp_path / f) for f in ("ct.nii", "labels.nii", "tumor.nii")]
    argv = ["phantom", "--spec", str(tmp_path / "spec.json"), "--out-ct", out[0], "--out-labels", out[1],
            "--out-tumor", out[2]]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad phantom spec") and err.count("\n") == 1
    assert not any(Path(f).exists() for f in out)


def test_phantom_seed_flag_overlays_the_spec(workdir):
    d = workdir / "seeded"
    d.mkdir()
    (d / "spec.json").write_text(json.dumps({**SPEC, "seed": "not a seed"}))
    rc = run(["phantom", "--spec", str(d / "spec.json"), "--seed", "7", "--out-ct", str(d / "ct.nii"),
              "--out-labels", str(d / "labels.nii"), "--out-tumor", str(d / "tumor.nii")])
    assert rc == 0  # the flag replaces the spec's seed before the spec is checked
    for name in ("ct.nii", "labels.nii", "tumor.nii"):  # workdir's phantom was made with seed 7
        assert (d / name).read_bytes() == (workdir / name).read_bytes()


DEFAULT_JSON = PipelineConfig().to_json()
CONFIG_PATHS = [(key,) for key in DEFAULT_JSON] + [
    (block, key) for block, sub in DEFAULT_JSON.items() if isinstance(sub, dict) for key in sub
]


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES)
def test_any_json_value_at_any_config_key_is_accepted_or_exits_2(tmp_path, capsys, path, value):
    obj = {path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}}
    (tmp_path / "cfg.json").write_text(json.dumps(obj))
    rc = run(["psm", "--config", str(tmp_path / "cfg.json"), "--print-config"])
    out, err = capsys.readouterr()
    assert rc in (0, 2)
    if rc == 0:  # what is accepted prints back as itself
        printed = json.loads(out)
        assert printed == PipelineConfig.from_json(printed).to_json()
    else:
        assert err.startswith("error: ")


@pytest.mark.parametrize("stage", ["ct", "mask"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_voxels_rejected_at_load(workdir, stage, bad, capsys):
    ct, _ = read_volume(workdir / "ct.nii")
    data = ct.data.copy()
    data[3, 4, 5] = bad
    write_volume(VoxelGrid(data, ct.spacing), VolumeMeta.for_grid(ct, "float32"), workdir / "bad.nii")
    if stage == "ct":
        argv = ["ssl-mask", "--ct", str(workdir / "bad.nii"), "--wall", str(workdir / "tumor.nii"),
                "--seed", "1", "--out", str(workdir / "masked.nii")]
    else:  # a float mask file: NaN must not read as True
        argv = ["metrics", "--gt", str(workdir / "bad.nii"), "--pred", str(workdir / "tumor.nii")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "bad.nii" in err and "non-finite" in err
    assert not (workdir / "masked.nii").exists()


@pytest.mark.parametrize(
    "line,problem",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"case_id": "b", "gt": "g.nii"}', "JSON object"),
        ('{"case_id": "b", "pred": "p.nii"}', "JSON object"),
        ('{"gt": "g.nii", "pred": "p.nii"}', "JSON object"),
        ('{"case_id": "b", "gt": 3, "pred": "p.nii"}', "JSON object"),
    ],
)
def test_bad_manifest_line_names_the_line(workdir, line, problem, capsys):
    tumor = str(workdir / "tumor.nii")
    good = json.dumps({"case_id": "a", "gt": tumor, "pred": tumor})
    manifest = workdir / "cases.jsonl"
    manifest.write_text(f"{good}\n\n{line}\n")
    rc = run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "c.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{manifest} line 3:" in err and problem in err
    assert not (workdir / "c.jsonl").exists()


def test_patch_dir_without_image_writes_nothing(workdir):
    rc = run(
        [
            "sample", "--psm", str(workdir / "tumor.nii"), "--count", "2", "--seed", "1",
            "--out", str(workdir / "c.json"), "--patch-dir", str(workdir / "patches"),
        ]
    )
    assert rc == 2
    assert not (workdir / "c.json").exists() and not (workdir / "patches").exists()


def test_huge_repeat_counts_stop_at_the_fixed_point(tmp_path):
    # Any morphology on a 4x8x8 grid is at its fixed point after 4 + 8 + 8 = 20
    # steps, so a count of 10^12 must finish and write the bytes of a count of 20.
    labels = np.zeros((4, 8, 8), dtype=np.uint8)
    labels[1, 2:5, 3:7] = 1
    grid = VoxelGrid(labels, Spacing(2.0, 1.0, 1.0))
    write_volume(grid, VolumeMeta.for_grid(grid), tmp_path / "labels.nii")
    written = {}
    for times in ("1000000000000", "20"):
        ooi, wall = tmp_path / f"ooi{times}.nii", tmp_path / f"wall{times}.nii"
        assert _ooi(tmp_path, ooi.name, times=times) == 0
        argv = ["wall", "--ooi", str(ooi), "--r-out", times, "--r-in", times, "--out", str(wall)]
        assert run(argv) == 0
        written[times] = (ooi.read_bytes(), wall.read_bytes())
    assert written["1000000000000"] == written["20"]
