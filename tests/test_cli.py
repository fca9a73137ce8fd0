import collections
import contextlib
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import anatvox
from anatvox import cli, grid, sampling, volio
from anatvox.cli import PipelineConfig, run
from anatvox.grid import Spacing, VoxelGrid, bounding_box, extract_patch, to_bool
from anatvox.losses import LossConfig, loss_report
from anatvox.maskgen import OrganConfig, bowel_wall, build_ooi
from anatvox.metrics import cohort_lines, seg_metrics
from anatvox.morphology import elem_from_name
from anatvox.phantom import PhantomSpec, gen_phantom
from anatvox.sampling import PatchSpec
from anatvox.sslmask import NoiseSpec, mask_bowel_wall
from anatvox.volio import VolumeMeta, read_volume, write_volume

from conftest import (
    ANISO, ISO, JSON_VALUES, assert_read_once_by_leaf, mask_pairs, mixed_psm, pairwise_leaves, peak_bytes,
    scale_nifti,
)

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


@pytest.mark.parametrize("case", ["directory", "no_parent", "file_parent", "same_path", "same_raw_pair"])
def test_phantom_refuses_an_output_it_cannot_write_before_writing_any(tmp_path, case, capsys):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    out = {"ct": tmp_path / "ct.nii", "labels": tmp_path / "labels.nii", "tumor": tmp_path / "tumor.nii"}
    if case == "directory":
        out["labels"].mkdir()
    elif case == "no_parent":
        out["labels"] = tmp_path / "missing" / "labels.nii"
    elif case == "file_parent":
        (tmp_path / "file").write_text("not a directory\n")
        out["labels"] = tmp_path / "file" / "labels.nii"
    elif case == "same_path":
        out["tumor"] = out["labels"]
    else:  # pair.raw and pair.json are one raw volume's two files
        out["labels"], out["tumor"] = tmp_path / "pair.raw", tmp_path / "pair.json"
    before = sorted(tmp_path.iterdir())
    argv = ["phantom", "--spec", str(tmp_path / "spec.json"), "--out-ct", str(out["ct"]),
            "--out-labels", str(out["labels"]), "--out-tumor", str(out["tumor"])]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out["tumor"] if case.startswith("same") else out["labels"]) in err
    assert sorted(tmp_path.iterdir()) == before  # no ct.nii, no other volume


@pytest.mark.parametrize("stage", ["ooi", "wall", "psm", "ssl-mask"])
def test_a_stage_refuses_an_out_that_is_a_directory(workdir, stage, capsys):
    assert _ooi(workdir, "ooi0.nii", times="0") == 0
    assert run(["wall", "--ooi", str(workdir / "ooi0.nii"), "--out", str(workdir / "wall.nii")]) == 0
    labels, ooi0, wall = (str(workdir / f) for f in ("labels.nii", "ooi0.nii", "wall.nii"))
    inputs = {"ooi": ["--ts", labels, "--word", labels, "--set-ts", "1", "--set-word", "1"],
              "wall": ["--ooi", ooi0],
              "psm": ["--ooi", ooi0, "--tumor", str(workdir / "tumor.nii")],
              "ssl-mask": ["--ct", str(workdir / "ct.nii"), "--wall", wall, "--seed", "1"]}[stage]
    out = workdir / "out.nii"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    before = sorted(workdir.rglob("*"))
    capsys.readouterr()
    assert run([stage, *inputs, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: is a directory\n"
    assert sorted(workdir.rglob("*")) == before and (out / "kept.txt").read_text() == "kept\n"


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


def test_usage_errors_exit_2(workdir, capsys):
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
    # a flag the stage would ignore: --image without --patch-dir, --gt or --pred beside --cohort
    tumor, manifest = str(workdir / "tumor.nii"), workdir / "cases.jsonl"
    manifest.write_text(json.dumps({"case_id": "a", "gt": tumor, "pred": tumor}) + "\n")
    capsys.readouterr()
    for argv in (["sample", "--psm", tumor, "--seed", "1", "--image", str(workdir / "ct.nii")],
                 ["metrics", "--cohort", str(manifest), "--gt", tumor],
                 ["metrics", "--cohort", str(manifest), "--pred", tumor]):
        assert run(argv + ["--out", str(workdir / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (workdir / "out.json").exists()


@pytest.mark.parametrize("flag", ["--jobs", "--pad"])
def test_a_flag_the_stage_would_ignore_exits_2(workdir, flag, capsys):
    # --jobs without --cohort, --pad without --patch-dir
    tumor = str(workdir / "tumor.nii")
    argv = {"--jobs": ["metrics", "--gt", tumor, "--pred", tumor, "--jobs", "3"],
            "--pad": ["sample", "--psm", tumor, "--seed", "1", "--pad", "5"]}[flag]
    capsys.readouterr()
    assert run(argv + ["--out", str(workdir / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1
    assert not (workdir / "out.json").exists()


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


@pytest.mark.parametrize("flag,value,weights", [("--mu", "0", {"mu": 0.0, "lam": 0.5}),
                                                  ("--lambda", "1.5", {"mu": 1.0, "lam": 1.5})])
def test_the_config_and_box_psm_refuse_a_weight_with_one_sentence(workdir, flag, value, weights, capsys):
    mask = np.ones((2, 2, 2), dtype=bool)
    with pytest.raises(ValueError) as refused:
        sampling.box_psm(mask, mask, mask.size, PatchSpec((1, 1, 1)), **weights)
    capsys.readouterr()
    assert run(["psm", "--ooi", str(workdir / "tumor.nii"), "--tumor", str(workdir / "tumor.nii"),
                flag, value, "--out", str(workdir / "psm.nii")]) == 2
    assert capsys.readouterr().err == f"error: bad config: {refused.value}\n"
    assert not (workdir / "psm.nii").exists()


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
    {"intensity": {"wall": [1, 2, 3]}},
    {"seed": 1.5},
    {"seed": "7"},
    {"seed": -1},
    {"dims": [16.9, 96, 96]},
    {"n_distractors": True},
    {"tumor_radius_mm": math.nan},
    {"intensity": {"wall": [math.nan, 0.05]}},
    {"intensity": {"wall": [math.nan, 1]}},
    {"intensity": {"wall": [0, -1]}},
    {"intensity": {"tumor": [0.8, math.inf]}},
    {"dims": [64, 16, 16]},  # the tube does not fit in-plane
    {"dims": [3, 96, 96], "spacing": [1.0, 0.78, 0.78]},  # nor along z
]


@pytest.mark.parametrize("bad", BAD_PHANTOM_SPECS, ids=json.dumps)
def test_bad_phantom_spec_exits_2(bad, tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps(bad))
    out = [str(tmp_path / f) for f in ("ct.nii", "labels.nii", "tumor.nii")]
    argv = ["phantom", "--spec", str(tmp_path / "spec.json"), "--out-ct", out[0], "--out-labels", out[1],
            "--out-tumor", out[2]]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad phantom spec {tmp_path / 'spec.json'}: ") and err.count("\n") == 1
    if isinstance(bad, dict) and isinstance(bad.get("intensity"), dict):  # the message names the bad tissue
        assert all(f"intensity {region}" in err for region in bad["intensity"])
    assert not any(Path(f).exists() for f in out)


STREAM_SPEC = {"dims": [25, 48, 44], "spacing": [2.0, 1.0, 1.0], "tube_radius_mm": 6.0, "wall_thickness_mm": 2.0,
               "tumor_radius_mm": 2.5, "n_distractors": 6, "seed": 11}


@pytest.mark.parametrize("slab", [1, 5000, 48 * 44, 25 * 48 * 44])  # 1 plane, 2 with a last slab of 1, 1, all 25
def test_phantom_stage_streams_the_library_grids(tmp_path, slab):
    (tmp_path / "spec.json").write_text(json.dumps(STREAM_SPEC))
    want = dict(zip(("ct", "labels", "tumor"), gen_phantom(PhantomSpec.from_json(STREAM_SPEC))))
    for name, grid in want.items():
        write_volume(grid, VolumeMeta.for_grid(grid), tmp_path / f"want_{name}.nii")
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        assert run(["phantom", "--spec", str(tmp_path / "spec.json"), "--out-ct", str(tmp_path / "ct.nii"),
                    "--out-labels", str(tmp_path / "labels.nii"), "--out-tumor", str(tmp_path / "tumor.nii")]) == 0
    assert set(np.unique(want["labels"].data)) >= {0, 1, 2} and want["tumor"].data.any()
    for name in want:
        assert (tmp_path / f"{name}.nii").read_bytes() == (tmp_path / f"want_{name}.nii").read_bytes(), name


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


def _loss_argv(workdir, pred):
    return ["loss", "--gt", str(workdir / "tumor.nii"), "--pred", str(pred),
            "--ooi", str(workdir / "tumor.nii"), "--out", str(workdir / "loss.json")]


def _ssl_mask_argv(workdir, ct, out="masked.nii"):
    return ["ssl-mask", "--ct", str(ct), "--wall", str(workdir / "tumor.nii"), "--seed", "4",
            "--out", str(workdir / out)]


def _late_fault_argv(workdir, stage, bad):
    """(argv, output) of ``stage`` reading bad.nii, a float32 input whose last voxel is ``bad``."""
    source = {"loss": "ct", "ssl-mask": "ct", "ooi": "labels"}.get(stage, "tumor")
    grid, _ = read_volume(workdir / f"{source}.nii")
    data = grid.data.astype(np.float32)
    if stage == "loss":
        np.clip(data, 0, 1, out=data)
    data.reshape(-1)[-1] = bad  # the last voxel, in the last run and the last slab read
    write_volume(grid.with_data(data), VolumeMeta("float32"), workdir / "bad.nii")
    if bad == 3e38:  # a scaled float32 CT whose scaling overflows in its last voxel only
        scale_nifti(workdir / "bad.nii", 2.0, 0.0)
    bad_path, d = str(workdir / "bad.nii"), workdir
    return {
        "loss": (_loss_argv(d, bad_path), d / "loss.json"),
        "ssl-mask": (_ssl_mask_argv(d, bad_path), d / "masked.nii"),
        "ssl-mask-band": (["ssl-mask", "--ct", str(d / "ct.nii"), "--wall", bad_path, "--seed", "4",
                           "--out", str(d / "masked.nii")], d / "masked.nii"),
        "ooi": (["ooi", "--ts", str(d / "labels.nii"), "--word", bad_path, "--set-ts", "1", "--set-word", "1",
                 "--out", str(d / "ooi.nii")], d / "ooi.nii"),
        "wall": (["wall", "--ooi", bad_path, "--out", str(d / "wall.nii")], d / "wall.nii"),
        "psm": (["psm", "--ooi", str(d / "tumor.nii"), "--tumor", bad_path, "--out", str(d / "psm.nii")],
                d / "psm.nii"),
        "sample": (["sample", "--psm", bad_path, "--count", "5", "--seed", "1", "--out", str(d / "c.json")],
                   d / "c.json"),
        "metrics": (["metrics", "--gt", str(d / "tumor.nii"), "--pred", bad_path, "--out", str(d / "m.json")],
                    d / "m.json"),
    }[stage]


@pytest.mark.parametrize("stage,bad", [("loss", np.nan), ("loss", 1.5), ("ssl-mask", np.nan), ("ssl-mask", 3e38),
                                       ("ssl-mask-band", np.nan), ("ooi", np.nan), ("wall", np.nan),
                                       ("psm", np.nan), ("sample", np.nan), ("metrics", np.nan)])
@pytest.mark.parametrize("existing", [False, True])
def test_a_fault_in_the_last_run_leaves_no_output(workdir, stage, bad, existing, capsys):
    argv, out = _late_fault_argv(workdir, stage, bad)
    if existing:
        out.write_bytes(b"an earlier run's output\n")
    with mock.patch.object(volio, "SLAB_VOXELS", 4096):  # one z slice a slab, before any halo
        assert run(argv) == 1
    gc.collect()  # a reader left open warns as it is collected, which fails the test
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if bad == 1.5:
        assert "[0, 1]" in err
    else:
        assert "bad.nii" in err and ("overflow float32" if bad == 3e38 else "non-finite") in err
    assert out.read_bytes() == b"an earlier run's output\n" if existing else not out.exists()


@pytest.mark.parametrize("bad,message", [(1.5, "[0, 1]"), (np.nan, "non-finite")])
def test_loss_checks_a_prediction_run_whose_masks_are_empty(tmp_path, bad, message, capsys):
    shape = (4, 16, 27)
    gt = np.zeros(shape, dtype=np.uint8)
    gt[0, 0, :5] = 1  # in the first leaf only, inside the organ's first 64 voxels
    data = np.full(shape, 0.25, dtype=np.float32)
    for name, arr in (("gt", gt), ("ooi", gt | (np.arange(gt.size) < 64).reshape(shape))):
        write_volume(VoxelGrid(arr, ISO), VolumeMeta("uint8"), tmp_path / f"{name}.nii")
    argv = ["loss", "--gt", str(tmp_path / "gt.nii"), "--pred", str(tmp_path / "pred.nii"),
            "--ooi", str(tmp_path / "ooi.nii"), "--out", str(tmp_path / "loss.json")]
    with mock.patch.object(grid, "_PAIRWISE_CHUNK", 128):
        lo, hi = pairwise_leaves(gt.size)[-1]
        assert lo >= 64  # the last leaf's gt and organ runs are empty
        write_volume(VoxelGrid(data, ISO), VolumeMeta("float32"), tmp_path / "pred.nii")
        assert run(argv) == 0  # the same inputs with a good last voxel
        (tmp_path / "loss.json").unlink()
        data.reshape(-1)[hi - 1] = bad
        write_volume(VoxelGrid(data, ISO), VolumeMeta("float32"), tmp_path / "pred.nii")
        capsys.readouterr()
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "loss.json").exists()


@pytest.mark.parametrize("stage", ["ooi", "wall", "ssl-mask", "sample"])
def test_out_may_name_the_stages_input(workdir, stage):
    assert _ooi(workdir, "ooi0.nii", times="0") == 0
    src = workdir / "in.nii"
    src.write_bytes((workdir / {"ooi": "labels.nii", "wall": "ooi0.nii"}.get(stage, "ct.nii")).read_bytes())

    def argv(out):
        return {"ooi": ["ooi", "--ts", str(src), "--word", str(src), "--set-ts", "1", "--set-word", "1"],
                "wall": ["wall", "--ooi", str(src)],
                "ssl-mask": ["ssl-mask", "--ct", str(src), "--wall", str(workdir / "tumor.nii"), "--seed", "4"],
                "sample": _sample_argv(workdir, "--image", str(src), "--patch-dir", str(workdir / f"{out.stem}_patches")),
                }[stage] + ["--out", str(out)]

    with mock.patch.object(volio, "SLAB_VOXELS", 4096):  # one z slice a slab: the input is still read after the first write
        assert run(argv(workdir / "fresh.nii")) == 0
        assert run(argv(src)) == 0
    assert src.read_bytes() == (workdir / "fresh.nii").read_bytes()
    if stage == "sample":  # the patches were cut from the image, not from the centers written over it
        fresh, again = (sorted(p.read_bytes() for p in (workdir / d).iterdir()) for d in ("fresh_patches", "in_patches"))
        assert len(fresh) == 3 and fresh == again


@pytest.mark.parametrize("other", ["shape", "spacing"])
def test_ooi_sources_of_two_geometries_write_nothing(workdir, other, capsys):
    labels, _ = read_volume(workdir / "labels.nii")
    moved = (VoxelGrid(labels.data[1:], labels.spacing) if other == "shape"
             else VoxelGrid(labels.data, Spacing(3.0, 1.0, 1.0)))
    write_volume(moved, VolumeMeta("uint8"), workdir / "other.nii")
    argv = ["ooi", "--ts", str(workdir / "labels.nii"), "--word", str(workdir / "other.nii"),
            "--set-ts", "1", "--set-word", "1", "--out", str(workdir / "ooi.nii")]
    assert run(argv) == 1
    gc.collect()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "geometry mismatch" in err
    assert not (workdir / "ooi.nii").exists()


@contextlib.contextmanager
def _voxels_read():
    """A Counter of the payload voxels each file gives while the block runs, by file name."""
    read, real = collections.Counter(), volio.VolumeReader.read

    def counting(self, lo, hi):
        read[self.path.name] += hi - lo
        return real(self, lo, hi)

    with mock.patch.object(volio.VolumeReader, "read", counting):
        yield read


@pytest.mark.parametrize("datatype,scale", [("int16", None), ("int16", (0.5, -3.0)),
                                            ("float32", None), ("float32", (2.0, 1.0))])
def test_ssl_mask_reads_each_ct_once(workdir, datatype, scale):
    ct, _ = read_volume(workdir / "ct.nii")
    data = np.rint(ct.data * 100).astype(datatype)
    write_volume(ct.with_data(data), VolumeMeta(datatype), workdir / "ct_in.nii")
    if scale:
        scale_nifti(workdir / "ct_in.nii", *scale)
    with mock.patch.object(volio, "SLAB_VOXELS", 5000), _voxels_read() as read:
        assert run(_ssl_mask_argv(workdir, workdir / "ct_in.nii")) == 0
    assert read == {"ct_in.nii": data.size, "tumor.nii": data.size}
    band, _ = read_volume(workdir / "tumor.nii")
    ct_in, _ = read_volume(workdir / "ct_in.nii")
    want = mask_bowel_wall(ct_in, band.with_data(band.data != 0), NoiseSpec(), 4)
    assert read_volume(workdir / "masked.nii")[0].data.tobytes() == want.data.astype(np.float32).tobytes()


def test_loss_reads_each_input_once_in_runs_that_tile_the_grid(workdir):
    # 8 pairwise leaves of 12288 voxels, each read as its own run from each input
    with mock.patch.object(volio.VolumeReader, "read", autospec=True, side_effect=volio.VolumeReader.read) as calls:
        assert run(_loss_argv(workdir, workdir / "tumor.nii")) == 0
    runs = collections.defaultdict(list)
    for call in calls.call_args_list:
        src, lo, hi = call.args
        runs[id(src)].append((lo, hi))
    assert len(runs) == 3  # gt, prediction and organ
    for r in runs.values():
        assert_read_once_by_leaf(r, math.prod(SPEC["dims"]))
    tumor, _ = read_volume(workdir / "tumor.nii")
    want = loss_report(to_bool(tumor), tumor, to_bool(tumor), LossConfig())
    assert json.loads((workdir / "loss.json").read_text()) == want


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 5), st.integers(1, 6)),
       elem=st.sampled_from(["face6", "full26"]), codes=st.integers(2, 6),
       density=st.sampled_from([0.02, 0.3, 0.7, 0.95]), r_out=st.integers(0, 3), r_in=st.integers(0, 3),
       ct_type=st.sampled_from(["int16", "float32"]), slab=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_slab_stages_write_the_whole_grid_kernels(tmp_path, shape, elem, codes, density, r_out, r_in,
                                                  ct_type, slab, seed, data):
    times = data.draw(st.integers(0, shape[0] + 2), label="dilate_times")  # halos reach both ends
    rng = np.random.default_rng(seed)
    spacing = Spacing(2.0, 1.0, 1.0)
    # labels off a ``density`` share of voxels are 0, so a sparse case leaves slabs whose OOI is empty or tiny
    ts, word = (VoxelGrid((rng.integers(0, codes, shape) * (rng.random(shape) < density)).astype(np.uint8), spacing)
                for _ in range(2))
    mask = VoxelGrid(rng.random(shape) < density, spacing)
    ct = VoxelGrid((rng.standard_normal(shape) * 300).astype(ct_type), spacing)
    for name, grid in (("ts", ts), ("word", word), ("mask", mask), ("ct", ct)):
        write_volume(grid, VolumeMeta.for_grid(grid), tmp_path / f"{name}.nii")
    cfg = OrganConfig(set_ts={1}, set_word={1, 2}, dilate_times=times, elem=elem_from_name(elem))
    # several slabs, and planes of up to 30 voxels that exceed a slab of fewer
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        assert run(["ooi", "--ts", str(tmp_path / "ts.nii"), "--word", str(tmp_path / "word.nii"),
                    "--set-ts", "1", "--set-word", "1,2", "--dilate-times", str(times), "--elem", elem,
                    "--out", str(tmp_path / "ooi.nii")]) == 0
        assert run(["wall", "--ooi", str(tmp_path / "mask.nii"), "--elem", elem, "--r-out", str(r_out),
                    "--r-in", str(r_in), "--out", str(tmp_path / "wall.nii")]) == 0
        assert run(["ssl-mask", "--ct", str(tmp_path / "ct.nii"), "--wall", str(tmp_path / "mask.nii"),
                    "--seed", str(seed), "--out", str(tmp_path / "ssl-mask.nii")]) == 0
    for name, want, datatype in (("ooi", build_ooi(ts, word, cfg), "uint8"),
                                 ("wall", bowel_wall(mask, cfg.elem, r_out, r_in), "uint8"),
                                 ("ssl-mask", mask_bowel_wall(ct, mask, NoiseSpec(), seed), "float32")):
        got, meta = read_volume(tmp_path / f"{name}.nii")
        assert meta.datatype == datatype and got.data.tobytes() == want.data.astype(datatype).tobytes(), name


@pytest.mark.parametrize("datatype", ["uint8", "int16", "int32"])
def test_an_integer_ct_is_masked_as_mask_bowel_wall_then_float32(workdir, datatype):
    ct, _ = read_volume(workdir / "ct.nii")
    info = np.iinfo(datatype)
    data = np.clip(np.rint(ct.data * 0.4 * info.max), info.min, info.max).astype(datatype)
    write_volume(ct.with_data(data), VolumeMeta(datatype), workdir / "ct_int.nii")
    with mock.patch.object(volio, "SLAB_VOXELS", 5000):  # slabs that split z slices unevenly
        assert run(_ssl_mask_argv(workdir, workdir / "ct_int.nii")) == 0
    band, _ = read_volume(workdir / "tumor.nii")
    want = mask_bowel_wall(ct.with_data(data), band.with_data(band.data != 0), NoiseSpec(), 4)
    got, meta = read_volume(workdir / "masked.nii")
    assert meta.datatype == "float32" and band.data.any()
    assert got.data.tobytes() == want.data.astype(np.float32).tobytes()
    assert run(_ssl_mask_argv(workdir, workdir / "ct_int.nii", "masked.raw")) == 0  # one slab
    assert (workdir / "masked.raw").read_bytes() == got.data.tobytes()


@pytest.mark.parametrize(
    "line,problem",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"case_id": "b", "gt": "g.nii"}', "JSON object"),
        ('{"case_id": "b", "pred": "p.nii"}', "JSON object"),
        ('{"gt": "g.nii", "pred": "p.nii"}', "JSON object"),
        ('{"case_id": "b", "gt": 3, "pred": "p.nii"}', "JSON object"),
        ('{"case_id": "mean", "gt": "g.nii", "pred": "p.nii"}', "case_id 'mean' is the name of the report's aggregate row"),
        ('{"case_id": "a", "gt": "g.nii", "pred": "p.nii"}', "case_id 'a' repeats line 1"),
        ('{"case_id": "1", "gt": "g.nii", "pred": "p.nii"}', "case_id '1' repeats line 2"),
    ],
)
def test_bad_manifest_line_names_the_line(workdir, line, problem, capsys):
    tumor = str(workdir / "tumor.nii")
    good = [json.dumps({"case_id": case_id, "gt": tumor, "pred": tumor}) for case_id in ("a", 1)]  # 1 is no repeat of "a"
    manifest = workdir / "cases.jsonl"
    manifest.write_text(f"{good[0]}\n{good[1]}\n\n{line}\n")
    rc = run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "c.jsonl")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{manifest} line 4:" in err and problem in err
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


def _sample_argv(workdir, *extra):
    return ["sample", "--psm", str(workdir / "tumor.nii"), "--count", "3", "--seed", "1", *extra]


@pytest.mark.parametrize("pad", ["-1", "300", "0.5", "1e300"])
def test_pad_the_image_dtype_cannot_hold_exits_1(workdir, pad, capsys):
    argv = _sample_argv(workdir, "--out", str(workdir / "c.json"), "--image", str(workdir / "labels.nii"),
                        "--patch-dir", str(workdir / "patches"), "--patch-size", "4,8,8", "--pad", pad)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "uint8" in err
    assert not (workdir / "c.json").exists() and not (workdir / "patches").exists()


@pytest.mark.parametrize("pad", ["nan", "inf", "-inf"])
def test_non_finite_pad_exits_2(workdir, pad):
    argv = _sample_argv(workdir, "--out", str(workdir / "c.json"), "--image", str(workdir / "ct.nii"),
                        "--patch-dir", str(workdir / "patches"), f"--pad={pad}")
    assert run(argv) == 2
    assert not (workdir / "c.json").exists() and not (workdir / "patches").exists()


def test_uint8_image_is_padded_with_a_value_it_holds(workdir):
    # patches as tall as the grid hang over its z faces, so every patch holds pad voxels
    argv = _sample_argv(workdir, "--out", str(workdir / "c.json"), "--image", str(workdir / "labels.nii"),
                        "--patch-dir", str(workdir / "patches"), "--patch-size", "48,8,8", "--pad", "7")
    assert run(argv) == 0
    for path in sorted((workdir / "patches").iterdir()):
        patch, _ = read_volume(path)
        assert np.any(patch.data == 7.0)


def _write_int32_ct_and_band(d, last):
    """ct.nii, an int32 3x4x5 image of 2**25 + 4 (a float32) whose last voxel is ``last``; band.nii, one voxel."""
    data = np.full((3, 4, 5), 2**25 + 4, dtype=np.int32)
    data.reshape(-1)[-1] = last
    band = np.zeros(data.shape, dtype=np.uint8)
    band[1, 2, 3] = 1
    for name, a in (("ct", data), ("band", band)):
        grid = VoxelGrid(a, Spacing(2.0, 1.0, 1.0))
        write_volume(grid, VolumeMeta.for_grid(grid), d / f"{name}.nii")


@pytest.mark.parametrize("last", [16777217, -16777217, 2**31 - 1])
def test_ssl_mask_refuses_an_int32_ct_that_float32_would_round(tmp_path, capsys, last):
    _write_int32_ct_and_band(tmp_path, last)
    argv = ["ssl-mask", "--ct", str(tmp_path / "ct.nii"), "--wall", str(tmp_path / "band.nii"), "--seed", "4",
            "--out", str(tmp_path / "masked.nii")]
    with mock.patch.object(volio, "SLAB_VOXELS", 20):  # the voxel is in the last of three slabs
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'ct.nii'}: ") and err.count("\n") == 1 and "float32" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.nii", "ct.nii"]


@pytest.mark.parametrize("last, pad", [(16777217, "0"), (16777216, "16777217")])
def test_sample_refuses_int32_voxels_or_a_pad_that_float32_would_round(tmp_path, capsys, last, pad):
    _write_int32_ct_and_band(tmp_path, last)
    argv = ["sample", "--psm", str(tmp_path / "band.nii"), "--count", "3", "--seed", "1",
            "--out", str(tmp_path / "c.json"), "--image", str(tmp_path / "ct.nii"),
            "--patch-dir", str(tmp_path / "patches"), "--patch-size", "1,2,2", "--pad", pad]
    with mock.patch.object(volio, "SLAB_VOXELS", 20):
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "float32" in err
    assert (str(tmp_path / "ct.nii") in err) == (pad == "0")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["band.nii", "ct.nii"]


# 2**59 float64 uniforms are 4 EiB, beyond any address space, so the allocation
# fails at once (MemoryError) whatever the overcommit policy; from 2**60 on numpy
# refuses the size before it allocates (ValueError).
@pytest.mark.parametrize("count", [2**59, 2**61])
def test_unallocatable_count_exits_1_with_one_line(workdir, count, capsys):
    assert run(["sample", "--psm", str(workdir / "tumor.nii"), "--count", str(count), "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _centers_text(count, seed, centers) -> str:
    payload = {"count": count, "seed": seed, "centers": centers.tolist()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    centers=arrays(np.int64, st.tuples(st.integers(1, 64), st.just(3)), elements=st.integers(0, 10**6)),
    seed=st.integers(0, 2**70),
)
def test_centers_text_is_the_json_dumps_text(tmp_path, capsys, centers, seed):
    psm = VoxelGrid(np.ones((2, 3, 4), dtype=np.float32), Spacing(1.0, 1.0, 1.0))
    write_volume(psm, VolumeMeta.for_grid(psm), tmp_path / "psm.nii")
    argv = ["sample", "--psm", str(tmp_path / "psm.nii"), "--count", str(len(centers)), "--seed", str(seed)]
    capsys.readouterr()
    with mock.patch.object(sampling, "draw_centers", return_value=centers):
        assert run([*argv, "--out", str(tmp_path / "c.json")]) == 0
        assert run(argv) == 0
    want = _centers_text(len(centers), seed, centers)
    assert (tmp_path / "c.json").read_bytes() == want.encode()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7])
def test_centers_text_written_in_chunks_is_the_json_dumps_text(tmp_path, capsys, count):
    centers = np.arange(3 * count).reshape(count, 3) * 997
    psm = VoxelGrid(np.ones((2, 3, 4), dtype=np.float32), Spacing(1.0, 1.0, 1.0))
    write_volume(psm, VolumeMeta.for_grid(psm), tmp_path / "psm.nii")
    argv = ["sample", "--psm", str(tmp_path / "psm.nii"), "--count", str(count), "--seed", "6"]
    capsys.readouterr()
    with mock.patch.object(cli, "_CENTER_CHUNK", 2), mock.patch.object(sampling, "draw_centers", return_value=centers):
        assert run([*argv, "--out", str(tmp_path / "c.json")]) == 0
        assert run(argv) == 0
    want = _centers_text(count, 6, centers)
    assert (tmp_path / "c.json").read_bytes() == want.encode()
    assert capsys.readouterr().out == want


def test_drawn_centers_text_is_the_json_dumps_text(workdir, capsys):
    argv = ["sample", "--psm", str(workdir / "labels.nii"), "--count", "500", "--seed", "9"]
    assert run(argv) == 0
    text = capsys.readouterr().out
    centers = np.array(json.loads(text)["centers"])
    assert centers.shape == (500, 3) and text == _centers_text(500, 9, centers)


@pytest.mark.parametrize("fill", [-1.0 / 64, 0.0])
def test_map_without_a_positive_distribution_exits_1(tmp_path, fill, capsys):
    # a map of negative voxels would turn positive when divided by its negative sum
    psm = VoxelGrid(np.full((4, 4, 4), fill, dtype=np.float32), Spacing(1.0, 1.0, 1.0))
    write_volume(psm, VolumeMeta.for_grid(psm), tmp_path / "psm.nii")
    argv = ["sample", "--psm", str(tmp_path / "psm.nii"), "--seed", "1", "--out", str(tmp_path / "c.json")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "psm.nii" in err
    assert not (tmp_path / "c.json").exists()


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(anatvox.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "anatvox.cli", "sample"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("error: missing required arguments")


def test_sample_stage_widens_the_map_one_slab_at_a_time(tmp_path):
    shape = (128, 128, 128)  # 8 slabs of the draw
    psm = VoxelGrid(np.random.default_rng(4).random(shape, dtype=np.float32), Spacing(1.0, 1.0, 1.0))
    write_volume(psm, VolumeMeta.for_grid(psm), tmp_path / "psm.nii")
    del psm
    argv = ["sample", "--psm", str(tmp_path / "psm.nii"), "--count", "1000", "--seed", "1", "--out", str(tmp_path / "c.json")]
    status, peak = peak_bytes(run, argv)
    assert status == 0
    # one 2^20-voxel float32 slab of the map for the sum (2 B/voxel here), or one float64 slab of the
    # cdf and its run (1.5 B/voxel), and the per-draw arrays (2.1 in all); the float32 map held whole
    # would add 4 B/voxel, a full float64 copy of it 8 B/voxel
    assert peak < 3 * math.prod(shape)


@pytest.mark.parametrize("image", ["nan", "wrong_dims", "nan_last"])
def test_a_bad_image_leaves_no_centers_or_patches(workdir, image, capsys):
    ct, _ = read_volume(workdir / "ct.nii")
    data = ct.data.copy()
    data[(-1, -1, -1) if image == "nan_last" else (3, 4, 5)] = np.nan
    bad = ct.with_data(ct.data[:-1] if image == "wrong_dims" else data)  # or one z slice short
    write_volume(bad, VolumeMeta.for_grid(bad), workdir / "bad.nii")
    argv = _sample_argv(workdir, "--out", str(workdir / "c.json"), "--image", str(workdir / "bad.nii"),
                        "--patch-dir", str(workdir / "patches"))
    with mock.patch.object(volio, "SLAB_VOXELS", 4096):  # one z slice a slab: the last NaN is in the last run
        assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "bad.nii" in err
    assert not (workdir / "c.json").exists() and not (workdir / "patches").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("problem", ["spacing", "missing"])
def test_a_failing_cohort_case_names_its_line_and_case(workdir, problem, jobs, capsys):
    tumor, _ = read_volume(workdir / "tumor.nii")
    coarse = VoxelGrid(tumor.data, Spacing(9.0, 1.0, 1.0))
    write_volume(coarse, VolumeMeta.for_grid(coarse), workdir / "coarse.nii")
    bad = {"spacing": str(workdir / "coarse.nii"), "missing": str(workdir / "absent.nii")}
    other = bad["missing" if problem == "spacing" else "spacing"]

    def case(case_id, pred):
        return json.dumps({"case_id": case_id, "gt": str(workdir / "tumor.nii"), "pred": pred})

    manifest = workdir / "cases.jsonl"
    # both later cases fail; the report names the first of them in manifest order
    manifest.write_text("\n".join([case("a", str(workdir / "tumor.nii")), "", case("b", bad[problem]),
                                   case("c", other)]) + "\n")
    assert run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "c.jsonl"), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest} line 3 (b): ") and err.count("\n") == 1
    assert ("grid geometry mismatch" if problem == "spacing" else "absent.nii") in err
    assert not (workdir / "c.jsonl").exists()


def test_metrics_refuses_a_spacing_whose_distances_overflow(tmp_path, capsys):
    # raw sidecars carry any finite spacing; squared z distances of 1e300 mm overflow float64
    gt = np.zeros((3, 4, 5), dtype=np.uint8)
    gt[0, 1, 1] = gt[2, 2, 3] = 1
    for name, data in (("gt", gt), ("pred", np.roll(gt, 1, axis=2))):
        write_volume(VoxelGrid(data, Spacing(1e300, 1.0, 1.0)), VolumeMeta("uint8"), tmp_path / f"{name}.raw")
    manifest = tmp_path / "cases.jsonl"
    manifest.write_text(json.dumps({"case_id": "far", "gt": str(tmp_path / "gt.raw"),
                                    "pred": str(tmp_path / "pred.raw")}) + "\n")
    capsys.readouterr()
    for argv in (["--gt", str(tmp_path / "gt.raw"), "--pred", str(tmp_path / "pred.raw")],
                 ["--cohort", str(manifest)]):
        assert run(["metrics", *argv, "--out", str(tmp_path / "report.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "spacing (1e+300, 1.0, 1.0) mm" in err and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()


def test_empty_cohort_leaves_no_report(workdir, capsys):
    manifest = workdir / "cases.jsonl"
    manifest.write_text("\n")
    assert run(["metrics", "--cohort", str(manifest), "--out", str(workdir / "c.jsonl")]) == 1
    assert capsys.readouterr().err == "error: cohort is empty\n"
    assert not (workdir / "c.jsonl").exists()


@pytest.mark.parametrize("patch_dir", ["patches", "patches/sub"])
def test_patch_dir_that_is_a_file_leaves_no_centers(workdir, patch_dir, capsys):
    (workdir / "patches").write_text("not a directory\n")
    argv = _sample_argv(workdir, "--out", str(workdir / "c.json"), "--image", str(workdir / "ct.nii"),
                        "--patch-dir", str(workdir / patch_dir))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "patches" in err
    assert not (workdir / "c.json").exists()


def _write_masks(d: Path, masks) -> list[Path]:
    """Two masks written as uint8 volumes a.nii and b.nii under ``d``."""
    paths = [d / "a.nii", d / "b.nii"]
    for path, mask in zip(paths, masks):
        grid = VoxelGrid(mask.astype(np.uint8), ANISO)
        write_volume(grid, VolumeMeta.for_grid(grid), path)
    return paths


def _psm_stage_and_mixed_psm_bytes(d: Path, ooi, tumor, spec: PatchSpec, mu, lam, slab) -> tuple[bytes, bytes]:
    """(what the psm stage writes with ``SLAB_VOXELS = slab``, ``mixed_psm``'s grid written whole)."""
    ooi_path, tumor_path = _write_masks(d, (ooi, tumor))
    argv = ["psm", "--ooi", str(ooi_path), "--tumor", str(tumor_path), "--mu", repr(mu),
            "--lambda", repr(lam), "--patch-size", ",".join(map(str, spec.size)), "--out", str(d / "psm.nii")]
    with mock.patch.object(volio, "SLAB_VOXELS", slab):
        assert run(argv + ["--sigma-is-stddev"] * spec.sigma_is_stddev) == 0
    want = mixed_psm(VoxelGrid(ooi, ANISO), VoxelGrid(tumor, ANISO), spec, mu, lam)
    write_volume(want, VolumeMeta("float32"), d / "want.nii")
    return (d / "psm.nii").read_bytes(), (d / "want.nii").read_bytes()


@settings(max_examples=100)
@given(
    masks=mask_pairs(),
    size=st.tuples(*[st.integers(1, 30)] * 3),
    stddev=st.booleans(),
    lam=st.sampled_from([0.0, 0.33, 1.0]),
    mu=st.sampled_from([0.3, 1.0]),
    slab=st.sampled_from([1, 40, 10**6]),  # one plane, a few planes, the whole grid
)
def test_psm_stage_writes_mixed_psm_bitwise(masks, size, stddev, lam, mu, slab):
    # patch radii reach up to 15 voxels, past every axis of the grid
    with tempfile.TemporaryDirectory() as d:
        got, want = _psm_stage_and_mixed_psm_bytes(Path(d), *masks, PatchSpec(size, stddev), mu, lam, slab)
    assert got == want


@settings(max_examples=100)
@given(masks=mask_pairs(), grow=st.tuples(*[st.integers(0, 13)] * 3), slab=st.sampled_from([1, 40, 10**6]))
def test_union_box_reads_the_bounding_box_of_the_union(masks, grow, slab):
    with tempfile.TemporaryDirectory() as d:
        paths = _write_masks(Path(d), masks)
        with cli._MaskStream(paths[0]) as a, cli._MaskStream(paths[1]) as b, \
                mock.patch.object(volio, "SLAB_VOXELS", slab):
            box, crops = cli._read_union_box((a, b), grow)
    want = bounding_box(masks[0] | masks[1], grow) or (slice(0, 0),) * 3  # an empty union, an empty box
    assert box == want
    for crop, mask in zip(crops, masks):
        assert crop.dtype == np.bool_ and np.array_equal(crop, mask[want])


@settings(max_examples=100)
@given(masks=mask_pairs(), slab=st.sampled_from([1, 40, 10**6]))
def test_metrics_stage_reports_seg_metrics_of_the_whole_grids(masks, slab):
    # either mask, or both, may be empty
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        gt, pred = _write_masks(d, masks)
        (d / "cases.jsonl").write_text(json.dumps({"case_id": "a", "gt": str(gt), "pred": str(pred)}) + "\n")
        with mock.patch.object(volio, "SLAB_VOXELS", slab):
            assert run(["metrics", "--gt", str(gt), "--pred", str(pred), "--out", str(d / "m.json")]) == 0
            assert run(["metrics", "--cohort", str(d / "cases.jsonl"), "--out", str(d / "c.jsonl")]) == 0
        want = seg_metrics(*(to_bool(read_volume(p)[0]) for p in (gt, pred)))  # the spacing as stored
        assert (d / "m.json").read_text() == json.dumps(want.as_dict(), indent=2, sort_keys=True) + "\n"
        assert (d / "c.jsonl").read_text() == "\n".join(cohort_lines([("a", want)])) + "\n"


# (ooi voxels, tumor voxels, patch size) on a 7x6x5 grid
_PSM_EDGES = {
    "empty_union": ([], [], (3, 3, 3)),
    "z_faces": ([(0, 2, 2)], [(6, 3, 1)], (3, 2, 2)),  # the union runs from the first plane to the last
    "huge_patch": ([(3, 1, 2), (3, 2, 2)], [(2, 4, 4)], (31, 30, 29)),
}


@pytest.mark.parametrize("slab", [1, 30, 10**6])
@pytest.mark.parametrize("case", _PSM_EDGES)
def test_psm_stage_writes_mixed_psm_bitwise_at_the_edges(tmp_path, case, slab):
    masks = [np.zeros((7, 6, 5), dtype=bool) for _ in range(2)]
    for mask, voxels in zip(masks, _PSM_EDGES[case]):
        for v in voxels:
            mask[v] = True
    got, want = _psm_stage_and_mixed_psm_bytes(tmp_path, *masks, PatchSpec(_PSM_EDGES[case][2]), 1.0, 0.33, slab)
    assert got == want


@st.composite
def patch_cases(draw):
    """(image shape, patch size, centers): sizes odd, even or taller than the grid, centers often on a border."""
    shape = draw(st.tuples(*[st.integers(1, 9)] * 3))
    size = tuple(draw(st.integers(1, 2 * n + 3)) for n in shape)
    coord = [st.sampled_from([0, n - 1]) | st.integers(0, n - 1) for n in shape]
    centers = draw(st.lists(st.tuples(*coord), min_size=1, max_size=12))
    return shape, size, np.array(centers, dtype=np.int64)


@settings(max_examples=100)
@given(case=patch_cases(), dtype=st.sampled_from([np.float32, np.int16]), slab=st.sampled_from([1, 60, 10**6]))
def test_each_swept_patch_is_extract_patch_on_the_whole_image(case, dtype, slab):
    shape, size, centers = case
    image = VoxelGrid(np.random.default_rng(len(centers)).integers(-99, 99, shape).astype(dtype), ANISO)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        psm = image.with_data(np.ones(shape, dtype=np.float32))
        write_volume(psm, VolumeMeta.for_grid(psm), d / "psm.nii")
        write_volume(image, VolumeMeta.for_grid(image), d / "image.nii")
        image, _ = read_volume(d / "image.nii")  # its spacing as stored
        argv = ["sample", "--psm", str(d / "psm.nii"), "--count", str(len(centers)), "--seed", "1",
                "--out", str(d / "c.json"), "--image", str(d / "image.nii"), "--patch-dir", str(d / "patches"),
                "--patch-size", ",".join(map(str, size)), "--pad", "-7"]
        with mock.patch.object(volio, "SLAB_VOXELS", slab), \
                mock.patch.object(sampling, "draw_centers", return_value=centers):
            assert run(argv) == 0
        assert len(list((d / "patches").iterdir())) == len(centers)
        for i, c in enumerate(centers):
            got, _ = read_volume(d / "patches" / f"patch_{i:04d}.nii")
            want = extract_patch(image, c, size, pad=-7)
            assert got.spacing == want.spacing
            assert np.array_equal(got.data, want.data.astype(np.float32))


def _json_input_argv(workdir, which, path, out):
    tumor = str(workdir / "tumor.nii")
    return {
        "config": ["wall", "--config", str(path), "--ooi", tumor, "--out", str(out / "wall.nii")],
        "spec": ["phantom", "--spec", str(path), "--out-ct", str(out / "ct.nii"),
                 "--out-labels", str(out / "labels.nii"), "--out-tumor", str(out / "tumor.nii")],
        "manifest": ["metrics", "--cohort", str(path), "--out", str(out / "c.jsonl")],
    }[which]


_UNDECODABLE = {"non-utf8": b'{"seed": "\xff"}', "deep-nesting": b"[" * 100000 + b"]" * 100000}
_UNDECODABLE_CASES = {f"{name}-{which}": (which, content) for name, content in _UNDECODABLE.items()
                      for which in ("config", "spec", "manifest")}
_UNDECODABLE_CASES["directory-config"] = ("config", None)  # an unreadable spec or manifest exits 1


@pytest.mark.parametrize("which,content", _UNDECODABLE_CASES.values(), ids=_UNDECODABLE_CASES.keys())
def test_undecodable_json_input_exits_2_naming_the_file(workdir, which, content, capsys):
    path, out = workdir / f"{which}.json", workdir / "out"
    out.mkdir()
    if content is None:
        path.mkdir()
    elif which == "manifest":  # the bad record follows a good one
        tumor = str(workdir / "tumor.nii")
        path.write_bytes(json.dumps({"case_id": "a", "gt": tumor, "pred": tumor}).encode() + b"\n" + content)
    else:
        path.write_bytes(content)
    assert run(_json_input_argv(workdir, which, path, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (f"{path} line 2:" if which == "manifest" else str(path)) in err
    assert not any(out.iterdir())


_STAGE_SHAPE = (64, 128, 128)  # 1 Mvox, so the fixed cost of a run is under 0.5 B/voxel


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """A phantom spec; label, CT, ground-truth, tumor and prediction volumes, the ooi stage's two masks, a wall band
    and a map."""
    d = tmp_path_factory.mktemp("stages")
    labels = np.zeros(_STAGE_SHAPE, dtype=np.uint8)
    labels[:, 20:60, 20:60] = 1
    labels[:, 70:90, 30:50] = 2
    tumor = np.zeros(_STAGE_SHAPE, dtype=np.uint8)
    tumor[28:36, 60:68, 60:68] = 1  # its box grown by the patch radii is 4% of the grid
    rng = np.random.default_rng(5)
    arrays = {"labels": labels, "gt": (labels == 1).astype(np.uint8), "tumor": tumor,
              "ct": rng.standard_normal(_STAGE_SHAPE, dtype=np.float32),
              "pred": rng.random(_STAGE_SHAPE, dtype=np.float32)}
    for name, data in arrays.items():
        grid = VoxelGrid(data, Spacing(2.0, 1.0, 1.0))
        write_volume(grid, VolumeMeta.for_grid(grid), d / f"{name}.nii")
    (d / "spec.json").write_text(json.dumps({"dims": list(_STAGE_SHAPE), "spacing": [2.0, 1.0, 1.0], "seed": 3}))
    for out, times in (("ooi", "3"), ("ooi0", "0")):
        assert run(["ooi", "--ts", str(d / "labels.nii"), "--word", str(d / "labels.nii"), "--set-ts", "1",
                    "--set-word", "1,2", "--dilate-times", times, "--out", str(d / f"{out}.nii")]) == 0
    assert run(["wall", "--ooi", str(d / "ooi0.nii"), "--out", str(d / "band.nii")]) == 0
    assert run(["psm", "--ooi", str(d / "tumor.nii"), "--tumor", str(d / "tumor.nii"), "--out", str(d / "psm.nii")]) == 0
    return d


# Per stage: its argv and a bound on its traced peak in B/voxel, between this
# version's peak (in the comment) and the peak of the version that held each input whole.
_STAGE_PEAKS = {
    # per z slab: the float32 CT slab, its label and tumor slabs and the float64 distances on the
    # tube's box cut to the slab (0.92; was 7.92 holding the three grids whole, 6 B/voxel of
    # outputs, plus the noise draws and the distances on the whole tube box)
    "phantom": (["phantom", "--spec", "{d}/spec.json", "--out-ct", "{d}/ph_ct.nii", "--out-labels", "{d}/ph_labels.nii",
                 "--out-tumor", "{d}/ph_tumor.nii"], 2.0),
    # per z slab with its 3-plane halos: two uint8 label slabs, the union and one bool
    # temporary, then one dilation scratch slab (1.23); the whole grids reached 4.1, and
    # isin, the dilation's copies and the uint8 write's copy 8.1
    "ooi": (["ooi", "--ts", "{d}/labels.nii", "--word", "{d}/labels.nii", "--set-ts", "1",
             "--set-word", "1,2", "--dilate-times", "3", "--out", "{d}/ooi_again.nii"], 2.0),
    # per z slab with its 1-plane halos: the mask read in place, the dilated and eroded
    # slabs and one scratch slab (0.49; was 4.1 on the whole grid, 5.1 with a copy)
    "wall": (["wall", "--ooi", "{d}/ooi0.nii", "--out", "{d}/wall.nii"], 1.0),
    # one CT slab filled in place, its band slab and its draws (0.43; was 1.62 holding the
    # whole band, 5.5 holding the whole float32 CT, 9.5 with a copy of it)
    "ssl-mask": (["ssl-mask", "--ct", "{d}/ct.nii", "--wall", "{d}/band.nii", "--seed", "5",
                  "--out", "{d}/masked.nii"], 1.0),
    # one pairwise run of each mask and of the float32 prediction, and its float64 temporaries (0.50; 0.61
    # while one entry's float64 run and logs were still held as the next entry widened the run, 0.90 holding
    # one slab of each input, 2.59 holding the masks whole, 6.4 holding the prediction whole)
    "loss": (["loss", "--gt", "{d}/gt.nii", "--pred", "{d}/pred.nii", "--ooi", "{d}/ooi.nii",
              "--out", "{d}/loss.json"], 0.75),
    # one slab of each mask, then both masks cropped to the union's box and the float64 maps and
    # gain passes on that box, then one float32 slab of the map (1.74; was 6.97 holding both masks,
    # their union and the float32 map whole)
    "psm": (["psm", "--ooi", "{d}/tumor.nii", "--tumor", "{d}/tumor.nii", "--out", "{d}/psm_again.nii"], 3.0),
    # the same with the dilated labels as the OOI, whose box, grown by the patch radii, is half the grid and
    # holds the 8x8x8 tumor: the crops, the organ's float64 map on the union box and the tumor's gain on its
    # own box (6.62; was 10.81 with the tumor's map on the union box too)
    "psm-tumor-box": (["psm", "--ooi", "{d}/ooi.nii", "--tumor", "{d}/tumor.nii", "--out", "{d}/psm_tb.nii"], 8.5),
    # one slab of each mask, then both masks cropped to the box of gt | pred, then per surface box its
    # distances along x and the lower-envelope pass along z, scored along y at the other surface's voxels
    # only (7.51; was 9.08 holding both masks whole, 9.12 building each full box EDT)
    "metrics": (["metrics", "--gt", "{d}/gt.nii", "--pred", "{d}/ooi.nii", "--out", "{d}/metrics.json"], 8.0),
    # the same on an 8x8x8 tumor box: one slab of each mask, then the two box crops
    # (0.22; was 3.08 holding both masks whole)
    "metrics-box": (["metrics", "--gt", "{d}/tumor.nii", "--pred", "{d}/tumor.nii", "--out", "{d}/mbox.json"], 1.0),
    # one pairwise run of the map for the sum, then the draw's fixed 2 MB float64 buffer and the
    # 1 MB run read into it, which set the peak (3.12; 3.12 too summing one map slab at a time,
    # 6.12 holding the map whole)
    "sample": (["sample", "--psm", "{d}/psm.nii", "--count", "1000", "--seed", "1", "--out", "{d}/c.json"], 4.5),
    # the draw above sets it; the check pass reads one image slab, the sweep one slab with its
    # patch-radius halo planes (1.2) and a patch (3.08; was 8.21 holding the map and the image whole)
    "sample-patches": (["sample", "--psm", "{d}/psm.nii", "--count", "64", "--seed", "1", "--out", "{d}/pc.json",
                        "--image", "{d}/ct.nii", "--patch-dir", "{d}/patches"], 4.5),
}


@pytest.mark.parametrize("stage", _STAGE_PEAKS)
def test_stage_holds_one_copy_of_each_input(stage_inputs, stage):
    argv, bound = _STAGE_PEAKS[stage]
    with mock.patch.object(volio, "SLAB_VOXELS", 1 << 16):  # 16 slabs, as a CT-sized grid has dozens
        status, peak = peak_bytes(run, [a.format(d=stage_inputs) for a in argv])
    assert status == 0
    assert peak < bound * math.prod(_STAGE_SHAPE)


def _finite_or_refused(rc: int, err: str, d: Path, inputs, outs) -> None:
    """Exit 0 with only finite voxels in every output, or exit 1 with one ``error:`` line and no output file."""
    if rc == 0:
        assert err == ""
        for out in outs:
            assert np.isfinite(read_volume(out)[0].data).all()
    else:
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in d.iterdir()) == sorted(inputs)


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(masks=mask_pairs(), mu=st.floats(5e-324, 1e308))
def test_psm_at_any_mu_writes_a_finite_map_or_refuses(capsys, masks, mu):
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        a, b = _write_masks(d, masks)
        rc = run(["psm", "--ooi", str(a), "--tumor", str(b), "--mu", repr(mu), "--out", str(d / "psm.nii")])
        err = capsys.readouterr().err
        _finite_or_refused(rc, err, d, ["a.nii", "b.nii"], [d / "psm.nii"])
        if rc == 1:
            assert "mu" in err and (masks[0].any() or masks[1].any())


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ct=arrays(np.float32, st.tuples(*[st.integers(1, 4)] * 3), elements=st.floats(-1e3, 1e3, width=32)),
       data=st.data(), mean=st.floats(-1e308, 1e308), stddev=st.floats(0, 1e308))
def test_ssl_mask_at_any_noise_writes_a_finite_ct_or_refuses(capsys, ct, data, mean, stddev):
    band = data.draw(arrays(np.bool_, ct.shape))
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        write_volume(VoxelGrid(ct, ANISO), VolumeMeta("float32"), d / "ct.nii")
        write_volume(VoxelGrid(band.astype(np.uint8), ANISO), VolumeMeta("uint8"), d / "wall.nii")
        rc = run(["ssl-mask", "--ct", str(d / "ct.nii"), "--wall", str(d / "wall.nii"), "--seed", "4",
                  f"--noise-mean={mean!r}", f"--noise-std={stddev!r}", "--out", str(d / "masked.nii")])
        _finite_or_refused(rc, capsys.readouterr().err, d, ["ct.nii", "wall.nii"], [d / "masked.nii"])


TISSUE = st.tuples(st.floats(-1e308, 1e308), st.floats(0, 1e308)).map(list)


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(intensity=st.fixed_dictionaries({r: TISSUE for r in ("background", "lumen", "wall", "tumor", "organ")}))
def test_phantom_at_any_tissue_stats_writes_a_finite_ct_or_refuses(capsys, intensity):
    spec = {"dims": [4, 24, 24], "spacing": [2.0, 1.0, 1.0], "tube_radius_mm": 3.0, "wall_thickness_mm": 1.0,
            "tumor_radius_mm": 1.0, "seed": 5, "intensity": intensity}  # every tissue holds voxels
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "spec.json").write_text(json.dumps(spec))
        outs = [d / "ct.nii", d / "labels.nii", d / "tumor.nii"]
        rc = run(["phantom", "--spec", str(d / "spec.json"), "--out-ct", str(outs[0]),
                  "--out-labels", str(outs[1]), "--out-tumor", str(outs[2])])
        _finite_or_refused(rc, capsys.readouterr().err, d, ["spec.json"], outs)


@pytest.mark.parametrize("stage", ["psm", "ssl-mask", "phantom"])
def test_an_overflowing_map_or_noise_exits_1_and_writes_nothing(tmp_path, capsys, stage):
    d = tmp_path
    if stage == "psm":  # one mask voxel on a 4x5x6 grid
        mask = np.zeros((4, 5, 6), dtype=bool)
        mask[1, 2, 3] = True
        a, b = _write_masks(d, (mask, mask))
        argv = ["psm", "--ooi", str(a), "--tumor", str(b), "--mu", "1e-320", "--out", str(d / "psm.nii")]
    elif stage == "ssl-mask":
        grid = VoxelGrid(np.ones((2, 3, 4), dtype=np.uint8), ANISO)
        write_volume(grid, VolumeMeta("float32"), d / "a.nii")
        write_volume(grid, VolumeMeta("uint8"), d / "b.nii")
        argv = ["ssl-mask", "--ct", str(d / "a.nii"), "--wall", str(d / "b.nii"), "--seed", "4",
                "--noise-mean", "1e308", "--noise-std", "1e308", "--out", str(d / "masked.nii")]
    else:
        spec = {"dims": [8, 40, 40], "spacing": [2.0, 1.0, 1.0], "tube_radius_mm": 4.0, "wall_thickness_mm": 1.5,
                "tumor_radius_mm": 2.0, "intensity": {"background": [1e308, 0.05]}}
        (d / "spec.json").write_text(json.dumps(spec))
        argv = ["phantom", "--spec", str(d / "spec.json"), "--out-ct", str(d / "ct.nii"),
                "--out-labels", str(d / "labels.nii"), "--out-tumor", str(d / "tumor.nii")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("mu = 1e-320" if stage == "psm" else "overflows float32") in err
    assert sorted(p.name for p in d.iterdir()) == (["spec.json"] if stage == "phantom" else ["a.nii", "b.nii"])
