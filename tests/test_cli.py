import dataclasses
import json
import math
import mmap
import os
import shutil
import signal
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from aligndet import cli, detection, evaluation, pipeline
from aligndet.dataio import (
    SynthShiftSpec,
    generate_synthetic,
    load_config,
    load_dataset,
    load_detectors,
    load_states,
    read_detections_csv,
    save_dataset,
)
from aligndet.errors import DataError, NumericalError
from oracles import images_of

ROOT = Path(__file__).resolve().parent.parent

FAST_CFG = """
d = 5
reg_lambda = 0.001
train_iterations = 600
synth_classes = 2
synth_samples = 30
"""


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(FAST_CFG)
    return str(p)


def test_missing_required_argument_is_usage_error(capsys):
    assert cli.main(["pipeline"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_one_process_parses_each_command_afresh(tmp_path, capsys, fast_config):
    # The parser is built once per process; a usage error between two good
    # commands leaves nothing of either behind.
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["synth", "--config", fast_config, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["detect", "--states", "s.json", "--out", str(tmp_path / "x")]) == 1
    assert "the following arguments are required: --dataset" in capsys.readouterr().err
    assert cli.main(["synth", "--out", str(tmp_path / "b")]) == 0
    classes = [
        json.loads((tmp_path / run / "source" / "manifest.json").read_text())["classes"]
        for run in "ab"
    ]
    assert [len(c) for c in classes] == [2, 5]  # fast_config's, then the default
    assert not (tmp_path / "x").exists()


def test_unknown_command_is_usage_error():
    assert cli.main(["frobnicate", "--out", "x"]) == 1


def test_missing_manifest_file_is_data_error(tmp_path, capsys):
    rc = cli.main(
        ["train", "--source", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "images",
    [[{"image_id": "img0", "boxes_file": "boxes/img0.csv"}], 5],
    ids=["no-feature-file", "images-not-a-list"],
)
def test_malformed_manifest_is_data_error(tmp_path, capsys, images):
    manifest = tmp_path / "manifest.json"
    doc = {"name": "m", "classes": ["cat"], "feature_dim": 4, "images": images}
    manifest.write_text(json.dumps(doc))
    rc = cli.main(["train", "--source", str(manifest), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert str(manifest) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "evaluate"])
@pytest.mark.parametrize(
    "key, value, kind", [("classes", "ab", "str"), ("images", {}, "dict")]
)
def test_manifest_classes_and_images_must_be_json_arrays(
    tmp_path, capsys, command, key, value, kind
):
    # A string would load as its characters, an object as its keys.
    manifest = tmp_path / "manifest.json"
    doc = {"name": "m", "classes": ["a", "b"], "feature_dim": 4, "images": []}
    manifest.write_text(json.dumps({**doc, key: value}))
    args = {
        "detect": ["--states", str(tmp_path / "states.json")],
        "evaluate": ["--detections", str(tmp_path / "d.csv")],
    }[command]
    rc = cli.main([command, "--dataset", str(manifest), *args, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: manifest '{manifest}' is malformed: '{key}' must be "
        f"a JSON array, got {kind}"
    )


@pytest.mark.parametrize("bundle", ["--states", "--detectors"])
@pytest.mark.parametrize("text", ["not json", '{"warnings": []}'])
def test_malformed_bundle_is_data_error(tmp_path, capsys, fast_config, bundle, text):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    path = tmp_path / "bundle.json"
    path.write_text(text)
    rc = cli.main(
        [
            "detect",
            "--dataset",
            str(data / "target" / "manifest.json"),
            bundle,
            str(path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert str(path) in capsys.readouterr().err


def test_bad_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gama = 0.7\n")
    rc = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_that_is_not_utf8_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\n")
    rc = cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: config file '{cfg}' is not UTF-8 text"
    )


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_manifest_that_is_not_utf8_is_data_error(tmp_path, capsys, fast_config, command):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    manifest = data / "source" / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"name"', b'"n\xffame"'))
    args = {
        "train": ["--source", str(manifest)],
        "evaluate": ["--dataset", str(manifest), "--detections", str(tmp_path / "d.csv")],
    }[command]
    rc = cli.main([command, *args, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: manifest '{manifest}' is not UTF-8 text"
    )


def _deny_reading(monkeypatch, denied: Path) -> None:
    """``Path.read_text`` of ``denied`` raises as a file without read
    permission does.  ``chmod`` cannot stand in: it denies nothing to root."""
    read_text = Path.read_text

    def guarded(self, *args, **kwargs):
        if self == denied:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", guarded)


def test_config_that_cannot_be_read_is_data_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "dense-m.cfg"
    cfg.write_text(FAST_CFG)
    _deny_reading(monkeypatch, cfg)
    rc = cli.main([
        "evaluate", "--config", str(cfg), "--dataset", str(tmp_path / "m.json"),
        "--detections", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: config file '{cfg}' cannot be read: Permission denied"
    )


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_manifest_that_cannot_be_read_is_data_error(
    tmp_path, capsys, monkeypatch, fast_config, command
):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    manifest = data / "source" / "manifest.json"
    _deny_reading(monkeypatch, manifest)
    args = {
        "train": ["--source", str(manifest)],
        "evaluate": ["--dataset", str(manifest), "--detections", str(tmp_path / "d.csv")],
    }[command]
    rc = cli.main([command, *args, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: manifest '{manifest}' cannot be read: Permission denied"
    )


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_negative_seed_is_data_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = -1\n")
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_numerical_error_maps_to_exit_3(tmp_path, monkeypatch, fast_config):
    out = tmp_path / "s"
    assert cli.main(["synth", "--config", fast_config, "--out", str(out)]) == 0

    def boom(*args, **kwargs):
        raise NumericalError("rank collapsed")

    monkeypatch.setattr(cli.pipeline, "adapt", boom)
    rc = cli.main(
        [
            "adapt",
            "--config",
            fast_config,
            "--source",
            str(out / "source" / "manifest.json"),
            "--target",
            str(out / "target" / "manifest.json"),
            "--out",
            str(tmp_path / "a"),
        ]
    )
    assert rc == 3


def test_synth_outputs_are_deterministic(tmp_path, fast_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", fast_config, "--out", str(a)]) == 0
    assert cli.main(["synth", "--config", fast_config, "--out", str(b)]) == 0
    assert sorted(p.name for p in a.iterdir()) == ["source", "target"]
    for rel in ["source/manifest.json", "target/manifest.json"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    feat = next((a / "source" / "features").iterdir()).name
    assert (a / "source" / "features" / feat).read_bytes() == (
        b / "source" / "features" / feat
    ).read_bytes()


def test_stagewise_flow(tmp_path, fast_config):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    src = str(data / "source" / "manifest.json")
    tgt = str(data / "target" / "manifest.json")

    trained = tmp_path / "trained"
    assert (
        cli.main(["train", "--config", fast_config, "--source", src, "--out", str(trained)])
        == 0
    )
    detectors = trained / "detectors.json"
    assert detectors.is_file()

    adapted = tmp_path / "adapted"
    assert (
        cli.main(
            [
                "adapt",
                "--config",
                fast_config,
                "--source",
                src,
                "--target",
                tgt,
                "--out",
                str(adapted),
            ]
        )
        == 0
    )
    states = adapted / "states.json"
    assert states.is_file()

    detected = tmp_path / "detected"
    assert (
        cli.main(
            [
                "detect",
                "--config",
                fast_config,
                "--dataset",
                tgt,
                "--states",
                str(states),
                "--out",
                str(detected),
            ]
        )
        == 0
    )
    detections = detected / "detections.csv"
    assert detections.is_file()

    evaluated = tmp_path / "evaluated"
    assert (
        cli.main(
            [
                "evaluate",
                "--config",
                fast_config,
                "--detections",
                str(detections),
                "--dataset",
                tgt,
                "--out",
                str(evaluated),
            ]
        )
        == 0
    )
    report = json.loads((evaluated / "report.json").read_text())
    assert 0.0 <= report["mean_ap"] <= 1.0
    assert report["ap_convention"] == "all-points interpolation"

    analyzed = tmp_path / "analyzed"
    assert (
        cli.main(
            [
                "analyze",
                "--config",
                fast_config,
                "--states",
                str(states),
                "--detections",
                str(detections),
                "--out",
                str(analyzed),
            ]
        )
        == 0
    )
    assert (analyzed / "similarity.json").is_file()
    assert (analyzed / "similarity.svg").is_file()
    assert (analyzed / "histogram_detections.json").is_file()


def test_detect_with_raw_detectors(tmp_path, fast_config):
    data = tmp_path / "data"
    cli.main(["synth", "--config", fast_config, "--out", str(data)])
    src = str(data / "source" / "manifest.json")
    trained = tmp_path / "trained"
    cli.main(["train", "--config", fast_config, "--source", src, "--out", str(trained)])
    out = tmp_path / "det"
    rc = cli.main(
        [
            "detect",
            "--config",
            fast_config,
            "--dataset",
            src,
            "--detectors",
            str(trained / "detectors.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "detections.csv").is_file()


@pytest.mark.parametrize(
    "flag, bundle", [("--states", "states.json"), ("--detectors", "detectors.json")]
)
def test_detect_with_bundle_of_another_width_is_data_error(
    tmp_path, capsys, fast_config, flag, bundle
):
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(FAST_CFG + "synth_dim = 16\nsynth_latent = 6\n")
    run = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(narrow), "--out", str(run)]) == 0
    assert any(s.mode != "none" for s in load_states(run / "states.json").values())
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    capsys.readouterr()
    rc = cli.main(
        [
            "detect",
            "--config",
            fast_config,
            "--dataset",
            str(data / "target" / "manifest.json"),
            flag,
            str(run / bundle),
            "--out",
            str(tmp_path / "det"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "class 'class00' scores 16-dim features" in err
    assert "has 30" in err


def test_adapt_mode_none_flags_pass_through(tmp_path):
    cfg = tmp_path / "none.cfg"
    cfg.write_text(FAST_CFG + "mode = none\n")
    data = tmp_path / "data"
    cli.main(["synth", "--config", str(cfg), "--out", str(data)])
    out = tmp_path / "adapted"
    rc = cli.main(
        [
            "adapt",
            "--config",
            str(cfg),
            "--source",
            str(data / "source" / "manifest.json"),
            "--target",
            str(data / "target" / "manifest.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    bundle = json.loads((out / "states.json").read_text())
    assert all(
        s["adapted_detector"]["frame"] == "raw" for s in bundle["states"].values()
    )
    assert bundle["pairs"] == {}
    assert all(s.mode == "none" for s in load_states(out / "states.json").values())


def test_pipeline_produces_full_artifact_set(tmp_path, fast_config):
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(out)]) == 0
    files = {
        "report.json",
        "detections.csv",
        "states.json",
        "states.f8",
        "detectors.json",
        "detectors.f8",
        "similarity.json",
        "similarity.svg",
        "histogram_source.json",
        "histogram_source.svg",
        "histogram_target.json",
        "histogram_target.svg",
        "timing.json",
    }
    for name in files:
        assert (out / name).is_file(), name
    # The synthetic pair is the only data written; the generator's truth is not.
    assert {p.name for p in out.iterdir()} == files | {"source", "target"}
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "class-specific"
    assert set(report["per_class"]) == {"class00", "class01"}
    for entry in report["per_class"].values():
        assert "ap" in entry and "similarity_diag" in entry
        assert "n_pos_src" in entry and "n_pos_tgt" in entry
    assert "timing" not in report


def test_synthetic_pair_is_rebuilt_from_the_report_config_echo(tmp_path):
    # The generator is seeded and deterministic, and the report echoes every
    # field of its spec, so a run's synthetic pair (and with it the
    # generator's truth) can be rebuilt from the report alone.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "seed = 7\nsynth_corrupt = 1\nsynth_drift = 0.75\n")
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    keys = ["seed"] + [k for k in echo if k.startswith("synth_")]
    assert len(keys) == len(dataclasses.fields(SynthShiftSpec)) == 14

    def text(value):
        return ",".join(map(str, value)) if isinstance(value, list) else str(value)

    rebuilt_cfg = tmp_path / "rebuilt.cfg"
    rebuilt_cfg.write_text("".join(f"{k} = {text(echo[k])}\n" for k in keys))
    source, target, _ = generate_synthetic(load_config(rebuilt_cfg).synth)
    rebuilt = tmp_path / "rebuilt"
    save_dataset(source, rebuilt / "source")
    save_dataset(target, rebuilt / "target")
    for side in ("source", "target"):
        ran, made = (
            sorted(p.relative_to(root) for p in (root / side).rglob("*") if p.is_file())
            for root in (out, rebuilt)
        )
        assert ran == made and len(ran) > 1
        for rel in ran:
            assert (out / rel).read_bytes() == (rebuilt / rel).read_bytes(), rel


def test_pipeline_initial_score_histograms(tmp_path):
    # Each histogram counts the initial detectors' raw scores of every
    # proposal of its dataset, class by class, in the run's layout.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "hist_bins = 7\nhist_lo = -2.5\nhist_hi = 1.5\n")
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    detectors = load_detectors(out / "detectors.json")
    order = json.loads((out / "detectors.json").read_text())["detectors"]
    assert list(detectors) == list(order) and len(detectors) == 2
    for name in ("source", "target"):
        dataset = load_dataset(out / name / "manifest.json")
        scores = np.concatenate(
            [
                img.features @ det.weights + det.bias
                for det in detectors.values()
                for img in images_of(dataset)
            ]
        )
        want = evaluation.score_histogram(scores, 7, (-2.5, 1.5)).to_dict()
        got = json.loads((out / f"histogram_{name}.json").read_text())
        assert got == want
        assert sum(got["counts"]) > 0
        assert sum(got["counts"]) + got["underflow"] + got["overflow"] == (
            len(detectors) * len(dataset.boxes)
        )


def test_pipeline_trains_initial_detectors_once(tmp_path):
    # gamma = 1 mines no source positives, so initial training skips every
    # class, and adaptation receives no detectors and a (0, n) target score
    # matrix; adaptation never trains, so each class is warned about once.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "gamma = 1.0\n")
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["warnings"] == [
        f"initial-training: no source positives for class '{c}' at gamma=1.0; "
        "class skipped"
        for c in ("class00", "class01")
    ]


def test_target_is_scored_once(tmp_path, monkeypatch, fast_config):
    # In a class-specific pipeline with k = 2 classes each initial detector
    # scores the target once, in the task that trained it, and target mining
    # reads that row; then the detectors score the source once for its
    # histogram, and the last call is detect's.  The adapt command scores
    # the target once per initial detector too.
    calls = []
    score = pipeline.raw_score_rows

    def spy(dataset, detectors):
        detectors = list(detectors)
        calls.append((dataset.name, len(detectors)))
        return score(dataset, detectors)

    monkeypatch.setattr(pipeline, "raw_score_rows", spy)
    # The spy sees the calls of this process only: one worker makes them all.
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    run = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(run)]) == 0
    src_name, tgt_name = "synth-source", "synth-target"
    assert calls == [(tgt_name, 1), (tgt_name, 1), (src_name, 2), (tgt_name, 2)]
    calls.clear()
    src, tgt = (str(run / name / "manifest.json") for name in ("source", "target"))
    argv = ["--config", fast_config, "--source", src, "--target", tgt]
    assert cli.main(["adapt", *argv, "--out", str(tmp_path / "adapt")]) == 0
    assert calls == [(tgt_name, 1), (tgt_name, 1)]


# gamma = 1 skips every class in initial training; d = 28 downgrades
# class01, whose 28 target positives are below d + 1.
SKIPPING_CFG = FAST_CFG + "gamma = 1.0\n"
DOWNGRADING_CFG = FAST_CFG.replace("d = 5", "d = 28")


@pytest.mark.parametrize(
    "command, text, written",
    [
        ("train", SKIPPING_CFG, "detectors.json"),
        ("adapt", DOWNGRADING_CFG, "states.json"),
        ("pipeline", SKIPPING_CFG, "report.json"),
        ("pipeline", DOWNGRADING_CFG, "report.json"),
    ],
    ids=["train-skips", "adapt-downgrades", "pipeline-skips", "pipeline-downgrades"],
)
def test_recorded_warnings_are_logged_once(tmp_path, caplog, command, text, written):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    manifests = {
        "train": ["--source", str(data / "source" / "manifest.json")],
        "adapt": ["--source", str(data / "source" / "manifest.json"),
                  "--target", str(data / "target" / "manifest.json")],
        "pipeline": [],
    }[command]
    out = tmp_path / "out"
    caplog.clear()
    with caplog.at_level("WARNING", logger="aligndet"):
        assert cli.main([command, "--config", str(cfg), *manifests, "--out", str(out)]) == 0
    recorded = json.loads((out / written).read_text())["warnings"]
    assert recorded
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", w) for w in recorded
    ]


# 128-dim features and pools of 1,224 negatives per class, past the initial
# negative cache of 1,024, so the raw-frame trainers mine over several rounds.
WIDE_CFG = """
d = 8
reg_lambda = 0.001
train_iterations = 200
synth_dim = 128
synth_latent = 16
synth_classes = 2
synth_samples = 24
synth_pos_per_image = 2
synth_neg_per_image = 50
synth_separation = 20
"""


def test_gram_cache_leaves_pipeline_outputs_unchanged(tmp_path, monkeypatch):
    # A bound of 0 floats disables the trainer's Gram cache, so every step
    # recomputes its margins; the cached run must write the same bytes.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(WIDE_CFG)
    train = pipeline.train_detector
    shapes = []

    def recorded(pos, neg, cfg, **kwargs):
        record = []
        det = train(pos, neg, cfg, record=record, **kwargs)
        shapes.append((pos.shape[1], len(record)))
        return det

    monkeypatch.setattr(pipeline, "train_detector", recorded)
    # The spy sees the calls of this process only: one worker makes it all.
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    default = detection.GRAM_CACHE_FLOATS
    outputs = {}
    for floats in (0, default):
        monkeypatch.setattr(detection, "GRAM_CACHE_FLOATS", floats)
        out = tmp_path / f"run{floats}"
        assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[floats] = {
            name: (out / name).read_bytes()
            for name in ("detectors.f8", "states.f8", "report.json", "detections.csv")
        }
    assert max(rounds for dim, rounds in shapes if dim >= 128) >= 2
    assert outputs[0] == outputs[default]


@pytest.mark.parametrize("column, unknown", [(5, "classXX"), (0, "imgXX")])
def test_evaluate_rejects_detections_outside_dataset(
    tmp_path, capsys, fast_config, column, unknown
):
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(out)]) == 0
    header, *rows = (out / "detections.csv").read_text().splitlines()
    fields = rows[-1].split(",")
    fields[column] = unknown
    rows[-1] = ",".join(fields)
    detections = tmp_path / "detections.csv"
    detections.write_text("\n".join([header, *rows]) + "\n")
    rc = cli.main(
        [
            "evaluate",
            "--config",
            fast_config,
            "--detections",
            str(detections),
            "--dataset",
            str(out / "target" / "manifest.json"),
            "--out",
            str(tmp_path / "evaluated"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(detections) in err
    assert f"'{unknown}'" in err


def test_evaluate_reads_no_feature_or_boxes_files(tmp_path, fast_config):
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(out)]) == 0
    for kind in ("features", "boxes"):
        shutil.rmtree(out / "target" / kind)
    evaluated = tmp_path / "evaluated"
    rc = cli.main(
        [
            "evaluate", "--config", fast_config,
            "--detections", str(out / "detections.csv"),
            "--dataset", str(out / "target" / "manifest.json"),
            "--out", str(evaluated),
        ]
    )
    assert rc == 0
    report = json.loads((evaluated / "report.json").read_text())
    assert report["mean_ap"] == json.loads((out / "report.json").read_text())["mean_ap"]


def test_evaluate_reports_a_gt_fault_by_file_and_line(tmp_path, capsys, fast_config):
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(out)]) == 0
    gt = sorted((out / "target" / "gt").glob("*.csv"))[1]
    header, row, *rest = gt.read_text().splitlines()
    gt.write_text("\n".join([header, row.replace(",", ",x", 1), *rest]) + "\n")
    rc = cli.main(
        [
            "evaluate", "--config", fast_config,
            "--detections", str(out / "detections.csv"),
            "--dataset", str(out / "target" / "manifest.json"),
            "--out", str(tmp_path / "evaluated"),
        ]
    )
    assert rc == 2
    assert f"{gt}:2: " in capsys.readouterr().err


def test_evaluate_reports_a_box_out_of_order_by_file_and_line(
    tmp_path, capsys, fast_config
):
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(out)]) == 0
    header, *rows = (out / "detections.csv").read_text().splitlines()
    image_id, class_id = rows[0].split(",")[0], rows[0].split(",")[5]
    rows[1] = f"{image_id},2,1,1,2,{class_id},1"
    detections = tmp_path / "detections.csv"
    detections.write_text("\n".join([header, *rows]) + "\n")
    rc = cli.main(
        [
            "evaluate",
            "--config",
            fast_config,
            "--detections",
            str(detections),
            "--dataset",
            str(out / "target" / "manifest.json"),
            "--out",
            str(tmp_path / "evaluated"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: {detections}:3: "
        "degenerate box ordering: (2.0, 1.0, 1.0, 2.0)"
    )


def test_evaluate_rejects_detections_that_are_not_utf8(tmp_path, capsys, fast_config):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    detections = tmp_path / "detections.csv"
    detections.write_bytes(b"image_id,x_min,y_min,x_max,y_max,class,score\n\xff\n")
    rc = cli.main(
        [
            "evaluate", "--config", fast_config,
            "--detections", str(detections),
            "--dataset", str(data / "target" / "manifest.json"),
            "--out", str(tmp_path / "evaluated"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: detections file '{detections}' is not UTF-8 text"
    )


@pytest.mark.parametrize(
    "value, message",
    [
        (0, "feature_dim must be >= 1, got 0"),
        (-3, "feature_dim must be >= 1, got -3"),
        (2.5, "feature_dim must be an integer, got 2.5"),
        (True, "feature_dim must be an integer, got True"),
    ],
)
def test_detect_rejects_a_feature_dim_below_one_or_not_an_integer(
    tmp_path, capsys, fast_config, value, message
):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    manifest = data / "target" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["feature_dim"] = value
    manifest.write_text(json.dumps(doc))
    rc = cli.main(
        [
            "detect", "--dataset", str(manifest),
            "--states", str(tmp_path / "states.json"),
            "--out", str(tmp_path / "detected"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        f"aligndet: data error: manifest '{manifest}' is malformed: {message}"
    )


def test_pipeline_mean_ap_matches_recomputed_mean_on_many_classes(tmp_path):
    cfg = tmp_path / "many.cfg"
    cfg.write_text(
        "d = 5\nreg_lambda = 0.001\ntrain_iterations = 400\n"
        "synth_classes = 20\nsynth_samples = 25\nsynth_neg_per_image = 5\n"
    )
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    aps = [e["ap"] for e in report["per_class"].values() if e["ap"] is not None]
    assert len(report["per_class"]) == 20
    assert report["mean_ap"] == pytest.approx(sum(aps) / len(aps), abs=1e-12)


def test_pipeline_from_manifests(tmp_path, fast_config):
    data = tmp_path / "data"
    cli.main(["synth", "--config", fast_config, "--out", str(data)])
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        FAST_CFG
        + f"source_manifest = {data / 'source' / 'manifest.json'}\n"
        + f"target_manifest = {data / 'target' / 'manifest.json'}\n"
    )
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert not (out / "source").exists()  # no re-synthesis
    report = json.loads((out / "report.json").read_text())
    assert report["mean_ap"] is not None


def test_pipeline_empty_manifest_values_mean_unset(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(FAST_CFG + "source_manifest =\ntarget_manifest =\n")
    out = tmp_path / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "source" / "manifest.json").is_file()  # synthesized
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["source_manifest"] is None
    assert config["target_manifest"] is None


def test_pipeline_one_empty_manifest_value_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "half.cfg"
    cfg.write_text(FAST_CFG + "source_manifest = src.json\ntarget_manifest =\n")
    rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "must be set together" in capsys.readouterr().err


def test_repeated_class_id_in_manifest_is_data_error(tmp_path, capsys, fast_config):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    manifest = data / "source" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["classes"].append(doc["classes"][0])
    manifest.write_text(json.dumps(doc))
    rc = cli.main(["train", "--source", str(manifest), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(manifest) in err
    assert f"duplicate class id '{doc['classes'][0]}'" in err


@pytest.mark.parametrize("field", ["image_id", "classes"])
def test_manifest_id_that_breaks_the_csv_files_is_data_error(
    tmp_path, capsys, fast_config, field
):
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", fast_config, "--out", str(data)]) == 0
    manifest = data / "source" / "manifest.json"
    doc = json.loads(manifest.read_text())
    if field == "image_id":
        doc["images"][0]["image_id"] = "im,0"
        message = "image id 'im,0'"
    else:
        doc["classes"][0] = "cls,a"
        message = "class id 'cls,a'"
    manifest.write_text(json.dumps(doc))
    rc = cli.main(["train", "--source", str(manifest), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(manifest) in err
    assert message in err


@pytest.mark.parametrize(
    "layout, message",
    [
        ("hist_bins = 0\n", "bins must be >= 1"),
        ("hist_lo = 3\nhist_hi = -3\n", "invalid range (3.0, -3.0)"),
    ],
    ids=["no-bins", "inverted-range"],
)
@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_bad_histogram_layout_fails_before_any_work(
    tmp_path, capsys, command, layout, message
):
    cfg = tmp_path / "hist.cfg"
    cfg.write_text(FAST_CFG + layout)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # so no detectors.json either


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Output directory of one fast ``pipeline`` run, and its config."""
    root = tmp_path_factory.mktemp("bundles")
    cfg = root / "run.cfg"
    cfg.write_text(FAST_CFG)
    out = root / "run"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    return out, cfg


def _rewrite_references(new, keep_array_file=True):
    """A defect that replaces each array reference ``ref`` of the bundle by
    ``new(ref, blob)``, where ``blob`` is the array file's content."""

    def damage(path, f8):
        blob = f8.read_bytes()

        def hook(d):
            if d.keys() == {"f8_offset", "shape"}:
                return new(d, blob)
            if not keep_array_file:
                d.pop("array_file", None)
            return d

        path.write_text(json.dumps(json.loads(path.read_text(), object_hook=hook)))
        if not keep_array_file:
            f8.unlink()

    return damage


def _as_list(ref, blob):
    n = math.prod(ref["shape"])
    return np.frombuffer(blob, "<f8", n, ref["f8_offset"]).reshape(ref["shape"]).tolist()


def _flip_byte(path, f8):
    raw = bytearray(f8.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    f8.write_bytes(raw)


# Defect name -> (damage(json path, array file path), expected message).
ARRAY_FILE_DEFECTS = {
    "missing": (lambda path, f8: f8.unlink(), "does not exist"),
    "truncated": (
        lambda path, f8: f8.write_bytes(f8.read_bytes()[:-8]), "bytes, expected"
    ),
    "extra-bytes": (
        lambda path, f8: f8.write_bytes(f8.read_bytes() + b"\0" * 8), "bytes, expected"
    ),
    "flipped-byte": (_flip_byte, "CRC-32"),
    "offset-past-end": (
        _rewrite_references(lambda ref, blob: {**ref, "f8_offset": len(blob)}),
        "runs past the end",
    ),
    "shape-past-end": (
        _rewrite_references(lambda ref, blob: {**ref, "shape": [len(blob) // 8 + 1]}),
        "runs past the end",
    ),
    # The layout from before the array file.
    "inline-lists": (
        _rewrite_references(_as_list, keep_array_file=False),
        "rerun 'train' or 'adapt'",
    ),
}


@pytest.mark.parametrize("defect", list(ARRAY_FILE_DEFECTS))
@pytest.mark.parametrize(
    "option, name, load",
    [("--states", "states", load_states), ("--detectors", "detectors", load_detectors)],
    ids=["states", "detectors"],
)
def test_bad_array_file_is_data_error(
    tmp_path, capsys, pipeline_run, option, name, load, defect
):
    run, cfg = pipeline_run
    path, f8 = tmp_path / f"{name}.json", tmp_path / f"{name}.f8"
    shutil.copy(run / f"{name}.json", path)
    shutil.copy(run / f"{name}.f8", f8)
    damage, match = ARRAY_FILE_DEFECTS[defect]
    damage(path, f8)
    with pytest.raises(DataError, match=match) as info:
        load(path)
    assert str(path) in str(info.value)
    rc = cli.main(
        [
            "detect",
            "--config",
            str(cfg),
            "--dataset",
            str(run / "target" / "manifest.json"),
            option,
            str(path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "detect"])
def test_state_bundle_with_a_nan_basis_entry_is_data_error(
    tmp_path, capsys, pipeline_run, command
):
    # One NaN in class00's source basis, the CRC-32 recomputed to match, so
    # only the subspace check can catch it.
    run, cfg = pipeline_run
    path, f8 = tmp_path / "states.json", tmp_path / "states.f8"
    bundle = json.loads((run / "states.json").read_text())
    raw = bytearray((run / "states.f8").read_bytes())
    offset = bundle["pairs"]["class00"]["source"]["basis"]["f8_offset"]
    raw[offset : offset + 8] = np.float64(np.nan).tobytes()
    f8.write_bytes(raw)
    bundle["array_file"]["crc32"] = zlib.crc32(raw)
    path.write_text(json.dumps(bundle))
    args = {
        "analyze": [],
        "detect": ["--dataset", str(run / "target" / "manifest.json")],
    }[command]
    rc = cli.main(
        [command, "--config", str(cfg), *args, "--states", str(path),
         "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"state bundle '{path}' is malformed: basis and eigenvalues must be finite" in err


@pytest.mark.parametrize("option, name", [("--detectors", "detectors"), ("--states", "states")])
def test_bundle_entry_of_another_class_is_data_error(
    tmp_path, capsys, pipeline_run, option, name
):
    # The detector stored under class00 claims class01; in the state bundle
    # its frame names class01's pair too, so only the key it is stored under
    # disagrees.
    run, cfg = pipeline_run
    path = tmp_path / f"{name}.json"
    shutil.copy(run / f"{name}.f8", tmp_path / f"{name}.f8")
    bundle = json.loads((run / f"{name}.json").read_text())
    entry = bundle[name]["class00"]
    if name == "states":
        entry = entry["adapted_detector"]
        entry["frame"] = "aligned:class01"
    entry["class_id"] = "class01"
    path.write_text(json.dumps(bundle))
    rc = cli.main(
        [
            "detect",
            "--config",
            str(cfg),
            "--dataset",
            str(run / "target" / "manifest.json"),
            option,
            str(path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "entry 'class00' holds class_id 'class01'" in err


def test_stage_commands_reproduce_pipeline(tmp_path, pipeline_run):
    # train, adapt, detect --states and evaluate, run one by one on the
    # pipeline's own manifests, write the pipeline's artifacts byte for byte.
    run, cfg = pipeline_run
    src, tgt = (str(run / name / "manifest.json") for name in ("source", "target"))

    def stage(command, *args):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out), *args]) == 0
        return out

    trained = stage("train", "--source", src)
    adapted = stage("adapt", "--source", src, "--target", tgt)
    states = str(adapted / "states.json")
    detected = stage("detect", "--dataset", tgt, "--states", states)
    detections = str(detected / "detections.csv")
    evaluated = stage("evaluate", "--dataset", tgt, "--detections", detections)
    for out, name in [
        (trained, "detectors.json"),
        (trained, "detectors.f8"),
        (adapted, "states.json"),
        (adapted, "states.f8"),
        (detected, "detections.csv"),
    ]:
        assert (out / name).read_bytes() == (run / name).read_bytes(), name
    full = json.loads((run / "report.json").read_text())
    assert full["mean_ap"] is not None
    assert json.loads((evaluated / "report.json").read_text()) == {
        "ap_convention": full["ap_convention"],
        "per_class": {c: {"ap": e["ap"]} for c, e in full["per_class"].items()},
        "mean_ap": full["mean_ap"],
        "config": full["config"],
    }


THREE_CLASS_CFG = """
d = 4
reg_lambda = 0.001
train_iterations = 300
synth_classes = 3
synth_samples = 24
mode = {mode}
"""


_FORK = os.fork


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _within(seconds: int):
    """Fail the block with TimeoutError once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _with_workers(monkeypatch, workers: int) -> list:
    """Run the per-class loops in ``workers`` processes; returns the list
    that each ``os.fork`` of this process appends to."""
    forks = []

    def counted():
        pid = _FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("mode", ["class-specific", "full-image"])
def test_worker_count_leaves_pipeline_outputs_unchanged(tmp_path, monkeypatch, mode):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode=mode))
    outputs = {}
    for workers in (1, 2, 3):
        forks = _with_workers(monkeypatch, workers)
        out = tmp_path / f"run{workers}"
        assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        _no_child_left()
        # The one round of training and adaptation forks every worker but
        # this one.
        assert len(forks) == workers - 1
        outputs[workers] = {
            name: (out / name).read_bytes()
            for name in ("detectors.f8", "states.f8", "report.json", "detections.csv")
        }
    assert json.loads(outputs[1]["report.json"])["downgraded_classes"] == []
    assert outputs[1] == outputs[2] == outputs[3]


@pytest.mark.parametrize(
    "workers, refused",
    [(1, {"class01"}), (3, {"class01"}), (2, {"class01", "class02"})],
    ids=["loop", "one-in-a-child", "lowest-index-first"],
)
def test_worker_data_error_exits_2_with_the_loops_message(
    tmp_path, monkeypatch, capsys, workers, refused
):
    # With two workers class02 is this process's and class01 a child's: the
    # error of class01 is raised, as the loop raises it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific"))
    train = pipeline.train_detector

    def refuse(pos, neg, cfg, class_id, **kwargs):
        if class_id in refused:
            raise DataError(f"class '{class_id}' refused")
        return train(pos, neg, cfg, class_id=class_id, **kwargs)

    monkeypatch.setattr(pipeline, "train_detector", refuse)
    _with_workers(monkeypatch, workers)
    with _within(60):
        code = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    _no_child_left()
    assert capsys.readouterr().err == "aligndet: data error: class 'class01' refused\n"


def test_dead_worker_is_named_by_its_status(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific"))
    train = pipeline.train_detector
    parent = os.getpid()

    def die(pos, neg, cfg, class_id, **kwargs):
        if class_id == "class01":
            # Only ever in a child: class01 is the second worker's.
            assert os.getpid() != parent
            os._exit(3)
        return train(pos, neg, cfg, class_id=class_id, **kwargs)

    monkeypatch.setattr(pipeline, "train_detector", die)
    _with_workers(monkeypatch, 3)
    with _within(60), pytest.raises(
        RuntimeError, match=r"worker process \d+ ended with status 3"
    ):
        cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
    _no_child_left()


def _started(log: Path) -> set[int]:
    return {int(k) for k in log.read_text().split()} if log.exists() else set()


def _await_start(log: Path, k: int) -> None:
    """Wait until some process has started class ``k``, and a little more."""
    deadline = time.monotonic() + 30
    while k not in _started(log):
        assert time.monotonic() < deadline, f"class {k} never started"
        time.sleep(0.01)
    time.sleep(0.2)


def _logging(log: Path, fn):
    """``fn`` that first appends ``k`` to ``log``, from whichever process."""

    def logged(k):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{k}\n".encode())
        finally:
            os.close(fd)
        return fn(k)

    return logged


@pytest.mark.parametrize(
    "dies, raised",
    [(1, RuntimeError), (3, DataError)],
    ids=["dead-worker-below-the-error", "error-below-the-dead-worker"],
)
def test_per_class_raises_what_the_loop_would_raise(tmp_path, monkeypatch, dies, raised):
    # Two workers over four classes: this process takes 0 and 2, the child
    # 1 and 3.  Class 2 raises here once the child has reached class
    # ``dies``, where it dies.
    parent = os.getpid()
    log = tmp_path / "started"

    def fn(k):
        if k == 0:
            _await_start(log, dies)
        if k == 2:
            raise DataError("class 2 refused")
        if k == dies:
            assert os.getpid() != parent
            os._exit(3)
        return k

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with _within(60), pytest.raises(raised):
        pipeline._per_class(_logging(log, fn), 4)
    _no_child_left()
    assert _started(log) == {0, 1, 2, dies}


@pytest.mark.parametrize("raises, waits", [(0, 1), (1, 0)], ids=["here", "in-a-child"])
def test_no_worker_starts_a_class_above_one_that_raised(
    tmp_path, monkeypatch, raises, waits
):
    # Two workers over nine classes; class ``waits``, in the other process,
    # runs until class ``raises`` has failed.
    log = tmp_path / "started"

    def fn(k):
        if k == raises:
            raise DataError(f"class {k} refused")
        if k == waits:
            _await_start(log, raises)
        return k

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with _within(60), pytest.raises(DataError, match=f"class {raises} refused"):
        pipeline._per_class(_logging(log, fn), 9)
    _no_child_left()
    assert _started(log) <= {0, 1}


# With 3 classes and 2 workers the round's tasks T0 T1 T2 A0 A1 A2 fall to
# this process (T0, T2, A1) and a child (T1, A0, A2), so every class adapts
# in the other worker than the one that trained it.
def _handoff(monkeypatch, log: Path, train_class=None) -> list:
    """Run the per-class work in 2 workers, appending ``<event> <class>
    <pid>`` to ``log`` as each initial detector is ``trained`` and as each
    adaptation starts (``adapt``) and ends (``adapted``); ``train_class`` is
    called with each class id before its initial training.  Returns the
    list of forks (``_with_workers``)."""
    train, adapt_class = pipeline.train_detector, pipeline._adapt_class

    def note(event, class_id):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{event} {class_id} {os.getpid()}\n".encode())
        finally:
            os.close(fd)

    def trained(pos, neg, cfg, class_id, frame, **kwargs):
        if frame == "raw" and train_class is not None:
            train_class(class_id)
        det = train(pos, neg, cfg, class_id=class_id, frame=frame, **kwargs)
        if frame == "raw":
            note("trained", class_id)
        return det

    def adapted(source, target, cfg, class_id, *args):
        note("adapt", class_id)
        result = adapt_class(source, target, cfg, class_id, *args)
        note("adapted", class_id)
        return result

    monkeypatch.setattr(pipeline, "train_detector", trained)
    monkeypatch.setattr(pipeline, "_adapt_class", adapted)
    return _with_workers(monkeypatch, 2)


def _events(log: Path) -> dict[tuple[str, str], int]:
    """(event, class) -> pid of each line ``_handoff`` logged."""
    lines = log.read_text().split("\n")[:-1] if log.exists() else []
    return {(e, c): int(pid) for e, c, pid in (line.split() for line in lines)}


def _await_event(log: Path, event: str, class_id: str) -> None:
    """Wait until ``event`` of ``class_id`` is logged, and a little more."""
    deadline = time.monotonic() + 30
    while (event, class_id) not in _events(log):
        assert time.monotonic() < deadline, f"{event} {class_id} never logged"
        time.sleep(0.01)
    time.sleep(0.2)


def test_each_class_adapts_in_the_other_worker(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific"))
    log = tmp_path / "log"
    forks = _handoff(monkeypatch, log)
    with _within(60):
        assert cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    _no_child_left()
    events = _events(log)
    here, child = os.getpid(), forks[0]
    for c, trainer in (("class00", here), ("class01", child), ("class02", here)):
        assert events[("trained", c)] == trainer
        assert events[("adapt", c)] == ({here, child} - {trainer}).pop()


def test_training_error_stops_a_worker_waiting_for_its_class(
    tmp_path, monkeypatch, capsys
):
    # T2 raises here once the child has adapted class00 and waits in A2
    # for class02's detector.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific"))
    log = tmp_path / "log"

    def refuse(class_id):
        if class_id == "class02":
            _await_event(log, "adapted", "class00")
            raise DataError(f"class '{class_id}' refused")

    _handoff(monkeypatch, log, refuse)
    with _within(60):
        code = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    _no_child_left()
    assert capsys.readouterr().err == "aligndet: data error: class 'class02' refused\n"
    assert {c for e, c in _events(log) if e == "adapt"} == {"class00"}


def test_dead_worker_stops_this_process_waiting_for_its_class(tmp_path, monkeypatch):
    # The child dies in T1 once this process has trained class02 and waits
    # in A1 for class01's detector.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific"))
    log = tmp_path / "log"
    parent = os.getpid()

    def die(class_id):
        if class_id == "class01":
            assert os.getpid() != parent
            _await_event(log, "trained", "class02")
            os._exit(3)

    _handoff(monkeypatch, log, die)
    with _within(60), pytest.raises(
        RuntimeError, match=r"worker process \d+ ended with status 3"
    ):
        cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")])
    _no_child_left()
    assert ("adapt", "class01") not in _events(log)


@pytest.mark.parametrize("command", ["pipeline", "adapt"])
def test_refused_adaptation_fails_after_training(tmp_path, monkeypatch, capsys, command):
    # d = 31 exceeds the 30-dim features: adaptation is refused once every
    # detector exists, and pipeline has written them.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(THREE_CLASS_CFG.format(mode="class-specific").replace("d = 4", "d = 31"))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    manifests = {
        "pipeline": [],
        "adapt": ["--source", str(data / "source" / "manifest.json"),
                  "--target", str(data / "target" / "manifest.json")],
    }[command]
    log = tmp_path / "log"
    _handoff(monkeypatch, log)
    out = tmp_path / "out"
    capsys.readouterr()
    with _within(60):
        code = cli.main([command, "--config", str(cfg), *manifests, "--out", str(out)])
    assert code == 2
    _no_child_left()
    assert capsys.readouterr().err == (
        "aligndet: data error: subspace dimension d=31 exceeds the feature "
        "dimension 30; no class can form a subspace\n"
    )
    assert {e for e, c in _events(log)} == {"trained"}
    assert len(_events(log)) == 3
    assert (out / "detectors.json").is_file() == (command == "pipeline")
    assert not (out / "states.json").exists()


def test_tasks_wait_for_what_they_read(monkeypatch):
    # 4 workers, more than most runners' CPUs, over 2 x 25 tasks: task 25 + c
    # returns what task c published in a shared table, always from another
    # worker (25 is 1 modulo 4), and starts only once it is there.
    k = 25
    table = np.ndarray(k, buffer=mmap.mmap(-1, 8 * k))

    def fn(j):
        if j < k:
            time.sleep(0.002 * (j % 3))
            table[j] = j + 1
            return j
        return table[j - k]

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    with _within(60):
        results = pipeline._per_class(
            fn, 2 * k, ready=lambda j: j < k or table[j - k] != 0
        )
    _no_child_left()
    assert results == list(range(k)) + [c + 1.0 for c in range(k)]


def test_orphaned_worker_stops_at_its_next_class(tmp_path):
    # This process is killed while its child is on class 3 or 5 of the
    # child's 1, 3, ..., 19; the child leaves before the class after.
    code = (
        "import os, signal, time; from aligndet import pipeline; "
        "pipeline._usable_cpus = lambda: 2\n"
        "def fn(k):\n"
        "    if k == 0:\n"
        "        time.sleep(0.3); os.kill(os.getpid(), signal.SIGKILL)\n"
        f"    open(os.path.join({str(tmp_path)!r}, str(k)), 'w').close()\n"
        "    time.sleep(0.2)\n"
        "pipeline._per_class(fn, 20)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    # The child keeps the pipes to stderr and stdout open, so this returns
    # once it has left too.
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == -signal.SIGKILL
    started = {int(p.name) for p in tmp_path.iterdir()}
    assert 1 in started and max(started) <= 9


def _python(code: str, **blas) -> str:
    """Run ``code`` with ``OPENBLAS_NUM_THREADS=1`` and no other BLAS thread
    variable, or with the ones given (None leaves one unset)."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    for name, value in (blas or {"OPENBLAS_NUM_THREADS": "1"}).items():
        if value is not None:
            env[name] = value
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_one_cpu_or_a_second_thread_means_one_process():
    assert _python(
        "import os; from aligndet import pipeline; "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "print(pipeline._usable_cpus())"
    ) == "1"
    assert _python(
        "import threading; from aligndet import pipeline; "
        "stop = threading.Event(); t = threading.Thread(target=stop.wait); t.start(); "
        "print(pipeline._usable_cpus()); stop.set(); t.join()"
    ) == "1"


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize(
    "blas, forks",
    [
        ({"OPENBLAS_NUM_THREADS": None}, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1"}, True),
    ],
    ids=["unset", "two", "two-over-omp", "one-over-omp", "zero-then-omp", "goto"],
)
def test_workers_only_where_blas_runs_one_thread(blas, forks):
    # A BLAS that may run a thread per CPU in each worker contends with the
    # other workers for the CPUs.
    cpus, usable = _python(
        "import os; from aligndet import pipeline; "
        "print(len(os.sched_getaffinity(0)), pipeline._usable_cpus())",
        **blas,
    ).split()
    assert usable == (cpus if forks else "1")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize(
    "cgroups, files, quota",
    [
        ("0::/job\n", {"job/cpu.max": "150000 100000\n"}, 2),
        ("0::/job\n", {"job/cpu.max": "max 100000\n"}, None),
        (
            "2:cpu,cpuacct:/job\n",
            {"cpu,cpuacct/job/cpu.cfs_quota_us": "50000\n",
             "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"},
            1,
        ),
        (
            "2:cpu,cpuacct:/job\n",
            {"cpu,cpuacct/job/cpu.cfs_quota_us": "-1\n",
             "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"},
            None,
        ),
        ("0::/job\n2:cpu,cpuacct:/job\n", {}, None),
        (None, {}, None),
    ],
    ids=["v2-quota", "v2-max", "v1-quota", "v1-unlimited", "no-files", "no-cgroups"],
)
def test_cgroup_cpu_quota_caps_the_workers(tmp_path, monkeypatch, cgroups, files, quota):
    listing, root = tmp_path / "cgroup", tmp_path / "fs"
    if cgroups is not None:
        listing.write_text(cgroups)
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    monkeypatch.setattr(pipeline, "_PROC_CGROUP", listing)
    monkeypatch.setattr(pipeline, "_CGROUP_ROOT", root)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pipeline._cpu_quota() == quota
    cpus = len(os.sched_getaffinity(0))
    assert pipeline._usable_cpus() == min(cpus, quota or cpus)


# The wide benchmark workload (bench/run.py): 1024-dim features, 3 classes.
WIDE_WORKLOAD_CFG = """
d = 24
reg_lambda = 0.001
train_iterations = 300
synth_dim = 1024
synth_latent = 32
synth_classes = 3
synth_samples = 240
synth_separation = 20
source_manifest = data/source/manifest.json
target_manifest = data/target/manifest.json
"""


def test_blas_thread_count_moves_no_detection(tmp_path):
    # What holds across OpenBLAS thread counts today: the same detections
    # (image, box, class), mean AP and initial detectors, and scores within
    # 1e-9.  The PCA products of the 1024-dim pools differ in their last
    # bits, so states.*, similarity.json and the scores may.  One thread
    # forks a worker per CPU; two run every class in this one process.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_WORKLOAD_CFG)
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        _python(
            "from aligndet import cli; "
            f"assert cli.main(['pipeline', '--config', {str(cfg)!r}, "
            f"'--out', {str(out)!r}, '--log-level', 'warning']) == 0",
            OPENBLAS_NUM_THREADS=threads,
        )
        dets = read_detections_csv(out / "detections.csv")
        runs[threads] = (
            [dets.image_ids[i] for i in dets.image_index],
            dets.boxes,
            [dets.class_ids[c] for c in dets.class_index],
            dets.scores,
            json.loads((out / "report.json").read_text())["mean_ap"],
            [(out / name).read_bytes() for name in ("detectors.json", "detectors.f8")],
        )
    (images, boxes, classes, scores, mean_ap, detectors), one = runs["2"], runs["1"]
    assert len(images) > 1000
    assert images == one[0] and classes == one[2]
    assert np.array_equal(boxes, one[1])
    assert np.abs(scores - one[3]).max() <= 1e-9
    assert mean_ap == one[4]
    assert detectors == one[5]


def test_commands_never_import_numpy_ma(tmp_path, fast_config):
    if _python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy loads numpy.ma")
    out = tmp_path / "run"
    assert _python(
        "import sys; from aligndet import cli; "
        f"assert cli.main(['synth', '--config', {fast_config!r}, '--out', {str(out)!r}]) == 0; "
        f"assert cli.main(['pipeline', '--config', {fast_config!r}, '--out', {str(out)!r}]) == 0; "
        "print('numpy.ma' in sys.modules)"
    ) == "False"
