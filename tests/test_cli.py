import dataclasses
import json
import math
import shutil
import zlib

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
    save_dataset,
)
from aligndet.errors import DataError, NumericalError
from oracles import images_of

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
    # In a class-specific pipeline with k = 2 classes the initial detectors
    # score the source and the target once each, and target mining reads
    # the target's matrix; the third call is detect's.  The adapt command
    # scores the target once.
    calls = []
    score = pipeline.raw_score_rows

    def spy(dataset, detectors):
        detectors = list(detectors)
        calls.append((dataset.name, len(detectors)))
        return score(dataset, detectors)

    monkeypatch.setattr(pipeline, "raw_score_rows", spy)
    run = tmp_path / "run"
    assert cli.main(["pipeline", "--config", fast_config, "--out", str(run)]) == 0
    src_name, tgt_name = "synth-source", "synth-target"
    assert calls == [(src_name, 2), (tgt_name, 2), (tgt_name, 2)]
    calls.clear()
    src, tgt = (str(run / name / "manifest.json") for name in ("source", "target"))
    argv = ["--config", fast_config, "--source", src, "--target", tgt]
    assert cli.main(["adapt", *argv, "--out", str(tmp_path / "adapt")]) == 0
    assert calls == [(tgt_name, 2)]


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
