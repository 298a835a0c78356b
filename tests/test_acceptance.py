"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy scenario fixtures are module-scoped so criteria sharing the default
synthetic shift reuse one computation.
"""

import json
import math
import time

import numpy as np
import pytest

from aligndet import cli
from aligndet.alignment import alignment_objective, solve_alignment
from aligndet.dataio import (
    SynthShiftSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from aligndet.detection import BBox, TrainConfig
from aligndet.errors import DataError
from aligndet.evaluation import average_precision, similarity_matrix
from aligndet.linalg import (
    Subspace,
    identity_stats,
    pca,
    principal_angle_cosines,
    subspace_similarity,
)
from aligndet.pipeline import (
    AdaptationConfig,
    adapt,
    detect,
    mine_source_positives,
    mine_target_positives,
    passthrough_states,
    raw_score_rows,
    train_initial_detectors,
)
from oracles import (
    Detection,
    GroundTruth,
    brute_force_ap,
    detections_from_rows,
    exhaustive_nms,
    gd_align,
    ground_truths_from_rows,
    random_orthonormal,
    rows_of,
)
from reference import adapt_from_scratch, reference_run

# Margin of the class-specific route over no adaptation on the default
# seeded scenario, locked in by running reference.reference_run
# (the brute-force dense pipeline) once on that scenario.  Reproduction is
# asserted to within one mAP point.
REFERENCE_UNADAPTED_MAP = 0.764164
REFERENCE_ADAPTED_MAP = 0.927808
REFERENCE_MARGIN = REFERENCE_ADAPTED_MAP - REFERENCE_UNADAPTED_MAP

MAP_POINT = 0.01  # one mean-AP percentage point on the [0, 1] scale


def accept_cfg() -> AdaptationConfig:
    return AdaptationConfig(
        d=12, train=TrainConfig(reg_lambda=0.001, iterations=3000)
    )


def _mean_ap(dets, gts, classes):
    return float(np.mean([average_precision(dets, gts, c) for c in classes]))


def _passed(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


@pytest.fixture(scope="module")
def default_scenario():
    source, target, oracle = generate_synthetic(SynthShiftSpec())
    return source, target, oracle


@pytest.fixture(scope="module")
def initial_detectors(default_scenario):
    source, _, _ = default_scenario
    return train_initial_detectors(source, accept_cfg())


def _random_subspace(rng, ambient, d):
    return Subspace(
        basis=random_orthonormal(rng, ambient, d),
        eigenvalues=np.ones(d),
        stats=identity_stats(ambient),
    )


def test_c1_closed_form_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs = [
        (_random_subspace(rng, 20, 4), _random_subspace(rng, 20, 4))
        for _ in range(20)
    ]
    solutions = [solve_alignment(S, T) for S, T in pairs]

    for (S, T), M in zip(pairs, solutions):
        base = alignment_objective(M, S, T)
        for _ in range(100):
            delta = rng.normal(size=(4, 4))
            delta *= 0.01 / np.linalg.norm(delta)
            assert alignment_objective(M + delta, S, T) >= base - 1e-12

    M_gd = gd_align(
        np.stack([S.basis for S, _ in pairs]),
        np.stack([T.basis for _, T in pairs]),
        lr=0.01,
        iters=100_000,
    )
    for M, M_oracle in zip(solutions, M_gd):
        assert np.linalg.norm(M - M_oracle) < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _passed(1, "closed-form optimality")


def test_c2_fixed_point(tmp_path):
    # target = source as identical files on disk
    source, _, _ = generate_synthetic(SynthShiftSpec())
    manifest = save_dataset(source, tmp_path / "fixed")
    src = load_dataset(manifest)
    tgt = load_dataset(manifest)
    cfg = accept_cfg()

    init = train_initial_detectors(src, cfg)
    states = adapt(src, tgt, cfg, init, raw_score_rows(tgt, init.values()))
    for c, state in states.items():
        assert not state.downgraded, f"{c} downgraded in fixed-point run"
        M = solve_alignment(state.source_subspace, state.target_subspace)
        assert np.linalg.norm(M - np.eye(cfg.d)) < 1e-6
        diag = subspace_similarity(state.source_subspace, state.target_subspace)
        assert abs(diag - math.sqrt(cfg.d)) < 1e-6

    gts = tgt.ground_truths
    map_plain = _mean_ap(detect(tgt, passthrough_states(init), cfg), gts, tgt.classes)
    map_adapted = _mean_ap(detect(tgt, states, cfg), gts, tgt.classes)
    assert abs(map_adapted - map_plain) < 0.5 * MAP_POINT
    _passed(2, "fixed point at zero shift")


def test_c3_principal_angle_identities():
    rng = np.random.default_rng(7)
    for d, ambient in [(3, 8), (5, 12), (8, 30)]:
        A = _random_subspace(rng, ambient, d)
        assert abs(subspace_similarity(A, A) - math.sqrt(d)) < 1e-10

    eye = np.eye(10)
    assert subspace_similarity(eye[:, :4], eye[:, 4:8]) == 0.0

    for seed in range(10):
        r = np.random.default_rng(seed)
        A = random_orthonormal(r, 14, 5)
        B = random_orthonormal(r, 14, 5)
        Q = random_orthonormal(r, 5, 5)
        assert abs(
            subspace_similarity(A @ Q, B) - subspace_similarity(A, B)
        ) < 1e-8
        assert abs(
            subspace_similarity(A, B @ Q) - subspace_similarity(A, B)
        ) < 1e-8

        S = _random_subspace(r, 14, 5)
        T = _random_subspace(r, 14, 5)
        M = solve_alignment(S, T)
        cos = principal_angle_cosines(S, T)
        assert abs(np.linalg.norm(M) ** 2 - np.sum(cos**2)) < 1e-8
    _passed(3, "principal-angle identities")


def test_c4_synthetic_shift_improvement(default_scenario, initial_detectors):
    start = time.perf_counter()
    source, target, _ = default_scenario
    cfg = accept_cfg()
    init = initial_detectors
    gts = target.ground_truths

    map_plain = _mean_ap(
        detect(target, passthrough_states(init), cfg), gts, target.classes
    )
    states = adapt(source, target, cfg, init, raw_score_rows(target, init.values()))
    map_adapted = _mean_ap(detect(target, states, cfg), gts, target.classes)
    margin = map_adapted - map_plain

    assert margin > 0.0, "adaptation did not improve mean AP"
    assert abs(margin - REFERENCE_MARGIN) <= MAP_POINT, (
        f"margin {margin:.6f} drifted from locked-in {REFERENCE_MARGIN:.6f}"
    )

    # live dual route: the brute-force reference must still agree
    ref = reference_run(source, target, cfg)
    assert abs(ref["margin"] - REFERENCE_MARGIN) <= MAP_POINT
    assert abs(ref["unadapted_map"] - REFERENCE_UNADAPTED_MAP) <= MAP_POINT
    assert abs(ref["adapted_map"] - REFERENCE_ADAPTED_MAP) <= MAP_POINT

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    _passed(4, "synthetic-shift improvement")


def test_c5_oracle_equivalences():
    from aligndet.detection import greedy_nms

    # greedy NMS vs the exhaustive from-scratch reference
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        dets = []
        for _ in range(10):
            x, y = rng.uniform(0, 60, size=2)
            w, h = rng.uniform(10, 50, size=2)
            dets.append(
                Detection("img0", BBox(x, y, x + w, y + h), "obj", float(rng.uniform()))
            )
        kept = greedy_nms(detections_from_rows(dets), 0.3)
        assert rows_of(kept) == exhaustive_nms(dets, 0.3)

    # AP vs brute-force PR evaluation on every enumerated instance
    gt_xs = [0.0, 50.0, 100.0]
    checked = 0
    for n_gt in (1, 2, 3):
        gts = [GroundTruth("img0", "obj", BBox(x, 0, x + 10, 10)) for x in gt_xs[:n_gt]]
        for n_det in range(6):
            for code in range((n_gt + 1) ** n_det):
                dets = []
                rest = code
                for rank in range(n_det):
                    slot = rest % (n_gt + 1)
                    rest //= n_gt + 1
                    x = gt_xs[slot] if slot < n_gt else 900.0 + 40.0 * rank
                    dets.append(
                        Detection(
                            "img0",
                            BBox(x, 0, x + 10, 10),
                            "obj",
                            0.9 - 0.1 * rank,
                        )
                    )
                got = average_precision(
                    detections_from_rows(dets), ground_truths_from_rows(gts), "obj"
                )
                want = brute_force_ap(dets, gts, "obj")
                assert got == pytest.approx(want, abs=1e-12), (n_gt, n_det, code)
                checked += 1
    assert checked == 63 + 364 + 1365

    # PCA spans vs full eigendecomposition of the explicit covariance
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n in (2, 4, 6, 9, 12, 16, 20):
            for D in (1, 2, 3, 5, 8):
                limit = min(n - 1, D)
                if limit < 1:
                    continue
                X = rng.normal(size=(n, D))
                for d in sorted({1, limit, max(1, limit // 2)}):
                    sub = pca(X, d)
                    Xc = X - X.mean(axis=0)
                    w, V = np.linalg.eigh(Xc.T @ Xc / (n - 1))
                    top = V[:, np.argsort(w)[::-1][:d]]
                    cos = principal_angle_cosines(sub.basis, top)
                    assert np.all(cos > 1 - 1e-8)
    _passed(5, "oracle equivalences")


def test_c6_pipeline_determinism(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "d = 12\nreg_lambda = 0.001\ntrain_iterations = 3000\nseed = 0\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["pipeline", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert cli.main(["pipeline", "--config", str(cfg_file), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "detections.csv").read_bytes() == (
        out_b / "detections.csv"
    ).read_bytes()
    # The saved state bundle reproduces the pipeline's detections exactly.
    out_d = tmp_path / "d"
    args = ["detect", "--config", str(cfg_file), "--out", str(out_d)]
    args += ["--dataset", str(out_a / "target" / "manifest.json")]
    args += ["--states", str(out_a / "states.json")]
    assert cli.main(args) == 0
    assert (out_d / "detections.csv").read_bytes() == (
        out_a / "detections.csv"
    ).read_bytes()
    _passed(6, "pipeline determinism")


def test_c7_threshold_monotonicity(default_scenario, initial_detectors):
    source, target, _ = default_scenario
    init = initial_detectors

    for c, row in zip(init, raw_score_rows(target, init.values())):
        prev = None
        for sigma in np.linspace(0.0, 0.8, 9):
            try:
                count = mine_target_positives(target, c, row, float(sigma)).shape[0]
            except DataError:
                count = 0
            if prev is not None:
                assert count <= prev, f"sigma={sigma} raised count for {c}"
            prev = count

    for c in source.classes:
        prev = None
        for gamma in np.linspace(0.1, 0.8, 8):
            try:
                count = mine_source_positives(source, c, float(gamma)).shape[0]
            except DataError:
                count = 0
            if prev is not None:
                assert count <= prev, f"gamma={gamma} raised count for {c}"
            prev = count
    _passed(7, "threshold monotonicity")


def test_c8_weak_class_degradation(tmp_path):
    # Gentle rotation keeps healthy diagonals high; class 2's target
    # features are pure noise and cannot form a meaningful subspace.
    corrupt = "class02"
    spec = SynthShiftSpec(rotation_budget=0.3, corrupt_classes=(2,))
    source, target, _ = generate_synthetic(spec)
    cfg = accept_cfg()
    states = adapt_from_scratch(source, target, cfg)
    sim = similarity_matrix(states)
    diag = sim.diagonal()
    healthy = [v for c, v in diag.items() if c != corrupt]
    assert diag[corrupt] < np.mean(healthy)

    cfg_file = tmp_path / "weak.cfg"
    cfg_file.write_text(
        "d = 12\nreg_lambda = 0.001\ntrain_iterations = 3000\n"
        "synth_rotation = 0.3\nsynth_corrupt = 2\n"
    )
    out = tmp_path / "weakrun"
    assert cli.main(["pipeline", "--config", str(cfg_file), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert corrupt in report["weak_classes"]
    assert report["per_class"][corrupt]["weak"] is True
    assert all(
        not report["per_class"][c]["weak"]
        for c in report["per_class"]
        if c != corrupt
    )
    _passed(8, "weak-class degradation diagnostic")
