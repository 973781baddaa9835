"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criterion
trains on the calibration setup (8 classes, 5 frames, 200 videos per class
and domain, shift 0.7, seeds 41-45) and takes the bulk of the runtime.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sfvda import losses, lwm
from sfvda import model as M
from sfvda import pipeline as P
from sfvda import pseudolabel as PL
from sfvda.config import RunConfig
from sfvda.data import generate_domain_pair
from sfvda.tensor import Tensor, finite_diff_check, stack

from cli_runner import run_sfvda
from oracles import brute_force_pseudo_labels, ordered_scale_pairs


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" - {detail}" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# -- criterion 1: gradient oracle ---------------------------------------------------


def _loss_cases(rng):
    batch = int(rng.integers(2, 9))
    dim = int(rng.integers(2, 9))
    n_classes = int(rng.integers(2, 5))
    k = int(rng.integers(3, 6))
    labels = rng.integers(0, n_classes, size=batch)
    fixed_scales = [rng.normal(size=(batch, dim)) for _ in range(k - 2)]
    fixed_logits = [rng.normal(size=(batch, n_classes)) for _ in range(k - 2)]
    overall = rng.normal(size=(batch, n_classes))

    def smoothed(x):
        return losses.smoothed_cross_entropy(x, labels, 0.1)

    def fc_total(x):
        return losses.feature_consistency_total(stack([x] + [Tensor(s) for s in fixed_scales]), 5e-3, 1e-5)

    def pc_local(x):
        return losses.local_prediction_consistency(stack([x] + [Tensor(p) for p in fixed_logits]), Tensor(overall))

    def pc_overall(x):
        return losses.overall_prediction_consistency(stack([Tensor(p) for p in fixed_logits] + [Tensor(overall)]), x)

    def im(x):
        return losses.information_maximization(x)

    def pl_ce(x):
        return losses.pseudo_label_cross_entropy(x, labels)

    return [
        ("smoothed_cross_entropy", smoothed, (batch, n_classes)),
        ("feature_consistency_total", fc_total, (batch, dim)),
        ("local_prediction_consistency", pc_local, (batch, n_classes)),
        ("overall_prediction_consistency", pc_overall, (batch, n_classes)),
        ("information_maximization", im, (batch, n_classes)),
        ("pseudo_label_cross_entropy", pl_ce, (batch, n_classes)),
    ]


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, fn, shape in _loss_cases(rng):
            point = Tensor(rng.normal(size=shape))
            result = finite_diff_check(fn, point, rel_tol=1e-4)
            worst = max(worst, result.max_rel_error)
            assert result.passed, f"{name} seed {seed}: rel err {result.max_rel_error:.2e}"
    elapsed = time.perf_counter() - started
    report(
        "criterion 1: gradient oracle (6 losses x 20 seeds, rel tol 1e-4)",
        elapsed < 120.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 2: loss identities ---------------------------------------------------


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(7)

    # Copies of a batch whose standardized columns are orthonormal correlate
    # to the identity. The eps_norm guard alone moves each diagonal entry to
    # 1/(1 + eps_norm): at eps_norm = 1e-6 the three columns add 3e-12, where
    # the default 1e-5 would add 3e-10, above the bound.
    orthonormal = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    copies = Tensor(np.stack([orthonormal] * 4))
    assert abs(losses.feature_consistency_total(copies, 5e-3, 1e-6).item()) <= 1e-10

    # Without the off-diagonal term, identical copies leave only the
    # diagonal deviations: at most 1e-6 in each of the 8 dimensions.
    lt = rng.normal(0.0, 5.0, size=(64, 8))
    assert losses.feature_consistency_total(Tensor(np.stack([lt, lt])), 0.0, 1e-5).item() <= 8 * 1e-6**2

    p = Tensor(rng.normal(size=(8, 4)))
    preds = (stack([p, p, p]), p)
    assert abs(losses.local_prediction_consistency(*preds).item()) <= 1e-10
    assert abs(losses.overall_prediction_consistency(*preds).item()) <= 1e-10
    pc_sum = losses.local_prediction_consistency(*preds).item() + losses.overall_prediction_consistency(*preds).item()
    assert abs(pc_sum) <= 1e-10

    for n_classes in (2, 8, 12):
        uniform = losses.information_maximization(Tensor(np.zeros((6, n_classes)))).item()
        assert abs(uniform - math.log(n_classes)) <= 1e-10
    one_hot = np.zeros((8, 4))
    one_hot[np.arange(8), np.arange(8) % 4] = 40.0
    assert abs(losses.information_maximization(Tensor(one_hot)).item()) <= 1e-10

    assert len(ordered_scale_pairs(5)) == 12

    report("criterion 2: loss identities (1e-10 / 8*(1e-6)^2 diag, 12 pairs at k=5)", True)


# -- criterion 3: local weight identities -------------------------------------------


def test_criterion_3_lwm_identities():
    rng = np.random.default_rng(11)

    confident = np.zeros((5, 6))
    confident[:, 2] = 40.0
    w = lwm.local_relevance_weight(stack([Tensor(confident)]))
    assert np.max(np.abs(w - 1.0)) < 1e-10

    uniform = lwm.local_relevance_weight(stack([Tensor(np.zeros((5, 6)))]))
    assert np.max(np.abs(uniform)) < 1e-10

    violations = 0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 9))
        a = rng.normal(size=n_classes) * rng.uniform(0.1, 6.0)
        b = rng.normal(size=n_classes) * rng.uniform(0.1, 6.0)
        entropies = []
        for x in (a, b):
            e = np.exp(x - x.max())
            prob = e / e.sum()
            entropies.append(float(-(prob * np.log(prob)).sum()))
        w = lwm.local_relevance_weight(stack([Tensor(a[None, :]), Tensor(b[None, :])]))
        if entropies[0] < entropies[1] and not w[0, 0] > w[0, 1]:
            violations += 1
        if entropies[0] > entropies[1] and not w[0, 0] < w[0, 1]:
            violations += 1
    assert violations == 0
    report("criterion 3: LWM identities and monotonicity over 1000 pairs", True)


# -- criterion 4: clustering oracle -------------------------------------------------


def test_criterion_4_clustering_oracle():
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 9))
        n_classes = int(rng.integers(2, 5))
        # half-unit quantization provokes genuine cosine ties
        features = np.round(rng.normal(size=(n, dim)) * 2.0) / 2.0
        logits = np.round(rng.normal(size=(n, n_classes)) * 2.0) / 2.0
        rounds = int(rng.integers(1, 3))
        got = PL.generate_pseudo_labels(features, logits, rounds=rounds).tolist()
        want = brute_force_pseudo_labels(features.tolist(), logits.tolist(), rounds=rounds)
        assert got == want, f"trial {trial}"
    report("criterion 4: clustering matches brute force on 100 instances", True)


# -- criterion 5: end-to-end adaptation ---------------------------------------------

CALIBRATION_SEEDS = (41, 42, 43, 44, 45)
CALIBRATION_VARIANTS = ("full", "fc", "pc", "pc_no_overall", "tc", "shot_baseline", "source_only")

# Margins committed after the one-time calibration run (mean target top-1
# over seeds 41-45; measured gaps +0.1915, +0.0573, +0.6229, +0.6229,
# +0.0781, +0.0344, +0.6000 in a 9.1 minute wall). Committed at roughly
# half the measured gap to absorb BLAS/build variation.
COMMITTED_MARGINS = {
    ("full", "source_only"): 0.10,
    ("full", "fc"): 0.02,
    ("full", "pc"): 0.30,
    ("full", "pc_no_overall"): 0.30,
    ("full", "shot_baseline"): 0.03,
    ("tc", "fc"): 0.01,
    ("tc", "pc"): 0.30,
}


@pytest.fixture(scope="module")
def calibration_results():
    cfg = RunConfig()
    started = time.perf_counter()
    results = P.run_ablation(cfg, list(CALIBRATION_VARIANTS), list(CALIBRATION_SEEDS))
    elapsed = time.perf_counter() - started
    means = {v: float(np.mean([results[v][s] for s in CALIBRATION_SEEDS])) for v in CALIBRATION_VARIANTS}
    print("calibration means over seeds 41-45:")
    for v in CALIBRATION_VARIANTS:
        print(f"  {v:14s} {means[v]:.4f}   per-seed {[round(results[v][s], 4) for s in CALIBRATION_SEEDS]}")
    print(f"calibration wall time: {elapsed/60:.1f} min")
    return means, elapsed


@pytest.mark.slow
def test_criterion_5_end_to_end_ordering(calibration_results):
    means, elapsed = calibration_results
    for (hi, lo), margin in COMMITTED_MARGINS.items():
        gap = means[hi] - means[lo]
        assert gap > 0.0, f"{hi} ({means[hi]:.4f}) must strictly exceed {lo} ({means[lo]:.4f})"
        assert gap >= margin, f"{hi} vs {lo}: gap {gap:.4f} below committed margin {margin}"
    report(
        "criterion 5: adaptation ordering on the calibration setup",
        elapsed < 1800.0,
        f"full {means['full']:.3f} > shot {means['shot_baseline']:.3f}, "
        f"tc {means['tc']:.3f} > fc {means['fc']:.3f}, source_only {means['source_only']:.3f}; "
        f"{elapsed/60:.1f} min",
    )


# -- calibrated generator properties (support criterion 5) --------------------------


@pytest.mark.slow
def test_shift_severity_drop_and_monotonicity():
    """At severity 0.7 the source model loses >= 15 points on the target,
    and target accuracy is non-increasing across severities {0, 0.35, 0.7}
    (calibration setup, seed 42; committed after the calibration run where
    the measured drop was 21.2 points)."""
    accs = []
    for severity in (0.0, 0.35, 0.7):
        cfg = replace(RunConfig(), seed=42, shift_severity=severity)
        source, target = generate_domain_pair(cfg.domain_spec())
        model, rows = P.train_source(source, cfg)
        source_acc = P.evaluate(model, source).accuracy
        target_acc = P.evaluate(model, target).accuracy
        accs.append((severity, source_acc, target_acc))
    assert accs[0][2] >= accs[1][2] >= accs[2][2], f"not monotone: {accs}"
    source_acc, target_acc = accs[2][1], accs[2][2]
    assert source_acc - target_acc >= 0.15, f"drop {source_acc - target_acc:.3f} < 0.15"
    report(
        "generator calibration: >= 15 point drop at 0.7, monotone in severity",
        True,
        f"target accs by severity {[(s, round(t, 3)) for s, _, t in accs]}",
    )


# -- criterion 6: freeze and label leakage ------------------------------------------


def test_criterion_6_freeze_and_leakage(tmp_path):
    cfg = RunConfig(
        classes=4, videos_per_class=20, frames=4, frame_dim=12,
        epochs_source=8, epochs_adapt=3, batch_size=16, seed=5,
    )
    source, target = generate_domain_pair(cfg.domain_spec())
    model, _ = P.train_source(source, cfg)

    adapted, _ = P.adapt_target(model, target, cfg)
    for (name, a), (_, b) in zip(
        model.head_parameters("head_all"), adapted.head_parameters("head_all")
    ):
        assert a.data.tobytes() == b.data.tobytes(), f"frozen drift in {name}"
    assert adapted.bn_mean.tobytes() == model.bn_mean.tobytes()

    stripped, _ = P.adapt_target(model, target.without_labels(), cfg)
    M.save_checkpoint(adapted, tmp_path / "labeled.json")
    M.save_checkpoint(stripped, tmp_path / "stripped.json")
    labeled_sum = hashlib.sha256((tmp_path / "labeled.json").read_bytes()).hexdigest()
    stripped_sum = hashlib.sha256((tmp_path / "stripped.json").read_bytes()).hexdigest()
    assert labeled_sum == stripped_sum
    report("criterion 6: frozen head bitwise stable, no label leakage", True, labeled_sum[:12])


# -- criterion 7: determinism --------------------------------------------------------


def test_criterion_7_pipeline_determinism(tmp_path):
    config_text = (
        "classes = 3\nvideos_per_class = 8\nframes = 4\nframe_dim = 6\n"
        "noise_std = 0.05\nd_enc = 8\nd = 8\nd_b = 8\n"
        "epochs_source = 2\nepochs_adapt = 2\nbatch_size = 6\nseed = 3\n"
    )
    outputs = {}
    for run in ("one", "two"):
        ws = tmp_path / run
        ws.mkdir()
        (ws / "run.config").write_text(config_text)
        for args in (
            ["gen-data", "--config", "run.config", "--out", "data"],
            ["train-source", "--config", "run.config", "--data", "data/source.jsonl", "--out", "src.json"],
            ["adapt", "--config", "run.config", "--source-model", "src.json",
             "--target-data", "data/target.jsonl", "--variant", "full", "--out", "adapted.json"],
            ["export-embeddings", "--model", "adapted.json", "--data", "data/target.jsonl",
             "--level", "overall", "--out", "emb.csv"],
        ):
            proc = run_sfvda(*args, cwd=ws)
            assert proc.returncode == 0, proc.stderr
        outputs[run] = {
            name: (ws / name).read_bytes()
            for name in (
                "data/source.jsonl", "data/target.jsonl", "src.json",
                "src.json.metrics.csv", "adapted.json", "adapted.json.metrics.csv",
                "emb.csv",
            )
        }
    assert outputs["one"] == outputs["two"]
    report("criterion 7: byte-identical metrics, checkpoints, exports", True)
