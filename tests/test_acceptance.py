"""End-to-end acceptance gates on the default experiment grid.

The expensive fixture simulates the full default grid once per session
(4 methods x 2 learners x 4 pilot counts x 50 frames x 100 payload symbols);
each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts.  Coverage thresholds leave ~2.8 binomial standard errors of slack on
5000 pooled points, so seed-to-seed noise cannot flip a healthy build.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cpdemod import cli, conformal, mlp
from cpdemod.channel import QPSK, generate_frame
from cpdemod.conformal import CrossValConformalPredictor, rank_threshold
from cpdemod.harness import (
    LEARNERS,
    ExperimentConfig,
    experiment_cells,
    run_experiment,
    write_csv,
)
from cpdemod.mlp import GDLearner, ModelArch
from helpers import (
    GOLDEN_KERNEL,
    blas_kernel,
    finite_difference_grad,
    max_rel_grad_error,
    quantile_by_counting,
    rank_rule,
)

GRID_NS = (10, 20, 40, 60)
CP_METHODS = ("vb", "cv", "kcv")
SNR_5DB = 10.0 ** 0.5
COMMITTED_RESULTS = Path(__file__).resolve().parents[1] / "results.csv"


@pytest.fixture(scope="session")
def grid():
    config = ExperimentConfig()
    # The worker count ``cpdemod run`` defaults to: the CPUs this process may run on.
    records = run_experiment(config, workers=cli._usable_cpus())
    return {(r.method, r.learner, r.n_pilots): r for r in records}


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_calibrated_coverage(grid):
    failures = [
        (m, l, n, grid[(m, l, n)].coverage)
        for m in CP_METHODS
        for l in LEARNERS
        for n in GRID_NS
        if grid[(m, l, n)].coverage < 0.88
    ]
    ok = _report(1, "calibrated methods keep coverage", not failures)
    assert ok, f"cells below 0.88: {failures}"


def test_criterion_2_naive_undercovers_with_few_pilots(grid):
    threshold = 0.9 - 2.0 * math.sqrt(0.9 * 0.1 / 5000.0)
    coverages = {l: grid[("naive", l, 10)].coverage for l in LEARNERS}
    ok = _report(
        2,
        "naive sets undercover at 10 pilots",
        any(c < threshold for c in coverages.values()),
    )
    assert ok, f"naive coverage at N=10 not below {threshold:.4f}: {coverages}"


def test_criterion_3_cross_val_is_no_wider_than_split(grid):
    failures = [
        (l, n, grid[("cv", l, n)].inefficiency, grid[("vb", l, n)].inefficiency)
        for l in LEARNERS
        for n in (20, 40, 60)
        if grid[("cv", l, n)].inefficiency > grid[("vb", l, n)].inefficiency
    ]
    ok = _report(3, "cross-val sets no wider than split sets", not failures)
    assert ok, f"cv wider than vb at: {failures}"


def test_criterion_4_sets_shrink_with_more_pilots(grid):
    failures = [
        (m, l, grid[(m, l, 20)].inefficiency, grid[(m, l, 60)].inefficiency)
        for m in CP_METHODS
        for l in LEARNERS
        if not grid[(m, l, 60)].inefficiency < grid[(m, l, 20)].inefficiency
    ]
    ok = _report(4, "set size falls from 20 to 60 pilots", not failures)
    assert ok, f"no shrink for: {failures}"


def test_criterion_5_exchangeable_scores_coverage_band():
    rng = np.random.default_rng(314159)
    trials = 100_000
    results = []
    for n_val, alpha in ((9, 0.1), (19, 0.1), (19, 0.05)):
        draws = rng.standard_normal((trials, n_val + 1))
        val, test = draws[:, :n_val], draws[:, n_val]
        counts = (val >= test[:, None]).sum(axis=1)
        coverage = float(np.mean(counts >= rank_threshold(n_val, alpha)))
        low = 1.0 - alpha - 0.005
        high = 1.0 - alpha + 1.0 / (n_val + 1) + 0.005
        results.append((n_val, alpha, coverage, low <= coverage <= high))
    ok = _report(5, "rank rule hits its exact coverage band", all(r[3] for r in results))
    assert ok, f"out-of-band coverage: {results}"


def test_criterion_6_numerical_core(monkeypatch):
    # a) analytic gradient vs central differences, on five seeds that keep
    # every rectifier input clear of the difference stencil (a kink straddle
    # measures averaged one-sided slopes, not the reported subgradient)
    grad_ok = True
    with monkeypatch.context() as patch:
        patch.setattr(ModelArch, "hidden", (5, 4, 3))
        arch = ModelArch(output_dim=3)
        for seed in (0, 1, 2, 3, 6):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2))
            y = rng.integers(0, 3, size=6)
            w = mlp.init_weights(arch, rng)
            err = max_rel_grad_error(mlp.grad(w, X, y), finite_difference_grad(w, X, y))
            grad_ok = grad_ok and err < 1e-4

    # b) the rank rule on one fold vs the counting oracle's calibrated
    # quantile on 1000 random score sets: a candidate at, between or beyond
    # the scores enters exactly when it is at most the quantile
    rng = np.random.default_rng(271828)
    quant_ok = True
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        alpha = float(rng.uniform(0.01, 0.99))
        scores = (
            rng.normal(size=n)
            if rng.integers(0, 2)
            else rng.integers(0, 5, size=n).astype(float)
        )
        cand = np.concatenate([scores, scores - 0.25, scores + 0.25, [-math.inf, math.inf]])
        enters = rank_rule(cand[:, None], [scores], alpha)
        quant_ok = quant_ok and np.array_equal(enters, cand <= quantile_by_counting(scores, alpha))

    # c) membership rule vs a direct double loop on 50 synthetic score tables
    rng = np.random.default_rng(161803)
    member_ok = True
    for _ in range(50):
        n_labels = int(rng.integers(2, 6))
        n = int(rng.integers(3, 30))
        alpha = float(rng.uniform(0.02, 0.5))
        cand = rng.integers(0, 5, size=(n_labels, n)).astype(float)
        val = rng.integers(0, 5, size=n).astype(float)
        got = rank_rule(cand, val[:, None], alpha)
        need = math.floor(Fraction(alpha) * (n + 1))
        for l in range(n_labels):
            count = sum(1 for i in range(n) if cand[l, i] <= val[i])
            member_ok = member_ok and bool(got[l]) == (count >= need)

    # d) leave-fold-out with one-point folds is exactly leave-one-out
    frame = generate_frame(6, 10, SNR_5DB, QPSK, np.random.default_rng(55))
    learner = GDLearner(ModelArch())
    loo = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, None, 8)
    kn = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, 6, 8)
    fold_ok = np.array_equal(loo.predict_mask(frame.test_x), kn.predict_mask(frame.test_x))

    ok = _report(6, "numerical core", grad_ok and quant_ok and member_ok and fold_ok)
    assert ok, (
        f"gradient={grad_ok} quantile={quant_ok} membership={member_ok} folds={fold_ok}"
    )


def test_criterion_7_same_seed_same_bytes(tmp_path):
    config = ExperimentConfig(n_pilots_grid=(10,), n_test=10, n_frames=2, master_seed=0)
    first = str(tmp_path / "first.csv")
    second = str(tmp_path / "second.csv")
    write_csv(run_experiment(config), first)
    write_csv(run_experiment(config), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        same = fa.read() == fb.read()
    ok = _report(7, "same master seed, byte-identical CSV", same)
    assert ok


def test_default_grid_reproduces_committed_results_csv(grid, tmp_path):
    # The grid fixture runs the same settings as a default `cpdemod run`, so
    # its CSV must be the committed results.csv byte for byte.
    out = tmp_path / "results.csv"
    write_csv([grid[cell] for cell in experiment_cells(ExperimentConfig())], str(out))
    assert out.read_bytes() == COMMITTED_RESULTS.read_bytes(), (
        f"grid differs from the committed results.csv: this run used the OpenBLAS "
        f"{blas_kernel()} kernel, results.csv was made on {GOLDEN_KERNEL}"
    )
