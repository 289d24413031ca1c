"""End-to-end acceptance gates on the default experiment grid.

The expensive fixture simulates the full default grid once per session
(4 methods x 2 learners x 4 pilot counts x 50 frames x 100 payload symbols);
each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts.  Coverage thresholds leave ~2.8 binomial standard errors of slack on
5000 pooled points, so seed-to-seed noise cannot flip a healthy build.
Criteria 1-4 are also checked, with the same thresholds, on the 100 seeds
whose outcomes ``bench/reference.json`` stores.
"""

import dataclasses
import json
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
STORED_OUTCOMES = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


@pytest.fixture(scope="session")
def grid():
    config = ExperimentConfig()
    # The worker count ``cpdemod run`` defaults to: the CPUs this process may run on.
    records = run_experiment(config, workers=cli._usable_cpus())
    return {(r.method, r.learner, r.n_pilots): r for r in records}


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


# Criteria 1-4 read a grid's cells as {(method, learner, n_pilots): (pooled
# coverage, mean set size)} and return (ok, what the verdict rests on).


def criterion_1(cells) -> tuple[bool, str]:
    coverage = {
        (m, l, n): cells[(m, l, n)][0] for m in CP_METHODS for l in LEARNERS for n in GRID_NS
    }
    low = min(coverage, key=coverage.get)
    failures = [(cell, c) for cell, c in coverage.items() if c < 0.88]
    return not failures, f"lowest {coverage[low]:.4f} at {low}; cells below 0.88: {failures}"


def criterion_2(cells) -> tuple[bool, str]:
    threshold = 0.9 - 2.0 * math.sqrt(0.9 * 0.1 / 5000.0)
    coverages = {l: cells[("naive", l, 10)][0] for l in LEARNERS}
    ok = any(c < threshold for c in coverages.values())
    return ok, f"naive coverage at N=10 against {threshold:.4f}: {coverages}"


def criterion_3(cells) -> tuple[bool, str]:
    # A gap below 0 is a cell where cv is wider than vb.
    gaps = {(l, n): cells[("vb", l, n)][1] - cells[("cv", l, n)][1]
            for l in LEARNERS for n in (20, 40, 60)}
    low = min(gaps, key=gaps.get)
    failures = [cell for cell, gap in gaps.items() if gap < 0]
    return not failures, f"smallest vb - cv gap {gaps[low]:.4f} at {low}; cv wider at: {failures}"


def criterion_4(cells) -> tuple[bool, str]:
    shrinks = {(m, l): cells[(m, l, 20)][1] - cells[(m, l, 60)][1]
               for m in CP_METHODS for l in LEARNERS}
    low = min(shrinks, key=shrinks.get)
    failures = [cell for cell, shrink in shrinks.items() if not shrink > 0]
    return not failures, f"smallest shrink {shrinks[low]:.4f} at {low}; no shrink for: {failures}"


CRITERIA = {
    1: ("calibrated methods keep coverage", criterion_1),
    2: ("naive sets undercover at 10 pilots", criterion_2),
    3: ("cross-val sets no wider than split sets", criterion_3),
    4: ("set size falls from 20 to 60 pilots", criterion_4),
}


def _check(cells, num: int) -> tuple[bool, str]:
    name, criterion = CRITERIA[num]
    ok, detail = criterion(cells)
    _report(num, name, ok)
    print(f"  {detail}")
    return ok, detail


def _seed_zero(grid):
    return {cell: (r.coverage, r.inefficiency) for cell, r in grid.items()}


def test_criterion_1_calibrated_coverage(grid):
    ok, detail = _check(_seed_zero(grid), 1)
    assert ok, detail


def test_criterion_2_naive_undercovers_with_few_pilots(grid):
    ok, detail = _check(_seed_zero(grid), 2)
    assert ok, detail


def test_criterion_3_cross_val_is_no_wider_than_split(grid):
    ok, detail = _check(_seed_zero(grid), 3)
    assert ok, detail


def test_criterion_4_sets_shrink_with_more_pilots(grid):
    ok, detail = _check(_seed_zero(grid), 4)
    assert ok, detail


def test_criteria_1_to_4_hold_on_the_stored_seeds():
    # The grid workload's stored outcomes, which CI regenerates from the code:
    # the default grid with one frame per cell at master seeds 0-99, so 100
    # independent frames per cell.  Criteria 1-4 run on them pooled, with the
    # seed-0 thresholds.
    stored = json.loads(STORED_OUTCOMES.read_text())["grid"]
    config = ExperimentConfig(n_frames=1)
    signature = dataclasses.asdict(config)
    del signature["master_seed"]
    assert stored["config"] == json.loads(json.dumps(signature)), "not the default grid"
    assert sorted(stored["seeds"], key=int) == [str(s) for s in range(100)]
    keys = {".".join(map(str, cell)): cell for cell in experiment_cells(config)}
    per_seed = {cell: [] for cell in keys.values()}
    for seed, outcomes in stored["seeds"].items():
        assert outcomes.keys() == keys.keys(), f"seed {seed} does not hold every cell"
        for key, outcome in outcomes.items():
            per_seed[keys[key]].append(outcome)
    cells = {}
    for cell, outcomes in per_seed.items():
        hits, size_sum, count = (sum(column) for column in zip(*outcomes))
        cells[cell] = (hits / count, size_sum / count)

    # Reported, not gated: vb's pooled coverage against the split-conformal
    # expectation, and how many seeds a cv or kcv cell covers below 1 - 2 alpha.
    for (method, learner, n), (coverage, _) in cells.items():
        if method == "vb":
            zeros = np.zeros(n, dtype=np.int64)
            n_cal = conformal.fold_plan("vb", zeros, zeros).folds.size
            expected = 1 - rank_threshold(n_cal, config.alpha) / (n_cal + 1)
            print(f"vb/{learner}/{n}: coverage {coverage:.4f}, split-conformal {expected:.4f}")
    for (method, learner, n), outcomes in per_seed.items():
        if method in ("cv", "kcv"):
            per_frame = [hits / count for hits, _, count in outcomes]
            below = sum(c < 1 - 2 * config.alpha for c in per_frame)
            print(f"{method}/{learner}/{n}: {below} of {len(per_frame)} seeds cover below "
                  f"{1 - 2 * config.alpha:.2f}, lowest {min(per_frame):.2f}")

    results = [_check(cells, num) for num in CRITERIA]
    assert all(ok for ok, _ in results), [detail for ok, detail in results if not ok]


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
