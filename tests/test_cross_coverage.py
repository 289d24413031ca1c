"""Pooled coverage of cross-conformal sets with the real learners.

Leave-one-out (cv) and k-fold (kcv) cross-conformal sets at level alpha
cover with probability at least 1 - 2 alpha (Vovk 2015, "Cross-conformal
predictors"; Barber et al. 2021, "Predictive inference with the
jackknife+"); calibrated at alpha / 2, which ``alpha_halving`` does, they
cover with probability at least 1 - alpha.

Every frame of a cell is fitted once, the way ``harness._simulate_block``
fits it, and calibrated at alpha = 0.05, 0.1 and 0.2, so each alpha and its
halved level see the same models.  At 20 pilots every checked rank threshold
is at least 1: floor(0.05 * 21) = 1, so no check is vacuous.  The seed, the
frame count and the tolerance, 3 binomial standard errors of the pooled
coverage at the bound, were fixed before any run.  Payload symbols of one
frame share its calibration, so this standard error understates the spread;
the tolerance is not widened for it.
"""

import math

import pytest

from cpdemod import conformal
from cpdemod.channel import QPSK, generate_frame
from cpdemod.harness import (
    ExperimentConfig,
    _cell_blocks,
    _make_learner,
    frame_seed,
    tally,
)
from cpdemod.seeding import derive_rng, hash64

CONFIG = ExperimentConfig(
    methods=("cv", "kcv"), n_pilots_grid=(20,), n_frames=40, n_test=25, master_seed=2015
)
ALPHAS = (0.05, 0.1, 0.2)
N_SYMBOLS = CONFIG.n_frames * CONFIG.n_test


@pytest.fixture(scope="module")
def pooled_coverage():
    """Pooled coverage of every cell at every level in ``ALPHAS``, keyed by
    (method, learner, alpha)."""
    hits = {}
    for _, cell, frame_indices in _cell_blocks(CONFIG):
        method, learner, n_pilots = cell
        frames, plans = [], []
        for frame_index in frame_indices:
            fseed = frame_seed(CONFIG.master_seed, *cell, frame_index)
            frame = generate_frame(
                n_pilots, CONFIG.n_test, CONFIG.snr_linear, QPSK, derive_rng(fseed, 0)
            )
            frames.append(frame)
            plans.append(
                conformal.fold_plan(
                    method, frame.pilot_x, frame.pilot_y, hash64(fseed, 1), CONFIG.k_folds
                )
            )
        sets = [
            [conformal.PayloadSets(plan, a, frame.test_x, len(QPSK)) for a in ALPHAS]
            for frame, plan in zip(frames, plans)
        ]
        for stack in conformal.fitted_stacks(_make_learner(learner), plans):
            for p, models in stack:
                for alpha_sets in sets[p]:
                    alpha_sets.add(models)
        for frame, plan, frame_sets in zip(frames, plans, sets):
            for alpha, alpha_sets in zip(ALPHAS, frame_sets):
                assert conformal.rank_threshold(plan.folds.size, alpha) >= 1
                h, _ = tally(alpha_sets.mask, frame.test_y)
                key = (method, learner, alpha)
                hits[key] = hits.get(key, 0) + h
    return {key: h / N_SYMBOLS for key, h in hits.items()}


def _tolerance(bound: float) -> float:
    return 3.0 * math.sqrt(bound * (1.0 - bound) / N_SYMBOLS)


CELLS = [(m, l, a) for m in ("cv", "kcv") for l in ("frequentist", "bayesian") for a in (0.1, 0.2)]


@pytest.mark.parametrize("method,learner,alpha", CELLS)
def test_cross_conformal_covers_at_least_one_minus_twice_alpha(
    pooled_coverage, method, learner, alpha
):
    coverage, bound = pooled_coverage[(method, learner, alpha)], 1.0 - 2.0 * alpha
    assert coverage >= bound - _tolerance(bound), f"coverage {coverage:.4f} < {bound}"


@pytest.mark.parametrize("method,learner,alpha", CELLS)
def test_halved_cross_conformal_covers_at_least_one_minus_alpha(
    pooled_coverage, method, learner, alpha
):
    coverage, bound = pooled_coverage[(method, learner, alpha / 2.0)], 1.0 - alpha
    assert coverage >= bound - _tolerance(bound), f"coverage {coverage:.4f} < {bound}"
