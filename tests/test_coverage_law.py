"""Per-frame coverage of split conformal with the real learners.

Given its calibration fold, a vb frame covers a payload symbol with
probability Beta(n_cal + 1 - l, l), l = ``rank_threshold(n_cal, alpha)``, when
scores are continuous (Vovk 2012, "Conditional validity of inductive
conformal predictors").  A frame's hits over ``n_test`` payload symbols are
then BetaBinomial(n_test, n_cal + 1 - l, l).  The checks compare the
empirical CDF of per-frame hits with that law by a Kolmogorov-Smirnov
distance; the tolerance is the 1% critical value at 200 frames, fixed before
any run.

Langevin ensembles at 20 pilots tie many held-out scores at 0 or at the
probability clamp, and a tie admits the label, so there the hits only lie
stochastically above the law; that cell gets the one-sided check.
"""

import math

import numpy as np
import pytest
from scipy.stats import betabinom

from cpdemod.conformal import rank_threshold
from cpdemod.harness import ExperimentConfig, _block_job, _cell_blocks

CONFIG = ExperimentConfig(
    methods=("vb",), n_pilots_grid=(20, 40, 60), n_frames=200, n_test=100, master_seed=2012
)
TOLERANCE = 1.63 / math.sqrt(CONFIG.n_frames)


@pytest.fixture(scope="module")
def frame_hits():
    """Per-frame hits of every vb cell, keyed by (learner, n_pilots)."""
    hits = {}
    for _, (_, learner, n_pilots), frame_indices in _cell_blocks(CONFIG):
        outcomes = _block_job(CONFIG, ("vb", learner, n_pilots), frame_indices)
        hits.setdefault((learner, n_pilots), []).extend(h for h, _, _ in outcomes)
    return {cell: np.array(h) for cell, h in hits.items()}


def _cdf_gap(hits: np.ndarray, n_pilots: int) -> np.ndarray:
    """Empirical CDF of per-frame hits minus the law's CDF, at 0..n_test."""
    n_cal = n_pilots - math.ceil(0.5 * n_pilots)
    l = rank_threshold(n_cal, CONFIG.alpha)
    support = np.arange(CONFIG.n_test + 1)
    law = betabinom.cdf(support, CONFIG.n_test, n_cal + 1 - l, l)
    empirical = (hits[:, None] <= support).mean(axis=0)
    return empirical - law


@pytest.mark.parametrize(
    "learner,n_pilots",
    [
        ("frequentist", 20),
        ("frequentist", 40),
        ("frequentist", 60),
        ("bayesian", 40),
        ("bayesian", 60),
    ],
)
def test_vb_frame_hits_follow_the_calibration_conditional_law(frame_hits, learner, n_pilots):
    gap = np.abs(_cdf_gap(frame_hits[(learner, n_pilots)], n_pilots)).max()
    assert gap <= TOLERANCE, f"KS distance {gap:.3f} > {TOLERANCE:.3f}"


def test_vb_langevin_hits_at_20_pilots_are_no_smaller_than_the_law(frame_hits):
    # Fewer hits than the law would put the empirical CDF above it.
    gap = _cdf_gap(frame_hits[("bayesian", 20)], 20).max()
    assert gap <= TOLERANCE, f"one-sided KS distance {gap:.3f} > {TOLERANCE:.3f}"
