"""Stacked training: K models fitted in one call equal K single fits, bit for bit."""

import numpy as np
import pytest

from cpdemod import conformal
from cpdemod.channel import generate_frame, make_qpsk
from cpdemod.conformal import CrossValConformalPredictor
from cpdemod.mlp import Ensemble, GDLearner, ModelArch, SGLDLearner, features
from cpdemod.seeding import derive_rng
from helpers import weights_equal

SNR_5DB = 10.0 ** 0.5
LEARNERS = {
    "gd": GDLearner(ModelArch(), steps=25),
    "sgld": SGLDLearner(ModelArch(), burn_in=10, ensemble_size=4),
}


def _pilots(n, seed):
    frame = generate_frame(n, 1, SNR_5DB, make_qpsk(), np.random.default_rng(seed))
    return features(frame.pilot_x), frame.pilot_y


def _same_model(a, b) -> bool:
    if isinstance(a, Ensemble):
        return len(a.members) == len(b.members) and all(
            weights_equal(x, y) for x, y in zip(a.members, b.members)
        )
    return weights_equal(a, b)


def _loo_rows(n):
    return np.array([np.delete(np.arange(n), j) for j in range(n)])


def _kfold_rows(n, k):
    folds = np.arange(n).reshape(k, n // k)
    return np.array([np.delete(folds, j, axis=0).ravel() for j in range(k)])


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("rows", [_loo_rows(8), _kfold_rows(15, 5)], ids=["loo", "kfold"])
def test_stacked_fit_equals_single_fits(learner, rows):
    X, y = _pilots(rows.max() + 1, seed=1)
    fit = LEARNERS[learner].fit
    stacked = fit(X[rows], y[rows], [derive_rng(7, j) for j in range(len(rows))])
    assert isinstance(stacked, list) and len(stacked) == len(rows)
    for j, model in enumerate(stacked):
        assert _same_model(model, fit(X[rows[j]], y[rows[j]], derive_rng(7, j))), f"model {j}"


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_fold_count_above_the_stack_cap_fits_in_capped_stacks(learner):
    k = conformal.MAX_STACK + 5
    frame = generate_frame(k, 3, SNR_5DB, make_qpsk(), np.random.default_rng(2))
    stack_sizes = []

    class Counting:
        arch = LEARNERS[learner].arch

        def fit(self, X, y, rng):
            stack_sizes.append(len(rng))
            return LEARNERS[learner].fit(X, y, rng)

    pred = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, Counting(), None, 3)
    assert stack_sizes == [conformal.MAX_STACK, 5]
    feats = features(frame.pilot_x)
    for j, (fold, model) in enumerate(zip(pred.folds, pred.models)):
        keep = np.setdiff1d(np.arange(k), fold)
        single = LEARNERS[learner].fit(feats[keep], frame.pilot_y[keep], derive_rng(3, 1 + j))
        assert _same_model(model, single), f"fold {j}"


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_stack_of_unequal_datasets_is_rejected(learner):
    X, y = _pilots(6, seed=4)
    with pytest.raises(ValueError):
        LEARNERS[learner].fit([X[:5], X[:4]], [y[:5], y[:4]], [derive_rng(0), derive_rng(1)])
    with pytest.raises(ValueError):
        LEARNERS[learner].fit(np.stack([X[:5], X[1:]]), np.stack([y[:5], y[:5]])[:, :4],
                              [derive_rng(0), derive_rng(1)])


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("n_rngs", [1, 3])
def test_stack_needs_one_generator_per_model(learner, n_rngs):
    X, y = _pilots(6, seed=5)
    rows = _loo_rows(6)[:2]
    with pytest.raises(ValueError):
        LEARNERS[learner].fit(X[rows], y[rows], [derive_rng(0, j) for j in range(n_rngs)])
