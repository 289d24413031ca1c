"""Stacks of networks equal the same networks run one at a time, bit for bit.

Training: K models fitted in one call equal K single fits.  Kernels: the
sample-major stacked forward and backward equal a plain per-network numpy
reference, also when weights hold inf or NaN.  Scoring: stacked calibration
scores and sets equal per-model scoring, and a predictor's sets do not depend
on what it scored before.
"""

import tracemalloc

import numpy as np
import pytest

from cpdemod import conformal, mlp
from cpdemod.channel import QPSK, generate_frame
from cpdemod.conformal import CrossValConformalPredictor
from cpdemod.harness import METHODS
from cpdemod.mlp import GDLearner, ModelArch, SGLDLearner, features, init_weights
from cpdemod.seeding import derive_rng
from helpers import (
    fit_one,
    held_out_scores,
    layers,
    predictor,
    reference_forward,
    reference_grad,
    reference_predictive,
    reference_train_gd,
    reference_train_sgld,
    with_constants,
)

SNR_5DB = 10.0 ** 0.5
LEARNERS = {
    "gd": with_constants(GDLearner, steps=25)(ModelArch()),
    "sgld": with_constants(SGLDLearner, burn_in=10, ensemble_size=4)(ModelArch()),
}


def _pilots(n, seed):
    frame = generate_frame(n, 1, SNR_5DB, QPSK, np.random.default_rng(seed))
    return features(frame.pilot_x), frame.pilot_y


def _loo_rows(n):
    return np.array([np.delete(np.arange(n), j) for j in range(n)])


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_fold_count_above_the_stack_cap_fits_in_capped_stacks(learner):
    k = conformal.MAX_STACK + 5
    frame = generate_frame(k, 3, SNR_5DB, QPSK, np.random.default_rng(2))
    stack_sizes = []

    class Counting:
        arch = LEARNERS[learner].arch

        def fit(self, X, y, rng):
            stack_sizes.append(len(rng))
            return LEARNERS[learner].fit(X, y, rng)

    pred = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, Counting(), None, 3)
    assert stack_sizes == [conformal.MAX_STACK, 5]
    feats = features(frame.pilot_x)
    for j, (fold, model) in enumerate(zip(pred.plan.folds, pred.models)):
        keep = np.setdiff1d(np.arange(k), fold)
        single = fit_one(LEARNERS[learner], feats[keep], frame.pilot_y[keep], derive_rng(3, 1 + j))
        assert np.array_equal(model, single), f"fold {j}"


@pytest.mark.parametrize("learner", sorted(LEARNERS))
def test_single_dataset_is_rejected(learner):
    # A learner fits stacks only; one dataset is a stack of one.
    X, y = _pilots(6, seed=4)
    with pytest.raises(ValueError, match="stack"):
        LEARNERS[learner].fit(X, y, [derive_rng(0)])


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


_TRAINER_CASES = {
    "gd": dict(lr=0.2),
    "gd-diverging": dict(lr=1e100),
    "sgld": dict(lr=0.2),
    "sgld-diverging": dict(lr=1e100),
}


@pytest.mark.parametrize("case", sorted(_TRAINER_CASES))
@pytest.mark.parametrize("k,m", [(k, m) for k in (1, 5, 20) for m in (1, 9, 59)])
def test_trainers_equal_per_network_reference(case, k, m):
    # Each model of a stack equals one network trained by the plain numpy
    # reference, update arithmetic included; the diverging learning rate
    # drives the weights to inf and NaN.
    rng = np.random.default_rng(200 + k * m)
    X, y = rng.normal(size=(k, m, 2)) * 2.0, rng.integers(0, 4, size=(k, m))
    arch, kwargs = ModelArch(), _TRAINER_CASES[case]
    if case.startswith("gd"):
        learner, reference, steps = GDLearner, reference_train_gd, dict(steps=12)
    else:
        learner, reference = SGLDLearner, reference_train_sgld
        steps = dict(burn_in=8, ensemble_size=4)
    learner = with_constants(learner, **steps, **kwargs)(arch)
    with np.errstate(all="ignore"):
        got = learner.fit(X, y, [derive_rng(9, j) for j in range(k)])
        want = [reference(X[j], y[j], arch, rng=derive_rng(9, j), **steps, **kwargs)
                for j in range(k)]
    for j, (model, ref) in enumerate(zip(got, want)):
        assert np.array_equal(model, ref, equal_nan=True), f"model {j}"
    finite = [np.isfinite(model).all() for model in got]
    assert not any(finite) if case.endswith("diverging") else all(finite)


# ------------------------------------------------------------------ kernels


def _random_networks(rng, k, arch=ModelArch()):
    """k random networks; some carry weights that overflow to inf or NaN,
    the state a diverged Langevin run leaves behind."""
    nets = [init_weights(arch, rng) for _ in range(k)]
    for j, net in enumerate(nets):
        ws, bs = layers(net)
        for a in bs:
            a += rng.normal(size=a.shape)
        if j % 3 == 1:
            ws[1] *= 1e200
            ws[2] *= 1e200
        if j % 4 == 2:
            ws[2][3, 5] = np.inf
            bs[3][1] = np.nan
    return nets


@pytest.mark.parametrize("k,m", [(1, 1), (1, 9), (5, 1), (6, 13), (20, 59)])
def test_stacked_backprop_equals_per_network_reference(k, m):
    rng = np.random.default_rng(100 + k * m)
    nets = _random_networks(rng, k)
    X, y = mlp._canonical(rng.normal(size=(k, m, 2)) * 2.0, rng.integers(0, 4, size=(k, m)))
    targets = np.eye(4)[y]
    stacked = np.stack(nets)
    sample_major = np.ascontiguousarray(X.transpose(1, 0, 2))
    step = mlp._Pass(stacked, sample_major, np.ascontiguousarray(targets.transpose(1, 0, 2)))
    with np.errstate(all="ignore"):
        probs = step.forward().copy()
        step.backward()
        g = step.grad
        # The pass runs again from the weights, not from its overwritten buffers.
        assert np.array_equal(step.forward(), probs, equal_nan=True)
        for j, net in enumerate(nets):
            assert np.array_equal(probs[:, j], reference_forward(net, X[j])[1], equal_nan=True)
            assert np.array_equal(g[j], reference_grad(net, X[j], targets[j]), equal_nan=True), j
    if k > 2:
        assert np.isnan(probs).any() and not np.isnan(probs).all()


@pytest.mark.parametrize("pass_bytes", [1, 20_000, 60_000, None])
@pytest.mark.parametrize("members", [1, 3, 5])
@pytest.mark.parametrize("per_model_rows", [False, True])
def test_stacked_predictive_equals_per_model_reference(
    pass_bytes, members, per_model_rows, monkeypatch
):
    # Pass budgets of one network, a few networks (two and six networks
    # here, so passes span models and split their members) and everything
    # at once.
    if pass_bytes is not None:
        monkeypatch.setattr(mlp, "MAX_PASS_BYTES", pass_bytes)
    rng = np.random.default_rng(members)
    k, n = 4, 5
    nets = _random_networks(rng, k * members)
    models = np.reshape(nets, (k, members, -1))
    X = rng.normal(size=(n, k, 2)) if per_model_rows else rng.normal(size=(n, 2))
    with np.errstate(all="ignore"):
        got = mlp.predictive_stack(models, X)
        for j, model in enumerate(models):
            rows = X[:, j] if per_model_rows else X
            assert np.array_equal(got[:, j], reference_predictive(model, rows), equal_nan=True)


# ------------------------------------------------------------------ scoring


@pytest.mark.parametrize("pass_bytes", [64 << 10, 256 << 10, None])
def test_scoring_holds_one_pass_of_weights(pass_bytes, monkeypatch):
    # cv's held-out scoring: 20 Langevin ensembles, each on its own pilot.
    # A pass reads its weights in place, as a view of the models, so the
    # call's peak stays below one pass's weights; a copy per pass, let alone
    # two passes' copies at once, would show as a peak above them.
    if pass_bytes is not None:
        monkeypatch.setattr(mlp, "MAX_PASS_BYTES", pass_bytes)
    X, y = _pilots(20, seed=6)
    rows = _loo_rows(20)
    models = with_constants(SGLDLearner, burn_in=1)(ModelArch()).fit(
        X[rows], y[rows], [derive_rng(5, j) for j in range(20)]
    )
    held_out = X[None]
    pass_weights = []

    class Recording(mlp._Pass):
        def __init__(self, params, *args):
            assert np.shares_memory(params, models)
            pass_weights.append(params.nbytes)
            super().__init__(params, *args)

    monkeypatch.setattr(mlp, "_Pass", Recording)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mlp.predictive_stack(models, held_out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pass_weights) > 2
    assert peak < 1.5 * max(pass_weights), (peak, pass_weights)


def _reference_scores(model, feats):
    return -np.log(np.maximum(reference_predictive(model, feats), mlp.PROB_FLOOR))


# The method of each plan: split, leave-one-out and 5-fold cross-validation.
_PLANS = {"vb": "vb", "loo": "cv", "kfold": "kcv"}


def _predictor(method, frame, learner):
    return predictor(method, frame.pilot_x, frame.pilot_y, 0.2, LEARNERS[learner], 8, k=5)


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_model_j_equals_a_lone_fit_outside_fold_j(learner, method):
    # A plan stores only its folds: the training rows of every method rest on
    # this rule.
    frame = generate_frame(10, 1, SNR_5DB, QPSK, np.random.default_rng(6))
    pred = _predictor(method, frame, learner)
    feats = features(frame.pilot_x)
    assert len(pred.models) == len(pred.plan.folds)
    for j, (fold, model) in enumerate(zip(pred.plan.folds, pred.models)):
        keep = np.setdiff1d(np.arange(10), fold)
        single = fit_one(LEARNERS[learner], feats[keep], frame.pilot_y[keep], derive_rng(8, 1 + j))
        assert np.array_equal(model, single), f"model {j}"


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("plan", sorted(_PLANS))
@pytest.mark.parametrize("n_test", [7, 2600])
def test_stacked_scoring_equals_per_model_scoring(learner, plan, n_test):
    # 2600 payload rows need more than MAX_PASS_BYTES for one network alone,
    # so every pass scores a single network on the whole payload.
    frame = generate_frame(10, n_test, SNR_5DB, QPSK, np.random.default_rng(9))
    pred = _predictor(_PLANS[plan], frame, learner)
    feats = features(frame.pilot_x)
    held_out = []
    for model, fold, got in zip(pred.models, pred.plan.folds, held_out_scores(pred)):
        want = _reference_scores(model, feats[fold])[np.arange(len(fold)), frame.pilot_y[fold]]
        assert np.array_equal(got, want)
        held_out.append(want)
    payload = features(frame.test_x)
    counts = sum(
        (_reference_scores(model, payload)[:, :, None] <= scores).sum(-1)
        for model, scores in zip(pred.models, held_out)
    )
    want_mask = counts >= conformal.rank_threshold(pred.plan.folds.size, pred.alpha)
    assert np.array_equal(pred.predict_mask(frame.test_x), want_mask)
    # Again on fewer rows.
    assert np.array_equal(pred.predict_mask(frame.test_x[:3]), want_mask[:3])


@pytest.mark.parametrize("learner", sorted(LEARNERS))
@pytest.mark.parametrize("plan", ["naive", *sorted(_PLANS)])
def test_one_predictor_scores_payloads_of_any_size_in_turn(learner, plan):
    # 2600 rows run one network per pass, 7 rows one pass for every network,
    # and an empty payload gets an empty mask.
    frame = generate_frame(10, 2600, SNR_5DB, QPSK, np.random.default_rng(4))
    payloads = [frame.test_x[:7], frame.test_x, frame.test_x[:0], frame.test_x[7:14]]
    method = _PLANS.get(plan, plan)
    pred = _predictor(method, frame, learner)
    for x in payloads:
        fresh = _predictor(method, frame, learner)
        mask = pred.predict_mask(x)
        assert mask.shape == (len(x), 4)
        assert np.array_equal(mask, fresh.predict_mask(x))
