"""Classifier internals: init, forward, loss, gradient, both learners."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdemod import mlp
from cpdemod.channel import generate_frame, make_qpsk
from cpdemod.mlp import (
    Ensemble,
    GDLearner,
    ModelArch,
    SGLDLearner,
    Weights,
    canonical_order,
    features,
    grad,
    init_weights,
    nll_loss,
    predictive_stack,
)
from helpers import (
    certain_weights,
    copy_weights,
    finite_difference_grad,
    fit_one,
    max_rel_grad_error,
    networks,
    reference_forward,
    stack,
    weights_equal,
    zero_weights,
)

LOG4 = math.log(4.0)
SNR_5DB = 10.0 ** 0.5


def _toy_data(seed=0, n=8, n_labels=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)), rng.integers(0, n_labels, size=n)


def test_arch_requires_three_hidden_layers():
    with pytest.raises(ValueError):
        ModelArch(hidden=(16, 16))
    with pytest.raises(ValueError):
        ModelArch(hidden=(16, 16, 16, 16))
    with pytest.raises(ValueError):
        ModelArch(output_dim=0)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: ModelArch(hidden=(10.7, 16, 16)), "hidden"),
        (lambda: ModelArch(hidden=(16, True, 16)), "hidden"),
        (lambda: ModelArch(input_dim=2.0), "input_dim"),
        (lambda: ModelArch(output_dim="4"), "output_dim"),
        (lambda: GDLearner(ModelArch(), steps=2.5), "steps"),
        (lambda: SGLDLearner(ModelArch(), burn_in=True), "burn_in"),
        (lambda: SGLDLearner(ModelArch(), ensemble_size=2.5), "ensemble_size"),
    ],
    ids=["hidden-float", "hidden-bool", "input-float", "output-str", "gd-steps-float",
         "sgld-burn-in-bool", "sgld-ensemble-size-float"],
)
def test_sizes_and_counts_must_be_integers(build, field):
    # int() would truncate 10.7 to a 10-unit layer and count True as 1.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build()


def test_numpy_integer_sizes_and_counts_are_stored_as_plain_ints():
    arch = ModelArch(input_dim=np.int64(2), hidden=(np.int32(5), 4, 3), output_dim=np.uint8(4))
    gd = GDLearner(arch, steps=np.int16(7))
    sgld = SGLDLearner(arch, burn_in=np.int64(3), ensemble_size=np.int64(2))
    values = [arch.input_dim, *arch.hidden, arch.output_dim, gd.steps, sgld.burn_in,
              sgld.ensemble_size]
    assert values == [2, 5, 4, 3, 4, 7, 3, 2]
    assert all(type(v) is int for v in values)


def test_init_weights_shapes_and_zero_biases():
    w = init_weights(ModelArch(), np.random.default_rng(0))
    assert [a.shape for a in w.ws] == [(16, 2), (16, 16), (16, 16), (4, 16)]
    assert all(np.all(b == 0.0) for b in w.bs)


def test_init_weights_deterministic():
    a = init_weights(ModelArch(), np.random.default_rng(9))
    b = init_weights(ModelArch(), np.random.default_rng(9))
    assert weights_equal(a, b)


def test_init_weights_first_layer_variance():
    # fan_in = 2 for the first layer, so entry variance should be 1/2.
    rng = np.random.default_rng(1)
    entries = np.concatenate(
        [init_weights(ModelArch(), rng).ws[0].ravel() for _ in range(10_000)]
    )
    assert np.var(entries) == pytest.approx(0.5, rel=0.05)


def test_forward_zero_weights_is_uniform():
    w = Ensemble(stack([zero_weights(ModelArch())]))
    assert np.array_equal(predictive_stack([w], features(0.3 - 0.7j))[0, 0], np.full(4, 0.25))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_forward_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    w = init_weights(ModelArch(), rng)
    for layer in w.ws:
        layer *= rng.uniform(0.1, 5.0)
    probs = predictive_stack([Ensemble(stack([w]))], rng.normal(size=(5, 2)))[:, 0]
    assert probs.shape == (5, 4)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_forward_logit_shift_invariance():
    rng = np.random.default_rng(2)
    w = init_weights(ModelArch(), rng)
    X = features(0.5 + 0.25j)
    base = predictive_stack([Ensemble(stack([w]))], X)[0, 0]
    w.bs[-1] += 17.5  # same constant on every logit
    np.testing.assert_allclose(predictive_stack([Ensemble(stack([w]))], X)[0, 0], base, atol=1e-12)


def test_one_label_head_is_certain_and_has_zero_gradient():
    arch = ModelArch(output_dim=1)
    w = init_weights(arch, np.random.default_rng(6))
    X, y = _toy_data(seed=6, n_labels=1)
    assert np.array_equal(predictive_stack([Ensemble(stack([w]))], X)[:, 0], np.ones((len(X), 1)))
    assert weights_equal(grad(w, X, y), zero_weights(arch))


def test_nll_zero_weights_is_log_label_count():
    X, y = _toy_data()
    assert nll_loss(zero_weights(ModelArch()), X, y) == pytest.approx(LOG4, abs=1e-12)


def test_nll_single_point_even_odds():
    # Two-label head with zero weights puts probability 1/2 on the true label.
    arch = ModelArch(output_dim=2)
    loss = nll_loss(zero_weights(arch), np.array([[0.4, -1.2]]), np.array([1]))
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3, 2), (2, 5, 2)])
@pytest.mark.parametrize("fn", [nll_loss, grad], ids=["nll_loss", "grad"])
def test_loss_and_grad_reject_a_stack_of_datasets(fn, shape):
    rng = np.random.default_rng(34)
    X, y = rng.normal(size=shape), rng.integers(0, 4, size=shape[:-1])
    with pytest.raises(ValueError, match=r"one \(n, d\) dataset"):
        fn(zero_weights(ModelArch()), X, y)


def test_nll_permutation_bit_identical():
    X, y = _toy_data(seed=3, n=12)
    w = init_weights(ModelArch(), np.random.default_rng(4))
    perm = np.random.default_rng(5).permutation(12)
    assert nll_loss(w, X, y) == nll_loss(w, X[perm], y[perm])


def test_grad_matches_finite_differences():
    # Seeds avoid draws with a pre-activation inside the difference stencil:
    # at a kink of the piecewise-linear activation the two-sided difference
    # measures the average of the one-sided slopes, not the subgradient the
    # backward pass reports (seed 4 lands a unit at exactly zero input).
    arch = ModelArch(input_dim=2, hidden=(5, 4, 3), output_dim=3)
    for seed in (0, 1, 2, 3, 6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 3, size=6)
        w = init_weights(arch, rng)
        err = max_rel_grad_error(grad(w, X, y), finite_difference_grad(w, X, y))
        assert err < 1e-4, f"seed {seed}: max relative gradient error {err}"


def test_grad_permutation_bit_identical():
    X, y = _toy_data(seed=6, n=10)
    w = init_weights(ModelArch(), np.random.default_rng(7))
    perm = np.random.default_rng(8).permutation(10)
    assert weights_equal(grad(w, X, y), grad(w, X[perm], y[perm]))


def test_grad_vanishes_after_convergence_on_one_point():
    # A single training point can be fit arbitrarily well; drive the loss down
    # with an adaptive step until the gradient is numerically zero.
    arch = ModelArch()
    X, y = np.array([[0.3, -0.8]]), np.array([2])
    w = init_weights(arch, np.random.default_rng(0))
    lr = 1.0
    loss = nll_loss(w, X, y)
    for _ in range(500):
        g = grad(w, X, y)
        norm = math.sqrt(
            sum(float((a * a).sum()) for a in g.ws) + sum(float((a * a).sum()) for a in g.bs)
        )
        if norm < 1e-6:
            break
        trial = copy_weights(w)
        for i in range(len(trial.ws)):
            trial.ws[i] -= lr * g.ws[i]
            trial.bs[i] -= lr * g.bs[i]
        trial_loss = nll_loss(trial, X, y)
        if trial_loss <= loss:
            w, loss, lr = trial, trial_loss, lr * 1.5
        else:
            lr *= 0.5
    assert norm < 1e-6


def test_train_gd_does_not_increase_loss():
    X, y = _toy_data(seed=10, n=20)
    w0 = init_weights(ModelArch(), np.random.default_rng(11))
    (trained,) = networks(fit_one(GDLearner(ModelArch()), X, y, np.random.default_rng(11)).stacked)
    assert nll_loss(trained, X, y) <= nll_loss(w0, X, y)


def test_train_gd_permutation_bit_identical():
    X, y = _toy_data(seed=12, n=15)
    perm = np.random.default_rng(13).permutation(15)
    a = fit_one(GDLearner(ModelArch()), X, y, np.random.default_rng(14))
    b = fit_one(GDLearner(ModelArch()), X[perm], y[perm], np.random.default_rng(14))
    assert weights_equal(a.stacked, b.stacked)


def test_train_gd_fits_separable_clusters():
    rng = np.random.default_rng(15)
    left = rng.normal(size=(10, 2)) * 0.1 + [-2.0, 0.0]
    right = rng.normal(size=(10, 2)) * 0.1 + [2.0, 0.0]
    X = np.vstack([left, right])
    y = np.array([0] * 10 + [1] * 10)
    arch = ModelArch(output_dim=2)
    w = fit_one(GDLearner(arch), X, y, np.random.default_rng(16))
    assert np.array_equal(predictive_stack([w], X)[:, 0].argmax(axis=1), y)


def test_train_sgld_member_count():
    X, y = _toy_data(seed=17)
    ens = fit_one(SGLDLearner(ModelArch()), X, y, np.random.default_rng(18))
    assert len(networks(ens.stacked)) == 20
    learner = SGLDLearner(ModelArch(), burn_in=3, ensemble_size=7)
    ens = fit_one(learner, X, y, np.random.default_rng(18))
    assert len(networks(ens.stacked)) == 7


def test_train_sgld_permutation_bit_identical():
    X, y = _toy_data(seed=19, n=9)
    perm = np.random.default_rng(20).permutation(9)
    learner = SGLDLearner(ModelArch(), burn_in=5, ensemble_size=3)
    a = fit_one(learner, X, y, np.random.default_rng(21))
    b = fit_one(learner, X[perm], y[perm], np.random.default_rng(21))
    assert all(
        weights_equal(ma, mb) for ma, mb in zip(networks(a.stacked), networks(b.stacked))
    )


@pytest.mark.parametrize(
    "learner",
    [
        GDLearner(ModelArch(), steps=-3),
        SGLDLearner(ModelArch(), burn_in=-1),
        SGLDLearner(ModelArch(), ensemble_size=0),
    ],
    ids=["gd-steps", "sgld-burn-in", "sgld-ensemble-size"],
)
def test_learners_reject_step_counts_below_their_minimum(learner):
    # A negative count must not quietly return the untrained initial weights.
    X, y = _toy_data(seed=22)
    with pytest.raises(ValueError, match=">="):
        fit_one(learner, X, y, np.random.default_rng(23))


def test_trainers_stay_finite_at_working_scale():
    frame = generate_frame(100, 1, SNR_5DB, make_qpsk(), np.random.default_rng(24))
    X = features(frame.pilot_x)
    w = fit_one(GDLearner(ModelArch()), X, frame.pilot_y, np.random.default_rng(25))
    assert w.all_finite()
    ens = fit_one(SGLDLearner(ModelArch()), X, frame.pilot_y, np.random.default_rng(26))
    assert all(m.all_finite() for m in networks(ens.stacked))
    # Langevin iterates should hover at a moderate scale, not blow up.
    largest = max(
        float(np.abs(a).max()) for m in networks(ens.stacked) for a in list(m.ws) + list(m.bs)
    )
    assert largest < 50.0


def test_predictive_single_member_matches_forward():
    w = init_weights(ModelArch(), np.random.default_rng(27))
    X = features(-0.2 + 0.9j)
    probs = predictive_stack([Ensemble(stack([w]))], X)[0, 0]
    assert np.array_equal(probs, reference_forward(w, X)[1][0])


def test_predictive_identical_members_average_to_member():
    w = init_weights(ModelArch(), np.random.default_rng(28))
    X = features(0.6 - 0.1j)
    np.testing.assert_allclose(
        predictive_stack([Ensemble(stack([w, w, w]))], X)[0, 0],
        predictive_stack([Ensemble(stack([w]))], X)[0, 0],
        atol=1e-15,
    )


def test_predictive_averages_one_hot_members():
    arch = ModelArch()
    ens = Ensemble(stack([certain_weights(arch, 0), certain_weights(arch, 1)]))
    probs = predictive_stack([ens], features(1.0 + 1.0j))[0, 0]
    assert np.array_equal(probs, np.array([0.5, 0.5, 0.0, 0.0]))


def test_ensemble_rejects_empty_member_list():
    one = stack([zero_weights(ModelArch())])
    with pytest.raises(ValueError):
        Ensemble(Weights([a[:0] for a in one.ws], [b[:0] for b in one.bs]))


def test_predictive_stack_rejects_unequal_member_counts():
    # A GD model has one member; an SGLD model here holds three.
    arch = ModelArch()
    point = Ensemble(stack([zero_weights(arch)]))
    ens = Ensemble(stack([zero_weights(arch)] * 3))
    with pytest.raises(ValueError, match="models scored together need equal member counts"):
        predictive_stack([point, ens], features(0.5j))


@pytest.mark.parametrize("columns", [1, 3])
def test_predictive_stack_needs_one_row_column_per_model(columns):
    arch = ModelArch()
    rows = np.zeros((5, columns, arch.input_dim))
    with pytest.raises(ValueError, match=f"one column per model, got {columns} for 2 models"):
        predictive_stack([Ensemble(stack([zero_weights(arch)]))] * 2, rows)


def test_features_stacks_real_imag():
    assert np.array_equal(features(3.0 - 2.0j), np.array([[3.0, -2.0]]))
    out = features(np.array([1j, 2.0 + 0j]))
    assert np.array_equal(out, np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize(
    "bad",
    [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 1.0), complex(1.0, -np.inf)],
)
def test_features_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        features(np.array([1.0 + 1.0j, bad]))


def test_canonical_order_ignores_input_order():
    X, y = _toy_data(seed=29, n=10)
    perm = np.random.default_rng(30).permutation(10)
    base = canonical_order(X, y)
    shuffled = canonical_order(X[perm], y[perm])
    assert np.array_equal(X[base], X[perm][shuffled])
    assert np.array_equal(y[base], y[perm][shuffled])
