"""Classifier internals: init, forward, loss, gradient, both learners."""

import dataclasses
import math
import re

import numpy as np
import pytest

from cpdemod import mlp
from cpdemod.channel import QPSK, generate_frame
from cpdemod.mlp import (
    GDLearner,
    ModelArch,
    SGLDLearner,
    canonical_order,
    features,
    grad,
    init_weights,
    log_losses,
    predictive_stack,
)
from helpers import (
    certain_weights,
    finite_difference_grad,
    fit_one,
    layers,
    max_rel_grad_error,
    mean_log_loss,
    reference_forward,
    with_constants,
    zero_weights,
)

LOG4 = math.log(4.0)
SNR_5DB = 10.0 ** 0.5


def _toy_data(seed=0, n=8, n_labels=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 2)), rng.integers(0, n_labels, size=n)


def test_arch_requires_three_hidden_layers():
    # Three hidden layers, then the output; the label count must be positive.
    assert len(ModelArch().dims()) == 4
    with pytest.raises(ValueError, match="output_dim must be at least 1"):
        ModelArch(output_dim=0)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: ModelArch(output_dim="4"), "output_dim"),
    ],
    ids=["output-str"],
)
def test_sizes_and_counts_must_be_integers(build, field):
    # int() would truncate 10.7 to a 10-unit layer and count True as 1.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build()


def test_numpy_integer_sizes_and_counts_are_stored_as_plain_ints():
    arch = ModelArch(output_dim=np.uint8(4))
    values = [arch.input_dim, arch.output_dim]
    assert values == [2, 4]
    assert all(type(v) is int for v in values)


def test_input_width_and_prior_are_not_settable():
    # features() always gives two columns, and no caller varies the prior,
    # the paper's network or its training settings.
    with pytest.raises(TypeError):
        ModelArch(input_dim=2)
    with pytest.raises(TypeError):
        ModelArch(hidden=(16, 16, 16))
    with pytest.raises(TypeError):
        SGLDLearner(ModelArch(), prior_sigma=1.0)
    for name, value in [("steps", 120), ("lr", 0.2)]:
        with pytest.raises(TypeError):
            GDLearner(ModelArch(), **{name: value})
    for name, value in [("burn_in", 100), ("ensemble_size", 20), ("lr", 0.2)]:
        with pytest.raises(TypeError):
            SGLDLearner(ModelArch(), **{name: value})
    arch, gd, sgld = ModelArch(), GDLearner(ModelArch()), SGLDLearner(ModelArch())
    assert arch.input_dim == 2 and arch.hidden == (16, 16, 16) and sgld.prior_sigma == 10.0
    assert (gd.steps, gd.lr) == (120, 0.2)
    assert (sgld.burn_in, sgld.ensemble_size, sgld.lr) == (100, 20, 0.2)
    settable = {cls: {f.name for f in dataclasses.fields(cls) if f.init}
                for cls in (ModelArch, GDLearner, SGLDLearner)}
    assert settable == {ModelArch: {"output_dim"}, GDLearner: {"arch"}, SGLDLearner: {"arch"}}


def test_init_weights_shapes_and_zero_biases():
    w = init_weights(ModelArch(), np.random.default_rng(0))
    ws, bs = layers(w)
    assert w.shape == (592 + 17 * 4,)
    assert [a.shape for a in ws] == [(16, 2), (16, 16), (16, 16), (4, 16)]
    assert all(np.all(b == 0.0) for b in bs)


def test_init_weights_is_the_per_layer_draws_in_row_order():
    # One row, w0, b0, w1, b1, ...: each layer's draw, then its zero biases.
    arch = ModelArch(output_dim=3)
    rng = np.random.default_rng(31)
    parts = []
    for fan_in, fan_out in arch.dims():
        parts += [rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in), np.zeros(fan_out)]
    want = np.concatenate([a.ravel() for a in parts])
    assert np.array_equal(init_weights(arch, np.random.default_rng(31)), want)


def test_init_weights_deterministic():
    a = init_weights(ModelArch(), np.random.default_rng(9))
    b = init_weights(ModelArch(), np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_init_weights_first_layer_variance():
    # fan_in = 2 for the first layer, so entry variance should be 1/2.
    rng = np.random.default_rng(1)
    entries = np.concatenate(
        [layers(init_weights(ModelArch(), rng))[0][0].ravel() for _ in range(10_000)]
    )
    assert np.var(entries) == pytest.approx(0.5, rel=0.05)


def test_forward_zero_weights_is_uniform():
    w = zero_weights(ModelArch())[None, None]
    assert np.array_equal(predictive_stack(w, features(0.3 - 0.7j))[0, 0], np.full(4, 0.25))


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(19)
    for draw in range(50):
        w = init_weights(ModelArch(), rng)
        for layer in layers(w)[0]:
            layer *= rng.uniform(0.1, 5.0)
        probs = predictive_stack(w[None, None], rng.normal(size=(5, 2)))[:, 0]
        assert probs.shape == (5, 4)
        assert np.all(probs >= 0.0), f"draw {draw}"
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9, err_msg=f"draw {draw}")


def test_forward_logit_shift_invariance():
    rng = np.random.default_rng(2)
    w = init_weights(ModelArch(), rng)
    X = features(0.5 + 0.25j)
    base = predictive_stack(w[None, None], X)[0, 0]
    layers(w)[1][-1] += 17.5  # same constant on every logit
    np.testing.assert_allclose(predictive_stack(w[None, None], X)[0, 0], base, atol=1e-12)


def test_one_label_head_is_certain_and_has_zero_gradient():
    arch = ModelArch(output_dim=1)
    w = init_weights(arch, np.random.default_rng(6))
    X, y = _toy_data(seed=6, n_labels=1)
    assert np.array_equal(predictive_stack(w[None, None], X)[:, 0], np.ones((len(X), 1)))
    assert np.array_equal(grad(w, X, y), zero_weights(arch))


def test_nll_zero_weights_is_log_label_count():
    X, _ = _toy_data()
    losses = log_losses(zero_weights(ModelArch())[None, None], X)
    assert losses == pytest.approx(np.full((len(X), 1, 4), LOG4), abs=1e-12)


def test_nll_single_point_even_odds():
    # Two-label head with zero weights puts probability 1/2 on the true label.
    arch = ModelArch(output_dim=2)
    loss = log_losses(zero_weights(arch)[None, None], np.array([[0.4, -1.2]]))[0, 0, 1]
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3, 2), (2, 5, 2)])
@pytest.mark.parametrize("fn", [grad], ids=["grad"])
def test_loss_and_grad_reject_a_stack_of_datasets(fn, shape):
    rng = np.random.default_rng(34)
    X, y = rng.normal(size=shape), rng.integers(0, 4, size=shape[:-1])
    with pytest.raises(ValueError, match=r"one \(n, d\) dataset"):
        fn(zero_weights(ModelArch()), X, y)


def _fit_one_step(learner):
    return lambda w, X, y: learner.fit(X[None], y[None], [np.random.default_rng(0)])


@pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "past-last"])
@pytest.mark.parametrize(
    "fn",
    [
        grad,
        _fit_one_step(with_constants(GDLearner, steps=1)(ModelArch())),
        _fit_one_step(with_constants(SGLDLearner, burn_in=0, ensemble_size=1)(ModelArch())),
    ],
    ids=["grad", "gd-fit", "sgld-fit"],
)
def test_labels_outside_the_output_width_are_rejected(fn, bad):
    # -1 would pick label 3's one-hot row and train and score as label 3;
    # 4 would fail with a bare IndexError.
    X, y = _toy_data(seed=7)
    y[0] = bad
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
        fn(zero_weights(ModelArch()), X, y)


def test_fit_names_an_empty_dataset():
    learner = GDLearner(ModelArch())
    with pytest.raises(ValueError, match="^dataset must not be empty$"):
        learner.fit(np.empty((1, 0, 2)), np.empty((1, 0), dtype=np.int64), [np.random.default_rng(0)])


def test_float_labels_are_rejected_not_truncated():
    X, y = _toy_data(seed=7)
    for labels in (y + 0.7, y.astype(np.float64), y.astype(bool)):
        with pytest.raises(ValueError, match="labels must be integers"):
            mlp._canonical(X, labels)
        with pytest.raises(ValueError, match="labels must be integers"):
            grad(zero_weights(ModelArch()), X, labels)


def test_nll_permutation_bit_identical():
    # Each row's losses are the same bits wherever the row sits.
    X, _ = _toy_data(seed=3, n=12)
    w = init_weights(ModelArch(), np.random.default_rng(4))[None, None]
    perm = np.random.default_rng(5).permutation(12)
    assert np.array_equal(log_losses(w, X)[perm], log_losses(w, X[perm]))


@pytest.mark.parametrize(
    "models, members, n_rows, per_model_rows, passes",
    [
        (1, 1, 13, False, 1),
        (5, 3, 203, True, 2),
        (1, 20, 5000, False, 20),
        (1, 20, 5003, False, 20),
    ],
    ids=["one-network-13", "per-model-203", "wide-5000", "wide-5003"],
)
def test_rows_keep_their_scoring_bits_wherever_they_sit(
    models, members, n_rows, per_model_rows, passes, monkeypatch
):
    # Shared rows, per-model (n, K, d) rows, and a payload so wide that one
    # network fills a pass, so the 20 members run as 20 passes.  Every pass
    # runs a multiple of ROW_BLOCK rows: OpenBLAS's Haswell dgemm can give
    # the rows past a product's last multiple of 8 other bits.
    rng = np.random.default_rng(n_rows)
    nets = np.array(
        [[init_weights(ModelArch(), rng) for _ in range(members)] for _ in range(models)]
    )
    X = rng.normal(size=(n_rows, models, 2) if per_model_rows else (n_rows, 2))
    pass_rows = []

    class Recording(mlp._Pass):
        def __init__(self, params, rows, *args):
            pass_rows.append(len(rows))
            super().__init__(params, rows, *args)

    monkeypatch.setattr(mlp, "_Pass", Recording)
    perm = rng.permutation(n_rows)
    got = predictive_stack(nets, X[perm])
    assert len(pass_rows) == passes
    assert all(m % mlp.ROW_BLOCK == 0 for m in pass_rows), pass_rows
    assert got.tobytes() == predictive_stack(nets, X)[perm].tobytes()


def test_grad_matches_finite_differences(monkeypatch):
    # Seeds avoid draws with a pre-activation inside the difference stencil:
    # at a kink of the piecewise-linear activation the two-sided difference
    # measures the average of the one-sided slopes, not the subgradient the
    # backward pass reports (seed 4 lands a unit at exactly zero input).
    monkeypatch.setattr(ModelArch, "hidden", (5, 4, 3))
    arch = ModelArch(output_dim=3)
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
    assert np.array_equal(grad(w, X, y), grad(w, X[perm], y[perm]))


def test_grad_vanishes_after_convergence_on_one_point():
    # A single training point can be fit arbitrarily well; drive the loss down
    # with an adaptive step until the gradient is numerically zero.
    arch = ModelArch()
    X, y = np.array([[0.3, -0.8]]), np.array([2])
    w = init_weights(arch, np.random.default_rng(0))
    lr = 1.0
    loss = mean_log_loss(w, X, y)
    for _ in range(500):
        g = grad(w, X, y)
        norm = math.sqrt(float((g * g).sum()))
        if norm < 1e-6:
            break
        trial = w - lr * g
        trial_loss = mean_log_loss(trial, X, y)
        if trial_loss <= loss:
            w, loss, lr = trial, trial_loss, lr * 1.5
        else:
            lr *= 0.5
    assert norm < 1e-6


def test_train_gd_does_not_increase_loss():
    X, y = _toy_data(seed=10, n=20)
    w0 = init_weights(ModelArch(), np.random.default_rng(11))
    (trained,) = fit_one(GDLearner(ModelArch()), X, y, np.random.default_rng(11))
    assert mean_log_loss(trained, X, y) <= mean_log_loss(w0, X, y)


def test_train_gd_permutation_bit_identical():
    X, y = _toy_data(seed=12, n=15)
    perm = np.random.default_rng(13).permutation(15)
    a = fit_one(GDLearner(ModelArch()), X, y, np.random.default_rng(14))
    b = fit_one(GDLearner(ModelArch()), X[perm], y[perm], np.random.default_rng(14))
    assert np.array_equal(a, b)


def test_train_gd_fits_separable_clusters():
    rng = np.random.default_rng(15)
    left = rng.normal(size=(10, 2)) * 0.1 + [-2.0, 0.0]
    right = rng.normal(size=(10, 2)) * 0.1 + [2.0, 0.0]
    X = np.vstack([left, right])
    y = np.array([0] * 10 + [1] * 10)
    arch = ModelArch(output_dim=2)
    w = fit_one(GDLearner(arch), X, y, np.random.default_rng(16))
    assert np.array_equal(predictive_stack(w[None], X)[:, 0].argmax(axis=1), y)


def test_train_sgld_member_count():
    X, y = _toy_data(seed=17)
    ens = fit_one(SGLDLearner(ModelArch()), X, y, np.random.default_rng(18))
    assert ens.shape == (20, 660)
    learner = with_constants(SGLDLearner, burn_in=3, ensemble_size=7)(ModelArch())
    ens = fit_one(learner, X, y, np.random.default_rng(18))
    assert ens.shape == (7, 660)


def test_train_sgld_permutation_bit_identical():
    X, y = _toy_data(seed=19, n=9)
    perm = np.random.default_rng(20).permutation(9)
    learner = with_constants(SGLDLearner, burn_in=5, ensemble_size=3)(ModelArch())
    a = fit_one(learner, X, y, np.random.default_rng(21))
    b = fit_one(learner, X[perm], y[perm], np.random.default_rng(21))
    assert np.array_equal(a, b)


def test_trainers_stay_finite_at_working_scale():
    frame = generate_frame(100, 1, SNR_5DB, QPSK, np.random.default_rng(24))
    X = features(frame.pilot_x)
    w = fit_one(GDLearner(ModelArch()), X, frame.pilot_y, np.random.default_rng(25))
    assert np.isfinite(w).all()
    ens = fit_one(SGLDLearner(ModelArch()), X, frame.pilot_y, np.random.default_rng(26))
    assert np.isfinite(ens).all()
    # Langevin iterates should hover at a moderate scale, not blow up.
    assert float(np.abs(ens).max()) < 50.0


def test_predictive_single_member_matches_forward():
    w = init_weights(ModelArch(), np.random.default_rng(27))
    X = features(-0.2 + 0.9j)
    probs = predictive_stack(w[None, None], X)[0, 0]
    assert np.array_equal(probs, reference_forward(w, X)[1][0])


def test_predictive_identical_members_average_to_member():
    w = init_weights(ModelArch(), np.random.default_rng(28))
    X = features(0.6 - 0.1j)
    np.testing.assert_allclose(
        predictive_stack(np.stack([w, w, w])[None], X)[0, 0],
        predictive_stack(w[None, None], X)[0, 0],
        atol=1e-15,
    )


def test_predictive_averages_one_hot_members():
    arch = ModelArch()
    ens = np.stack([certain_weights(arch, 0), certain_weights(arch, 1)])
    probs = predictive_stack(ens[None], features(1.0 + 1.0j))[0, 0]
    assert np.array_equal(probs, np.array([0.5, 0.5, 0.0, 0.0]))


def test_ensemble_rejects_empty_member_list():
    empty = np.empty((1, 0, zero_weights(ModelArch()).size))
    with pytest.raises(ValueError, match="at least one member"):
        predictive_stack(empty, features(0.5j))


@pytest.mark.parametrize("length", [661, 592, 0])
@pytest.mark.parametrize("call", ["grad", "predictive_stack"])
def test_a_row_length_no_label_count_gives_is_named(call, length):
    # 592 + 17 * labels parameters for labels >= 1: 661 is one too many for
    # four labels, and 592 leaves none.
    w, (X, y) = np.zeros(length), _toy_data()
    with pytest.raises(ValueError, match=f"parameter row of length {length}$"):
        if call == "predictive_stack":
            predictive_stack(w[None, None], X)
        else:
            grad(w, X, y)


@pytest.mark.parametrize("score", [mlp.predictive_stack, mlp.log_losses])
@pytest.mark.parametrize("X", [np.zeros((5, 2)), np.zeros((5, 0, 2))], ids=["shared", "per-model"])
def test_scoring_no_models_names_the_empty_model_list(score, X):
    # Both raised a bare IndexError from indexing the first model.
    with pytest.raises(ValueError, match="empty model list"):
        score([], X)


@pytest.mark.parametrize("columns", [1, 3])
def test_predictive_stack_needs_one_row_column_per_model(columns):
    arch = ModelArch()
    rows = np.zeros((5, columns, arch.input_dim))
    with pytest.raises(ValueError, match=f"one column per model, got {columns} for 2 models"):
        predictive_stack(np.stack([zero_weights(arch)] * 2)[:, None], rows)


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


@pytest.mark.parametrize("shape", [(3, 2), (1, 1), (2, 1, 2)])
def test_features_rejects_samples_with_more_than_one_dimension(shape):
    # A (3, 2) array would pass as six samples, or fail inside a matrix
    # product with a message that names no input.
    message = f"1-D array of samples, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        features(np.ones(shape, dtype=np.complex128))


def test_canonical_order_ignores_input_order():
    X, y = _toy_data(seed=29, n=10)
    perm = np.random.default_rng(30).permutation(10)
    base = canonical_order(X, y)
    shuffled = canonical_order(X[perm], y[perm])
    assert np.array_equal(X[base], X[perm][shuffled])
    assert np.array_equal(y[base], y[perm][shuffled])
