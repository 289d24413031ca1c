"""Shared test utilities: constructed models and independent oracles."""

from __future__ import annotations

import cmath
import ctypes
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from cpdemod import conformal, mlp
from cpdemod.channel import (
    QPSK,
    ChannelParams,
    Frame,
    apply_iq_imbalance,
    sample_channel_params,
)
from cpdemod.mlp import ModelArch, init_weights


#: The OpenBLAS kernel that made ``results.csv`` and ``golden_subgrid.csv``.
#: OpenBLAS picks its kernel by CPU, and other kernels round some products
#: differently, so the byte goldens hold on this one only.
GOLDEN_KERNEL = "SkylakeX"


def blas_kernel() -> str:
    """The core name of the kernel numpy's bundled OpenBLAS runs on, or
    ``"unknown"`` when no bundled library names it."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def fit_one(learner, X, y, rng):
    """One model, its ``(E, n_params)`` member rows, fitted on one (n, d)
    dataset as a learner's stack of one."""
    (model,) = learner.fit(np.asarray(X)[None], np.asarray(y)[None], [rng])
    return model


def held_out_scores(pred) -> np.ndarray:
    """A kept-model predictor's held-out scores at the true labels, one row
    per fold model, in fold order."""
    return conformal._held_out_scores(pred.plan, 0, pred.models)


def predictor(method: str, pilot_x, pilot_y, alpha: float, learner, seed, k=None):
    """The per-frame reference predictor of ``method``, which fits and keeps
    every model of its plan: naive, vb, cv (leave-one-out) or kcv with ``k``
    folds."""
    if method == "naive":
        return conformal.NaiveSetPredictor(pilot_x, pilot_y, alpha, learner, seed)
    if method == "vb":
        return conformal.SplitConformalPredictor(pilot_x, pilot_y, alpha, learner, seed)
    folds = {"cv": None, "kcv": k}[method]
    return conformal.CrossValConformalPredictor(pilot_x, pilot_y, alpha, learner, folds, seed)


def rank_rule(candidates, held_out, alpha: float) -> np.ndarray:
    """The package's set rule on given scores, as ``conformal.PayloadSets``
    applies it: ``candidates[..., k]`` is a candidate's score under model
    ``k``, ``held_out[k]`` that model's held-out scores, and a candidate
    enters when at least ``rank_threshold(n, alpha)`` of all n held-out
    scores lie at or above its score under their own model."""
    held_out = np.asarray(held_out, dtype=np.float64)
    counts = conformal._rank_counts(np.asarray(candidates, dtype=np.float64), held_out)
    return counts >= conformal.rank_threshold(held_out.size, alpha)


def quantile_by_counting(scores, alpha: float) -> float:
    """Counting oracle of the calibrated quantile: the smallest score with at
    least ``(1 - alpha) * (n + 1)`` of the n scores at or below it, in exact
    arithmetic, or +inf when no score has that many."""
    scores = np.asarray(scores, dtype=np.float64)
    need = (1 - Fraction(alpha)) * (len(scores) + 1)
    for q in np.sort(scores):
        if np.count_nonzero(scores <= q) >= need:
            return float(q)
    return math.inf


def layers(params: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer ``(..., fan_out, fan_in)`` weight and ``(..., fan_out)`` bias
    views of parameter rows (``..., n_params``), laid out ``w0, b0, w1, b1,
    ...`` with each weight matrix in row-major order: the one place the
    reference implementations below read a row's layers.  Only the layer
    sizes come from ``mlp``; the slicing is independent of ``mlp._unflat``."""
    dims = mlp._dims(params.shape[-1])
    sizes = [size for fan_in, fan_out in dims for size in (fan_out * fan_in, fan_out)]
    parts = np.split(params, np.cumsum(sizes)[:-1], axis=-1)
    lead = params.shape[:-1]
    ws = [w.reshape(*lead, fan_out, fan_in) for w, (fan_in, fan_out) in zip(parts[::2], dims)]
    return ws, parts[1::2]


def zero_weights(arch: ModelArch) -> np.ndarray:
    """An all-zero parameter row: uniform predictive regardless of input."""
    return np.zeros(sum(fan_out * fan_in + fan_out for fan_in, fan_out in arch.dims()))


def certain_weights(arch: ModelArch, label: int, scale: float = 1000.0) -> np.ndarray:
    """A parameter row whose predictive is exactly one-hot on ``label``.

    Hidden layers are zero, so logits equal the output bias; a huge logit gap
    underflows every other class probability to exactly 0.0.
    """
    w = zero_weights(arch)
    layers(w)[1][-1][label] = scale
    return w


def mean_log_loss(w: np.ndarray, X, y) -> float:
    """Mean of ``mlp.log_losses`` at the true labels ``y`` of the rows ``X``
    under the network of parameter row ``w``: the loss ``mlp.grad`` is the
    gradient of."""
    losses = mlp.log_losses(w[None, None], X)[:, 0]
    return float(losses[np.arange(len(y)), y].mean())


def finite_difference_grad(w: np.ndarray, X, y, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the mean log loss, every coordinate."""
    g = np.empty_like(w)
    for i, orig in enumerate(w):
        w[i] = orig + h
        up = mean_log_loss(w, X, y)
        w[i] = orig - h
        down = mean_log_loss(w, X, y)
        w[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return g


def max_rel_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest per-coordinate relative disagreement between two gradients."""
    return float((np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)).max())


def reference_forward(w: np.ndarray, X) -> tuple[list[np.ndarray], np.ndarray]:
    """One network in plain 2-D numpy: the input of every layer and the
    class probabilities (softmax with numpy's own max and sum)."""
    ws, bs = layers(w)
    acts = [np.asarray(X, dtype=np.float64)]
    for wi, bi in zip(ws[:-1], bs[:-1]):
        acts.append(np.maximum(acts[-1] @ wi.T + bi, 0.0))
    logits = acts[-1] @ ws[-1].T + bs[-1]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return acts, e / e.sum(axis=-1, keepdims=True)


def reference_grad(w: np.ndarray, X, targets) -> np.ndarray:
    """Mean cross-entropy backprop of one network in plain 2-D numpy, on
    data already in canonical order with one-hot ``targets``; the gradient
    is a row laid out like ``w``."""
    ws = layers(w)[0]
    acts, probs = reference_forward(w, X)
    delta = (probs - targets) / len(acts[0])
    g = np.empty_like(w)
    gws, gbs = layers(g)
    for layer in reversed(range(len(ws))):
        gws[layer][...] = delta.T @ acts[layer]
        gbs[layer][...] = delta.sum(axis=0)
        if layer:
            delta = (delta @ ws[layer]) * (acts[layer] > 0)
    return g


def _reference_data(X, y, arch: ModelArch):
    """One dataset in canonical order and its one-hot targets."""
    order = mlp.canonical_order(X, y)
    return np.asarray(X, dtype=np.float64)[order], np.eye(arch.output_dim)[np.asarray(y)[order]]


def with_constants(cls, **constants):
    """A test-only subclass of ``cls`` whose class constants read
    ``constants``: ``with_constants(GDLearner, steps=25)(ModelArch())`` is a
    short fit.  Only existing attributes may be replaced.  ``mlp`` reads a
    row's layer sizes from ``ModelArch`` itself, so a test of a narrow
    network sets ``ModelArch.hidden`` with ``monkeypatch`` instead."""
    unknown = [name for name in constants if not hasattr(cls, name)]
    if unknown:
        raise AttributeError(f"{cls.__name__} has no constant {unknown[0]!r}")
    return type(cls.__name__, (cls,), constants)


def reference_train_gd(X, y, arch: ModelArch, steps: int, lr: float, rng) -> np.ndarray:
    """One network trained by full-batch gradient descent in plain numpy:
    ``init_weights``, then per step ``reference_grad`` and ``w -= lr * g``;
    the ``(1, n_params)`` model of one member."""
    X, targets = _reference_data(X, y, arch)
    w = init_weights(arch, rng)
    for _ in range(steps):
        w -= lr * reference_grad(w, X, targets)
    return w[None]


def reference_train_sgld(
    X,
    y,
    arch: ModelArch,
    burn_in: int,
    ensemble_size: int,
    lr: float,
    rng,
    prior_sigma: float = 10.0,
) -> np.ndarray:
    """One network sampled by Langevin dynamics in plain numpy: per step
    ``reference_grad``, one ``standard_normal(n_params)`` draw added in the
    row's order, w0, b0, w1, b1, ..., and the drift, prior pull and noise
    added to the row; the last ``ensemble_size`` iterates are the member
    rows of the ``(ensemble_size, n_params)`` model."""
    X, targets = _reference_data(X, y, arch)
    w = init_weights(arch, rng)
    eps = lr / len(X)
    root_eps = math.sqrt(eps)
    half_lr = 0.5 * lr
    members = []
    for step in range(burn_in + ensemble_size):
        g = reference_grad(w, X, targets)
        noise = rng.standard_normal(w.size)
        move = (-half_lr) * g - (0.5 * eps / (prior_sigma * prior_sigma)) * w
        w += move + root_eps * noise
        if step >= burn_in:
            members.append(w.copy())
    return np.array(members)


def reference_predictive(model: np.ndarray, X) -> np.ndarray:
    """Predictive of one ``(E, n_params)`` model, one member network at a
    time, each on ``X`` padded as scoring pads it: two or more rows take
    zero rows up to a multiple of ``mlp.ROW_BLOCK``."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    pad = -n % mlp.ROW_BLOCK if n > 1 else 0
    padded = np.concatenate([X, np.zeros((pad, X.shape[-1]))])
    return np.mean([reference_forward(m, padded)[1][:n] for m in model], axis=0)


def reference_transmit(
    y_label: int,
    params: ChannelParams,
    snr_linear: float,
    rng: np.random.Generator,
) -> complex:
    """One symbol through the channel in scalar arithmetic, two noise draws."""
    if not snr_linear > 0.0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear!r}")
    distorted = apply_iq_imbalance(complex(QPSK[y_label]), params.amp_imb, params.phase_imb)
    clean = cmath.exp(1j * params.phase) * distorted
    scale = math.sqrt(1.0 / (2.0 * snr_linear))
    noise = rng.standard_normal(2)
    return complex(clean.real + scale * noise[0], clean.imag + scale * noise[1])


def reference_frame(
    n_pilots: int,
    n_test: int,
    snr_linear: float,
    rng: np.random.Generator,
) -> Frame:
    """A frame simulated one symbol at a time with ``reference_transmit``."""
    if n_pilots < 1 or n_test < 1:
        raise ValueError("n_pilots and n_test must both be at least 1")
    params = sample_channel_params(rng)
    labels = rng.integers(0, len(QPSK), size=n_pilots + n_test)
    xs = np.array([reference_transmit(int(lab), params, snr_linear, rng) for lab in labels])
    return Frame(
        params,
        xs[:n_pilots],
        labels[:n_pilots].astype(np.int64),
        xs[n_pilots:],
        labels[n_pilots:].astype(np.int64),
    )
