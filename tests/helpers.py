"""Shared test utilities: constructed models and independent oracles."""

from __future__ import annotations

import cmath
import ctypes
import math
from pathlib import Path

import numpy as np

from cpdemod import conformal, mlp
from cpdemod.channel import (
    ChannelParams,
    Constellation,
    Frame,
    apply_iq_imbalance,
    sample_channel_params,
)
from cpdemod.mlp import Ensemble, ModelArch, Weights, init_weights


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
    """One model fitted on one (n, d) dataset, as a learner's stack of one."""
    (model,) = learner.fit(np.asarray(X)[None], np.asarray(y)[None], [rng])
    return model


def held_out_scores(pred) -> np.ndarray:
    """A kept-model predictor's held-out scores at the true labels, one row
    per fold model, in fold order."""
    return conformal._held_out_scores(pred.plan, 0, pred.models)


def zero_weights(arch: ModelArch) -> Weights:
    """All-zero weights: uniform predictive regardless of input."""
    return Weights(
        [np.zeros((fan_out, fan_in)) for fan_in, fan_out in arch.dims()],
        [np.zeros(fan_out) for _, fan_out in arch.dims()],
    )


def certain_weights(arch: ModelArch, label: int, scale: float = 1000.0) -> Weights:
    """Weights whose predictive is exactly one-hot on ``label``.

    Hidden layers are zero, so logits equal the output bias; a huge logit gap
    underflows every other class probability to exactly 0.0.
    """
    w = zero_weights(arch)
    w.bs[-1][label] = scale
    return w


def finite_difference_grad(w: Weights, X, y, h: float = 1e-5) -> Weights:
    """Central-difference gradient of the mean log loss, every coordinate."""
    gws = [np.empty_like(a) for a in w.ws]
    gbs = [np.empty_like(a) for a in w.bs]
    for params, grads in ((w.ws, gws), (w.bs, gbs)):
        for arr, garr in zip(params, grads):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = mlp.nll_loss(w, X, y)
                arr[idx] = orig - h
                down = mlp.nll_loss(w, X, y)
                arr[idx] = orig
                garr[idx] = (up - down) / (2.0 * h)
    return Weights(gws, gbs)


def max_rel_grad_error(analytic: Weights, numeric: Weights) -> float:
    """Largest per-coordinate relative disagreement between two gradients."""
    worst = 0.0
    for a_arrs, n_arrs in ((analytic.ws, numeric.ws), (analytic.bs, numeric.bs)):
        for a, n in zip(a_arrs, n_arrs):
            rel = np.abs(a - n) / (np.abs(a) + 1e-8)
            worst = max(worst, float(rel.max()))
    return worst


def copy_weights(w: Weights) -> Weights:
    """A copy of every weight and bias array."""
    return Weights([a.copy() for a in w.ws], [b.copy() for b in w.bs])


def stack(nets: list[Weights]) -> Weights:
    """Networks as one stack (copies), network axis first."""
    return Weights(
        [np.stack(ws) for ws in zip(*(net.ws for net in nets))],
        [np.stack(bs) for bs in zip(*(net.bs for net in nets))],
    )


def networks(stacked: Weights) -> list[Weights]:
    """One network per index of a stack's leading axis (views)."""
    return [
        Weights([w[j] for w in stacked.ws], [b[j] for b in stacked.bs])
        for j in range(len(stacked.ws[0]))
    ]


def weights_equal(a: Weights, b: Weights) -> bool:
    """Bit-exact equality of two weight sets (NaN equals NaN in the same place)."""
    return all(
        np.array_equal(x, y, equal_nan=True) for x, y in zip(a.ws + a.bs, b.ws + b.bs)
    )


def reference_forward(w: Weights, X) -> tuple[list[np.ndarray], np.ndarray]:
    """One network in plain 2-D numpy: the input of every layer and the
    class probabilities (softmax with numpy's own max and sum)."""
    acts = [np.asarray(X, dtype=np.float64)]
    for wi, bi in zip(w.ws[:-1], w.bs[:-1]):
        acts.append(np.maximum(acts[-1] @ wi.T + bi, 0.0))
    logits = acts[-1] @ w.ws[-1].T + w.bs[-1]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return acts, e / e.sum(axis=-1, keepdims=True)


def reference_grad(w: Weights, X, targets) -> Weights:
    """Mean cross-entropy backprop of one network in plain 2-D numpy, on
    data already in canonical order with one-hot ``targets``."""
    acts, probs = reference_forward(w, X)
    delta = (probs - targets) / len(acts[0])
    n_layers = len(w.ws)
    gws, gbs = [None] * n_layers, [None] * n_layers
    for layer in reversed(range(n_layers)):
        gws[layer] = delta.T @ acts[layer]
        gbs[layer] = delta.sum(axis=0)
        if layer:
            delta = (delta @ w.ws[layer]) * (acts[layer] > 0)
    return Weights(gws, gbs)


def _reference_data(X, y, arch: ModelArch):
    """One dataset in canonical order and its one-hot targets."""
    order = mlp.canonical_order(X, y)
    return np.asarray(X, dtype=np.float64)[order], np.eye(arch.output_dim)[np.asarray(y)[order]]


def _parameters(w: Weights) -> list[np.ndarray]:
    """A network's parameter arrays in the order w0, b0, w1, b1, ..."""
    return [a for pair in zip(w.ws, w.bs) for a in pair]


def reference_train_gd(X, y, arch: ModelArch, steps: int, lr: float, rng) -> Ensemble:
    """One network trained by full-batch gradient descent in plain numpy:
    ``init_weights``, then per step ``reference_grad`` and ``p -= lr * g`` on
    every parameter array; the network is the one member."""
    X, targets = _reference_data(X, y, arch)
    w = init_weights(arch, rng)
    for _ in range(steps):
        g = reference_grad(w, X, targets)
        for p, gp in zip(_parameters(w), _parameters(g)):
            p -= lr * gp
    return Ensemble(stack([w]))


def reference_train_sgld(
    X,
    y,
    arch: ModelArch,
    burn_in: int,
    ensemble_size: int,
    lr: float,
    rng,
    prior_sigma: float = 10.0,
) -> Ensemble:
    """One network sampled by Langevin dynamics in plain numpy: per step
    ``reference_grad``, one ``standard_normal(n_params)`` draw consumed in the
    order w0, b0, w1, b1, ..., and the drift, prior pull and noise added to
    every parameter array; the last ``ensemble_size`` iterates are the
    members."""
    X, targets = _reference_data(X, y, arch)
    w = init_weights(arch, rng)
    eps = lr / len(X)
    root_eps = math.sqrt(eps)
    half_lr = 0.5 * lr
    members = []
    for step in range(burn_in + ensemble_size):
        g = reference_grad(w, X, targets)
        noise = rng.standard_normal(sum(p.size for p in _parameters(w)))
        offset = 0
        for p, gp in zip(_parameters(w), _parameters(g)):
            move = (-half_lr) * gp - (0.5 * eps / (prior_sigma * prior_sigma)) * p
            part = noise[offset : offset + p.size].reshape(p.shape)
            offset += p.size
            p += move + root_eps * part
        if step >= burn_in:
            members.append(copy_weights(w))
    return Ensemble(stack(members))


def reference_predictive(model: Ensemble, X) -> np.ndarray:
    """Predictive of one model, one member network at a time."""
    return np.mean([reference_forward(m, X)[1] for m in networks(model.stacked)], axis=0)


def reference_transmit(
    y_label: int,
    constellation: Constellation,
    params: ChannelParams,
    snr_linear: float,
    rng: np.random.Generator,
) -> complex:
    """One symbol through the channel in scalar arithmetic, two noise draws."""
    if not snr_linear > 0.0:
        raise ValueError(f"snr_linear must be positive, got {snr_linear!r}")
    distorted = apply_iq_imbalance(
        complex(constellation.points[y_label]), params.amp_imb, params.phase_imb
    )
    clean = cmath.exp(1j * params.phase) * distorted
    scale = math.sqrt(1.0 / (2.0 * snr_linear))
    noise = rng.standard_normal(2)
    return complex(clean.real + scale * noise[0], clean.imag + scale * noise[1])


def reference_frame(
    n_pilots: int,
    n_test: int,
    snr_linear: float,
    constellation: Constellation,
    rng: np.random.Generator,
) -> Frame:
    """A frame simulated one symbol at a time with ``reference_transmit``."""
    if n_pilots < 1 or n_test < 1:
        raise ValueError("n_pilots and n_test must both be at least 1")
    params = sample_channel_params(rng)
    labels = rng.integers(0, len(constellation), size=n_pilots + n_test)
    xs = np.array(
        [reference_transmit(int(lab), constellation, params, snr_linear, rng) for lab in labels]
    )
    return Frame(
        params,
        xs[:n_pilots],
        labels[:n_pilots].astype(np.int64),
        xs[n_pilots:],
        labels[n_pilots:].astype(np.int64),
    )
