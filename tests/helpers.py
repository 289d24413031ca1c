"""Shared test utilities: constructed models and independent oracles."""

from __future__ import annotations

import cmath
import math

import numpy as np

from cpdemod import mlp
from cpdemod.channel import (
    ChannelParams,
    Constellation,
    Frame,
    apply_iq_imbalance,
    sample_channel_params,
)
from cpdemod.mlp import Ensemble, ModelArch, Weights


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


def reference_predictive(model, X) -> np.ndarray:
    """Predictive of one model, one member network at a time."""
    if isinstance(model, Ensemble):
        return np.mean([reference_forward(m, X)[1] for m in model.members], axis=0)
    return reference_forward(model, X)[1]


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
