"""Small fully connected softmax classifier with hand-written backprop.

Training is deterministic given an explicit generator, and every data-dependent
computation first puts the samples into a canonical order, so losses, gradients
and trained weights are bit-identical under any permutation of the dataset.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Probabilities are clamped here before any log; the clamp only guards the
#: log, the softmax output itself is never modified.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelArch:
    """Layer sizes: input features, three hidden widths, output labels."""

    input_dim: int = 2
    hidden: tuple[int, int, int] = (16, 16, 16)
    output_dim: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if len(self.hidden) != 3:
            raise ValueError("expected exactly three hidden layers")
        if min(self.input_dim, self.output_dim, *self.hidden) < 1:
            raise ValueError("all layer sizes must be at least 1")

    def dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        sizes = (self.input_dim, *self.hidden, self.output_dim)
        return list(zip(sizes[:-1], sizes[1:]))


@dataclass
class Weights:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors.

    Stacked weights carry a leading model axis on every array: K models train
    together as ``(K, fan_out, fan_in)`` matrices and ``(K, fan_out)`` biases.
    """

    ws: list[np.ndarray]
    bs: list[np.ndarray]

    def copy(self) -> "Weights":
        return Weights([w.copy() for w in self.ws], [b.copy() for b in self.bs])

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.ws) and all(
            np.isfinite(a).all() for a in self.bs
        )

    def unstack(self) -> list["Weights"]:
        """One model per index of the leading axis (views, not copies)."""
        return [
            Weights([w[j] for w in self.ws], [b[j] for b in self.bs])
            for j in range(len(self.ws[0]))
        ]


def _stack(models: list[Weights]) -> Weights:
    return Weights(
        [np.stack(ws) for ws in zip(*(m.ws for m in models))],
        [np.stack(bs) for bs in zip(*(m.bs for m in models))],
    )


@dataclass
class Ensemble:
    """Bag of sampled weight vectors sharing one architecture."""

    members: list[Weights]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")


def features(x) -> np.ndarray:
    """Stack complex samples into an (n, 2) real matrix of (re, im) rows."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    return np.column_stack((arr.real, arr.imag))


def canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices sorting samples lexicographically by (re, im, label).

    Depends only on the multiset of samples, never on their arrival order;
    it is the anchor for all bit-exact permutation invariance below.  On a
    (K, n, d) stack the order is taken within each of the K datasets.
    """
    X = np.asarray(X, dtype=np.float64)
    return np.lexsort((y, X[..., 1], X[..., 0]))


def _canonical(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validated features and labels, each dataset in canonical order.

    ``X`` is one (n, d) dataset with n labels, or a (K, n, d) stack of
    equal-size datasets with (K, n) labels.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim not in (2, 3) or y.shape != X.shape[:-1]:
        raise ValueError(
            "expected (n, d) features and n labels, "
            "or a (K, n, d) stack of equal-size datasets and (K, n) labels"
        )
    if y.size == 0:
        raise ValueError("dataset must not be empty")
    order = canonical_order(X, y)
    return np.take_along_axis(X, order[..., None], axis=-2), np.take_along_axis(y, order, axis=-1)


def init_weights(arch: ModelArch, rng: np.random.Generator) -> Weights:
    """Gaussian weights with variance 1/fan_in, zero biases."""
    ws, bs = [], []
    for fan_in, fan_out in arch.dims():
        ws.append(rng.standard_normal((fan_out, fan_in)) / math.sqrt(fan_in))
        bs.append(np.zeros(fan_out))
    return Weights(ws, bs)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # Max subtraction keeps exp in range for arbitrarily large logits.
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(w: Weights, X: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per input row; rows sum to 1."""
    a = np.asarray(X, dtype=np.float64)
    for wi, bi in zip(w.ws[:-1], w.bs[:-1]):
        a = _relu(a @ wi.T + bi)
    return _softmax_rows(a @ w.ws[-1].T + w.bs[-1])


def forward(w: Weights, x: complex) -> np.ndarray:
    """Class probabilities for a single complex sample."""
    return forward_batch(w, features(x))[0]


def nll_loss(w: Weights, X, y) -> float:
    """Mean negative log probability of the true labels."""
    X, y = _canonical(X, y)
    p = forward_batch(w, X)[np.arange(len(y)), y]
    return float(np.mean(-np.log(np.maximum(p, PROB_FLOOR))))


def _grad_canonical(w: Weights, X: np.ndarray, targets: np.ndarray) -> Weights:
    # Backprop of the mean cross entropy of K models at once: stacked weights,
    # (K, m, d) data and (K, m, labels) one-hot targets, each dataset in
    # canonical order.  Every product is one matrix product per model, so
    # model j's gradient is the same bits whatever else shares its stack.
    # Gradient of the unclamped loss (the clamp guards logs only, and binds
    # nowhere a gradient step is useful).
    acts = [X]
    for wi, bi in zip(w.ws[:-1], w.bs[:-1]):
        acts.append(_relu(acts[-1] @ wi.transpose(0, 2, 1) + bi[:, None, :]))
    probs = _softmax_rows(acts[-1] @ w.ws[-1].transpose(0, 2, 1) + w.bs[-1][:, None, :])
    delta = (probs - targets) / X.shape[1]
    n_layers = len(w.ws)
    gws: list[np.ndarray] = [np.empty(0)] * n_layers
    gbs: list[np.ndarray] = [np.empty(0)] * n_layers
    for layer in reversed(range(n_layers)):
        gws[layer] = delta.transpose(0, 2, 1) @ acts[layer]
        gbs[layer] = delta.sum(axis=1)
        if layer:
            # ReLU passes gradient where its output is positive.
            delta = (delta @ w.ws[layer]) * (acts[layer] > 0)
    return Weights(gws, gbs)


def grad(w: Weights, X, y) -> Weights:
    """Weights-shaped gradient of ``nll_loss`` at ``w``."""
    X, y = _canonical(X, y)
    if X.ndim != 2:
        raise ValueError("expected one (n, d) dataset")
    one = Weights([a[None] for a in w.ws], [b[None] for b in w.bs])
    targets = _one_hot(y[None], w.bs[-1].size)
    return _grad_canonical(one, X[None], targets).unstack()[0]


def _one_hot(y: np.ndarray, n_labels: int) -> np.ndarray:
    return np.eye(n_labels)[y]


def _training_stack(X, y, arch: ModelArch, rng):
    """Canonical (K, m, d) data, one-hot targets, generators, stacked initial
    weights, and whether a single dataset (a stack of one) came in."""
    X, y = _canonical(X, y)
    single = X.ndim == 2
    if single:
        X, y, rng = X[None], y[None], [rng]
    rngs = list(rng)
    if len(rngs) != len(X):
        raise ValueError(f"a stack of {len(X)} datasets needs {len(X)} generators, got {len(rngs)}")
    w = _stack([init_weights(arch, r) for r in rngs])
    return X, _one_hot(y, arch.output_dim), rngs, w, single


def train_gd(
    X,
    y,
    arch: ModelArch,
    steps: int = 120,
    lr: float = 0.2,
    *,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> Weights | list[Weights]:
    """Full-batch gradient descent on the mean cross entropy.

    One (n, d) dataset and one generator give one ``Weights``; a (K, n, d)
    stack and K generators give a list of K, trained together.
    """
    X, targets, _, w, single = _training_stack(X, y, arch, rng)
    for _ in range(steps):
        g = _grad_canonical(w, X, targets)
        for i in range(len(w.ws)):
            w.ws[i] -= lr * g.ws[i]
            w.bs[i] -= lr * g.bs[i]
    models = w.unstack()
    return models[0] if single else models


def train_sgld(
    X,
    y,
    arch: ModelArch,
    burn_in: int = 100,
    ensemble_size: int = 20,
    lr: float = 0.2,
    *,
    rng: np.random.Generator | Sequence[np.random.Generator],
    prior_sigma: float | None = 10.0,
    noise_scale: float = 1.0,
) -> Ensemble | list[Ensemble]:
    """Langevin dynamics over the weights; keeps the last iterates as members.

    The target is the unnormalised posterior energy ``U(w) = n * mean loss +
    |w|^2 / (2 * prior_sigma^2)``.  Each step moves ``-eps/2`` along the
    gradient of ``U`` and injects ``sqrt(eps)`` Gaussian noise, with the
    Langevin step size ``eps = lr / n``; dividing by the dataset size makes
    the drift advance the mean loss at ``lr / 2`` regardless of ``n``, the
    same scale the gradient-descent trainer moves at, and keeps the dynamics
    stable at the default learning rate.

    The injected noise stream depends only on ``rng``, never on the data: one
    flat vector is drawn per step and consumed per parameter array (weights
    then biases, layer by layer), even when ``noise_scale`` is zero, so
    streams stay aligned.  ``prior_sigma=None`` disables the prior and
    ``noise_scale=0.0`` silences the noise, which reduces a step to plain
    gradient descent on the mean loss at half the learning rate (test hooks).

    One (n, d) dataset and one generator give one ``Ensemble``; a (K, n, d)
    stack and K generators give a list of K, sampled together, each model
    drawing its noise from its own generator.
    """
    if burn_in < 0 or ensemble_size < 1:
        raise ValueError("need burn_in >= 0 and ensemble_size >= 1")
    X, targets, rngs, w, single = _training_stack(X, y, arch, rng)
    n = X.shape[1]
    eps = lr / n
    root_eps = math.sqrt(eps)
    # -eps/2 * (n * grad_mean) is taken as -lr/2 * grad_mean so the degenerate
    # noise-free, prior-free run reproduces the plain trainer bit for bit.
    half_lr = 0.5 * lr
    prior_pull = 0.0 if prior_sigma is None else 0.5 * eps / (prior_sigma * prior_sigma)
    n_params = sum(a[0].size for a in w.ws) + sum(a[0].size for a in w.bs)
    samples: list[Weights] = []
    for step in range(burn_in + ensemble_size):
        g = _grad_canonical(w, X, targets)
        noise = noise_scale * np.stack([r.standard_normal(n_params) for r in rngs])
        offset = 0
        for i in range(len(w.ws)):
            for cur, grad_mean in ((w.ws[i], g.ws[i]), (w.bs[i], g.bs[i])):
                move = (-half_lr) * grad_mean
                if prior_sigma is not None:
                    move = move - prior_pull * cur
                size = cur[0].size
                chunk = noise[:, offset : offset + size].reshape(cur.shape)
                offset += size
                cur += move + root_eps * chunk
        if step >= burn_in:
            samples.append(w.copy())
    per_model = zip(*(s.unstack() for s in samples))
    models = [Ensemble(list(members)) for members in per_model]
    return models[0] if single else models


def predictive_batch(model: Weights | Ensemble, X: np.ndarray) -> np.ndarray:
    """Predictive class probabilities; ensembles average member outputs."""
    if isinstance(model, Ensemble):
        return np.mean([forward_batch(m, X) for m in model.members], axis=0)
    return forward_batch(model, X)


def predictive(model: Weights | Ensemble, x: complex) -> np.ndarray:
    """Predictive class probabilities for a single complex sample."""
    return predictive_batch(model, features(x))[0]


# Learners share one entry point, ``fit(X, y, rng)``.  One (n, d) dataset with
# n labels and one generator returns one model.  A (K, n, d) stack of
# equal-size datasets with (K, n) labels and a sequence of K generators
# returns a list of K models, trained as one batched network; model j draws
# its initial weights and noise from generator j alone, so it is
# bit-identical to a single fit with that generator.


@dataclass(frozen=True)
class GDLearner:
    """Point-estimate learner: gradient descent, one weight vector out."""

    arch: ModelArch
    steps: int = 120
    lr: float = 0.2

    def fit(self, X, y, rng) -> Weights | list[Weights]:
        return train_gd(X, y, self.arch, self.steps, self.lr, rng=rng)


@dataclass(frozen=True)
class SGLDLearner:
    """Bayesian learner: Langevin sampling, an ensemble of weight vectors out."""

    arch: ModelArch
    burn_in: int = 100
    ensemble_size: int = 20
    lr: float = 0.2
    prior_sigma: float = 10.0

    def fit(self, X, y, rng) -> Ensemble | list[Ensemble]:
        return train_sgld(
            X,
            y,
            self.arch,
            self.burn_in,
            self.ensemble_size,
            self.lr,
            rng=rng,
            prior_sigma=self.prior_sigma,
        )
