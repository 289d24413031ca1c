"""Small fully connected softmax classifier with hand-written backprop.

Training is deterministic given an explicit generator, and every data-dependent
computation first puts the samples into a canonical order, so losses, gradients
and trained weights are bit-identical under any permutation of the dataset.

Networks run as stacks.  Stacked weights carry a leading network axis, and
activations are laid out sample-major, ``(m, K, width)``: row ``i`` of network
``k`` sits at ``[i, k]``.  One forward pass (``_forward``) serves training,
calibration and payload scoring; a single network is a stack of one.  Each
network's matrix products see exactly the rows a lone call would give it, so
every output is bit-identical to running the networks one at a time.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Probabilities are clamped here before any log; the clamp only guards the
#: log, the softmax output itself is never modified.
PROB_FLOOR = 1e-12

#: Most bytes of stacked weights and activations one scoring pass holds.
#: Networks join a pass while their weights and their rows' activations fit;
#: a network's rows are never split, so a payload wider than this runs one
#: network per pass.
MAX_PASS_BYTES = 1 << 20


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

    @classmethod
    def of_stack(cls, stacked: Weights) -> "Ensemble":
        """Ensemble whose members are the networks of ``stacked`` (as views)."""
        ensemble = cls(stacked.unstack())
        ensemble.__dict__["stacked"] = stacked
        return ensemble

    @functools.cached_property
    def stacked(self) -> Weights:
        """The members as one stack, member axis first (built on first use;
        members are not meant to change after that)."""
        return _stack(self.members)


def _networks(model: Weights | Ensemble) -> Weights:
    """A model's networks as one stack: its members, or itself as a stack of one."""
    if isinstance(model, Ensemble):
        return model.stacked
    return Weights([w[None] for w in model.ws], [b[None] for b in model.bs])


def features(x) -> np.ndarray:
    """Stack complex samples into an (n, 2) real matrix of (re, im) rows.

    Raises ``ValueError`` on a NaN or infinite sample: it would score NaN
    against every label and silently decide set membership.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if not np.isfinite(arr).all():
        raise ValueError("received samples must be finite")
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (label) axis, in place.

    The max and the sum run across label columns, one elementwise operation
    per label, instead of along the short label axis.  The sum adds the
    columns left to right, which is the order numpy's own last-axis sum takes
    for fewer than 8 terms, so the result has the same bits.
    """
    labels = [logits[..., j] for j in range(logits.shape[-1])]
    # Max subtraction keeps exp in range for arbitrarily large logits.
    np.subtract(logits, functools.reduce(np.maximum, labels)[..., None], out=logits)
    np.exp(logits, out=logits)
    return np.divide(logits, functools.reduce(np.add, labels)[..., None], out=logits)


class Workspace:
    """One flat output buffer per layer, reused by every pass of its owner.

    A trainer keeps one for all its steps, a predictor for calibration and
    every ``predict_mask`` call.  A fresh array larger than the allocator's
    mmap threshold (128 KB) page-faults on every page it is written to (at
    K=20, m=59 that was ~40% of a training step), so the buffers grow when a
    pass needs more rows than they hold and never shrink.
    """

    def __init__(self) -> None:
        self._buffers: list[np.ndarray] = []

    def take(self, w: Weights, rows: int) -> list[np.ndarray]:
        """Buffers for passes of up to ``rows`` rows of the stack ``w``."""
        need = [rows * b.shape[-1] for b in w.bs]
        if len(need) != len(self._buffers) or any(
            n > buf.size for n, buf in zip(need, self._buffers)
        ):
            self._buffers = [np.empty(n) for n in need]
        return self._buffers


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``a @ w.T + b`` for every network of a stack, sample-major in and out,
    written into the front of the flat buffer ``buf``.

    One matrix product per network, written straight into the sample-major
    buffer, so the bias add runs over contiguous ``K * fan_out`` rows.
    """
    out = buf[: a.shape[0] * b.size].reshape(a.shape[0], *b.shape)
    np.matmul(a.transpose(1, 0, 2), w.transpose(0, 2, 1), out=out.transpose(1, 0, 2))
    out += b
    return out


def _forward(
    w: Weights, X: np.ndarray, work: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Sample-major forward pass of a stack of K networks.

    ``w`` holds ``(K, fan_out, fan_in)`` weights and ``(K, fan_out)`` biases;
    ``X`` is ``(m, K, d)`` with network ``k``'s rows at ``X[:, k]`` (a
    zero-stride K axis feeds every network the same rows); ``work`` is what
    ``Workspace.take`` gives for at least ``m * K`` rows.  Returns the input
    of every layer (``X``, then each hidden ReLU output) and the ``(m, K,
    labels)`` class probabilities, all views into ``work``.
    """
    acts = [X]
    for wi, bi, buf in zip(w.ws[:-1], w.bs[:-1], work):
        z = _affine(acts[-1], wi, bi, buf)
        acts.append(np.maximum(z, 0.0, out=z))
    return acts, _softmax(_affine(acts[-1], w.ws[-1], w.bs[-1], work[-1]))


def nll_loss(w: Weights, X, y) -> float:
    """Mean negative log probability of the true labels."""
    X, y = _canonical(X, y)
    p = predictive_batch(w, X)[np.arange(len(y)), y]
    return float(np.mean(-np.log(np.maximum(p, PROB_FLOOR))))


def _grad_canonical(
    w: Weights, X: np.ndarray, targets: np.ndarray, work: list[np.ndarray]
) -> Weights:
    # Backprop of the mean cross entropy of K networks at once: stacked
    # weights, sample-major (m, K, d) data and (m, K, labels) one-hot targets,
    # each dataset in canonical order, and workspace buffers of m * K rows.
    # Every product is one matrix product per network, so network k's
    # gradient is the same bits whatever else shares its stack.  The bias
    # gradient sums over samples one row at a time, the order the
    # single-network sum takes.  Each layer's backpropagated error overwrites
    # that layer's input once its weight gradient and ReLU mask are taken.
    # Gradient of the unclamped loss (the clamp guards logs only, and binds
    # nowhere a gradient step is useful).
    acts, probs = _forward(w, X, work)
    delta = np.subtract(probs, targets, out=probs)
    delta /= X.shape[0]
    n_layers = len(w.ws)
    gws: list[np.ndarray] = [np.empty(0)] * n_layers
    gbs: list[np.ndarray] = [np.empty(0)] * n_layers
    for layer in reversed(range(n_layers)):
        a = acts[layer]
        gws[layer] = np.matmul(delta.transpose(1, 2, 0), a.transpose(1, 0, 2))
        gbs[layer] = delta.sum(axis=0)
        if layer:
            # ReLU passes gradient where its output is positive.
            passes = a > 0
            np.matmul(delta.transpose(1, 0, 2), w.ws[layer], out=a.transpose(1, 0, 2))
            delta = np.multiply(a, passes, out=a)
    return Weights(gws, gbs)


def grad(w: Weights, X, y) -> Weights:
    """Weights-shaped gradient of ``nll_loss`` at ``w``."""
    X, y = _canonical(X, y)
    if X.ndim != 2:
        raise ValueError("expected one (n, d) dataset")
    net = _networks(w)
    targets = _one_hot(y[:, None], w.bs[-1].size)
    return _grad_canonical(net, X[:, None, :], targets, Workspace().take(net, len(X))).unstack()[0]


def _one_hot(y: np.ndarray, n_labels: int) -> np.ndarray:
    return np.eye(n_labels)[y]


def _flat(w: Weights) -> np.ndarray:
    """A stack's parameters as one ``(K, n_params)`` array, laid out weights
    then biases, layer by layer: ``w0, b0, w1, b1, ...``."""
    parts = [a for pair in zip(w.ws, w.bs) for a in pair]
    return np.concatenate([a.reshape(len(a), -1) for a in parts], axis=1)


def _unflat(params: np.ndarray, arch: ModelArch) -> Weights:
    """Weights whose arrays are views into ``params`` (``..., n_params``, laid
    out as ``_flat`` does), keeping its leading axes."""
    lead = params.shape[:-1]
    ws, bs, offset = [], [], 0
    for fan_in, fan_out in arch.dims():
        size = fan_out * fan_in
        ws.append(params[..., offset : offset + size].reshape(*lead, fan_out, fan_in))
        bs.append(params[..., offset + size : offset + size + fan_out])
        offset += size + fan_out
    return Weights(ws, bs)


def _training_stack(X, y, arch: ModelArch, rng):
    """Canonical sample-major (m, K, d) data and (m, K, labels) one-hot
    targets, generators, the initial parameters of the stack as one flat
    ``(K, n_params)`` array, and whether a single dataset (a stack of one)
    came in.  Updates run on the flat array, one elementwise operation per
    step for all parameters."""
    X, y = _canonical(X, y)
    single = X.ndim == 2
    if single:
        X, y, rng = X[None], y[None], [rng]
    rngs = list(rng)
    if len(rngs) != len(X):
        raise ValueError(f"a stack of {len(X)} datasets needs {len(X)} generators, got {len(rngs)}")
    params = _flat(_stack([init_weights(arch, r) for r in rngs]))
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    return X, _one_hot(y.T, arch.output_dim), rngs, params, single


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
    X, targets, _, params, single = _training_stack(X, y, arch, rng)
    w = _unflat(params, arch)
    work = Workspace().take(w, X.shape[0] * X.shape[1])
    for _ in range(steps):
        params -= lr * _flat(_grad_canonical(w, X, targets, work))
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
    X, targets, rngs, params, single = _training_stack(X, y, arch, rng)
    w = _unflat(params, arch)
    n = X.shape[0]
    eps = lr / n
    root_eps = math.sqrt(eps)
    # -eps/2 * (n * grad_mean) is taken as -lr/2 * grad_mean so the degenerate
    # noise-free, prior-free run reproduces the plain trainer bit for bit.
    half_lr = 0.5 * lr
    prior_pull = 0.0 if prior_sigma is None else 0.5 * eps / (prior_sigma * prior_sigma)
    # Kept iterates, (K, ensemble_size, n_params): model j's members are one
    # contiguous stack, ready for stacked scoring.
    kept = np.empty((len(params), ensemble_size, params.shape[1]))
    work = Workspace().take(w, X.shape[0] * X.shape[1])
    for step in range(burn_in + ensemble_size):
        move = (-half_lr) * _flat(_grad_canonical(w, X, targets, work))
        if prior_sigma is not None:
            move = move - prior_pull * params
        noise = noise_scale * np.stack([r.standard_normal(params.shape[1]) for r in rngs])
        params += move + root_eps * noise
        if step >= burn_in:
            kept[:, step - burn_in] = params
    models = [Ensemble.of_stack(_unflat(members, arch)) for members in kept]
    return models[0] if single else models


def predictive_stack(
    models: Sequence[Weights | Ensemble], X, workspace: Workspace | None = None
) -> np.ndarray:
    """Predictive class probabilities of K models, ``(n, K, labels)``.

    ``X`` is one ``(n, d)`` matrix that every model scores, or a sample-major
    ``(n, K, d)`` stack in which model ``k`` scores ``X[:, k]``.  Ensembles
    average their members' outputs, added in member order.  The networks of
    all models (every member of every ensemble) run as stacked passes of at
    most ``MAX_PASS_BYTES`` each, and every network sees all ``n`` of its rows
    in one product, so each model's output has the bits it has when scored
    alone.  The models need equal member counts.  The passes run in the
    buffers of ``workspace`` when one is given, in fresh ones otherwise.
    """
    X = np.asarray(X, dtype=np.float64)
    stacks = [_networks(m) for m in models]
    size = len(stacks[0].ws[0])
    if any(len(s.ws[0]) != size for s in stacks):
        raise ValueError("models scored together need equal member counts")
    shape = stacks[0]
    n, n_nets, n_layers = len(X), size * len(stacks), len(shape.ws)
    net_bytes = 8 * (
        n * sum(b.shape[-1] for b in shape.bs) + sum(a[0].size for a in shape.ws + shape.bs)
    )
    per_pass = max(1, MAX_PASS_BYTES // net_bytes)
    if workspace is None:
        workspace = Workspace()
    work = workspace.take(shape, n * min(per_pass, n_nets))
    total = np.zeros((n, len(stacks), shape.bs[-1].shape[-1]))
    for start in range(0, n_nets, per_pass):
        stop = min(start + per_pass, n_nets)
        # Networks are numbered model by model: network u is member
        # u % size of model u // size.
        parts = [
            (stacks[k], max(start - k * size, 0), min(stop - k * size, size))
            for k in range(start // size, (stop - 1) // size + 1)
        ]
        w = Weights(
            [np.concatenate([s.ws[i][lo:hi] for s, lo, hi in parts]) for i in range(n_layers)],
            [np.concatenate([s.bs[i][lo:hi] for s, lo, hi in parts]) for i in range(n_layers)],
        )
        if X.ndim == 2:
            rows = np.broadcast_to(X[:, None], (n, stop - start, X.shape[-1]))
        else:
            rows = X[:, np.arange(start, stop) // size]
        probs = _forward(w, rows, work)[1]
        # Add member e of every model in the pass before member e + 1.
        for member in range(size):
            pos = (member - start) % size
            if pos < stop - start:
                column = probs[:, pos::size]
                model = (start + pos) // size
                total[:, model : model + column.shape[1]] += column
    return np.divide(total, size, out=total)


def predictive_batch(
    model: Weights | Ensemble, X: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Predictive class probabilities; ensembles average member outputs."""
    return predictive_stack([model], X, workspace)[:, 0]


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
