"""Small fully connected softmax classifier with hand-written backprop.

Training is deterministic given an explicit generator, and every data-dependent
computation first puts the samples into a canonical order, so losses, gradients
and trained weights are bit-identical under any permutation of the dataset.

Every fitted model is an ``Ensemble``: ``GDLearner`` (gradient descent) fits
one member, ``SGLDLearner`` (Langevin dynamics) samples many.  Training has one
API, the learners' ``fit``; scoring one conformity score, ``log_losses``.

Networks run as stacks.  Stacked weights carry a leading network axis, and
activations are laid out sample-major, ``(m, K, width)``: row ``i`` of network
``k`` sits at ``[i, k]``.  One planned pass (``_Pass``) serves training,
calibration, payload scoring and the public ``grad``: each fit or scoring pass
allocates its own buffers and builds its views once, and a training step runs
its forward and backward calls in place.  A single network is a stack of one.
Each network's matrix products see exactly the rows a lone call would give it,
so every output is bit-identical to running the networks one at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .checks import class_labels, integer

#: Probabilities are clamped here before any log; the clamp only guards the
#: log, the softmax output itself is never modified.
PROB_FLOOR = 1e-12

#: Most bytes of stacked weights and activations one scoring pass holds.
#: Networks join a pass while their weights and their rows' activations fit;
#: a network's rows are never split, so a payload wider than this runs one
#: network per pass.  A scoring call holds one pass's weight copy at a time,
#: next to the models it scores.
MAX_PASS_BYTES = 1 << 20


@dataclass(frozen=True)
class ModelArch:
    """Layer sizes: three hidden widths and the output labels.  The input is
    always the two (re, im) columns of ``features``."""

    input_dim: ClassVar[int] = 2
    hidden: tuple[int, int, int] = (16, 16, 16)
    output_dim: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_dim", integer("output_dim", self.output_dim))
        object.__setattr__(self, "hidden", tuple(integer("hidden", h) for h in self.hidden))
        if len(self.hidden) != 3:
            raise ValueError("expected exactly three hidden layers")
        if min(self.output_dim, *self.hidden) < 1:
            raise ValueError("all layer sizes must be at least 1")

    def dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        sizes = (self.input_dim, *self.hidden, self.output_dim)
        return list(zip(sizes[:-1], sizes[1:]))


@dataclass
class Weights:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors: one
    network, the type of ``init_weights``, ``grad`` and ``nll_loss``.

    Stacked weights carry a leading model axis on every array: K models train
    together as ``(K, fan_out, fan_in)`` matrices and ``(K, fan_out)`` biases.
    """

    ws: list[np.ndarray]
    bs: list[np.ndarray]

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.ws) and all(
            np.isfinite(a).all() for a in self.bs
        )


@dataclass(frozen=True)
class Ensemble:
    """A fitted model: member networks as one stack, member axis first; the
    predictive averages their outputs.  Gradient descent fits one member."""

    stacked: Weights

    def __post_init__(self) -> None:
        if not len(self.stacked.ws[0]):
            raise ValueError("ensemble needs at least one member")

    def all_finite(self) -> bool:
        return self.stacked.all_finite()


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
    y = class_labels(y)
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


def _fold(op, columns: list[np.ndarray], out: np.ndarray) -> list[tuple]:
    """Calls that fold the binary ufunc ``op`` over ``columns`` left to right
    into ``out``: the order and bits of ``functools.reduce(op, columns)``."""
    if len(columns) == 1:
        return [(np.positive, (columns[0],), out)]
    return [(op, tuple(columns[:2]), out)] + [(op, (out, c), out) for c in columns[2:]]


class _Pass:
    """The forward pass of a stack of K networks on fixed arrays and, given
    one-hot targets, the backward pass of their mean cross entropy.

    ``w`` holds ``(K, fan_out, fan_in)`` weights and ``(K, fan_out)`` biases;
    ``X`` is ``(m, K, d)`` with network ``k``'s rows at ``X[:, k]`` (a
    zero-stride K axis feeds every network the same rows); ``targets`` is
    ``(m, K, labels)``, each dataset in canonical order.

    Every buffer and view a pass uses is built here, once: the sample-major
    ``(m, K, width)`` output of every layer, a fresh array the pass owns, and
    its ``(K, m, width)`` transpose, the transposed weights, the softmax's label
    columns with their max and sum, and for the backward pass the ReLU masks
    and the per-layer views of one flat ``(K, n_params)`` gradient ``grad``,
    laid out like the learners' parameters (``w0, b0, w1, b1, ...``).  Running
    the pass is then a fixed list of numpy calls writing through ``out``: it
    allocates nothing, and sees any in-place change to the weights or rows.

    Each product is one matrix product per network, so network k's outputs
    and gradient are the same bits whatever else shares its stack.  The
    softmax's max and sum run across label columns, one elementwise
    operation per label, the sum left to right: the order numpy's own
    last-axis sum takes for fewer than 8 terms, so the bits are the same.
    The bias gradient sums over samples one row at a time, the order the
    single-network sum takes.  Each layer's backpropagated error overwrites
    that layer's input once its weight gradient and ReLU mask are taken.  The
    gradient is that of the unclamped loss (the clamp guards logs only, and
    binds nowhere a gradient step is useful).
    """

    def __init__(self, w: Weights, X: np.ndarray, targets: np.ndarray | None = None) -> None:
        m, k = X.shape[:2]
        self.rows = m
        outs = [np.empty((m, *b.shape)) for b in w.bs]
        # The input of every layer: the rows, then each hidden ReLU output.
        acts = [X, *outs[:-1]]
        calls = []
        for a, wi, bi, out in zip(acts, w.ws, w.bs, outs):
            product = (a.transpose(1, 0, 2), wi.transpose(0, 2, 1))
            calls.append((np.matmul, product, out.transpose(1, 0, 2)))
            calls.append((np.add, (out, bi), out))
            if out is not outs[-1]:
                calls.append((np.maximum, (out, 0.0), out))
        logits = outs[-1]
        labels = [logits[..., j] for j in range(logits.shape[-1])]
        top, total = np.empty((m, k)), np.empty((m, k))
        # Max subtraction keeps exp in range for arbitrarily large logits.
        calls += _fold(np.maximum, labels, top)
        calls.append((np.subtract, (logits, top[..., None]), logits))
        calls.append((np.exp, (logits,), logits))
        calls += _fold(np.add, labels, total)
        calls.append((np.divide, (logits, total[..., None]), logits))
        self._forward_calls = calls
        #: ``(m, K, labels)`` class probabilities after ``forward``.
        self.probs = logits
        if targets is None:
            return
        dims = [(wi.shape[-1], wi.shape[-2]) for wi in w.ws]
        self.grad = np.empty((k, _n_params(dims)))
        #: Weights-shaped views of ``grad``.
        self.gradient = _unflat(self.grad, dims)
        calls = [(np.subtract, (logits, targets), logits), (np.divide, (logits, m), logits)]
        for layer in reversed(range(len(w.ws))):
            a, delta = acts[layer], outs[layer]
            gw, gb = self.gradient.ws[layer], self.gradient.bs[layer]
            calls.append((np.matmul, (delta.transpose(1, 2, 0), a.transpose(1, 0, 2)), gw))
            calls.append((np.add.reduce, (delta, 0), gb))
            if layer:
                # ReLU passes gradient where its output is positive.
                passes = np.empty(a.shape, dtype=bool)
                calls.append((np.greater, (a, 0.0), passes))
                product = (delta.transpose(1, 0, 2), w.ws[layer])
                calls.append((np.matmul, product, a.transpose(1, 0, 2)))
                calls.append((np.multiply, (a, passes), a))
        self._backward_calls = calls

    def forward(self) -> np.ndarray:
        """Run the forward pass; returns ``probs``."""
        for call, args, out in self._forward_calls:
            call(*args, out=out)
        return self.probs

    def backward(self) -> None:
        """Backpropagate from the last ``forward`` into ``grad``, overwriting
        ``probs`` and the hidden activations."""
        for call, args, out in self._backward_calls:
            call(*args, out=out)


def _one_dataset(X, y, n_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """``_canonical`` for exactly one (n, d) dataset with labels in ``[0,
    n_labels)``."""
    X, y = _canonical(X, y)
    if X.ndim != 2:
        raise ValueError("expected one (n, d) dataset")
    return X, class_labels(y, n_labels)


def _stack_of_one(w: Weights) -> Weights:
    return Weights([a[None] for a in w.ws], [b[None] for b in w.bs])


def nll_loss(w: Weights, X, y) -> float:
    """Mean negative log probability of the true labels."""
    X, y = _one_dataset(X, y, w.bs[-1].size)
    return float(np.mean(log_losses([Ensemble(_stack_of_one(w))], X)[np.arange(len(y)), 0, y]))


def grad(w: Weights, X, y) -> Weights:
    """Weights-shaped gradient of ``nll_loss`` at ``w``."""
    X, y = _one_dataset(X, y, w.bs[-1].size)
    targets = _one_hot(y[:, None], w.bs[-1].size)
    step = _Pass(_stack_of_one(w), X[:, None, :], targets)
    step.forward()
    step.backward()
    return _unflat(step.grad[0], [(a.shape[-1], a.shape[-2]) for a in w.ws])


def _one_hot(y: np.ndarray, n_labels: int) -> np.ndarray:
    return np.eye(n_labels)[y]


def _n_params(dims: list[tuple[int, int]]) -> int:
    """Parameters of one network with layers of ``dims`` (fan_in, fan_out)."""
    return sum(fan_out * fan_in + fan_out for fan_in, fan_out in dims)


def _unflat(params: np.ndarray, dims: list[tuple[int, int]]) -> Weights:
    """Weights whose arrays are views into ``params`` (``..., n_params``, laid
    out weights then biases, layer by layer: ``w0, b0, w1, b1, ...``),
    keeping its leading axes; ``dims`` are the layers' (fan_in, fan_out)."""
    lead = params.shape[:-1]
    ws, bs, offset = [], [], 0
    for fan_in, fan_out in dims:
        size = fan_out * fan_in
        ws.append(params[..., offset : offset + size].reshape(*lead, fan_out, fan_in))
        bs.append(params[..., offset + size : offset + size + fan_out])
        offset += size + fan_out
    return Weights(ws, bs)


def _training_stack(X, y, arch: ModelArch, rngs):
    """The initial parameters of a training stack as one flat ``(K,
    n_params)`` array, the stack's training pass over canonical sample-major
    ``(m, K, d)`` data, and the generators.  Updates run on the flat array,
    one elementwise operation per step for all parameters; fitted models are
    views of it."""
    X, y = _canonical(X, y)
    if X.ndim != 3:
        raise ValueError("expected a (K, n, d) stack of datasets and (K, n) labels")
    class_labels(y, arch.output_dim)
    rngs = list(rngs)
    if len(rngs) != len(X):
        raise ValueError(f"a stack of {len(X)} datasets needs {len(X)} generators, got {len(rngs)}")
    dims = arch.dims()
    params = np.empty((len(rngs), _n_params(dims)))
    w = _unflat(params, dims)
    for j, r in enumerate(rngs):
        init = init_weights(arch, r)
        for stacked, own in zip(w.ws + w.bs, init.ws + init.bs):
            stacked[j] = own
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    return params, _Pass(w, X, _one_hot(y.T, arch.output_dim)), rngs


def predictive_stack(models: Sequence[Ensemble], X) -> np.ndarray:
    """Predictive class probabilities of K fitted models, ``(n, K, labels)``.

    ``X`` is one ``(n, d)`` matrix that every model scores, or a sample-major
    ``(n, K, d)`` stack in which model ``k`` scores ``X[:, k]``.  A model
    averages its members' outputs, added in member order.  The networks of
    all models (every member of every model) run as stacked passes of at
    most ``MAX_PASS_BYTES`` each, and every network sees all ``n`` of its rows
    in one product, so each model's output has the bits it has when scored
    alone.  Each pass copies its networks' weights into one stack and frees
    that copy before the next pass builds its own, so the call holds the
    models plus one pass's weights.  The models need equal member counts.
    """
    X = np.asarray(X, dtype=np.float64)
    stacks = [m.stacked for m in models]
    if X.ndim == 3 and X.shape[1] != len(stacks):
        raise ValueError(
            f"per-model rows (n, K, d) need one column per model, "
            f"got {X.shape[1]} for {len(stacks)} models"
        )
    size = len(stacks[0].ws[0])
    if any(len(s.ws[0]) != size for s in stacks):
        raise ValueError("models scored together need equal member counts")
    shape = stacks[0]
    n, n_nets, n_layers = len(X), size * len(stacks), len(shape.ws)
    net_bytes = 8 * (
        n * sum(b.shape[-1] for b in shape.bs) + sum(a[0].size for a in shape.ws + shape.bs)
    )
    per_pass = max(1, MAX_PASS_BYTES // net_bytes)
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
        probs = _Pass(w, rows).forward()
        # Add member e of every model in the pass before member e + 1.
        for member in range(size):
            pos = (member - start) % size
            if pos < stop - start:
                column = probs[:, pos::size]
                model = (start + pos) // size
                total[:, model : model + column.shape[1]] += column
        # Free this pass's weight copy before the next pass concatenates its
        # own, so a call holds one pass's weights at a time.  ``probs``, the
        # pass's last activation buffer, stays bound until the next pass
        # replaces it: it sits above the pass's freed buffers, and freeing it
        # too can let the allocator trim the heap and fault a whole-payload
        # pass's pages in again on every pass.
        del w
    return np.divide(total, size, out=total)


def log_losses(models: Sequence[Ensemble], X) -> np.ndarray:
    """``(n, K, labels)`` log loss of every label under each of K fitted models,
    ``-log(max(p, PROB_FLOOR))`` of the predictive; ``X`` as for
    ``predictive_stack``.  It is the conformity score of the conformal sets
    and, at the true labels, the training loss."""
    p = predictive_stack(models, X)
    return -np.log(np.maximum(p, PROB_FLOOR))


# Learners share one entry point, ``fit(X, y, rngs)``: a (K, n, d) stack of
# equal-size datasets with (K, n) labels and a sequence of K generators
# returns K ``Ensemble`` models (one member each from gradient descent),
# trained as one batched network; one dataset is a stack of one.  Model j
# draws its initial weights and noise from generator j alone, so it is the
# same bits whatever else shares its stack.


@dataclass(frozen=True)
class GDLearner:
    """Point-estimate learner: full-batch gradient descent on the mean cross
    entropy, a one-member ensemble out."""

    arch: ModelArch
    steps: int = 120
    lr: float = 0.2

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", integer("steps", self.steps))

    def fit(self, X, y, rngs) -> list[Ensemble]:
        if self.steps < 0:
            raise ValueError(f"need steps >= 0, got {self.steps!r}")
        params, step, _ = _training_stack(X, y, self.arch, rngs)
        g = step.grad
        for _ in range(self.steps):
            step.forward()
            step.backward()
            g *= self.lr
            params -= g
        return [Ensemble(_unflat(p[None], self.arch.dims())) for p in params]


@dataclass(frozen=True)
class SGLDLearner:
    """Bayesian learner: Langevin dynamics over the weights, an ensemble of
    the last ``ensemble_size`` iterates out.

    The target is the unnormalised posterior energy ``U(w) = n * mean loss +
    |w|^2 / (2 * prior_sigma^2)``.  Each step moves ``-eps/2`` along the
    gradient of ``U`` and injects ``sqrt(eps)`` Gaussian noise, with the
    Langevin step size ``eps = lr / n``; dividing by the dataset size makes
    the drift advance the mean loss at ``lr / 2`` regardless of ``n``, the
    same scale the gradient-descent learner moves at, and keeps the dynamics
    stable at the default learning rate.

    The injected noise stream depends only on the generator, never on the
    data: one flat vector is drawn per step and consumed per parameter array
    (weights then biases, layer by layer).
    """

    arch: ModelArch
    burn_in: int = 100
    ensemble_size: int = 20
    lr: float = 0.2
    prior_sigma: ClassVar[float] = 10.0

    def __post_init__(self) -> None:
        for name in ("burn_in", "ensemble_size"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))

    def fit(self, X, y, rngs) -> list[Ensemble]:
        if self.burn_in < 0 or self.ensemble_size < 1:
            raise ValueError("need burn_in >= 0 and ensemble_size >= 1")
        params, step, rngs = _training_stack(X, y, self.arch, rngs)
        eps = self.lr / step.rows
        root_eps = math.sqrt(eps)
        # -eps/2 * (n * grad_mean) is taken as -lr/2 * grad_mean.
        half_lr = 0.5 * self.lr
        prior_pull = 0.5 * eps / (self.prior_sigma * self.prior_sigma)
        g, pull, noise = step.grad, np.empty_like(params), np.empty_like(params)
        # Kept iterates, (K, ensemble_size, n_params): model j's members are
        # one contiguous stack, ready for stacked scoring.
        kept = np.empty((len(params), self.ensemble_size, params.shape[1]))
        for i in range(self.burn_in + self.ensemble_size):
            step.forward()
            step.backward()
            g *= -half_lr
            np.multiply(params, prior_pull, out=pull)
            g -= pull
            for row, r in zip(noise, rngs):
                r.standard_normal(out=row)
            noise *= root_eps
            g += noise
            params += g
            if i >= self.burn_in:
                kept[:, i - self.burn_in] = params
        return [Ensemble(_unflat(members, self.arch.dims())) for members in kept]
