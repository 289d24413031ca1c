"""Small fully connected softmax classifier with hand-written backprop.

Training is deterministic given an explicit generator, and every data-dependent
computation first puts the samples into a canonical order, so losses, gradients
and trained weights are bit-identical under any permutation of the dataset.

Parameters have one format.  A network is one ``(n_params,)`` row, laid out
weights then biases, layer by layer (``w0, b0, w1, b1, ...``), and a fitted
model is its ``(E, n_params)`` block of member rows: ``GDLearner`` (gradient
descent) fits one member, ``SGLDLearner`` (Langevin dynamics) samples many.  A
learner's ``fit`` returns the ``(K, E, n_params)`` array it trained.  Every
layer size but the label count is a ``ModelArch`` constant, so a row's length
fixes its label count (``_dims``).  Training has one API, the learners'
``fit``; scoring one conformity score, ``log_losses``.

Networks run as stacks of ``(K, n_params)`` rows, and activations are laid out
sample-major, ``(m, K, width)``: row ``i`` of network ``k`` sits at ``[i, k]``.
One planned pass (``_Pass``) serves training, calibration, payload scoring and
the public ``grad``, and only it views rows as per-layer arrays: each fit or
scoring pass allocates its own buffers and builds its views once, and a
training step runs its forward and backward calls in place.  A single network
is a stack of one.
Each network's matrix products see exactly the rows a lone call would give it,
so every output is bit-identical to running the networks one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .checks import class_labels, integer

#: Probabilities are clamped here before any log; the clamp only guards the
#: log, the softmax output itself is never modified.
PROB_FLOOR = 1e-12

#: Most bytes of weights and activations one scoring pass covers.  Whole
#: models join a pass while their networks' weights and activations fit; a
#: model whose members alone do not fit runs as passes of its own members.  A
#: network's rows are never split, so a payload wider than this runs one
#: network per pass.  A pass reads its weights in place, so a scoring call
#: holds one pass's activations next to the models it scores.
MAX_PASS_BYTES = 1 << 20

#: Scoring pads two or more rows with zero rows to a multiple of this.
#: OpenBLAS's Haswell dgemm can give the rows past a product's last multiple
#: of 8 other bits than the same rows elsewhere; padded, every real row runs
#: in a full block, so a row's scores do not depend on where it sits.  One
#: row has no position, and runs unpadded: numpy scores it as a
#: matrix-vector product, whose bits a padded matrix product would not keep.
ROW_BLOCK = 8


@dataclass(frozen=True)
class ModelArch:
    """Layer sizes: the paper's three ReLU hidden layers of 16 units, and one
    output per label, the only size that is set (at least two labels).  The
    input is always the two (re, im) columns of ``features``."""

    input_dim: ClassVar[int] = 2
    hidden: ClassVar[tuple[int, int, int]] = (16, 16, 16)
    output_dim: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_dim", integer("output_dim", self.output_dim))
        if self.output_dim < 2:
            raise ValueError(f"output_dim must be at least 2, got {self.output_dim}")

    def dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input to output."""
        sizes = (self.input_dim, *self.hidden, self.output_dim)
        return list(zip(sizes[:-1], sizes[1:]))


def features(x) -> np.ndarray:
    """Stack a scalar or 1-D array of complex samples into an (n, 2) real
    matrix of (re, im) rows.

    Raises ``ValueError`` on more dimensions, naming the shape, and on a NaN
    or infinite sample: it would score NaN against every label and silently
    decide set membership.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if arr.ndim != 1:
        raise ValueError(f"expected a scalar or 1-D array of samples, got shape {arr.shape}")
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


def init_weights(arch: ModelArch, rng: np.random.Generator) -> np.ndarray:
    """One network's parameter row: Gaussian weights with variance 1/fan_in,
    zero biases."""
    parts = []
    for fan_in, fan_out in arch.dims():
        parts += [rng.standard_normal(fan_out * fan_in) / math.sqrt(fan_in), np.zeros(fan_out)]
    return np.concatenate(parts)


def _fold(op, columns: list[np.ndarray], out: np.ndarray) -> list[tuple]:
    """Calls that fold the binary ufunc ``op`` over two or more ``columns``
    left to right into ``out``: the order and bits of
    ``functools.reduce(op, columns)``."""
    return [(op, tuple(columns[:2]), out)] + [(op, (out, c), out) for c in columns[2:]]


class _Pass:
    """The forward pass of a stack of K networks on fixed arrays and, given
    one-hot targets, the backward pass of their mean cross entropy.

    ``params`` holds the ``(K, n_params)`` parameter rows of the networks;
    ``X`` is ``(m, K, d)`` with network ``k``'s rows at ``X[:, k]`` (a
    zero-stride K axis feeds every network the same rows); ``targets`` is
    ``(m, K, labels)``, each dataset in canonical order.

    Every buffer and view a pass uses is built here, once: the sample-major
    ``(m, K, width)`` output of every layer, a fresh array the pass owns, and
    its ``(K, m, width)`` transpose, the transposed weights, the softmax's label
    columns with their max and sum, and for the backward pass the ReLU masks
    and the per-layer views of the ``(K, n_params)`` gradient rows ``grad``.
    Running the pass is then a fixed list of numpy calls writing through
    ``out``: it allocates nothing, and sees any in-place change to the weights
    or rows.

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

    def __init__(
        self, params: np.ndarray, X: np.ndarray, targets: np.ndarray | None = None
    ) -> None:
        m, k = X.shape[:2]
        self.rows = m
        ws, bs = _unflat(params)
        outs = [np.empty((m, *b.shape)) for b in bs]
        # The input of every layer: the rows, then each hidden ReLU output.
        acts = [X, *outs[:-1]]
        calls = []
        for a, wi, bi, out in zip(acts, ws, bs, outs):
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
        self.grad = np.empty(params.shape)
        gws, gbs = _unflat(self.grad)
        calls = [(np.subtract, (logits, targets), logits), (np.divide, (logits, m), logits)]
        for layer in reversed(range(len(ws))):
            a, delta = acts[layer], outs[layer]
            gw, gb = gws[layer], gbs[layer]
            calls.append((np.matmul, (delta.transpose(1, 2, 0), a.transpose(1, 0, 2)), gw))
            calls.append((np.add.reduce, (delta, 0), gb))
            if layer:
                # ReLU passes gradient where its output is positive.
                passes = np.empty(a.shape, dtype=bool)
                calls.append((np.greater, (a, 0.0), passes))
                product = (delta.transpose(1, 0, 2), ws[layer])
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


def grad(w: np.ndarray, X, y) -> np.ndarray:
    """Gradient of the mean log loss of one (n, d) dataset at its true labels
    (``log_losses``, unclamped) at the parameter row ``w``, as a row like
    it."""
    n_labels = _dims(w.shape[-1])[-1][1]
    X, y = _canonical(X, y)
    if X.ndim != 2:
        raise ValueError("expected one (n, d) dataset")
    y = class_labels(y, n_labels)
    step = _Pass(w[None], X[:, None, :], _one_hot(y[:, None], n_labels))
    step.forward()
    step.backward()
    return step.grad[0]


def _one_hot(y: np.ndarray, n_labels: int) -> np.ndarray:
    return np.eye(n_labels)[y]


def _dims(n_params: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer of a network of ``n_params`` parameters.

    Every layer size but the label count is a ``ModelArch`` constant, and each
    label adds one output unit, so the row length fixes the label count: the
    paper's network has ``592 + 17 * labels`` parameters.  A length that no
    label count of at least 2 gives raises ``ValueError``.
    """
    *hidden, (last, _) = ModelArch().dims()
    fixed = sum(fan_out * fan_in + fan_out for fan_in, fan_out in hidden)
    labels, rest = divmod(n_params - fixed, last + 1)
    if rest or labels < 2:
        raise ValueError(f"no label count gives a parameter row of length {n_params}")
    return ModelArch(labels).dims()


def _unflat(params: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer ``(..., fan_out, fan_in)`` weight and ``(..., fan_out)`` bias
    views of the parameter rows ``params`` (``..., n_params``), keeping their
    leading axes."""
    lead = params.shape[:-1]
    ws, bs, offset = [], [], 0
    for fan_in, fan_out in _dims(params.shape[-1]):
        size = fan_out * fan_in
        ws.append(params[..., offset : offset + size].reshape(*lead, fan_out, fan_in))
        bs.append(params[..., offset + size : offset + size + fan_out])
        offset += size + fan_out
    return ws, bs


def _training_stack(X, y, arch: ModelArch, rngs):
    """The initial parameter rows of a training stack, ``(K, n_params)``, the
    stack's training pass over canonical sample-major ``(m, K, d)`` data, and
    the generators.  Updates run on the rows, one elementwise operation per
    step for all parameters; fitted models are views of them."""
    X, y = _canonical(X, y)
    if X.ndim != 3:
        raise ValueError("expected a (K, n, d) stack of datasets and (K, n) labels")
    class_labels(y, arch.output_dim)
    rngs = list(rngs)
    if len(rngs) != len(X):
        raise ValueError(f"a stack of {len(X)} datasets needs {len(X)} generators, got {len(rngs)}")
    params = np.array([init_weights(arch, r) for r in rngs])
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    return params, _Pass(params, X, _one_hot(y.T, arch.output_dim)), rngs


def predictive_stack(models: np.ndarray, X) -> np.ndarray:
    """Predictive class probabilities of K fitted models, ``(n, K, labels)``.

    ``models`` is a ``(K, E, n_params)`` array: each model's block of E member
    rows.  ``X`` is one ``(n, d)`` matrix that every model scores, or a
    sample-major ``(n, K, d)`` stack in which model ``k`` scores ``X[:, k]``.
    A model averages its members' outputs, added in member order.  The models
    run as stacked passes of at most ``MAX_PASS_BYTES`` each: a pass holds
    consecutive whole models, or, when one model's members alone exceed the
    budget, a run of that model's members.  Every network sees all ``n`` of
    its rows in one product, two or more padded to a multiple of
    ``ROW_BLOCK``, so each model's output has the bits it has when scored
    alone, and each row the bits it has wherever it sits.  A pass reads its networks' rows in
    place (a view of ``models`` as the learners return them), so the call
    copies no weights.
    There must be at least one model, and a model needs at least one member.
    """
    X = np.asarray(X, dtype=np.float64)
    models = np.asarray(models, dtype=np.float64)
    if not len(models):
        raise ValueError("expected at least one model, got an empty model list")
    k, size, n_params = models.shape
    if X.ndim == 3 and X.shape[1] != k:
        raise ValueError(
            f"per-model rows (n, K, d) need one column per model, got {X.shape[1]} for {k} models"
        )
    if not size:
        raise ValueError("a model needs at least one member")
    dims = _dims(n_params)
    n = len(X)
    if n > 1 and n % ROW_BLOCK:
        X = np.concatenate([X, np.zeros((-n % ROW_BLOCK, *X.shape[1:]))])
    m = len(X)
    net_bytes = 8 * (m * sum(fan_out for _, fan_out in dims) + n_params)
    per_pass = max(1, MAX_PASS_BYTES // net_bytes)
    # Whole models per pass, or runs of one model's members if they alone exceed the budget.
    models_per_pass, members_per_pass = max(1, per_pass // size), min(per_pass, size)
    total = np.zeros((n, k, dims[-1][1]))
    for k0 in range(0, k, models_per_pass):
        k1 = min(k0 + models_per_pass, k)
        for e0 in range(0, size, members_per_pass):
            e1 = min(e0 + members_per_pass, size)
            nets = models[k0:k1, e0:e1].reshape(-1, n_params)
            if X.ndim == 2:
                rows = np.broadcast_to(X[:, None], (m, len(nets), X.shape[-1]))
            else:
                rows = np.repeat(X[:, k0:k1], e1 - e0, axis=1)
            probs = _Pass(nets, rows).forward()[:n].reshape(n, k1 - k0, e1 - e0, -1)
            for member in range(e1 - e0):
                total[:, k0:k1] += probs[:, :, member]
    return np.divide(total, size, out=total)


def log_losses(models: np.ndarray, X) -> np.ndarray:
    """``(n, K, labels)`` log loss of every label under each of K fitted models,
    ``-log(max(p, PROB_FLOOR))`` of the predictive; ``X`` as for
    ``predictive_stack``.  It is the conformity score of the conformal sets
    and, at the true labels, the training loss."""
    p = predictive_stack(models, X)
    return -np.log(np.maximum(p, PROB_FLOOR))


# Learners share one entry point, ``fit(X, y, rngs)``: a (K, n, d) stack of
# equal-size datasets with (K, n) labels and a sequence of K generators
# returns the ``(K, E, n_params)`` array the stack trained, K models of E
# member rows (one from gradient descent), without a copy; one dataset is a
# stack of one.  Model j draws its initial weights and noise from generator j
# alone, so it is the same bits whatever else shares its stack.


@dataclass(frozen=True)
class GDLearner:
    """Point-estimate learner: ``steps`` full-batch gradient descent steps of
    size ``lr`` on the mean cross entropy, a one-member model out.  The
    architecture is its only setting."""

    arch: ModelArch
    steps: ClassVar[int] = 120
    lr: ClassVar[float] = 0.2

    def fit(self, X, y, rngs) -> np.ndarray:
        params, step, _ = _training_stack(X, y, self.arch, rngs)
        g = step.grad
        for _ in range(self.steps):
            step.forward()
            step.backward()
            g *= self.lr
            params -= g
        return params[:, None]


@dataclass(frozen=True)
class SGLDLearner:
    """Bayesian learner: Langevin dynamics over the weights, an ensemble of
    the last ``ensemble_size`` iterates after ``burn_in`` steps out.  The
    architecture is its only setting.

    The target is the unnormalised posterior energy ``U(w) = n * mean loss +
    |w|^2 / (2 * prior_sigma^2)``.  Each step moves ``-eps/2`` along the
    gradient of ``U`` and injects ``sqrt(eps)`` Gaussian noise, with the
    Langevin step size ``eps = lr / n``; dividing by the dataset size makes
    the drift advance the mean loss at ``lr / 2`` regardless of ``n``, the
    same scale the gradient-descent learner moves at, and keeps the dynamics
    stable at its learning rate.

    The injected noise stream depends only on the generator, never on the
    data: one vector of ``n_params`` normals is drawn per step and added to the
    parameter row, so it is consumed in the row's order (``w0, b0, w1, b1,
    ...``).
    """

    arch: ModelArch
    burn_in: ClassVar[int] = 100
    ensemble_size: ClassVar[int] = 20
    lr: ClassVar[float] = 0.2
    prior_sigma: ClassVar[float] = 10.0

    def fit(self, X, y, rngs) -> np.ndarray:
        params, step, rngs = _training_stack(X, y, self.arch, rngs)
        eps = self.lr / step.rows
        root_eps = math.sqrt(eps)
        # -eps/2 * (n * grad_mean) is taken as -lr/2 * grad_mean.
        half_lr = 0.5 * self.lr
        prior_pull = 0.5 * eps / (self.prior_sigma * self.prior_sigma)
        g, pull, noise = step.grad, np.empty_like(params), np.empty_like(params)
        # Kept iterates, (K, ensemble_size, n_params): model j's members are
        # one contiguous block, ready for stacked scoring.
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
        return kept
