"""Set-valued demodulators: naive probability-mass sets and conformal sets.

The naive set keeps the most probable labels until their mass reaches the
target; it has no calibration.  The three calibrated constructions are one
construction over different fold plans: model ``j`` trains without fold
``j``, scores that fold, and a rank count over all held-out scores decides
which labels enter a set.

* split (validation-based) conformal: one model, one held-out fold; the rank
  count is the same decision as the calibrated score quantile;
* leave-one-out cross conformal: one model per left-out pilot;
* leave-fold-out (k-fold) cross conformal: one model per left-out fold.

Each set construction is three steps.  A plan (``FoldPlan``) says which
pilots train each model and which pilots it scores; it is a pure function of
the pilots and the seed, and the naive plan is one model with nothing held
out.  ``fitted_stacks`` fits the models of any number of plans of equal
training size in shared stacks, so the frames of one experiment cell can
train together, and hands over each stack as soon as it is fitted.
``PayloadSets`` holds the sets of one plan's payload, and each model adds
its held-out and payload scores to them the moment its stack arrives: fit,
score, drop.  The rank rule needs nothing of a fold model beyond those
scores, so a caller that drops every stack once it is scored holds one
stack of models and one scoring pass's weights
(``mlp.predictive_stack``) at a time, whatever the number of pilots.
A plan whose rank threshold is 0 is ``vacuous``: its sets are the full
alphabet, so its models need not be fitted.  ``fit_plans`` instead keeps
every model of a plan, and the predictor classes add those kept models to
a ``PayloadSets`` of any payload later: the per-frame reference.

The score of a candidate label is its log loss under the predictive
(``mlp.log_losses``), so lower means more conforming.  All randomness
(splits, fold assignment, training initialisation) is derived from an
explicit integer seed and the pilot multiset; pilot arrival order never
changes any output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mlp
from .checks import class_labels, integer, real
from .seeding import derive_rng

#: Slack used when comparing accumulated probability mass against a target;
#: absorbs float rounding in sums like 0.7 + 0.2 vs 0.9.
NAIVE_MASS_TOL = 1e-9

#: Most models fitted in one stacked ``learner.fit`` call, from one plan or
#: several, and so the most fitted models a streamed caller holds at once.
#: Larger stacks buy little speed and hold more training state in memory.
MAX_STACK = 20


def _check_alpha(alpha: float) -> float:
    alpha = real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    return alpha


def quantile_index(n_scores: int, alpha: float) -> int:
    """1-based order statistic the calibrated quantile picks from n scores.

    Computed as ``ceil((1 - alpha) * (n_scores + 1))`` in exact rational
    arithmetic on the binary value of ``alpha``, so results agree with hand
    calculations even when the float product lands on the wrong side of an
    integer (e.g. 0.9 * 20).  May exceed ``n_scores``, in which case the
    quantile below is infinite.
    """
    alpha = _check_alpha(alpha)
    return math.ceil((1 - Fraction(alpha)) * (n_scores + 1))


def rank_threshold(n_scores: int, alpha: float) -> int:
    """Minimum number of calibration scores a candidate's score must not
    exceed for the candidate to enter a split or cross-conformal set:
    ``floor(alpha * (n_scores + 1))``, exact rational arithmetic as above.
    A threshold of 0 makes membership vacuous (every label enters).
    """
    alpha = _check_alpha(alpha)
    return math.floor(Fraction(alpha) * (n_scores + 1))


def empirical_quantile(scores, alpha: float) -> float:
    """k-th smallest of ``scores`` with +inf appended, k = quantile_index.

    Returns ``inf`` whenever the index points past the last real score, which
    is what makes small calibration sets yield trivial (full) prediction sets.
    """
    arr = np.asarray(scores, dtype=np.float64)
    k = quantile_index(arr.size, alpha)
    if k > arr.size:
        return math.inf
    return float(np.sort(arr)[k - 1])


def naive_mask(probs, alpha: float) -> np.ndarray:
    """Smallest head of each row's probability ranking whose mass reaches 1 - alpha.

    Labels are taken in decreasing probability order, ties broken towards the
    smaller label, until the accumulated mass reaches ``1 - alpha`` (within
    ``NAIVE_MASS_TOL``).  Returns a boolean mask shaped like ``probs``, one
    row per sample.  No coverage guarantee: the set is exactly as honest as
    the probabilities are.
    """
    alpha = _check_alpha(alpha)
    probs = np.asarray(probs, dtype=np.float64)
    order = np.argsort(-probs, axis=-1, kind="stable")
    cum = np.cumsum(np.take_along_axis(probs, order, axis=-1), axis=-1)
    n_keep = np.argmax(cum + NAIVE_MASS_TOL >= 1.0 - alpha, axis=-1) + 1
    mask = np.zeros(probs.shape, dtype=bool)
    np.put_along_axis(mask, order, np.arange(probs.shape[-1]) < n_keep[..., None], axis=-1)
    return mask


def _rank_counts(scores: np.ndarray, held_out) -> np.ndarray:
    """How many held-out scores lie at or above each candidate score, summed
    over models.

    ``scores[..., k]`` are candidate scores under model ``k`` and
    ``held_out[k]`` the held-out scores of model ``k``'s fold.  Each fold is
    sorted once and counted with ``searchsorted``.  NaN never counts: a NaN
    held-out score lies at or above nothing, and a NaN candidate score sorts
    above every held-out score.
    """
    counts = np.zeros(scores.shape[:-1], dtype=np.int64)
    for k, fold in enumerate(held_out):
        ranked = np.sort(fold[~np.isnan(fold)])
        counts += len(ranked) - np.searchsorted(ranked, scores[..., k])
    return counts


def cv_membership(candidate_scores, val_scores, alpha: float) -> np.ndarray:
    """Cross-conformal inclusion rule on a precomputed score table.

    ``candidate_scores[l, i]`` is the score of candidate label ``l`` under the
    model that did not see calibration point ``i``; ``val_scores[i]`` is that
    point's own score under the same model.  Label ``l`` enters the set when
    at least ``rank_threshold(n, alpha)`` calibration points score at or above
    it.  Returns a boolean vector over labels.
    """
    cand = np.asarray(candidate_scores, dtype=np.float64)
    val = np.asarray(val_scores, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != val.size:
        raise ValueError("expected (labels, n) candidate scores and n validation scores")
    return _rank_counts(cand, val[:, None]) >= rank_threshold(val.size, alpha)


def _pilot_arrays(pilot_x, pilot_y) -> tuple[np.ndarray, np.ndarray]:
    feats = mlp.features(pilot_x)
    y = np.atleast_1d(class_labels(pilot_y))
    if len(feats) != len(y):
        raise ValueError("pilot samples and labels must have matching lengths")
    if len(y) == 0:
        raise ValueError("need at least one pilot")
    return feats, y


def _calibration_order(feats: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Canonical sort followed by a seeded shuffle.

    The result depends only on the pilot multiset and the seed, so splits and
    fold assignments are invariant to pilot arrival order.  Calibration needs
    at least two pilots: one to train on and one to hold out.
    """
    if len(y) < 2:
        raise ValueError("need at least two pilots")
    base = mlp.canonical_order(feats, y)
    perm = derive_rng(seed, 0).permutation(len(base))
    return base[perm]


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Which pilots train each model of a predictor, and which it scores.

    Model ``j`` trains on the pilot rows ``train[j]`` of ``feats`` and ``y``
    from the generator ``derive_rng(seed, 1 + j)`` and scores the rows
    ``folds[j]``, which it never saw.  A plan is a pure function of the
    pilots and the seed.  The naive plan is one model on all pilots with an
    empty fold: nothing is held out, and its sets follow the mass rule.
    """

    feats: np.ndarray
    y: np.ndarray
    train: np.ndarray
    folds: np.ndarray
    seed: int


def naive_plan(pilot_x, pilot_y, seed: int = 0) -> FoldPlan:
    """One model on all pilots, nothing held out."""
    feats, y = _pilot_arrays(pilot_x, pilot_y)
    return FoldPlan(feats, y, np.arange(len(y))[None], np.empty((1, 0), dtype=np.intp), seed)


def split_plan(pilot_x, pilot_y, seed: int = 0) -> FoldPlan:
    """One model on the first ``ceil(n / 2)`` pilots in calibration order;
    the rest are its one held-out fold."""
    feats, y = _pilot_arrays(pilot_x, pilot_y)
    order = _calibration_order(feats, y, seed)
    n_train = (len(y) + 1) // 2
    return FoldPlan(feats, y, order[None, :n_train], order[None, n_train:], seed)


def cross_val_plan(pilot_x, pilot_y, k: int | None = None, seed: int = 0) -> FoldPlan:
    """``k`` contiguous equal folds of the pilots in calibration order, one
    model trained without each; ``k = n`` (the default) is leave-one-out."""
    feats, y = _pilot_arrays(pilot_x, pilot_y)
    order = _calibration_order(feats, y, seed)
    n = len(y)
    k = n if k is None else integer("k", k)
    if not 2 <= k <= n:
        raise ValueError(f"fold count must be in [2, {n}], got {k}")
    if n % k:
        raise ValueError(f"{n} pilots cannot be cut into {k} equal folds")
    folds = order.reshape(k, n // k)
    train = np.array([np.delete(folds, j, axis=0).ravel() for j in range(k)])
    return FoldPlan(feats, y, train, folds, seed)


def fitted_stacks(learner, plans):
    """Fit the models of every plan in stacks of at most ``MAX_STACK`` and
    yield each stack as soon as it is fitted.

    A stack is a list of ``(p, models)``: the next models of ``plans[p]``,
    in plan order.  Every model trains from its own generator, so it is
    bit-identical to its lone fit.  Plans fitted together need equal
    training sizes.  ``learner.fit`` is the only learner call made.  Only
    the caller holds a yielded stack, so a caller that drops it before
    asking for the next one holds one stack of models at a time (every
    model is a view of its stack's weights).
    """
    X = np.concatenate([p.feats[p.train] for p in plans])
    y = np.concatenate([p.y[p.train] for p in plans])
    rngs = [derive_rng(p.seed, 1 + j) for p in plans for j in range(len(p.train))]
    owners = [i for i, p in enumerate(plans) for _ in p.train]
    for start in range(0, len(rngs), MAX_STACK):
        stop = start + MAX_STACK
        # Yielded unnamed, so this generator keeps no reference to the stack.
        yield _by_plan(
            owners[start:stop], learner.fit(X[start:stop], y[start:stop], rngs[start:stop])
        )


def _by_plan(owners, models) -> list[tuple[int, list]]:
    """``(p, models)`` runs of consecutive models of one plan."""
    runs = []
    for p, model in zip(owners, models):
        if runs and runs[-1][0] == p:
            runs[-1][1].append(model)
        else:
            runs.append((p, [model]))
    return runs


def fit_plans(learner, plans) -> list[list]:
    """The models of every plan, in plan order, all held at once: the
    stacks of ``fitted_stacks`` joined."""
    fitted = [[] for _ in plans]
    for stack in fitted_stacks(learner, plans):
        for p, models in stack:
            fitted[p] += models
    return fitted


def vacuous(plan: FoldPlan, alpha: float) -> bool:
    """Whether a plan's sets are the full alphabet whatever its models say.

    True when the plan holds pilots out and their rank threshold is 0
    (fewer than ``1 / alpha - 1`` held-out pilots): no candidate score can
    then fall short of the count, so fitting the plan's models decides
    nothing.  The mass rule of a plan that holds nothing out is never
    vacuous.
    """
    return bool(plan.folds.size) and rank_threshold(plan.folds.size, alpha) == 0


def _held_out_scores(plan: FoldPlan, first: int, models) -> np.ndarray:
    """``(len(models), fold size)`` scores of models ``first, first + 1,
    ...`` of a plan on their own held-out folds, at the true labels.  Every
    fold has the same size, so the models score their folds as one stack of
    per-model rows, ``(fold size, K, d)``."""
    held = plan.folds[first : first + len(models)]
    scores = mlp.log_losses(models, plan.feats[held].transpose(1, 0, 2))
    y = class_labels(plan.y[held].T, scores.shape[-1])
    return np.take_along_axis(scores, y[:, :, None], axis=-1)[..., 0].T


def _payload_scores(models, feats: np.ndarray) -> np.ndarray:
    """``(payload, labels, len(models))`` scores of every label of every
    payload row, each model scoring the one payload matrix ``feats``: the
    candidate scores of ``_rank_counts``."""
    return mlp.log_losses(models, feats).transpose(0, 2, 1)


class PayloadSets:
    """The sets of the payload ``x`` over ``n_labels`` labels under one plan,
    built stack by stack; the payload is checked on construction (a
    non-finite sample raises).

    ``add(models)`` scores the plan's next models, of the ``pending`` still
    to add, and keeps none of them: each model scores its own held-out fold
    on per-model rows, scores the payload as one feature matrix, and adds
    its rank counts.  Once the last model is added, ``mask`` holds the
    ``(payload, labels)`` membership mask.  A candidate label enters a set
    when at least ``threshold_count = rank_threshold(n_cal, alpha)`` of the
    ``n_cal`` held-out pilots score at or above it under their own model; a
    threshold of 0 (a ``vacuous`` plan) admits every label at once.  Under
    the mass rule, the one model's predictive decides.  Payload features and
    counts exist only while models are added, so sets waiting for their
    first model hold nothing the size of the payload but ``x`` itself.

    ``diverged`` counts the added models with non-finite weights,
    ``nan_held_out`` the NaN held-out scores, and ``nan_rows`` marks the
    payload rows with a NaN score under any added model (``None`` while
    there is none).  A NaN held-out score never counts towards a rank count
    but still counts in ``threshold_count``, and a NaN predictive decides
    the mass rule arbitrarily, so each leaves sets that look calibrated and
    are not.
    """

    def __init__(self, plan: FoldPlan, alpha: float, x, n_labels: int):
        self.plan = plan
        self.alpha = _check_alpha(alpha)
        self.x = x
        self.threshold_count = rank_threshold(plan.folds.size, self.alpha)
        #: Models still to add; a vacuous plan needs none.
        self.pending = 0 if vacuous(plan, self.alpha) else len(plan.train)
        self.counts = None
        self.diverged, self.nan_held_out, self.nan_rows = 0, 0, None
        n_rows = len(mlp.features(x))
        self.mask = None if self.pending else np.ones((n_rows, n_labels), dtype=bool)

    def add(self, models) -> None:
        feats = mlp.features(self.x)
        first = len(self.plan.train) - self.pending
        self.pending -= len(models)
        self.diverged += sum(not model.all_finite() for model in models)
        if not self.plan.folds.size:
            (model,) = models
            probs = mlp.predictive_stack([model], feats)[:, 0]
            self._note_nan_rows(probs)
            self.mask = naive_mask(probs, self.alpha)
            return
        held_out = _held_out_scores(self.plan, first, models)
        scores = _payload_scores(models, feats)
        if not np.isfinite(held_out.sum()):
            self.nan_held_out += int(np.isnan(held_out).sum())
        self._note_nan_rows(scores)
        counts = _rank_counts(scores, held_out)
        self.counts = counts if self.counts is None else self.counts + counts
        if not self.pending:
            self.mask, self.counts = self.counts >= self.threshold_count, None

    def _note_nan_rows(self, scores: np.ndarray) -> None:
        # A finite sum has no NaN term.  Testing it first makes no array of
        # flags for a frame without NaN: flagging every stack's scores raised
        # the peak resident size of a cv benchmark run by ~0.7 MB.
        if np.isfinite(scores.sum()):
            return
        rows = np.isnan(scores).reshape(len(scores), -1).any(axis=1)
        self.nan_rows = rows if self.nan_rows is None else self.nan_rows | rows


class _KeptPlan:
    """Sets from one plan whose fitted models are all kept, so that any
    payload can be scored later: the per-frame reference the streamed sets
    are checked against.  ``predict_mask`` adds the kept models to a new
    ``PayloadSets``, so both paths share one set of rules."""

    def __init__(self, plan: FoldPlan, learner, alpha: float):
        self.alpha = _check_alpha(alpha)
        # A split plan's held-out pilots reach no learner, and are scored
        # only by ``predict_mask``: check their labels now.
        self.n_labels = learner.arch.output_dim
        class_labels(plan.y, self.n_labels)
        self.plan = plan
        self.models = fit_plans(learner, [plan])[0]

    def predict_mask(self, x) -> np.ndarray:
        sets = PayloadSets(self.plan, self.alpha, x, self.n_labels)
        if sets.pending:
            sets.add(self.models)
        return sets.mask


class NaiveSetPredictor(_KeptPlan):
    """Probability-mass sets from one model trained on all pilots."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        super().__init__(naive_plan(pilot_x, pilot_y, seed), learner, alpha)


class SplitConformalPredictor(_KeptPlan):
    """Split conformal sets on the one-fold plan of ``split_plan``: the rank
    count over one fold is the same decision as comparing a score with the
    ``empirical_quantile`` of the held-out scores."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        super().__init__(split_plan(pilot_x, pilot_y, seed), learner, alpha)


class CrossValConformalPredictor(_KeptPlan):
    """Leave-fold-out conformal sets on the plan of ``cross_val_plan``; ``k =
    n`` (the default) is leave-one-out."""

    def __init__(
        self, pilot_x, pilot_y, alpha: float, learner, k: int | None = None, seed: int = 0
    ):
        super().__init__(cross_val_plan(pilot_x, pilot_y, k, seed), learner, alpha)
