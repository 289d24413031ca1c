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

Each set construction is three steps.  A plan (``fold_plan``, one function
for all four methods) is the held-out fold of each model, which trains on
every other pilot.  It is a pure function of the pilots and the seed, and
the naive plan is one model with nothing held out.  ``fitted_stacks`` fits
the models of any number of plans of equal training size in shared stacks,
so the frames of one experiment cell can train together, and hands over
each stack as soon as it is fitted.  A fitted
model is its ``(E, n_params)`` block of member parameter rows (``mlp``), and
a plan's models within a stack are one slice of the stack's ``(K, E,
n_params)`` array.
``PayloadSets`` holds the sets of one plan's payload, and each model adds
its held-out and payload scores to them the moment its stack arrives: fit,
score, drop.  The rank rule needs nothing of a fold model beyond those
scores, so a caller that drops every stack once it is scored holds one
stack of models and one scoring pass's weights
(``mlp.predictive_stack``) at a time, whatever the number of pilots.
A plan whose rank threshold is 0 is ``vacuous``: its sets are the full
alphabet, so its models need not be fitted.  The predictor classes instead
keep every model of their plan and add those kept models to a
``PayloadSets`` of any payload later: the per-frame reference.

The score of a candidate label is its log loss under the predictive
(``mlp.log_losses``), so lower means more conforming.  All randomness
(splits, fold assignment, training initialisation) is derived from an
explicit integer seed and the pilot multiset; pilot arrival order never
changes any output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import mlp
from .checks import alpha_level, class_labels, integer
from .seeding import derive_rng

#: Slack used when comparing accumulated probability mass against a target;
#: absorbs float rounding in sums like 0.7 + 0.2 vs 0.9.
NAIVE_MASS_TOL = 1e-9

#: Most models fitted in one stacked ``learner.fit`` call, from one plan or
#: several, and so the most fitted models a streamed caller holds at once.
#: Larger stacks buy little speed and hold more training state in memory.
MAX_STACK = 20


def rank_threshold(n_scores: int, alpha: float) -> int:
    """Minimum number of calibration scores a candidate's score must not
    exceed for the candidate to enter a split or cross-conformal set:
    ``floor(alpha * (n_scores + 1))``, computed in integer arithmetic on the
    exact binary value ``num / den`` of ``alpha``, so results agree with hand
    calculations even when the float product lands on the wrong side of an
    integer (e.g. 0.3 * 10).  A threshold of 0 makes membership vacuous
    (every label enters).
    """
    n_scores, alpha = integer("n_scores", n_scores), alpha_level(alpha)
    if n_scores < 0:
        raise ValueError(f"n_scores must be at least 0, got {n_scores}")
    num, den = alpha.as_integer_ratio()
    return num * (n_scores + 1) // den


def naive_mask(probs, alpha: float) -> np.ndarray:
    """Smallest head of each row's probability ranking whose mass reaches 1 - alpha.

    Labels are taken in decreasing probability order, ties broken towards the
    smaller label, until the accumulated mass reaches ``1 - alpha`` (within
    ``NAIVE_MASS_TOL``).  Returns a boolean mask shaped like ``probs``, one
    row per sample.  No coverage guarantee: the set is exactly as honest as
    the probabilities are.
    """
    alpha = alpha_level(alpha)
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
    sorted once and counted with ``searchsorted``.  NaN ranks as the worst
    score, above every number, +inf included (numpy sorts it last): a NaN
    held-out score lies at or above every candidate score, and a NaN
    candidate score counts only the NaN held-out scores.  So a NaN held-out
    score counts here just as it counts in ``rank_threshold``'s ``n_scores``.
    """
    counts = np.zeros(scores.shape[:-1], dtype=np.int64)
    for k, fold in enumerate(held_out):
        ranked = np.sort(fold)
        counts += len(ranked) - np.searchsorted(ranked, scores[..., k])
    return counts


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Which pilots each model of a predictor holds out, and so trains on.

    Model ``j`` scores the pilot rows ``folds[j]`` of ``feats`` and ``y``,
    which it never saw: it trains on every pilot outside ``folds[j]``, from
    the generator ``derive_rng(seed, 1 + j)``.  A plan is a pure function of
    the pilots and the seed.  The naive plan is one model with an empty
    fold: it trains on all pilots, and its sets follow the mass rule.
    """

    feats: np.ndarray
    y: np.ndarray
    folds: np.ndarray
    seed: int


def fold_plan(method: str, pilot_x, pilot_y, seed: int = 0, k: int | None = None) -> FoldPlan:
    """The fold plan of ``method`` on a frame's pilots.

    * ``"naive"``: one model, nothing held out;
    * ``"vb"``: one fold, the last ``floor(n / 2)`` pilots in calibration
      order, so its model trains on the first ``ceil(n / 2)``;
    * ``"kcv"``: ``k`` contiguous equal folds of the pilots in calibration
      order;
    * ``"cv"``: ``n`` folds of one pilot (leave-one-out); ``k`` is ignored.

    The calibration order is the canonical sort followed by a seeded
    shuffle.  It depends only on the pilot multiset and the seed, so pilot
    arrival order never changes a plan.  Calibration needs at least two
    pilots: one to train on and one to hold out.
    """
    if method not in ("naive", "vb", "cv", "kcv"):
        raise ValueError(f"unknown method {method!r}")
    seed = integer("seed", seed)
    feats = mlp.features(pilot_x)
    y = np.atleast_1d(class_labels(pilot_y))
    n = len(y)
    if len(feats) != n:
        raise ValueError("pilot samples and labels must have matching lengths")
    if n == 0:
        raise ValueError("need at least one pilot")
    if method == "naive":
        return FoldPlan(feats, y, np.empty((1, 0), dtype=np.intp), seed)
    if n < 2:
        raise ValueError("need at least two pilots")
    order = mlp.canonical_order(feats, y)[derive_rng(seed, 0).permutation(n)]
    if method == "vb":
        return FoldPlan(feats, y, order[None, (n + 1) // 2 :], seed)
    k = n if method == "cv" else integer("k", k)
    if not 2 <= k <= n:
        raise ValueError(f"fold count must be in [2, {n}], got {k}")
    if n % k:
        raise ValueError(f"{n} pilots cannot be cut into {k} equal folds")
    return FoldPlan(feats, y, order.reshape(k, n // k), seed)


def fitted_stacks(learner, plans):
    """Fit the models of every plan in stacks of at most ``MAX_STACK`` and
    yield each stack as soon as it is fitted.

    A stack is a list of ``(p, models)``: the next models of ``plans[p]``,
    in plan order, as a slice of the ``(K, E, n_params)`` array
    ``learner.fit`` returned.  Every model trains from its own generator, so
    it is bit-identical to its lone fit.  Plans fitted together need equal
    training sizes.  ``learner.fit`` is the only learner call made.  Only
    the caller holds a yielded stack, so a caller that drops it before
    asking for the next one holds one stack of models at a time (every
    model is a view of its stack's weights).
    """
    X, y = [], []
    for p in plans:
        # Model j trains on every pilot outside fold j, in pilot order: the
        # learner sorts each training set, so only which rows enter matters.
        outside = np.ones((len(p.folds), len(p.y)), dtype=bool)
        np.put_along_axis(outside, p.folds, False, axis=1)
        rows = np.nonzero(outside)[1].reshape(len(p.folds), -1)
        X.append(p.feats[rows])
        y.append(p.y[rows])
    X, y = np.concatenate(X), np.concatenate(y)
    rngs = [derive_rng(p.seed, 1 + j) for p in plans for j in range(len(p.folds))]
    owners = [i for i, p in enumerate(plans) for _ in p.folds]
    for start in range(0, len(rngs), MAX_STACK):
        stop = start + MAX_STACK
        # Yielded unnamed, so this generator keeps no reference to the stack.
        yield _by_plan(
            owners[start:stop], learner.fit(X[start:stop], y[start:stop], rngs[start:stop])
        )


def _by_plan(owners, models: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(p, models[start:stop])`` for each run of consecutive models of one
    plan."""
    runs, start = [], 0
    for p, run in itertools.groupby(owners):
        stop = start + len(list(run))
        runs.append((p, models[start:stop]))
        start = stop
    return runs


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
    the mass rule, the one model's predictive decides.  The payload is
    featurized once, on construction, and its features (``feats``, as many
    bytes as the complex samples) are kept only while models are pending;
    the counts exist only while models are added.  So a vacuous plan and
    finished sets hold nothing the size of the payload but ``mask``.

    ``diverged`` counts the added models with non-finite weights,
    ``nan_held_out`` the NaN held-out scores, and ``nan_rows`` marks the
    payload rows with a NaN score under any added model (``None`` while
    there is none).  A NaN score ranks as the worst score (``_rank_counts``),
    so NaN held-out scores only widen sets: an all-NaN frame gets full sets.
    A NaN predictive still decides the mass rule arbitrarily (the set {0}),
    which leaves a naive set that looks calibrated and is not.
    """

    def __init__(self, plan: FoldPlan, alpha: float, x, n_labels: int):
        self.plan = plan
        self.alpha = alpha_level(alpha)
        self.threshold_count = rank_threshold(plan.folds.size, self.alpha)
        #: Models still to add; a vacuous plan needs none.
        self.pending = 0 if vacuous(plan, self.alpha) else len(plan.folds)
        self.counts = None
        self.diverged, self.nan_held_out, self.nan_rows = 0, 0, None
        feats = mlp.features(x)
        self.feats = feats if self.pending else None
        self.mask = None if self.pending else np.ones((len(feats), n_labels), dtype=bool)

    def add(self, models) -> None:
        feats = self.feats
        first = len(self.plan.folds) - self.pending
        self.pending -= len(models)
        if not self.pending:
            self.feats = None
        self.diverged += sum(not np.isfinite(model).all() for model in models)
        if not self.plan.folds.size:
            probs = mlp.predictive_stack(models, feats)[:, 0]
            self._note_nan_rows(probs)
            self.mask = naive_mask(probs, self.alpha)
            return
        held_out = _held_out_scores(self.plan, first, models)
        # (payload, labels, models): the candidate scores of ``_rank_counts``.
        scores = mlp.log_losses(models, feats).transpose(0, 2, 1)
        if not np.isfinite(held_out.sum()):
            self.nan_held_out += int(np.isnan(held_out).sum())
        self._note_nan_rows(scores)
        counts = _rank_counts(scores, held_out)
        self.counts = counts if self.counts is None else self.counts + counts
        if not self.pending:
            self.mask, self.counts = self.counts >= self.threshold_count, None

    def _note_nan_rows(self, scores: np.ndarray) -> None:
        # A finite sum has no NaN term.  Testing it first makes no array of
        # flags, the size of the scores, for a frame without NaN.
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
        self.alpha = alpha_level(alpha)
        # A split plan's held-out pilots reach no learner, and are scored
        # only by ``predict_mask``: check their labels now.
        self.n_labels = learner.arch.output_dim
        class_labels(plan.y, self.n_labels)
        self.plan = plan
        self.models = np.concatenate(
            [models for stack in fitted_stacks(learner, [plan]) for _, models in stack]
        )

    def predict_mask(self, x) -> np.ndarray:
        sets = PayloadSets(self.plan, self.alpha, x, self.n_labels)
        if sets.pending:
            sets.add(self.models)
        return sets.mask


class NaiveSetPredictor(_KeptPlan):
    """Probability-mass sets from one model trained on all pilots."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        super().__init__(fold_plan("naive", pilot_x, pilot_y, seed), learner, alpha)


class SplitConformalPredictor(_KeptPlan):
    """Split conformal sets on the one-fold ``"vb"`` plan of ``fold_plan``:
    the rank count over one fold is the same decision as comparing a score
    with the calibrated quantile of the n held-out scores, their ``ceil((1 -
    alpha) (n + 1))``-th smallest (+inf past the last)."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        super().__init__(fold_plan("vb", pilot_x, pilot_y, seed), learner, alpha)


class CrossValConformalPredictor(_KeptPlan):
    """Leave-fold-out conformal sets on the ``"kcv"`` plan of ``fold_plan``
    with ``k`` folds; ``k = None`` (the default) is the leave-one-out
    ``"cv"`` plan."""

    def __init__(
        self, pilot_x, pilot_y, alpha: float, learner, k: int | None = None, seed: int = 0
    ):
        method = "cv" if k is None else "kcv"
        super().__init__(fold_plan(method, pilot_x, pilot_y, seed, k), learner, alpha)
