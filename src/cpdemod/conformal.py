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

Each predictor is three steps.  A plan (``FoldPlan``) says which pilots train
each model and which pilots it scores; it is a pure function of the pilots
and the seed, and the naive plan is one model with nothing held out.
``fit_plans`` fits the models of any number of plans of equal training size
in shared stacks, so the frames of one experiment cell can train together.
``calibrate`` scores the held-out folds and returns the set predictor.  A
plan whose rank threshold is 0 is ``vacuous``: its sets are the full
alphabet, so its models need not be fitted.

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
from .seeding import derive_rng

#: Slack used when comparing accumulated probability mass against a target;
#: absorbs float rounding in sums like 0.7 + 0.2 vs 0.9.
NAIVE_MASS_TOL = 1e-9

#: Most models fitted in one stacked ``learner.fit`` call, from one plan or
#: several.  Larger stacks buy little speed and hold more training state in
#: memory at once.
MAX_STACK = 20


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
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
    y = np.atleast_1d(np.asarray(pilot_y, dtype=np.int64))
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
    k = n if k is None else int(k)
    if not 2 <= k <= n:
        raise ValueError(f"fold count must be in [2, {n}], got {k}")
    if n % k:
        raise ValueError(f"{n} pilots cannot be cut into {k} equal folds")
    folds = order.reshape(k, n // k)
    train = np.array([np.delete(folds, j, axis=0).ravel() for j in range(k)])
    return FoldPlan(feats, y, train, folds, seed)


def fit_plans(learner, plans) -> list[list]:
    """The models of every plan, in plan order.

    All models of all plans train in stacks of at most ``MAX_STACK``, each
    from its own generator, so every model is bit-identical to its lone fit.
    Plans fitted together need equal training sizes.  ``learner.fit`` is the
    only learner call made.
    """
    X = np.concatenate([p.feats[p.train] for p in plans])
    y = np.concatenate([p.y[p.train] for p in plans])
    rngs = [derive_rng(p.seed, 1 + j) for p in plans for j in range(len(p.train))]
    models = []
    for start in range(0, len(rngs), MAX_STACK):
        stop = start + MAX_STACK
        models += learner.fit(X[start:stop], y[start:stop], rngs[start:stop])
    ends = np.cumsum([len(p.train) for p in plans])
    return [models[end - len(p.train) : end] for p, end in zip(plans, ends)]


def vacuous(plan: FoldPlan, alpha: float) -> bool:
    """Whether a plan's sets are the full alphabet whatever its models say.

    True when the plan holds pilots out and their rank threshold is 0
    (fewer than ``1 / alpha - 1`` held-out pilots): no candidate score can
    then fall short of the count, so fitting the plan's models decides
    nothing.  The mass rule of a plan that holds nothing out is never
    vacuous.
    """
    return bool(plan.folds.size) and rank_threshold(plan.folds.size, alpha) == 0


def calibrate(plan: FoldPlan, models, alpha: float, n_labels: int):
    """The set predictor of a plan's fitted models over ``n_labels`` labels:
    the mass rule when the plan holds nothing out, the rank-count rule
    otherwise.  The rank-count predictor scores its held-out folds here,
    once.  A ``vacuous`` plan gets the full-set predictor and its models are
    never read, so they need not be fitted (pass ``None``)."""
    if vacuous(plan, alpha):
        return _FullSetPredictor(n_labels)
    if plan.folds.size:
        return _FoldPlanPredictor(plan, models, alpha)
    return _MassPredictor(plan, models, alpha)


class _FullSetPredictor:
    """Every label for every payload sample: the sets of a vacuous plan."""

    def __init__(self, n_labels: int):
        self.n_labels = n_labels

    def predict_mask(self, x) -> np.ndarray:
        # The payload is still checked: a non-finite sample raises here too.
        return np.ones((len(mlp.features(x)), self.n_labels), dtype=bool)


class _MassPredictor:
    """Probability-mass sets (``naive_mask``) from a plan's one model."""

    def __init__(self, plan: FoldPlan, models, alpha: float):
        self.alpha = _check_alpha(alpha)
        (self.model,) = models

    def predict_mask(self, x) -> np.ndarray:
        probs = mlp.predictive_stack([self.model], mlp.features(x))[:, 0]
        return naive_mask(probs, self.alpha)


class NaiveSetPredictor(_MassPredictor):
    """Probability-mass sets from one model trained on all pilots."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        plan = naive_plan(pilot_x, pilot_y, seed)
        super().__init__(plan, fit_plans(learner, [plan])[0], alpha)


class _FoldPlanPredictor:
    """Conformal sets from a fitted fold plan and the rank-count rule.

    Each model scores its own held-out fold.  A candidate label enters the
    set when at least ``rank_threshold(n_cal, alpha)`` of the ``n_cal``
    held-out pilots score at or above it under their own model.  A threshold
    of 0 admits every label, whatever the scores are.
    """

    def __init__(self, plan: FoldPlan, models, alpha: float):
        self.alpha = _check_alpha(alpha)
        self.folds = list(plan.folds)
        self.models = list(models)
        # Every fold has the same size, so the models score their folds as
        # one stack: (fold size, K, d) rows.
        held = plan.folds
        scores = mlp.log_losses(self.models, plan.feats[held].transpose(1, 0, 2))
        true = np.take_along_axis(scores, plan.y[held].T[:, :, None], axis=-1)[..., 0]
        self.fold_scores = list(true.T)
        self.threshold_count = rank_threshold(held.size, self.alpha)

    @property
    def val_scores(self) -> np.ndarray:
        """Held-out score of every calibration pilot, fold by fold."""
        return np.concatenate(self.fold_scores)

    def predict_mask(self, x) -> np.ndarray:
        scores = mlp.log_losses(self.models, mlp.features(x))
        return _rank_counts(scores.transpose(0, 2, 1), self.fold_scores) >= self.threshold_count


class SplitConformalPredictor(_FoldPlanPredictor):
    """Split conformal: the one-fold plan of ``split_plan``.

    The rank count over one fold is the same decision as comparing a score
    with the calibrated quantile ``empirical_quantile(val_scores, alpha)``.
    With fewer than 9 held-out pilots at alpha = 0.1 the threshold count is 0
    and every set is the full alphabet; the guarantee is kept by refusing to
    rule anything out.  ``calibrate`` does not fit such a plan at all; this
    class still fits its model, as the per-frame reference the fitting-free
    path is checked against.
    """

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        plan = split_plan(pilot_x, pilot_y, seed)
        super().__init__(plan, fit_plans(learner, [plan])[0], alpha)


class CrossValConformalPredictor(_FoldPlanPredictor):
    """Leave-fold-out conformal sets on the plan of ``cross_val_plan``; ``k =
    n`` (the default) is leave-one-out, so every pilot is scored by the model
    that did not see it."""

    def __init__(
        self,
        pilot_x,
        pilot_y,
        alpha: float,
        learner,
        k: int | None = None,
        seed: int = 0,
    ):
        plan = cross_val_plan(pilot_x, pilot_y, k, seed)
        super().__init__(plan, fit_plans(learner, [plan])[0], alpha)
