"""Set-valued demodulators: naive probability-mass sets and conformal sets.

Three calibrated constructions are provided on top of any learner that maps a
pilot set to a predictive distribution:

* split (validation-based) conformal: train once, calibrate a score quantile
  on held-out pilots;
* leave-one-out cross conformal: one model per left-out pilot;
* leave-fold-out (k-fold) cross conformal: one model per left-out fold.

The score of a candidate label is its log loss under the predictive, so lower
means more conforming.  All randomness (splits, fold assignment, training
initialisation) is derived from an explicit integer seed and the pilot
multiset; pilot arrival order never changes any output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import mlp
from .seeding import derive_rng

#: Slack used when comparing accumulated probability mass against a target;
#: absorbs float rounding in sums like 0.7 + 0.2 vs 0.9.
NAIVE_MASS_TOL = 1e-9

#: Most fold models fitted in one stacked ``learner.fit`` call.  Larger stacks
#: buy little speed and hold more training state in memory at once.
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
    exceed for the candidate to enter a cross-conformal set:
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


def nc_score(x: complex, y_label: int, model) -> float:
    """Log loss of a candidate label under the model's predictive."""
    p = mlp.predictive(model, x)[y_label]
    return float(-math.log(max(float(p), mlp.PROB_FLOOR)))


def _score_matrix(model, feats: np.ndarray) -> np.ndarray:
    """(n, labels) log loss of every label for every input row."""
    p = mlp.predictive_batch(model, feats)
    return -np.log(np.maximum(p, mlp.PROB_FLOOR))


def _true_label_scores(model, feats: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _score_matrix(model, feats)[np.arange(len(y)), y]


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


def naive_set_from_probs(probs, alpha: float) -> np.ndarray:
    """Sorted labels of the naive set (see ``naive_mask``) for one probability vector."""
    return np.flatnonzero(naive_mask(probs, alpha))


def naive_set(model, x: complex, alpha: float) -> np.ndarray:
    """Naive probability-mass set for one sample."""
    return naive_set_from_probs(mlp.predictive(model, x), alpha)


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
    counts = (cand <= val[None, :]).sum(axis=1)
    return counts >= rank_threshold(val.size, alpha)


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
    fold assignments are invariant to pilot arrival order.
    """
    base = mlp.canonical_order(feats, y)
    perm = derive_rng(seed, 0).permutation(len(base))
    return base[perm]


class _SetPredictor:
    """Shared conveniences for fitted set-valued predictors."""

    n_labels: int

    def predict_mask(self, x) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def predict_set(self, x: complex) -> np.ndarray:
        """Sorted labels of the prediction set for one sample."""
        return np.flatnonzero(self.predict_mask(np.array([x]))[0])


class NaiveSetPredictor(_SetPredictor):
    """Probability-mass sets from one model trained on all pilots."""

    def __init__(self, pilot_x, pilot_y, alpha: float, learner, seed: int = 0):
        self.alpha = _check_alpha(alpha)
        feats, y = _pilot_arrays(pilot_x, pilot_y)
        self.n_labels = learner.arch.output_dim
        self.model = learner.fit(feats, y, derive_rng(seed, 1))

    def predict_mask(self, x) -> np.ndarray:
        return naive_mask(mlp.predictive_batch(self.model, mlp.features(x)), self.alpha)


class SplitConformalPredictor(_SetPredictor):
    """Train on part of the pilots, calibrate a score quantile on the rest.

    With fewer than 9 held-out pilots at alpha = 0.1 the calibrated quantile
    is infinite and every prediction set is the full alphabet; the guarantee
    is kept by refusing to rule anything out.
    """

    def __init__(
        self,
        pilot_x,
        pilot_y,
        alpha: float,
        learner,
        split_ratio: float = 0.5,
        seed: int = 0,
    ):
        self.alpha = _check_alpha(alpha)
        feats, y = _pilot_arrays(pilot_x, pilot_y)
        n = len(y)
        if n < 2:
            raise ValueError("need at least two pilots to split")
        n_train = math.ceil(split_ratio * n)
        if not 1 <= n_train <= n - 1:
            raise ValueError(
                f"split_ratio={split_ratio!r} leaves an empty partition for {n} pilots"
            )
        order = _calibration_order(feats, y, seed)
        train_idx, val_idx = order[:n_train], order[n_train:]
        self.n_labels = learner.arch.output_dim
        self.model = learner.fit(feats[train_idx], y[train_idx], derive_rng(seed, 1))
        self.val_feats = feats[val_idx]
        self.val_labels = y[val_idx]
        self.val_scores = _true_label_scores(self.model, self.val_feats, self.val_labels)
        self.threshold = empirical_quantile(self.val_scores, self.alpha)

    def predict_mask(self, x) -> np.ndarray:
        return _score_matrix(self.model, mlp.features(x)) <= self.threshold


class CrossValConformalPredictor(_SetPredictor):
    """Leave-fold-out conformal sets; ``k = n`` (the default) is leave-one-out.

    Pilots are put in calibration order, cut into ``k`` contiguous folds of
    equal size, and one model is trained per left-out fold (model ``j`` seeded
    by ``(seed, 1 + j)``); the fold models train together in stacks of at
    most ``MAX_STACK``.  Every pilot is scored by the model that did not
    see it; a candidate label enters the set when the count of pilots scoring
    at or above it reaches ``rank_threshold(n, alpha)``.
    """

    def __init__(
        self,
        pilot_x,
        pilot_y,
        alpha: float,
        learner,
        k: int | None = None,
        seed: int = 0,
    ):
        self.alpha = _check_alpha(alpha)
        feats, y = _pilot_arrays(pilot_x, pilot_y)
        n = len(y)
        if n < 2:
            raise ValueError("need at least two pilots")
        k = n if k is None else int(k)
        if not 2 <= k <= n:
            raise ValueError(f"fold count must be in [2, {n}], got {k}")
        if n % k:
            raise ValueError(f"{n} pilots cannot be cut into {k} equal folds")
        folds = _calibration_order(feats, y, seed).reshape(k, n // k)
        self.folds = list(folds)
        # Row j holds every pilot outside fold j, folds in order.
        keep = np.array([np.delete(folds, j, axis=0).ravel() for j in range(k)])
        self.n_labels = learner.arch.output_dim
        self.models = []
        for start in range(0, k, MAX_STACK):
            block = keep[start : start + MAX_STACK]
            rngs = [derive_rng(seed, 1 + j) for j in range(start, start + len(block))]
            self.models += learner.fit(feats[block], y[block], rngs)
        self.fold_scores = [
            _true_label_scores(model, feats[fold], y[fold])
            for model, fold in zip(self.models, self.folds)
        ]
        self.threshold_count = rank_threshold(n, alpha)

    @property
    def val_scores(self) -> np.ndarray:
        """Held-out score of every pilot, in calibration order."""
        return np.concatenate(self.fold_scores)

    def predict_mask(self, x) -> np.ndarray:
        feats = mlp.features(x)
        counts = np.zeros((len(feats), self.n_labels), dtype=np.int64)
        for model, held_out in zip(self.models, self.fold_scores):
            scores = _score_matrix(model, feats)
            counts += (scores[:, :, None] <= held_out[None, None, :]).sum(axis=2)
        return counts >= self.threshold_count


def vb_predict(
    pilot_x,
    pilot_y,
    x: complex,
    alpha: float,
    learner,
    split_ratio: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Split-conformal prediction set for one sample."""
    pred = SplitConformalPredictor(pilot_x, pilot_y, alpha, learner, split_ratio, seed)
    return pred.predict_set(x)


def cv_predict(pilot_x, pilot_y, x: complex, alpha: float, learner, seed: int = 0) -> np.ndarray:
    """Leave-one-out cross-conformal prediction set for one sample."""
    pred = CrossValConformalPredictor(pilot_x, pilot_y, alpha, learner, None, seed)
    return pred.predict_set(x)


def kcv_predict(
    pilot_x, pilot_y, x: complex, alpha: float, k: int, learner, seed: int = 0
) -> np.ndarray:
    """Leave-fold-out cross-conformal prediction set for one sample."""
    pred = CrossValConformalPredictor(pilot_x, pilot_y, alpha, learner, k, seed)
    return pred.predict_set(x)
