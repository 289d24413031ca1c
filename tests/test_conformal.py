"""Set constructions: rank thresholds, membership rules, the four predictors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdemod import conformal
from cpdemod.channel import QPSK, generate_frame
from cpdemod.conformal import (
    CrossValConformalPredictor,
    NaiveSetPredictor,
    SplitConformalPredictor,
    naive_mask,
    rank_threshold,
)
from cpdemod.mlp import (
    GDLearner,
    ModelArch,
    features,
    log_losses,
    predictive_stack,
)
from helpers import (
    certain_weights,
    fit_one,
    held_out_scores,
    layers,
    quantile_by_counting,
    rank_rule,
    with_constants,
    zero_weights,
)

SNR_5DB = 10.0 ** 0.5
LOG4 = math.log(4.0)
ALL_LABELS = np.arange(4)


def _pilot_frame(n_pilots, seed, n_test=1):
    return generate_frame(n_pilots, n_test, SNR_5DB, QPSK, np.random.default_rng(seed))


def _quick_learner(steps=30):
    return with_constants(GDLearner, steps=steps)(ModelArch())


# ---------------------------------------------------------------- indices


def test_rank_threshold_examples():
    assert rank_threshold(5, 0.1) == 0
    assert rank_threshold(9, 0.1) == 1
    assert rank_threshold(19, 0.05) == 1
    assert rank_threshold(19, 0.1) == 2
    # The float product 0.3 * 10 rounds up to exactly 3.0, but the double 0.3
    # sits below 3/10: the exact count is 2.  Pins the rational arithmetic.
    assert rank_threshold(9, 0.3) == 2


def test_rank_threshold_is_the_rational_floor():
    # The oracle is the rational product on the exact binary value of alpha.
    alphas = [0.1, 0.3, 0.05, 0.2, 0.7, 1 / 3, *np.random.default_rng(29).uniform(0, 1, 200)]
    for alpha in map(float, alphas):
        for n in range(301):
            assert rank_threshold(n, alpha) == math.floor(Fraction(alpha) * (n + 1)), (n, alpha)


def test_index_identity_covers_all_scores():
    # The calibrated quantile's 1-based order statistic, ceil((1 - alpha) *
    # (n + 1)) in exact arithmetic, and the rank threshold split n + 1
    # between them for every (n, alpha).
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 100))
        alpha = float(rng.uniform(0.001, 0.999))
        index = math.ceil((1 - Fraction(alpha)) * (n + 1))
        assert index + rank_threshold(n, alpha) == n + 1


def test_rank_rule_examples():
    # The highest candidate score that enters is the calibrated quantile of
    # the held-out scores; +inf when the threshold is 0.
    for scores, alpha, top in [
        ([1.0, 2.0, 3.0], 0.5, 2.0),
        ([3.0, 1.0, 2.0], 0.5, 2.0),
        ([1.0, 2.0, 3.0], 0.1, math.inf),
        (np.arange(1.0, 20.0), 0.1, 18.0),
        ([], 0.1, math.inf),
    ]:
        candidates = np.array([top - 0.5, top, top + 0.5, math.inf])
        enters = rank_rule(candidates[:, None], [scores], alpha)
        assert np.array_equal(enters, candidates <= top)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_alpha_domain_is_enforced(alpha):
    with pytest.raises(ValueError):
        rank_threshold(5, alpha)
    with pytest.raises(ValueError):
        naive_mask([0.5, 0.5], alpha)


@pytest.mark.parametrize("alpha", ["0.1", True, None])
def test_alpha_must_be_a_real_number(alpha):
    # float("0.1") would accept a string, and float(True) is 1.0.
    with pytest.raises(ValueError, match="^alpha must be a real number"):
        rank_threshold(10, alpha)
    with pytest.raises(ValueError, match="^alpha must be a real number"):
        naive_mask([[0.25, 0.25, 0.25, 0.25]], alpha)


@pytest.mark.parametrize("n_scores", [2.5, True, "3", None])
def test_score_counts_must_be_integers(n_scores):
    # rank_threshold(2.5, 0.5) and rank_threshold(True, 0.5) read 1.
    with pytest.raises(ValueError, match="^n_scores must be an integer"):
        rank_threshold(n_scores, 0.5)


def test_score_counts_must_not_be_negative():
    # rank_threshold(-3, 0.1) read -1.
    with pytest.raises(ValueError, match="^n_scores must be at least 0, got -3$"):
        rank_threshold(-3, 0.1)
    assert rank_threshold(np.int64(9), 0.1) == rank_threshold(9, 0.1) == 1
    assert rank_threshold(np.uint8(0), 0.1) == rank_threshold(0, 0.1) == 0


def test_empirical_quantile_against_counting_oracle():
    # Independent characterisation: the highest candidate that enters the
    # rank rule is the smallest score with at least (1 - alpha) * (n + 1)
    # scores at or below it, in exact arithmetic; a candidate at, between or
    # beyond normal and tied scores enters exactly when it is at most that.
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        alpha = float(rng.uniform(0.01, 0.99))
        if rng.integers(0, 2):
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 4, size=n).astype(float)
        candidates = np.concatenate(
            [scores, scores - 0.25, scores + 0.25, [-math.inf, math.inf]]
        )
        enters = rank_rule(candidates[:, None], [scores], alpha)
        assert np.array_equal(enters, candidates <= quantile_by_counting(scores, alpha))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.01, 0.99),
)
def test_quantile_and_rank_rules_agree(n, seed, alpha):
    # Comparing against the calibrated quantile and counting scores at or
    # above the candidate are the same decision, ties included.
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 6, size=n).astype(float)
    candidate = float(rng.integers(-1, 8)) / (2.0 if rng.integers(0, 2) else 1.0)
    via_quantile = candidate <= quantile_by_counting(scores, alpha)
    via_rank = bool(rank_rule([[candidate]], [scores], alpha)[0])
    assert via_quantile == via_rank


# ---------------------------------------------------------------- scores


def test_nc_score_uniform_model():
    uniform = zero_weights(ModelArch())[None, None]
    assert log_losses(uniform, features(0.2 + 0.1j))[0, 0, 3] == (
        pytest.approx(LOG4, abs=1e-12)
    )


def test_nc_score_certain_model():
    arch = ModelArch()
    sure = certain_weights(arch, 2)[None, None]
    scores = log_losses(sure, features(0.5 - 0.5j))[0, 0]
    assert scores[2] == 0.0
    # Wrong label under a certain model hits the probability floor.
    assert scores[0] == pytest.approx(27.631021115928547, abs=1e-9)


# ---------------------------------------------------------------- naive sets


def test_naive_set_takes_smallest_sufficient_head():
    out = np.flatnonzero(naive_mask([0.7, 0.2, 0.06, 0.04], alpha=0.1))
    assert np.array_equal(out, [0, 1])


def test_naive_set_uniform_needs_everything():
    out = np.flatnonzero(naive_mask([0.25, 0.25, 0.25, 0.25], alpha=0.1))
    assert np.array_equal(out, ALL_LABELS)


def test_naive_set_exact_boundary_mass_counts():
    # 0.7 must satisfy a 0.7 target despite float accumulation.
    out = np.flatnonzero(naive_mask([0.7, 0.2, 0.06, 0.04], alpha=0.3))
    assert np.array_equal(out, [0])


def test_naive_set_tie_prefers_smaller_label():
    out = np.flatnonzero(naive_mask([0.4, 0.4, 0.2], alpha=0.6))
    assert np.array_equal(out, [0])


def test_naive_set_certain_model_is_singleton():
    sure = certain_weights(ModelArch(), 1)[None, None]
    probs = predictive_stack(sure, features(1j))[:, 0]
    assert np.array_equal(np.flatnonzero(naive_mask(probs, 0.1)[0]), [1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_naive_set_shrinks_as_alpha_grows(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(4))
    lo, hi = np.sort(rng.uniform(0.01, 0.99, size=2))
    assert np.all(naive_mask(probs, float(lo)) | ~naive_mask(probs, float(hi)))


def _naive_row_oracle(probs, alpha):
    # Walk labels by decreasing probability (ties: smaller label first) until
    # the accumulated mass reaches the target.
    mask = np.zeros(len(probs), dtype=bool)
    mass = 0.0
    for label in sorted(range(len(probs)), key=lambda l: (-probs[l], l)):
        mask[label] = True
        mass += probs[label]
        if mass + conformal.NAIVE_MASS_TOL >= 1.0 - alpha:
            break
    return mask


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6])
def test_naive_mask_matches_row_by_row_oracle(alpha):
    rng = np.random.default_rng(31)
    probs = np.vstack(
        [
            rng.dirichlet(np.ones(4), size=500),
            rng.dirichlet(np.full(4, 0.2), size=500),
            [[0.7, 0.2, 0.06, 0.04], [0.25] * 4, [0.4, 0.4, 0.1, 0.1], [0.1, 0.4, 0.1, 0.4]],
            [[0.0, 1.0, 0.0, 0.0], [0.35, 0.35, 0.3, 0.0], [0.2, 0.2, 0.3, 0.3]],
        ]
    )
    expected = np.array([_naive_row_oracle(row, alpha) for row in probs])
    assert np.array_equal(naive_mask(probs, alpha), expected)


# ---------------------------------------------------------------- split CP


def test_split_small_calibration_set_gives_full_sets():
    # 5 held-out scores cannot support a 90% quantile, so nothing is excluded.
    frame = _pilot_frame(10, seed=1)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=3
    )
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 0
    assert np.array_equal(np.flatnonzero(pred.predict_mask([0.3 + 0.3j])[0]), ALL_LABELS)


def test_vacuous_plans_are_those_with_a_zero_rank_threshold():
    frame = _pilot_frame(10, seed=1)
    x, y = frame.pilot_x, frame.pilot_y
    assert conformal.vacuous(conformal.fold_plan("vb", x, y), 0.1)  # floor(0.1 * 6) = 0
    assert not conformal.vacuous(conformal.fold_plan("vb", x, y), 0.2)  # floor(0.2 * 6) = 1
    assert not conformal.vacuous(conformal.fold_plan("cv", x, y), 0.1)  # floor(0.1 * 11) = 1
    assert conformal.vacuous(conformal.fold_plan("kcv", x, y, k=5), 0.05)  # floor(0.05 * 11) = 0
    assert not conformal.vacuous(conformal.fold_plan("naive", x, y), 0.1)
    # A vacuous plan's sets need no model, but its payload is still checked.
    plan = conformal.fold_plan("vb", x, y)
    mask = conformal.PayloadSets(plan, 0.1, [0.3 + 0.3j, -1j], len(ALL_LABELS)).mask
    assert mask.dtype == bool and mask.shape == (2, len(ALL_LABELS)) and mask.all()
    with pytest.raises(ValueError, match="finite"):
        conformal.PayloadSets(plan, 0.1, [0.3, np.nan], len(ALL_LABELS))


def test_split_validation_points_cover_themselves():
    # 9 held-out scores need one at or above a candidate's, so every held-out
    # pilot's own label, which its own score meets, must be in the set at
    # its location.
    frame = _pilot_frame(18, seed=2)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=4
    )
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 1
    held_out = pred.plan.folds[0]
    mask = pred.predict_mask(frame.pilot_x[held_out])
    assert mask[np.arange(len(held_out)), frame.pilot_y[held_out]].all()


def test_split_mask_matches_rank_rule():
    frame = _pilot_frame(18, seed=5)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=6
    )
    rng = np.random.default_rng(7)
    xs = rng.normal(size=5) + 1j * rng.normal(size=5)
    masks = pred.predict_mask(xs)
    val_scores = held_out_scores(pred).ravel()
    need = math.floor(Fraction(0.1) * (val_scores.size + 1))
    scores = log_losses(pred.models[:1], features(xs))[:, 0]
    counts = (val_scores >= scores[..., None]).sum(axis=-1)
    assert np.array_equal(masks, counts >= need)
    # The reference form of the one-fold rule: compare with the quantile.
    assert np.array_equal(masks, scores <= quantile_by_counting(val_scores, 0.1))


@pytest.mark.parametrize("n,expected_val", [(10, 5), (11, 5), (18, 9)])
def test_split_partition_sizes(n, expected_val):
    frame = _pilot_frame(n, seed=8)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=9
    )
    assert len(pred.models) == len(pred.plan.folds) == 1
    assert len(pred.plan.folds[0]) == expected_val
    assert len(held_out_scores(pred).ravel()) == expected_val


# ---------------------------------------------------------------- cross CP


def test_cross_tiny_calibration_set_gives_full_sets():
    # floor(0.1 * 6) = 0 calibration points are required, so every label is in.
    frame = _pilot_frame(5, seed=11)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=12
    )
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 0
    assert np.all(pred.predict_mask(np.array([0.1 + 0.1j, -1.0 - 1.0j])))


class _DivergedLearner:
    """Learner whose training always diverges: every weight is NaN."""

    arch = ModelArch()

    def fit(self, X, y, rng):
        return np.full((len(rng), 1, zero_weights(self.arch).size), np.nan)


@pytest.mark.parametrize(
    "n,build",
    [
        (10, lambda x, y, l: SplitConformalPredictor(x, y, 0.1, l, seed=32)),
        (5, lambda x, y, l: CrossValConformalPredictor(x, y, 0.1, l, None, 32)),
    ],
    ids=["vb", "cv"],
)
def test_vacuous_threshold_admits_every_label_even_from_a_diverged_model(n, build):
    # A threshold count of 0 asks for no calibration score at all, so NaN
    # scores from a diverged model must still yield the full alphabet.
    frame = _pilot_frame(n, seed=33, n_test=7)
    pred = build(frame.pilot_x, frame.pilot_y, _DivergedLearner())
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 0
    assert np.isnan(held_out_scores(pred).ravel()).all()
    assert np.all(pred.predict_mask(frame.test_x))


def test_cross_threshold_count_value():
    frame = _pilot_frame(9, seed=13)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=14
    )
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 1
    assert held_out_scores(pred).ravel().size == 9


def test_rank_rule_matches_direct_count():
    # Leave-one-out tables: cand[l, i] is label l's score under the model
    # that left out pilot i, val[i] that pilot's own score.
    rng = np.random.default_rng(15)
    for _ in range(50):
        n_labels = int(rng.integers(2, 6))
        n = int(rng.integers(3, 30))
        alpha = float(rng.uniform(0.02, 0.5))
        cand = rng.integers(0, 5, size=(n_labels, n)).astype(float)
        val = rng.integers(0, 5, size=n).astype(float)
        got = rank_rule(cand, val[:, None], alpha)
        need = math.floor(Fraction(alpha) * (n + 1))
        for l in range(n_labels):
            count = sum(1 for i in range(n) if cand[l, i] <= val[i])
            assert got[l] == (count >= need)


def test_rank_counts_match_the_comparison_oracle_with_ties_and_nan():
    # searchsorted over sorted folds must count exactly what comparing every
    # pair counts, with NaN ranking above every number, +inf included: a NaN
    # held-out score counts for every candidate, a NaN candidate only for NaN.
    rng = np.random.default_rng(44)
    values = np.array([0.0, 1.0, 1.0, 2.5, np.inf, np.nan])
    for _ in range(200):
        k, f = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        held = rng.choice(values, size=(k, f))
        scores = rng.choice(values, size=(3, 4, k))
        want = sum(
            (np.isnan(held[j]) | (scores[..., j, None] <= held[j])).sum(-1) for j in range(k)
        )
        assert np.array_equal(conformal._rank_counts(scores, held), want)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_a_nan_held_out_score_never_removes_a_label(seed, alpha):
    # NaN ranks as the worst score, so turning any held-out score into NaN
    # never lowers a rank count, and the threshold counts the score either way.
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 1.0, 1.0, 2.5, np.inf, np.nan])
    k, f = int(rng.integers(1, 6)), int(rng.integers(1, 8))
    held = rng.choice(values, size=(k, f))
    scores = rng.choice(values, size=(3, 4, k))
    nan = held.copy()
    nan[rng.integers(k), rng.integers(f)] = np.nan
    assert np.all(conformal._rank_counts(scores, nan) >= conformal._rank_counts(scores, held))
    # The same on the sets: the rank threshold depends on the score count
    # alone, so no label leaves a set.
    assert np.all(rank_rule(scores, nan, alpha) | ~rank_rule(scores, held, alpha))


class _CentroidLearner:
    """Cheap deterministic learner: nearest-centroid logits as a ReLU network.

    The logit of label l is ``(2 c_l . x - |c_l|^2) / temperature``, the
    negative squared distance to the label's training centroid ``c_l`` up to
    a term shared by all labels.  The first hidden layer splits x into
    positive and negative parts and the next two pass them through.
    """

    arch = ModelArch()
    #: Set as ``ModelArch.hidden`` while the learner is in use.
    hidden = (4, 4, 4)
    temperature = 0.5

    def _model(self, X, y) -> np.ndarray:
        centroids = np.array([X[y == l].mean(axis=0) if (y == l).any() else [0.0, 0.0]
                              for l in range(4)])
        split = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out = 2.0 * centroids @ split.T / self.temperature
        bias = -(centroids**2).sum(axis=1) / self.temperature
        net = zero_weights(self.arch)
        ws, bs = layers(net)
        for w, value in zip(ws, [split, np.eye(4), np.eye(4), out]):
            w[...] = value
        bs[-1][...] = bias
        return net[None]

    def fit(self, X, y, rng):
        return np.array([self._model(a, b) for a, b in zip(X, y)])


def _exchangeable_coverage(alpha, trials=300, n_pilots=19, n_test=10):
    """Pooled coverage of leave-one-out cross-conformal sets over ``trials``
    independent draws of i.i.d. pilots and payload from noisy QPSK."""
    rng = np.random.default_rng(2015)
    hits = 0
    for trial in range(trials):
        labels = rng.integers(0, 4, size=n_pilots + n_test)
        noise = rng.normal(scale=0.6, size=(n_pilots + n_test, 2))
        x = QPSK[labels] + noise[:, 0] + 1j * noise[:, 1]
        pred = CrossValConformalPredictor(
            x[:n_pilots], labels[:n_pilots], alpha, _CentroidLearner(), None, trial
        )
        mask = pred.predict_mask(x[n_pilots:])
        hits += int(mask[np.arange(n_test), labels[n_pilots:]].sum())
    return hits / (trials * n_test)


def test_cross_conformal_coverage_bound_on_exchangeable_data(monkeypatch):
    # Leave-one-out cross-conformal sets cover at least 1 - 2 alpha (Vovk,
    # "Cross-conformal predictors", 2015; Barber et al., jackknife+, 2021);
    # --alpha-halving runs cv at alpha / 2, which restores 1 - alpha.  Each
    # estimate pools 3000 payload points over 300 independent pilot draws.
    monkeypatch.setattr(ModelArch, "hidden", _CentroidLearner.hidden)
    alpha = 0.1
    assert _exchangeable_coverage(alpha) >= 1 - 2 * alpha
    assert _exchangeable_coverage(alpha / 2) >= 1 - alpha


def test_kfold_equals_leave_one_out_when_k_is_n():
    frame = _pilot_frame(6, seed=16, n_test=8)
    learner = _quick_learner()
    loo = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, None, 17)
    kn = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, 6, 17)
    assert np.array_equal(held_out_scores(loo).ravel(), held_out_scores(kn).ravel())
    assert np.array_equal(loo.predict_mask(frame.test_x), kn.predict_mask(frame.test_x))


def test_kfold_fold_structure():
    frame = _pilot_frame(10, seed=18)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), 2, seed=19
    )
    assert len(pred.plan.folds) == 2
    assert len(pred.models) == 2
    assert all(len(f) == 5 for f in pred.plan.folds)
    assert sorted(np.concatenate(pred.plan.folds).tolist()) == list(range(10))
    assert rank_threshold(pred.plan.folds.size, pred.alpha) == 1  # floor(0.1 * 11)


def test_kfold_rejects_bad_fold_counts():
    frame = _pilot_frame(10, seed=20)
    learner = _quick_learner()
    for bad_k in (1, 3, 11):
        with pytest.raises(ValueError):
            CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, bad_k)
    with pytest.raises(ValueError):
        CrossValConformalPredictor(frame.pilot_x[:1], frame.pilot_y[:1], 0.1, learner)


def test_an_unknown_method_is_named():
    frame = _pilot_frame(10, seed=20)
    with pytest.raises(ValueError, match="^unknown method 'loo'$"):
        conformal.fold_plan("loo", frame.pilot_x, frame.pilot_y)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_fold_count_must_be_an_integer(k):
    # int() would cut 2.5 folds into 2, and True into 1; a kcv plan has no
    # default fold count.
    frame = _pilot_frame(10, seed=20)
    with pytest.raises(ValueError, match="^k must be an integer"):
        conformal.fold_plan("kcv", frame.pilot_x, frame.pilot_y, k=k)
    assert len(conformal.fold_plan("kcv", frame.pilot_x, frame.pilot_y, k=np.int64(2)).folds) == 2


def test_calibrated_predictors_ignore_pilot_order():
    frame = _pilot_frame(12, seed=21, n_test=6)
    perm = np.random.default_rng(22).permutation(12)
    learner = _quick_learner()
    for build in (
        lambda x, y: SplitConformalPredictor(x, y, 0.1, learner, seed=23),
        lambda x, y: CrossValConformalPredictor(x, y, 0.1, learner, None, 23),
        lambda x, y: CrossValConformalPredictor(x, y, 0.1, learner, 4, 23),
    ):
        base = build(frame.pilot_x, frame.pilot_y)
        shuffled = build(frame.pilot_x[perm], frame.pilot_y[perm])
        assert np.array_equal(held_out_scores(base).ravel(), held_out_scores(shuffled).ravel())
        assert np.array_equal(
            base.predict_mask(frame.test_x), shuffled.predict_mask(frame.test_x)
        )


def test_all_methods_nest_in_alpha():
    frame = _pilot_frame(20, seed=24, n_test=10)
    learner = _quick_learner(steps=40)
    builders = {
        "naive": lambda a: NaiveSetPredictor(frame.pilot_x, frame.pilot_y, a, learner, 25),
        "split": lambda a: SplitConformalPredictor(
            frame.pilot_x, frame.pilot_y, a, learner, seed=25
        ),
        "loo": lambda a: CrossValConformalPredictor(
            frame.pilot_x, frame.pilot_y, a, learner, None, 25
        ),
        "kfold": lambda a: CrossValConformalPredictor(
            frame.pilot_x, frame.pilot_y, a, learner, 5, 25
        ),
    }
    for name, build in builders.items():
        wide = build(0.05).predict_mask(frame.test_x)
        narrow = build(0.2).predict_mask(frame.test_x)
        assert np.all(wide | ~narrow), f"{name} sets are not nested across alpha"


def test_naive_predictor_uses_one_model_on_all_pilots():
    frame = _pilot_frame(10, seed=28)
    learner = _quick_learner()
    pred = NaiveSetPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, seed=29)
    x = 0.2 + 0.2j
    direct = naive_mask(predictive_stack(pred.models[:1], features(x))[:, 0], 0.1)
    assert np.array_equal(pred.predict_mask([x]), direct)
    assert pred.models.shape == (1, *fit_one(
        learner, np.zeros((2, 2)), np.array([0, 1]), np.random.default_rng(0)
    ).shape)


_BUILDERS = {
    "naive": lambda x, y: NaiveSetPredictor(x, y, 0.1, _quick_learner(5), 41),
    "vb": lambda x, y: SplitConformalPredictor(x, y, 0.1, _quick_learner(5), seed=41),
    "cv": lambda x, y: CrossValConformalPredictor(x, y, 0.1, _quick_learner(5), None, 41),
    "kcv": lambda x, y: CrossValConformalPredictor(x, y, 0.1, _quick_learner(5), 5, 41),
}


@pytest.mark.parametrize("method", sorted(_BUILDERS))
def test_non_finite_pilot_or_payload_samples_are_rejected(method):
    # A NaN sample scores NaN against every label; it must fail loudly, not
    # turn into a silently empty or full set.
    frame = _pilot_frame(10, seed=40, n_test=3)
    pilots = frame.pilot_x.copy()
    pilots[4] = complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="finite"):
        _BUILDERS[method](pilots, frame.pilot_y)
    pred = _BUILDERS[method](frame.pilot_x, frame.pilot_y)
    for bad in (complex(np.nan, 1.0), complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            pred.predict_mask(np.array([0.5 + 0.5j, bad]))


@pytest.mark.parametrize("method", sorted(_BUILDERS))
def test_unequal_pilot_arrays_and_too_few_pilots_are_rejected(method):
    frame = _pilot_frame(10, seed=10)
    with pytest.raises(ValueError, match="matching lengths"):
        _BUILDERS[method](frame.pilot_x, frame.pilot_y[:-1])
    if method != "naive":
        with pytest.raises(ValueError, match="two pilots"):
            _BUILDERS[method](frame.pilot_x[:1], frame.pilot_y[:1])


@pytest.mark.parametrize("method", sorted(_BUILDERS))
def test_pilot_labels_must_be_integers_in_range(method):
    frame = _pilot_frame(10, seed=10)
    with pytest.raises(ValueError, match="labels must be integers"):
        _BUILDERS[method](frame.pilot_x, frame.pilot_y + 0.7)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            _BUILDERS[method](frame.pilot_x, np.full(10, bad))


def test_held_out_labels_out_of_range_are_rejected():
    # The split plan's held-out pilots never reach the learner, so their
    # labels are checked where they index the scores: -1 would score as the
    # last label.
    frame = _pilot_frame(18, seed=2)
    (fold,) = conformal.fold_plan("vb", frame.pilot_x, frame.pilot_y, seed=4).folds
    y = frame.pilot_y.copy()
    y[fold] = -1
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
        SplitConformalPredictor(frame.pilot_x, y, 0.1, _quick_learner(), seed=4)


_SEEDED = {
    "fold_plan_naive": lambda x, y, seed: conformal.fold_plan("naive", x, y, seed),
    "fold_plan_vb": lambda x, y, seed: conformal.fold_plan("vb", x, y, seed),
    "fold_plan_kcv": lambda x, y, seed: conformal.fold_plan("kcv", x, y, seed, 5),
    "naive": lambda x, y, seed: NaiveSetPredictor(x, y, 0.1, _quick_learner(1), seed),
    "vb": lambda x, y, seed: SplitConformalPredictor(x, y, 0.1, _quick_learner(1), seed),
    "kcv": lambda x, y, seed: CrossValConformalPredictor(x, y, 0.1, _quick_learner(1), 5, seed),
}


@pytest.mark.parametrize("make", sorted(_SEEDED))
@pytest.mark.parametrize("seed", [1.5, 2.9, True, "7"])
def test_plan_seeds_must_be_integers(make, seed):
    # A vb plan seeded 1.5 ran as seed 1, one seeded "7" as seed 7, and a kcv
    # predictor seeded 2.9 gave seed 2's masks.
    frame = _pilot_frame(10, seed=42)
    with pytest.raises(ValueError, match="^seed must be an integer"):
        _SEEDED[make](frame.pilot_x, frame.pilot_y, seed)


def test_integer_plan_seeds_keep_their_bits():
    frame = _pilot_frame(10, seed=42)
    for seed in (7, -3):
        want = conformal.fold_plan("kcv", frame.pilot_x, frame.pilot_y, seed, 5)
        for same in (np.int64(seed), np.int32(seed)):
            got = conformal.fold_plan("kcv", frame.pilot_x, frame.pilot_y, same, 5)
            assert np.array_equal(got.folds, want.folds)
            assert got.seed == seed and type(got.seed) is int
    # A negative seed is folded into the 64-bit ring, as ``hash64`` documents.
    folded = conformal.fold_plan("vb", frame.pilot_x, frame.pilot_y, np.uint64(2**64 - 3))
    negative = conformal.fold_plan("vb", frame.pilot_x, frame.pilot_y, -3)
    assert np.array_equal(folded.folds, negative.folds)
    positive = conformal.fold_plan("vb", frame.pilot_x, frame.pilot_y, 3)
    assert not np.array_equal(positive.folds, negative.folds)


def test_ensemble_learner_plugs_into_conformal():
    # Smoke test: the Bayesian learner's ensembles ride the same interfaces.
    from cpdemod.mlp import SGLDLearner

    frame = _pilot_frame(6, seed=30)
    learner = with_constants(SGLDLearner, burn_in=5, ensemble_size=4)(ModelArch())
    pred = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, None, 31)
    assert pred.models.shape == (6, 4, 660)
    mask = pred.predict_mask(np.array([0.5 + 0.5j]))
    assert mask.shape == (1, 4)
