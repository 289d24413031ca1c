"""Set constructions: quantile indices, membership rules, the four predictors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdemod import conformal
from cpdemod.channel import generate_frame, make_qpsk
from cpdemod.conformal import (
    CrossValConformalPredictor,
    NaiveSetPredictor,
    SplitConformalPredictor,
    cv_membership,
    cv_predict,
    empirical_quantile,
    kcv_predict,
    naive_set,
    naive_set_from_probs,
    nc_score,
    quantile_index,
    rank_threshold,
    vb_predict,
)
from cpdemod.mlp import Ensemble, GDLearner, ModelArch
from helpers import certain_weights, zero_weights

SNR_5DB = 10.0 ** 0.5
LOG4 = math.log(4.0)
ALL_LABELS = np.arange(4)


def _pilot_frame(n_pilots, seed, n_test=1):
    return generate_frame(n_pilots, n_test, SNR_5DB, make_qpsk(), np.random.default_rng(seed))


def _quick_learner(steps=30):
    return GDLearner(ModelArch(), steps=steps)


# ---------------------------------------------------------------- indices


def test_quantile_index_examples():
    assert quantile_index(3, 0.5) == 2
    assert quantile_index(3, 0.1) == 4  # past the last score
    # 0.9 * 20 lands at 18.000000000000004 in floats; the exact value of the
    # double 0.1 is slightly above 1/10, so the true index is 18, not 19.
    assert quantile_index(19, 0.1) == 18
    assert quantile_index(9, 0.05) == 10
    # The double 0.3 sits below 3/10, so the exact index is 8 even though
    # decimal arithmetic says ceil(0.7 * 10) = 7.
    assert quantile_index(9, 0.3) == 8


def test_rank_threshold_examples():
    assert rank_threshold(5, 0.1) == 0
    assert rank_threshold(9, 0.1) == 1
    assert rank_threshold(19, 0.05) == 1
    assert rank_threshold(19, 0.1) == 2
    # The float product 0.3 * 10 rounds up to exactly 3.0, but the double 0.3
    # sits below 3/10: the exact count is 2.  Pins the rational arithmetic.
    assert rank_threshold(9, 0.3) == 2


def test_index_identity_covers_all_scores():
    # The two index rules must split n + 1 between them for every (n, alpha).
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 100))
        alpha = float(rng.uniform(0.001, 0.999))
        assert quantile_index(n, alpha) + rank_threshold(n, alpha) == n + 1


def test_empirical_quantile_examples():
    assert empirical_quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    assert empirical_quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert empirical_quantile([1.0, 2.0, 3.0], 0.1) == math.inf
    assert empirical_quantile(np.arange(1.0, 20.0), 0.1) == 18.0
    assert empirical_quantile([], 0.1) == math.inf


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_alpha_domain_is_enforced(alpha):
    with pytest.raises(ValueError):
        quantile_index(5, alpha)
    with pytest.raises(ValueError):
        rank_threshold(5, alpha)
    with pytest.raises(ValueError):
        empirical_quantile([1.0, 2.0], alpha)
    with pytest.raises(ValueError):
        naive_set_from_probs([0.5, 0.5], alpha)


def test_empirical_quantile_against_counting_oracle():
    # Independent characterisation: the quantile is the smallest score with at
    # least (1 - alpha) * (n + 1) scores at or below it, in exact arithmetic.
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        alpha = float(rng.uniform(0.01, 0.99))
        if rng.integers(0, 2):
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 4, size=n).astype(float)
        need = (1 - Fraction(alpha)) * (n + 1)
        expected = math.inf
        for q in np.sort(scores):
            if np.count_nonzero(scores <= q) >= need:
                expected = float(q)
                break
        assert empirical_quantile(scores, alpha) == expected


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
    via_quantile = candidate <= empirical_quantile(scores, alpha)
    via_rank = bool(cv_membership(np.full((1, n), candidate), scores, alpha)[0])
    assert via_quantile == via_rank


# ---------------------------------------------------------------- scores


def test_nc_score_uniform_model():
    assert nc_score(0.2 + 0.1j, 3, zero_weights(ModelArch())) == pytest.approx(
        LOG4, abs=1e-12
    )


def test_nc_score_certain_model():
    arch = ModelArch()
    sure = certain_weights(arch, 2)
    assert nc_score(0.5 - 0.5j, 2, sure) == 0.0
    # Wrong label under a certain model hits the probability floor.
    assert nc_score(0.5 - 0.5j, 0, sure) == pytest.approx(27.631021115928547, abs=1e-9)


# ---------------------------------------------------------------- naive sets


def test_naive_set_takes_smallest_sufficient_head():
    out = naive_set_from_probs([0.7, 0.2, 0.06, 0.04], alpha=0.1)
    assert np.array_equal(out, [0, 1])


def test_naive_set_uniform_needs_everything():
    out = naive_set_from_probs([0.25, 0.25, 0.25, 0.25], alpha=0.1)
    assert np.array_equal(out, ALL_LABELS)


def test_naive_set_exact_boundary_mass_counts():
    # 0.7 must satisfy a 0.7 target despite float accumulation.
    out = naive_set_from_probs([0.7, 0.2, 0.06, 0.04], alpha=0.3)
    assert np.array_equal(out, [0])


def test_naive_set_tie_prefers_smaller_label():
    out = naive_set_from_probs([0.4, 0.4, 0.2], alpha=0.6)
    assert np.array_equal(out, [0])


def test_naive_set_certain_model_is_singleton():
    assert np.array_equal(naive_set(certain_weights(ModelArch(), 1), 1j, 0.1), [1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_naive_set_shrinks_as_alpha_grows(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(4))
    lo, hi = np.sort(rng.uniform(0.01, 0.99, size=2))
    assert set(naive_set_from_probs(probs, float(hi))) <= set(
        naive_set_from_probs(probs, float(lo))
    )


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
    assert np.array_equal(conformal.naive_mask(probs, alpha), expected)


# ---------------------------------------------------------------- split CP


def test_split_small_calibration_set_gives_full_sets():
    # 5 held-out scores cannot support a 90% quantile, so nothing is excluded.
    frame = _pilot_frame(10, seed=1)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=3
    )
    assert math.isinf(pred.threshold)
    assert np.array_equal(pred.predict_set(0.3 + 0.3j), ALL_LABELS)


def test_split_validation_points_cover_themselves():
    # 9 held-out scores put the quantile at their maximum, so every held-out
    # pilot's own label must be in the set at its location.
    frame = _pilot_frame(18, seed=2)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=4
    )
    assert pred.threshold == pred.val_scores.max()
    for i in range(len(pred.val_labels)):
        x = complex(pred.val_feats[i, 0], pred.val_feats[i, 1])
        assert pred.val_labels[i] in pred.predict_set(x)


def test_split_mask_matches_rank_rule():
    frame = _pilot_frame(18, seed=5)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=6
    )
    rng = np.random.default_rng(7)
    xs = rng.normal(size=5) + 1j * rng.normal(size=5)
    masks = pred.predict_mask(xs)
    n_val = pred.val_scores.size
    for i, x in enumerate(xs):
        row = np.array([nc_score(x, l, pred.model) for l in range(4)])
        table = np.repeat(row[:, None], n_val, axis=1)
        assert np.array_equal(masks[i], cv_membership(table, pred.val_scores, 0.1))


@pytest.mark.parametrize("n,expected_val", [(10, 5), (11, 5), (18, 9)])
def test_split_partition_sizes(n, expected_val):
    frame = _pilot_frame(n, seed=8)
    pred = SplitConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=9
    )
    assert len(pred.val_labels) == expected_val
    assert len(pred.val_scores) == expected_val


def test_split_rejects_degenerate_partitions():
    frame = _pilot_frame(10, seed=10)
    learner = _quick_learner()
    with pytest.raises(ValueError):
        SplitConformalPredictor(frame.pilot_x[:1], frame.pilot_y[:1], 0.1, learner)
    with pytest.raises(ValueError):
        SplitConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, split_ratio=0.0)
    with pytest.raises(ValueError):
        SplitConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, split_ratio=1.0)
    with pytest.raises(ValueError):
        SplitConformalPredictor(frame.pilot_x, frame.pilot_y[:-1], 0.1, learner)


# ---------------------------------------------------------------- cross CP


def test_cross_tiny_calibration_set_gives_full_sets():
    # floor(0.1 * 6) = 0 calibration points are required, so every label is in.
    frame = _pilot_frame(5, seed=11)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=12
    )
    assert pred.threshold_count == 0
    assert np.all(pred.predict_mask(np.array([0.1 + 0.1j, -1.0 - 1.0j])))


def test_cross_threshold_count_value():
    frame = _pilot_frame(9, seed=13)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), seed=14
    )
    assert pred.threshold_count == 1
    assert pred.val_scores.size == 9


def test_cv_membership_matches_direct_count():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n_labels = int(rng.integers(2, 6))
        n = int(rng.integers(3, 30))
        alpha = float(rng.uniform(0.02, 0.5))
        cand = rng.integers(0, 5, size=(n_labels, n)).astype(float)
        val = rng.integers(0, 5, size=n).astype(float)
        got = cv_membership(cand, val, alpha)
        need = math.floor(Fraction(alpha) * (n + 1))
        for l in range(n_labels):
            count = sum(1 for i in range(n) if cand[l, i] <= val[i])
            assert got[l] == (count >= need)


def test_cv_membership_validates_shapes():
    with pytest.raises(ValueError):
        cv_membership(np.zeros(4), np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        cv_membership(np.zeros((2, 3)), np.zeros(4), 0.1)


def test_kfold_equals_leave_one_out_when_k_is_n():
    frame = _pilot_frame(6, seed=16, n_test=8)
    learner = _quick_learner()
    loo = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, None, 17)
    kn = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, 6, 17)
    assert np.array_equal(loo.val_scores, kn.val_scores)
    assert np.array_equal(loo.predict_mask(frame.test_x), kn.predict_mask(frame.test_x))


def test_kfold_fold_structure():
    frame = _pilot_frame(10, seed=18)
    pred = CrossValConformalPredictor(
        frame.pilot_x, frame.pilot_y, 0.1, _quick_learner(), 2, seed=19
    )
    assert len(pred.folds) == 2
    assert len(pred.models) == 2
    assert all(len(f) == 5 for f in pred.folds)
    assert sorted(np.concatenate(pred.folds).tolist()) == list(range(10))
    assert pred.threshold_count == 1  # floor(0.1 * 11)


def test_kfold_rejects_bad_fold_counts():
    frame = _pilot_frame(10, seed=20)
    learner = _quick_learner()
    for bad_k in (1, 3, 11):
        with pytest.raises(ValueError):
            CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, bad_k)
    with pytest.raises(ValueError):
        CrossValConformalPredictor(frame.pilot_x[:1], frame.pilot_y[:1], 0.1, learner)


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
        assert np.array_equal(base.val_scores, shuffled.val_scores)
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


def test_functional_wrappers_match_predictors():
    frame = _pilot_frame(10, seed=26)
    learner = _quick_learner()
    x = 0.4 - 0.2j
    assert np.array_equal(
        vb_predict(frame.pilot_x, frame.pilot_y, x, 0.1, learner, seed=27),
        SplitConformalPredictor(
            frame.pilot_x, frame.pilot_y, 0.1, learner, seed=27
        ).predict_set(x),
    )
    assert np.array_equal(
        cv_predict(frame.pilot_x, frame.pilot_y, x, 0.1, learner, seed=27),
        CrossValConformalPredictor(
            frame.pilot_x, frame.pilot_y, 0.1, learner, None, 27
        ).predict_set(x),
    )
    assert np.array_equal(
        kcv_predict(frame.pilot_x, frame.pilot_y, x, 0.1, 5, learner, seed=27),
        CrossValConformalPredictor(
            frame.pilot_x, frame.pilot_y, 0.1, learner, 5, 27
        ).predict_set(x),
    )


def test_naive_predictor_uses_one_model_on_all_pilots():
    frame = _pilot_frame(10, seed=28)
    learner = _quick_learner()
    pred = NaiveSetPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, seed=29)
    x = 0.2 + 0.2j
    direct = naive_set(pred.model, x, 0.1)
    assert np.array_equal(pred.predict_set(x), direct)
    assert isinstance(pred.model, type(learner.fit(
        np.zeros((2, 2)), np.array([0, 1]), np.random.default_rng(0)
    )))


def test_ensemble_learner_plugs_into_conformal():
    # Smoke test: the Bayesian learner's ensembles ride the same interfaces.
    from cpdemod.mlp import SGLDLearner

    frame = _pilot_frame(6, seed=30)
    learner = SGLDLearner(ModelArch(), burn_in=5, ensemble_size=4)
    pred = CrossValConformalPredictor(frame.pilot_x, frame.pilot_y, 0.1, learner, None, 31)
    assert all(isinstance(m, Ensemble) for m in pred.models)
    mask = pred.predict_mask(np.array([0.5 + 0.5j]))
    assert mask.shape == (1, 4)
