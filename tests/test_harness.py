"""Experiment loop: seeding, pooling, parallel equivalence, file formats."""

import dataclasses
import logging
import os
import re
import stat
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import cpdemod
from cpdemod import conformal, harness, mlp
from cpdemod.channel import QPSK
from cpdemod.harness import (
    CSV_HEADER,
    LEARNERS,
    METHODS,
    ExperimentConfig,
    MetricsRecord,
    experiment_cells,
    frame_seed,
    make_constellation,
    run_experiment,
    simulate_frame,
    tally,
    write_csv,
)
from cpdemod.mlp import GDLearner, ModelArch, SGLDLearner, init_weights
from cpdemod.seeding import hash64
from helpers import with_constants


def _small_config(**overrides):
    base = dict(
        n_pilots_grid=(10,),
        n_test=8,
        n_frames=2,
        methods=("naive", "vb", "cv", "kcv"),
        learners=LEARNERS,
        k_folds=5,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_tally_full_and_empty_masks():
    y = np.array([0, 3, 1])
    full = np.ones((3, 4), dtype=bool)
    hits, sizes = tally(full, y)
    assert hits == 3
    assert np.array_equal(sizes, [4, 4, 4])
    hits, sizes = tally(np.zeros((3, 4), dtype=bool), y)
    assert hits == 0
    assert np.array_equal(sizes, [0, 0, 0])


def test_tally_counts_only_true_label_membership():
    mask = np.array([[True, False, False, False], [True, True, False, False]])
    hits, sizes = tally(mask, np.array([1, 1]))
    assert hits == 1
    assert np.array_equal(sizes, [1, 2])


def test_tally_rejects_labels_outside_the_mask():
    # -1 would count a hit in the last label's column.
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
        tally(np.eye(4, dtype=bool), [-1, 0, 1, 2])


@pytest.mark.parametrize("n_rows", [5, 3])
def test_tally_rejects_a_mask_of_another_length(n_rows):
    # Five rows for two labels would pool two hits over five set sizes.
    with pytest.raises(ValueError, match=f"{n_rows} mask rows for 4 labels"):
        tally(np.ones((n_rows, 4), dtype=bool), np.array([0, 1, 2, 3]))
    with pytest.raises(ValueError, match=f"{n_rows} mask rows for 2 labels"):
        tally(np.ones((n_rows, 4), dtype=bool), np.array([0, 1]))


def test_simulate_frame_degenerate_cross_val_covers_everything():
    # 5 pilots cannot exclude anything at alpha 0.1, so coverage is total.
    config = ExperimentConfig(n_pilots_grid=(5,), n_test=12, n_frames=1, methods=("cv",),
                              learners=("frequentist",), master_seed=99)
    frame, mask = simulate_frame(config, ("cv", "frequentist", 5), 0)
    hits, sizes = tally(mask, frame.test_y)
    assert hits == 12
    assert np.array_equal(sizes, np.full(12, 4))


def test_a_frame_featurizes_its_pilots_and_its_payload_once(monkeypatch):
    # 30 leave-one-out models fit in two stacks, and neither stack featurizes
    # the payload again.
    featurized = []
    features = mlp.features

    def counted(x):
        featurized.append(np.size(x))
        return features(x)

    monkeypatch.setattr(mlp, "features", counted)
    config = _small_config(methods=("cv",), learners=("frequentist",), n_pilots_grid=(30,))
    simulate_frame(config, ("cv", "frequentist", 30), 0)
    assert featurized == [30, config.n_test]


def test_frame_seed_is_frozen():
    # Frozen regression values: changing the seed derivation silently changes
    # every published number, so lock it down.
    assert frame_seed(0, "cv", "frequentist", 10, 0) == 17730006030646337016
    assert frame_seed(1, "kcv", "bayesian", 60, 49) == 3084536795981530267


@pytest.mark.parametrize("bad", [10.7, True, "3"])
@pytest.mark.parametrize("part", ["master_seed", "n_pilots", "frame_index"])
def test_frame_seed_parts_must_be_integers(part, bad):
    # frame_seed(0, "cv", "frequentist", 10.7, 0) was the seed for 10 pilots,
    # and a frame index of 1.5 or True gave frame 1.
    parts = dict(master_seed=0, n_pilots=10, frame_index=1)
    parts[part] = bad
    with pytest.raises(ValueError, match=f"^{part} must be an integer"):
        frame_seed(parts["master_seed"], "cv", "frequentist", parts["n_pilots"],
                   parts["frame_index"])
    assert frame_seed(np.uint64(0), "cv", "frequentist", np.int64(10), np.int32(0)) == (
        frame_seed(0, "cv", "frequentist", 10, 0)
    )


def test_frame_seed_names_an_unknown_method_or_learner():
    with pytest.raises(ValueError, match="^unknown method 'cp'$"):
        frame_seed(0, "cp", "frequentist", 10, 0)
    with pytest.raises(ValueError, match="^unknown learner 'gd'$"):
        frame_seed(0, "cv", "gd", 10, 0)


@pytest.mark.parametrize("frame_index", [1.5, True])
def test_simulate_frame_rejects_a_frame_index_that_is_not_an_integer(frame_index):
    config = _small_config(methods=("naive",), learners=("frequentist",), n_test=2)
    with pytest.raises(RuntimeError, match="frame_index must be an integer"):
        simulate_frame(config, ("naive", "frequentist", 10), frame_index)


def test_frame_seeds_do_not_collide_across_cells():
    seeds = {
        frame_seed(0, m, l, n, i)
        for m in METHODS
        for l in LEARNERS
        for n in (10, 20, 40, 60)
        for i in range(10)
    }
    assert len(seeds) == len(METHODS) * len(LEARNERS) * 4 * 10


def test_experiment_cells_order_and_kcv_skip(caplog):
    config = _small_config(n_pilots_grid=(9, 10), methods=("cv", "kcv"))
    with caplog.at_level(logging.WARNING):
        cells = experiment_cells(config)
    assert cells == [
        ("cv", "frequentist", 9),
        ("cv", "frequentist", 10),
        ("cv", "bayesian", 9),
        ("cv", "bayesian", 10),
        ("kcv", "frequentist", 10),
        ("kcv", "bayesian", 10),
    ]
    assert "skipping kcv at n_pilots=9" in caplog.text


def test_run_experiment_skips_everything_when_nothing_divides(caplog):
    config = _small_config(n_pilots_grid=(9,), methods=("kcv",), learners=("frequentist",))
    with caplog.at_level(logging.WARNING):
        records = run_experiment(config)
    assert records == []
    assert [r.getMessage() for r in caplog.records] == [
        "skipping kcv at n_pilots=9: not divisible by k_folds=5"
    ]


def test_run_experiment_one_record_per_cell():
    config = _small_config(methods=("naive",), n_frames=1, n_test=1)
    records = run_experiment(config)
    assert len(records) == 2  # |methods| * |learners| * |grid|
    assert {(r.method, r.learner) for r in records} == {
        ("naive", "frequentist"),
        ("naive", "bayesian"),
    }


def test_run_experiment_record_fields():
    config = _small_config(
        methods=("naive", "vb"), learners=("frequentist",), n_frames=1, n_test=5
    )
    records = run_experiment(config)
    assert [(r.method, r.learner, r.n_pilots) for r in records] == [
        ("naive", "frequentist", 10),
        ("vb", "frequentist", 10),
    ]
    for r in records:
        assert r.alpha == config.alpha
        assert r.n_frames == 1
        assert r.seed == 7
        assert 0.0 <= r.coverage <= 1.0
        assert 0.0 <= r.inefficiency <= 4.0


def test_run_experiment_is_deterministic_and_parallel_safe(tmp_path):
    config = _small_config()
    serial_a = run_experiment(config, workers=1)
    serial_b = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert serial_a == serial_b == parallel
    path_a, path_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(serial_a, path_a)
    write_csv(parallel, path_b)
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2"])
def test_run_experiment_workers_must_be_a_positive_integer(monkeypatch, workers):
    # 0, -3, True and 2.5 ran serially, and "2" raised a bare TypeError.
    monkeypatch.setattr(harness, "_block_job", None)  # nothing may run
    with pytest.raises(ValueError, match="^workers must be"):
        run_experiment(_small_config(), workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_frame_names_its_job(monkeypatch, workers):
    seed_of = harness.frame_seed

    def fail_frame_1(*args):
        if args[2] == "frequentist" and args[4] == 1:  # learner, frame_index
            raise FloatingPointError("diverged")
        return seed_of(*args)

    # Two cells, so that two blocks run and workers=2 takes the pool.
    monkeypatch.setattr(harness, "frame_seed", fail_frame_1)
    config = _small_config(methods=("naive",), n_frames=3)
    with pytest.raises(RuntimeError) as excinfo:
        run_experiment(config, workers=workers)
    assert "cell ('naive', 'frequentist', 10) frames [1] failed" in str(excinfo.value)
    assert "diverged" in str(excinfo.value)


def test_failing_stacked_fit_names_every_job_of_its_block(monkeypatch):
    class Diverging:
        def fit(self, X, y, rng):
            raise FloatingPointError("diverged")

    # vb at 20 pilots holds 10 out, enough for a nonzero rank threshold, so
    # its models are fitted (at 10 pilots nothing would be).
    monkeypatch.setattr(harness, "_make_learner", lambda name: Diverging())
    config = _small_config(
        methods=("vb",), learners=("frequentist",), n_frames=3, n_pilots_grid=(20,)
    )
    with pytest.raises(RuntimeError) as excinfo:
        run_experiment(config)
    assert "cell ('vb', 'frequentist', 20) frames [0, 1, 2] failed" in str(excinfo.value)
    assert "diverged" in str(excinfo.value)


def _diverging(name):
    arch = ModelArch()
    if name == "frequentist":
        return with_constants(GDLearner, steps=20, lr=1e100)(arch)
    return with_constants(SGLDLearner, burn_in=5, ensemble_size=3, lr=1e100)(arch)


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize("method,models", [("naive", 1), ("vb", 1), ("cv", 10), ("kcv", 5)])
def test_diverged_fit_logs_a_warning_naming_its_frame(monkeypatch, caplog, learner, method, models):
    monkeypatch.setattr(harness, "_make_learner", _diverging)
    # vb needs 20 pilots for a plan that is fitted at all (see
    # test_vacuous_cells_fit_nothing_and_admit_every_label).
    n_pilots = 20 if method == "vb" else 10
    config = _small_config(methods=(method,), learners=(learner,), n_pilots_grid=(n_pilots,))
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        (record,) = run_experiment(config)
    assert record.n_frames == 2
    assert [r.getMessage() for r in caplog.records if "non-finite" in r.getMessage()] == [
        f"cell ({method!r}, {learner!r}, {n_pilots}) frames [{i}]: {models} of {models} models "
        "hold non-finite weights"
        for i in range(2)
    ]


class _HugeWeights:
    """Finite weights of about 1e200: every product overflows, the scores are
    NaN, and no weight is non-finite."""

    def __init__(self, name):
        self.arch = ModelArch()

    def fit(self, X, y, rngs):
        return np.array([init_weights(self.arch, rng)[None] * 1e200 for rng in rngs])


@pytest.mark.parametrize(
    "method,n_pilots,held_out",
    # cv at 30 pilots fits each frame in two stacks, whose counts add up.
    [("naive", 10, None), ("vb", 20, 10), ("cv", 10, 10), ("cv", 30, 30), ("kcv", 10, 10)],
)
def test_nan_scores_log_a_warning_naming_their_frame(monkeypatch, caplog, method, n_pilots,
                                                      held_out):
    config = _small_config(methods=(method,), learners=("frequentist",),
                           n_pilots_grid=(n_pilots,))
    cell = (method, "frequentist", n_pilots)
    monkeypatch.setattr(harness, "_make_learner", _HugeWeights)
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        masks = [simulate_frame(config, cell, i)[1] for i in range(2)]
        (record,) = run_experiment(config)
    assert record.n_frames == 2
    messages = [r.getMessage() for r in caplog.records if "NaN" in r.getMessage()]
    assert not any("non-finite" in m for m in messages)
    expected = ""
    if held_out:
        expected = f"{held_out} of {held_out} held-out scores are NaN and "
    expected += "8 of 8 payload rows have NaN scores"
    # Once by simulate_frame, once by run_experiment, for each frame.
    assert sorted(messages) == sorted(
        f"cell {cell!r} frames [{i}]: {expected}" for i in (0, 1, 0, 1)
    )
    # Logging changes no set: a NaN predictive gives the set {0}, and a NaN
    # score ranks as the worst score, so with every score NaN each held-out
    # score lies at or above every candidate and every label enters.
    expected_mask = np.ones((8, 4), dtype=bool)
    if method == "naive":
        expected_mask[:, 1:] = False
    for mask in masks:
        assert np.array_equal(mask, expected_mask)


@pytest.mark.parametrize("learner", LEARNERS)
def test_floating_point_warnings_are_logged_naming_their_frames(monkeypatch, caplog, learner):
    # numpy's own RuntimeWarnings name no frame; under the default error
    # state the harness logs them instead, so none reaches the warnings
    # filter, which here would turn it into an error.
    monkeypatch.setattr(harness, "_make_learner", _diverging)
    config = _small_config(methods=("naive",), learners=(learner,))
    with caplog.at_level(logging.WARNING), warnings.catch_warnings():
        warnings.simplefilter("error")
        (record,) = run_experiment(config)
    assert record.n_frames == 2
    messages = [r.getMessage() for r in caplog.records]
    assert f"cell ('naive', {learner!r}, 10) frames [0, 1]: overflow encountered in matmul" in messages
    floating = [m for m in messages if "encountered in" in m]
    assert len(floating) == len(set(floating))  # each distinct warning once per block or frame
    assert all(m.startswith(f"cell ('naive', {learner!r}, 10) frames [") for m in floating)


def test_a_shared_naming_set_logs_each_warning_once_over_several_scopes(caplog):
    # A block fit spans several stacks and a cv frame is scored stack by
    # stack; each shares one set over its scopes.
    cell, logged = ("cv", "frequentist", 20), set()
    with caplog.at_level(logging.WARNING), warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            with harness._naming(cell, [0], logged):
                np.array([1e308]) * 10.0
        with harness._naming(cell, [0]):
            np.array([1e308]) * 10.0
    assert [r.getMessage() for r in caplog.records] == [
        "cell ('cv', 'frequentist', 20) frames [0]: overflow encountered in multiply"
    ] * 2


def test_the_package_exports_its_public_api_only():
    # Test-only helpers and the channel's internal steps stay in their modules.
    exported = {
        name
        for name, value in vars(cpdemod).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {
        "QPSK", "ChannelParams", "Frame", "generate_frame",
        "rank_threshold",
        "ExperimentConfig", "MetricsRecord", "run_experiment", "simulate_frame", "write_csv",
        "GDLearner", "ModelArch", "SGLDLearner", "grad", "init_weights",
    }


def test_import_does_not_load_the_process_pool():
    # The pool module loads multiprocessing; only a pooled run needs it.
    # Integer arithmetic gives the rank threshold, so nothing loads
    # fractions (which loads decimal).
    code = (
        "import sys, cpdemod\n"
        "from cpdemod.harness import ExperimentConfig\n"
        "ExperimentConfig()\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('multiprocessing') or m in ('fractions', 'decimal')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cpdemod.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_failing_calibration_names_its_frame(monkeypatch):
    payload_sets = conformal.PayloadSets
    calls = []

    def fail_second_frame(*args):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("held-out scores are NaN")
        return payload_sets(*args)

    monkeypatch.setattr(conformal, "PayloadSets", fail_second_frame)
    config = _small_config(methods=("vb",), learners=("frequentist",), n_frames=3)
    with pytest.raises(RuntimeError) as excinfo:
        run_experiment(config)
    assert "cell ('vb', 'frequentist', 10) frames [1] failed" in str(excinfo.value)
    assert "held-out scores are NaN" in str(excinfo.value)


def test_dead_worker_names_its_unfinished_blocks(monkeypatch):
    parent = os.getpid()
    seed_of = harness.frame_seed

    def exit_in_frame_1(*args):
        if args[4] == 1:  # frame_index
            if os.getpid() == parent:
                raise AssertionError("frame 1 ran in the test process, not in a worker")
            os._exit(3)
        return seed_of(*args)

    monkeypatch.setattr(harness, "frame_seed", exit_in_frame_1)
    config = _small_config(methods=("naive",), n_frames=3)
    with pytest.raises(RuntimeError, match="worker died") as excinfo:
        run_experiment(config, workers=2)
    named = re.findall(r"cell (\(.*?\)) frames \[([0-9, ]*)\]", str(excinfo.value))
    assert ("('naive', 'frequentist', 10)", "0, 1, 2") in named


@pytest.mark.parametrize("max_stack", [20, 8])
def test_blocks_give_the_masks_of_single_frames(monkeypatch, max_stack):
    # At the default cap, naive and vb run blocks of 3 frames, kcv (5 models
    # a frame) 3, cv at 10 pilots 2 + 1 and cv at 20 pilots 1.  A cap of 8
    # cuts cv and kcv frames into blocks of one and spreads a cv frame's
    # models over two stacks.
    monkeypatch.setattr(conformal, "MAX_STACK", max_stack)
    config = _small_config(n_pilots_grid=(10, 20), n_frames=3)
    blocks = harness._cell_blocks(config)
    sizes = {}
    for _, (method, _, n_pilots), frame_indices in blocks:
        sizes.setdefault((method, n_pilots), []).append(len(frame_indices))
    if max_stack == 20:  # each list: the frequentist cell's blocks, then the bayesian's
        assert sizes == {("naive", 10): [3, 3], ("naive", 20): [3, 3], ("vb", 10): [3, 3],
                         ("vb", 20): [3, 3], ("cv", 10): [2, 1, 2, 1], ("cv", 20): [1] * 6,
                         ("kcv", 10): [3, 3], ("kcv", 20): [3, 3]}
    block_masks = [
        mask for _, cell, frame_indices in blocks
        for _, mask in harness._simulate_block(config, cell, frame_indices)
    ]
    single_masks = [
        simulate_frame(config, cell, i)[1]
        for _, cell, frame_indices in blocks for i in frame_indices
    ]
    assert len(block_masks) == len(single_masks) == 8 * 2 * 3
    for got, want in zip(block_masks, single_masks):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _predictor_mask(config, cell, frame_index, frame):
    """A frame's mask from the predictor class of its method, which fits and
    keeps every model of the frame before it scores any payload."""
    method, learner, _ = cell
    seed = hash64(frame_seed(config.master_seed, *cell, frame_index), 1)
    halved = config.alpha_halving and method in ("cv", "kcv")
    alpha = config.alpha / (2 if halved else 1)
    args = (frame.pilot_x, frame.pilot_y, alpha, harness._make_learner(learner))
    if method == "naive":
        predictor = conformal.NaiveSetPredictor(*args, seed)
    elif method == "vb":
        predictor = conformal.SplitConformalPredictor(*args, seed=seed)
    else:
        k = None if method == "cv" else config.k_folds
        predictor = conformal.CrossValConformalPredictor(*args, k, seed)
    return predictor.predict_mask(frame.test_x)


@pytest.mark.parametrize("max_stack", [20, 8])
def test_blocks_give_the_masks_of_the_fitting_predictors(monkeypatch, max_stack):
    # The block path scores each stack as soon as it is fitted and drops it.
    # At a cap of 8, a cv frame's models span two stacks at 10 pilots and
    # three at 20, and the kcv and naive stacks hold several frames.
    monkeypatch.setattr(conformal, "MAX_STACK", max_stack)
    config = _small_config(n_pilots_grid=(10, 20), n_frames=3)
    compared = 0
    for _, cell, frame_indices in harness._cell_blocks(config):
        got = harness._simulate_block(config, cell, frame_indices)
        for frame_index, (frame, mask) in zip(frame_indices, got):
            want = _predictor_mask(config, cell, frame_index, frame)
            assert mask.dtype == want.dtype and np.array_equal(mask, want), (cell, frame_index)
            compared += 1
    assert compared == 8 * 2 * 3


def _memory_root(array: np.ndarray) -> np.ndarray:
    while array.base is not None:
        array = array.base
    return array


class _StackWatch:
    """Learner wrapper that asserts, at every fit, that no models array it
    returned from an earlier fit, and no array that one is a view of, is still
    alive."""

    def __init__(self, learner):
        self.learner = learner
        self.refs = []
        self.fits = self.models = 0

    def fit(self, X, y, rngs):
        alive = sum(ref() is not None for ref in self.refs)
        assert not alive, f"{alive} objects of earlier stacks alive at fit {self.fits}"
        self.fits += 1
        models = self.learner.fit(X, y, rngs)
        self.models += len(models)
        self.refs += [weakref.ref(models), weakref.ref(_memory_root(models))]
        return models


@pytest.mark.parametrize("learner", LEARNERS)
@pytest.mark.parametrize(
    "method,n_pilots,n_frames,max_stack,fits",
    [("cv", 20, 1, 8, 3), ("naive", 10, 5, 2, 3)],
    ids=["cv-three-stacks", "naive-multi-frame-blocks"],
)
def test_a_block_holds_one_stack_of_models_at_a_time(
    monkeypatch, learner, method, n_pilots, n_frames, max_stack, fits
):
    # cv at 20 pilots and a cap of 8 fits one frame in stacks of 8, 8 and 4;
    # naive at a cap of 2 runs blocks of 2, 2 and 1 frames, one stack each,
    # and the one watch sees the fits of every block.
    monkeypatch.setattr(conformal, "MAX_STACK", max_stack)
    watch = _StackWatch(harness._make_learner(learner))
    monkeypatch.setattr(harness, "_make_learner", lambda name: watch)
    config = _small_config(
        methods=(method,), learners=(learner,), n_pilots_grid=(n_pilots,), n_frames=n_frames
    )
    (record,) = run_experiment(config)
    assert record.n_frames == n_frames and watch.fits == fits
    assert watch.models == (n_pilots if method == "cv" else n_frames)
    assert len(watch.refs) == 2 * fits
    assert not any(ref() is not None for ref in watch.refs)


def test_longest_first_pool_gives_the_serial_records():
    config = _small_config(n_pilots_grid=(10, 20), n_frames=3)
    blocks = harness._cell_blocks(config)
    costs = [cost for cost, _, _ in blocks]
    assert sorted(costs, reverse=True) != costs  # the pool order is not cell order
    assert run_experiment(config, workers=1) == run_experiment(config, workers=2)


# Cells whose plans hold too few pilots out for any rank threshold: vb at 10
# pilots holds 5 out at alpha 0.1, cv and kcv at 10 hold 10 out at 0.05.
VACUOUS = [("vb", False), ("cv", True), ("kcv", True)]


class _Unfittable:
    def fit(self, X, y, rng):
        raise AssertionError("a vacuous plan was fitted")


@pytest.mark.parametrize("method,halving", VACUOUS)
def test_vacuous_cells_fit_nothing_and_admit_every_label(monkeypatch, method, halving):
    monkeypatch.setattr(harness, "_make_learner", lambda name: _Unfittable())
    config = _small_config(methods=(method,), alpha_halving=halving, n_frames=3)
    for _, cell, frame_indices in harness._cell_blocks(config):
        for frame, mask in harness._simulate_block(config, cell, frame_indices):
            assert mask.dtype == bool and mask.shape == (config.n_test, 4) and mask.all()


@pytest.mark.parametrize("method,halving", VACUOUS)
def test_vacuous_cells_give_the_masks_of_the_fitting_predictors(method, halving):
    # The predictor classes still fit every plan; they are the reference.
    for master_seed in range(3):
        config = _small_config(methods=(method,), alpha_halving=halving, master_seed=master_seed)
        for cell in experiment_cells(config):
            got = harness._simulate_block(config, cell, list(range(config.n_frames)))
            for frame_index, (frame, mask) in enumerate(got):
                want = _predictor_mask(config, cell, frame_index, frame)
                assert mask.dtype == want.dtype and np.array_equal(mask, want)


def test_vacuous_frame_still_rejects_a_non_finite_payload(monkeypatch):
    generate = harness.generate_frame
    calls = []

    def nan_in_second_payload(*args):
        frame = generate(*args)
        calls.append(frame)
        if len(calls) == 2:
            frame.test_x[3] = np.nan
        return frame

    monkeypatch.setattr(harness, "generate_frame", nan_in_second_payload)
    monkeypatch.setattr(harness, "_make_learner", lambda name: _Unfittable())
    config = _small_config(methods=("vb",), learners=("frequentist",), n_frames=3)
    with pytest.raises(RuntimeError) as excinfo:
        run_experiment(config)
    assert "cell ('vb', 'frequentist', 10) frames [1] failed" in str(excinfo.value)
    assert "finite" in str(excinfo.value)


@pytest.mark.parametrize("halving,vacuous", [
    (False, {"vb"}),
    (True, {"vb", "cv", "kcv"}),
])
def test_vacuous_blocks_cost_nothing_and_run_last(halving, vacuous):
    blocks = harness._cell_blocks(ExperimentConfig(alpha_halving=halving))
    free = [block for block in blocks if block[0] == 0]
    assert {cell for _, cell, _ in free} == {(m, l, 10) for m in vacuous for l in LEARNERS}
    # The pool submits blocks longest first, so the free ones go last.
    assert sorted(blocks, key=lambda block: -block[0])[-len(free) :] == free


def test_alpha_halving_reaches_the_calibrated_methods():
    kwargs = dict(
        n_pilots_grid=(10,), n_test=6, n_frames=1, methods=("cv",),
        learners=("frequentist",), master_seed=3,
    )
    nominal = run_experiment(ExperimentConfig(**kwargs))[0]
    halved = run_experiment(ExperimentConfig(alpha_halving=True, **kwargs))[0]
    # floor(0.05 * 11) = 0 required calibration scores: sets become maximal.
    assert halved.inefficiency == 4.0
    assert halved.coverage == 1.0
    assert halved.alpha == nominal.alpha == 0.1  # reported alpha stays nominal
    assert halved.inefficiency >= nominal.inefficiency


def test_write_csv_format(tmp_path):
    records = [
        MetricsRecord("cv", "frequentist", 10, 0.1, 0.9123456789, 3.99999987, 50, 0),
        MetricsRecord("vb", "bayesian", 60, 0.05, 1.0, 1.0, 2, 11),
    ]
    path = str(tmp_path / "out.csv")
    write_csv(records, path)
    with open(path, "rb") as handle:
        raw = handle.read()
    assert b"\r" not in raw
    lines = raw.decode("ascii").split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "cv,frequentist,10,0.100000,0.912346,4.000000,50,0"
    assert lines[2] == "vb,bayesian,60,0.050000,1.000000,1.000000,2,11"
    assert lines[3] == ""
    assert len(os.listdir(tmp_path)) == 1  # no stray temp files


def test_written_file_has_the_mode_of_a_new_file(tmp_path):
    records = [MetricsRecord("naive", "frequentist", 20, 0.1, 0.5, 2.25, 5, 1)]
    path = tmp_path / "out"
    old = os.umask(0o022)
    try:
        write_csv(records, str(path))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_writers_never_touch_the_process_umask(tmp_path, monkeypatch):
    # Setting the umask, even for a moment, changes the mode of files that
    # other threads create meanwhile.
    def umask(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", umask)
    records = [MetricsRecord("naive", "frequentist", 20, 0.1, 0.5, 2.25, 5, 1)]
    write_csv(records, str(tmp_path / "out.csv"))
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    # The rename onto a directory fails after the temporary file is written;
    # the writer removes that file before the error propagates.
    records = [MetricsRecord("naive", "frequentist", 20, 0.1, 0.5, 2.25, 5, 1)]
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        write_csv(records, str(tmp_path / "out.csv"))
    assert os.listdir(tmp_path) == ["out.csv"]
    assert os.listdir(tmp_path / "out.csv") == []


def test_writers_reject_empty_record_lists(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], str(tmp_path / "x.csv"))


def test_make_constellation():
    assert make_constellation("qpsk") is QPSK
    with pytest.raises(ValueError):
        make_constellation("64apsk")


def test_constellation_is_qpsk_and_not_settable():
    assert dataclasses.asdict(ExperimentConfig())["constellation"] == "qpsk"
    with pytest.raises(TypeError):
        ExperimentConfig(constellation="qpsk")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(n_test=0),
        dict(n_frames=0),
        dict(n_pilots_grid=()),
        dict(n_pilots_grid=(0,)),
        dict(k_folds=1),
        dict(methods=()),
        dict(methods=("naive", "bogus")),
        dict(learners=()),
        dict(learners=("frequentist", "map")),
        dict(n_pilots_grid=(1, 10), methods=("naive", "vb")),
        dict(n_pilots_grid=(1,), methods=("cv",)),
        dict(n_pilots_grid=(1,), methods=("kcv",)),
        dict(snr_db=float("nan")),
        dict(snr_db=-float("inf")),
        dict(n_pilots_grid=(10, 20, 10)),
        dict(methods=("naive", "vb", "naive")),
        dict(learners=("bayesian", "bayesian")),
        dict(snr_db=4000.0),
        dict(snr_db=1e308),
        dict(snr_db=-4000.0),
        dict(snr_db=-3200.0),
        dict(master_seed=-1),
        dict(master_seed=2**64),
        dict(master_seed=1.5),
        dict(master_seed=1.0),
        dict(master_seed=True),
        dict(n_pilots_grid=(10.7,)),
        dict(n_pilots_grid=(10, np.float64(20.0))),
        dict(n_test=2.5),
        dict(n_test=np.bool_(True)),
        dict(n_frames=1.5),
        dict(k_folds=2.5),
        dict(k_folds="5"),
        dict(alpha_halving="no"),
        dict(alpha_halving=1),
        dict(alpha_halving=None),
        dict(snr_db=True),
        dict(snr_db=np.bool_(False)),
        dict(snr_db="5"),
        dict(snr_db=5 + 0j),
        dict(snr_db=10**400),
        dict(alpha="0.1"),
        dict(alpha=None),
        dict(methods=[["cv"]]),
        dict(learners=[{}]),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "name,value",
    [("n_pilots_grid", 10), ("methods", 5), ("learners", None),
     ("n_pilots_grid", "10 20"), ("methods", "cv"), ("learners", "bayesian")],
)
def test_config_names_a_field_that_is_not_a_sequence(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a sequence"):
        ExperimentConfig(**{name: value})


def test_config_stores_numpy_integers_as_plain_ints():
    config = ExperimentConfig(
        n_pilots_grid=(np.int64(10), 20), n_test=np.int32(5), n_frames=np.uint8(2),
        k_folds=np.int64(5), master_seed=np.uint64(2**64 - 1),
    )
    values = (*config.n_pilots_grid, config.n_test, config.n_frames, config.k_folds,
              config.master_seed)
    assert values == (10, 20, 5, 2, 5, 2**64 - 1)
    assert all(type(v) is int for v in values)


def test_config_stores_numpy_reals_and_bools_as_plain_values():
    config = ExperimentConfig(snr_db=np.int64(5), alpha=np.float32(0.25),
                              alpha_halving=np.bool_(True))
    values = (config.snr_db, config.alpha, config.alpha_halving)
    assert values == (5.0, 0.25, True)
    assert [type(v) for v in values] == [float, float, bool]


def test_config_allows_the_noiseless_channel():
    config = ExperimentConfig(snr_db=float("inf"))
    assert config.snr_db == config.snr_linear == float("inf")


def test_config_allows_one_pilot_for_naive_only():
    assert ExperimentConfig(n_pilots_grid=(1, 10), methods=("naive",)).n_pilots_grid == (1, 10)
