"""Frame-level experiment loop: pooled coverage and mean set size per cell.

A cell is one (method, learner, n_pilots) combination.  Each cell simulates
``n_frames`` independent frames, demodulates the payload with the requested
set predictor, and pools hits and set sizes over all frames.  Every frame owns
a seed derived from (master seed, method, learner, n_pilots, frame index), so
cells and frames can be computed in any order, serially or in parallel, with
identical results.

The unit of work is a block: up to ``MAX_STACK // models per frame`` frames
of one cell, whose models train in stacks of at most ``MAX_STACK``.  A block
runs fit, score, drop: each stack is scored as soon as it is fitted and
dropped before the next fit, so a worker holds one stack of models at a
time, whatever the pilot count.  A pool runs the blocks longest first and
the outcomes are put back in cell order.
"""

from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import conformal
from .channel import QPSK, Frame, generate_frame
from .checks import alpha_level, class_labels, integer, real
from .mlp import GDLearner, ModelArch, SGLDLearner
from .seeding import derive_rng, hash64

log = logging.getLogger(__name__)

METHODS = ("naive", "vb", "cv", "kcv")
LEARNERS = ("frequentist", "bayesian")
# Stable integer ids folded into frame seeds; changing them changes results.
_METHOD_ID = {m: i for i, m in enumerate(METHODS)}
_LEARNER_ID = {l: i for i, l in enumerate(LEARNERS)}
_LEARNER_CLASS = {"frequentist": GDLearner, "bayesian": SGLDLearner}

CSV_HEADER = "method,learner,n_pilots,alpha,coverage,inefficiency,n_frames,seed"


def make_constellation(name: str) -> np.ndarray:
    """``QPSK``, the only alphabet, by name; the benchmark script still names it."""
    if name != "qpsk":
        raise ValueError(f"unknown constellation {name!r}")
    return QPSK


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment grid."""

    snr_db: float = 5.0
    n_pilots_grid: tuple[int, ...] = (10, 20, 40, 60)
    n_test: int = 100
    n_frames: int = 50
    alpha: float = 0.1
    methods: tuple[str, ...] = METHODS
    learners: tuple[str, ...] = LEARNERS
    k_folds: int = 5
    master_seed: int = 0
    alpha_halving: bool = False
    # Not settable: QPSK is the only alphabet.  Kept as a field so that
    # ``dataclasses.asdict`` gives the stored benchmark signatures.
    constellation: str = field(default="qpsk", init=False)

    def __post_init__(self) -> None:
        for name in ("n_test", "n_frames", "k_folds", "master_seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        object.__setattr__(self, "snr_db", real("snr_db", self.snr_db))
        object.__setattr__(self, "alpha", alpha_level(self.alpha))
        if not isinstance(self.alpha_halving, (bool, np.bool_)):
            raise ValueError(f"alpha_halving must be a bool, got {self.alpha_halving!r}")
        object.__setattr__(self, "alpha_halving", bool(self.alpha_halving))
        for name in ("n_pilots_grid", "methods", "learners"):
            values = getattr(self, name)
            try:
                items = None if isinstance(values, str) else tuple(values)
                hash(items)
            except TypeError:
                items = None
            if items is None:  # a string is one value, not a sequence of values
                raise ValueError(f"{name} must be a sequence of hashable values, got {values!r}")
            object.__setattr__(self, name, items)
        grid = tuple(integer("n_pilots_grid", n) for n in self.n_pilots_grid)
        object.__setattr__(self, "n_pilots_grid", grid)
        # +inf is the noiseless channel; any other SNR needs a positive finite
        # noise variance 1 / (2 snr), which NaN, -inf and an SNR that over- or
        # underflows a float do not give.
        try:
            snr = self.snr_linear
        except OverflowError:
            snr = math.nan
        if snr != math.inf and not (snr > 0.0 and 0.0 < 1.0 / (2.0 * snr) < math.inf):
            raise ValueError(f"snr_db must give a positive finite linear SNR, got {self.snr_db!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed!r}")
        if self.n_test < 1 or self.n_frames < 1:
            raise ValueError("n_test and n_frames must be at least 1")
        if not self.n_pilots_grid or min(self.n_pilots_grid) < 1:
            raise ValueError("n_pilots_grid must hold positive pilot counts")
        if min(self.n_pilots_grid) < 2 and set(self.methods) & {"vb", "cv", "kcv"}:
            raise ValueError("vb, cv and kcv need at least 2 pilots per frame")
        if self.k_folds < 2:
            raise ValueError("k_folds must be at least 2")
        unknown = set(self.methods) - set(METHODS)
        if not self.methods or unknown:
            raise ValueError(f"methods must be a non-empty subset of {METHODS}")
        unknown = set(self.learners) - set(LEARNERS)
        if not self.learners or unknown:
            raise ValueError(f"learners must be a non-empty subset of {LEARNERS}")
        for name in ("n_pilots_grid", "methods", "learners"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values!r}")

    @property
    def snr_linear(self) -> float:
        """The channel's linear SNR, ``10 ** (snr_db / 10)``."""
        return 10.0 ** (self.snr_db / 10.0)


@dataclass(frozen=True)
class MetricsRecord:
    """Pooled metrics of one experiment cell."""

    method: str
    learner: str
    n_pilots: int
    alpha: float
    coverage: float
    inefficiency: float
    n_frames: int
    seed: int


def frame_seed(
    master_seed: int, method: str, learner: str, n_pilots: int, frame_index: int
) -> int:
    """Seed owned by one frame of one cell; stable across versions.  The
    seed, pilot count and frame index must be integers, and the method and
    learner known; anything else raises ``ValueError`` naming it."""
    if method not in _METHOD_ID:
        raise ValueError(f"unknown method {method!r}")
    if learner not in _LEARNER_ID:
        raise ValueError(f"unknown learner {learner!r}")
    return hash64(
        integer("master_seed", master_seed),
        _METHOD_ID[method],
        _LEARNER_ID[learner],
        integer("n_pilots", n_pilots),
        integer("frame_index", frame_index),
    )


def _make_learner(name: str):
    """The learner of a cell's ``learner`` name, one output per QPSK label."""
    return _LEARNER_CLASS[name](ModelArch(output_dim=len(QPSK)))


def tally(mask: np.ndarray, y_true: np.ndarray) -> tuple[int, np.ndarray]:
    """Hits (true label in set) and per-point set sizes from a membership mask.

    Empty sets are legal; they simply cannot score a hit.
    """
    y_true = class_labels(y_true, mask.shape[1])
    if len(mask) != len(y_true):
        raise ValueError(f"{len(mask)} mask rows for {len(y_true)} labels")
    hits = int(mask[np.arange(len(y_true)), y_true].sum())
    sizes = mask.sum(axis=1).astype(np.int64)
    return hits, sizes


def _describe(cell, frame_indices) -> str:
    return f"cell {cell!r} frames {frame_indices}"


@contextmanager
def _naming(cell, frame_indices, logged: set | None = None):
    """Name the frames of a cell in whatever goes wrong inside.

    An error is re-raised as a ``RuntimeError`` that names the frames.  A
    numpy floating-point error that would warn (overflow in a diverging fit,
    say) is logged instead, naming the frames, each distinct message once
    per ``logged`` set: pass one set to several ``with`` blocks to log a
    message once across them.  Error kinds the caller ignores or raises on
    stay as they are.
    """
    logged = set() if logged is None else logged

    def write(text):
        # numpy's "log" mode writes "Warning: <what> encountered in <ufunc>\n".
        message = text.strip().removeprefix("Warning: ")
        if message not in logged:
            logged.add(message)
            log.warning("%s: %s", _describe(cell, frame_indices), message)

    policy = {kind: "log" if mode == "warn" else mode for kind, mode in np.geterr().items()}
    try:
        with np.errstate(call=SimpleNamespace(write=write), **policy):
            yield
    except Exception as exc:
        raise RuntimeError(f"{_describe(cell, frame_indices)} failed: {exc!r}") from exc


def _warn_unsound(cell, frame_index, frame_sets) -> None:
    """Log what leaves a finished frame's sets unsound: models with
    non-finite weights, and NaN held-out or payload scores (which finite but
    huge weights give too), one warning each."""
    where, plan = _describe(cell, [frame_index]), frame_sets.plan
    if frame_sets.diverged:
        log.warning("%s: %d of %d models hold non-finite weights", where, frame_sets.diverged,
                    len(plan.folds))
    found = []
    if frame_sets.nan_held_out:
        found.append(f"{frame_sets.nan_held_out} of {plan.folds.size} held-out scores are NaN")
    rows = frame_sets.nan_rows
    if rows is not None:
        found.append(f"{int(rows.sum())} of {len(rows)} payload rows have NaN scores")
    if found:
        log.warning("%s: %s", where, " and ".join(found))


def _simulate_block(
    config: ExperimentConfig, cell, frame_indices
) -> list[tuple[Frame, np.ndarray]]:
    """Frames ``frame_indices`` of one cell of ``config`` end to end.

    Every frame is generated from its own seed, planned, and its payload
    checked and set up for calibration (``conformal.PayloadSets``).  Then the
    models of the block are fitted, scored and dropped one stack at a time
    (``conformal.fitted_stacks``): each model scores its held-out fold and
    its frame's payload as soon as its stack is fitted, and the stack is
    dropped before the next one is fitted.  A frame's mask is finished when
    its last model is scored.  So a block holds at most one stack of
    ``conformal.MAX_STACK`` models, whatever its pilot count or frame count.
    A block of ``conformal.vacuous`` plans (vb at 10 pilots and alpha 0.1,
    say) has no model pending and fits nothing: its sets are the full
    alphabet whatever the models would say.

    A frame whose generation, plan, payload or scoring raises fails with a
    ``RuntimeError`` naming it; a failed fit names every frame of the block.
    A frame whose models hold non-finite weights (a diverged fit), or whose
    held-out or payload scores hold NaN (finite but huge weights give that
    too), logs a warning naming it and is scored as it is (``_warn_unsound``).
    Numpy's floating-point warnings are logged naming the frames they came
    from, each distinct one once per block fit and once per frame scored (see
    ``_naming``).
    """
    method, learner, n_pilots = cell
    alpha = _alpha(config, method)
    frames, sets = [], []
    for frame_index in frame_indices:
        with _naming(cell, [frame_index]):
            fseed = frame_seed(config.master_seed, *cell, frame_index)
            frame = generate_frame(
                n_pilots, config.n_test, config.snr_linear, QPSK, derive_rng(fseed, 0)
            )
            frames.append(frame)
            plan = conformal.fold_plan(
                method, frame.pilot_x, frame.pilot_y, hash64(fseed, 1), config.k_folds
            )
            sets.append(conformal.PayloadSets(plan, alpha, frame.test_x, len(QPSK)))
    # Every plan of a block has the same shape, so all or none are vacuous.
    if sets[0].pending:
        fit_logged, score_logged = set(), [set() for _ in sets]
        plans = [frame_sets.plan for frame_sets in sets]
        stacks = conformal.fitted_stacks(_make_learner(learner), plans)
        while True:
            with _naming(cell, frame_indices, fit_logged):
                stack = next(stacks, None)
            if stack is None:
                break
            for p, models in stack:
                with _naming(cell, [frame_indices[p]], score_logged[p]):
                    sets[p].add(models)
                if sets[p].mask is not None:
                    _warn_unsound(cell, frame_indices[p], sets[p])
            # Every model is a view of its stack's weights: drop the last
            # references before the next fit.
            del stack, models
    return [(frame, frame_sets.mask) for frame, frame_sets in zip(frames, sets)]


def simulate_frame(
    config: ExperimentConfig, cell: tuple[str, str, int], frame_index: int
) -> tuple[Frame, np.ndarray]:
    """One frame of a cell end to end: the simulated frame and the membership
    mask of its payload.  A pure function of its arguments; the frame draws
    its channel from ``(frame_seed, 0)`` and its plan is seeded by
    ``hash64(frame_seed, 1)``.  It is a block of one frame, so it gives the
    same bits as the frame gets in any block of its cell."""
    return _simulate_block(config, cell, [frame_index])[0]


def _block_job(config: ExperimentConfig, cell, frame_indices) -> list[tuple[int, int, int]]:
    """(hits, set size sum, payload count) of every frame of a block."""
    outcomes = []
    for frame, mask in _simulate_block(config, cell, frame_indices):
        hits, sizes = tally(mask, frame.test_y)
        outcomes.append((hits, int(sizes.sum()), int(sizes.size)))
    return outcomes


def _alpha(config: ExperimentConfig, method: str) -> float:
    """The miscoverage level the frames of a method's cells are calibrated at."""
    if config.alpha_halving and method in ("cv", "kcv"):
        return config.alpha / 2.0
    return config.alpha


def _cell_blocks(config: ExperimentConfig) -> list[tuple[int, tuple[str, str, int], list[int]]]:
    """Every cell's frames cut into ``(cost, cell, frame_indices)`` blocks, in
    output order; the cost is the training rows of the block's plans, 0 for
    a block of vacuous plans, which trains nothing.

    A block holds up to ``MAX_STACK // models per frame`` frames (at least
    one) of one cell, so the models of a block train as one stack where
    they fit in one.
    """
    blocks = []
    for cell in experiment_cells(config):
        method, _, n_pilots = cell
        # Plans of one cell all have the shape of a plan on placeholder pilots.
        zeros = np.zeros(n_pilots, dtype=np.int64)
        plan = conformal.fold_plan(method, zeros, zeros, 0, config.k_folds)
        models, rows = len(plan.folds), n_pilots - plan.folds.shape[1]
        if conformal.vacuous(plan, _alpha(config, method)):
            rows = 0
        size = max(1, conformal.MAX_STACK // models)
        for start in range(0, config.n_frames, size):
            frame_indices = list(range(start, min(start + size, config.n_frames)))
            blocks.append((len(frame_indices) * models * rows, cell, frame_indices))
    return blocks


def _pool_outcomes(
    config: ExperimentConfig, blocks, workers: int
) -> list[list[tuple[int, int, int]]]:
    """``_block_job`` of every block on a process pool, submitted longest
    first and returned in block order.

    A worker that dies outright breaks the pool; that fails the run with a
    ``RuntimeError`` naming every block that had not finished.  On any
    failure, blocks not yet started are cancelled.
    """
    # Imported here: the pool module loads multiprocessing, which a serial
    # run and every ``import cpdemod`` would otherwise pay for.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    outcomes = [None] * len(blocks)
    longest_first = sorted(range(len(blocks)), key=lambda i: -blocks[i][0])
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        futures = {pool.submit(_block_job, config, *blocks[i][1:]): i for i in longest_first}
        try:
            for future in as_completed(futures):
                outcomes[futures[future]] = future.result()
        except BrokenProcessPool as exc:
            lost = sorted(i for f, i in futures.items() if not f.done() or f.exception() is not None)
            raise RuntimeError(
                "a pool worker died before these blocks finished: "
                + "; ".join(_describe(*blocks[i][1:]) for i in lost)
            ) from exc
        finally:
            pool.shutdown(cancel_futures=True)
    return outcomes


def experiment_cells(config: ExperimentConfig) -> list[tuple[str, str, int]]:
    """Cells the experiment will run, in output order.

    kcv cells whose pilot count is not divisible by ``k_folds`` are dropped
    with a logged warning; all other combinations are kept.
    """
    cells = []
    for method in config.methods:
        grid = []
        for n in config.n_pilots_grid:
            if method == "kcv" and n % config.k_folds:
                log.warning(
                    "skipping kcv at n_pilots=%d: not divisible by k_folds=%d",
                    n,
                    config.k_folds,
                )
                continue
            grid.append(n)
        for learner in config.learners:
            for n in grid:
                cells.append((method, learner, n))
    return cells


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[MetricsRecord]:
    """Run every cell of the grid and pool metrics per cell.

    ``workers`` is an integer of at least 1; more than one distributes
    blocks of frames over processes, longest first.  Results are identical
    to a serial run because each frame is a pure function of its seed,
    whatever block it runs in.
    """
    workers = integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    blocks = _cell_blocks(config)
    if workers > 1 and len(blocks) > 1:
        by_block = _pool_outcomes(config, blocks, workers)
    else:
        by_block = [_block_job(config, *block[1:]) for block in blocks]
    # Blocks come in cell order, so the pooled cells do too.
    pooled: dict[tuple[str, str, int], list[tuple[int, int, int]]] = {}
    for (_, cell, _), outcomes in zip(blocks, by_block):
        pooled.setdefault(cell, []).extend(outcomes)
    records = []
    for (method, learner, n_pilots), frames in pooled.items():
        hits, size_sum, total = (sum(column) for column in zip(*frames))
        records.append(
            MetricsRecord(
                method=method,
                learner=learner,
                n_pilots=n_pilots,
                alpha=config.alpha,
                coverage=hits / total,
                inefficiency=size_sum / total,
                n_frames=len(frames),
                seed=config.master_seed,
            )
        )
    return records


def _atomic_write(path: str, text: str) -> None:
    # Write to a new sibling file and rename, so readers never see a torn
    # file.  os.open applies the process umask to the mode, as for any new file.
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_csv(records: list[MetricsRecord], path: str) -> None:
    """Write records as CSV (LF line endings, floats to 6 decimal places)."""
    if not records:
        raise ValueError("no records to write")
    lines = [CSV_HEADER]
    for r in records:
        fields = [r.method, r.learner, str(r.n_pilots), f"{r.alpha:.6f}",
                  f"{r.coverage:.6f}", f"{r.inefficiency:.6f}", str(r.n_frames), str(r.seed)]
        lines.append(",".join(fields))
    _atomic_write(path, "\n".join(lines) + "\n")
