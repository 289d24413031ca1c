"""Frame-level experiment loop: pooled coverage and mean set size per cell.

A cell is one (method, learner, n_pilots) combination.  Each cell simulates
``n_frames`` independent frames, demodulates the payload with the requested
set predictor, and pools hits and set sizes over all frames.  Every frame owns
a seed derived from (master seed, method, learner, n_pilots, frame index), so
cells and frames can be computed in any order, serially or in parallel, with
identical results.

The unit of work is a block: up to ``MAX_STACK // models per frame`` frames
of one cell, whose models all train in one stacked fit.  A pool runs the
blocks longest first and the outcomes are put back in cell order.
"""

from __future__ import annotations

import logging
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import conformal
from .channel import Constellation, Frame, generate_frame, make_qpsk
from .mlp import GDLearner, ModelArch, SGLDLearner, Workspace
from .seeding import derive_rng, hash64

log = logging.getLogger(__name__)

METHODS = ("naive", "vb", "cv", "kcv")
LEARNERS = ("frequentist", "bayesian")
# Stable integer ids folded into frame seeds; changing them changes results.
_METHOD_ID = {m: i for i, m in enumerate(METHODS)}
_LEARNER_ID = {l: i for i, l in enumerate(LEARNERS)}

CSV_HEADER = "method,learner,n_pilots,alpha,coverage,inefficiency,n_frames,seed"

_CONSTELLATIONS = {"qpsk": make_qpsk}


def make_constellation(name: str) -> Constellation:
    try:
        return _CONSTELLATIONS[name]()
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


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
    constellation: str = "qpsk"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_pilots_grid", tuple(int(n) for n in self.n_pilots_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "learners", tuple(self.learners))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
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
        make_constellation(self.constellation)


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
    """Seed owned by one frame of one cell; stable across versions."""
    return hash64(
        master_seed, _METHOD_ID[method], _LEARNER_ID[learner], n_pilots, frame_index
    )


def _make_learner(name: str, n_labels: int):
    arch = ModelArch(input_dim=2, hidden=(16, 16, 16), output_dim=n_labels)
    if name == "frequentist":
        return GDLearner(arch)
    if name == "bayesian":
        return SGLDLearner(arch)
    raise ValueError(f"unknown learner {name!r}")


def _plan(method: str, pilot_x, pilot_y, k: int, seed: int) -> conformal.FoldPlan:
    """The fold plan of a method on a frame's pilots."""
    if method == "naive":
        return conformal.naive_plan(pilot_x, pilot_y, seed)
    if method == "vb":
        return conformal.split_plan(pilot_x, pilot_y, seed=seed)
    if method in ("cv", "kcv"):
        return conformal.cross_val_plan(pilot_x, pilot_y, None if method == "cv" else k, seed)
    raise ValueError(f"unknown method {method!r}")


def tally(mask: np.ndarray, y_true: np.ndarray) -> tuple[int, np.ndarray]:
    """Hits (true label in set) and per-point set sizes from a membership mask.

    Empty sets are legal; they simply cannot score a hit.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    hits = int(mask[np.arange(len(y_true)), y_true].sum())
    sizes = mask.sum(axis=1).astype(np.int64)
    return hits, sizes


@contextmanager
def _naming(jobs):
    """Re-raise an error as a ``RuntimeError`` that names the frame jobs it hit."""
    try:
        yield
    except Exception as exc:
        names = ", ".join(repr(job) for job in jobs)
        raise RuntimeError(f"frame job {names} failed: {exc!r}") from exc


def _simulate_block(jobs) -> list[tuple[Frame, np.ndarray]]:
    """Frames of one cell end to end, each job being ``simulate_frame``'s
    arguments; the jobs differ only in their frame index.

    Every frame is generated from its own seed and planned; then all models
    of the block train together (``conformal.fit_plans``), and each frame is
    calibrated and scored in one workspace shared across the block.  A frame
    whose generation, plan, calibration or scoring raises fails with a
    ``RuntimeError`` naming its job; a failed fit names every job of the block.
    """
    frames, plans = [], []
    for job in jobs:
        method, learner, n_pilots, frame_index, snr_db, n_test, _, k, master_seed, const = job
        with _naming([job]):
            fseed = frame_seed(master_seed, method, learner, n_pilots, frame_index)
            frame = generate_frame(
                n_pilots, n_test, 10.0 ** (snr_db / 10.0), make_constellation(const),
                derive_rng(fseed, 0),
            )
            frames.append(frame)
            plans.append(_plan(method, frame.pilot_x, frame.pilot_y, k, hash64(fseed, 1)))
    with _naming(jobs):
        learner = _make_learner(jobs[0][1], len(make_constellation(jobs[0][9])))
        fitted = conformal.fit_plans(learner, plans)
    workspace = Workspace()
    masks = []
    for job, frame, plan, models in zip(jobs, frames, plans, fitted):
        with _naming([job]):
            predictor = conformal.calibrate(plan, models, job[6], workspace)
            masks.append(predictor.predict_mask(frame.test_x))
    return list(zip(frames, masks))


def simulate_frame(
    method: str,
    learner: str,
    n_pilots: int,
    frame_index: int,
    snr_db: float,
    n_test: int,
    alpha: float,
    k: int,
    master_seed: int,
    constellation: str,
) -> tuple[Frame, np.ndarray]:
    """One frame of a cell end to end: the simulated frame and the membership
    mask of its payload.  A pure function of its arguments; the frame draws
    its channel from ``(frame_seed, 0)`` and its plan is seeded by
    ``hash64(frame_seed, 1)``.  It is a block of one frame, so it gives the
    same bits as the frame gets in any block of its cell."""
    job = (method, learner, n_pilots, frame_index, snr_db, n_test, alpha, k,
           master_seed, constellation)
    return _simulate_block([job])[0]


def _block_job(jobs) -> list[tuple[int, int, int]]:
    """(hits, set size sum, payload count) of every frame of a block."""
    outcomes = []
    for frame, mask in _simulate_block(jobs):
        hits, sizes = tally(mask, frame.test_y)
        outcomes.append((hits, int(sizes.sum()), int(sizes.size)))
    return outcomes


def _cell_blocks(config: ExperimentConfig) -> list[tuple[int, list[tuple]]]:
    """Every cell's frame jobs cut into blocks, in output order, each with its
    expected cost (the training rows of its plans).

    A block holds up to ``MAX_STACK // models per frame`` frames (at least
    one) of one cell, so the models of a block train as one stack where
    they fit in one.
    """
    blocks = []
    for method, learner, n_pilots in experiment_cells(config):
        eff_alpha = (
            config.alpha / 2.0
            if config.alpha_halving and method in ("cv", "kcv")
            else config.alpha
        )
        jobs = [
            (method, learner, n_pilots, frame_index, config.snr_db, config.n_test,
             eff_alpha, config.k_folds, config.master_seed, config.constellation)
            for frame_index in range(config.n_frames)
        ]
        # Plans of one cell all have the shape of a plan on placeholder pilots.
        zeros = np.zeros(n_pilots, dtype=np.int64)
        models, rows = _plan(method, zeros, zeros, config.k_folds, 0).train.shape
        size = max(1, conformal.MAX_STACK // models)
        for start in range(0, len(jobs), size):
            block = jobs[start : start + size]
            blocks.append((len(block) * models * rows, block))
    return blocks


def _describe(jobs) -> str:
    return f"cell {jobs[0][:3]!r} frames {[job[3] for job in jobs]}"


def _pool_outcomes(blocks, workers: int) -> list[list[tuple[int, int, int]]]:
    """``_block_job`` of every block on a process pool, submitted longest
    first and returned in block order.

    A worker that dies outright breaks the pool; that fails the run with a
    ``RuntimeError`` naming every block that had not finished.  On any
    failure, blocks not yet started are cancelled.
    """
    outcomes = [None] * len(blocks)
    longest_first = sorted(range(len(blocks)), key=lambda i: -blocks[i][0])
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        futures = {pool.submit(_block_job, blocks[i][1]): i for i in longest_first}
        try:
            for future in as_completed(futures):
                outcomes[futures[future]] = future.result()
        except BrokenProcessPool as exc:
            lost = sorted(i for f, i in futures.items() if not f.done() or f.exception() is not None)
            raise RuntimeError(
                "a pool worker died before these blocks finished: "
                + "; ".join(_describe(blocks[i][1]) for i in lost)
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

    ``workers > 1`` distributes blocks of frames over processes, longest
    first; results are identical to a serial run because each frame is a
    pure function of its seed, whatever block it runs in.
    """
    cells = experiment_cells(config)
    blocks = _cell_blocks(config)
    if workers > 1 and len(blocks) > 1:
        by_block = _pool_outcomes(blocks, workers)
    else:
        by_block = [_block_job(jobs) for _, jobs in blocks]
    outcomes = [frame for block in by_block for frame in block]
    records = []
    for idx, (method, learner, n_pilots) in enumerate(cells):
        chunk_out = outcomes[idx * config.n_frames : (idx + 1) * config.n_frames]
        hits = sum(h for h, _, _ in chunk_out)
        size_sum = sum(s for _, s, _ in chunk_out)
        total = sum(c for _, _, c in chunk_out)
        records.append(
            MetricsRecord(
                method=method,
                learner=learner,
                n_pilots=n_pilots,
                alpha=config.alpha,
                coverage=hits / total,
                inefficiency=size_sum / total,
                n_frames=config.n_frames,
                seed=config.master_seed,
            )
        )
    return records


def _atomic_write(path: str, text: str) -> None:
    # Write to a sibling temp file and rename, so readers never see a torn file.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _format_record(record: MetricsRecord) -> list[str]:
    return [
        record.method,
        record.learner,
        str(record.n_pilots),
        f"{record.alpha:.6f}",
        f"{record.coverage:.6f}",
        f"{record.inefficiency:.6f}",
        str(record.n_frames),
        str(record.seed),
    ]


def write_csv(records: list[MetricsRecord], path: str) -> None:
    """Write records as CSV (LF line endings, floats to 6 decimal places)."""
    if not records:
        raise ValueError("no records to write")
    lines = [CSV_HEADER]
    lines.extend(",".join(_format_record(r)) for r in records)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_dat(records: list[MetricsRecord], path: str) -> None:
    """Write records whitespace-separated for gnuplot, same column order."""
    if not records:
        raise ValueError("no records to write")
    lines = ["# " + CSV_HEADER.replace(",", " ")]
    lines.extend(" ".join(_format_record(r)) for r in records)
    _atomic_write(path, "\n".join(lines) + "\n")
