"""Benchmark of the cpdemod experiment grid, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 0 --seconds 35 --trace 0

Each workload is one ``ExperimentConfig`` run through
``harness.run_experiment``, the call ``cpdemod run`` makes; ``--seed`` becomes
its ``master_seed``.  The same round is repeated for ``--seconds`` seconds.
Throughput and CPU per frame are totals over all rounds: the host's speed
drifts between states lasting seconds to minutes, and totals vary less from
run to run than a median over rounds.  Every round's per-cell outcome
``(hits, size_sum, count)`` is checked against invariants, against round 0,
and against ``bench/reference.json`` when that file holds the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` does the same
untraced rounds, then replays one round frame by frame through the public
calls of ``channel``, ``conformal``, ``mlp`` and ``harness`` with spans
recorded in memory, checks that the replay reproduces the untraced per-cell
outcomes exactly, brackets it with two untraced serial rounds in this process
to price the tracing, writes the spans to ``.bench_out/`` and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the pool workers it forks, so
# that nproc workers do not oversubscribe nproc cores.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "cpdemod" / "__init__.py").is_file():
    sys.exit(f"bench: no cpdemod sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cpdemod.channel import generate_frame  # noqa: E402
from cpdemod.conformal import (  # noqa: E402
    CrossValConformalPredictor,
    NaiveSetPredictor,
    SplitConformalPredictor,
)
from cpdemod.harness import (  # noqa: E402
    LEARNERS,
    ExperimentConfig,
    experiment_cells,
    frame_seed,
    make_constellation,
    run_experiment,
    tally,
    write_csv,
)
from cpdemod.mlp import GDLearner, ModelArch, SGLDLearner, features, grad, init_weights  # noqa: E402
from cpdemod.seeding import derive_rng, hash64  # noqa: E402

NPROC = len(os.sched_getaffinity(0))

# name -> (ExperimentConfig overrides, pool workers).  Frame counts keep one
# round to a few seconds, so that a run holds several rounds.
WORKLOADS = {
    # The default grid, the only workload that runs the process pool:
    # scheduling, stragglers (cv-SGLD at n=60) and aggregation show here.
    "grid": ({"n_frames": 1}, NPROC),
    # cv only, one network per pilot: training is nearly all of the time.
    "loo-train": ({"methods": ("cv",), "n_pilots_grid": (10, 60), "n_frames": 1}, 1),
    # One fit per frame and 5000 payload symbols: scoring and channel
    # simulation dominate, and models are read where loo-train writes them.
    "wide-payload": (
        {"methods": ("naive", "vb"), "n_pilots_grid": (10, 60), "n_test": 5000, "n_frames": 2},
        1,
    ),
}

# The pilot counts every workload runs; per-cell timings are reported for each
# (learner, pilot count) so that every traced run emits the same metric names.
CELL_PILOTS = (10, 60)
CALIBRATED = ("vb", "cv", "kcv")
GRAD_BATCH, GRAD_REPEATS = 200, 9
CSV_REPEATS = 21


def make_config(workload: str, seed: int, **overrides) -> ExperimentConfig:
    return ExperimentConfig(master_seed=seed, **{**WORKLOADS[workload][0], **overrides})


def config_signature(config: ExperimentConfig) -> dict:
    """Everything but the seed, in JSON form; a stored reference must match it."""
    fields = dataclasses.asdict(config)
    del fields["master_seed"]
    return json.loads(json.dumps(fields))


def cell_key(method: str, learner: str, n_pilots: int) -> str:
    return f"{method}.{learner}.{n_pilots}"


# ---------------------------------------------------------------- correctness


def cell_outcomes(records, config: ExperimentConfig) -> dict[str, list[int]]:
    """Integer (hits, size_sum, count) per cell from the pooled records."""
    out = {}
    for r in records:
        count = r.n_frames * config.n_test
        out[cell_key(r.method, r.learner, r.n_pilots)] = [
            round(r.coverage * count),
            round(r.inefficiency * count),
            count,
        ]
    return out


def failing_cells(cells, expected_keys, n_labels: int, reference, baseline) -> set[str]:
    """Cells whose outcome breaks an invariant or disagrees with a reference.

    Invariants: every expected cell is present, coverage lies in [0, 1] and
    mean set size in [0, n_labels].  ``reference`` (stored per seed) and
    ``baseline`` (an earlier round of this run) are optional exact matches.
    """
    bad = set(expected_keys) ^ set(cells)
    for key, (hits, size_sum, count) in cells.items():
        if count < 1 or not 0 <= hits <= count or not 0 <= size_sum <= n_labels * count:
            bad.add(key)
        for other in (reference, baseline):
            if other is not None and other.get(key) != [hits, size_sum, count]:
                bad.add(key)
    return bad


def load_reference(workload: str, seed: int, config: ExperimentConfig):
    """Stored per-cell outcomes for this seed, or None when the seed has none."""
    stored = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if stored is None:
        return None
    if stored["config"] != config_signature(config):
        raise SystemExit(
            f"bench: reference for {workload!r} was made for another config; "
            "run bench/make_reference.py"
        )
    return stored["seeds"].get(str(seed))


# -------------------------------------------------------------------- tracing


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index, frame id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.frame = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), 0, parent, self.frame]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> list[int]:
        """Duration of each span minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


class TimedLearner:
    """Learner proxy that records each ``fit`` as an ``mlp.fit`` span."""

    def __init__(self, learner, tracer: Tracer) -> None:
        self.arch = learner.arch
        self.steps = (
            learner.steps
            if isinstance(learner, GDLearner)
            else learner.burn_in + learner.ensemble_size
        )
        self.fits = 0
        self._learner = learner
        self._tracer = tracer

    def fit(self, X, y, rng):
        self.fits += 1
        with self._tracer.span("mlp.fit"):
            return self._learner.fit(X, y, rng)


def _predictor(method, frame, alpha, learner, k, seed):
    # Mirrors harness.build_predictor, which builds its own learner and so
    # cannot take the timing proxy.
    args = (frame.pilot_x, frame.pilot_y, alpha, learner)
    if method == "naive":
        return NaiveSetPredictor(*args, seed)
    if method == "vb":
        return SplitConformalPredictor(*args, seed=seed)
    return CrossValConformalPredictor(*args, None if method == "cv" else k, seed)


def effective_alpha(config: ExperimentConfig, method: str) -> float:
    """The miscoverage level harness.run_experiment hands to a cell's frames."""
    if config.alpha_halving and method in ("cv", "kcv"):
        return config.alpha / 2.0
    return config.alpha


def traced_round(config: ExperimentConfig, tracer: Tracer):
    """One round composed from public calls the way harness._frame_job is.

    Returns per-cell outcomes and one info dict per frame.
    """
    snr_linear = 10.0 ** (config.snr_db / 10.0)
    cells, frames = {}, []
    for method, learner_name, n_pilots in experiment_cells(config):
        key = cell_key(method, learner_name, n_pilots)
        pooled = [0, 0, 0]
        for frame_index in range(config.n_frames):
            tracer.frame = len(frames)
            with tracer.span("frame"):
                constellation = make_constellation(config.constellation)
                fseed = frame_seed(config.master_seed, method, learner_name, n_pilots, frame_index)
                with tracer.span("channel.generate_frame"):
                    frame = generate_frame(
                        n_pilots, config.n_test, snr_linear, constellation, derive_rng(fseed, 0)
                    )
                arch = ModelArch(output_dim=len(constellation))
                inner = GDLearner(arch) if learner_name == "frequentist" else SGLDLearner(arch)
                learner = TimedLearner(inner, tracer)
                with tracer.span("conformal.calibrate"):
                    predictor = _predictor(
                        method,
                        frame,
                        effective_alpha(config, method),
                        learner,
                        config.k_folds,
                        hash64(fseed, 1),
                    )
                with tracer.span("conformal.predict_mask"):
                    mask = predictor.predict_mask(frame.test_x)
                with tracer.span("harness.tally"):
                    hits, sizes = tally(mask, frame.test_y)
            if sizes.min() < 0 or sizes.max() > len(constellation):
                raise ValueError(f"set size outside [0, {len(constellation)}] in {key}")
            pooled = [pooled[0] + hits, pooled[1] + int(sizes.sum()), pooled[2] + sizes.size]
            frames.append(
                {
                    "cell": key,
                    "learner": learner_name,
                    "n_pilots": n_pilots,
                    "symbols": n_pilots + config.n_test,
                    "payload": config.n_test,
                    "steps": learner.fits * learner.steps,
                    "models": len(getattr(predictor, "models", [None])),
                    "full_sets": int((sizes == len(constellation)).sum()),
                }
            )
        cells[key] = pooled
    return cells, frames


def layer_metrics(tracer: Tracer, frames: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced round."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for (name, _, _, _, _), ns in zip(tracer.spans, own):
        by_name.setdefault(name, []).append(ns)
    frame_wall = [end - start for name, start, end, _, _ in tracer.spans if name == "frame"]
    total = {name: sum(v) for name, v in by_name.items()}
    n = len(frames)
    fits = [ns / 1e6 for ns in by_name.get("mlp.fit", [])]
    payload = sum(f["payload"] for f in frames)
    metrics = {
        "channel.generate_frame_ms": (total["channel.generate_frame"] / n / 1e6, "ms"),
        "channel.us_per_symbol": (
            total["channel.generate_frame"] / sum(f["symbols"] for f in frames) / 1e3,
            "us",
        ),
        "mlp.fits_per_frame": (len(fits) / n, "count"),
        "mlp.fit_ms_p50": (statistics.median(fits), "ms"),
        "mlp.fit_ms_p90": (statistics.quantiles(fits, n=10)[8], "ms"),
        "mlp.fit_share": (total["mlp.fit"] / sum(frame_wall), "ratio"),
        "mlp.step_us": (total["mlp.fit"] / sum(f["steps"] for f in frames) / 1e3, "us"),
        "conformal.calibrate_ms": (total["conformal.calibrate"] / n / 1e6, "ms"),
        "conformal.predict_mask_ms": (total["conformal.predict_mask"] / n / 1e6, "ms"),
        "conformal.us_per_payload_symbol": (total["conformal.predict_mask"] / payload / 1e3, "us"),
        "conformal.models_scored_per_frame": (sum(f["models"] for f in frames) / n, "count"),
        "conformal.full_set_frac": (sum(f["full_sets"] for f in frames) / payload, "ratio"),
        "harness.tally_ms": (total["harness.tally"] / n / 1e6, "ms"),
        "trace.named_share": (1.0 - total["frame"] / sum(frame_wall), "ratio"),
    }
    for learner in LEARNERS:
        for n_pilots in CELL_PILOTS:
            walls = [
                ns / 1e6
                for f, ns in zip(frames, frame_wall)
                if f["learner"] == learner and f["n_pilots"] == n_pilots
            ]
            metrics[f"cell.{learner}.{n_pilots}.frame_ms_p50"] = (statistics.median(walls), "ms")
    return metrics


def cell_table(tracer: Tracer, frames: list[dict]) -> dict[str, float]:
    """Median ms/frame of every (method, learner, n_pilots) cell of the round."""
    walls: dict[str, list[float]] = {}
    spans = (s for s in tracer.spans if s[0] == "frame")
    for f, (_, start, end, _, _) in zip(frames, spans):
        walls.setdefault(f["cell"], []).append((end - start) / 1e6)
    return {key: statistics.median(v) for key, v in walls.items()}


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for name, start, end, parent, frame in tracer.spans:
            handle.write(
                json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "frame": frame}
                )
                + "\n"
            )


# ---------------------------------------------------------------- micro-timing


def time_grad_us(seed: int) -> float:
    """Median µs of one public ``mlp.grad`` on 59 pilots, after a warm-up."""
    frame = generate_frame(60, 1, 10.0 ** 0.5, make_constellation("qpsk"), derive_rng(seed, 0))
    X, y = features(frame.pilot_x)[1:], frame.pilot_y[1:]
    w = init_weights(ModelArch(), derive_rng(seed, 1))
    for _ in range(GRAD_BATCH):
        grad(w, X, y)
    per_call = []
    for _ in range(GRAD_REPEATS):
        start = time.perf_counter_ns()
        for _ in range(GRAD_BATCH):
            grad(w, X, y)
        per_call.append((time.perf_counter_ns() - start) / GRAD_BATCH / 1e3)
    return statistics.median(per_call)


def time_write_csv_ms(records) -> float:
    """Median ms of ``write_csv`` into a temporary directory under .bench_out."""
    OUT_DIR.mkdir(exist_ok=True)
    times = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        path = os.path.join(tmp, "results.csv")
        for _ in range(CSV_REPEATS):
            start = time.perf_counter_ns()
            write_csv(records, path)
            times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def setup_sampler(workload: str):
    """Callable returning the wall time of one fresh interpreter that imports
    cpdemod and builds the workload's config."""
    overrides = json.dumps(WORKLOADS[workload][0])
    code = (
        "import json, cpdemod\n"
        "from cpdemod.harness import ExperimentConfig\n"
        f"ExperimentConfig(**json.loads({overrides!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def sample() -> float:
        # No timeout: with one, the wait polls at up to 50 ms intervals and
        # the poll period, not the start-up, sets the measured time.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    return sample


# ------------------------------------------------------------------ the runs


def cpu_now() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def untraced_rounds(config, workers, seconds, expected, n_labels, reference, setup=None):
    """Repeat the round until ``seconds`` have passed (or one would overrun).

    ``setup``, when given, is sampled once after every round, so that its
    samples spread over the run like the rounds do.  Returns per-round
    timings, the first round's outcomes and records, and the counts of frames
    attempted and failed.
    """
    frames_per_round = len(expected) * config.n_frames
    rounds, first, first_records = [], None, None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall0, (own0, kids0) = time.perf_counter(), cpu_now()
        attempted += frames_per_round
        try:
            records = run_experiment(config, workers)
        except Exception as exc:  # a raising round loses all of its frames
            print(f"round {len(rounds)} raised {exc!r}")
            failed += frames_per_round
            break
        wall = time.perf_counter() - wall0
        own1, kids1 = cpu_now()
        cells = cell_outcomes(records, config)
        bad = failing_cells(cells, expected, n_labels, reference, first)
        failed += config.n_frames * len(bad)
        if bad:
            print(f"round {len(rounds)} failed the check in cells {sorted(bad)}")
        if first is None:
            first, first_records = cells, records
        rounds.append(
            {"wall": wall, "cpu": own1 - own0 + kids1 - kids0, "own": own1 - own0, "kids": kids1 - kids0}
        )
        if setup is not None:
            rounds[-1]["setup"] = setup()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall"] for r in rounds) > seconds:
            break
    return rounds, first, first_records, attempted, failed


def bench(workload: str, seed: int, seconds: float, trace: bool, reference=None, **overrides):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    config = make_config(workload, seed, **overrides)
    workers = WORKLOADS[workload][1]
    n_labels = len(make_constellation(config.constellation))
    expected = [cell_key(*cell) for cell in experiment_cells(config)]
    frames_per_round = len(expected) * config.n_frames
    notes = []

    setup = None if trace else setup_sampler(workload)
    # Warm-up: one start fills the bytecode cache and one tiny round loads
    # every code path before timing starts.
    if setup is not None:
        setup()
    run_experiment(dataclasses.replace(config, n_frames=1, n_pilots_grid=(10,), n_test=10))
    rounds, cells, records, attempted, failed = untraced_rounds(
        config, workers, seconds, expected, n_labels, reference, setup
    )
    notes.append(f"{len(rounds)} rounds of {frames_per_round} frames, {workers} workers")
    for key in ("wall", "cpu", "setup"):
        if rounds and key in rounds[0]:
            notes.append(f"round {key}: " + " ".join(f"{r[key]:.4f}" for r in rounds))
    if cells is None:
        return {}, attempted, failed, notes

    if not trace:
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        frames = frames_per_round * len(rounds)
        metrics = {
            "frames_per_s": (frames / sum(r["wall"] for r in rounds), "1/s"),
            "cpu_s_per_frame": (sum(r["cpu"] for r in rounds) / frames, "s"),
            "setup_s": (statistics.median(r["setup"] for r in rounds), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        return metrics, attempted, failed, notes

    # Tracing cost is priced against untraced rounds that, like the traced
    # one, run serially in this process, so that pool costs on grid do not
    # enter it; one before and one after the traced round cancel slow drift.
    serial_cpu = []

    def check(name, outcome):
        nonlocal attempted, failed
        attempted += frames_per_round
        mismatch = failing_cells(outcome, expected, n_labels, reference, cells)
        if mismatch:
            print(f"{name} round differs from the untraced rounds in cells {sorted(mismatch)}")
        failed += config.n_frames * len(mismatch)

    def serial_round():
        own0, kids0 = cpu_now()
        outcome = cell_outcomes(run_experiment(config, 1), config)
        serial_cpu.append(sum(cpu_now()) - own0 - kids0)
        check("serial", outcome)

    serial_round()
    tracer = Tracer()
    own0, kids0 = cpu_now()
    try:
        traced_cells, frames = traced_round(config, tracer)
    except Exception as exc:
        print(f"traced round raised {exc!r}")
        return {}, attempted + frames_per_round, failed + frames_per_round, notes
    traced_cpu = sum(cpu_now()) - own0 - kids0
    check("traced", traced_cells)
    serial_round()

    metrics = layer_metrics(tracer, frames)
    metrics["conformal.mean_set_size"] = (
        sum(s for _, s, _ in cells.values()) / sum(c for _, _, c in cells.values()),
        "symbols",
    )
    metrics["conformal.coverage_min"] = (
        min(h / c for key, (h, _, c) in cells.items() if key.split(".")[0] in CALIBRATED),
        "ratio",
    )
    metrics["mlp.grad_us"] = (time_grad_us(seed), "us")
    metrics["harness.write_csv_ms"] = (time_write_csv_ms(records), "ms")
    worker_cpu = sum(r["kids"] if workers > 1 else r["own"] for r in rounds)
    metrics["harness.pool_util"] = (
        worker_cpu / (workers * sum(r["wall"] for r in rounds)),
        "ratio",
    )
    metrics["trace.overhead_frac"] = (traced_cpu / statistics.mean(serial_cpu) - 1.0, "ratio")
    spans_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    write_spans(tracer, spans_path)
    notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for key, ms in cell_table(tracer, frames).items():
        notes.append(f"cell {key}: {ms:.3f} ms/frame (p50)")
    if metrics["trace.named_share"][0] < 0.95:
        notes.append("warning: named spans cover less than 95% of traced frame time")
    return metrics, attempted, failed, notes


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc {NPROC}, Python {platform.python_version()}, numpy {np.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')}, "
        f"threads OPENBLAS={os.environ['OPENBLAS_NUM_THREADS']} OMP={os.environ['OMP_NUM_THREADS']}"
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    config = make_config(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed, config)
    print(f"environment: {environment()}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    metrics, attempted, failed, notes = bench(
        args.workload, args.seed, args.seconds, bool(args.trace), reference
    )
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if failed:
        verdict = "FAILED"
    elif reference is None:
        verdict = "unchecked against a reference (none stored for this seed); invariants held"
    else:
        verdict = "passed against the stored reference"
    print(f"check: {verdict}; {failed} of {attempted} frames failed (failed_frac {failed / attempted:.6g})")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
