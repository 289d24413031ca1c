"""Command line front end: experiment grids and single-frame inspection.

Both subcommands are validated by building an ``ExperimentConfig``; a value
it rejects is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness

#: Every option ``ExperimentConfig`` owns takes its default from here, so
#: ``cpdemod run`` with no flags is ``ExperimentConfig()``.
_DEFAULTS = harness.ExperimentConfig()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db", type=float, default=_DEFAULTS.snr_db, help="SNR in dB")
    parser.add_argument(
        "--n-test", type=int, default=_DEFAULTS.n_test, help="payload symbols per frame"
    )
    parser.add_argument("--alpha", type=float, default=_DEFAULTS.alpha, help="target miscoverage")
    parser.add_argument("--seed", type=int, default=_DEFAULTS.master_seed, help="master seed")
    parser.add_argument("--k", type=int, default=_DEFAULTS.k_folds, help="fold count for kcv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdemod",
        description="Set-valued demodulation experiments with conformal calibration.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run the full coverage / set-size grid")
    _add_channel_args(run)
    run.add_argument(
        "--n-pilots",
        type=int,
        nargs="+",
        default=list(_DEFAULTS.n_pilots_grid),
        help="pilot counts to sweep",
    )
    run.add_argument("--n-frames", type=int, default=_DEFAULTS.n_frames, help="frames per cell")
    run.add_argument(
        "--methods", nargs="+", choices=harness.METHODS, default=list(_DEFAULTS.methods)
    )
    run.add_argument(
        "--learners", nargs="+", choices=harness.LEARNERS, default=list(_DEFAULTS.learners)
    )
    run.add_argument(
        "--alpha-halving",
        action="store_true",
        default=_DEFAULTS.alpha_halving,
        help="run cv/kcv at alpha/2 (trades set size for the stronger guarantee)",
    )
    run.add_argument("--out", default="results.csv", help="CSV output path")
    run.add_argument(
        "--threads",
        type=int,
        default=_usable_cpus(),
        help="max parallel block workers (default: the CPUs this process may run on)",
    )

    frame = sub.add_parser("frame", help="inspect the prediction sets of one frame")
    _add_channel_args(frame)
    frame.add_argument("--n-pilots", type=int, default=10)
    frame.add_argument("--method", choices=harness.METHODS, default="cv")
    frame.add_argument("--learner", choices=harness.LEARNERS, default="frequentist")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse CLI arguments; an empty argv means a full default run."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        argv = ["run"]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "frame":
        grid = dict(n_pilots_grid=(args.n_pilots,), n_frames=1,
                    methods=(args.method,), learners=(args.learner,))
    else:
        grid = dict(n_pilots_grid=args.n_pilots, n_frames=args.n_frames, methods=args.methods,
                    learners=args.learners, alpha_halving=args.alpha_halving)
        if args.threads < 1:
            parser.error(f"--threads must be at least 1, got {args.threads}")
        # Fail now, not after the whole grid has run.
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            parser.error(f"no directory to write {args.out!r} into")
        if os.path.isdir(args.out) or not os.path.basename(args.out):
            parser.error(f"--out {args.out!r} names a directory, not a file")
    try:
        args.config = harness.ExperimentConfig(
            snr_db=args.snr_db, n_test=args.n_test, alpha=args.alpha, k_folds=args.k,
            master_seed=args.seed, **grid,
        )
    except ValueError as exc:
        parser.error(str(exc))
    # A grid skips a kcv cell whose pilots do not divide; one frame cannot.
    if args.command == "frame" and args.method == "kcv" and args.n_pilots % args.k:
        parser.error(f"{args.n_pilots} pilots cannot be cut into {args.k} equal folds")
    return args


def cmd_run(args: argparse.Namespace) -> int:
    records = harness.run_experiment(args.config, workers=args.threads)
    if not records:
        print("nothing to run: every requested cell was skipped", file=sys.stderr)
        return 1
    harness.write_csv(records, args.out)
    for record in records:
        print(
            f"{record.method:>5s} {record.learner:<11s} n={record.n_pilots:<3d} "
            f"coverage={record.coverage:.3f} inefficiency={record.inefficiency:.3f}"
        )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_frame(args: argparse.Namespace) -> int:
    frame, mask = harness.simulate_frame(args.config, (args.method, args.learner, args.n_pilots), 0)
    hits, sizes = harness.tally(mask, frame.test_y)
    print(
        f"frame: method={args.method} learner={args.learner} "
        f"n_pilots={args.n_pilots} alpha={args.alpha} seed={args.seed}"
    )
    print(
        f"channel: phase={frame.params.phase:.4f} rad, "
        f"amp_imb={frame.params.amp_imb:.4f}, phase_imb={frame.params.phase_imb:.6f} rad"
    )
    for i in range(len(frame.test_y)):
        x = frame.test_x[i]
        labels = np.flatnonzero(mask[i])
        set_text = "{" + ",".join(str(l) for l in labels) + "}"
        covered = "yes" if mask[i, frame.test_y[i]] else "no"
        print(
            f"test {i:03d}: x=({x.real:+.3f},{x.imag:+.3f}) true={frame.test_y[i]} "
            f"set={set_text} covered={covered}"
        )
    print(f"coverage {hits}/{len(frame.test_y)}, mean set size {sizes.mean():.2f}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    handlers = {"run": cmd_run, "frame": cmd_frame}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
