"""Command line front end: experiment grids, single-frame inspection, selftest."""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import conformal, harness, mlp

#: Environment variable that overrides ``--seed`` when set.
SEED_ENV_VAR = "CONFORMAL_DEMOD_SEED"


def _alpha_arg(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snr-db", type=float, default=5.0, help="SNR in dB")
    parser.add_argument(
        "--constellation",
        choices=sorted(harness._CONSTELLATIONS),
        default="qpsk",
    )
    parser.add_argument("--n-test", type=int, default=100, help="payload symbols per frame")
    parser.add_argument("--alpha", type=_alpha_arg, default=0.1, help="target miscoverage")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


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
        default=[10, 20, 40, 60],
        help="pilot counts to sweep",
    )
    run.add_argument("--n-frames", type=int, default=50, help="frames per cell")
    run.add_argument(
        "--methods", nargs="+", choices=harness.METHODS, default=list(harness.METHODS)
    )
    run.add_argument(
        "--learners", nargs="+", choices=harness.LEARNERS, default=list(harness.LEARNERS)
    )
    run.add_argument("--k", type=int, default=5, help="fold count for kcv")
    run.add_argument(
        "--alpha-halving",
        action="store_true",
        help="run cv/kcv at alpha/2 (trades set size for the stronger guarantee)",
    )
    run.add_argument("--out", default="results.csv", help="CSV output path")
    run.add_argument("--dat", default=None, help="also write a gnuplot .dat here")
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
    frame.add_argument("--k", type=int, default=5, help="fold count for kcv")

    sub.add_parser("selftest", help="run built-in numerical checks")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse CLI arguments; an empty argv means a full default run."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        argv = ["run"]
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if args.command == "run":
        try:
            args.config = harness.ExperimentConfig(
                snr_db=args.snr_db,
                n_pilots_grid=tuple(args.n_pilots),
                n_test=args.n_test,
                n_frames=args.n_frames,
                alpha=args.alpha,
                methods=tuple(args.methods),
                learners=tuple(args.learners),
                k_folds=args.k,
                master_seed=args.seed,
                alpha_halving=args.alpha_halving,
                constellation=args.constellation,
            )
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "frame":
        if args.method != "naive" and args.n_pilots < 2:
            parser.error(f"--method {args.method} needs at least 2 pilots")
        if args.method == "kcv" and (args.k < 2 or args.n_pilots % args.k):
            parser.error(f"{args.n_pilots} pilots cannot be cut into {args.k} equal folds")
    return args


def cmd_run(args: argparse.Namespace) -> int:
    records = harness.run_experiment(args.config, workers=max(1, args.threads))
    if not records:
        print("nothing to run: every requested cell was skipped", file=sys.stderr)
        return 1
    harness.write_csv(records, args.out)
    if args.dat:
        harness.write_dat(records, args.dat)
    for record in records:
        print(
            f"{record.method:>5s} {record.learner:<11s} n={record.n_pilots:<3d} "
            f"coverage={record.coverage:.3f} inefficiency={record.inefficiency:.3f}"
        )
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_frame(args: argparse.Namespace) -> int:
    frame, mask = harness.simulate_frame(
        args.method, args.learner, args.n_pilots, 0, args.snr_db, args.n_test,
        args.alpha, args.k, args.seed, args.constellation,
    )
    hits, sizes = harness.tally(mask, frame.test_y)
    print(
        f"frame: method={args.method} learner={args.learner} "
        f"n_pilots={args.n_pilots} alpha={args.alpha} seed={args.seed}"
    )
    print(
        f"channel: phase={frame.params.phase:.4f} rad, "
        f"amp_imb={frame.params.amp_imb:.4f}, phase_imb={frame.params.phase_imb:.6f} rad"
    )
    for i in range(frame.n_test):
        x = frame.test_x[i]
        labels = np.flatnonzero(mask[i])
        set_text = "{" + ",".join(str(l) for l in labels) + "}"
        covered = "yes" if mask[i, frame.test_y[i]] else "no"
        print(
            f"test {i:03d}: x=({x.real:+.3f},{x.imag:+.3f}) true={frame.test_y[i]} "
            f"set={set_text} covered={covered}"
        )
    print(f"coverage {hits}/{frame.n_test}, mean set size {sizes.mean():.2f}")
    return 0


def _check_gradient() -> bool:
    """Analytic gradient against central finite differences, several seeds.

    The seed list skips draws that park a rectifier input at exactly zero,
    where a two-sided difference quotient straddles the kink and measures the
    average of the one-sided slopes instead of the reported subgradient.
    """
    arch = mlp.ModelArch(input_dim=2, hidden=(5, 4, 3), output_dim=3)
    h = 1e-5
    for seed in (0, 1, 2, 3, 6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, arch.output_dim, size=6)
        w = mlp.init_weights(arch, rng)
        g = mlp.grad(w, X, y)
        for params, grads in ((w.ws, g.ws), (w.bs, g.bs)):
            for arr, garr in zip(params, grads):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = mlp.nll_loss(w, X, y)
                    arr[idx] = orig - h
                    down = mlp.nll_loss(w, X, y)
                    arr[idx] = orig
                    fd = (up - down) / (2.0 * h)
                    rel = abs(garr[idx] - fd) / (abs(garr[idx]) + 1e-8)
                    if rel >= 1e-4:
                        return False
    return True


def _check_quantile() -> bool:
    """Calibrated quantile against a counting oracle on random score sets."""
    rng = np.random.default_rng(20240901)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        alpha = float(rng.uniform(0.01, 0.99))
        if rng.integers(0, 2):
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 5, size=n).astype(float)  # plenty of ties
        # Oracle: smallest element q of scores + [inf] with at least
        # (1 - alpha) * (n + 1) elements at or below it, compared exactly.
        need = (1 - Fraction(alpha)) * (n + 1)
        expected = math.inf
        for q in sorted(scores):
            if sum(1 for r in scores if r <= q) >= need:
                expected = q
                break
        got = conformal.empirical_quantile(scores, alpha)
        if not (got == expected or (math.isinf(got) and math.isinf(expected))):
            return False
    return True


def _check_exchangeable_coverage() -> bool:
    """Split-conformal coverage on i.i.d. scores stays in its exact band."""
    rng = np.random.default_rng(77)
    trials = 100_000
    for n_val, alpha in ((9, 0.1), (19, 0.1), (19, 0.05)):
        draws = rng.standard_normal((trials, n_val + 1))
        val, test = draws[:, :n_val], draws[:, n_val]
        k = conformal.quantile_index(n_val, alpha)
        if k > n_val:
            thresholds = np.full(trials, np.inf)
        else:
            thresholds = np.partition(val, k - 1, axis=1)[:, k - 1]
        coverage = float(np.mean(test <= thresholds))
        low = 1.0 - alpha
        high = 1.0 - alpha + 1.0 / (n_val + 1)
        if not (low - 0.005 <= coverage <= high + 0.005):
            return False
    return True


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = (
        ("gradient_finite_difference", _check_gradient),
        ("empirical_quantile_oracle", _check_quantile),
        ("exchangeable_coverage", _check_exchangeable_coverage),
    )
    failed = []
    for name, check in checks:
        ok = check()
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}")
        return 1
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    handlers = {"run": cmd_run, "frame": cmd_frame, "selftest": cmd_selftest}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
