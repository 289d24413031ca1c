"""Command line behaviour: parsing, validation, and the run and frame subcommands."""

import os
import re
import subprocess
import sys

import pytest

from cpdemod import cli
from cpdemod.cli import main, parse_args
from cpdemod.harness import ExperimentConfig

SET_LINE = re.compile(r"set=\{([0-9,]*)\} covered=(yes|no)")


def _frame_sets(stdout: str) -> list[set[int]]:
    out = []
    for labels, _ in SET_LINE.findall(stdout):
        out.append({int(tok) for tok in labels.split(",") if tok} )
    return out


def test_parse_empty_argv_is_full_default_run(monkeypatch):
    # --seed is the one way to set the seed: no environment variable reaches
    # the config.
    monkeypatch.setenv("CONFORMAL_DEMOD_SEED", "123")
    args = parse_args([])
    assert args.config == ExperimentConfig()
    assert args.command == "run"
    assert args.n_pilots == [10, 20, 40, 60]
    assert args.n_frames == 50
    assert args.alpha == 0.1
    assert args.snr_db == 5.0
    assert args.n_test == 100
    assert args.methods == ["naive", "vb", "cv", "kcv"]
    assert args.learners == ["frequentist", "bayesian"]
    assert args.k == 5
    assert args.out == "results.csv"
    assert args.threads >= 1
    assert not args.alpha_halving
    assert parse_args(["frame"]).config == ExperimentConfig(
        n_pilots_grid=(10,), n_frames=1, methods=("cv",), learners=("frequentist",)
    )


@pytest.mark.parametrize("cpus", [{0}, {0, 2, 5}])
def test_threads_default_follows_cpu_affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert parse_args(["run"]).threads == len(cpus)


@pytest.mark.parametrize("cpus, usable", [(7, 7), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, cpus, usable):
    # Platforms without sched_getaffinity (macOS, Windows) use os.cpu_count(),
    # and a count the platform cannot tell (None) means one CPU.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli._usable_cpus() == usable


def test_parse_overrides():
    args = parse_args(
        ["run", "--n-pilots", "10", "20", "--methods", "cv", "--alpha", "0.2",
         "--seed", "9", "--alpha-halving"]
    )
    assert args.n_pilots == [10, 20]
    assert args.methods == ["cv"]
    assert args.alpha == 0.2
    assert args.seed == 9
    assert args.alpha_halving


@pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.1", "nope"])
def test_parse_rejects_bad_alpha(bad):
    with pytest.raises(SystemExit):
        parse_args(["run", "--alpha", bad])


def test_parse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        parse_args(["calibrate"])


def test_frame_degenerate_cross_val_prints_full_sets(capsys):
    rc = main(["frame", "--n-pilots", "5", "--n-test", "4", "--method", "cv"])
    out = capsys.readouterr().out
    assert rc == 0
    sets = _frame_sets(out)
    assert sets == [{0, 1, 2, 3}] * 4
    assert "coverage 4/4" in out
    assert "mean set size 4.00" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "kcv", "--n-pilots", "7", "--k", "5"],
        ["--method", "kcv", "--n-pilots", "6", "--k", "0"],
        ["--method", "vb", "--n-pilots", "1"],
        ["--n-test", "0"],
        ["--method", "naive", "--n-pilots", "0"],
        ["--snr-db", "nan"],
        ["--snr-db=-inf"],
        ["--method", "cv", "--k", "1"],
        ["--alpha", "1.5"],
        ["--snr-db=4000"],
        ["--snr-db", "1e308"],
        ["--snr-db=-4000"],
        ["--snr-db=-3200"],
        ["--seed", "18446744073709551616"],
        ["--seed=-1"],
    ],
)
def test_frame_rejects_pilot_counts_the_method_cannot_use(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frame", *argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "1"],
        ["--n-frames", "0"],
        ["--n-pilots", "0"],
        ["--n-pilots", "1", "--methods", "vb"],
        ["--n-test", "0"],
        ["--snr-db", "nan"],
        ["--snr-db=-inf"],
        ["--methods", "naive", "naive"],
        ["--n-pilots", "10", "10"],
        ["--learners", "bayesian", "bayesian"],
        ["--snr-db=4000"],
        ["--snr-db", "1e308"],
        ["--snr-db=-4000"],
        ["--snr-db=-3200"],
        ["--seed", "18446744073709551616"],
        ["--seed=-1"],
        ["--threads", "0"],
        ["--threads=-2"],
        ["--out", "{tmp}/missing/x.csv"],
        ["--out", "{tmp}"],
        ["--out", ""],
    ],
)
def test_run_rejects_grid_values_the_config_cannot_use(argv, tmp_path, capsys):
    out = tmp_path / "never.csv"
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n-frames", "1", "--out", str(out), *argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "frame"])
def test_constellation_is_not_an_option(command, capsys):
    # QPSK is the only alphabet, so there is nothing to choose.
    with pytest.raises(SystemExit) as exc:
        parse_args([command, "--constellation", "qpsk"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --constellation" in capsys.readouterr().err


def test_run_has_no_dat_option(tmp_path, capsys):
    # The CSV is the one results file; gnuplot reads it with
    # `set datafile separator ','`.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n-frames", "1", "--out", str(tmp_path / "x.csv"), "--dat", "x.dat"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dat x.dat" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_frame_output_is_deterministic(capsys):
    argv = ["frame", "--n-pilots", "6", "--n-test", "3", "--method", "naive"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_frame_naive_sets_nest_across_alpha(capsys):
    base = ["frame", "--n-pilots", "10", "--n-test", "6", "--method", "naive"]
    main(base + ["--alpha", "0.1"])
    wide = _frame_sets(capsys.readouterr().out)
    main(base + ["--alpha", "0.5"])
    narrow = _frame_sets(capsys.readouterr().out)
    assert len(wide) == len(narrow) == 6
    for small, big in zip(narrow, wide):
        assert small <= big


def test_run_writes_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "r.csv")
    rc = main(
        ["run", "--n-pilots", "5", "--n-frames", "1", "--n-test", "4",
         "--methods", "naive", "vb", "--learners", "frequentist",
         "--out", out_csv, "--threads", "1"]
    )
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "wrote 2 records" in stdout
    with open(out_csv, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 3  # header + 2 cells


def test_run_with_no_runnable_cells_fails(tmp_path, capsys):
    rc = main(
        ["run", "--n-pilots", "9", "--methods", "kcv", "--learners", "frequentist",
         "--n-frames", "1", "--n-test", "2", "--out", str(tmp_path / "x.csv")]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "every requested cell was skipped" in captured.err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cpdemod", "frame", "--n-pilots", "5", "--n-test", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "coverage 2/2" in proc.stdout


def test_cli_module_exposes_entry_point():
    assert callable(cli.main)
