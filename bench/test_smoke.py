"""Smoke test of the benchmark itself, on tiny versions of every workload.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {"n_frames": 1, "n_test": 20, "n_pilots_grid": (10, 60)}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_named_metric(workload, trace):
    metrics, attempted, failed, _ = run.bench(workload, 3, 0, trace, **TINY)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    assert attempted > 0 and failed == 0
    assert all(value == value for value, _ in metrics.values())


def test_reference_with_one_hit_altered_is_a_failure():
    config = run.make_config("wide-payload", 3, **TINY)
    reference = run.cell_outcomes(run.run_experiment(config), config)
    assert run.bench("wide-payload", 3, 0, False, reference, **TINY)[2] == 0
    key = sorted(reference)[0]
    reference[key] = [reference[key][0] + 1, *reference[key][1:]]
    assert run.bench("wide-payload", 3, 0, False, reference, **TINY)[2] == config.n_frames


def test_command_prints_the_result_as_its_last_line(capsys):
    assert run.main(["--workload", "wide-payload", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
