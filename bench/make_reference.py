"""Regenerate bench/reference.json, the per-cell outcomes run.py checks against.

Run from the repository root:

    python3 bench/make_reference.py

For every workload and each of seeds 0-99 it stores the config the outcomes
belong to and each cell's pooled ``[hits, size_sum, count]`` from a serial
``harness.run_experiment`` of the current sources.  The file is rewritten
whole.  Regenerate only when a change is meant to alter results (or a
workload's config), and say so.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEEDS = range(100)


def outcomes(job: tuple[str, int]) -> dict[str, list[int]]:
    workload, seed = job
    config = run.make_config(workload, seed)
    return run.cell_outcomes(run.run_experiment(config, workers=1), config)


def main() -> int:
    jobs = [(workload, seed) for workload in run.WORKLOADS for seed in SEEDS]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=run.NPROC, mp_context=context) as pool:
        results = list(pool.map(outcomes, jobs))
    reference = {
        workload: {
            "config": run.config_signature(run.make_config(workload, 0)),
            "seeds": {},
        }
        for workload in run.WORKLOADS
    }
    for (workload, seed), cells in zip(jobs, results):
        reference[workload]["seeds"][str(seed)] = cells
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} outcomes to {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
