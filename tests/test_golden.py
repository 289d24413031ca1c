"""Golden sub-grid: the CSV bytes of a small grid are pinned to a committed file.

``golden_subgrid.csv`` was written by the code before stacked fold training
landed; any change to training, calibration, seeding or the writer that moves
a single result shows up here in seconds, without the full acceptance grid.
"""

import logging
from pathlib import Path

from cpdemod.harness import ExperimentConfig, run_experiment, write_csv
from helpers import GOLDEN_KERNEL, blas_kernel

GOLDEN = Path(__file__).resolve().parent / "golden_subgrid.csv"


def test_subgrid_csv_matches_golden_bytes(tmp_path, caplog):
    config = ExperimentConfig(n_pilots_grid=(10, 20), n_frames=2, n_test=20)
    out = tmp_path / "subgrid.csv"
    with caplog.at_level(logging.WARNING):
        write_csv(run_experiment(config), str(out))
    assert out.read_bytes() == GOLDEN.read_bytes(), (
        f"sub-grid differs from {GOLDEN.name}: this run used the OpenBLAS "
        f"{blas_kernel()} kernel, the golden was made on {GOLDEN_KERNEL}"
    )
    # No model of the sub-grid diverges.
    assert not [r for r in caplog.records if "non-finite" in r.getMessage()]
