"""Golden sub-grid: the CSV bytes of a small grid are pinned to a committed file.

``golden_subgrid.csv`` was written by the code before stacked fold training
landed; any change to training, calibration, seeding or the writer that moves
a single result shows up here in seconds, without the full acceptance grid.
"""

from pathlib import Path

from cpdemod.harness import ExperimentConfig, run_experiment, write_csv

GOLDEN = Path(__file__).resolve().parent / "golden_subgrid.csv"


def test_subgrid_csv_matches_golden_bytes(tmp_path):
    config = ExperimentConfig(n_pilots_grid=(10, 20), n_frames=2, n_test=20)
    out = tmp_path / "subgrid.csv"
    write_csv(run_experiment(config), str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
