"""Set-valued demodulation with conformal calibration over a simulated channel."""

from .channel import QPSK, ChannelParams, Frame, generate_frame
from .conformal import (
    CrossValConformalPredictor,
    NaiveSetPredictor,
    SplitConformalPredictor,
    rank_threshold,
)
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    run_experiment,
    simulate_frame,
    write_csv,
)
from .mlp import (
    GDLearner,
    ModelArch,
    SGLDLearner,
    grad,
    init_weights,
)

__version__ = "0.1.0"
