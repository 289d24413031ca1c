"""Set-valued demodulation with conformal calibration over a simulated channel."""

from .channel import (
    ChannelParams,
    Constellation,
    Frame,
    generate_frame,
    make_qpsk,
)
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
