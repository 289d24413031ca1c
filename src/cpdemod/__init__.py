"""Set-valued demodulation with conformal calibration over a simulated channel."""

from .channel import (
    ChannelParams,
    Constellation,
    Frame,
    apply_iq_imbalance,
    generate_frame,
    make_qpsk,
    sample_channel_params,
    transmit,
)
from .conformal import (
    CrossValConformalPredictor,
    NaiveSetPredictor,
    SplitConformalPredictor,
    cv_membership,
    empirical_quantile,
    quantile_index,
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
    Ensemble,
    GDLearner,
    ModelArch,
    SGLDLearner,
    Weights,
    grad,
    init_weights,
    nll_loss,
)

__version__ = "0.1.0"
