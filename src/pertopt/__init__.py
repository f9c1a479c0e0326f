"""Zeroth-order stochastic optimization of transmon pulse shapes.

The package pairs simultaneous-perturbation style gradient estimators and
an annealed-momentum Adam with a few-level pulse simulator, calibration
losses, randomized benchmarking, and a reproducible experiment runner.
"""

import types

from .estimators import (
    EstimatorConfig,
    GradientEstimate,
    ObjectiveError,
    estimate_gradient,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    FinalRBConfig,
    ScanConfig,
    SummaryRecord,
    TuneupResult,
    experiment_config_from_dict,
    landscape_scan,
    read_summary_jsonl,
    read_trajectory_csv,
    run_experiment,
    run_single,
    scan_config_from_dict,
    summarize_trajectories,
    tuneup_configs_from_dict,
    two_stage_tuneup,
    write_scan_csv,
    write_summary_jsonl,
    write_trajectory_csv,
)
from .objectives import (
    ObjectiveConfig,
    make_pulse_objective,
    synthetic_objective,
)
from .optimizers import (
    AdamState,
    OptimizationAborted,
    Trajectory,
    TrajectoryRecord,
    adam_step,
    momentum_step,
    run_optimization,
    sgd_step,
)
from .rb import (
    CliffordGroup,
    RBData,
    RBFitError,
    RBFitResult,
    clifford_group,
    fit_rb_decay,
    interleaved_gate_fidelity,
    run_rb,
)
from .schedules import (
    ConditionCheck,
    ScheduleSet,
    validate_schedules,
)
from .transmon import (
    PopulationMeasurement,
    PulseSequence,
    TransmonParams,
    UnitarityError,
    average_gate_fidelity,
    embed_qubit_gate,
    evolve,
    hann_waveform,
    measure_population,
    rotation_unitary,
)

__version__ = "0.1.0"

# the public names imported above; the submodules are not re-exported
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
