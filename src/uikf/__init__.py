"""Simultaneous state and unknown-input estimation for continuous-discrete
stochastic systems: a recursive four-step Kalman filter, a one-step filter
for the square case, an unknown-input observer, and an adaptive augmented
Kalman filter, plus a simulation and benchmarking harness.
"""

from .a2kf import A2KFConfig, A2KFState, a2kf_step, innovation_covariance
from .benchmark import benchmark_case, benchmark_model
from .cdekf import NonlinearModel, cd_four_step, propagate_state
from .errors import ConfigError, DimensionError, IllConditionedError, RankConditionError
from .model import DiscretizedModel, SystemModel, discretize, moore_penrose_pinv
from .onestep import equivalence_check, one_step_estimate
from .r4skf import FilterState, StepReport, step
from .sim import ScenarioConfig, ScenarioResult, SignalSpec, generate_truth, rmse, run_scenario
from .uio import ObserverState, observer_step

__version__ = "0.1.0"

__all__ = [
    "A2KFConfig",
    "A2KFState",
    "ConfigError",
    "DimensionError",
    "DiscretizedModel",
    "FilterState",
    "IllConditionedError",
    "NonlinearModel",
    "ObserverState",
    "RankConditionError",
    "ScenarioConfig",
    "ScenarioResult",
    "SignalSpec",
    "StepReport",
    "SystemModel",
    "a2kf_step",
    "benchmark_case",
    "benchmark_model",
    "cd_four_step",
    "discretize",
    "equivalence_check",
    "generate_truth",
    "innovation_covariance",
    "moore_penrose_pinv",
    "observer_step",
    "one_step_estimate",
    "propagate_state",
    "rmse",
    "run_scenario",
    "step",
]
