"""Built-in fourth-order unstable test plant and the three benchmark cases.

The plant has three measured states (1, 2 and 4), two unknown-input
channels entering through the input matrix, and one unstable mode. The
unknown inputs are a 0.5 step on (3, 7] s and a windowed sine of amplitude
0.4 on (2, 6] s. Cases:

  1. baseline, sine frequency 0.5 Hz
  2. fast unknown input, sine frequency 5 Hz
  3. measurement noise covariance scaled by 100
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .a2kf import A2KFConfig
from .model import SystemModel, identity
from .sim import ScenarioConfig, SignalSpec

A_PLANT = np.array(
    [
        [1.9527, -0.0075, 0.0663, 0.0437],
        [0.0017, 1.0452, 0.0056, -0.0242],
        [0.0092, 0.0064, -0.1975, 0.00128],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
B_PLANT = np.array(
    [
        [0.554, 0.156],
        [0.246, -0.982],
        [0.320, 0.560],
        [0.0, 0.0],
    ]
)
C_PLANT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
Q_PLANT = np.diag([1e-6, 1e-6, 1e-6, 1e-6])
R_PLANT = np.diag([1e-7, 1e-7, 1e-7])

DEFAULT_DT = 0.01
DEFAULT_DURATION = 10.0
DEFAULT_SEEDS = tuple(range(1, 21))
# the first-step unknown-input estimate amplifies the 10-per-state initial
# error by roughly 1/dt; a short burn-in keeps RMSEs on the quiescent scale
DEFAULT_RMSE_SKIP = 1.0


def benchmark_model(dt: float = DEFAULT_DT, r_scale: float = 1.0) -> SystemModel:
    """The fourth-order plant with E = B and identity noise shaping."""
    return SystemModel(
        A=A_PLANT,
        B=B_PLANT,
        E=B_PLANT,
        G=identity(4),
        C=C_PLANT,
        Q=Q_PLANT,
        R=R_PLANT * r_scale,
        dt=dt,
    )


def benchmark_signals(f0: float) -> tuple:
    return (
        SignalSpec(kind="step", t_on=3.0, t_off=7.0, amplitude=0.5),
        SignalSpec(kind="windowed_sine", t_on=2.0, t_off=6.0, amplitude=0.4, f0=f0),
    )


def benchmark_case(
    case: int,
    dt: float = DEFAULT_DT,
    duration: float = DEFAULT_DURATION,
    seeds: Optional[Sequence[int]] = None,
    estimators: Sequence[str] = ("r4skf", "a2kf"),
    a2kf_config: A2KFConfig = A2KFConfig(),
    rmse_skip: float = DEFAULT_RMSE_SKIP,
) -> ScenarioConfig:
    """Scenario config for benchmark case 1, 2 or 3."""
    if case not in (1, 2, 3):
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    f0 = 5.0 if case == 2 else 0.5
    r_scale = 100.0 if case == 3 else 1.0
    return ScenarioConfig(
        model=benchmark_model(dt=dt, r_scale=r_scale),
        signals=benchmark_signals(f0),
        duration=duration,
        seeds=DEFAULT_SEEDS if seeds is None else seeds,
        x0_true=np.zeros(4),
        x0_hat=np.full(4, 10.0),
        estimators=estimators,
        a2kf_config=a2kf_config,
        rmse_skip=rmse_skip,
    )
