"""Truth simulator, unknown-input signal generators, scenario runner and
RMSE metrics.

The truth is integrated by Euler-Maruyama on the same grid and with the
same first-order discretization as the filters, so discretization error
does not confound estimator comparison. All randomness is derived from
explicit seeds; identical config + seed gives bitwise-identical results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import a2kf, onestep, r4skf, uio
from .a2kf import A2KFConfig
from .errors import ConfigError, IllConditionedError, RankConditionError
from .model import SystemModel, discretize, moore_penrose_pinv

KNOWN_ESTIMATORS = ("r4skf", "a2kf", "onestep", "uio")


@dataclass(frozen=True)
class SignalSpec:
    """Scalar unknown-input signal on a half-open window (t_on, t_off]."""

    kind: str = "zero"              # zero | step | windowed_sine | custom
    t_on: float = 0.0
    t_off: float = 0.0
    amplitude: float = 0.0
    f0: float = 0.0                 # windowed_sine only
    samples: Optional[np.ndarray] = None  # custom: one value per step

    def value(self, t: float, k: Optional[int] = None) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.amplitude if self.t_on < t <= self.t_off else 0.0
        if self.kind == "windowed_sine":
            if self.t_on < t <= self.t_off:
                return self.amplitude * math.sin(2.0 * math.pi * self.f0 * (t - self.t_on))
            return 0.0
        if self.kind == "custom":
            if self.samples is None:
                raise ConfigError("signals: custom signal requires samples")
            idx = min(k if k is not None else 0, len(self.samples) - 1)
            return float(self.samples[idx])
        raise ConfigError(f"signals.kind: unknown signal kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    model: SystemModel
    signals: Sequence[SignalSpec]
    duration: float
    seeds: Sequence[int]
    x0_true: np.ndarray
    x0_hat: np.ndarray
    estimators: Sequence[str] = ("r4skf", "a2kf")
    a2kf_config: A2KFConfig = A2KFConfig()
    uio_gain: Optional[np.ndarray] = None   # defaults to pinv(C)
    rmse_skip: float = 0.0                  # seconds excluded from RMSE at the start

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("scenario.duration: must be positive")
        if self.n_steps == 0:
            raise ConfigError(
                f"scenario.duration: {self.duration} is shorter than one step (dt = {self.model.dt})"
            )
        if len(self.seeds) == 0:
            raise ConfigError("scenario.seeds: at least one seed required")
        if len(self.signals) != self.model.n_d:
            raise ConfigError(
                f"scenario.signals: expected {self.model.n_d} entries, got {len(self.signals)}"
            )
        for name in ("x0_true", "x0_hat"):
            shape = np.shape(getattr(self, name))
            if shape != (self.model.n_x,):
                raise ConfigError(f"scenario.{name}: expected {self.model.n_x} values, got shape {shape}")
        if self.uio_gain is not None and np.shape(self.uio_gain) != (self.model.n_x, self.model.n_y):
            raise ConfigError(
                f"uio.gain: expected shape ({self.model.n_x}, {self.model.n_y}), got {np.shape(self.uio_gain)}"
            )
        for j, spec in enumerate(self.signals):
            if spec.kind == "custom" and spec.samples is not None and len(spec.samples) < self.n_steps:
                raise ConfigError(
                    f"scenario.signals[{j}].samples: {len(spec.samples)} samples for {self.n_steps} steps"
                )
        for name in self.estimators:
            if name not in KNOWN_ESTIMATORS:
                raise ConfigError(f"scenario.estimators: unknown estimator {name!r}")
        if "onestep" in self.estimators and not (
            self.model.n_x == self.model.n_y == self.model.n_d
        ):
            raise ConfigError(
                "scenario.estimators: onestep requires the square case n_x = n_y = n_d"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.model.dt))


@dataclass(frozen=True)
class TruthTrajectory:
    t: np.ndarray          # (K+1,) grid including t0 = 0
    x: np.ndarray          # (K+1, n_x)
    d: np.ndarray          # (K, n_d), d[k] is the value driving step k+1
    y: np.ndarray          # (K, n_y), y[k] is the measurement at t[k+1]
    u: np.ndarray          # (K, n_u)


@dataclass
class EstimatorRun:
    x_hat: np.ndarray                       # (K, n_x), estimate after step k
    d_hat: np.ndarray                       # (K, n_d)
    gamma: np.ndarray                       # (K, n_y)
    Pd_diag: Optional[np.ndarray] = None    # (K, n_d), r4skf only
    Qd_diag: Optional[np.ndarray] = None    # (K, n_d), a2kf only


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    truths: Dict[int, TruthTrajectory]
    runs: Dict[int, Dict[str, EstimatorRun]]            # seed -> estimator -> run
    rmse_per_seed: Dict[int, Dict[str, Dict[str, np.ndarray]]]
    rmse_mean: Dict[str, Dict[str, np.ndarray]]         # estimator -> {"x": .., "d": ..}


def rmse(est: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-channel root mean square error over equal-length series."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"series shapes differ: {est.shape} vs {truth.shape}")
    if est.shape[0] == 0:
        raise ValueError("empty series")
    return np.sqrt(np.mean((est - truth) ** 2, axis=0))


def sample_signals(config: ScenarioConfig) -> np.ndarray:
    """Unknown-input samples d[k] = d(t_k) for k = 0..K-1 (value held over
    the step starting at t_k)."""
    K = config.n_steps
    dt = config.model.dt
    d = np.zeros((K, config.model.n_d))
    for k in range(K):
        t = k * dt
        for j, spec in enumerate(config.signals):
            d[k, j] = spec.value(t, k)
    return d


def cov_factor(M: np.ndarray) -> np.ndarray:
    """Factor S with S S^T = M for sampling; falls back to an eigen
    factorization for semi-definite M."""
    M = np.asarray(M, dtype=float)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        return V * np.sqrt(np.clip(w, 0.0, None))


def simulate(
    model: SystemModel, x0, d: np.ndarray, rng: np.random.Generator, u: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama forward simulation over len(d) steps with
    w ~ N(0, Q/dt), so the discrete process-noise covariance is G Q G^T dt.

    d[k] and u[k] (zero when omitted) drive the step from t_k to t_{k+1}.
    Returns the states x (K+1, n_x), starting at x0, and the measurements
    y (K, n_y), y[k] taken at t_{k+1}.
    """
    K = d.shape[0]
    dt = model.dt
    if u is None:
        u = np.zeros((K, model.n_u))
    x = np.zeros((K + 1, model.n_x))
    x[0] = np.asarray(x0, dtype=float)
    y = np.zeros((K, model.n_y))

    # the last (matrix, factor) pair of Q and of R: refactored only when the model
    # returns a different array object than at the previous step
    last = {"Q": (None, None), "R": (None, None)}

    def factor_of(name: str, M: np.ndarray) -> np.ndarray:
        prev, factor = last[name]
        if M is not prev:
            factor = cov_factor(M)
            last[name] = (M, factor)
        return factor

    for k in range(K):
        t = k * dt
        A = np.asarray(model.A(t), dtype=float)
        B = np.asarray(model.B(t), dtype=float)
        E = np.asarray(model.E(t), dtype=float)
        G = np.asarray(model.G(t), dtype=float)
        Q = np.asarray(model.Q(t), dtype=float)
        w = factor_of("Q", Q) @ rng.standard_normal(model.n_w) / math.sqrt(dt)
        drift = A @ x[k] + B @ u[k] + E @ d[k]
        x[k + 1] = x[k] + dt * drift + G @ w * dt
        if not np.all(np.isfinite(x[k + 1])):
            raise FloatingPointError(
                f"truth diverged to non-finite values at step {k + 1}"
            )
        C = np.asarray(model.C(k + 1), dtype=float)
        R = np.asarray(model.R(k + 1), dtype=float)
        v = factor_of("R", R) @ rng.standard_normal(model.n_y)
        y[k] = C @ x[k + 1] + v
    return x, y


def generate_truth(config: ScenarioConfig, seed: int) -> TruthTrajectory:
    """Truth trajectory of the scenario's signals, simulated from x0_true."""
    model = config.model
    d = sample_signals(config)
    u = np.zeros((config.n_steps, model.n_u))
    x, y = simulate(model, config.x0_true, d, np.random.default_rng(seed), u)
    return TruthTrajectory(t=np.arange(config.n_steps + 1) * model.dt, x=x, d=d, y=y, u=u)


# Estimator runners, built once per scenario: runner(config) -> (init, step); init() is a
# seed's initial state, step(state, k, u_k, y_k) -> (state, row) with row = (x_hat, d_hat,
# gamma[, per-step covariance diagonal]) after step k + 1. On a time-invariant model r4skf
# and a2kf evaluate the model once; r4skf's covariance and gain sequence, which no
# measurement enters, is computed once for all seeds.
def _r4skf_runner(config):
    model = config.model
    init = lambda: r4skf.initial_state(model, config.x0_hat)
    if not model.time_invariant:
        def step(state, k, u, y):
            state, _ = r4skf.step(state, u, y, model)
            return state, (state.x_hat, state.d_hat, state.gamma, np.diag(state.Pd))

        return init, step

    dm = discretize(model, 0.0)
    C, R, Q, G = (np.asarray(M(0), dtype=float) for M in (model.C, model.R, model.Q, model.G))
    P, gains, Pd_diags, k = init().P, [], [], 0
    try:
        F_d = r4skf.unknown_input_gain(C, dm.E_d)
        for k in range(config.n_steps):
            Pd = r4skf.unknown_input_error_cov(P, dm, C, Q, R, F_d, G=G)
            _, K, _, P = r4skf.gain_and_covariance(P, dm, C, Q, R, F_d, G=G)
            gains.append(K)
            Pd_diags.append(np.diag(Pd))
    except (RankConditionError, IllConditionedError) as exc:
        raise type(exc)(f"r4skf, step {k + 1}, all seeds (shared covariance sequence): {exc}") from exc

    def step(x_hat, k, u, y):
        x_star = r4skf.predict_no_input(x_hat, u, dm)
        gamma = y - C @ x_star
        d_hat = F_d @ gamma
        x_hat = r4skf.update(r4skf.predict_with_input(x_star, d_hat, dm), y, gains[k], C)
        return x_hat, (x_hat, d_hat, gamma, Pd_diags[k])

    return (lambda: init().x_hat), step


def _a2kf_runner(config):
    model, cfg = config.model, config.a2kf_config
    if model.time_invariant:
        blocks = a2kf.step_blocks(model, 0.0, 1)
        advance = lambda state, u, y: a2kf.advance(state, u, y, blocks, cfg)
    else:
        advance = lambda state, u, y: a2kf.a2kf_step(state, u, y, model, cfg)

    def step(state, k, u, y):
        state, report = advance(state, u, y)
        return state, (state.x_hat, state.d_hat, report.gamma, np.diag(state.Qd_hat))

    return (lambda: a2kf.initial_state(model, config.x0_hat, cfg=cfg)), step


def _onestep_runner(config):
    model = config.model

    def step(x_prev, k, u, y):
        dm = discretize(model, k * model.dt)
        C = np.asarray(model.C(k + 1), dtype=float)
        d_hat, _, gamma = r4skf.estimate_unknown_input(y, r4skf.predict_no_input(x_prev, u, dm), dm, C)
        x_hat = onestep.one_step_estimate(y, C)
        return x_hat, (x_hat, d_hat, gamma)

    return (lambda: np.asarray(config.x0_hat, dtype=float)), step


def _uio_runner(config):
    model = config.model
    L = config.uio_gain
    L = np.asarray(moore_penrose_pinv(np.asarray(model.C(0), dtype=float)) if L is None else L, dtype=float)

    def step(obs, k, u, y):
        C = np.asarray(model.C(k + 1), dtype=float)
        obs = uio.observer_step(obs, y, u, discretize(model, k * model.dt), C, L)
        return obs, (obs.x_hat, obs.d_hat, y - C @ obs.w)

    return (lambda: uio.initial_observer_state(config.x0_hat, model.n_d)), step


# estimator -> (runner, EstimatorRun field of the per-step diagonal)
_ESTIMATORS = {
    "r4skf": (_r4skf_runner, "Pd_diag"),
    "a2kf": (_a2kf_runner, "Qd_diag"),
    "onestep": (_onestep_runner, None),
    "uio": (_uio_runner, None),
}


def _run_estimator(name: str, runner, config: ScenarioConfig, truth: TruthTrajectory, seed: int) -> EstimatorRun:
    """Feed the truth's measurements one by one to an estimator and record its outputs."""
    init, step = runner
    model, K = config.model, config.n_steps
    cols = [np.zeros((K, n)) for n in (model.n_x, model.n_d, model.n_y, model.n_d)]
    state = init()
    try:
        for k in range(K):
            state, row = step(state, k, truth.u[k], truth.y[k])
            for col, value in zip(cols, row):
                col[k] = value
    except (RankConditionError, IllConditionedError) as exc:
        raise type(exc)(f"{name}, seed {seed}, step {k + 1}: {exc}") from exc
    diag_field = _ESTIMATORS[name][1]
    extra = {diag_field: cols[3]} if diag_field else {}
    return EstimatorRun(x_hat=cols[0], d_hat=cols[1], gamma=cols[2], **extra)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Drive every selected estimator over the same per-seed measurement
    stream; RMSEs are aggregated as the mean of per-seed RMSEs."""
    model = config.model
    # keep at least one sample when the horizon is shorter than the burn-in
    skip = min(int(round(config.rmse_skip / model.dt)), config.n_steps - 1)
    runners = {name: _ESTIMATORS[name][0](config) for name in config.estimators}
    truths: Dict[int, TruthTrajectory] = {}
    runs: Dict[int, Dict[str, EstimatorRun]] = {}
    rmse_per_seed: Dict[int, Dict[str, Dict[str, np.ndarray]]] = {}

    for seed in config.seeds:
        truth = generate_truth(config, seed)
        truths[seed] = truth
        runs[seed] = {}
        rmse_per_seed[seed] = {}
        for name in config.estimators:
            run = _run_estimator(name, runners[name], config, truth, seed)
            runs[seed][name] = run
            rmse_per_seed[seed][name] = {
                "x": rmse(run.x_hat[skip:], truth.x[1:][skip:]),
                "d": rmse(run.d_hat[skip:], truth.d[skip:]),
            }

    rmse_mean: Dict[str, Dict[str, np.ndarray]] = {}
    for name in config.estimators:
        rmse_mean[name] = {
            key: np.mean([rmse_per_seed[s][name][key] for s in config.seeds], axis=0)
            for key in ("x", "d")
        }
    return ScenarioResult(
        config=config,
        truths=truths,
        runs=runs,
        rmse_per_seed=rmse_per_seed,
        rmse_mean=rmse_mean,
    )


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_timeseries_csv(path, result: ScenarioResult, estimator: str, seed: Optional[int] = None):
    """One row per step: t, truth state, estimate, truth input, input
    estimate, and for the a2kf the Q^d diagonal."""
    if seed is None:
        seed = result.config.seeds[0]
    truth = result.truths[seed]
    run = result.runs[seed][estimator]
    model = result.config.model
    n_x, n_d = model.n_x, model.n_d
    header = (
        ["t"]
        + [f"x_true{i + 1}" for i in range(n_x)]
        + [f"x_hat{i + 1}" for i in range(n_x)]
        + [f"d_true{j + 1}" for j in range(n_d)]
        + [f"d_hat{j + 1}" for j in range(n_d)]
    )
    if run.Qd_diag is not None:
        header += [f"Qd_diag{j + 1}" for j in range(n_d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(result.config.n_steps):
            row = [_fmt(truth.t[k + 1])]
            row += [_fmt(v) for v in truth.x[k + 1]]
            row += [_fmt(v) for v in run.x_hat[k]]
            row += [_fmt(v) for v in truth.d[k]]
            row += [_fmt(v) for v in run.d_hat[k]]
            if run.Qd_diag is not None:
                row += [_fmt(v) for v in run.Qd_diag[k]]
            writer.writerow(row)


def write_summary_csv(path, results: Dict[str, ScenarioResult]):
    """Summary table: one row per (case, estimator), per-channel RMSEs."""
    first = next(iter(results.values()))
    model = first.config.model
    header = (
        ["case", "estimator"]
        + [f"x{i + 1}" for i in range(model.n_x)]
        + [f"d{j + 1}" for j in range(model.n_d)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for case_name, result in results.items():
            for est in result.config.estimators:
                row = [case_name, est]
                row += [_fmt(v) for v in result.rmse_mean[est]["x"]]
                row += [_fmt(v) for v in result.rmse_mean[est]["d"]]
                writer.writerow(row)
