"""Truth simulator, unknown-input signal generators, scenario runner and
RMSE metrics.

The truth is integrated by Euler-Maruyama on the same grid and with the
same first-order discretization as the filters, so discretization error
does not confound estimator comparison. All randomness is derived from
explicit seeds; identical config + seed gives bitwise-identical results.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import a2kf, onestep, r4skf
from .a2kf import A2KFConfig
from .errors import ConfigError, IllConditionedError, RankConditionError
from .model import SystemModel, _Constant, moore_penrose_pinv
from .r4skf import matvec

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
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ConfigError("scenario.duration: must be a positive finite number")
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


def _at(model: SystemModel, name: str, args, f=None) -> np.ndarray:
    """The model's matrix `name` evaluated at each of args and stacked (f(M) with
    f given); a matrix given as an array is evaluated once and broadcasts over
    the steps. f runs again only when the value changes, and the evaluated
    matrices are not kept. Step i + 1 reads args[i]: a value that is not finite,
    or whose shape differs from the value at 0, is a ConfigError naming the
    matrix and that step."""
    M = getattr(model, name)
    if isinstance(M, _Constant) or len(args) == 0:
        M0 = np.asarray(M(0), dtype=float)
        return M0 if f is None else f(M0)
    shape = np.shape(M(0))
    out = np.empty((len(args),) + shape)
    for i, a in enumerate(args):
        Mk = np.asarray(M(a), dtype=float)
        if Mk.shape != shape:
            raise ConfigError(f"model.{name}, step {i + 1}: shape {Mk.shape}, but {shape} at 0")
        out[i] = Mk
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not finite.all():
        raise ConfigError(f"model.{name}, step {np.argmin(finite) + 1}: value is not finite")
    if f is not None:                   # f keeps the shape; each value is replaced by its f
        changed = np.concatenate([[True], (out[1:] != out[:-1]).any(axis=(-2, -1))])
        for i in range(len(out)):
            out[i] = f(out[i]) if changed[i] else out[i - 1]
    return out


def simulate(
    model: SystemModel, x0, d: np.ndarray, rng: np.random.Generator, u: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama forward simulation over len(d) steps with
    w ~ N(0, Q/dt), so the discrete process-noise covariance is G Q G^T dt.

    d[k] and u[k] (zero when omitted) drive the step from t_k to t_{k+1}.
    Returns the states x (K+1, n_x), starting at x0, and the measurements
    y (K, n_y), y[k] taken at t_{k+1}.

    Step k draws n_w process-noise then n_y measurement-noise normals; they
    are drawn as one (K, n_w + n_y) block, which is the same stream. The
    noise and input terms are formed before the loop, one gemv per step.
    """
    K = d.shape[0]
    dt, n_x, n_w = model.dt, model.n_x, model.n_w
    if u is None:
        u = np.zeros((K, model.n_u))
    t = [k * dt for k in range(K)]
    z = rng.standard_normal((K, n_w + model.n_y))
    w = matvec(_at(model, "Q", t, cov_factor), z[:, :n_w]) / math.sqrt(dt)
    g = matvec(_at(model, "G", t), w) * dt
    bu = matvec(_at(model, "B", t), u)
    ed = matvec(_at(model, "E", t), d)
    A = np.broadcast_to(_at(model, "A", t), (K, n_x, n_x))

    x = np.zeros((K + 1, n_x))
    x[0] = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            x[k + 1] = x[k] + dt * (A[k] @ x[k] + bu[k] + ed[k]) + g[k]
    diverged = np.flatnonzero(~np.isfinite(x[1:]).all(axis=1))
    if diverged.size:
        exc = FloatingPointError(f"truth diverged to non-finite values at step {diverged[0] + 1}")
        exc.step = int(diverged[0]) + 1
        raise exc
    steps = range(1, K + 1)
    y = matvec(_at(model, "C", steps), x[1:]) + matvec(_at(model, "R", steps, cov_factor), z[:, n_w:])
    return x, y


def generate_truth(config: ScenarioConfig, seed: int) -> TruthTrajectory:
    """Truth trajectory of the scenario's signals, simulated from x0_true."""
    model = config.model
    d = sample_signals(config)
    u = np.zeros((config.n_steps, model.n_u))
    x, y = simulate(model, config.x0_true, d, np.random.default_rng(seed), u)
    return TruthTrajectory(t=np.arange(config.n_steps + 1) * model.dt, x=x, d=d, y=y, u=u)


# Estimator runners, built once per scenario: runner(config) -> (init, step). All seeds
# advance together: init(n) is the state of n seeds, stacked along a leading seed axis, and
# step(state, k, u, y) takes u_k and y_k of every seed, (n, n_u) and (n, n_y), and returns
# (state, row) with row = (x_hat, d_hat, gamma[, per-step covariance diagonal]) of every
# seed after step k + 1. The model terms of a step serve every seed (_per_step). The r4skf,
# uio and onestep runners run r4skf's own kernel (advance, four_step, extract) on the stack,
# so each row is bitwise equal to the per-seed step functions (r4skf.step, a2kf.a2kf_step, ...).
def _per_step(model, build):
    """k -> build(model, k), the model terms of the step from t_k to measurement
    k + 1. A time-invariant model is evaluated once, at the first step: inside
    the step loop, so that an error there is reported with its step."""
    if not model.time_invariant:
        return functools.partial(build, model)
    first = functools.cache(lambda: build(model, 0))
    return lambda _k: first()


def _repeat(value, n: int) -> np.ndarray:
    """value repeated along a new leading seed axis of length n."""
    return np.repeat(np.asarray(value, dtype=float)[None], n, axis=0)


def _r4skf_runner(config):
    start = r4skf.initial_state(config.model, config.x0_hat)
    terms = _per_step(config.model, r4skf.step_terms)

    def step(state, k, u, y):
        try:
            state, _ = r4skf.advance(state, u, y, terms(k))
        except (RankConditionError, IllConditionedError) as exc:
            exc.index = None            # the shared sequence fails for every seed
            raise
        return state, (state.x_hat, state.d_hat, state.gamma, np.diag(state.Pd))

    return (lambda n: replace(start, x_hat=_repeat(start.x_hat, n))), step


def _a2kf_runner(config):
    model, cfg = config.model, config.a2kf_config
    blocks = _per_step(model, lambda m, k: a2kf.step_blocks(m, k * m.dt, k + 1))

    def init(n):
        state = a2kf.initial_state(model, config.x0_hat, cfg=cfg)
        return replace(state, **{f.name: _repeat(getattr(state, f.name), n) for f in fields(state) if f.name != "k"})

    def step(state, k, u, y):
        state, report = a2kf.advance(state, u, y, blocks(k), cfg)
        return state, (state.x_hat, state.d_hat, report.gamma, np.diagonal(state.Qd_hat, axis1=-2, axis2=-1))

    return init, step


def _onestep_runner(config):
    terms = _per_step(config.model, r4skf.step_terms)

    def step(x_prev, k, u, y):
        dm, C, *_, F_d = terms(k)
        _, d_hat, gamma = r4skf.extract(x_prev, u, y, dm, C, F_d)
        x_hat = onestep.one_step_estimate(y, C)
        return x_hat, (x_hat, d_hat, gamma)

    return (lambda n: _repeat(config.x0_hat, n)), step


def _uio_runner(config):
    L = config.uio_gain
    L = np.asarray(moore_penrose_pinv(np.asarray(config.model.C(0), dtype=float)) if L is None else L, dtype=float)
    terms = _per_step(config.model, r4skf.step_terms)

    # observer_step is the four-step recursion with the fixed gain L
    def step(x_hat, k, u, y):
        dm, C, *_, F_d = terms(k)
        _, d_hat, gamma, _, x_hat = r4skf.four_step(x_hat, u, y, dm, C, F_d, L)
        return x_hat, (x_hat, d_hat, gamma)

    return (lambda n: _repeat(config.x0_hat, n)), step


# estimator -> (runner, EstimatorRun field of the per-step diagonal)
_ESTIMATORS = {
    "r4skf": (_r4skf_runner, "Pd_diag"),
    "a2kf": (_a2kf_runner, "Qd_diag"),
    "onestep": (_onestep_runner, None),
    "uio": (_uio_runner, None),
}


def _run_estimator(name: str, config: ScenarioConfig, u: np.ndarray, y: np.ndarray) -> List[EstimatorRun]:
    """Feed the measurements of all seeds, u (n, K, n_u) and y (n, K, n_y), step by step
    to an estimator and record its outputs, one EstimatorRun per seed. An error names
    the estimator, the step, and at that step the first failing seed in config order."""
    init, step = _ESTIMATORS[name][0](config)
    model, K, n = config.model, config.n_steps, len(config.seeds)
    cols = [np.zeros((n, K, m)) for m in (model.n_x, model.n_d, model.n_y, model.n_d)]
    state = init(n)
    try:
        for k in range(K):
            state, row = step(state, k, u[:, k], y[:, k])
            for col, value in zip(cols, row):
                col[:, k] = value
    except (RankConditionError, IllConditionedError) as exc:
        # an error without index comes from a model term every seed shares, so the
        # first seed fails first; index None marks r4skf's shared covariance sequence
        index = getattr(exc, "index", 0)
        if index is None:
            where = f"step {k + 1}, all seeds (shared covariance sequence)"
        else:
            where = f"seed {config.seeds[index]}, step {k + 1}"
        raise type(exc)(f"{name}, {where}: {exc}") from exc
    diag_field = _ESTIMATORS[name][1]
    return [
        EstimatorRun(x_hat=cols[0][i], d_hat=cols[1][i], gamma=cols[2][i], **({diag_field: cols[3][i]} if diag_field else {}))
        for i in range(n)
    ]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Drive every selected estimator over the same per-seed measurement
    streams, all seeds step by step together; RMSEs are aggregated as the
    mean of per-seed RMSEs."""
    model = config.model
    # keep at least one sample when the horizon is shorter than the burn-in
    skip = min(int(round(config.rmse_skip / model.dt)), config.n_steps - 1)
    truths: Dict[int, TruthTrajectory] = {}
    for seed in config.seeds:
        try:
            truths[seed] = generate_truth(config, seed)
        except FloatingPointError as exc:
            raise FloatingPointError(f"truth, seed {seed}, step {exc.step}: diverged to non-finite values") from exc
    u = np.stack([truths[s].u for s in config.seeds])
    y = np.stack([truths[s].y for s in config.seeds])

    runs: Dict[int, Dict[str, EstimatorRun]] = {seed: {} for seed in config.seeds}
    for name in config.estimators:
        for seed, run in zip(config.seeds, _run_estimator(name, config, u, y)):
            runs[seed][name] = run
    rmse_per_seed = {
        seed: {
            name: {
                "x": rmse(run.x_hat[skip:], truths[seed].x[1:][skip:]),
                "d": rmse(run.d_hat[skip:], truths[seed].d[skip:]),
            }
            for name, run in runs[seed].items()
        }
        for seed in config.seeds
    }
    rmse_mean = {
        name: {key: np.mean([rmse_per_seed[s][name][key] for s in config.seeds], axis=0) for key in ("x", "d")}
        for name in config.estimators
    }
    return ScenarioResult(
        config=config,
        truths=truths,
        runs=runs,
        rmse_per_seed=rmse_per_seed,
        rmse_mean=rmse_mean,
    )


def _number_format(n: int) -> str:
    """%-format of n comma-separated values with 6 significant digits, as f"{v:.6g}"."""
    return ",".join(["%.6g"] * n)


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
    K = result.config.n_steps
    columns = [truth.t[1:K + 1, None], truth.x[1:K + 1], run.x_hat, truth.d, run.d_hat]
    if run.Qd_diag is not None:
        header += [f"Qd_diag{j + 1}" for j in range(n_d)]
        columns.append(run.Qd_diag)
    table = np.hstack(columns)
    line = _number_format(table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % tuple(row.tolist()) for row in table)


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
                row = np.hstack([result.rmse_mean[est]["x"], result.rmse_mean[est]["d"]])
                # "%.6g" writes no comma, so the split gives back one field per value
                writer.writerow([case_name, est, *(_number_format(row.size) % tuple(row.tolist())).split(",")])
