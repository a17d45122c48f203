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
import numbers
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import a2kf, onestep, r4skf
from .a2kf import A2KFConfig
from .errors import ESTIMATOR_FAILURES, ConfigError
from .model import SystemModel, cov_factor, moore_penrose_pinv, read_number, read_only
from .r4skf import matvec

SIGNAL_KINDS = ("zero", "step", "windowed_sine", "custom")


@dataclass(frozen=True)
class SignalSpec:
    """Scalar unknown-input signal on a half-open window (t_on, t_off].

    kind is one of SIGNAL_KINDS, and custom needs samples, a flat array. Every
    value must be a finite number, kept as a float. A violation is a
    ConfigError naming the field. samples is kept as a read-only copy."""

    kind: str = "zero"              # one of SIGNAL_KINDS
    t_on: float = 0.0
    t_off: float = 0.0
    amplitude: float = 0.0
    f0: float = 0.0                 # windowed_sine only
    samples: Optional[np.ndarray] = None  # custom: one value per step

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ConfigError(f"kind: unknown kind {self.kind!r}, expected one of {SIGNAL_KINDS}")
        if self.kind == "custom" and self.samples is None:
            raise ConfigError("samples: required for kind=custom")
        for name in ("t_on", "t_off", "amplitude", "f0"):
            object.__setattr__(self, name, read_number(getattr(self, name), name))
        if self.samples is not None:
            samples = read_only(self.samples, "samples")
            if samples.ndim != 1:
                raise ConfigError(f"samples: expected a flat array, got ndim={samples.ndim}")
            finite = np.isfinite(samples)
            if not finite.all():
                raise ConfigError(f"samples: sample {int(np.argmin(finite))} is not finite")
            object.__setattr__(self, "samples", samples)

    def value(self, t: float, k: Optional[int] = None) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.amplitude if self.t_on < t <= self.t_off else 0.0
        if self.kind == "windowed_sine":
            if self.t_on < t <= self.t_off:
                return self.amplitude * math.sin(2.0 * math.pi * self.f0 * (t - self.t_on))
            return 0.0
        idx = min(k if k is not None else 0, len(self.samples) - 1)     # custom
        return float(self.samples[idx])


def _sequence(value, field: str) -> tuple:
    """The items of value, which must be an iterable other than a str."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ConfigError(f"scenario.{field}: must be a list, got {type(value).__name__}")


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
        if not isinstance(self.model, SystemModel):
            raise ConfigError(f"scenario.model: must be a SystemModel, got {type(self.model).__name__}")
        for name in ("signals", "seeds", "estimators"):
            object.__setattr__(self, name, _sequence(getattr(self, name), name))
        object.__setattr__(self, "duration", read_number(self.duration, "scenario.duration", "positive"))
        # numpy sizes an array only when its bytes fit an intp: the steps times the widest per-step row of one seed
        # (its state, input, noise, measurement or estimate, the time, a value of a callable matrix); an inf included
        m = self.model
        matrices = [getattr(m, name) for name in "ABEGQCR"]
        row = 8 * max(1, m.n_x, m.n_u, m.n_d, m.n_w + m.n_y, *(math.prod(M.shape) for M in matrices if hasattr(M, "fn")))
        if not self.duration / m.dt * row < np.iinfo(np.intp).max:
            raise ConfigError(f"scenario.duration: {self.duration} is more steps of dt = {m.dt} than an array of {row} bytes per step can hold")
        if self.n_steps == 0:
            raise ConfigError(
                f"scenario.duration: {self.duration} is shorter than one step (dt = {self.model.dt})"
            )
        if not self.seeds or not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) and s >= 0
                                     for s in self.seeds):      # np.random.default_rng refuses a negative seed
            raise ConfigError(f"scenario.seeds: must be a non-empty list of non-negative integers, got {list(self.seeds)}")
        if not self.estimators:
            raise ConfigError("scenario.estimators: must be a non-empty list")
        for key, values in (("seeds", self.seeds), ("estimators", self.estimators)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"scenario.{key}: {value!r} is repeated")
        if len(self.signals) != self.model.n_d:
            raise ConfigError(
                f"scenario.signals: expected {self.model.n_d} entries, got {len(self.signals)}"
            )
        given = {"x0_true": "scenario.x0_true", "x0_hat": "scenario.x0_hat", "uio_gain": "uio.gain"}
        for name, field in given.items():       # only uio_gain may be None
            if name != "uio_gain" or self.uio_gain is not None:
                object.__setattr__(self, name, read_only(getattr(self, name), field))
        for name in ("x0_true", "x0_hat"):
            shape = getattr(self, name).shape
            if shape != (self.model.n_x,):
                raise ConfigError(f"scenario.{name}: expected {self.model.n_x} values, got shape {shape}")
        if self.uio_gain is not None and self.uio_gain.shape != (self.model.n_x, self.model.n_y):
            raise ConfigError(
                f"uio.gain: expected shape ({self.model.n_x}, {self.model.n_y}), got {self.uio_gain.shape}"
            )
        for name, field in given.items():
            if getattr(self, name) is not None and not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{field}: values must be finite")
        object.__setattr__(self, "rmse_skip", read_number(self.rmse_skip, "scenario.rmse_skip", ">= 0"))
        for j, spec in enumerate(self.signals):
            if spec.kind == "custom" and spec.samples is not None and len(spec.samples) < self.n_steps:
                raise ConfigError(
                    f"scenario.signals[{j}].samples: {len(spec.samples)} samples for {self.n_steps} steps"
                )
        for name in self.estimators:
            if not (isinstance(name, str) and name in _ESTIMATORS):     # a list or dict is not hashable
                raise ConfigError(f"scenario.estimators: unknown estimator {name!r}")
        if "onestep" in self.estimators and not onestep.is_square(self.model):
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
    """Per-channel root mean square error over equal-length series, the
    steps on axis -2; leading axes (one series per seed) are kept."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"series shapes differ: {est.shape} vs {truth.shape}")
    if est.shape[-2] == 0:
        raise ValueError("empty series")
    return np.sqrt(np.mean((est - truth) ** 2, axis=-2))


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


def _at(model: SystemModel, name: str, args, f=None) -> np.ndarray:
    """The model's matrix `name` evaluated at each of args and stacked (f(M) with
    f given); a matrix given as an array is evaluated once and broadcasts over
    the steps. f runs again only when the value changes, and the evaluated
    matrices are not kept. Step i + 1 reads args[i]: the matrix itself refuses a
    value of another kind or shape than at 0 (SystemModel); a value that is not
    finite or that f refuses with a ValueError is a ConfigError naming the
    matrix and that step."""
    M = getattr(model, name)
    if hasattr(M, "arr") or len(args) == 0:
        return M(0) if f is None else f(M(0))
    out = np.fromiter((M(a) for a in args), (float, M.shape), len(args))       # one value alive at a time
    finite = np.isfinite(out).all(axis=(-2, -1))
    if not finite.all():
        raise ConfigError(f"model.{name}, step {np.argmin(finite) + 1}: value is not finite")
    if f is not None:                   # f keeps the shape; each value is replaced by its f
        changed = np.concatenate([[True], (out[1:] != out[:-1]).any(axis=(-2, -1))])
        for i in range(len(out)):
            try:
                out[i] = f(out[i]) if changed[i] else out[i - 1]
            except ValueError as exc:       # np.linalg.LinAlgError included
                raise ConfigError(f"model.{name}, step {i + 1}: {exc}") from exc
    return out


def simulate(
    model: SystemModel, x0, d: np.ndarray, rngs: Sequence[np.random.Generator], u: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama forward simulation over len(d) steps with
    w ~ N(0, Q/dt), so the discrete process-noise covariance is G Q G^T dt.

    d[k] and u[k] (zero when omitted) drive the step from t_k to t_{k+1}.
    rngs holds one np.random.Generator per seed; the seeds share d, u and
    every model matrix, evaluated once. Returns the states x (S, K+1, n_x),
    starting at x0, and the measurements y (S, K, n_y), y[:, k] taken at
    t_{k+1}, for the S seeds.

    Step k draws n_w process-noise then n_y measurement-noise normals; each
    seed draws them as one (K, n_w + n_y) block, which is the same stream. The
    noise and input terms are formed before the loop, one gemv per step and
    seed. A truth that leaves the finite numbers raises a FloatingPointError
    with the position of the first such seed as ``index`` and its first bad
    step as ``step``.
    """
    K = d.shape[0]
    dt, n_x, n_w, n_z = model.dt, model.n_x, model.n_w, model.n_w + model.n_y
    if u is None:
        u = np.zeros((K, model.n_u))
    t = [k * dt for k in range(K)]
    z = np.stack([r.standard_normal((K, n_z)) for r in rngs])
    w = matvec(_at(model, "Q", t, cov_factor), z[..., :n_w]) / math.sqrt(dt)
    g = matvec(_at(model, "G", t), w) * dt
    bu = matvec(_at(model, "B", t), u)
    ed = matvec(_at(model, "E", t), d)
    A = np.broadcast_to(_at(model, "A", t), (K, n_x, n_x))

    x = np.zeros((len(z), K + 1, n_x))
    x[..., 0, :] = np.asarray(x0, dtype=float)
    xs, gs = np.moveaxis(x, -2, 0), np.moveaxis(g, -2, 0)      # step-major views
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            xs[k + 1] = xs[k] + dt * (matvec(A[k], xs[k]) + bu[k] + ed[k]) + gs[k]
    diverged = ~np.isfinite(x[:, 1:]).all(axis=-1)     # (seeds, K)
    if diverged.any():
        i = int(np.argmax(diverged.any(axis=1)))
        step = int(np.argmax(diverged[i])) + 1
        exc = FloatingPointError(f"truth diverged to non-finite values at step {step}")
        exc.index, exc.step = i, step
        raise exc
    steps = range(1, K + 1)
    Cx = matvec(_at(model, "C", steps), x[..., 1:, :])
    y = Cx + matvec(_at(model, "R", steps, lambda R: cov_factor(R, definite=True)), z[..., n_w:])
    return x, y


def _truths(config: ScenarioConfig, seeds: Sequence[int]) -> Dict[int, TruthTrajectory]:
    """The truth of each seed, simulated from x0_true with its own
    default_rng(seed) in one call of simulate, on signals sampled once. A truth
    that leaves the finite numbers is a FloatingPointError naming the first such
    seed and its first bad step."""
    model, K = config.model, config.n_steps
    d = sample_signals(config)
    u = np.zeros((len(seeds), K, model.n_u))
    try:
        x, y = simulate(model, config.x0_true, d, [np.random.default_rng(s) for s in seeds], u[0])
    except FloatingPointError as exc:
        raise FloatingPointError(f"truth, seed {seeds[exc.index]}, step {exc.step}: diverged to non-finite values") from exc
    t = np.arange(K + 1) * model.dt
    return {seed: TruthTrajectory(t=t, x=x[i], d=d, y=y[i], u=u[i]) for i, seed in enumerate(seeds)}


def generate_truth(config: ScenarioConfig, seed: int) -> TruthTrajectory:
    """Truth trajectory of the scenario's signals for one seed, as run_scenario
    simulates it."""
    return _truths(config, [seed])[seed]


# Estimator runners, built once per scenario: runner(config) -> (init, step). All seeds advance
# together: init(n) is the state of n seeds, stacked along a leading seed axis, and
# step(state, terms, u, y) takes the StepTerms of step k, which run_scenario reads once per step
# through r4skf.step_terms and hands to every runner, and u_k and y_k of every seed, (n, n_u) and
# (n, n_y). It returns (state, row) with row = (x_hat, d_hat, gamma[, per-step covariance
# diagonal]) of every seed after step k + 1. No step reads the model. Each runner runs the kernel
# of its step function (r4skf.advance, four_step, extract, a2kf.advance) on the stack, so each row
# is bitwise equal to the per-seed step functions (r4skf.step, a2kf.a2kf_step, ...).
def _repeat(value, n: int) -> np.ndarray:
    """value repeated along a new leading seed axis of length n."""
    return np.repeat(np.asarray(value, dtype=float)[None], n, axis=0)


def _r4skf_runner(config):
    start = r4skf.initial_state(config.model, config.x0_hat)

    def step(state, terms, u, y):
        state, _ = r4skf.advance(state, u, y, terms)
        return state, (state.x_hat, state.d_hat, state.gamma, state.Pd.diagonal())

    return (lambda n: replace(start, x_hat=_repeat(start.x_hat, n))), step


def _a2kf_runner(config):
    cfg = config.a2kf_config

    def init(n):
        state = a2kf.initial_state(config.model, config.x0_hat, cfg=cfg)
        return replace(state, **{f.name: _repeat(getattr(state, f.name), n) for f in fields(state) if f.name != "k"})

    def step(state, terms, u, y):
        state, report = a2kf.advance(state, u, y, terms, cfg)
        return state, (state.x_hat, state.d_hat, report.gamma, state.Qd_hat.diagonal(0, -2, -1))

    return init, step


def _onestep_runner(config):
    def step(x_prev, t, u, y):
        _, d_hat, gamma = r4skf.extract(x_prev, u, y, t.dm, t.C, t.F_d)
        x_hat = onestep.one_step_estimate(y, t.C)
        return x_hat, (x_hat, d_hat, gamma)

    return (lambda n: _repeat(config.x0_hat, n)), step


def _uio_runner(config):
    L = moore_penrose_pinv(config.model.C(0)) if config.uio_gain is None else config.uio_gain

    # observer_step is the four-step recursion with the fixed gain L
    def step(x_hat, t, u, y):
        _, d_hat, gamma, _, x_hat = r4skf.four_step(x_hat, u, y, t.dm, t.C, t.F_d, L)
        return x_hat, (x_hat, d_hat, gamma)

    return (lambda n: _repeat(config.x0_hat, n)), step


# estimator -> (runner, EstimatorRun field of the per-step diagonal, whether an estimator failure
# other than a FloatingPointError fails every seed: the r4skf's covariance sequence is shared)
_ESTIMATORS = {
    "r4skf": (_r4skf_runner, "Pd_diag", True),
    "a2kf": (_a2kf_runner, "Qd_diag", False),
    "onestep": (_onestep_runner, None, False),
    "uio": (_uio_runner, None, False),
}


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Drive every selected estimator over the same per-seed measurement
    streams, all seeds and all estimators step by step together; RMSEs are
    aggregated as the mean of per-seed RMSEs. The signals are sampled and the
    truth of all seeds simulated once, each seed with its own
    default_rng(seed). Step k reads the model once, through r4skf.step_terms,
    and hands the terms to each estimator in config order; a time-invariant
    model is evaluated once, inside the loop, so that an error there is
    reported with its step. The error raised is at the earliest failing step
    over all estimators, from the first failing estimator in config order at
    that step (the first estimator, when the step terms fail), and names the
    estimator, the step and the first failing seed."""
    model, K, seeds, names = config.model, config.n_steps, config.seeds, config.estimators
    # keep at least one sample when the horizon is shorter than the burn-in
    skip = min(int(round(config.rmse_skip / model.dt)), K - 1)
    truths = _truths(config, seeds)
    u, y = (np.stack([getattr(truths[s], name) for s in seeds]) for name in ("u", "y"))

    steps, states, cols = {}, {}, {}
    for name in names:
        init, steps[name] = _ESTIMATORS[name][0](config)
        states[name] = init(len(seeds))
        cols[name] = [np.zeros((len(seeds), K, m)) for m in (model.n_x, model.n_d, model.n_y, model.n_d)]
    try:
        # an overflow, invalid value or division by zero raises at its step instead
        # of turning the rest of the run into inf or NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for k in range(K):
                name = names[0]         # a failure of the step terms is the first estimator's
                terms, u_k, y_k = r4skf.step_terms(model, k), u[:, k], y[:, k]
                for name, step in steps.items():
                    states[name], row = step(states[name], terms, u_k, y_k)
                    for col, value in zip(cols[name], row):
                        col[:, k] = value
    except ESTIMATOR_FAILURES as exc:
        # an error without index comes from a model term every seed shares, so the
        # first seed fails first; numpy raises a FloatingPointError or LinAlgError for
        # the whole stack, so it names no seed
        if _ESTIMATORS[name][2] and not isinstance(exc, FloatingPointError):
            where = f"step {k + 1}, all seeds (shared covariance sequence)"
        elif isinstance(exc, (FloatingPointError, np.linalg.LinAlgError)):
            where = f"step {k + 1}"
        else:
            where = f"seed {seeds[getattr(exc, 'index', 0)]}, step {k + 1}"
        raise type(exc)(f"{name}, {where}: {exc}") from exc

    runs: Dict[int, Dict[str, EstimatorRun]] = {seed: {} for seed in seeds}
    rmse_per_seed: Dict[int, Dict[str, Dict[str, np.ndarray]]] = {seed: {} for seed in seeds}
    rmse_mean = {}
    x_true = np.stack([truths[s].x[1:][skip:] for s in seeds])
    d_true = np.broadcast_to(truths[seeds[0]].d[skip:], x_true.shape[:2] + (model.n_d,))     # the seeds share d
    for name, (x_hat, d_hat, gamma, diag) in cols.items():
        try:
            # finite but huge estimates overflow here rather than in a filter step
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                errs = {"x": rmse(x_hat[:, skip:], x_true), "d": rmse(d_hat[:, skip:], d_true)}
                rmse_mean[name] = {key: np.mean(err, axis=0) for key, err in errs.items()}
        except FloatingPointError as exc:
            raise FloatingPointError(f"{name}, rmse: {exc}") from exc
        diag_field = _ESTIMATORS[name][1]
        for i, seed in enumerate(seeds):
            runs[seed][name] = EstimatorRun(
                x_hat=x_hat[i], d_hat=d_hat[i], gamma=gamma[i], **({diag_field: diag[i]} if diag_field else {})
            )
            rmse_per_seed[seed][name] = {key: err[i] for key, err in errs.items()}
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
