"""Executable property checks: the theorem-level guarantees of the filters
as pass/fail diagnostics, used by the `check` CLI subcommand and the tests.
Every check and the stability report step the filter through r4skf.stream, as
onestep.equivalence_check does, or the observer through _observer (uio.observer_step),
which raise a failure again with its type and "r4skf, step <k>: " or "uio, step <k>: " prepended."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import a2kf, onestep, r4skf, uio
from .a2kf import A2KFConfig
from .benchmark import benchmark_model
from .errors import ESTIMATOR_FAILURES
from .model import SystemModel, identity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: value={self.value:.6g} threshold={self.threshold:.6g}"


def square_test_model() -> SystemModel:
    """Invented square system (n_x = n_y = n_d = 2, dt = 0.01) for the
    guaranteed-stability and gain-irrelevance checks; the benchmark plant is
    not square (3 outputs, 2 unknown inputs)."""
    return SystemModel(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.zeros((2, 1)),
        E=identity(2),
        G=identity(2),
        C=identity(2),
        Q=1e-4 * identity(2),
        R=1e-4 * identity(2),
        dt=0.01,
    )


def _observer(model: SystemModel, ys: np.ndarray, x0: np.ndarray, gains) -> np.ndarray:
    """x̂ of uio.observer_step over ys with u = 0 from x0, on the dm and C of
    r4skf.step_terms(model, k) and the gain gains[k]."""
    state, u, x_hat = uio.initial_observer_state(x0, model.n_d), np.zeros(model.n_u), np.empty((len(ys), model.n_x))
    for k in range(len(ys)):
        t = r4skf.step_terms(model, k)
        try:
            state = uio.observer_step(state, ys[k], u, t.dm, t.C, gains[k])
        except ESTIMATOR_FAILURES as exc:
            raise type(exc)(f"uio, step {k + 1}: {exc}") from exc
        x_hat[k] = state.x_hat
    return x_hat


def check_gain_irrelevance() -> List[CheckResult]:
    """Square case: the measurement update gain has no effect on the final
    estimate, which always equals C^{-1} y, even under large initial error."""
    model = square_test_model()
    ys = onestep.white_input_stream(model, 500, seed=0)
    x0 = 100.0 * np.ones(model.n_x)
    x_opt = np.fromiter((s.x_hat for s, _ in r4skf.stream(model, ys, x0)), (float, model.n_x), len(ys))
    x_zero = _observer(model, ys, x0, [np.zeros((model.n_x, model.n_y))] * len(ys))
    ref = onestep.one_step_estimate(ys, r4skf.step_terms(model, 0).C)
    dev_gain = float(onestep.row_norms(x_opt - x_zero).max())
    dev_onestep = float(onestep.row_norms(x_opt - ref).max())
    return [
        CheckResult("gain_irrelevance_optimal_vs_zero", dev_gain <= 1e-9, dev_gain, 1e-9),
        CheckResult("gain_irrelevance_vs_one_step", dev_onestep <= 1e-9, dev_onestep, 1e-9),
    ]


def check_dual_form() -> List[CheckResult]:
    """Eq-form update x̂ = x̂⁻ + K(y - C x̂⁻) equals x* + L gamma*."""
    model = benchmark_model()
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(model.n_x)
    ys = rng.standard_normal((100, model.n_y))
    x_hat, alt = np.empty((2, len(ys), model.n_x))
    for k, (state, rep) in enumerate(r4skf.stream(model, ys, x0)):
        x_hat[k], alt[k] = state.x_hat, rep.x_star + rep.L @ state.gamma
    worst = float((onestep.row_norms(x_hat - alt) / (1.0 + onestep.row_norms(x_hat))).max())
    return [CheckResult("dual_form_update_equality", worst <= 1e-12, worst, 1e-12)]


def check_onestep_equivalence() -> List[CheckResult]:
    dev = onestep.equivalence_check(square_test_model(), 500, seed=1, x0_hat=[100.0, 100.0])
    return [CheckResult("one_step_equivalence", dev <= 1e-9, dev, 1e-9)]


def check_observer_equivalence() -> List[CheckResult]:
    """Square case with L = C^{-1}: observer equals one-step estimate.
    General case: the observer handed the filter's gain K of each step
    equals the filter."""
    model = square_test_model()
    ys = onestep.white_input_stream(model, 300, seed=2)
    C = r4skf.step_terms(model, 0).C
    x_obs = _observer(model, ys, np.ones(model.n_x), [np.linalg.inv(C)] * len(ys))
    worst_square = float(np.abs(x_obs - onestep.one_step_estimate(ys, C)).max())

    model = benchmark_model()
    ys = 0.01 * np.random.default_rng(2).standard_normal((300, model.n_y))
    x_filt, Ks = np.empty((len(ys), model.n_x)), [None] * len(ys)
    for k, (filt, rep) in enumerate(r4skf.stream(model, ys, np.zeros(model.n_x))):
        x_filt[k], Ks[k] = filt.x_hat, rep.K
    worst = float(np.abs(_observer(model, ys, np.zeros(model.n_x), Ks) - x_filt).max())
    return [
        CheckResult("observer_square_case_vs_one_step", worst_square <= 1e-12, worst_square, 1e-12),
        CheckResult("observer_general_vs_filter_fixed_gain", worst <= 1e-10, worst, 1e-10),
    ]


def check_qd_reconstruction() -> List[CheckResult]:
    """Forward-construct C_gamma from a chosen SPD S and invert it back."""
    model = benchmark_model()
    t = r4skf.step_terms(model, 0)
    rng = np.random.default_rng(4)
    M = rng.standard_normal((model.n_d, model.n_d))
    S = M @ M.T + 0.5 * identity(model.n_d)
    CEd = t.C @ t.dm.E_d
    Cgamma = CEd @ S @ CEd.T + t.CGQGC + t.R
    S_hat = a2kf._project_Qd(Cgamma, t.CGQGC, t.F_d, t.R, A2KFConfig().qd_floor)
    err = float(np.abs(S_hat - S).max() / np.abs(S).max())
    return [CheckResult("qd_spd_round_trip", err <= 1e-10, err, 1e-10)]


def run_property_checks() -> List[CheckResult]:
    return (check_gain_irrelevance() + check_dual_form() + check_onestep_equivalence()
            + check_observer_equivalence() + check_qd_reconstruction())


def stability_report(model: SystemModel) -> Dict[str, float]:
    """Spectral radii of the predictor and filter error-dynamics matrices after 1000 filter steps, near steady
    state, on y = 0 (the gain never reads y); an overflow, invalid value or division by zero is a filter failure,
    in those matrices too, named as the last step."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for k, (_, rep) in enumerate(r4skf.stream(model, np.zeros((1000, model.n_y)), np.zeros(model.n_x)), 1):
            pass
        try:
            A_bar, A_tilde = r4skf.stability_matrices(rep.dm, rep.C, rep.F_d, rep.K)
        except ESTIMATOR_FAILURES as exc:
            raise type(exc)(f"r4skf, step {k}: {exc}") from exc
    return {
        "rho_A_bar": float(np.max(np.abs(np.linalg.eigvals(A_bar)))),
        "rho_A_tilde": float(np.max(np.abs(np.linalg.eigvals(A_tilde)))),
    }
