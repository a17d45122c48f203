"""Continuous-discrete extension for mildly nonlinear plants.

State propagation integrates dx/dt = f(x, u, t) + E d̂ (Euler or RK4); only
this state half is cdekf's own, because it propagates through the nonlinear
f and h. The rest is r4skf's, run on the StepTerms of the linearization
A_d = I + F dt, E_d = E dt, C = H(x*): the rank-checked extraction gain,
unknown_input_error_cov, gain_and_covariance (the prediction
(I + F dt) P (I + F dt)^T + G Q G^T dt, Kalman gain, combined gain and Joseph
update) and the report's stability matrices. So on a linear plant with Euler
integration the recursion coincides with the linear four-step filter.
propagate_covariance, the compensated Euler rule
P + [F P + P F^T + F P F^T dt + G Q G^T] dt, is the same prediction written
in continuous time; no step calls it, it is kept as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError
# moore_penrose_pinv stays importable from this module as part of its namespace
from .model import DiscretizedModel, identity, moore_penrose_pinv  # noqa: F401
from .model import check_covariances, check_dt, check_matrix, read_only
from . import r4skf
from .r4skf import FilterState, StepReport

FD_STEP = 1e-6


def finite_difference_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central differences with per-component step 1e-6 * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    J = np.zeros((f0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)) / (2 * h)
    return J


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear continuous-discrete plant with sampled outputs.

    F and H are the Jacobians of f (w.r.t. x) and h; when omitted they are
    approximated by central finite differences. dt must be a positive finite
    number; E, G, Q and R finite 2-D matrices, E and G with the same rows, Q
    n_w x n_w for the n_w columns of G, and R square; Q and R pass
    model.cov_factor as positive semi-definite. They are stored as read-only
    float copies. f and h must be callable, F and H callable or None. An
    error names the field, as SystemModel's do (`model.R: not symmetric`);
    f, h, F and H are not called.
    """

    f: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    E: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    dt: float
    F: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    H: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        for name, optional in (("f", False), ("h", False), ("F", True), ("H", True)):
            value = getattr(self, name)
            if not (callable(value) or (optional and value is None)):
                raise ConfigError(f"model.{name}: must be callable, got {type(value).__name__}")
        check_dt(self.dt)
        for name in ("E", "G", "Q", "R"):
            object.__setattr__(self, name, read_only(getattr(self, name), f"model.{name}"))
            check_matrix(name, getattr(self, name))
        E, G, Q, R = self.E, self.G, self.Q, self.R
        if G.shape[0] != E.shape[0]:
            raise DimensionError(f"model.G: must have {E.shape[0]} rows, got {G.shape}")
        n_w = G.shape[1]
        if Q.shape != (n_w, n_w):
            raise DimensionError(f"model.Q: must be {n_w}x{n_w}, got {Q.shape}")
        if R.shape[0] != R.shape[1]:
            raise DimensionError(f"model.R: must be square, got {R.shape}")
        check_covariances(Q, R, R_definite=False)

    def jac_f(self, x, u, t) -> np.ndarray:
        if self.F is not None:
            return np.asarray(self.F(x, u, t), dtype=float)
        return finite_difference_jacobian(lambda xx: self.f(xx, u, t), x)

    def jac_h(self, x) -> np.ndarray:
        if self.H is not None:
            return np.asarray(self.H(x), dtype=float)
        return finite_difference_jacobian(self.h, x)


def propagate_state(
    x: np.ndarray,
    u: np.ndarray,
    d_hat: np.ndarray,
    model: NonlinearModel,
    method: str = "rk4",
    t: float = 0.0,
) -> np.ndarray:
    """Integrate dx/dt = f(x,u,t) + E d̂ over one sample period; d̂ and u
    are held piecewise constant."""
    Ed, dt = model.E @ d_hat, model.dt

    def rhs(xx, tt):
        return np.asarray(model.f(xx, u, tt), dtype=float) + Ed

    if method == "euler":
        x_new = x + rhs(x, t) * dt
    elif method == "rk4":
        k1 = rhs(x, t)
        k2 = rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(x + dt * k3, t + dt)
        x_new = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    else:
        raise ValueError(f"unknown integration method {method!r}")
    if not np.all(np.isfinite(x_new)):
        raise FloatingPointError("state propagation diverged to non-finite values")
    return x_new


def propagate_covariance(
    P: np.ndarray, F_k: np.ndarray, G: np.ndarray, Q: np.ndarray, dt: float
) -> np.ndarray:
    """Compensated Euler covariance step; the F P F^T dt term makes it the
    exact discretized Lyapunov update (I + F dt) P (I + F dt)^T + G Q G^T dt."""
    P_new = P + (F_k @ P + P @ F_k.T + F_k @ P @ F_k.T * dt + G @ Q @ G.T) * dt
    return 0.5 * (P_new + P_new.T)


def cd_four_step(
    state: FilterState,
    u: np.ndarray,
    y: np.ndarray,
    model: NonlinearModel,
    method: str = "euler",
) -> Tuple[FilterState, StepReport]:
    """Four-step recursion on the linearized plant: A_d = I + F dt,
    E_d = E dt, C = H at the prediction point."""
    t = state.k * model.dt
    dt = model.dt
    u = np.asarray(u, dtype=float)
    E, G, Q, R = model.E, model.G, model.Q, model.R
    y = r4skf.check_shape("y", np.asarray(y, dtype=float), R.shape[:1])
    n_x = state.x_hat.shape[0]

    F_k = model.jac_f(state.x_hat, u, t)
    dm = DiscretizedModel(
        A_d=identity(n_x) + F_k * dt,
        B_d=np.zeros((n_x, u.shape[0])),
        E_d=E * dt,
        dt=dt,
    )

    x_star = propagate_state(state.x_hat, u, np.zeros(E.shape[1]), model, method=method, t=t)
    C = model.jac_h(x_star)
    terms = r4skf.StepTerms(dm, C, R, Q, G, r4skf.unknown_input_gain(C, dm.E_d))
    gamma = y - np.asarray(model.h(x_star), dtype=float)
    d_hat = terms.F_d @ gamma
    x_pred = x_star + dm.E_d @ d_hat

    Pd = r4skf.unknown_input_error_cov(state.P, terms)
    _, K, L, P_post = r4skf.gain_and_covariance(state.P, terms)
    x_hat = x_pred + K @ (y - np.asarray(model.h(x_pred), dtype=float))

    new_state = FilterState(x_hat=x_hat, P=P_post, d_hat=d_hat, Pd=Pd, gamma=gamma, k=state.k + 1)
    report = StepReport(x_star=x_star, x_pred=x_pred, d_hat=d_hat, F_d=terms.F_d, K=K, L=L, dm=dm, C=C)
    return new_state, report
