"""Adaptive augmented Kalman filter.

The unknown input is modeled as a random walk driven by white noise of
covariance Q^d and appended to the state. A standard Kalman filter runs on
the augmented system while Q^d is re-estimated every step from a short
window of innovations: the excess innovation covariance (what process and
measurement noise cannot explain) is mapped back through (C E_d)^+.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import r4skf
from .model import DiscretizedModel, SystemModel, discretize, moore_penrose_pinv


@dataclass(frozen=True)
class A2KFConfig:
    window: int = 10                  # innovations kept for the covariance estimate
    qd_floor: float = 1e-12           # lower clamp on the Q^d diagonal
    qd_init: float = 1e-6             # initial Q^d = qd_init * I
    rescale_by_dt: bool = False       # optional 1/dt scaling of the estimate
    negative_check: str = "post"      # "post": diagonal of Q^d; "pre": entries of C_gamma0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")


@dataclass(frozen=True)
class AugmentedModel:
    """Augmented system blocks evaluated at one instant."""

    A_a: np.ndarray
    B_a: np.ndarray
    G_a: np.ndarray
    C_a: np.ndarray
    Q_a: np.ndarray


@dataclass(frozen=True)
class A2KFState:
    x_a: np.ndarray                   # [x; d]
    P_a: np.ndarray
    innov_window: Tuple[np.ndarray, ...]
    Qd_hat: np.ndarray
    k: int

    @property
    def d_hat(self) -> np.ndarray:
        n_d = self.Qd_hat.shape[0]
        return self.x_a[-n_d:]

    @property
    def x_hat(self) -> np.ndarray:
        n_d = self.Qd_hat.shape[0]
        return self.x_a[:-n_d]


@dataclass(frozen=True)
class A2KFStepReport:
    gamma: np.ndarray
    K: np.ndarray
    Qd_used: np.ndarray
    x_pred: np.ndarray


def augment(model: SystemModel, t: float = 0.0, k: int = 0, Qd=None) -> AugmentedModel:
    """Assemble the augmented blocks A_a=[A E; 0 0], B_a=[B; 0],
    G_a=[G 0; 0 I], C_a=[C 0], Q_a=blkdiag(Q, Q^d) at time t / step k."""
    A, B, E, G, Q = [np.asarray(M(t), dtype=float) for M in (model.A, model.B, model.E, model.G, model.Q)]
    C = np.asarray(model.C(k), dtype=float)
    n_x, n_d, n_w, n_y = model.n_x, model.n_d, model.n_w, model.n_y
    if Qd is None:
        Qd = np.zeros((n_d, n_d))
    A_a = np.block([[A, E], [np.zeros((n_d, n_x)), np.zeros((n_d, n_d))]])
    B_a = np.vstack([B, np.zeros((n_d, model.n_u))])
    G_a = np.block(
        [[G, np.zeros((n_x, n_d))], [np.zeros((n_d, n_w)), np.eye(n_d)]]
    )
    C_a = np.hstack([C, np.zeros((n_y, n_d))])
    Q_a = np.block(
        [[Q, np.zeros((n_w, n_d))], [np.zeros((n_d, n_w)), np.asarray(Qd, dtype=float)]]
    )
    return AugmentedModel(A_a=A_a, B_a=B_a, G_a=G_a, C_a=C_a, Q_a=Q_a)


def initial_state(model: SystemModel, x0_hat, P0=None, cfg: A2KFConfig = A2KFConfig()) -> A2KFState:
    """Augmented start: d̂ = 0 with unit covariance, Q^d = qd_init * I."""
    n_x, n_d = model.n_x, model.n_d
    x_a = np.concatenate([np.asarray(x0_hat, dtype=float), np.zeros(n_d)])
    if P0 is None:
        P0 = 10.0 * np.eye(n_x)
    P_a = np.block(
        [
            [np.asarray(P0, dtype=float), np.zeros((n_x, n_d))],
            [np.zeros((n_d, n_x)), np.eye(n_d)],
        ]
    )
    return A2KFState(
        x_a=x_a,
        P_a=P_a,
        innov_window=(),
        Qd_hat=cfg.qd_init * np.eye(n_d),
        k=0,
    )


def innovation_covariance(innov_window) -> np.ndarray:
    """Sample second moment (1/N) sum gamma gamma^T over the window."""
    window = tuple(innov_window)
    if len(window) == 0:
        raise ValueError("innovation window is empty")
    G = np.stack(window)
    return G.T @ G / len(window)


@dataclass
class StepBlocks:
    """What one a2kf step reads from the model; constant for a time-invariant
    model. Q_a is a template whose Q^d block each step overwrites."""

    A_da: np.ndarray                  # I + A_a dt
    B_da: np.ndarray                  # B_a dt
    G_a: np.ndarray
    Q_a: np.ndarray
    C_a: np.ndarray
    R: np.ndarray
    CGQGC: np.ndarray                 # C G Q G^T C^T dt
    M: np.ndarray                     # (C E_d)^+
    dt: float


def _qd_terms(dm: DiscretizedModel, C: np.ndarray, Q: np.ndarray, G: np.ndarray):
    """The model terms of the Q^d estimate: C G Q G^T C^T dt and (C E_d)^+."""
    return C @ G @ Q @ G.T @ C.T * dm.dt, moore_penrose_pinv(C @ dm.E_d)


def step_blocks(model: SystemModel, t: float, k: int) -> StepBlocks:
    """Evaluate the model for the step from time t to measurement k."""
    am = augment(model, t=t, k=k)
    dm = discretize(model, t)
    C = np.asarray(model.C(k), dtype=float)
    Q = np.asarray(model.Q(t), dtype=float)
    G = np.asarray(model.G(t), dtype=float)
    R = np.asarray(model.R(k), dtype=float)
    A_da = np.eye(model.n_x + model.n_d) + am.A_a * dm.dt
    return StepBlocks(A_da, am.B_a * dm.dt, am.G_a, am.Q_a, am.C_a, R, *_qd_terms(dm, C, Q, G), dm.dt)


def estimate_Qd(
    Cgamma: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
    Q: np.ndarray,
    G: np.ndarray,
    R: np.ndarray,
    cfg: A2KFConfig = A2KFConfig(),
) -> np.ndarray:
    """Map the excess innovation covariance back to an unknown-input noise
    covariance:

        C_gamma0 = C_gamma - C G Q G^T C^T dt - R
        Q^d      = (C E_d)^+ C_gamma0 (E_d^T C^T)^+

    Negative-value handling keeps the result symmetric PSD: when triggered
    (negative diagonal of the transform by default, any negative entry of
    C_gamma0 in "pre" mode) only the main diagonal is kept; the diagonal is
    always clamped from below at qd_floor.
    """
    return _project_Qd(Cgamma, *_qd_terms(dm, C, Q, G), R, dm.dt, cfg)


def _project_Qd(Cgamma, CGQGC, M, R, dt, cfg) -> np.ndarray:
    """estimate_Qd on precomputed model terms."""
    Cg0 = Cgamma - CGQGC - R
    Qd = M @ Cg0 @ M.T
    Qd = 0.5 * (Qd + Qd.T)
    if cfg.negative_check == "pre":
        triggered = bool((Cg0 < 0).any())
    else:
        triggered = bool((np.diag(Qd) < 0).any())
    if not triggered and Qd.shape[0] > 1:
        # off-diagonal dominance can leave an indefinite matrix even with a
        # non-negative diagonal; fall back to the diagonal to stay PSD
        triggered = bool(np.linalg.eigvalsh(Qd).min() < 0)
    if triggered:
        Qd = np.diag(np.diag(Qd))
    d = np.diag(Qd).copy()
    lift = np.clip(cfg.qd_floor - d, 0.0, None)
    Qd = Qd + np.diag(lift)
    if cfg.rescale_by_dt:
        Qd = Qd / dt
    return Qd


def a2kf_step(
    state: A2KFState,
    u: np.ndarray,
    y: np.ndarray,
    model: SystemModel,
    cfg: A2KFConfig = A2KFConfig(),
) -> Tuple[A2KFState, A2KFStepReport]:
    """One predict/update on the augmented system with the current Q^d,
    then a causal refresh of Q^d from the innovation window (the refreshed
    value is first used at the next step)."""
    return advance(state, u, y, step_blocks(model, state.k * model.dt, state.k + 1), cfg)


def advance(
    state: A2KFState, u: np.ndarray, y: np.ndarray, b: StepBlocks, cfg: A2KFConfig = A2KFConfig()
) -> Tuple[A2KFState, A2KFStepReport]:
    """a2kf_step on model blocks b evaluated beforehand (see step_blocks)."""
    b.Q_a[-len(state.Qd_hat):, -len(state.Qd_hat):] = state.Qd_hat
    Qproc = b.G_a @ b.Q_a @ b.G_a.T * b.dt

    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)

    x_pred = b.A_da @ state.x_a + b.B_da @ u
    P_pred = b.A_da @ state.P_a @ b.A_da.T + Qproc
    K = r4skf.kalman_gain(P_pred, b.C_a, b.R)
    gamma = y - b.C_a @ x_pred
    x_new = x_pred + K @ gamma
    P_new = r4skf.joseph_update(P_pred, K, b.C_a, b.R)

    window = (state.innov_window + (gamma,))[-cfg.window:]
    Qd_next = _project_Qd(innovation_covariance(window), b.CGQGC, b.M, b.R, b.dt, cfg)

    new_state = A2KFState(x_a=x_new, P_a=P_new, innov_window=window, Qd_hat=Qd_next, k=state.k + 1)
    report = A2KFStepReport(gamma=gamma, K=K, Qd_used=state.Qd_hat, x_pred=x_pred)
    return new_state, report
