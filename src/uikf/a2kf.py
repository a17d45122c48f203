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
    A = np.asarray(model.A(t), dtype=float)
    B = np.asarray(model.B(t), dtype=float)
    E = np.asarray(model.E(t), dtype=float)
    G = np.asarray(model.G(t), dtype=float)
    Q = np.asarray(model.Q(t), dtype=float)
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
    Cg0 = Cgamma - C @ G @ Q @ G.T @ C.T * dm.dt - R
    M = moore_penrose_pinv(C @ dm.E_d)
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
        Qd = Qd / dm.dt
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
    k1 = state.k + 1
    t = state.k * model.dt
    dt = model.dt
    n_x, n_d = model.n_x, model.n_d

    am = augment(model, t=t, k=k1, Qd=state.Qd_hat)
    n_a = n_x + n_d
    A_da = np.eye(n_a) + am.A_a * dt
    B_da = am.B_a * dt
    Qproc = am.G_a @ am.Q_a @ am.G_a.T * dt

    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)

    x_pred = A_da @ state.x_a + B_da @ u
    P_pred = A_da @ state.P_a @ A_da.T + Qproc
    R = np.asarray(model.R(k1), dtype=float)
    K = r4skf.kalman_gain(P_pred, am.C_a, R)
    gamma = y - am.C_a @ x_pred
    x_new = x_pred + K @ gamma
    P_new = r4skf.joseph_update(P_pred, K, am.C_a, R)

    window = (state.innov_window + (gamma,))[-cfg.window:]
    dm = discretize(model, t)
    C = np.asarray(model.C(k1), dtype=float)
    Q = np.asarray(model.Q(t), dtype=float)
    G = np.asarray(model.G(t), dtype=float)
    Qd_next = estimate_Qd(innovation_covariance(window), dm, C, Q, G, R, cfg)

    new_state = A2KFState(x_a=x_new, P_a=P_new, innov_window=window, Qd_hat=Qd_next, k=k1)
    report = A2KFStepReport(gamma=gamma, K=K, Qd_used=state.Qd_hat, x_pred=x_pred)
    return new_state, report
