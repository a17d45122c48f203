"""Adaptive augmented Kalman filter.

The unknown input is modeled as a random walk driven by white noise of
covariance Q^d and appended to the state. A standard Kalman filter runs on
the augmented system while Q^d is re-estimated every step from a short
window of innovations: the excess innovation covariance (what process and
measurement noise cannot explain) is mapped back through (C E_d)^+ and
kept symmetric PSD by one projection (_project_Qd).

A step reads the model only through r4skf's StepTerms, as every estimator
does; so a C E_d of rank below n_d is refused. No step calls augment or
estimate_Qd (_project_Qd on model matrices, a name perfbench traces).

advance, innovation_covariance and the Q^d projection also run on states
stacked along leading axes (one row per seed): x_a (S, n_a), P_a
(S, n_a, n_a), the innovation window (S, N, n_y) and Q^d (S, n_d, n_d).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import r4skf
from .errors import ConfigError
from .r4skf import StepTerms, matvec
# discretize stays importable from this module as part of its namespace
from .model import DiscretizedModel, SystemModel, discretize, eigvalsh, identity, moore_penrose_pinv, read_number  # noqa: F401


@dataclass(frozen=True)
class A2KFConfig:
    window: int = 10                  # innovations kept for the covariance estimate
    qd_floor: float = 1e-12           # lower clamp on the diagonal of every Q^d estimate
    qd_init: float = 1e-6             # Q^d = qd_init * I until the first estimate

    def __post_init__(self):
        if not isinstance(self.window, numbers.Integral) or isinstance(self.window, bool):
            raise ConfigError(f"a2kf.window: must be an integer, got {self.window!r}")
        if self.window < 1:
            raise ConfigError(f"a2kf.window: must be at least 1, got {self.window}")
        for name in ("qd_floor", "qd_init"):
            object.__setattr__(self, name, read_number(getattr(self, name), f"a2kf.{name}", ">= 0"))


@dataclass(frozen=True)
class AugmentedModel:
    """Augmented system blocks evaluated at one instant."""

    A_a: np.ndarray
    B_a: np.ndarray
    G_a: np.ndarray
    C_a: np.ndarray
    Q_a: np.ndarray


@dataclass
class A2KFState:
    """Augmented filter state after step k: a plain per-step record that
    callers replace with the next step's and do not mutate."""

    x_a: np.ndarray                   # [x; d]
    P_a: np.ndarray
    innov_window: np.ndarray          # (N, n_y), the last N innovations, oldest first
    Qd_hat: np.ndarray
    k: int

    # x_a splits at n_x = n_a - n_d, not at -n_d, which is 0 for a plant without unknown input
    @property
    def d_hat(self) -> np.ndarray:
        return self.x_a[..., self.x_a.shape[-1] - self.Qd_hat.shape[-1]:]

    @property
    def x_hat(self) -> np.ndarray:
        return self.x_a[..., :self.x_a.shape[-1] - self.Qd_hat.shape[-1]]


@dataclass
class A2KFStepReport:
    """Intermediate quantities of one a2kf step: a plain per-step record
    that callers replace and do not mutate."""

    gamma: np.ndarray
    K: np.ndarray
    Qd_used: np.ndarray
    x_pred: np.ndarray


def augment(model: SystemModel, t: float = 0.0, k: int = 0, Qd=None) -> AugmentedModel:
    """Assemble the augmented blocks A_a=[A E; 0 0], B_a=[B; 0],
    G_a=[G 0; 0 I], C_a=[C 0], Q_a=blkdiag(Q, Q^d) at time t / step k."""
    A, B, E, G, Q, C = model.A(t), model.B(t), model.E(t), model.G(t), model.Q(t), model.C(k)
    n_x, n_d, n_w = model.n_x, model.n_d, model.n_w
    A_a = np.zeros((n_x + n_d, n_x + n_d))
    A_a[:n_x, :n_x] = A
    A_a[:n_x, n_x:] = E
    B_a = np.zeros((n_x + n_d, model.n_u))
    B_a[:n_x] = B
    G_a = np.zeros((n_x + n_d, n_w + n_d))
    G_a[:n_x, :n_w] = G
    G_a[n_x:, n_w:] = identity(n_d)
    C_a = np.zeros((model.n_y, n_x + n_d))
    C_a[:, :n_x] = C
    Q_a = np.zeros((n_w + n_d, n_w + n_d))
    Q_a[:n_w, :n_w] = Q
    if Qd is not None:
        Q_a[n_w:, n_w:] = Qd
    return AugmentedModel(A_a=A_a, B_a=B_a, G_a=G_a, C_a=C_a, Q_a=Q_a)


def initial_state(model: SystemModel, x0_hat, P0=None, cfg: A2KFConfig = A2KFConfig()) -> A2KFState:
    """Augmented start: d̂ = 0 with unit covariance, Q^d = qd_init * I."""
    n_x, n_d = model.n_x, model.n_d
    x_a = np.concatenate([r4skf.check_shape("x0_hat", np.asarray(x0_hat, dtype=float), (n_x,)), np.zeros(n_d)])
    P0 = r4skf.DEFAULT_P0_SCALE * identity(n_x) if P0 is None else P0
    P_a = np.array(identity(n_x + n_d))
    P_a[:n_x, :n_x] = r4skf.check_shape("P0", np.asarray(P0, dtype=float), (n_x, n_x))
    return A2KFState(
        x_a=x_a,
        P_a=P_a,
        innov_window=np.zeros((0, model.n_y)),
        Qd_hat=cfg.qd_init * identity(n_d),
        k=0,
    )


def innovation_covariance(innov_window) -> np.ndarray:
    """Sample second moment (1/N) sum gamma gamma^T over the window: a
    sequence of N innovations or an array (..., N, n_y)."""
    G = np.asarray(innov_window, dtype=float)
    if G.size == 0:
        raise ValueError("innovation window is empty")
    # G^T G on a swapped view of G is one syrk per window
    return (np.ndarray.dot if G.ndim == 2 else np.matmul)(G.swapaxes(-1, -2), G) / G.shape[-2]


def _process_noise(terms: StepTerms, Qd_hat: np.ndarray) -> np.ndarray:
    """The augmented process noise G_a Q_a G_a^T dt for each Q^d of a stack,
    assembled as the block matrix [[G Q G^T dt, 0], [0, Q^d dt]]: with
    G_a = blkdiag(G, I) and Q_a = blkdiag(Q, Q^d) every other product is zero."""
    n_x = terms.GQG.shape[0]
    n_a = n_x + Qd_hat.shape[-1]
    Qproc = np.zeros(Qd_hat.shape[:-2] + (n_a, n_a))
    Qproc[..., :n_x, :n_x] = terms.GQG
    Qproc[..., n_x:, n_x:] = Qd_hat * terms.dm.dt
    return Qproc


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

    and keep the result symmetric PSD: a Q^d with a negative diagonal entry
    or a negative eigenvalue keeps only its main diagonal, and the diagonal
    is clamped from below at cfg.qd_floor.
    """
    CGQGC = r4skf.output_noise(C, G, Q, dm.dt)
    return _project_Qd(Cgamma, CGQGC, moore_penrose_pinv(C @ dm.E_d), R, cfg.qd_floor)


def _project_Qd(Cgamma, CGQGC, M, R, qd_floor) -> np.ndarray:
    """estimate_Qd on precomputed model terms, CGQGC = C G Q G^T C^T dt and
    M = (C E_d)^+, with the diagonal clamped at qd_floor. Cgamma may be a stack
    (..., n_y, n_y); the diagonal fallback is decided per matrix, on numpy scalars for one."""
    D = Cgamma - CGQGC - R
    mul = np.ndarray.dot if D.ndim == M.ndim == 2 else np.matmul
    Qd = mul(mul(M, D), M.T)
    Qd = 0.5 * (Qd + Qd.swapaxes(-1, -2))
    n_d = Qd.shape[-1]
    diag = Qd.diagonal(0, -2, -1)      # the diagonal fallback below keeps it
    eye = identity(n_d)
    # off-diagonal dominance can leave Qd indefinite under a non-negative diagonal; keep the diagonal
    # to stay PSD. eigvalsh decides each matrix alone (a caught one stays caught), w[..., 0] the smallest
    if Qd.ndim > 2:
        triggered = (diag < 0).any(axis=-1)
        if n_d > 1 and not triggered.all():
            triggered = triggered | (eigvalsh(Qd)[..., 0] < 0)
        if triggered.any():
            Qd = np.where(triggered[..., None, None] & (eye == 0.0), 0.0, Qd)
    elif (diag < 0).any() or n_d > 1 and eigvalsh(Qd)[0] < 0:
        Qd = np.where(eye == 0.0, 0.0, Qd)
    lift = np.maximum(qd_floor - diag, 0.0)
    return Qd + lift[..., None] * eye


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
    return advance(state, u, y, r4skf.step_terms(model, state.k), cfg)


def advance(
    state: A2KFState, u: np.ndarray, y: np.ndarray, terms: StepTerms, cfg: A2KFConfig = A2KFConfig()
) -> Tuple[A2KFState, A2KFStepReport]:
    """a2kf_step on the StepTerms of the step, evaluated beforehand (see
    r4skf.step_terms). The state may be a stack along leading axes; u and y
    then carry the same leading axes, x_a is (..., n_a), and P_a, Qd_hat and
    the innovation window, (..., N, n_y), have the leading axes of x_a."""
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    if y.shape[-1:] != terms.R.shape[:1]:
        raise r4skf.shape_error("y", y, terms.R.shape[:1])
    if u.shape[-1:] != terms.dm.B_d.shape[1:]:
        raise r4skf.shape_error("u", u, terms.dm.B_d.shape[1:])
    A_da, B_da, C_a = terms.augmented
    if state.x_a.shape[-1:] != A_da.shape[:1]:
        raise r4skf.shape_error("x_a", state.x_a, A_da.shape[:1])
    lead, window = state.x_a.shape[:-1], state.innov_window
    if state.P_a.shape != lead + A_da.shape:
        raise r4skf.shape_error("P_a", state.P_a, lead + A_da.shape)
    if state.Qd_hat.shape != lead + terms.F_d.shape[:1] * 2:
        raise r4skf.shape_error("Qd_hat", state.Qd_hat, lead + terms.F_d.shape[:1] * 2)
    window_shape = lead + window.shape[len(lead):len(lead) + 1] + C_a.shape[:1]     # (..., N, n_y), any N
    if window.shape != window_shape:
        raise r4skf.shape_error("innov_window", window, window_shape)
    x_pred = matvec(A_da, state.x_a) + matvec(B_da, u)
    mul = np.ndarray.dot if state.P_a.ndim == 2 else np.matmul
    P_pred = mul(mul(A_da, state.P_a), A_da.T) + _process_noise(terms, state.Qd_hat)
    K, _ = r4skf.kalman_gain(P_pred, C_a, terms.R)
    gamma = y - matvec(C_a, x_pred)
    x_new = x_pred + matvec(K, gamma)
    P_new = r4skf.joseph_update(P_pred, K, C_a, terms.R)

    window = np.concatenate([window, gamma[..., None, :]], axis=-2)[..., -cfg.window:, :]
    Qd_next = _project_Qd(innovation_covariance(window), terms.CGQGC, terms.F_d, terms.R, cfg.qd_floor)

    new_state = A2KFState(x_a=x_new, P_a=P_new, innov_window=window, Qd_hat=Qd_next, k=state.k + 1)
    report = A2KFStepReport(gamma=gamma, K=K, Qd_used=state.Qd_hat, x_pred=x_pred)
    return new_state, report
