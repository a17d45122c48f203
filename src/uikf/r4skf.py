"""Recursive four-step Kalman filter for simultaneous state and
unknown-input estimation.

Per measurement the filter runs:

  1. input-free prediction        x* = A_d x̂ + B_d u
  2. unknown-input extraction     d̂ = (C E_d)^+ (y - C x*)
  3. input-corrected prediction   x̂⁻ = x* + E_d d̂
  4. measurement update           x̂ = x̂⁻ + K (y - C x̂⁻)

with a Joseph-form covariance update built on the combined gain
L = K + (I - K C) E_d F_d, which keeps P symmetric PSD for any gain.

Each half of a step has one implementation here: the state half extract /
four_step (steps 1-2 / 1-4 with a given gain, e.g. the observer's fixed L)
and the covariance half unknown_input_error_cov / gain_and_covariance, whose
tail correct cdekf shares. advance runs both; step = advance(step_terms).
The state half, kalman_gain and joseph_update also take stacks with leading
axes, e.g. one row per Monte-Carlo seed. Every product in a stack is the
same BLAS call (gemv, gemm, syrk) as for a single problem, so each row is
bitwise equal to the unstacked result; see matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, IllConditionedError, RankConditionError
from .model import DiscretizedModel, SystemModel, discretize, pinv_and_rank

RCOND_FLOOR = 1e-14
DEFAULT_P0_SCALE = 10.0


@dataclass(frozen=True)
class FilterState:
    """Recursion state after processing measurement k."""

    x_hat: np.ndarray   # x̂_{k|k}
    P: np.ndarray       # state error covariance
    d_hat: np.ndarray   # latest unknown-input estimate (valid for t_{k-1})
    Pd: np.ndarray      # unknown-input error covariance
    gamma: np.ndarray   # latest input-free innovation
    k: int


@dataclass(frozen=True)
class StepReport:
    """Intermediate quantities of one filter step, for diagnostics. The
    error-dynamics matrices Ā and Ã are computed from dm, C, F_d and K
    only when they are read."""

    x_star: np.ndarray
    x_pred: np.ndarray
    d_hat: np.ndarray
    F_d: np.ndarray
    K: np.ndarray
    L: np.ndarray
    dm: DiscretizedModel
    C: np.ndarray

    @property
    def A_bar(self) -> np.ndarray:
        return stability_matrices(self.dm, self.C, self.F_d, self.K)[0]

    @property
    def A_tilde(self) -> np.ndarray:
        return stability_matrices(self.dm, self.C, self.F_d, self.K)[1]


def initial_state(model: SystemModel, x0_hat, P0=None, Pd0=None) -> FilterState:
    """Initial filter state; P0 defaults to 10 I, Pd0 to I."""
    x0_hat = np.asarray(x0_hat, dtype=float)
    if P0 is None:
        P0 = DEFAULT_P0_SCALE * np.eye(model.n_x)
    if Pd0 is None:
        Pd0 = np.eye(model.n_d)
    return FilterState(
        x_hat=x0_hat,
        P=np.asarray(P0, dtype=float),
        d_hat=np.zeros(model.n_d),
        Pd=np.asarray(Pd0, dtype=float),
        gamma=np.zeros(model.n_y),
        k=0,
    )


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x over the leading axes of x (and of M): one gemv per row, as for a
    single vector. X @ M.T would be one gemm over all rows, which rounds
    differently."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def predict_no_input(x_hat: np.ndarray, u: np.ndarray, dm: DiscretizedModel) -> np.ndarray:
    """Step 1: propagate the estimate assuming d = 0."""
    if x_hat.shape[-1] != dm.A_d.shape[0]:
        raise DimensionError("x_hat does not match A_d")
    if u.shape[-1] != dm.B_d.shape[1]:
        raise DimensionError("u does not match B_d")
    return matvec(dm.A_d, x_hat) + matvec(dm.B_d, u)


def unknown_input_gain(C: np.ndarray, E_d: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """F_d = (C E_d)^+, after checking rank(C E_d) = n_d on the same SVD."""
    F_d, rank = pinv_and_rank(C @ E_d, tol)
    n_d = E_d.shape[1]
    if rank < n_d:
        raise RankConditionError(
            f"rank(C E_d) = {rank} < n_d = {n_d}; "
            "unknown-input extraction is infeasible at this step"
        )
    return F_d


def estimate_unknown_input(
    y: np.ndarray,
    x_star: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
    tol: float = 1e-10,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2: extract the unknown input from the input-free innovation.

    Returns (d_hat, F_d, gamma) with F_d = (C E_d)^+ and gamma = y - C x*.
    """
    F_d = unknown_input_gain(C, dm.E_d, tol)
    gamma = y - C @ x_star
    return F_d @ gamma, F_d, gamma


def predict_with_input(x_star: np.ndarray, d_hat: np.ndarray, dm: DiscretizedModel) -> np.ndarray:
    """Step 3: correct the prediction with the freshly estimated input."""
    return x_star + matvec(dm.E_d, d_hat)


def extract(x_hat, u, y, dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Steps 1 and 2 with F_d = (C E_d)^+ given: (x_star, d_hat, gamma)."""
    x_star = predict_no_input(x_hat, u, dm)
    gamma = y - matvec(C, x_star)
    return x_star, matvec(F_d, gamma), gamma


def four_step(x_hat, u, y, dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray, K: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Steps 1-4 with the gain K in step 4: (x_star, d_hat, gamma, x_pred, x_hat)."""
    x_star, d_hat, gamma = extract(x_hat, u, y, dm, C, F_d)
    x_pred = predict_with_input(x_star, d_hat, dm)
    return x_star, d_hat, gamma, x_pred, update(x_pred, y, K, C)


def gain_and_covariance(
    P_prev: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    F_d: np.ndarray,
    G: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Covariance prediction, Kalman gain, combined gain and Joseph update.

    G defaults to G_d / dt (the continuous-time noise matrix). The process
    noise enters as G Q G^T dt, one factor of dt.
    """
    if G is None:
        G = dm.G_d / dm.dt
    P_pred = dm.A_d @ P_prev @ dm.A_d.T + G @ Q @ G.T * dm.dt
    return (P_pred, *correct(P_pred, C, R, dm.E_d, F_d))


def correct(P_pred: np.ndarray, C: np.ndarray, R: np.ndarray, E_d: np.ndarray, F_d: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Kalman gain K, combined gain L = K + (I - K C) E_d F_d and the Joseph
    update of P_pred with L: (K, L, P_post)."""
    K = kalman_gain(P_pred, C, R)
    L = K + (np.eye(P_pred.shape[-1]) - K @ C) @ E_d @ F_d
    return K, L, joseph_update(P_pred, L, C, R)


def kalman_gain(P_pred: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """K = P C^T S^{-1} with S = C P C^T + R, refused when S is numerically singular.

    On a stack of P the error raised for the first refused S carries its
    flat position in the stack as ``index``.
    """
    S = C @ P_pred @ C.T + R
    S = 0.5 * (S + S.swapaxes(-1, -2))
    # the |eigenvalues| of the symmetric S are its singular values, so this is
    # the 2-norm test 1 / cond(S) > RCOND_FLOOR without an SVD
    w = np.abs(np.linalg.eigvalsh(S))
    ok = w.min(axis=-1) > RCOND_FLOOR * w.max(axis=-1)
    if not ok.all():
        i = int(np.argmin(ok))          # the first refused S
        if np.isnan(S.reshape(-1, *S.shape[-2:])[i]).any():
            exc = np.linalg.LinAlgError("innovation covariance C P C^T + R contains NaN")
        else:
            exc = IllConditionedError("innovation covariance C P C^T + R is numerically singular")
        exc.index = i
        raise exc
    return np.linalg.solve(S, C @ P_pred).swapaxes(-1, -2)


def joseph_update(P_pred: np.ndarray, L: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Joseph-form update (I - L C) P (I - L C)^T + L R L^T, symmetric PSD for any gain L."""
    ImLC = np.eye(P_pred.shape[-1]) - L @ C
    P_post = ImLC @ P_pred @ ImLC.swapaxes(-1, -2) + L @ R @ L.swapaxes(-1, -2)
    return 0.5 * (P_post + P_post.swapaxes(-1, -2))


def update(x_pred: np.ndarray, y: np.ndarray, K: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Step 4: measurement update of the input-corrected prediction."""
    return x_pred + matvec(K, y - matvec(C, x_pred))


def stability_matrices(
    dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray, K: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Error-dynamics matrices of the predictor and the full filter.

    Predictor:  e⁻_k = Ā e_{k-1} + Ḡ w + D̄ v
    Filter:     e_k  = Ã e_{k-1} + G̃ w + D̃ v

    The predictor (and hence the filter) is asymptotically stable iff the
    spectral radius of Ā (resp. Ã) stays below one.
    """
    n_x = dm.A_d.shape[0]
    M = np.eye(n_x) - dm.E_d @ F_d @ C
    A_bar = M @ dm.A_d
    G_bar = M @ dm.G_d
    D_bar = -dm.E_d @ F_d
    ImKC = np.eye(n_x) - K @ C
    A_tilde = ImKC @ A_bar
    G_tilde = ImKC @ G_bar
    D_tilde = ImKC @ D_bar - K
    return A_bar, A_tilde, G_bar, D_bar, G_tilde, D_tilde


def unknown_input_error_cov(
    P_prev: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    F_d: np.ndarray,
    G: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Covariance of the unknown-input estimation error d - d̂.

    In quiescence (P small) this reduces to F_d (C G Q G^T C^T dt + R) F_d^T;
    since F_d scales like 1/dt, measurement noise is magnified by 1/dt^2.
    """
    if G is None:
        G = dm.G_d / dm.dt
    mid = (
        C @ dm.A_d @ P_prev @ dm.A_d.T @ C.T
        + C @ G @ Q @ G.T @ C.T * dm.dt
        + R
    )
    Pd = F_d @ mid @ F_d.T
    return 0.5 * (Pd + Pd.T)


def step_terms(model: SystemModel, k: int) -> Tuple[DiscretizedModel, np.ndarray, ...]:
    """What one step reads from the model, for the step from t_k = k dt to
    measurement k + 1: (dm, C, R, Q, G, F_d) with the rank-checked F_d = (C E_d)^+."""
    t = k * model.dt
    dm = discretize(model, t)
    C = np.asarray(model.C(k + 1), dtype=float)
    R = np.asarray(model.R(k + 1), dtype=float)
    Q = np.asarray(model.Q(t), dtype=float)
    G = np.asarray(model.G(t), dtype=float)
    return dm, C, R, Q, G, unknown_input_gain(C, dm.E_d)


def step(
    state: FilterState,
    u: np.ndarray,
    y: np.ndarray,
    model: SystemModel,
    gain_override: Optional[np.ndarray] = None,
) -> Tuple[FilterState, StepReport]:
    """One full four-step recursion processing measurement k = state.k + 1.

    gain_override replaces the Kalman gain in the measurement update (the
    covariance bookkeeping still runs); this is how a fixed observer gain
    is reproduced on the filter code path.
    """
    return advance(state, u, y, step_terms(model, state.k), gain_override)


def advance(state: FilterState, u, y, terms: Tuple, gain_override=None) -> Tuple[FilterState, StepReport]:
    """step on model terms evaluated beforehand (see step_terms). x_hat, u
    and y may carry a leading seed axis while P is shared: the covariance,
    gain and Pd sequence never reads a measurement, so it runs once for all
    seeds, and the state half runs on the stack."""
    dm, C, R, Q, G, F_d = terms
    Pd = unknown_input_error_cov(state.P, dm, C, Q, R, F_d, G=G)
    _, K, L, P_post = gain_and_covariance(state.P, dm, C, Q, R, F_d, G=G)
    K_used = K if gain_override is None else np.asarray(gain_override, dtype=float)
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    x_star, d_hat, gamma, x_pred, x_hat = four_step(state.x_hat, u, y, dm, C, F_d, K_used)

    new_state = FilterState(x_hat=x_hat, P=P_post, d_hat=d_hat, Pd=Pd, gamma=gamma, k=state.k + 1)
    report = StepReport(x_star=x_star, x_pred=x_pred, d_hat=d_hat, F_d=F_d, K=K_used, L=L, dm=dm, C=C)
    return new_state, report
