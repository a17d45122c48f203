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
and the covariance half unknown_input_error_cov / gain_and_covariance, which
cdekf runs on the StepTerms of its linearization. advance runs both on the
StepTerms of a step; step = advance(step_terms). StepTerms is what every
estimator step reads from the model, the a2kf's included.
The state half, kalman_gain and joseph_update also take stacks with leading
axes, e.g. one row per Monte-Carlo seed. Every product in a stack is the
same BLAS call (gemv, gemm, syrk) as for a single problem, so each row is
bitwise equal to the unstacked result; see matvec.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, IllConditionedError, RankConditionError
from .model import DiscretizedModel, SystemModel, discretize, identity, pinv_and_rank

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
    n_x, n_d = model.n_x, model.n_d
    P0 = DEFAULT_P0_SCALE * identity(n_x) if P0 is None else P0
    Pd0 = identity(n_d) if Pd0 is None else Pd0
    return FilterState(
        x_hat=check_shape("x0_hat", np.asarray(x0_hat, dtype=float), (n_x,)),
        P=check_shape("P0", np.asarray(P0, dtype=float), (n_x, n_x)),
        d_hat=np.zeros(n_d),
        Pd=check_shape("Pd0", np.array(Pd0, dtype=float), (n_d, n_d)),
        gamma=np.zeros(model.n_y),
        k=0,
    )


def check_shape(name: str, M: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """M, after checking that its last axes are shape (leading axes, one row
    per seed, are free); a DimensionError names the argument."""
    if M.shape[-len(shape):] != shape:
        raise shape_error(name, M, shape)
    return M


def shape_error(name: str, M: np.ndarray, shape: Tuple[int, ...]) -> DimensionError:
    """check_shape's error; the step functions compare shapes inline, sparing a call per check."""
    return DimensionError(f"{name}: shape {M.shape} does not match {shape}")


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


def unknown_input_gain(C: np.ndarray, E_d: np.ndarray) -> np.ndarray:
    """F_d = (C E_d)^+, after checking rank(C E_d) = n_d on the same SVD.

    The last F_d is kept, keyed by the shape, dtype and bytes of C E_d, so a
    filter and an observer that step at the same k, or any steps of a
    constant C E_d, form one SVD; the kept F_d is read-only. A C E_d that
    fails the check (NaN included) raises and is never kept."""
    CE = C @ E_d
    return _gain(CE.shape, CE.dtype, CE.tobytes())


@functools.lru_cache(maxsize=1)
def _gain(shape, dtype, data: bytes) -> np.ndarray:
    F_d, rank = pinv_and_rank(np.frombuffer(data, dtype).reshape(shape))
    n_d = shape[1]
    if rank < n_d:
        raise RankConditionError(
            f"rank(C E_d) = {rank} < n_d = {n_d}; "
            "unknown-input extraction is infeasible at this step"
        )
    F_d.flags.writeable = False
    return F_d


def estimate_unknown_input(
    y: np.ndarray,
    x_star: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2: extract the unknown input from the input-free innovation.

    Returns (d_hat, F_d, gamma) with F_d = (C E_d)^+ and gamma = y - C x*.
    """
    F_d = unknown_input_gain(C, dm.E_d)
    gamma = y - C @ x_star
    return F_d @ gamma, F_d, gamma


def predict_with_input(x_star: np.ndarray, d_hat: np.ndarray, dm: DiscretizedModel) -> np.ndarray:
    """Step 3: correct the prediction with the freshly estimated input."""
    return x_star + matvec(dm.E_d, d_hat)


def extract(x_hat, u, y, dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Steps 1 and 2 with F_d = (C E_d)^+ given: (x_star, d_hat, gamma)."""
    x_star = predict_no_input(x_hat, u, dm)
    if y.shape[-1:] != C.shape[:1]:
        raise shape_error("y", y, C.shape[:1])
    gamma = y - matvec(C, x_star)
    return x_star, matvec(F_d, gamma), gamma


def four_step(x_hat, u, y, dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray, K: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Steps 1-4 with the gain K in step 4: (x_star, d_hat, gamma, x_pred, x_hat)."""
    x_star, d_hat, gamma = extract(x_hat, u, y, dm, C, F_d)
    x_pred = predict_with_input(x_star, d_hat, dm)
    return x_star, d_hat, gamma, x_pred, update(x_pred, y, K, C)


def process_noise(G: np.ndarray, Q: np.ndarray, dt: float) -> np.ndarray:
    """G Q G^T dt, the discrete process-noise covariance (one factor of dt)."""
    return G @ Q @ G.T * dt


def output_noise(C: np.ndarray, G: np.ndarray, Q: np.ndarray, dt: float) -> np.ndarray:
    """C G Q G^T C^T dt, the process noise seen at the output."""
    return C @ G @ Q @ G.T @ C.T * dt


@dataclass
class StepTerms:
    """What one step of any estimator reads from the model (see step_terms),
    the model-only products of the r4skf and a2kf covariance recursions, and
    the a2kf's augmented blocks. Each product is formed when first read and
    then kept, so every estimator that reads the StepTerms step_terms keeps
    on the model shares it: once per step, or once per time-invariant model.
    Only whole terms and the leading product C A_d are kept: numpy evaluates
    C A_d P A_d^T C^T left to right, and A_d^T C^T formed beforehand would
    round differently."""

    dm: DiscretizedModel
    C: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    G: np.ndarray                     # the continuous-time noise matrix
    F_d: np.ndarray                   # (C E_d)^+

    @cached_property
    def CA_d(self) -> np.ndarray:
        return self.C @ self.dm.A_d

    @cached_property
    def GQG(self) -> np.ndarray:
        return process_noise(self.G, self.Q, self.dm.dt)

    @cached_property
    def CGQGC(self) -> np.ndarray:
        return output_noise(self.C, self.G, self.Q, self.dm.dt)

    @cached_property
    def augmented(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The a2kf's discrete blocks of [x; d]: [[A_d, E_d], [0, I]], [B_d; 0]
        and [C 0]. One property, as the first read of each takes a lock."""
        n_y, n_x = self.C.shape
        n_a = n_x + self.F_d.shape[0]
        A_da = np.array(identity(n_a))
        A_da[:n_x, :n_x], A_da[:n_x, n_x:] = self.dm.A_d, self.dm.E_d
        B_da = np.zeros((n_a, self.dm.B_d.shape[1]))
        B_da[:n_x] = self.dm.B_d
        C_a = np.zeros((n_y, n_a))
        C_a[:, :n_x] = self.C
        return A_da, B_da, C_a


def gain_and_covariance(P_prev: np.ndarray, terms: StepTerms) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Covariance prediction, Kalman gain K, combined gain
    L = K + (I - K C) E_d F_d and the Joseph update of P_pred with L on the
    StepTerms of the step: (P_pred, K, L, P_post). The process noise enters
    as G Q G^T dt, one factor of dt.
    """
    C, R = terms.C, terms.R
    P_pred = terms.dm.A_d @ P_prev @ terms.dm.A_d.T + terms.GQG
    K = kalman_gain(P_pred, C, R)
    L = K + (identity(P_pred.shape[-1]) - K @ C) @ terms.dm.E_d @ terms.F_d
    return P_pred, K, L, joseph_update(P_pred, L, C, R)


def kalman_gain(P_pred: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """K = P C^T S^{-1} with S = C P C^T + R, refused when S is numerically singular.

    On a stack of P the error raised for the first refused S carries its
    flat position in the stack as ``index``.
    """
    CP = C @ P_pred
    S = CP @ C.T + R
    S = 0.5 * (S + S.swapaxes(-1, -2))
    # the |eigenvalues| of the symmetric S are its singular values, so the |w|
    # test is the 2-norm test 1 / cond(S) > RCOND_FLOOR without an SVD; eigvalsh
    # sorts w ascending, and w[0] > RCOND_FLOOR * w[-1] holds only when every w
    # is positive, where it is the |w| test; any other S takes the |w| test
    w = np.linalg.eigvalsh(S)
    if not (w[..., 0] > RCOND_FLOOR * w[..., -1]).all():
        w = np.abs(w)
        ok = w.min(axis=-1) > RCOND_FLOOR * w.max(axis=-1)
        if not ok.all():
            i = int(np.argmin(ok))          # the first refused S
            if np.isnan(S.reshape(-1, *S.shape[-2:])[i]).any():
                exc = np.linalg.LinAlgError("innovation covariance C P C^T + R contains NaN")
            else:
                exc = IllConditionedError("innovation covariance C P C^T + R is numerically singular")
            exc.index = i
            raise exc
    return np.linalg.solve(S, CP).swapaxes(-1, -2)


def joseph_update(P_pred: np.ndarray, L: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Joseph-form update (I - L C) P (I - L C)^T + L R L^T, symmetric PSD for any gain L."""
    ImLC = identity(P_pred.shape[-1]) - L @ C
    P_post = ImLC @ P_pred @ ImLC.swapaxes(-1, -2) + L @ R @ L.swapaxes(-1, -2)
    return 0.5 * (P_post + P_post.swapaxes(-1, -2))


def update(x_pred: np.ndarray, y: np.ndarray, K: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Step 4: measurement update of the input-corrected prediction."""
    if K.shape[-2:] != (x_pred.shape[-1], C.shape[0]):
        raise shape_error("gain (gain_override or L)", K, (x_pred.shape[-1], C.shape[0]))
    return x_pred + matvec(K, y - matvec(C, x_pred))


def stability_matrices(
    dm: DiscretizedModel, C: np.ndarray, F_d: np.ndarray, K: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Error-dynamics matrices (A_bar, A_tilde) of the predictor and the full
    filter: e⁻_k = Ā e_{k-1} + noise and e_k = Ã e_{k-1} + noise.

    The predictor (and hence the filter) is asymptotically stable iff the
    spectral radius of Ā (resp. Ã) stays below one.
    """
    n_x = dm.A_d.shape[0]
    A_bar = (identity(n_x) - dm.E_d @ F_d @ C) @ dm.A_d
    return A_bar, (identity(n_x) - K @ C) @ A_bar


def unknown_input_error_cov(P_prev: np.ndarray, terms: StepTerms) -> np.ndarray:
    """Covariance of the unknown-input estimation error d - d̂ on the StepTerms
    of the step.

    In quiescence (P small) this reduces to F_d (C G Q G^T C^T dt + R) F_d^T;
    since F_d scales like 1/dt, measurement noise is magnified by 1/dt^2.
    """
    mid = terms.CA_d @ P_prev @ terms.dm.A_d.T @ terms.C.T + terms.CGQGC + terms.R
    Pd = terms.F_d @ mid @ terms.F_d.T
    return 0.5 * (Pd + Pd.T)


def step_terms(model: SystemModel, k: int) -> StepTerms:
    """What one step reads from the model, for the step from t_k = k dt to
    measurement k + 1, with the rank-checked F_d = (C E_d)^+.

    The model keeps the last StepTerms evaluated from it, keyed by k, or by
    None, "every step", for a time-invariant model. So estimators that step
    one model at the same k (r4skf.step, a2kf.a2kf_step, the runners of
    sim.run_scenario) share one evaluation, and a time-invariant model is
    evaluated once per instance; a time-varying one once per step, every
    product of its StepTerms included. No SVD is formed while C E_d repeats
    the last value (unknown_input_gain). This holds as long as a callable
    matrix returns the same values for the same argument and its results are
    not written to. A_d, B_d, E_d and F_d are read-only; C, R, Q and G are
    the arrays the model returned. A failed evaluation keeps no terms, so it
    raises again on the next call."""
    kept = model.__dict__.get("_step_terms")
    if kept is not None and (kept[0] is None or kept[0] == k):
        return kept[1]
    terms = _evaluate(model, k)
    # one assignment of an immutable pair: two threads may both build the
    # terms, but neither sees a torn entry
    model.__dict__["_step_terms"] = (None if model.time_invariant else k, terms)
    return terms


def _evaluate(model: SystemModel, k: int) -> StepTerms:
    t = k * model.dt
    dm = discretize(model, t)
    C = np.asarray(model.C(k + 1), dtype=float)
    R = np.asarray(model.R(k + 1), dtype=float)
    Q = np.asarray(model.Q(t), dtype=float)
    G = np.asarray(model.G(t), dtype=float)
    return StepTerms(dm, C, R, Q, G, unknown_input_gain(C, dm.E_d))


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
    is reproduced on the filter code path. The shapes of y and of the gain
    are checked, the values of y are not: a NaN leaves the covariance
    sequence, which never reads y, as it is and the estimate NaN from then on.
    """
    return advance(state, u, y, step_terms(model, state.k), gain_override)


def advance(state: FilterState, u, y, terms: StepTerms, gain_override=None) -> Tuple[FilterState, StepReport]:
    """step on model terms evaluated beforehand (see step_terms). x_hat, u
    and y may carry a leading seed axis while P is shared: the covariance,
    gain and Pd sequence never reads a measurement, so it runs once for all
    seeds, and the state half runs on the stack."""
    Pd = unknown_input_error_cov(state.P, terms)
    _, K, L, P_post = gain_and_covariance(state.P, terms)
    K_used = K if gain_override is None else np.asarray(gain_override, dtype=float)
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    dm, C, F_d = terms.dm, terms.C, terms.F_d
    x_star, d_hat, gamma, x_pred, x_hat = four_step(state.x_hat, u, y, dm, C, F_d, K_used)

    new_state = FilterState(x_hat=x_hat, P=P_post, d_hat=d_hat, Pd=Pd, gamma=gamma, k=state.k + 1)
    report = StepReport(x_star=x_star, x_pred=x_pred, d_hat=d_hat, F_d=F_d, K=K_used, L=L, dm=dm, C=C)
    return new_state, report
