"""Continuous-discrete stochastic system model and its first-order discretization.

The plant is

    dx/dt = A(t) x + B(t) u + E(t) d + G(t) w,      w ~ N(0, Q(t))
    y_k   = C_k x_k + v_k,                          v_k ~ N(0, R_k)

where d is an unmeasured exogenous input (disturbance or actuator fault)
with no assumed dynamics. Estimating d through the outputs requires the
structural condition rank(C E) = rank(E) = n_d, which r4skf.unknown_input_gain
checks on every step as rank(C E_d) = n_d.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, Tuple, Union

import numpy as np

from .errors import ConfigError, DimensionError

MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]

RANK_TOL = 1e-10                # relative to sigma_max, see pinv_and_rank


_MATRICES = ("A", "B", "E", "G", "Q", "C", "R")


class _Constant:
    """A matrix given as an array, called like a matrix of time or step index."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __call__(self, _arg) -> np.ndarray:
        return self.arr


def read_only(M, field: str) -> np.ndarray:
    """A read-only float copy of M, so that later writes to the caller's array, or through
    the returned one, cannot change a model or a config. The one conversion of an array
    field: a value numpy cannot convert, or a complex one, is a ConfigError naming the field."""
    try:
        # a complex ndarray would convert with a warning and lose its imaginary part
        if np.iscomplexobj(M):
            raise TypeError("complex values are not allowed")
        arr = np.array(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric array ({exc})") from exc
    arr.flags.writeable = False
    return arr


def _wrap(M, name: str):
    """Normalize a constant array or callable (of time or step index) to a
    callable. A constant is a read_only copy."""
    return M if callable(M) else _Constant(read_only(M, f"model.{name}"))


# The field rules that SystemModel and cdekf.NonlinearModel share; an error
# names the field, as in `model.R: not symmetric`.
def check_dt(dt) -> None:
    if not (isinstance(dt, numbers.Real) and np.isfinite(dt) and dt > 0):
        raise ValueError(f"model.dt: must be a positive finite number, got {dt!r}")


def check_matrix(name: str, M: np.ndarray) -> None:
    if M.ndim != 2:
        raise DimensionError(f"model.{name}: must be a 2-D matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"model.{name}: must be finite")


def check_covariances(Q: np.ndarray, R: np.ndarray, R_definite: bool) -> None:
    """Q (semi-definite) and R through cov_factor."""
    for name, M, definite in (("Q", Q, False), ("R", R, R_definite)):
        try:
            cov_factor(M, definite)
        except ValueError as exc:       # np.linalg.LinAlgError included
            raise ValueError(f"model.{name}: {exc}") from exc


@dataclass(frozen=True)
class SystemModel:
    """Continuous-discrete linear plant.

    A, B, E, G, Q are callables of continuous time t (constant matrices are
    wrapped automatically); C and R are callables of the measurement step
    index k. All evaluated matrices are treated as immutable; a matrix given
    as an array is stored as a read-only copy of it, so writing into
    model.C(0) raises and writing into the caller's array changes nothing.
    A callable matrix must return the same values for the same argument, and
    its result must not be written to afterwards: the model keeps the last
    StepTerms that r4skf.step_terms evaluated from it and the last result of
    discretize, so estimators that step it at the same k share one
    evaluation. time_invariant is True when every matrix was given as an
    array; such a model is evaluated once per instance. A dataclasses.replace
    copy starts without kept terms. An error names the field, as in
    `model.R: not symmetric`; n_x, ... are read from the matrices.
    """

    A: MatrixLike
    B: MatrixLike
    E: MatrixLike
    G: MatrixLike
    C: MatrixLike
    Q: MatrixLike
    R: MatrixLike
    dt: float
    n_x: int = field(init=False, default=0)
    n_u: int = field(init=False, default=0)
    n_d: int = field(init=False, default=0)
    n_y: int = field(init=False, default=0)
    n_w: int = field(init=False, default=0)

    def __post_init__(self):
        check_dt(self.dt)
        for name in _MATRICES:
            object.__setattr__(self, name, _wrap(getattr(self, name), name))

        A0, B0, E0, G0, Q0 = (read_only(getattr(self, name)(0.0), f"model.{name}") for name in "ABEGQ")
        C0, R0 = (read_only(getattr(self, name)(0), f"model.{name}") for name in "CR")
        for name, M in zip(_MATRICES, (A0, B0, E0, G0, Q0, C0, R0)):
            check_matrix(name, M)

        n_x = A0.shape[0]
        if A0.shape != (n_x, n_x):
            raise DimensionError(f"model.A: must be square, got {A0.shape}")
        for name, M, rows in (("B", B0, n_x), ("E", E0, n_x), ("G", G0, n_x)):
            if M.shape[0] != rows:
                raise DimensionError(f"model.{name}: must have {rows} rows, got {M.shape}")
        if C0.shape[1] != n_x:
            raise DimensionError(f"model.C: must have {n_x} columns, got {C0.shape}")
        n_w = G0.shape[1]
        if Q0.shape != (n_w, n_w):
            raise DimensionError(f"model.Q: must be {n_w}x{n_w}, got {Q0.shape}")
        n_y = C0.shape[0]
        if R0.shape != (n_y, n_y):
            raise DimensionError(f"model.R: must be {n_y}x{n_y}, got {R0.shape}")
        n_d = E0.shape[1]
        if n_d > n_y:
            raise DimensionError(
                f"model.E: n_d={n_d} exceeds n_y={n_y}; C@E_d cannot be left-invertible"
            )
        check_covariances(Q0, R0, R_definite=True)

        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_u", B0.shape[1])
        object.__setattr__(self, "n_d", n_d)
        object.__setattr__(self, "n_y", n_y)
        object.__setattr__(self, "n_w", n_w)

    @functools.cached_property
    def time_invariant(self) -> bool:
        return all(isinstance(getattr(self, name), _Constant) for name in _MATRICES)


@functools.cache
def identity(n: int) -> np.ndarray:
    """The n x n identity, formed once per size and shared by every caller,
    so it is read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def cov_factor(M: np.ndarray, definite: bool = False) -> np.ndarray:
    """S with S S^T = M, the one covariance check: of Q and R at 0 by SystemModel,
    of every later value by the truth simulator. M must equal M^T to 1e-12 max|M|
    entrywise. A definite M whose Cholesky factorization fails is refused; any
    other M falls back to an eigen factorization that refuses an eigenvalue
    below -1e-12 max(1, max|M|). A refusal is a ValueError."""
    M = np.asarray(M, dtype=float)
    if not (M == M.T).all() and np.abs(M - M.T).max() > 1e-12 * np.abs(M).max():     # exact test first: it is cheaper
        raise ValueError("not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if definite:
            raise
        w, V = np.linalg.eigh(M)
        if w[0] < -1e-12 * max(1.0, np.abs(M).max()):
            raise ValueError(f"not positive semi-definite (eigenvalue {w[0]:.3g})") from None
        return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class DiscretizedModel:
    """One-step first-order-hold matrices: A_d = I + A dt, X_d = X dt."""

    A_d: np.ndarray
    B_d: np.ndarray
    E_d: np.ndarray
    dt: float


def discretize(model: SystemModel, t: float) -> DiscretizedModel:
    """First-order (Euler) discretization of the plant at step start time t.
    The model keeps the last result, keyed by t, so a caller that
    discretizes it at the t r4skf.step_terms just read shares that A_d; so
    A_d, B_d and E_d are read-only."""
    kept = model.__dict__.get("_discretized")
    if kept is not None and kept[0] == t:
        return kept[1]
    dt = model.dt
    dm = DiscretizedModel(
        A_d=identity(model.n_x) + np.asarray(model.A(t), dtype=float) * dt,
        B_d=np.asarray(model.B(t), dtype=float) * dt,
        E_d=np.asarray(model.E(t), dtype=float) * dt,
        dt=dt,
    )
    for M in (dm.A_d, dm.B_d, dm.E_d):
        M.flags.writeable = False
    # one assignment of an immutable pair, as in r4skf.step_terms
    model.__dict__["_discretized"] = (t, dm)
    return dm


def pinv_and_rank(M: np.ndarray) -> Tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse and numerical rank from one SVD.

    Singular values below RANK_TOL * sigma_max are treated as zero. The SVD
    sorts them in descending order, so the kept ones are the first r.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0])), 0
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T, r


def moore_penrose_pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD (see pinv_and_rank)."""
    return pinv_and_rank(M)[0]


def numerical_rank(M: np.ndarray) -> int:
    """Rank by counting singular values above RANK_TOL * sigma_max."""
    return pinv_and_rank(M)[1]
