"""Continuous-discrete stochastic system model and its first-order discretization.

The plant is

    dx/dt = A(t) x + B(t) u + E(t) d + G(t) w,      w ~ N(0, Q(t))
    y_k   = C_k x_k + v_k,                          v_k ~ N(0, R_k)

where d is an unmeasured exogenous input (disturbance or actuator fault)
with no assumed dynamics. Estimating d through the outputs requires the
structural condition rank(C E) = rank(E) = n_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .errors import DimensionError

MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]


_MATRICES = ("A", "B", "E", "G", "Q", "C", "R")


class _Constant:
    """A matrix given as an array, called like a matrix of time or step index."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __call__(self, _arg) -> np.ndarray:
        return self.arr


def _wrap(M, name):
    """Normalize a constant array or callable (of time or step index) to a callable."""
    if callable(M):
        return M
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    return _Constant(arr)


@dataclass(frozen=True)
class SystemModel:
    """Continuous-discrete linear plant.

    A, B, E, G, Q are callables of continuous time t (constant matrices are
    wrapped automatically); C and R are callables of the measurement step
    index k. All evaluated matrices are treated as immutable.
    time_invariant is True when every matrix was given as an array.
    """

    A: MatrixLike
    B: MatrixLike
    E: MatrixLike
    G: MatrixLike
    C: MatrixLike
    Q: MatrixLike
    R: MatrixLike
    dt: float
    n_x: int = 0
    n_u: int = 0
    n_d: int = 0
    n_y: int = 0
    n_w: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"model.dt: must be a positive finite number, got {self.dt}")
        for name in _MATRICES:
            object.__setattr__(self, name, _wrap(getattr(self, name), name))

        A0, B0, E0, G0, Q0 = (np.asarray(M(0.0), dtype=float) for M in (self.A, self.B, self.E, self.G, self.Q))
        C0, R0 = (np.asarray(M(0), dtype=float) for M in (self.C, self.R))
        for name, M in zip(_MATRICES, (A0, B0, E0, G0, Q0, C0, R0)):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")

        n_x = A0.shape[0]
        if A0.shape != (n_x, n_x):
            raise DimensionError(f"A must be square, got {A0.shape}")
        for name, M, rows in (("B", B0, n_x), ("E", E0, n_x), ("G", G0, n_x)):
            if M.shape[0] != rows:
                raise DimensionError(f"{name} must have {rows} rows, got {M.shape}")
        if C0.shape[1] != n_x:
            raise DimensionError(f"C must have {n_x} columns, got {C0.shape}")
        n_w = G0.shape[1]
        if Q0.shape != (n_w, n_w):
            raise DimensionError(f"Q must be {n_w}x{n_w}, got {Q0.shape}")
        n_y = C0.shape[0]
        if R0.shape != (n_y, n_y):
            raise DimensionError(f"R must be {n_y}x{n_y}, got {R0.shape}")
        n_d = E0.shape[1]
        if n_d > n_y:
            raise DimensionError(
                f"n_d={n_d} exceeds n_y={n_y}; C@E_d cannot be left-invertible"
            )
        if not np.allclose(Q0, Q0.T):
            raise ValueError("Q must be symmetric")
        if not np.allclose(R0, R0.T):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(R0).min() <= 0:
            raise ValueError("R must be positive definite")
        if np.linalg.eigvalsh(Q0).min() < -1e-12 * max(1.0, np.abs(Q0).max()):
            raise ValueError("Q must be positive semi-definite")

        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_u", B0.shape[1])
        object.__setattr__(self, "n_d", n_d)
        object.__setattr__(self, "n_y", n_y)
        object.__setattr__(self, "n_w", n_w)

    @property
    def time_invariant(self) -> bool:
        return all(isinstance(getattr(self, name), _Constant) for name in _MATRICES)


@dataclass(frozen=True)
class DiscretizedModel:
    """One-step first-order-hold matrices: A_d = I + A dt, X_d = X dt."""

    A_d: np.ndarray
    B_d: np.ndarray
    E_d: np.ndarray
    G_d: np.ndarray
    t: float
    dt: float


def discretize(model: SystemModel, t: float) -> DiscretizedModel:
    """First-order (Euler) discretization of the plant at step start time t."""
    dt = model.dt
    A = np.asarray(model.A(t), dtype=float)
    return DiscretizedModel(
        A_d=np.eye(model.n_x) + A * dt,
        B_d=np.asarray(model.B(t), dtype=float) * dt,
        E_d=np.asarray(model.E(t), dtype=float) * dt,
        G_d=np.asarray(model.G(t), dtype=float) * dt,
        t=t,
        dt=dt,
    )


def pinv_and_rank(M: np.ndarray, tol: float = 1e-10) -> Tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse and numerical rank from one SVD.

    Singular values below tol * sigma_max are treated as zero.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0])), 0
    kept = s > tol * s[0]
    inv = np.where(kept, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T, int(np.sum(kept))


def moore_penrose_pinv(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD (see pinv_and_rank)."""
    return pinv_and_rank(M, tol)[0]


def numerical_rank(M: np.ndarray, tol: float = 1e-10) -> int:
    """Rank by counting singular values above tol * sigma_max."""
    return pinv_and_rank(M, tol)[1]


def check_rank_condition(C: np.ndarray, E: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff rank(C @ E) = rank(E) = n_d, i.e. every unknown-input
    direction is visible through the outputs in one step."""
    C = np.asarray(C, dtype=float)
    E = np.asarray(E, dtype=float)
    if C.shape[1] != E.shape[0]:
        raise DimensionError(
            f"C has {C.shape[1]} columns but E has {E.shape[0]} rows"
        )
    n_d = E.shape[1]
    return numerical_rank(C @ E, tol) == n_d and numerical_rank(E, tol) == n_d
