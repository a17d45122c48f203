"""Continuous-discrete stochastic system model and its first-order discretization.

The plant is

    dx/dt = A(t) x + B(t) u + E(t) d + G(t) w,      w ~ N(0, Q(t))
    y_k   = C_k x_k + v_k,                          v_k ~ N(0, R_k)

where d is an unmeasured exogenous input (disturbance or actuator fault)
with no assumed dynamics. Estimating d through the outputs requires the
structural condition rank(C E) = rank(E) = n_d, which r4skf.unknown_input_gain
checks on every step as rank(C E_d) = n_d.

eigvalsh, solve, svd and singular_values are the per-step path's LAPACK calls:
numpy's gufuncs under numpy's error rule, without np.linalg's per-call dispatch.
A matrix is read through a closure: a constant's returns its array, a
callable's checks each later value against the value at 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Tuple, Union

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import ConfigError, DimensionError

MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]

RANK_TOL = 1e-10                # relative to sigma_max, see pinv_and_rank


_MATRICES = ("A", "B", "E", "G", "Q", "C", "R")
_FLOAT = np.dtype(float)


def _constant(arr: np.ndarray):
    """A matrix given as an array, read like a matrix of time or step index: the array itself, also its .arr."""
    def read(_arg) -> np.ndarray:
        return arr
    read.arr = arr
    return read


def read_only(M, field: str) -> np.ndarray:
    """A read-only float copy of M, so that later writes to the caller's array, or through
    the returned one, cannot change a model or a config. The one conversion of an array
    field: a value numpy cannot convert, a complex one or a bool is a ConfigError naming the field."""
    try:
        # a complex ndarray would convert with a warning and lose its imaginary part
        if np.iscomplexobj(M):
            raise TypeError("complex values are not allowed")
        # numpy reads a bool as 1 or 0, beside floats in a list too: a dtype test, or one scan of other input
        held = M if isinstance(M, np.ndarray) else np.array(M, dtype=object)
        if held.dtype == bool or held.dtype == object and any(isinstance(v, (bool, np.bool_)) for v in held.flat):
            raise TypeError("bool values are not allowed")
        arr = np.array(M, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric array ({exc})") from exc
    arr.flags.writeable = False
    return arr


def read_number(value, field: str, rule: str = "finite") -> float:
    """The one scalar-field rule: value as a float if a real number, not a bool (a YAML `yes`), finite, within rule."""
    text = {"positive": "a positive finite number", "finite": "a finite number", ">= 0": "a finite number >= 0"}[rule]
    with contextlib.suppress(OverflowError):        # math.isfinite of an int beyond the floats
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value) and (
                rule == "finite" or float(value) > 0 or float(value) == 0 and rule == ">= 0"):
            return float(value)
    raise ConfigError(f"{field}: must be {text}, got {value!r}")


def _checked(fn, name: str, shape: Tuple[int, ...], dt: float):
    """A matrix given as a callable (its .fn) of t (A, B, E, G, Q) or k (C, R). A float ndarray of its shape at 0 (its
    .shape) is returned as it is; any other value is read by read_only and of another shape a DimensionError,
    each naming the matrix and the step: k for C and R, round(t / dt) + 1 for the others."""
    def read(arg) -> np.ndarray:
        M = fn(arg)
        if type(M) is np.ndarray and M.dtype is _FLOAT and M.shape == shape:
            return M
        where = f"model.{name}, step {arg if name in 'CR' else round(arg / dt) + 1}"
        M = read_only(M, where)
        if M.shape != shape:
            raise DimensionError(f"{where}: shape {M.shape}, but {shape} at 0")
        return M
    read.fn, read.shape = fn, shape
    return read


def _wrap(M, name: str, dt: float):
    """(M as a callable, its value at 0): a constant as a read_only copy, a callable checked against
    its shape at 0; of a replace copy, a constant's reader is kept and a callable checked afresh."""
    ours = getattr(M, "__module__", None) == __name__       # a reader of this module, not the user's callable
    M = M.fn if ours and hasattr(M, "fn") else M
    if ours and hasattr(M, "arr") or not callable(M):
        M = M if callable(M) else _constant(read_only(M, f"model.{name}"))
        return M, M.arr
    M0 = read_only(M(0 if name in "CR" else 0.0), f"model.{name}")
    return _checked(M, name, M0.shape, dt), M0


# The field rules that SystemModel and cdekf.NonlinearModel share; an error
# names the field, as in `model.R: not symmetric`.
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

    A, B, E, G, Q are callables of continuous time t (constant matrices are wrapped
    automatically); C and R are callables of the measurement step index k. All evaluated
    matrices are treated as immutable; a matrix given as an array is stored as a read-only copy
    of it, so writing into model.C(0) raises and writing into the caller's array changes
    nothing. A callable matrix is wrapped once (_checked), which holds every later value to the
    rules of its value at 0; it must return the same values for the same argument, and its
    result must not be written to afterwards: the model keeps the last StepTerms that
    r4skf.step_terms evaluated from it (kept_terms), so estimators that step it at the same k
    share one evaluation. time_invariant is True when every matrix was given as an array; such a
    model is evaluated once per instance. A dataclasses.replace copy starts without kept terms.
    An error names the field, as in `model.R: not symmetric`; n_x, ... are read from the values
    at 0.
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
        object.__setattr__(self, "dt", read_number(self.dt, "model.dt", "positive"))
        values = []
        for name in _MATRICES:
            M, M0 = _wrap(getattr(self, name), name, self.dt)
            object.__setattr__(self, name, M)
            check_matrix(name, M0)
            values.append(M0)
        A0, B0, E0, G0, Q0, C0, R0 = values

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

    def __reduce__(self):           # a reader does not pickle: rebuilt from the arrays and callables it reads
        readers = (getattr(self, name) for name in "ABEGCQR")        # in the order of __init__
        return SystemModel, tuple(M.arr if hasattr(M, "arr") else M.fn for M in readers) + (self.dt,)

    @functools.cached_property
    def time_invariant(self) -> bool:
        return all(hasattr(getattr(self, name), "arr") for name in _MATRICES)


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


def kept_terms(model: SystemModel, t: float, evaluate=None, *args):
    """The StepTerms kept on the model if for the step from t (kept at k dt == t, or for every step of a time-invariant
    model), else evaluate(*args) kept in one assignment of an immutable pair (no thread sees a torn entry), or None."""
    kept = model.__dict__.get("_step_terms")
    if kept is not None and (kept[0] is None or kept[0] == t):
        return kept[1]
    if evaluate is not None:
        kept = model.__dict__["_step_terms"] = (None if model.time_invariant else t, evaluate(*args))
        return kept[1]


def discretize(model: SystemModel, t: float) -> DiscretizedModel:
    """First-order (Euler) discretization of the plant at step start time t:
    the dm of the StepTerms kept on the model when they are for t (kept_terms),
    so a stream observer that discretizes at the t r4skf.step_terms just read
    evaluates no A(t), else a new one. A_d, B_d and E_d are read-only."""
    kept = kept_terms(model, t)
    if kept is not None:
        return kept.dm
    dt = model.dt
    dm = DiscretizedModel(A_d=identity(model.n_x) + model.A(t) * dt, B_d=model.B(t) * dt, E_d=model.E(t) * dt, dt=dt)
    for M in (dm.A_d, dm.B_d, dm.E_d):
        M.flags.writeable = False
    return dm


def pinv_and_rank(M: np.ndarray) -> Tuple[np.ndarray, int]:
    """Moore-Penrose pseudo-inverse and numerical rank from one SVD.

    Singular values below RANK_TOL * sigma_max are treated as zero. The SVD
    sorts them in descending order, so the kept ones are the first r: all of them, unsliced, when the last is.
    """
    M = np.asarray(M, dtype=float)
    U, s, Vt = svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0])), 0
    if s[-1] > RANK_TOL * s[0]:
        return (Vt.T * (1.0 / s)) @ U.T, s.size
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T, r


def _lapack_rule(text: str):
    """numpy's error rule of a LAPACK gufunc, as a decorator: a failure flag is LinAlgError(text), every other
    floating-point flag is ignored. Each call sets the rule in its own context (numpy >= 2), so threads do not share it."""
    def fail(err, flag):
        raise LinAlgError(text)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


# The per-step path's LAPACK calls: numpy's gufuncs under numpy's error rule, without np.linalg's dispatch (array
# conversion, type and shape checks, result wrapping). On the real float64 (..., m, n) matrices uikf passes, results
# and errors are np.linalg's, bitwise (kalman_gain, a2kf._project_Qd, pinv_and_rank, onestep.one_step_estimate).
# cov_factor's cholesky and eigh stay np.linalg calls: they run once per changed Q or R value, not once per step.
@_lapack_rule("Eigenvalues did not converge")
def eigvalsh(S: np.ndarray) -> np.ndarray:
    """The eigenvalues of each symmetric S (read from its lower triangle) in ascending order, as np.linalg.eigvalsh."""
    return _umath_linalg.eigvalsh_lo(S, signature="d->d")


@_lapack_rule("Singular matrix")
def solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with S X = B for a B of (..., n, m), by LU, as np.linalg.solve; a singular S is a LinAlgError."""
    return _umath_linalg.solve(S, B, signature="dd->d")


@_lapack_rule("SVD did not converge")
def svd(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, s, Vt) of each M, reduced, s in descending order, as np.linalg.svd with full_matrices=False."""
    return _umath_linalg.svd_s(M, signature="d->ddd")


@_lapack_rule("SVD did not converge")
def singular_values(M: np.ndarray) -> np.ndarray:
    """The singular values of each M in descending order, as np.linalg.svd with compute_uv=False."""
    return _umath_linalg.svd(M, signature="d->d")


def moore_penrose_pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD (see pinv_and_rank)."""
    return pinv_and_rank(M)[0]


def numerical_rank(M: np.ndarray) -> int:
    """Rank by counting singular values above RANK_TOL * sigma_max."""
    return pinv_and_rank(M)[1]
