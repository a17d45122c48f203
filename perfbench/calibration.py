"""Reference kernel that the benchmark's times are normalized by.

The benchmark was defined on a shared virtual machine whose speed changes
by up to 2x for tens of seconds at a time, because of other tenants; the
process's CPU time rises with its wall time, so nothing inside the process
can avoid it. A fixed kernel of the same kind of work as the estimators
(small numpy matrix products, an SVD, a solve, a frozen dataclass per step)
is timed between blocks of the workload, and each block's wall time is
scaled by REF_NS / (the kernel's time around that block). A normalized time
reads as wall seconds on a machine that runs the kernel in REF_NS.

Do not change this file: the kernel and REF_NS define the unit of every
time metric, so a change here changes every result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

ITERS = 16
# wall time of ITERS iterations on the quiet reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31)
REF_NS = 950_000

_A = np.eye(4) + 0.01 * np.array(
    [
        [1.9527, -0.0075, 0.0663, 0.0437],
        [0.0017, 1.0452, 0.0056, -0.0242],
        [0.0092, 0.0064, -0.1975, 0.00128],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
_E = 0.01 * np.array([[0.554, 0.156], [0.246, -0.982], [0.320, 0.560], [0.0, 0.0]])
_C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
_Q = 1e-8 * np.eye(4)
_R = 1e-7 * np.eye(3)
_I = np.eye(4)
_Y = np.full(3, 1e-3)


@dataclass(frozen=True)
class _State:
    P: np.ndarray
    x: np.ndarray
    k: int


def _pinv(M):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (Vt.T / s) @ U.T


def _iteration(st: _State) -> _State:
    x = _A @ st.x
    M = _C @ _E
    np.linalg.svd(M, compute_uv=False)
    F = _pinv(M)
    P = _A @ st.P @ _A.T + _Q
    S = _C @ P @ _C.T + _R
    S = 0.5 * (S + S.T)
    np.linalg.cond(S)
    K = np.linalg.solve(S, _C @ P).T
    L = K + (_I - K @ _C) @ _E @ F
    ImLC = _I - L @ _C
    P = ImLC @ P @ ImLC.T + L @ _R @ L.T
    return _State(0.5 * (P + P.T), x + K @ (_Y - _C @ x), st.k + 1)


def kernel_ns() -> int:
    """Wall time of ITERS iterations of the reference kernel."""
    st = _State(np.eye(4), np.zeros(4), 0)
    t0 = time.perf_counter_ns()
    for _ in range(ITERS):
        st = _iteration(st)
    return time.perf_counter_ns() - t0


def probe_ns() -> int:
    """Median of three kernel runs, so that one stalled run does not count."""
    return sorted(kernel_ns() for _ in range(3))[1]


def normalized(seconds: float, before_ns: float, after_ns: float) -> float:
    """Scale a wall time by REF_NS over the mean of the probes around it."""
    return seconds * REF_NS / (0.5 * (before_ns + after_ns))
