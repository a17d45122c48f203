"""Unknown-input observer: the deterministic counterpart of the four-step
filter with a fixed user-supplied gain L instead of a Kalman gain.

Discrete recursion (same first-order discretization as the filter):

    w_k  = A_d x̂_{k-1} + B_d u
    d̂    = F_d (y_k - C w_k)
    z_k  = w_k + E_d d̂
    x̂_k  = z_k + L (y_k - C z_k)

This is r4skf.four_step with L in place of the Kalman gain (w = x*,
z = x̂⁻); no covariance is computed. With L = C^{-1} in the square case the
observer output equals C^{-1} y exactly. F_d comes from
r4skf.unknown_input_gain, so the observer refuses the same rank-deficient
steps as the filter, and forms no SVD of its own when its C E_d is that of
the last gain formed: a filter stepping the same model at the same k, or an
earlier step of a constant C E_d. Its error dynamics are the filter's with
L for K: r4skf.stability_matrices(dm, C, F_d, L)[1] = (I - L C) Ā, and a
constant observer is asymptotically stable iff the spectral radius of that
matrix is below one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import r4skf
from .model import DiscretizedModel


@dataclass(frozen=True)
class ObserverState:
    w: np.ndarray
    z: np.ndarray
    x_hat: np.ndarray
    d_hat: np.ndarray


def initial_observer_state(x0_hat, n_d: int) -> ObserverState:
    """w, z and x̂ all start at the supplied initial estimate."""
    x0 = np.asarray(x0_hat, dtype=float)
    return ObserverState(w=x0.copy(), z=x0.copy(), x_hat=x0.copy(), d_hat=np.zeros(n_d))


def observer_step(
    state: ObserverState,
    y: np.ndarray,
    u: np.ndarray,
    dm: DiscretizedModel,
    C: np.ndarray,
    L: np.ndarray,
) -> ObserverState:
    """One observer step: r4skf.four_step with F_d = (C E_d)^+ and the gain L."""
    F_d = r4skf.unknown_input_gain(C, dm.E_d)
    u, y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    w, d_hat, _, z, x_hat = r4skf.four_step(state.x_hat, u, y, dm, C, F_d, L)
    return ObserverState(w=w, z=z, x_hat=x_hat, d_hat=d_hat)
