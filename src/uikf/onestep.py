"""One-step filter for the square case n_x = n_y = n_d.

When the output map and the unknown-input map are both invertible, the
combined gain collapses to C^{-1} regardless of the Kalman gain, so the
whole recursion reduces to x̂ = C^{-1} y with exact error covariance
C^{-1} R C^{-T}. The estimator is always stable and forgets initial
condition errors after the first measurement.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError
from . import r4skf, sim
from .model import SystemModel

COND_LIMIT = 1e12


def _invertible(M, name: str) -> np.ndarray:
    """M as a float array, refused unless its 2-norm condition number is below COND_LIMIT."""
    M = np.asarray(M, dtype=float)
    if np.linalg.cond(M) >= COND_LIMIT:
        raise IllConditionedError(f"{name} is not numerically invertible")
    return M


def one_step_estimate(y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """x̂ = C^{-1} y by linear solve (no explicit inverse); y may carry leading
    axes (one row per seed), each row solved by its own LAPACK call."""
    y = np.asarray(y, dtype=float)
    return np.linalg.solve(_invertible(C, "C"), y[..., None])[..., 0]


def one_step_error_cov(C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Exact estimation error covariance C^{-1} R C^{-T}."""
    C = _invertible(C, "C")
    X = np.linalg.solve(C, np.asarray(R, dtype=float))
    return np.linalg.solve(C, X.T).T


def equivalence_check(
    model: SystemModel,
    steps: int,
    seed: int,
    x0_hat=None,
    d_scale: float = 1.0,
) -> float:
    """Run the full four-step filter and the one-step estimate on the same
    random measurement stream; return the max per-step scaled deviation
    max_k ||x̂_filter - C^{-1} y|| / (1 + ||C^{-1} y||).
    """
    if not (model.n_x == model.n_y == model.n_d):
        raise ValueError("equivalence_check requires n_x = n_y = n_d")
    rng = np.random.default_rng(seed)
    d = d_scale * rng.standard_normal((steps, model.n_d))
    ys = sim.simulate(model, np.zeros(model.n_x), d, [rng])[1][0]
    state = r4skf.initial_state(
        model, np.zeros(model.n_x) if x0_hat is None else np.asarray(x0_hat, dtype=float)
    )
    u = np.zeros(model.n_u)
    worst = 0.0
    for k in range(steps):
        state, _ = r4skf.step(state, u, ys[k], model)
        ref = one_step_estimate(ys[k], r4skf.step_terms(model, k).C)
        dev = np.linalg.norm(state.x_hat - ref) / (1.0 + np.linalg.norm(ref))
        worst = max(worst, dev)
    return worst
