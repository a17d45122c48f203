"""One-step filter for the square case n_x = n_y = n_d.

When the output map and the unknown-input map are both invertible, the
combined gain collapses to C^{-1} regardless of the Kalman gain, so the
whole recursion reduces to x̂ = C^{-1} y. The estimator is always stable and
forgets initial condition errors after the first measurement. Its exact
error covariance C^{-1} R C^{-T} is the r4skf's own P: with
Π = I - C E_d F_d = 0 the combined gain is L = E_d F_d = C^{-1}, and the
Joseph update reduces to L R L^T.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError
from . import r4skf, sim
from .model import SystemModel, singular_values, solve

COND_LIMIT = 1e12


def is_square(model: SystemModel) -> bool:
    """The square case n_x = n_y = n_d, the one case the one-step filter runs on."""
    return model.n_x == model.n_y == model.n_d


def one_step_estimate(y: np.ndarray, C: np.ndarray) -> np.ndarray:
    """x̂ = C^{-1} y by linear solve (no explicit inverse); y may carry leading
    axes (one row per seed), each row solved by its own LAPACK call (model.solve). C must be one square matrix,
    refused unless its 2-norm condition number (model.singular_values) is below COND_LIMIT, as np.linalg.cond
    decides it: at a zero s[-1] (inf) and on the NaN ratio of an inf in C. An empty C gives an empty x̂."""
    C, y = np.asarray(C, dtype=float), np.asarray(y, dtype=float)
    if y.shape[-1:] != C.shape[:1]:
        raise r4skf.shape_error("y", y, C.shape[:1])
    if C.shape != 2 * C.shape[:1]:
        raise r4skf.shape_error("C", C, 2 * C.shape[:1])
    s = singular_values(C)  # raises on a NaN in C; cond(C) = s[0] / s[-1], taken on floats (no warning)
    if s.size and (s[-1] == 0.0 or not float(s[0]) / float(s[-1]) < COND_LIMIT):
        raise IllConditionedError("C is not numerically invertible")
    return solve(C, y[..., None])[..., 0]


def white_input_stream(model: SystemModel, steps: int, seed: int) -> np.ndarray:
    """Measurements y_1..y_steps of the model from x0 = 0, driven by a white
    unknown input of unit standard deviation; one default_rng(seed) draws
    the input and then the truth's noise."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((steps, model.n_d))
    return sim.simulate(model, np.zeros(model.n_x), d, [rng])[1][0]


def row_norms(D: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of D, bitwise np.linalg.norm of that row: a one-row matmul takes
    the same dot product, where norm(D, axis=-1) and einsum round differently."""
    return np.sqrt((D[..., None, :] @ D[..., :, None])[..., 0, 0])


def equivalence_check(model: SystemModel, steps: int, seed: int, x0_hat=None) -> float:
    """Run the full four-step filter and the one-step estimate on the same
    random measurement stream; return the max per-step scaled deviation
    max_k ||x̂_filter - C^{-1} y|| / (1 + ||C^{-1} y||). The loop steps only the filter;
    C^{-1} y is then solved once per run of steps that share one `step_terms(model, k).C`
    object (once for a time-invariant model), and the deviation is one pass over the stream."""
    if not is_square(model):
        raise ValueError("equivalence_check requires n_x = n_y = n_d")
    ys = white_input_stream(model, steps, seed)
    state = r4skf.initial_state(
        model, np.zeros(model.n_x) if x0_hat is None else np.asarray(x0_hat, dtype=float)
    )
    u = np.zeros(model.n_u)
    (x_hat, ref), Cs, start = np.empty((2, steps, model.n_x)), [None] * steps, 0
    for k in range(steps):
        state, _ = r4skf.step(state, u, ys[k], model)
        x_hat[k], Cs[k] = state.x_hat, r4skf.step_terms(model, k).C
    for k in range(1, steps + 1):
        if k == steps or Cs[k] is not Cs[start]:
            ref[start:k], start = one_step_estimate(ys[start:k], Cs[start]), k
    return float(np.max(row_norms(x_hat - ref) / (1.0 + row_norms(ref)), initial=0.0))
