"""model.eigvalsh, model.solve, model.svd and model.singular_values, the
per-step path's LAPACK calls, call numpy's gufuncs under numpy's own error
rule. On the real float64 matrices the filters pass they give np.linalg's
results bitwise, and its errors with the same type and text, whatever errstate
the caller runs under (run_scenario raises on over, invalid and divide), with
no RuntimeWarning; each call sets the rule in its own thread's context only.
No module of the package calls np.linalg's wrappers of them.
"""

import re
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import uikf
from uikf import a2kf, model, r4skf
from uikf.benchmark import benchmark_model

STACKS = [None, 1, 2, 7, 50, 200]       # None: one matrix, no stack axis
SIZES = range(1, 7)
RUN_SCENARIO_RULE = dict(over="raise", invalid="raise", divide="raise")


def symmetric(rng, n, stack):
    shape = (n, n) if stack is None else (stack, n, n)
    X = rng.standard_normal(shape)
    return X @ X.swapaxes(-1, -2) + rng.standard_normal(shape[:-2] + (1, 1)) * np.eye(n)     # some indefinite


def outcome(f, *args):
    """What f(*args) gives: its dtype, shape and bytes (NaN payloads included), of each array of a tuple, or its
    error's type and text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = f(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return tuple((a.dtype, a.shape, a.tobytes()) for a in r) if isinstance(r, tuple) else (r.dtype, r.shape, r.tobytes())


def same_as_numpy(ours, theirs, *args):
    """ours(*args) is theirs(*args) under the default errstate and under run_scenario's, which each leaves as it was."""
    for rule in ({}, RUN_SCENARIO_RULE):
        with np.errstate(**rule):
            before = np.geterr()
            got, want = outcome(ours, *args), outcome(theirs, *args)
            assert np.geterr() == before
        assert got == want
    return got


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_eigvalsh_is_numpys_bitwise(n, stack):
    rng = np.random.default_rng(100 * n + (stack or 0))
    for _ in range(3):
        S = symmetric(rng, n, stack)
        got = same_as_numpy(model.eigvalsh, np.linalg.eigvalsh, S)
        assert got[:2] == (np.dtype(float), S.shape[:-1])
        same_as_numpy(model.eigvalsh, np.linalg.eigvalsh, S.swapaxes(-1, -2))        # a strided view


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("n", SIZES)
def test_solve_is_numpys_bitwise(n, stack):
    rng = np.random.default_rng(100 * n + (stack or 0))
    S = symmetric(rng, n, stack)
    for m in (1, n, 4):                 # kalman_gain solves S X = C P, an (n_y, n_x) right-hand side
        B = rng.standard_normal(S.shape[:-1] + (m,))
        got = same_as_numpy(model.solve, np.linalg.solve, S, B)
        assert got[:2] == (np.dtype(float), B.shape)
    # one_step_estimate: one C, measurements with leading axes as (..., n, 1)
    C = S if stack is None else S[0]
    y = rng.standard_normal((n,) if stack is None else (stack, n))
    same_as_numpy(model.solve, np.linalg.solve, C, y[..., None])


def test_a_singular_S_raises_numpys_error():
    for S in (np.zeros((3, 3)), np.ones((3, 3)), np.stack([np.eye(3), np.ones((3, 3))])):
        got = same_as_numpy(model.solve, np.linalg.solve, S, np.ones(S.shape[:-1] + (2,)))
        assert got == (np.linalg.LinAlgError, "Singular matrix")


def nan_S_of_the_a2kf(monkeypatch):
    """The S of the a2kf step that raises on a NaN measurement (test_r4skf.py, test_a_nan_measurement_is_not_checked)."""
    model_, u = benchmark_model(), np.zeros(2)
    ys = 1e-3 * np.random.default_rng(0).standard_normal((10, 3))
    ys[2, 0] = np.nan
    state, formed, gain = a2kf.initial_state(model_, np.zeros(4)), [], r4skf.kalman_gain

    def recorded(P_pred, C, R):
        formed.append(C @ P_pred @ C.T + R)
        return gain(P_pred, C, R)

    monkeypatch.setattr(r4skf, "kalman_gain", recorded)
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        for y in ys:
            state, _ = a2kf.a2kf_step(state, u, y, model_)
    return formed[-1]


def test_a_nan_pattern_raises_numpys_error(monkeypatch):
    S = nan_S_of_the_a2kf(monkeypatch)
    assert np.isnan(S).all()
    lower = np.eye(3)
    lower[1, 0] = np.nan                # a NaN numpy returns NaN eigenvalues for, and another it ignores
    for X in (S, np.stack([np.eye(3), S]), np.diag([1.0, np.inf, 1.0])):
        assert same_as_numpy(model.eigvalsh, np.linalg.eigvalsh, X) == (np.linalg.LinAlgError, "Eigenvalues did not converge")
    for X in (lower, lower.T.copy()):
        assert same_as_numpy(model.eigvalsh, np.linalg.eigvalsh, X)[0] == np.dtype(float)
    for X in (S, lower):                # the solve does not raise on NaN
        assert same_as_numpy(model.solve, np.linalg.solve, X, np.ones((3, 2)))[0] == np.dtype(float)


def test_an_overflow_inside_the_solve_is_ignored_as_numpy_ignores_it():
    S, B = np.diag([1e-300, 1.0]), np.full((2, 1), 1e300)
    got = same_as_numpy(model.solve, np.linalg.solve, S, B)
    assert np.isinf(np.frombuffer(got[2])).any()


def reduced_svd(M):
    return np.linalg.svd(M, full_matrices=False)


def numpys_singular_values(M):
    return np.linalg.svd(M, compute_uv=False)


# tall, wide and square, 1 x 1 to 6 x 6, and the empty C E_d of a plant without unknown input (3 x 0)
SVD_SHAPES = [(m, n) for m in SIZES for n in SIZES] + [(3, 0), (0, 3), (0, 0)]


@pytest.mark.parametrize("stack", [None, 1, 7])
@pytest.mark.parametrize("shape", SVD_SHAPES)
def test_svd_and_singular_values_are_numpys_bitwise(shape, stack):
    rng = np.random.default_rng(10 * shape[0] + shape[1] + 1000 * (stack or 0))
    M = rng.standard_normal(shape if stack is None else (stack,) + shape)
    p = min(shape)
    got = same_as_numpy(model.svd, reduced_svd, M)
    assert [a[:2] for a in got] == [(np.dtype(float), M.shape[:-1] + (p,)), (np.dtype(float), M.shape[:-2] + (p,)),
                                    (np.dtype(float), M.shape[:-2] + (p, shape[1]))]
    assert same_as_numpy(model.singular_values, numpys_singular_values, M)[:2] == (np.dtype(float), M.shape[:-2] + (p,))
    same_as_numpy(model.svd, reduced_svd, M.swapaxes(-1, -2))        # a strided view
    rank_deficient = np.concatenate([M, M], axis=-1)                # repeated columns: zero singular values
    same_as_numpy(model.svd, reduced_svd, rank_deficient)
    same_as_numpy(model.singular_values, numpys_singular_values, rank_deficient)


def test_a_nan_matrix_raises_numpys_svd_error():
    one_nan = np.arange(6.0).reshape(3, 2)
    one_nan[1, 0] = np.nan
    for M in (np.full((3, 2), np.nan), one_nan, np.stack([np.eye(3, 2), one_nan])):
        for ours, theirs in ((model.svd, reduced_svd), (model.singular_values, numpys_singular_values)):
            assert same_as_numpy(ours, theirs, M) == (np.linalg.LinAlgError, "SVD did not converge")
    for ours, theirs in ((model.svd, reduced_svd), (model.singular_values, numpys_singular_values)):
        same_as_numpy(ours, theirs, np.diag([np.inf, 1.0]))          # NaN values, no error, as numpy gives them


def test_two_threads_keep_their_own_error_state():
    """The rule is set per call in the calling thread's context, so neither thread restores the other's state, and
    each thread's failure is still numpy's error."""
    rng = np.random.default_rng(5)
    S, B, M = symmetric(rng, 3, None), rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    barrier, found = threading.Barrier(2, timeout=60), {}

    def run(rule):
        try:
            with np.errstate(all=rule):
                own = np.geterr()
                barrier.wait()
                for _ in range(300):
                    model.eigvalsh(S), model.solve(S, B), model.svd(M)
                    assert np.geterr() == own
                with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                    model.solve(np.zeros((3, 3)), B)
                found[rule] = np.geterr()
        except BaseException as exc:            # a failure in a thread is reported by the assert below
            found[rule] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                 # switch threads as often as the interpreter can
    try:
        threads = [threading.Thread(target=run, args=(rule,)) for rule in ("raise", "ignore")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert found == {rule: dict.fromkeys(("divide", "over", "under", "invalid"), rule) for rule in ("raise", "ignore")}


def test_no_module_calls_the_numpy_wrappers():
    pattern = re.compile(r"np\.linalg\.(eigvalsh|solve|svd)\(")
    sources = sorted(Path(uikf.__file__).parent.glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []
