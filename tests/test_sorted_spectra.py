"""The rank, conditioning and PSD checks read the sorted spectra of LAPACK.

model.pinv_and_rank keeps a prefix of the descending singular values,
r4skf.kalman_gain accepts a positive definite S on the first and last of its
ascending eigenvalues, and a2kf._project_Qd takes the first eigenvalue as the
smallest. Each is held here to a reference copy of the body that reduced the
whole spectrum (abs / min / max, masks, np.sum): the same arrays bitwise, the
same exception type and message and the same ``.index``.

kalman_gain and _project_Qd decide one matrix on numpy scalars and a stack on
one reduction over it; each single-matrix call is also held to its row of the
stacked call (assert_rows_match_stack).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uikf import a2kf, r4skf
from uikf.a2kf import A2KFConfig
from uikf.errors import IllConditionedError
from uikf.model import RANK_TOL, identity, pinv_and_rank
from uikf.r4skf import RCOND_FLOOR


def pinv_and_rank_reference(M):
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0])), 0
    kept = s > RANK_TOL * s[0]
    inv = np.where(kept, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (Vt.T * inv) @ U.T, int(np.sum(kept))


def kalman_gain_reference(P_pred, C, R):
    S = C @ P_pred @ C.T + R
    S = 0.5 * (S + S.swapaxes(-1, -2))
    w = np.abs(np.linalg.eigvalsh(S))
    ok = w.min(axis=-1) > RCOND_FLOOR * w.max(axis=-1)
    if not ok.all():
        i = int(np.argmin(ok))
        if np.isnan(S.reshape(-1, *S.shape[-2:])[i]).any():
            exc = np.linalg.LinAlgError("innovation covariance C P C^T + R contains NaN")
        else:
            exc = IllConditionedError("innovation covariance C P C^T + R is numerically singular")
        exc.index = i
        raise exc
    return np.linalg.solve(S, C @ P_pred).swapaxes(-1, -2), S


def project_Qd_reference(Cgamma, CGQGC, M, R, qd_floor):
    Cg0 = Cgamma - CGQGC - R
    Qd = M @ Cg0 @ M.T
    Qd = 0.5 * (Qd + Qd.swapaxes(-1, -2))
    n_d = Qd.shape[-1]
    triggered = (Qd.diagonal(0, -2, -1) < 0).any(axis=-1)
    if n_d > 1 and not triggered.all():
        rest = ~triggered
        triggered = np.array(triggered)
        triggered[rest] = np.linalg.eigvalsh(Qd[rest]).min(axis=-1) < 0
    eye = identity(n_d)
    if triggered.any():
        Qd = np.where(triggered[..., None, None] & (eye == 0.0), 0.0, Qd)
    lift = np.clip(qd_floor - Qd.diagonal(0, -2, -1), 0.0, None)
    return Qd + lift[..., None] * eye


def outcome(fn, *args):
    """("ok", result) or ("raised", type, message, index) of fn(*args)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "index", None))


def assert_rows_match_stack(fn, stack, *rest):
    """fn on each matrix of a 3-D stack against fn on the whole stack. An
    accepted stack gives every row's result bitwise; a stack refused at row i
    has every row before i accepted, and row i alone raises the stack's
    exception type and message, with index 0."""
    whole = outcome(fn, stack, *rest)
    rows = [outcome(fn, matrix, *rest) for matrix in stack]
    if whole[0] == "ok":
        for i, row in enumerate(rows):
            want = tuple(w[i] for w in whole[1]) if isinstance(whole[1], tuple) else whole[1][i]
            assert_same(row, ("ok", want))
        return
    i = whole[3]
    assert all(row[0] == "ok" for row in rows[:i]), rows[:i]
    assert rows[i][:3] == whole[:3] and rows[i][3] == 0, (rows[i], whole)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
    elif isinstance(want[1], tuple):
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1], strict=True))
    else:
        assert np.array_equal(got[1], want[1])


# ---------------------------------------------------------------- pinv_and_rank


@st.composite
def matrices(draw):
    """Random 1-6 x 1-6 matrices at scales 1e-4 to 1e4; about half of them are
    products through a narrower inner dimension, so rank-deficient."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-4, 4))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(m, n)))
        return scale * rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    return scale * rng.standard_normal((m, n))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_pinv_and_rank_equals_the_masked_form(M):
    assert_same(outcome(pinv_and_rank, M), outcome(pinv_and_rank_reference, M))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 1), (0, 3), (3, 0), (0, 0)])
def test_pinv_and_rank_of_zero_and_empty_matrices(shape):
    F, rank = pinv_and_rank(np.zeros(shape))
    assert rank == 0 and F.shape == shape[::-1] and not F.any()
    assert_same(outcome(pinv_and_rank, np.zeros(shape)), outcome(pinv_and_rank_reference, np.zeros(shape)))


# a rotation does not keep the ratio exactly at the tolerance
@pytest.mark.parametrize("rotated, factor, rank", [(False, 1.001, 3), (False, 0.999, 2), (False, 1.0, 2),
                                                   (True, 1.001, 3), (True, 0.999, 2)])
def test_pinv_and_rank_at_the_rank_tolerance(rotated, factor, rank):
    # singular values 1e3, 1 and 1e3 * RANK_TOL * factor: the last is kept
    # just above the tolerance and dropped at it and just below it
    M = np.diag([1e3, 1.0, 1e3 * RANK_TOL * factor])
    if rotated:
        rng = np.random.default_rng(3)
        U, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        M = U @ M @ V.T
    assert pinv_and_rank(M)[1] == rank
    assert_same(outcome(pinv_and_rank, M), outcome(pinv_and_rank_reference, M))


@pytest.mark.parametrize("n_y, n_d", [(1, 2), (2, 3), (1, 3), (2, 2), (3, 2)])
def test_unknown_input_gain_with_either_pinv(monkeypatch, n_y, n_d):
    # n_y < n_d is refused with the rank in the message, on either body
    rng = np.random.default_rng(n_y * 10 + n_d)
    C, E_d = rng.standard_normal((n_y, 4)), rng.standard_normal((4, n_d))
    got = outcome(r4skf.unknown_input_gain, C, E_d)
    monkeypatch.setattr(r4skf, "pinv_and_rank", pinv_and_rank_reference)
    assert_same(got, outcome(r4skf.unknown_input_gain, C, E_d))
    assert got[0] == ("raised" if n_y < n_d else "ok")


# ------------------------------------------------------------------ kalman_gain


def rotation(n, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


SINGULAR, NAN = IllConditionedError, np.linalg.LinAlgError


def gain_cases():
    """name -> ((P_pred, C, R), decision): S = C P C^T + R at the conditioning
    floor and around it, with "ok" or the error type and index expected."""
    cases = {}
    for name, factor, decision in (("cond_just_below_1e14", 1.01, "ok"), ("cond_just_above_1e14", 0.99, (SINGULAR, 0)),
                                   ("cond_at_1e14", 1.0, (SINGULAR, 0))):
        # S = P exactly: C = I and R = 0 on a diagonal P
        cases[name] = ((np.diag([2.0 * RCOND_FLOOR * factor, 1.0, 2.0]), np.eye(3), np.zeros((3, 3))), decision)
        if factor != 1.0:       # a rotation does not keep the ratio exactly at the floor
            Q = rotation(3, 5)
            P = Q @ np.diag([RCOND_FLOOR * factor * 1e3, 1e3, 3.0]) @ Q.T
            cases[name + "_rotated"] = ((P, np.eye(3), np.zeros((3, 3))), decision)
    # indefinite but well conditioned: |w| = 1, 2, 3 passes the 2-norm test
    cases["indefinite"] = ((np.diag([-1.0, 2.0, 3.0]), np.eye(3), np.zeros((3, 3))), "ok")
    Q = rotation(3, 6)
    cases["indefinite_rotated"] = ((Q @ np.diag([-2.0, 1.0, 0.5]) @ Q.T, np.eye(3), 0.1 * np.eye(3)), "ok")
    cases["negative_definite"] = ((-np.eye(2), np.eye(2), np.zeros((2, 2))), "ok")
    cases["singular_indefinite"] = ((np.diag([-1.0, 0.0, 1.0]), np.eye(3), np.zeros((3, 3))), (SINGULAR, 0))
    cases["nan"] = ((np.eye(2), np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]])), (NAN, 0))
    rng = np.random.default_rng(7)
    C = rng.standard_normal((2, 4))
    A = rng.standard_normal((3, 4, 4))
    P = A @ A.swapaxes(-1, -2)
    cases["stack_positive_definite"] = ((P, C, 1e-3 * np.eye(2)), "ok")
    cases["stack_second_refused"] = ((np.stack([P[0], 0.0 * P[1], P[2]]), C, np.zeros((2, 2))), (SINGULAR, 1))
    cases["stack_second_indefinite"] = ((np.stack([P[0], -P[1], P[2]]), C, np.zeros((2, 2))), "ok")
    P_nan = P.copy()
    P_nan[2, 0, 0] = np.nan
    cases["stack_third_nan"] = ((P_nan, C, np.eye(2)), (NAN, 2))
    return cases


GAIN_CASES = gain_cases()


@pytest.mark.parametrize("name", sorted(GAIN_CASES))
def test_kalman_gain_decides_as_the_abs_test(name):
    args, decision = GAIN_CASES[name]
    got = outcome(r4skf.kalman_gain, *args)
    assert_same(got, outcome(kalman_gain_reference, *args))
    assert got[0] == "ok" if decision == "ok" else (got[1], got[3]) == decision
    P, C, R = args
    assert_rows_match_stack(r4skf.kalman_gain, P if P.ndim == 3 else np.stack([P, P]), C, R)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(-16, 2), st.booleans())
def test_kalman_gain_equals_the_abs_test_on_random_stacks(n, n_y, seed, log_r, indefinite):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n_y, n))
    A = rng.standard_normal((3, n, n))
    P = A @ A.swapaxes(-1, -2)
    if indefinite:
        P = P - 2.0 * np.trace(P, axis1=-2, axis2=-1)[:, None, None] / n * rng.random((3, 1, 1)) * np.eye(n)
    R = 10.0 ** log_r * np.eye(n_y)
    assert_same(outcome(r4skf.kalman_gain, P, C, R), outcome(kalman_gain_reference, P, C, R))
    assert_same(outcome(r4skf.kalman_gain, P[0], C, R), outcome(kalman_gain_reference, P[0], C, R))
    assert_rows_match_stack(r4skf.kalman_gain, P, C, R)


# ------------------------------------------------------------------ _project_Qd

# with M = I, CGQGC = R = 0 the projection is Cgamma itself
QD_KINDS = {
    # positive definite with non-negative entries: no trigger
    "none": {1: [[2.0]], 2: [[2.0, 0.5], [0.5, 1.0]], 3: [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]]},
    # a negative diagonal entry: the diagonal test
    "diagonal": {1: [[-1.0]], 2: [[-1.0, 0.5], [0.5, 1.0]], 3: [[1.0, 0.0, 0.0], [0.0, -2.0, 0.3], [0.0, 0.3, 1.0]]},
    # non-negative entries but indefinite: only the eigenvalue test
    "eigenvalue": {1: [[0.0]], 2: [[1.0, 2.0], [2.0, 1.0]], 3: [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]},
}
MIXES = [("none",), ("diagonal",), ("eigenvalue",), ("none", "diagonal"), ("diagonal", "eigenvalue"),
         ("eigenvalue", "none"), ("none", "diagonal", "eigenvalue", "none"), ("diagonal", "diagonal")]


# floors below, between and above the diagonals of QD_KINDS: none, some or every entry lifted
def qd_configs():
    return [A2KFConfig(qd_floor=floor) for floor in (0.0, 1e-12, 1e-6, 0.5, 1.0, 1.5, 2.5, 10.0)]


@pytest.mark.parametrize("cfg", qd_configs())
@pytest.mark.parametrize("n_d", [1, 2, 3])
@pytest.mark.parametrize("mix", MIXES)
def test_project_Qd_equals_the_reference_on_mixed_stacks(cfg, n_d, mix):
    Cgamma = np.array([QD_KINDS[kind][n_d] for kind in mix])
    zero, eye = np.zeros((n_d, n_d)), np.eye(n_d)
    for args in ((Cgamma[0], zero, eye, zero, cfg.qd_floor), (Cgamma, zero, eye, zero, cfg.qd_floor)):
        got = a2kf._project_Qd(*args)
        assert np.array_equal(got, project_Qd_reference(*args))
    assert_rows_match_stack(a2kf._project_Qd, *args)
    # every triggered matrix, and only those, loses its off-diagonal entries
    if n_d > 1:
        for i, kind in enumerate(mix):
            assert (got[i][eye == 0.0] == 0.0).all() == (kind != "none"), (kind, got[i])


def rounded_negative_diagonals(count):
    """Matrices with one barely negative diagonal entry in a weakly coupled row,
    whose smallest eigenvalue eigvalsh rounds to >= 0: only the diagonal test
    catches them."""
    rng, found = np.random.default_rng(0), []
    while len(found) < count:
        n = int(rng.integers(2, 4))
        A = rng.standard_normal((n, n))
        Q, i = A @ A.T, int(rng.integers(n))
        Q[i, :] *= 1e-9
        Q[:, i] *= 1e-9
        Q[i, i] = -10.0 ** rng.uniform(-40, -17)
        if np.linalg.eigvalsh(Q)[0] >= 0:
            found.append(Q)
    return found


@pytest.mark.parametrize("Qd", rounded_negative_diagonals(4), ids=lambda Qd: f"n_d={len(Qd)}")
def test_project_Qd_catches_a_negative_diagonal_the_eigenvalues_miss(Qd):
    zero, eye = np.zeros_like(Qd), np.eye(len(Qd))
    got = a2kf._project_Qd(Qd, zero, eye, zero, 1e-12)
    assert np.array_equal(got, project_Qd_reference(Qd, zero, eye, zero, 1e-12))
    assert (got[eye == 0.0] == 0.0).all()
    assert_rows_match_stack(a2kf._project_Qd, np.stack([Qd, 2.0 * eye, Qd]), zero, eye, zero, 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(qd_configs()), st.booleans())
def test_project_Qd_equals_the_reference_on_random_stacks(n_d, extra_y, stack, seed, cfg, stacked):
    rng = np.random.default_rng(seed)
    n_y = n_d + extra_y
    M = rng.standard_normal((n_d, n_y))
    G = rng.standard_normal((stack, 4, n_y))
    Cgamma = G.swapaxes(-1, -2) @ G / 4
    N = rng.standard_normal((n_y, n_y))
    CGQGC, R = 0.3 * N @ N.T, 0.2 * np.eye(n_y)
    args = (Cgamma if stacked else Cgamma[0], CGQGC, M, R, cfg.qd_floor)
    assert np.array_equal(a2kf._project_Qd(*args), project_Qd_reference(*args))
    assert_rows_match_stack(a2kf._project_Qd, Cgamma, *args[1:])
