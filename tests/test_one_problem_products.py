"""One problem multiplies with ndarray.dot, a stack with np.matmul: for 2-D
operands both make the same BLAS call (gemv, gemm, syrk), so every kernel
below gives bitwise what its formula written with @ gives. A model matrix
that a callable returns as a strided view is read as its contiguous copy, so
a single step (dot) and a row of a stack (matmul) agree on it too. No
function on the per-step path that sees one problem, and no kernel that
picks its product per call, spells a product with @.
"""

import ast
import inspect
import itertools
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from uikf import a2kf, cdekf, model, r4skf, sim, uio
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.model import DiscretizedModel, SystemModel

from test_seed_stack import assert_equals_reference

# n_x, n_y = 1..6 and n_d = 0..n_y
DIMS = [(n_x, n_y, n_d) for n_x, n_y in itertools.product(range(1, 7), repeat=2) for n_d in range(n_y + 1)]
SHAPES = list(itertools.product(range(1, 7), repeat=2))


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def sym(X):
    return 0.5 * (X + X.swapaxes(-1, -2))


def spd(rng, n):
    X = rng.standard_normal((n, n))
    return X @ X.T + n * np.eye(n)


# the kernels written with @, as before they multiplied with ndarray.dot
def ref_kalman_gain(P, C, R):
    CP = C @ P
    S = sym(CP @ C.T + R)
    return model.solve(S, CP).swapaxes(-1, -2), S


def ref_joseph_update(P, L, C, R):
    ImLC = np.eye(P.shape[-1]) - L @ C
    return sym(ImLC @ P @ ImLC.swapaxes(-1, -2) + L @ R @ L.swapaxes(-1, -2))


def ref_pinv_and_rank(M):
    U, s, Vt = model.svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0])), 0
    r = int(np.count_nonzero(s > model.RANK_TOL * s[0]))
    if r == s.size:
        return (Vt.T * (1.0 / s)) @ U.T, r
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T, r


def ref_project_Qd(Cgamma, CGQGC, M, R, qd_floor):
    Qd = sym(M @ (Cgamma - CGQGC - R) @ M.T)
    diag = Qd.diagonal().copy()
    if (diag < 0).any() or len(diag) > 1 and np.linalg.eigvalsh(Qd)[0] < 0:
        Qd = np.diag(diag)
    return Qd + np.maximum(qd_floor - diag, 0.0)[:, None] * np.eye(len(diag))


def random_terms(dims, seed=0):
    """StepTerms of a random plant with n_x states, n_y outputs and n_d unknown inputs; F_d = (C E_d)^+ is the
    pseudo-inverse whatever its rank, so n_d may exceed n_x."""
    n_x, n_y, n_d = dims
    rng = np.random.default_rng([n_x, n_y, n_d, seed])
    n_w = 1 + (n_x + n_y) % 4
    dt = 0.01
    dm = DiscretizedModel(A_d=np.eye(n_x) + dt * rng.standard_normal((n_x, n_x)), B_d=dt * rng.standard_normal((n_x, 2)),
                          E_d=dt * rng.standard_normal((n_x, n_d)), dt=dt)
    C = rng.standard_normal((n_y, n_x))
    F_d = model.pinv_and_rank(C @ dm.E_d)[0]
    return r4skf.StepTerms(dm, C, 1e-2 * spd(rng, n_y), 1e-3 * spd(rng, n_w), rng.standard_normal((n_x, n_w)), F_d), rng


@pytest.mark.parametrize("dims", DIMS)
def test_covariance_kernels_equal_their_formulas_with_matmul(dims):
    terms, rng = random_terms(dims)
    dm, C, R, Q, G, F_d, dt = terms.dm, terms.C, terms.R, terms.Q, terms.G, terms.F_d, terms.dm.dt
    n_x = dm.A_d.shape[0]
    GQG = G @ Q @ G.T * dt
    assert_bitwise(r4skf.process_noise(G, Q, dt), GQG)
    assert_bitwise(r4skf.output_noise(C, G, Q, dt), C @ G @ Q @ G.T @ C.T * dt)
    P = spd(rng, n_x)
    P_pred = dm.A_d @ P @ dm.A_d.T + GQG
    K, S = ref_kalman_gain(P_pred, C, R)
    for got, want in zip(r4skf.kalman_gain(P_pred, C, R), (K, S)):
        assert_bitwise(got, want)
    L = K + (np.eye(n_x) - K @ C) @ dm.E_d @ F_d
    Pd = sym(F_d @ S @ F_d.T)
    assert_bitwise(r4skf.joseph_update(P_pred, L, C, R), ref_joseph_update(P_pred, L, C, R))
    assert_bitwise(r4skf.unknown_input_error_cov(S, F_d), Pd)
    for got, want in zip(r4skf.gain_and_covariance(P, terms), (P_pred, K, L, ref_joseph_update(P_pred, L, C, R), Pd)):
        assert_bitwise(got, want)
    A_bar = (np.eye(n_x) - dm.E_d @ F_d @ C) @ dm.A_d
    for got, want in zip(r4skf.stability_matrices(dm, C, F_d, K), (A_bar, (np.eye(n_x) - K @ C) @ A_bar)):
        assert_bitwise(got, want)


@pytest.mark.parametrize("dims", DIMS)
def test_a2kf_kernels_equal_their_formulas_with_matmul(dims):
    terms, rng = random_terms(dims)
    n_x, n_y, n_d = dims
    cfg = A2KFConfig(window=3, qd_floor=1e-9)
    CGQGC = terms.C @ terms.G @ terms.Q @ terms.G.T @ terms.C.T * terms.dm.dt
    A_da, B_da, C_a = terms.augmented
    state = replace(a2kf.initial_state(SystemModel(
        A=np.zeros((n_x, n_x)), B=np.zeros((n_x, 2)), E=np.zeros((n_x, n_d)), G=terms.G, C=terms.C, Q=terms.Q, R=terms.R,
        dt=terms.dm.dt), rng.standard_normal(n_x), cfg=cfg), P_a=spd(rng, n_x + n_d))
    for _ in range(4):                  # the window fills, then slides
        u, y = rng.standard_normal(2), rng.standard_normal(n_y)
        x_pred = A_da @ state.x_a + B_da @ u
        Qproc = np.zeros((n_x + n_d,) * 2)
        Qproc[:n_x, :n_x], Qproc[n_x:, n_x:] = terms.G @ terms.Q @ terms.G.T * terms.dm.dt, state.Qd_hat * terms.dm.dt
        P_pred = A_da @ state.P_a @ A_da.T + Qproc
        K, _ = ref_kalman_gain(P_pred, C_a, terms.R)
        gamma = y - C_a @ x_pred
        window = np.concatenate([state.innov_window, gamma[None]])[-cfg.window:]
        Cgamma = window.T @ window / len(window)
        assert_bitwise(a2kf.innovation_covariance(window), Cgamma)
        Qd = ref_project_Qd(Cgamma, CGQGC, terms.F_d, terms.R, cfg.qd_floor)
        assert_bitwise(a2kf._project_Qd(Cgamma, CGQGC, terms.F_d, terms.R, cfg.qd_floor), Qd)
        new, report = a2kf.advance(state, u, y, terms, cfg)
        want = {"x_a": x_pred + K @ gamma, "P_a": ref_joseph_update(P_pred, K, C_a, terms.R), "innov_window": window,
                "Qd_hat": Qd}
        for name, value in want.items():
            assert_bitwise(getattr(new, name), value)
        for got, value in zip((report.gamma, report.K, report.x_pred), (gamma, K, x_pred)):
            assert_bitwise(got, value)
        state = new


@pytest.mark.parametrize("shape", SHAPES)
def test_pinv_and_rank_equals_its_formula_with_matmul(shape):
    rng = np.random.default_rng(list(shape))
    M, r = rng.standard_normal(shape), min(shape) - 1
    reduced = rng.standard_normal((shape[0], r)) @ rng.standard_normal((r, shape[1]))      # rank r, zero for r = 0
    for X in (M, M.T, reduced, np.zeros(shape)):
        got, want = model.pinv_and_rank(X), ref_pinv_and_rank(X)
        assert_bitwise(got[0], want[0])
        assert got[1] == want[1]
    assert model.pinv_and_rank(M)[1] == min(shape) and model.pinv_and_rank(reduced)[1] == r


@pytest.mark.parametrize("shape", SHAPES)
def test_matvec_equals_matmul_for_one_vector_and_a_stack(shape):
    rng = np.random.default_rng(list(shape))
    M = rng.standard_normal(shape)
    for Mx in (M, rng.standard_normal(shape[::-1]).T):           # C and F order
        x = rng.standard_normal(shape[1])
        assert_bitwise(r4skf.matvec(Mx, x), Mx @ x)
        X = rng.standard_normal((5, shape[1]))
        got = r4skf.matvec(Mx, X)
        assert_bitwise(got, (Mx @ X[..., None])[..., 0])
        for i in range(len(X)):                                     # each row is the single vector's gemv
            assert_bitwise(got[i], r4skf.matvec(Mx, X[i]))


def strided_model(layout: str) -> SystemModel:
    """A time-varying benchmark plant whose C(k) and G(t) are every other column of a wider array ("strided"), or
    that view's C- or F-ordered copy ("C", "F")."""
    m = benchmark_model()
    C0, G0 = m.C(0), m.G(0.0)

    def view(M, wave):
        wide = np.zeros((M.shape[0], 2 * M.shape[1]))
        wide[:, ::2] = M + wave * np.ones_like(M)          # dense, so that rounding can tell the products apart
        return wide[:, ::2] if layout == "strided" else np.array(wide[:, ::2], order=layout)

    return replace(m, C=lambda k: view(C0, 0.02 * math.cos(k / 7.0)), G=lambda t: view(G0, 0.1 + 0.05 * math.sin(t)),
                   A=lambda t, A0=m.A(0.0): A0 * (1.0 + 0.1 * math.sin(t)))


def stream(model_, steps=300):
    """x̂, P, Pd, K and L of r4skf.step, x_a, P_a and Q^d of a2kf.a2kf_step and x̂ of uio.observer_step over one
    measurement stream of the plant."""
    cfg = replace(benchmark_case(1, duration=steps * model_.dt, seeds=(5,)), model=model_)
    truth = sim.generate_truth(cfg, 5)
    fs, as_ = r4skf.initial_state(model_, cfg.x0_hat), a2kf.initial_state(model_, cfg.x0_hat)
    os_, L = uio.initial_observer_state(cfg.x0_hat, model_.n_d), model.moore_penrose_pinv(model_.C(0))
    out = []
    for k in range(steps):
        u, y = truth.u[k], truth.y[k]
        fs, rep = r4skf.step(fs, u, y, model_)
        as_, _ = a2kf.a2kf_step(as_, u, y, model_)
        t = r4skf.step_terms(model_, k)
        os_ = uio.observer_step(os_, y, u, t.dm, t.C, L)
        out += [fs.x_hat, fs.P, fs.Pd, rep.K, rep.L, as_.x_a, as_.P_a, as_.Qd_hat, os_.x_hat]
    return out


def test_a_strided_model_matrix_gives_the_outputs_of_its_contiguous_copy():
    strided, contiguous = strided_model("strided"), strided_model("C")
    assert not strided.C.fn(1).flags.c_contiguous and not strided.G.fn(0.5).flags.c_contiguous
    assert strided.C(1).flags.c_contiguous and strided.G(0.5).flags.c_contiguous
    for got, want in zip(stream(strided), stream(contiguous), strict=True):
        assert_bitwise(got, want)
    cfgs = [replace(benchmark_case(1, duration=1.0, seeds=(1, 2, 3), estimators=("r4skf", "a2kf", "uio")), model=m)
            for m in (strided, contiguous)]
    results = [sim.run_scenario(cfg) for cfg in cfgs]
    for seed, est in itertools.product((1, 2, 3), ("r4skf", "a2kf", "uio")):
        got, want = (r.runs[seed][est] for r in results)
        for name in ("x_hat", "d_hat", "gamma", "Pd_diag", "Qd_diag"):
            if getattr(want, name) is not None:
                assert_bitwise(getattr(got, name), getattr(want, name))
    assert_equals_reference(cfgs[0])        # each row of the stack is the single-seed step on the strided plant


def test_an_f_ordered_model_matrix_is_read_as_it_is_and_rows_equal_single_steps():
    CF = np.asfortranarray(benchmark_model().C(0))
    assert replace(benchmark_model(), C=lambda k: CF).C(1) is CF        # BLAS takes it in place: no copy per read
    m = strided_model("F")
    assert m.C(1).flags.f_contiguous and not m.C(1).flags.c_contiguous and m.G(0.5).flags.f_contiguous
    assert_equals_reference(replace(benchmark_case(1, duration=1.0, seeds=(1, 2, 3), estimators=("r4skf", "a2kf", "uio")),
                                    model=m))


# the per-step functions that see one problem, and the kernels that pick np.ndarray.dot or np.matmul per call
NO_MATMUL = [r4skf.gain_and_covariance, r4skf.unknown_input_error_cov, r4skf.stability_matrices,
             r4skf.unknown_input_gain, r4skf.process_noise, r4skf.output_noise, model.pinv_and_rank,
             cdekf.propagate_state, cdekf.cd_four_step, r4skf.kalman_gain, r4skf.joseph_update, a2kf.advance,
             a2kf.innovation_covariance, a2kf._project_Qd]


@pytest.mark.parametrize("fn", NO_MATMUL, ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_no_product_is_spelled_with_the_matmul_operator(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]


def test_the_lapack_error_rule_is_built_once_per_text(monkeypatch):
    def unexpected(**kwargs):
        raise AssertionError("a LAPACK call built its error rule again")

    monkeypatch.setattr(model, "_make_extobj", unexpected)
    S = spd(np.random.default_rng(1), 3)
    model.eigvalsh(S), model.solve(S, np.eye(3)), model.svd(S), model.singular_values(S)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        model.solve(np.zeros((3, 3)), np.eye(3))
    assert model._lapack_rule("SVD did not converge") is model._lapack_rule("SVD did not converge")
