"""One four-step kernel: r4skf.step, uio.observer_step, cdekf.cd_four_step
and the scenario runners all run r4skf's extract / four_step /
gain_and_covariance / advance. The references here are independent copies of the step bodies
written out before the kernel was shared, held to the kernel with
np.array_equal; a property test draws random plants and holds the stacked
advance to per-seed steps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uikf import cdekf, r4skf, uio
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.errors import IllConditionedError
from uikf.model import SystemModel, discretize, moore_penrose_pinv
from uikf.sim import generate_truth, run_scenario

from test_seed_stack import varying

PLANTS = {"benchmark": lambda model: model, "varying": varying}


def reference_correct(P_pred, C, R, E_d, F_d):
    """The K / L / Joseph lines of the covariance step, as written out in
    gain_and_covariance."""
    K, _ = r4skf.kalman_gain(P_pred, C, R)
    L = K + (np.eye(P_pred.shape[0]) - K @ C) @ E_d @ F_d
    return K, L, r4skf.joseph_update(P_pred, L, C, R)


def reference_step(state, u, y, model):
    """r4skf.step as one inline sequence: (new state, x_star, x_pred, K, L)."""
    t = state.k * model.dt
    dm = discretize(model, t)
    C, R = np.asarray(model.C(state.k + 1), dtype=float), np.asarray(model.R(state.k + 1), dtype=float)
    Q, G = np.asarray(model.Q(t), dtype=float), np.asarray(model.G(t), dtype=float)
    x_star = r4skf.predict_no_input(state.x_hat, u, dm)
    d_hat, F_d, gamma = r4skf.estimate_unknown_input(y, x_star, dm, C)
    x_pred = r4skf.predict_with_input(x_star, d_hat, dm)
    P_pred = dm.A_d @ state.P @ dm.A_d.T + G @ Q @ G.T * dm.dt
    S = C @ P_pred @ C.T + R
    S = 0.5 * (S + S.T)
    Pd = F_d @ S @ F_d.T
    Pd = 0.5 * (Pd + Pd.T)
    K, L, P_post = reference_correct(P_pred, C, R, dm.E_d, F_d)
    x_hat = r4skf.update(x_pred, y, K, C)
    new = r4skf.FilterState(x_hat=x_hat, P=P_post, d_hat=d_hat, Pd=Pd, gamma=gamma, k=state.k + 1)
    return new, x_star, x_pred, K, L


def reference_observer(x_hat, y, u, dm, C, L):
    """observer_step's raw expressions: (w, z, x_hat, d_hat)."""
    F_d = r4skf.unknown_input_gain(C, dm.E_d)
    w = dm.A_d @ x_hat + dm.B_d @ u
    d_hat = F_d @ (y - C @ w)
    z = w + dm.E_d @ d_hat
    return w, z, z + L @ (y - C @ z), d_hat


def truth_of(plant, duration=1.0):
    cfg = benchmark_case(1, duration=duration, seeds=(3,))
    cfg = replace(cfg, model=PLANTS[plant](cfg.model))
    return cfg, generate_truth(cfg, 3)


def assert_same(got, want):
    for name in ("x_hat", "P", "d_hat", "Pd", "gamma", "k"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_step_equals_its_inline_sequence(plant):
    cfg, truth = truth_of(plant)
    model = cfg.model
    state = want = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        state, rep = r4skf.step(state, truth.u[k], truth.y[k], model)
        want, x_star, x_pred, K, L = reference_step(want, truth.u[k], truth.y[k], model)
        assert_same(state, want)
        for got, ref in zip((rep.x_star, rep.x_pred, rep.K, rep.L), (x_star, x_pred, K, L)):
            assert np.array_equal(got, ref), k


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_observer_step_equals_its_raw_expressions(plant):
    cfg, truth = truth_of(plant)
    model = cfg.model
    L = moore_penrose_pinv(model.C(0))
    obs = uio.initial_observer_state(cfg.x0_hat, model.n_d)
    x_hat = obs.x_hat
    for k in range(cfg.n_steps):
        dm, C = discretize(model, k * model.dt), np.asarray(model.C(k + 1), dtype=float)
        obs = uio.observer_step(obs, truth.y[k], truth.u[k], dm, C, L)
        w, z, x_hat, d_hat = reference_observer(x_hat, truth.y[k], truth.u[k], dm, C, L)
        for got, ref in zip((obs.w, obs.z, obs.x_hat, obs.d_hat), (w, z, x_hat, d_hat)):
            assert np.array_equal(got, ref), k


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_cd_four_step_correction_equals_its_written_out_lines(plant):
    cfg, truth = truth_of(plant)
    model = cfg.model
    C = np.asarray(model.C(1), dtype=float)
    nl = NonlinearModel(
        f=lambda x, u, t: model.A(t) @ x + model.B(t) @ u, h=lambda x: C @ x,
        E=model.E(0.0), G=model.G(0.0), Q=model.Q(0.0), R=model.R(1), dt=model.dt,
        F=lambda x, u, t: model.A(t), H=lambda x: C,
    )
    state = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        A_d = np.eye(model.n_x) + nl.F(state.x_hat, truth.u[k], k * nl.dt) * nl.dt
        P_pred = A_d @ state.P @ A_d.T + nl.G @ nl.Q @ nl.G.T * nl.dt
        state, rep = cdekf.cd_four_step(state, truth.u[k], truth.y[k], nl)
        assert np.array_equal(rep.dm.A_d, A_d), k
        want = reference_correct(P_pred, C, nl.R, rep.dm.E_d, rep.F_d)
        for got, ref in zip((rep.K, rep.L, state.P), want):
            assert np.array_equal(got, ref), k


def paper_Pd(P, dm, C, R, Q, G, F_d):
    """The unknown-input error covariance as the paper writes it out:
    F_d (C A_d P A_d^T C^T + C G Q G^T C^T dt + R) F_d^T."""
    return F_d @ (C @ dm.A_d @ P @ dm.A_d.T @ C.T + C @ G @ Q @ G.T @ C.T * dm.dt + R) @ F_d.T


def assert_near(got, want, scale, k):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(scale).max(), k


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_Pd_of_the_step_and_the_runner_is_the_written_out_chain(plant):
    """Pd = F_d S F_d^T from the S of the Kalman gain, against the chain
    evaluated afresh from the model, within 1e-13 max|Pd_k| at every step."""
    cfg, truth = truth_of(plant)
    model = cfg.model
    runs = run_scenario(replace(cfg, seeds=(3, 4), estimators=("r4skf",))).runs
    state = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        t = k * model.dt
        dm = discretize(model, t)
        C, R = np.asarray(model.C(k + 1), dtype=float), np.asarray(model.R(k + 1), dtype=float)
        Q, G = np.asarray(model.Q(t), dtype=float), np.asarray(model.G(t), dtype=float)
        want = paper_Pd(state.P, dm, C, R, Q, G, moore_penrose_pinv(C @ dm.E_d))
        state, _ = r4skf.step(state, truth.u[k], truth.y[k], model)
        assert_near(state.Pd, want, want, k)
        for run in runs.values():
            assert_near(run["r4skf"].Pd_diag[k], want.diagonal(), want, k)


def test_Pd_of_cd_four_step_is_the_written_out_chain():
    """The same on a nonlinear plant with finite-difference Jacobians: the
    chain runs on each step's linearization A_d = I + F dt, C = H(x*)."""
    A = np.array([[-1.0, 0.2, 0.0], [0.0, -0.5, 0.3], [0.1, 0.0, -0.8]])
    E = np.array([[1.0], [0.5], [0.0]])
    nl = NonlinearModel(
        f=lambda x, u, t: A @ x - 0.1 * np.sin(x), h=lambda x: x[:2] + 0.05 * x[:2] ** 2,
        E=E, G=np.eye(3), Q=1e-6 * np.eye(3), R=1e-7 * np.eye(2), dt=0.01,
    )
    state = r4skf.FilterState(x_hat=np.zeros(3), P=np.eye(3), d_hat=np.zeros(1), Pd=np.eye(1), gamma=np.zeros(2), k=0)
    x = np.array([0.5, -0.2, 0.1])
    for k in range(300):
        x = x + nl.dt * (nl.f(x, None, 0.0) + E[:, 0] * 0.8)
        P = state.P
        state, rep = cdekf.cd_four_step(state, np.zeros(1), nl.h(x), nl, method="rk4")
        want = paper_Pd(P, rep.dm, rep.C, nl.R, nl.Q, nl.G, rep.F_d)
        assert_near(state.Pd, want, want, k)


def random_plant(n_x, n_y, n_d, dt, seed):
    """A plant drawn from default_rng(seed) and the generator to draw its data
    from, or None when C E is not well-conditioned."""
    rng = np.random.default_rng(seed)
    E, C = rng.standard_normal((n_x, n_d)), rng.standard_normal((n_y, n_x))
    s = np.linalg.svd(C @ E, compute_uv=False)
    if s[-1] <= 0.1 * s[0]:
        return None
    model = SystemModel(
        A=rng.uniform(-1.0, 1.0, (n_x, n_x)), B=rng.standard_normal((n_x, 1)), E=E, G=np.eye(n_x), C=C,
        Q=np.diag(rng.uniform(1e-4, 1e-2, n_x)), R=np.diag(rng.uniform(1e-4, 1e-2, n_y)), dt=dt,
    )
    return model, rng


@st.composite
def plants(draw):
    """The arguments of a random_plant with n_d <= n_y <= n_x in 2..4; every
    such plant is kept, an unstable one included."""
    n_x = draw(st.integers(2, 4))
    n_y = draw(st.integers(1, n_x))
    n_d = draw(st.integers(1, n_y))
    dt = draw(st.sampled_from((0.005, 0.01, 0.05)))
    plant = n_x, n_y, n_d, dt, draw(st.integers(0, 2**32 - 1))
    assume(random_plant(*plant) is not None)
    return plant


# its predictor is unstable, rho(A_bar) = 1.82: P grows to about 1e14 and S is
# numerically singular at step 33
UNSTABLE_PLANT = (3, 2, 1, 0.05, 1048577)


def outcome(f, *args):
    """The new state of f(*args), or the type of the error it raised."""
    try:
        return f(*args)[0]
    except Exception as exc:
        return type(exc)


def stacked_against_per_seed(plant, n=3, steps=50):
    """Run the stacked advance and n per-seed steps of the plant side by side,
    holding them equal and P symmetric PSD after every step. Where either
    side raises, both must raise the same error at the same step; returns
    that step's index and error type, or None when every step ran."""
    model, rng = random_plant(*plant)
    x0 = rng.standard_normal((n, model.n_x))
    u = rng.standard_normal((steps, n, model.n_u))
    y = rng.standard_normal((steps, n, model.n_y))
    stacked = replace(r4skf.initial_state(model, x0[0]), x_hat=x0)
    seeds = [r4skf.initial_state(model, x0[s]) for s in range(n)]
    for k in range(steps):
        stacked = outcome(r4skf.advance, stacked, u[k], y[k], r4skf.step_terms(model, k))
        seeds = [outcome(r4skf.step, seeds[s], u[k, s], y[k, s], model) for s in range(n)]
        errors = [r for r in (stacked, *seeds) if isinstance(r, type)]
        if errors:
            assert errors == [stacked] * (n + 1), (k, errors)
            return k, stacked
        for s, state in enumerate(seeds):
            for name in ("x_hat", "d_hat", "gamma"):
                assert np.array_equal(getattr(stacked, name)[s], getattr(state, name)), (k, s, name)
            assert np.array_equal(stacked.P, state.P) and np.array_equal(stacked.Pd, state.Pd), (k, s)
        P = stacked.P
        assert np.array_equal(P, P.T)
        w = np.linalg.eigvalsh(P)
        assert w.min() >= -1e-12 * max(1.0, w.max()), k
    return None


@settings(max_examples=25, deadline=None)
@given(plants())
@example(UNSTABLE_PLANT)
def test_stacked_advance_equals_per_seed_steps_and_keeps_P_psd(plant):
    stacked_against_per_seed(plant)


def test_an_unstable_plant_fails_on_both_sides_at_the_same_step():
    assert stacked_against_per_seed(UNSTABLE_PLANT) == (32, IllConditionedError)
