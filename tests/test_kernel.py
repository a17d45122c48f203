"""One four-step kernel: r4skf.step, uio.observer_step, cdekf.cd_four_step
and the scenario runners all run r4skf's extract / four_step / correct /
advance. The references here are independent copies of the step bodies
written out before the kernel was shared, held to the kernel with
np.array_equal; a property test draws random plants and holds the stacked
advance to per-seed steps.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uikf import cdekf, r4skf, uio
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.model import SystemModel, discretize, moore_penrose_pinv
from uikf.sim import generate_truth

from test_seed_stack import varying

PLANTS = {"benchmark": lambda model: model, "varying": varying}


def reference_correct(P_pred, C, R, E_d, F_d):
    """The K / L / Joseph lines of the covariance step, as written out in
    cd_four_step and gain_and_covariance."""
    K = r4skf.kalman_gain(P_pred, C, R)
    L = K + (np.eye(P_pred.shape[0]) - K @ C) @ E_d @ F_d
    return K, L, r4skf.joseph_update(P_pred, L, C, R)


def reference_step(state, u, y, model, gain_override=None):
    """r4skf.step as one inline sequence: (new state, x_star, x_pred, K, L)."""
    t = state.k * model.dt
    dm = discretize(model, t)
    C, R = np.asarray(model.C(state.k + 1), dtype=float), np.asarray(model.R(state.k + 1), dtype=float)
    Q, G = np.asarray(model.Q(t), dtype=float), np.asarray(model.G(t), dtype=float)
    x_star = r4skf.predict_no_input(state.x_hat, u, dm)
    d_hat, F_d, gamma = r4skf.estimate_unknown_input(y, x_star, dm, C)
    x_pred = r4skf.predict_with_input(x_star, d_hat, dm)
    Pd = r4skf.unknown_input_error_cov(state.P, dm, C, Q, R, F_d, G=G)
    P_pred = dm.A_d @ state.P @ dm.A_d.T + G @ Q @ G.T * dm.dt
    K, L, P_post = reference_correct(P_pred, C, R, dm.E_d, F_d)
    K_used = K if gain_override is None else gain_override
    x_hat = r4skf.update(x_pred, y, K_used, C)
    new = r4skf.FilterState(x_hat=x_hat, P=P_post, d_hat=d_hat, Pd=Pd, gamma=gamma, k=state.k + 1)
    return new, x_star, x_pred, K_used, L


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
@pytest.mark.parametrize("override", [False, True])
def test_step_equals_its_inline_sequence(plant, override):
    cfg, truth = truth_of(plant)
    model = cfg.model
    gain = moore_penrose_pinv(model.C(0)) if override else None
    state = want = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        state, rep = r4skf.step(state, truth.u[k], truth.y[k], model, gain_override=gain)
        want, x_star, x_pred, K, L = reference_step(want, truth.u[k], truth.y[k], model, gain)
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
        P_pred = cdekf.propagate_covariance(state.P, nl.F(state.x_hat, truth.u[k], k * nl.dt), nl.G, nl.Q, nl.dt)
        state, rep = cdekf.cd_four_step(state, truth.u[k], truth.y[k], nl)
        want = reference_correct(P_pred, C, nl.R, rep.dm.E_d, rep.F_d)
        for got, ref in zip((rep.K, rep.L, state.P), want):
            assert np.array_equal(got, ref), k
        assert all(np.array_equal(a, b) for a, b in zip(r4skf.correct(P_pred, C, nl.R, rep.dm.E_d, rep.F_d), want))


@st.composite
def plants(draw):
    """A random plant with n_d <= n_y <= n_x in 2..4 and a well-conditioned C E."""
    n_x = draw(st.integers(2, 4))
    n_y = draw(st.integers(1, n_x))
    n_d = draw(st.integers(1, n_y))
    dt = draw(st.sampled_from((0.005, 0.01, 0.05)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E, C = rng.standard_normal((n_x, n_d)), rng.standard_normal((n_y, n_x))
    s = np.linalg.svd(C @ E, compute_uv=False)
    assume(s[-1] > 0.1 * s[0])
    model = SystemModel(
        A=rng.uniform(-1.0, 1.0, (n_x, n_x)), B=rng.standard_normal((n_x, 1)), E=E, G=np.eye(n_x), C=C,
        Q=np.diag(rng.uniform(1e-4, 1e-2, n_x)), R=np.diag(rng.uniform(1e-4, 1e-2, n_y)), dt=dt,
    )
    return model, rng


@settings(max_examples=25, deadline=None)
@given(plants())
def test_stacked_advance_equals_per_seed_steps_and_keeps_P_psd(plant):
    model, rng = plant
    n, steps = 3, 50
    x0 = rng.standard_normal((n, model.n_x))
    u = rng.standard_normal((steps, n, model.n_u))
    y = rng.standard_normal((steps, n, model.n_y))
    stacked = replace(r4skf.initial_state(model, x0[0]), x_hat=x0)
    seeds = [r4skf.initial_state(model, x0[s]) for s in range(n)]
    for k in range(steps):
        stacked, _ = r4skf.advance(stacked, u[k], y[k], r4skf.step_terms(model, k))
        seeds = [r4skf.step(seeds[s], u[k, s], y[k, s], model)[0] for s in range(n)]
        for s, state in enumerate(seeds):
            for name in ("x_hat", "d_hat", "gamma"):
                assert np.array_equal(getattr(stacked, name)[s], getattr(state, name)), (k, s, name)
            assert np.array_equal(stacked.P, state.P) and np.array_equal(stacked.Pd, state.Pd), (k, s)
        P = stacked.P
        assert np.array_equal(P, P.T)
        w = np.linalg.eigvalsh(P)
        assert w.min() >= -1e-12 * max(1.0, w.max()), k
