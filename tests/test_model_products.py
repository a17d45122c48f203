"""The model-only products of the r4skf and a2kf covariance recursions
(G Q G^T dt, C G Q G^T C^T dt and the identity) are formed once per step,
or once per scenario of a time-invariant model, the innovation covariance S
once per filter step, and the outputs stay bit for bit what the per-seed
step functions give. The a2kf twin of the
r4skf property in test_kernel.py draws random plants with any n_w.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uikf import a2kf, cdekf, r4skf
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case
from uikf.model import SystemModel, identity
from uikf.sim import run_scenario

from test_seed_stack import varying
from test_time_invariant import count_calls


@st.composite
def plants(draw):
    """A random plant with n_x in 2..4, n_w in 1..4, n_d <= n_y <= n_x and a
    well-conditioned C E."""
    n_x = draw(st.integers(2, 4))
    n_w = draw(st.integers(1, 4))
    n_y = draw(st.integers(1, n_x))
    n_d = draw(st.integers(1, n_y))
    dt = draw(st.sampled_from((0.005, 0.01, 0.05)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E, C = rng.standard_normal((n_x, n_d)), rng.standard_normal((n_y, n_x))
    s = np.linalg.svd(C @ E, compute_uv=False)
    assume(s[-1] > 0.1 * s[0])
    model = SystemModel(
        A=rng.uniform(-1.0, 1.0, (n_x, n_x)), B=rng.standard_normal((n_x, 1)), E=E,
        G=rng.standard_normal((n_x, n_w)), C=C,
        Q=np.diag(rng.uniform(1e-4, 1e-2, n_w)), R=np.diag(rng.uniform(1e-4, 1e-2, n_y)), dt=dt,
    )
    return model, rng


configs = st.builds(A2KFConfig, window=st.integers(1, 12))


@settings(max_examples=25, deadline=None)
@given(plants(), configs)
def test_stacked_a2kf_advance_equals_per_seed_steps(plant, cfg):
    model, rng = plant
    n, steps = 3, 40
    x0 = rng.standard_normal((n, model.n_x))
    u = rng.standard_normal((steps, n, model.n_u))
    y = rng.standard_normal((steps, n, model.n_y))
    seeds = [a2kf.initial_state(model, x0[s], cfg=cfg) for s in range(n)]
    stacked = replace(
        seeds[0], **{name: np.stack([getattr(s, name) for s in seeds]) for name in ("x_a", "P_a", "innov_window", "Qd_hat")}
    )
    terms = r4skf.step_terms(model, 0)
    for k in range(steps):
        stacked, _ = a2kf.advance(stacked, u[k], y[k], terms, cfg)
        seeds = [a2kf.a2kf_step(seeds[s], u[k, s], y[k, s], model, cfg)[0] for s in range(n)]
        for s, state in enumerate(seeds):
            for name in ("x_a", "P_a", "innov_window", "Qd_hat"):
                assert np.array_equal(getattr(stacked, name)[s], getattr(state, name)), (k, s, name)


@settings(max_examples=50, deadline=None)
@given(plants())
def test_block_assembled_process_noise_equals_G_a_Q_a_G_a_T_dt(plant):
    model, rng = plant
    M = rng.standard_normal((3, model.n_d, model.n_d))
    Qd = M @ M.swapaxes(-1, -2) * 10.0 ** rng.uniform(-8, 0, (3, 1, 1))
    got = a2kf._process_noise(r4skf.step_terms(model, 0), Qd)
    for s in range(3):
        am = a2kf.augment(model, 0.0, 1, Qd=Qd[s])
        assert np.array_equal(got[s], am.G_a @ am.Q_a @ am.G_a.T * model.dt), s


@settings(max_examples=50, deadline=None)
@given(plants(), st.booleans(), st.integers(0, 1000))
def test_augmented_blocks_equal_the_discretized_augment(plant, time_varying, k):
    model = varying(plant[0]) if time_varying else plant[0]
    am = a2kf.augment(model, k * model.dt, k + 1)
    A_da, B_da, C_a = r4skf.step_terms(model, k).augmented
    assert np.array_equal(A_da, np.eye(model.n_x + model.n_d) + am.A_a * model.dt)
    assert np.array_equal(B_da, am.B_a * model.dt)
    assert np.array_equal(C_a, am.C_a)


def test_step_terms_products_are_the_written_out_expressions():
    model = varying(benchmark_case(1).model)
    for k in (0, 7, 250):
        terms = r4skf.step_terms(model, k)
        dm, C, Q, G = terms.dm, terms.C, terms.Q, terms.G
        assert np.array_equal(terms.GQG, G @ Q @ G.T * dm.dt)
        assert np.array_equal(terms.CGQGC, C @ G @ Q @ G.T @ C.T * dm.dt)


def test_identity_is_cached_and_read_only():
    eye = identity(3)
    assert identity(3) is eye and np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError, match="read-only"):
        eye[0, 1] = 1.0
    P = r4skf.initial_state(benchmark_case(1).model, np.zeros(4)).Pd
    P[0, 0] = 2.0                       # the initial state owns its arrays
    assert identity(2)[0, 0] == 1.0


@pytest.mark.parametrize("time_invariant", [True, False])
def test_products_are_formed_once_per_time_invariant_scenario(monkeypatch, time_invariant):
    cfg = benchmark_case(1, duration=0.3, seeds=(1, 2, 3))
    if not time_invariant:
        cfg = replace(cfg, model=varying(cfg.model))
    gqg, cgqgc = count_calls(monkeypatch, r4skf, "process_noise"), count_calls(monkeypatch, r4skf, "output_noise")
    run_scenario(cfg)
    # one StepTerms for both filters, once per scenario or once per step
    assert len(gqg) == len(cgqgc) == (1 if time_invariant else cfg.n_steps)


@pytest.mark.parametrize("runner", ["step", "run_scenario"])
def test_a_filter_step_forms_the_innovation_covariance_once(monkeypatch, runner):
    """The r4skf's Kalman gain and Pd share the S of one kalman_gain call per
    step; C G Q G^T C^T dt is formed by no r4skf step, on a time-varying plant
    stepped alone or through the stacked runner."""
    cfg = benchmark_case(1, duration=0.3, seeds=(1, 2, 3), estimators=("r4skf",))
    model = varying(cfg.model)
    gains, cgqgc = count_calls(monkeypatch, r4skf, "kalman_gain"), count_calls(monkeypatch, r4skf, "output_noise")
    if runner == "step":
        state, u, y = r4skf.initial_state(model, cfg.x0_hat), np.zeros(model.n_u), np.full(model.n_y, 0.1)
        for _ in range(cfg.n_steps):
            state, _ = r4skf.step(state, u, y, model)
    else:
        run_scenario(replace(cfg, model=model))
    assert len(gains) == cfg.n_steps and cgqgc == []


def test_cd_four_step_forms_each_noise_product_once_per_step(monkeypatch):
    """cd_four_step runs r4skf's covariance half on one StepTerms per step:
    one G Q G^T dt, one kalman_gain call and no C G Q G^T C^T dt."""
    model = benchmark_case(1).model
    C = model.C(0)
    nl = cdekf.NonlinearModel(
        f=lambda x, u, t: model.A(t) @ x, h=lambda x: C @ x,
        E=model.E(0.0), G=model.G(0.0), Q=model.Q(0.0), R=model.R(0), dt=model.dt,
    )
    gqg, cgqgc = count_calls(monkeypatch, r4skf, "process_noise"), count_calls(monkeypatch, r4skf, "output_noise")
    continuous = count_calls(monkeypatch, cdekf, "propagate_covariance")
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    state = r4skf.initial_state(model, np.zeros(model.n_x))
    for k in range(3):
        state, _ = cdekf.cd_four_step(state, np.zeros(model.n_u), np.full(model.n_y, 0.1 * k), nl)
    assert len(gqg) == 3 and len(cgqgc) == 0 and continuous == []
    assert len(gains) == 3
