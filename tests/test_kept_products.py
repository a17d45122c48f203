"""The memos that keep model values across steps: the StepTerms r4skf.step_terms
keeps for the last k, which model.discretize reads at their t, and
the F_d = (C E_d)^+ that r4skf.unknown_input_gain keeps for the last C E_d,
so one SVD serves every step that repeats it. These tests hold plants where
exactly one matrix is a callable to the written-out references of
test_kernel.py, run on the same plant with every matrix a callable, count
the model evaluations and SVDs of a time-varying stream, and check that the
kept arrays are read-only.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from uikf import a2kf, checks, r4skf, uio
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.errors import RankConditionError
from uikf.model import discretize, moore_penrose_pinv, pinv_and_rank
from uikf.sim import EstimatorRun, generate_truth, run_scenario

from test_kernel import assert_same, reference_observer, reference_step
from test_per_step_path import reference_step_blocks
from test_seed_stack import varying
from test_time_invariant import MATRICES, count_calls

# how each matrix of the benchmark plant changes with t (A, B, E, G, Q) or k (C, R)
CHANGES = {
    "A": lambda M, t: M + 0.5 * math.sin(3.0 * t) * np.eye(len(M)),
    "B": lambda M, t: M * (1.0 + 0.1 * math.sin(t)),
    "E": lambda M, t: M * (1.0 + 0.1 * math.sin(2.0 * t)),
    "G": lambda M, t: M * (1.0 + 0.1 * math.sin(t)),
    "Q": lambda M, t: M * (1.0 + 0.5 * math.sin(t) ** 2),
    "C": lambda M, k: M + 0.02 * math.cos(k) * np.ones_like(M),
    "R": lambda M, k: M * (1.0 + 0.5 * math.sin(k) ** 2),
}


def one_callable(model, name):
    """The plant with only the matrix called name given as a callable."""
    M = getattr(model, name)(0)
    return replace(model, **{name: lambda arg: CHANGES[name](M, arg)})


def every_callable(model):
    """The same plant with every matrix a callable."""
    return replace(model, **{n: (lambda arg, M=getattr(model, n): M(arg)) for n in MATRICES})


PLANTS = {**{f"callable {name}": (lambda m, name=name: one_callable(m, name)) for name in MATRICES}, "varying": varying}

def scenario(plant, **kwargs):
    cfg = benchmark_case(1, duration=0.5, **kwargs)
    return replace(cfg, model=PLANTS[plant](cfg.model))


@pytest.mark.parametrize("plant", PLANTS)
def test_step_functions_equal_the_written_out_references(plant):
    cfg = scenario(plant, seeds=(3,))
    model, ref = cfg.model, every_callable(cfg.model)
    truth = generate_truth(cfg, 3)
    L = moore_penrose_pinv(model.C(0))
    state = want = r4skf.initial_state(model, cfg.x0_hat)
    filt, filt_ref = a2kf.initial_state(model, cfg.x0_hat), a2kf.initial_state(ref, cfg.x0_hat)
    obs, x_ref = uio.initial_observer_state(cfg.x0_hat, model.n_d), np.asarray(cfg.x0_hat, dtype=float)
    for k in range(cfg.n_steps):
        u, y, t = truth.u[k], truth.y[k], k * model.dt
        state, rep = r4skf.step(state, u, y, model)
        want, x_star, x_pred, K, L_comb = reference_step(want, u, y, ref)
        assert_same(state, want)
        for got, exp in zip((rep.x_star, rep.x_pred, rep.K, rep.L), (x_star, x_pred, K, L_comb)):
            assert np.array_equal(got, exp), k

        terms = r4skf.step_terms(model, k)
        blocks = dict(zip(("A_da", "B_da", "C_a"), terms.augmented), GQG=terms.GQG, R=terms.R, CGQGC=terms.CGQGC, F_d=terms.F_d)
        for name, exp in reference_step_blocks(model, t, k + 1).items():
            assert np.array_equal(blocks[name], exp), (k, name)
        filt, a_rep = a2kf.a2kf_step(filt, u, y, model)
        filt_ref, a_ref = a2kf.a2kf_step(filt_ref, u, y, ref)
        for name in ("x_a", "P_a", "innov_window", "Qd_hat"):
            assert np.array_equal(getattr(filt, name), getattr(filt_ref, name)), (k, name)
        assert np.array_equal(a_rep.gamma, a_ref.gamma) and np.array_equal(a_rep.K, a_ref.K), k

        obs = uio.observer_step(obs, y, u, discretize(model, t), np.asarray(model.C(k + 1), dtype=float), L)
        w, z, x_ref, d_hat = reference_observer(x_ref, y, u, discretize(ref, t), np.asarray(ref.C(k + 1), dtype=float), L)
        for got, exp in zip((obs.w, obs.z, obs.x_hat, obs.d_hat), (w, z, x_ref, d_hat)):
            assert np.array_equal(got, exp), k


@pytest.mark.parametrize("plant", PLANTS)
def test_run_scenario_equals_the_plant_with_every_matrix_a_callable(plant):
    cfg = scenario(plant, seeds=(3, 4), estimators=("r4skf", "a2kf", "uio"))
    got, want = run_scenario(cfg), run_scenario(replace(cfg, model=every_callable(cfg.model)))
    for seed in cfg.seeds:
        for est in cfg.estimators:
            for f in fields(EstimatorRun):
                a, b = getattr(got.runs[seed][est], f.name), getattr(want.runs[seed][est], f.name)
                assert (a is None and b is None) or np.array_equal(a, b), (seed, est, f.name)


def test_discretize_reads_the_kept_step_terms_at_their_t_and_its_arrays_are_read_only():
    """discretize keeps nothing of its own: at the t of the StepTerms kept on
    the model it returns their dm, at any other t a new one, without
    evaluating A at the kept t again."""
    A_calls = []
    model = one_callable(benchmark_model(), "A")
    model = replace(model, A=counted(model.A, A_calls))
    dm = discretize(model, 0.05)
    assert discretize(model, 0.05) is not dm and np.array_equal(discretize(model, 0.05).A_d, dm.A_d)
    terms = r4skf.step_terms(model, 5)                  # for t = 5 dt = 0.05
    del A_calls[:]
    assert discretize(model, 0.05) is terms.dm and A_calls == []
    assert discretize(model, 0.06) is not terms.dm and A_calls == [0.06]
    assert np.array_equal(terms.dm.A_d, dm.A_d)
    lti = benchmark_model()
    terms = r4skf.step_terms(lti, 0)
    assert discretize(lti, 0.0) is terms.dm and discretize(lti, 0.37) is terms.dm
    for M in (dm.A_d, dm.B_d, dm.E_d, terms.dm.A_d):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0


@pytest.fixture
def svds(monkeypatch):
    """The SVDs unknown_input_gain forms, counted from an empty cache."""
    r4skf._gain.cache_clear()
    yield count_calls(monkeypatch, r4skf, "pinv_and_rank")
    r4skf._gain.cache_clear()


def test_a_filter_step_then_an_observer_step_at_the_same_k_form_one_svd(svds):
    model = varying(benchmark_model())
    L = moore_penrose_pinv(model.C(0))
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    state, obs = r4skf.initial_state(model, np.ones(model.n_x)), uio.initial_observer_state(np.ones(model.n_x), model.n_d)
    for k in range(6):
        state, _ = r4skf.step(state, u, y, model)
        obs = uio.observer_step(obs, y, u, discretize(model, k * model.dt), np.asarray(model.C(k + 1), dtype=float), L)
        assert len(svds) == k + 1


def counted(M, calls):
    def call(arg):
        calls.append(arg)
        return M(arg)
    return call


def test_a_stream_of_k_measurements_evaluates_the_model_once_per_step(monkeypatch, svds):
    """Stepped as a stream of single measurements: r4skf.step, a2kf.a2kf_step,
    then the observer on model.discretize at the t step_terms read and on
    C(k + 1). The kept StepTerms serves both filters, the kept discretization
    the observer's A(t), and the kept F_d its SVD; without one of them A, C,
    the SVDs or the evaluations would be counted more than K times each."""
    cfg = scenario("varying", seeds=(3,))
    truth, K, L = generate_truth(cfg, 3), cfg.n_steps, moore_penrose_pinv(cfg.model.C(0))
    A_calls, C_calls = [], []
    model = replace(cfg.model, A=counted(cfg.model.A, A_calls), C=counted(cfg.model.C, C_calls))
    del A_calls[:], C_calls[:]                  # SystemModel reads each matrix at 0
    evaluations = count_calls(monkeypatch, r4skf, "_evaluate")
    state, filt = r4skf.initial_state(model, cfg.x0_hat), a2kf.initial_state(model, cfg.x0_hat)
    obs = uio.initial_observer_state(cfg.x0_hat, model.n_d)
    for k in range(K):
        u, y = truth.u[k], truth.y[k]
        state, _ = r4skf.step(state, u, y, model)
        filt, _ = a2kf.a2kf_step(filt, u, y, model)
        obs = uio.observer_step(obs, y, u, discretize(model, k * model.dt), np.asarray(model.C(k + 1), dtype=float), L)
    assert (len(A_calls), len(C_calls), len(svds), len(evaluations)) == (K, 2 * K, K, K)


def test_the_observer_checks_form_two_svds_for_600_observer_steps(monkeypatch, svds):
    """check properties' observer steps: one SVD for each of its two models."""
    observer_steps = count_calls(monkeypatch, uio, "observer_step")
    assert all(result.passed for result in checks.check_observer_equivalence())
    assert len(observer_steps) == 600 and len(svds) == 2


@pytest.mark.parametrize("C_E", [np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 1.0]])],
                         ids=["rank-deficient", "nan"])
def test_a_failing_C_E_d_raises_on_every_call_and_is_never_kept(svds, C_E):
    C, E_good = np.eye(3), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    kept = r4skf.unknown_input_gain(C, E_good)
    for calls in range(2, 5):
        with pytest.raises((RankConditionError, np.linalg.LinAlgError)):
            r4skf.unknown_input_gain(C, C_E)
        assert len(svds) == calls
    assert r4skf.unknown_input_gain(C, E_good) is kept and len(svds) == 4


def test_the_kept_gain_is_read_only_and_the_pseudo_inverse(svds):
    C, E_d = benchmark_model().C(0), 0.01 * benchmark_model().E(0.0)
    F_d = r4skf.unknown_input_gain(C, E_d)
    assert np.array_equal(F_d, pinv_and_rank(C @ E_d)[0]) and r4skf.unknown_input_gain(np.array(C), np.array(E_d)) is F_d
    with pytest.raises(ValueError, match="read-only"):
        F_d[0, 0] = 1.0
