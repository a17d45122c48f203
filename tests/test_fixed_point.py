"""r4skf.gain_and_covariance keeps its outputs on the StepTerms once a step's
P_post has the bytes of its P_prev, and returns them when the next call's
P_prev is that P_post. These tests hold the steps across that fixed point to
tests/test_kernel.py's reference_step, which keeps nothing, bit for bit, and
pin where the kept result is used and where it is not.
"""

import contextlib
import io
import textwrap
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import cdekf, cli, config, r4skf
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.checks import square_test_model
from uikf.sim import ScenarioConfig, SignalSpec, generate_truth, run_scenario

from test_kernel import reference_step
from test_seed_stack import varying


def docstring_yaml() -> str:
    return textwrap.dedent(config.__doc__.split("Example document:", 1)[1])


def benchmark_scenario():
    """Case 1 for 1,300 steps: the plant reaches its fixed point at step 1,230."""
    return benchmark_case(1, duration=13.0, seeds=(3,))


def square_scenario():
    signals = [SignalSpec(kind="step", t_on=0.5, t_off=1.5, amplitude=0.5),
               SignalSpec(kind="windowed_sine", t_off=2.0, amplitude=0.2, f0=1.0)]
    return ScenarioConfig(square_test_model(), signals, 2.0, (5,), np.array([0.2, -0.1]), np.array([1.0, 1.0]))


def yaml_scenario():
    """The config-docstring model, at its fixed point from step 60."""
    return config.parse_scenario(yaml.safe_load(docstring_yaml()))


SCENARIOS = {"benchmark": (benchmark_scenario, 1230), "square": (square_scenario, 2), "yaml": (yaml_scenario, 60)}


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def to_fixed_point(model, n_steps=200):
    """The StepTerms of a time-invariant model after a stream of n_steps on y = 0, and the stream's last state."""
    for state, _ in r4skf.stream(model, np.zeros((n_steps, model.n_y)), np.zeros(model.n_x)):
        pass
    terms = r4skf.step_terms(model, 0)
    assert terms.fixed_point is not None and terms.fixed_point[3] is state.P
    return terms, state


@pytest.mark.parametrize("plant", sorted(SCENARIOS))
def test_step_equals_reference_across_its_fixed_point(plant):
    make, kept_at = SCENARIOS[plant]
    cfg = make()
    truth = generate_truth(cfg, cfg.seeds[0])
    model = cfg.model
    assert model.time_invariant and cfg.n_steps > kept_at + 1
    kept = []
    state = want = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        prev, (state, rep) = state.P, r4skf.step(state, truth.u[k], truth.y[k], model)
        want, _, _, K, L = reference_step(want, truth.u[k], truth.y[k], model)
        for name in ("x_hat", "P", "d_hat", "Pd", "gamma"):
            assert np.array_equal(getattr(state, name), getattr(want, name)), (k, name)
        assert np.array_equal(rep.K, K) and np.array_equal(rep.L, L), k
        if state.P is prev:
            kept.append(k)
    # every step after step kept_at (k = kept_at - 1) returned the result kept there
    assert kept == list(range(kept_at, cfg.n_steps))


def test_run_scenario_rows_equal_the_reference_past_the_fixed_point():
    cfg = replace(benchmark_scenario(), seeds=(3, 4), estimators=("r4skf",))
    result = run_scenario(cfg)
    assert r4skf.step_terms(cfg.model, 0).fixed_point is not None       # the shared recursion got there
    for seed in cfg.seeds:
        truth, run = result.truths[seed], result.runs[seed]["r4skf"]
        state = r4skf.initial_state(cfg.model, cfg.x0_hat)
        rows = []
        for k in range(cfg.n_steps):
            state = reference_step(state, truth.u[k], truth.y[k], cfg.model)[0]
            rows.append((state.x_hat, state.d_hat, state.gamma, state.Pd.diagonal()))
        for name, got, want in zip(("x_hat", "d_hat", "gamma", "Pd_diag"), (run.x_hat, run.d_hat, run.gamma, run.Pd_diag),
                                   map(np.array, zip(*rows))):
            assert np.array_equal(got, want), (seed, name)


@pytest.mark.parametrize(
    "argv, n_gains",
    [(["check", "properties"], 404), (["check", "stability"], 1002), (["check", "stability", "--config", None], 1062)],
    ids=["properties", "stability", "stability-config"],
)
def test_check_commands_form_the_gain_up_to_each_fixed_point(monkeypatch, tmp_path, argv, n_gains):
    path = tmp_path / "scenario.yaml"
    path.write_text(docstring_yaml())
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(path) if a is None else a for a in argv]) == 0
    assert len(gains) == n_gains


def test_a_value_equal_copy_of_the_kept_P_is_computed(monkeypatch):
    terms, state = to_fixed_point(square_test_model())
    kept = terms.fixed_point
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    assert r4skf.gain_and_covariance(state.P, terms) is kept
    assert len(gains) == 0
    out = r4skf.gain_and_covariance(state.P.copy(), terms)
    assert len(gains) == 1
    for got, want in zip(out, kept):
        assert got is not want and np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_result_is_never_kept(monkeypatch, bad):
    terms, state = to_fixed_point(square_test_model())
    fresh = replace(terms)                # the same model terms, nothing kept
    assert fresh.fixed_point is None
    Pd_of = r4skf.unknown_input_error_cov
    monkeypatch.setattr(r4skf, "unknown_input_error_cov", lambda S, F_d: Pd_of(S, F_d) * bad)
    P_prev = state.P.copy()
    for _ in range(2):
        out = r4skf.gain_and_covariance(P_prev, fresh)
        assert out[3].tobytes() == P_prev.tobytes()         # a fixed point of P ...
        assert fresh.fixed_point is None                    # ... with a non-finite Pd
        assert all(M.flags.writeable for M in out)
        P_prev = out[3]


def test_a_P_prev_that_is_not_c_contiguous_is_never_kept():
    terms, state = to_fixed_point(square_test_model())
    fresh = replace(terms)
    P_prev = np.asfortranarray(state.P)
    assert not P_prev.flags.c_contiguous
    out = r4skf.gain_and_covariance(P_prev, fresh)
    assert out[3].tobytes() == P_prev.tobytes()
    assert fresh.fixed_point is None


def test_the_kept_arrays_are_read_only():
    terms, state = to_fixed_point(square_test_model())
    assert all(not M.flags.writeable for M in terms.fixed_point)
    before = state.P.copy()
    with pytest.raises(ValueError):
        state.P[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.P += 1.0
    assert np.array_equal(state.P, before)


def test_a_second_stream_forms_its_own_gains_up_to_its_fixed_point(monkeypatch):
    model = yaml_scenario().model
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    ys = np.random.default_rng(2).standard_normal((150, model.n_y))
    first = [(s.x_hat, s.P) for s, _ in r4skf.stream(model, ys, np.zeros(model.n_x))]
    assert len(gains) == 60
    second = [(s.x_hat, s.P) for s, _ in r4skf.stream(model, ys, np.zeros(model.n_x))]
    assert len(gains) == 120
    for k, ((x1, P1), (x2, P2)) in enumerate(zip(first, second)):
        assert np.array_equal(x1, x2) and np.array_equal(P1, P2), k
        assert P1 is not P2, k               # each stream computes and keeps its own P


def test_a_time_varying_model_forms_one_gain_per_step(monkeypatch):
    cfg = benchmark_case(1, duration=1.0, seeds=(3,))
    model = varying(cfg.model)
    truth = generate_truth(replace(cfg, model=model), 3)
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    state = r4skf.initial_state(model, cfg.x0_hat)
    for k in range(cfg.n_steps):
        state, _ = r4skf.step(state, truth.u[k], truth.y[k], model)
    assert len(gains) == cfg.n_steps


def test_cd_four_step_forms_one_gain_per_step_past_a_fixed_point(monkeypatch):
    model = square_test_model()
    A, C = model.A(0.0), model.C(0)
    nl = NonlinearModel(
        f=lambda x, u, t: A @ x, h=lambda x: C @ x, E=model.E(0.0), G=model.G(0.0), Q=model.Q(0.0),
        R=model.R(0), dt=model.dt, F=lambda x, u, t: A, H=lambda x: C,
    )
    gains = count_calls(monkeypatch, r4skf, "kalman_gain")
    state = r4skf.initial_state(model, np.zeros(2))
    repeats = 0
    for k in range(50):
        new, _ = cdekf.cd_four_step(state, np.zeros(1), np.array([0.1, -0.2]), nl)
        repeats += new.P.tobytes() == state.P.tobytes()
        state = new
    assert repeats > 40                  # its covariance sits at a fixed point ...
    assert len(gains) == 50              # ... and every step still forms its gain
