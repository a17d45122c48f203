"""A time-invariant model is evaluated once per model instance: r4skf.step_terms
keeps the StepTerms of its first call on the model, and r4skf.step,
a2kf.a2kf_step and run_scenario all read that one. These tests hold the kept
terms to the same outputs, bit for bit, as a plant evaluated every step, count
the evaluations, and check that nothing can make the kept terms stale: constant
matrices are read-only copies and a failed evaluation keeps nothing.
"""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, cli, r4skf
from uikf.benchmark import benchmark_model
from uikf.errors import RankConditionError
from uikf.model import SystemModel

from test_scenario_errors import DOC
from test_time_invariant import MATRICES, as_callables, count_calls

STEPS = 300


def measurements(model, seed=5):
    rng = np.random.default_rng(seed)
    return np.zeros(model.n_u), 0.01 * rng.standard_normal((STEPS, model.n_y))


def run_r4skf(model):
    u, ys = measurements(model)
    state = r4skf.initial_state(model, np.ones(model.n_x))
    out = []
    for y in ys:
        state, report = r4skf.step(state, u, y, model)
        out.append((state.x_hat, state.P, state.d_hat, state.Pd, state.gamma, report.K, report.L))
    return out


def run_a2kf(model):
    u, ys = measurements(model)
    state = a2kf.initial_state(model, np.ones(model.n_x))
    out = []
    for y in ys:
        state, report = a2kf.a2kf_step(state, u, y, model)
        out.append((state.x_a, state.P_a, state.Qd_hat, report.gamma, report.K))
    return out


@pytest.mark.parametrize("run", [run_r4skf, run_a2kf])
def test_kept_terms_equal_a_plant_evaluated_every_step(run):
    model = benchmark_model()
    assert model.time_invariant
    for got, want in zip(run(model), run(as_callables(model)), strict=True):
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


def test_an_lti_model_is_evaluated_once_across_step_calls(monkeypatch):
    evaluations = count_calls(monkeypatch, r4skf, "discretize")
    gains = count_calls(monkeypatch, r4skf, "unknown_input_gain")
    model = benchmark_model()
    run_r4skf(model)
    run_a2kf(model)
    assert len(evaluations) == len(gains) == 1
    assert r4skf.step_terms(model, 0) is r4skf.step_terms(model, 123)


def test_a_replaced_model_is_evaluated_afresh(monkeypatch):
    model = benchmark_model()
    kept = r4skf.step_terms(model, 0)
    evaluations = count_calls(monkeypatch, r4skf, "discretize")
    copy = replace(model, R=2.0 * model.R(0))
    terms = r4skf.step_terms(copy, 7)
    assert len(evaluations) == 1 and terms is not kept
    assert np.array_equal(terms.R, 2.0 * model.R(0)) and np.array_equal(kept.R, model.R(0))


def test_a_time_varying_model_is_evaluated_every_step(monkeypatch):
    evaluations = count_calls(monkeypatch, r4skf, "discretize")
    gains = count_calls(monkeypatch, r4skf, "unknown_input_gain")
    run_r4skf(as_callables(benchmark_model()))
    assert len(evaluations) == len(gains) == STEPS


def test_the_kept_matrices_are_read_only():
    model = benchmark_model()
    _, report = r4skf.step(r4skf.initial_state(model, np.ones(model.n_x)), np.zeros(model.n_u), np.zeros(model.n_y), model)
    for M in (report.dm.A_d, report.dm.B_d, report.dm.E_d, report.F_d, report.C):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0


def test_a_rank_deficient_lti_model_raises_on_every_call(monkeypatch):
    model = SystemModel(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), E=np.array([[0.0], [1.0]]), G=np.eye(2),
        C=np.array([[1.0, 0.0]]), Q=1e-6 * np.eye(2), R=np.array([[1e-7]]), dt=0.01,
    )
    gains = count_calls(monkeypatch, r4skf, "unknown_input_gain")
    state = r4skf.initial_state(model, np.zeros(2))
    for _ in range(3):
        with pytest.raises(RankConditionError):
            r4skf.step(state, np.zeros(1), np.zeros(1), model)
        with pytest.raises(RankConditionError):
            a2kf.a2kf_step(a2kf.initial_state(model, np.zeros(2)), np.zeros(1), np.zeros(1), model)
    assert len(gains) == 6 and "_step_terms" not in model.__dict__


def test_constant_matrices_are_read_only_copies_of_the_callers_arrays():
    source = {name: np.array(getattr(benchmark_model(), name)(0)) for name in MATRICES}
    model = SystemModel(dt=0.01, **source)
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    state = r4skf.initial_state(model, np.ones(model.n_x))
    before, _ = r4skf.step(state, u, y, model)
    A0 = source["A"].copy()
    for M in source.values():
        M *= 3.0
    assert np.array_equal(model.A(0), A0)
    after, _ = r4skf.step(state, u, y, model)
    assert np.array_equal(after.x_hat, before.x_hat) and np.array_equal(after.P, before.P)
    with pytest.raises(ValueError, match="read-only"):
        model.C(0)[0, 0] = 2.0


# `uikf check properties` and `uikf check stability --config <the 2-state DOC of
# test_scenario_errors.py>` as printed before step_terms kept the terms of a
# time-invariant model
PROPERTIES = """\
PASS  gain_irrelevance_optimal_vs_zero: value=6.06247e-15 threshold=1e-09
PASS  gain_irrelevance_vs_one_step: value=3.46945e-18 threshold=1e-09
PASS  dual_form_update_equality: value=6.74503e-16 threshold=1e-12
PASS  one_step_equivalence: value=2.54361e-18 threshold=1e-09
PASS  observer_square_case_vs_one_step: value=0 threshold=1e-12
PASS  observer_general_vs_filter_fixed_gain: value=0 threshold=1e-10
PASS  qd_spd_round_trip: value=1.19945e-16 threshold=1e-10
"""
STABILITY = """\
benchmark: rho(A_bar)=0.998769 rho(A_tilde)=0.986401
user: rho(A_bar)=1 rho(A_tilde)=0.729846
square: rho(A_bar)=0 rho(A_tilde)=0
"""


def test_check_properties_prints_the_same_bytes(capsys):
    assert cli.main(["check", "properties"]) == 0
    assert capsys.readouterr().out == PROPERTIES


def test_check_stability_prints_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(DOC))
    assert cli.main(["check", "stability", "--config", str(path)]) == 0
    assert capsys.readouterr().out == STABILITY
