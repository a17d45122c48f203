"""r4skf.step_terms keeps the last StepTerms it evaluated on the model, keyed
by the step index, or for every step when the model is time-invariant: a
time-invariant model is evaluated once per model instance, and r4skf.step,
a2kf.a2kf_step and run_scenario all read that one; estimators that step a
time-varying model at the same k share one evaluation. These tests hold the
kept terms to the same outputs, bit for bit, as a plant evaluated every step,
count the evaluations, and check that nothing can make the kept terms stale:
constant matrices are read-only copies, a new k is evaluated afresh and a
failed evaluation keeps nothing.
"""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, cli, r4skf
from uikf.benchmark import benchmark_model
from uikf.errors import RankConditionError
from uikf.model import SystemModel

from test_per_step_path import time_varying_model
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


def test_interleaved_steps_on_one_model_equal_each_filter_alone():
    """r4skf.step and a2kf.a2kf_step at the same k share the terms of k; each
    run alone on its own copy of the model evaluates them itself."""
    model = time_varying_model()
    u, ys = measurements(model)
    fs, as_ = r4skf.initial_state(model, np.ones(model.n_x)), a2kf.initial_state(model, np.ones(model.n_x))
    shared = []
    for y in ys:
        fs, _ = r4skf.step(fs, u, y, model)
        as_, _ = a2kf.a2kf_step(as_, u, y, model)
        shared.append((fs.x_hat, fs.P, fs.d_hat, fs.Pd, fs.gamma, as_.x_a, as_.P_a, as_.Qd_hat))
    alone = [a[:5] + b[:3] for a, b in zip(run_r4skf(replace(model)), run_a2kf(replace(model)), strict=True)]
    for got, want in zip(shared, alone, strict=True):
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


def test_a_step_back_is_evaluated_afresh(monkeypatch):
    model = time_varying_model()
    evaluations = count_calls(monkeypatch, r4skf, "discretize")
    first = r4skf.step_terms(model, 40)
    assert r4skf.step_terms(model, 40) is first and len(evaluations) == 1
    before = r4skf.step_terms(model, 39)
    again = r4skf.step_terms(model, 40)
    assert len(evaluations) == 3 and again is not first
    assert not np.array_equal(before.C, first.C)
    for name in ("C", "R", "Q", "G", "F_d", "GQG", "CGQGC"):
        assert np.array_equal(getattr(again, name), getattr(first, name)), name
    for name in ("A_d", "B_d", "E_d"):
        assert np.array_equal(getattr(again.dm, name), getattr(first.dm, name)), name


def test_a_rank_deficient_step_raises_on_every_call_and_keeps_nothing(monkeypatch):
    """C(5) does not see the unknown input, so the step to measurement 5 fails;
    the steps on either side of it work."""
    E = np.array([[0.0], [1.0]])
    model = SystemModel(
        A=np.zeros((2, 2)), B=np.zeros((2, 1)), E=E, G=np.eye(2),
        C=lambda k: np.array([[1.0, 0.0]]) if k == 5 else np.array([[1.0, 1.0]]),
        Q=1e-6 * np.eye(2), R=np.array([[1e-7]]), dt=0.01,
    )
    gains = count_calls(monkeypatch, r4skf, "unknown_input_gain")
    kept = r4skf.step_terms(model, 3)
    for _ in range(2):
        with pytest.raises(RankConditionError):
            r4skf.step_terms(model, 4)
    assert r4skf.step_terms(model, 3) is kept
    state = replace(r4skf.initial_state(model, np.zeros(2)), k=5)
    assert np.isfinite(r4skf.step(state, np.zeros(1), np.zeros(1), model)[0].x_hat).all()
    assert len(gains) == 4


def test_arrays_returned_by_the_model_keep_their_writeable_flag():
    returned = {name: np.array(getattr(benchmark_model(), name)(0)) for name in MATRICES}
    model = SystemModel(dt=0.01, **{name: (lambda _arg, M=M: M) for name, M in returned.items()})
    terms = r4skf.step_terms(model, 0)
    assert all(M.flags.writeable for M in returned.values())
    for M in (terms.dm.A_d, terms.dm.B_d, terms.dm.E_d, terms.F_d):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0


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
