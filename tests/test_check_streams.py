"""The property checks run as queries over their recorded streams: each step
loop only steps the estimators, and the one-step reference C^{-1} y and the
deviation are formed once over the whole stream. The reference loops below
form both at every step; every CheckResult and every equivalence_check value
must equal theirs bitwise."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uikf import checks, onestep, r4skf, uio
from uikf.benchmark import benchmark_model
from uikf.checks import CheckResult, square_test_model


def per_step_gain_irrelevance():
    model = square_test_model()
    ys = onestep.white_input_stream(model, 500, seed=0)
    u = np.zeros(model.n_u)
    s_opt = r4skf.initial_state(model, 100.0 * np.ones(model.n_x))
    s_zero = uio.initial_observer_state(100.0 * np.ones(model.n_x), model.n_d)
    K0 = np.zeros((model.n_x, model.n_y))
    dev_gain = 0.0
    dev_onestep = 0.0
    for k in range(len(ys)):
        s_opt, _ = r4skf.step(s_opt, u, ys[k], model)
        t = r4skf.step_terms(model, k)
        s_zero = uio.observer_step(s_zero, ys[k], u, t.dm, t.C, K0)
        ref = onestep.one_step_estimate(ys[k], t.C)
        dev_gain = max(dev_gain, float(np.linalg.norm(s_opt.x_hat - s_zero.x_hat)))
        dev_onestep = max(dev_onestep, float(np.linalg.norm(s_opt.x_hat - ref)))
    return [
        CheckResult("gain_irrelevance_optimal_vs_zero", dev_gain <= 1e-9, dev_gain, 1e-9),
        CheckResult("gain_irrelevance_vs_one_step", dev_onestep <= 1e-9, dev_onestep, 1e-9),
    ]


def per_step_dual_form():
    model = benchmark_model()
    rng = np.random.default_rng(3)
    state = r4skf.initial_state(model, rng.standard_normal(model.n_x))
    u = np.zeros(model.n_u)
    worst = 0.0
    for _ in range(100):
        y = rng.standard_normal(model.n_y)
        state, rep = r4skf.step(state, u, y, model)
        alt = rep.x_star + rep.L @ state.gamma
        scale = 1.0 + float(np.linalg.norm(state.x_hat))
        worst = max(worst, float(np.linalg.norm(state.x_hat - alt)) / scale)
    return [CheckResult("dual_form_update_equality", worst <= 1e-12, worst, 1e-12)]


def per_step_equivalence(model, steps, seed, x0_hat=None):
    ys = onestep.white_input_stream(model, steps, seed)
    state = r4skf.initial_state(
        model, np.zeros(model.n_x) if x0_hat is None else np.asarray(x0_hat, dtype=float)
    )
    u = np.zeros(model.n_u)
    worst = 0.0
    for k in range(steps):
        state, _ = r4skf.step(state, u, ys[k], model)
        ref = onestep.one_step_estimate(ys[k], r4skf.step_terms(model, k).C)
        dev = np.linalg.norm(state.x_hat - ref) / (1.0 + np.linalg.norm(ref))
        worst = max(worst, dev)
    return worst


def per_step_onestep_equivalence():
    dev = per_step_equivalence(square_test_model(), 500, seed=1, x0_hat=[100.0, 100.0])
    return [CheckResult("one_step_equivalence", dev <= 1e-9, dev, 1e-9)]


def per_step_observer_equivalence():
    results = []

    model = square_test_model()
    ys = onestep.white_input_stream(model, 300, seed=2)
    u = np.zeros(model.n_u)
    Linv = np.linalg.inv(r4skf.step_terms(model, 0).C)
    obs = uio.initial_observer_state(np.ones(model.n_x), model.n_d)
    worst = 0.0
    for k in range(len(ys)):
        t = r4skf.step_terms(model, k)
        obs = uio.observer_step(obs, ys[k], u, t.dm, t.C, Linv)
        ref = onestep.one_step_estimate(ys[k], t.C)
        worst = max(worst, float(np.abs(obs.x_hat - ref).max()))
    results.append(CheckResult("observer_square_case_vs_one_step", worst <= 1e-12, worst, 1e-12))

    model = benchmark_model()
    rng = np.random.default_rng(2)
    obs = uio.initial_observer_state(np.zeros(model.n_x), model.n_d)
    filt = r4skf.initial_state(model, np.zeros(model.n_x))
    u = np.zeros(model.n_u)
    worst = 0.0
    for k in range(300):
        y = 0.01 * rng.standard_normal(model.n_y)
        t = r4skf.step_terms(model, k)
        filt, rep = r4skf.step(filt, u, y, model)
        obs = uio.observer_step(obs, y, u, t.dm, t.C, rep.K)
        worst = max(worst, float(np.abs(obs.x_hat - filt.x_hat).max()))
    results.append(CheckResult("observer_general_vs_filter_fixed_gain", worst <= 1e-10, worst, 1e-10))
    return results


def per_step_property_checks():
    return (per_step_gain_irrelevance() + per_step_dual_form() + per_step_onestep_equivalence()
            + per_step_observer_equivalence() + checks.check_qd_reconstruction())


def test_run_property_checks_equals_the_per_step_loops():
    results = checks.run_property_checks()
    assert results == per_step_property_checks()
    assert all(type(r.value) is float for r in results)


def time_varying_square_model():
    """square_test_model with C(k) a rotation that turns with k, so every
    step has a C of its own."""
    def C(k):
        c, s = np.cos(0.01 * k), np.sin(0.01 * k)
        return np.array([[1.5 * c, -s], [s, 0.8 * c]])
    return replace(square_test_model(), C=C)


@pytest.mark.parametrize("make, steps, seed, x0_hat", [
    (square_test_model, 500, 1, [100.0, 100.0]),
    (square_test_model, 37, 4, None),
    (time_varying_square_model, 200, 1, [100.0, -3.0]),
    (time_varying_square_model, 60, 9, None),
])
def test_equivalence_check_equals_its_per_step_loop(make, steps, seed, x0_hat):
    value = onestep.equivalence_check(make(), steps, seed=seed, x0_hat=x0_hat)
    assert value == per_step_equivalence(make(), steps, seed=seed, x0_hat=x0_hat)
    assert value <= 1e-9


def test_equivalence_check_of_no_steps_is_zero():
    assert onestep.equivalence_check(square_test_model(), 0, seed=1) == 0.0


def count_one_step_solves(monkeypatch, run):
    """The C of every onestep.one_step_estimate call that run makes."""
    seen = []
    real = onestep.one_step_estimate

    def counting(y, C):
        seen.append(C)
        return real(y, C)

    monkeypatch.setattr(onestep, "one_step_estimate", counting)
    run()
    return seen


def test_equivalence_check_solves_once_per_run_of_one_C(monkeypatch):
    assert len(count_one_step_solves(monkeypatch, lambda: onestep.equivalence_check(square_test_model(), 50, seed=1))) == 1
    seen = count_one_step_solves(monkeypatch, lambda: onestep.equivalence_check(time_varying_square_model(), 50, seed=1))
    assert len(seen) == 50 and len({id(C) for C in seen}) == 50


def test_equivalence_check_solves_each_run_of_a_shared_C_once(monkeypatch):
    """A callable C that hands back one of two arrays in runs of 3 and 4
    steps: one solve per run, on that run's C, and the per-step value."""
    C1, C2 = np.array([[2.0, 0.3], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.4, 1.5]])
    model = replace(square_test_model(), C=lambda k: C1 if k % 7 < 3 else C2)
    value = onestep.equivalence_check(model, 21, seed=5)
    assert value == per_step_equivalence(model, 21, seed=5)
    read = [model.C(k + 1) for k in range(21)]  # step k reads C(k + 1)
    runs = [C for k, C in enumerate(read) if k == 0 or C is not read[k - 1]]
    seen = count_one_step_solves(monkeypatch, lambda: onestep.equivalence_check(model, 21, seed=5))
    assert len(seen) == len(runs) == 7 and all(a is b for a, b in zip(seen, runs))


def test_run_property_checks_solves_three_times(monkeypatch):
    """one C^{-1} y solve per check that reads it: gain irrelevance, one-step
    equivalence and the observer's square case"""
    assert len(count_one_step_solves(monkeypatch, checks.run_property_checks)) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_row_norms_equal_the_norm_of_each_row(n):
    D = np.random.default_rng(n).standard_normal((2000, n)) * np.logspace(-150, 150, 2000)[:, None]
    expected = np.array([np.linalg.norm(row) for row in D])
    assert np.array_equal(onestep.row_norms(D), expected)
    assert np.array_equal(onestep.row_norms(D.reshape(40, 50, n)), expected.reshape(40, 50))


def test_a_nan_deviation_is_not_skipped(monkeypatch):
    """A NaN measurement makes that step's deviation NaN; the worst deviation
    is then NaN, which fails the check's `<=` bound, not the largest finite one."""
    real = onestep.white_input_stream

    def with_a_nan(model, steps, seed):
        ys = real(model, steps, seed)
        ys[steps // 2, 0] = np.nan
        return ys

    monkeypatch.setattr(onestep, "white_input_stream", with_a_nan)
    assert np.isnan(onestep.equivalence_check(square_test_model(), 20, seed=1))
    result, = checks.check_onestep_equivalence()
    assert np.isnan(result.value) and not result.passed


def calls_of_r4skf_step(name, tree):
    """The calls of r4skf.step in the module name: r4skf.step(...), or step(...) in r4skf or where
    the module binds step by `from .r4skf import step` (sim's runners define step functions of their own)."""
    bound = name == "r4skf" or any(isinstance(node, ast.ImportFrom) and node.module == "r4skf"
                                   and "step" in {a.name for a in node.names} for node in ast.walk(tree))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute) and node.func.attr == "step"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "r4skf"
        or bound and isinstance(node.func, ast.Name) and node.func.id == "step")]


def test_only_r4skf_steps_its_filter_outside_run_scenario():
    """Every other module steps the filter through r4skf.stream (or sim's runners
    through r4skf.advance), so one loop names a failure by its step."""
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(r4skf.__file__).parent.glob("*.py")}
    assert {name for name, tree in trees.items() if calls_of_r4skf_step(name, tree)} == {"r4skf"}
    assert not [node for node in ast.walk(trees["onestep"]) if isinstance(node, ast.Try)]

