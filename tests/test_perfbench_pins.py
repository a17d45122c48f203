"""The library names that the benchmark harness under perfbench/ reads exist.

perfbench/tracer.py wraps every (module, function) of its TRACED table, the
harness self-tests restore some bindings by name, the stream-tv workload
calls uio.observer_step positionally, and the workloads call other functions
and constructors in fixed forms and read fields of run_scenario's result. A
deletion or rename of any of them breaks the traced benchmark; here it fails
the test suite instead. So does a change of the step and evaluation counts
that the self-tests assert, and an a2kf or uio key of check-cli's YAML that
the config parser no longer accepts."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
import yaml

from uikf import a2kf, benchmark, checks, cli, config, r4skf, sim, uio
from uikf import model as plant_model
from uikf.benchmark import A_PLANT, B_PLANT, C_PLANT, Q_PLANT, R_PLANT, benchmark_model
from uikf.cdekf import NonlinearModel, cd_four_step
from uikf.checks import square_test_model
from uikf.r4skf import FilterState

from test_input_failures import DOC

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def traced_names():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, name) for mod, names in tracer.TRACED.items() for name in names]


# the bindings of one function under other modules that the self-tests restore
REBOUND = [("r4skf", "discretize"), ("a2kf", "discretize"), ("cdekf", "moore_penrose_pinv")]


@pytest.mark.parametrize("mod, name", traced_names() + REBOUND, ids=lambda v: v)
def test_traced_name_exists(mod, name):
    assert callable(getattr(importlib.import_module(f"uikf.{mod}"), name))


def test_observer_step_parameters():
    assert list(inspect.signature(uio.observer_step).parameters) == ["state", "y", "u", "dm", "C", "L"]


# every other call of perfbench/workloads.py into uikf, in the form it is written
# there, with placeholder arguments: a renamed, removed or reordered parameter
# fails to bind
CALLS = {
    "r4skf.initial_state": (r4skf.initial_state, ("m", "x0"), {}),
    "r4skf.step": (r4skf.step, ("s", "u", "y", "m"), {}),
    "a2kf.initial_state": (a2kf.initial_state, ("m", "x0"), {"cfg": "cfg"}),
    "a2kf.a2kf_step": (a2kf.a2kf_step, ("s", "u", "y", "m", "cfg"), {}),
    "a2kf.A2KFConfig": (a2kf.A2KFConfig, (), {}),
    "uio.initial_observer_state": (uio.initial_observer_state, ("x0", "n_d"), {}),
    "model.discretize": (plant_model.discretize, ("m", "t"), {}),
    "cdekf.cd_four_step": (cd_four_step, ("s", "u", "y", "m"), {"method": "rk4"}),
    "sim.generate_truth": (sim.generate_truth, ("cfg", "seed"), {}),
    "sim.run_scenario": (sim.run_scenario, ("cfg",), {}),
    "sim.write_timeseries_csv": (sim.write_timeseries_csv, ("path", "result", "est"), {}),
    "sim.write_summary_csv": (sim.write_summary_csv, ("path", "results"), {}),
    "benchmark.benchmark_case": (benchmark.benchmark_case, ("c",), {"seeds": "seeds", "duration": 0.5}),
    "cli.main": (cli.main, ("argv",), {}),
    "SystemModel": (plant_model.SystemModel, (), dict.fromkeys(["A", "B", "E", "G", "C", "Q", "R", "dt"])),
    "ScenarioConfig": (sim.ScenarioConfig, (), dict.fromkeys(
        ["model", "signals", "duration", "seeds", "x0_true", "x0_hat", "estimators"])),
    "SignalSpec": (sim.SignalSpec, (), {"kind": "custom", "samples": None}),
    "NonlinearModel": (NonlinearModel, (), dict.fromkeys(["f", "h", "E", "G", "Q", "R", "dt"])),
    "FilterState": (FilterState, (), dict.fromkeys(["x_hat", "P", "d_hat", "Pd", "gamma", "k"])),
}


@pytest.mark.parametrize("fn, args, kwargs", CALLS.values(), ids=CALLS.keys())
def test_perfbench_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_run_scenario_result_has_the_fields_perfbench_reads():
    cfg = benchmark.benchmark_case(1, seeds=(3, 4), duration=0.1)
    result = sim.run_scenario(cfg)
    n_steps = cfg.n_steps
    for seed in cfg.seeds:
        truth = result.truths[seed]
        assert [truth.x.shape, truth.y.shape, truth.u.shape, truth.d.shape] == [
            (n_steps + 1, 4), (n_steps, 3), (n_steps, 2), (n_steps, 2)]
        for est in cfg.estimators:
            run = result.runs[seed][est]
            assert run.x_hat.shape == (n_steps, 4) and run.d_hat.shape == (n_steps, 2)
    for est in cfg.estimators:
        assert (result.rmse_mean[est]["x"].shape, result.rmse_mean[est]["d"].shape) == ((4,), (2,))


def check_cli_body():
    """The statements of perfbench/workloads.py's CheckCli class, read from its source."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CheckCli").body


def check_cli_sections():
    """The literal "a2kf" and "uio" mappings of the YAML document that CheckCli writes."""
    init = next(node for node in check_cli_body() if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    doc = next(node.value for node in ast.walk(init)
               if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "doc")
    return {key.value: ast.literal_eval(value) for key, value in zip(doc.keys, doc.values)
            if key.value in ("a2kf", "uio")}


def test_the_check_cli_config_sections_parse():
    """A deleted or renamed a2kf or uio key would make check-cli's simulate exit 1."""
    sections = check_cli_sections()
    assert set(sections) == {"a2kf", "uio"}
    a2kf_config = config.parse_a2kf(sections["a2kf"])
    doc = {**DOC, **sections, "scenario": {**DOC["scenario"], "estimators": ["r4skf", "a2kf", "uio"]}}
    cfg = config.parse_scenario(doc)
    assert cfg.a2kf_config == a2kf_config
    assert np.array_equal(cfg.uio_gain, sections["uio"]["gain"])


# The counts that perfbench/selftest.py asserts on the check-cli and cd-nonlinear
# workloads, held here by monkeypatched counters without importing the harness.
def check_cli_steps():
    """The step constants of CheckCli."""
    return {node.targets[0].id: ast.literal_eval(node.value) for node in check_cli_body()
            if isinstance(node, ast.Assign) and node.targets[0].id in ("PROPERTY_STEPS", "STABILITY_STEPS")}


def count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def count_steps(monkeypatch, argv):
    """The r4skf.step and uio.observer_step calls of one successful command line."""
    counts = {"step": 0, "observer_step": 0}
    count_calls(monkeypatch, r4skf, "step", counts)
    count_calls(monkeypatch, uio, "observer_step", counts)
    assert cli.main(argv) == 0
    return counts


def test_check_properties_runs_1400_filter_and_1100_observer_steps(monkeypatch, capsys):
    counts = count_steps(monkeypatch, ["check", "properties"])
    assert sum(counts.values()) == check_cli_steps()["PROPERTY_STEPS"]
    assert counts == {"step": 1400, "observer_step": 1100}


def test_check_stability_with_a_config_runs_1000_filter_steps_per_model(monkeypatch, capsys, tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(DOC))
    counts = count_steps(monkeypatch, ["check", "stability", "--config", str(config)])
    assert sum(counts.values()) == check_cli_steps()["STABILITY_STEPS"]
    assert counts == {"step": 3 * 1000, "observer_step": 0}


@pytest.mark.parametrize("model", [benchmark_model(), square_test_model()], ids=["benchmark", "square"])
def test_stability_report_runs_1000_filter_steps_per_model(monkeypatch, model):
    counts = {"step": 0}
    count_calls(monkeypatch, r4skf, "step", counts)
    checks.stability_report(model)
    assert counts == {"step": 1000}


def test_rk4_step_with_finite_difference_jacobians_evaluates_f_13_and_h_11_times():
    A, B, C = A_PLANT, B_PLANT, C_PLANT
    counts = {"f": 0, "h": 0}

    def f(x, u, t):
        counts["f"] += 1
        return A @ x + B @ u - 0.5 * x ** 3

    def h(x):
        counts["h"] += 1
        return C @ x

    model = NonlinearModel(f=f, h=h, E=B, G=np.eye(4), Q=Q_PLANT, R=R_PLANT, dt=0.01)
    state = FilterState(x_hat=0.1 * np.ones(4), P=np.eye(4), d_hat=np.zeros(2), Pd=np.eye(2), gamma=np.zeros(3), k=0)
    steps = 5
    for _ in range(steps):
        state, _ = cd_four_step(state, np.zeros(2), C @ (0.1 * np.ones(4)), model, method="rk4")
    assert counts == {"f": 13 * steps, "h": 11 * steps}
