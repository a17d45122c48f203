"""Every real-valued scalar field passes one rule, model.read_number: a real
number that is not a bool, finite and within the field's bound, kept as a
Python float. A bool is refused from Python and from YAML alike, where YAML
1.1 reads `yes`, `no`, `on`, `off`, `true` and `false` as bools. Also: a
plant without unknown input runs the a2kf, a step count or an allocation too
large for a float or for memory is a config error, and a LinAlgError inside
run_scenario names the estimator and the step."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, cli, r4skf, sim
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.errors import ConfigError
from uikf.sim import SignalSpec, run_scenario

CASE = benchmark_case(1, duration=0.5, seeds=(1, 2))
NONLINEAR = dict(f=lambda x, u, t: -x, h=lambda x: x, E=np.array([[0.0], [1.0]]),
                 G=np.eye(2), Q=1e-4 * np.eye(2), R=1e-3 * np.eye(2), dt=0.01)

POSITIVE, FINITE, NON_NEGATIVE = "a positive finite number", "a finite number", "a finite number >= 0"
# field of the message -> (its rule's text, build with the field set to a value, read the kept value)
FIELDS = {
    "model.dt": (POSITIVE, lambda v: replace(CASE.model, dt=v), lambda m: m.dt),
    "model.dt (NonlinearModel)": (POSITIVE, lambda v: NonlinearModel(**{**NONLINEAR, "dt": v}), lambda m: m.dt),
    "scenario.duration": (POSITIVE, lambda v: replace(CASE, duration=v), lambda c: c.duration),
    "scenario.rmse_skip": (NON_NEGATIVE, lambda v: replace(CASE, rmse_skip=v), lambda c: c.rmse_skip),
    **{name: (FINITE, lambda v, name=name: SignalSpec(kind="step", **{name: v}), lambda s, name=name: getattr(s, name))
       for name in ("t_on", "t_off", "amplitude", "f0")},
    **{f"a2kf.{name}": (NON_NEGATIVE, lambda v, name=name: A2KFConfig(**{name: v}),
                        lambda c, name=name: getattr(c, name)) for name in ("qd_floor", "qd_init")},
}
# a value just outside each rule's bound; a finite number's bound is the range of the floats
OUTSIDE = {POSITIVE: 0.0, NON_NEGATIVE: -1e-300, FINITE: 10 ** 400}


def message_field(field):
    return field.split(" ")[0]


@pytest.mark.parametrize("value", [True, False, None, "0.5", math.nan, math.inf, -math.inf, "outside"],
                         ids=["True", "False", "None", "str", "nan", "inf", "-inf", "outside"])
@pytest.mark.parametrize("field", FIELDS)
def test_a_value_that_is_not_a_finite_real_within_the_bound_is_refused(field, value):
    text, build, _ = FIELDS[field]
    value = OUTSIDE[text] if value == "outside" else value
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value) == f"{message_field(field)}: must be {text}, got {value!r}"


@pytest.mark.parametrize("value", [1, np.int64(2), np.float32(0.5)], ids=["int", "int64", "float32"])
@pytest.mark.parametrize("field", FIELDS)
def test_a_real_number_is_kept_as_a_python_float(field, value):
    _, build, read = FIELDS[field]
    kept = read(build(value))
    assert type(kept) is float and kept == float(value)


def test_the_bounds_hold_at_zero():
    assert SignalSpec(kind="step", t_on=-1.5).t_on == -1.5
    assert A2KFConfig(qd_floor=0, qd_init=0.0).qd_floor == 0.0
    assert replace(CASE, rmse_skip=0).rmse_skip == 0.0
    with pytest.raises(ConfigError, match=r"^scenario\.duration: must be a positive finite number, got -0\.0$"):
        replace(CASE, duration=-0.0)


DOC = {
    "schema": 1,
    "model": {
        "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "E": [[1.0], [0.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]], "dt": 0.01,
    },
    "scenario": {
        "duration": 0.5, "seeds": [1], "x0_true": [0.0, 0.0], "x0_hat": [1.0, 1.0],
        "estimators": ["r4skf", "a2kf"],
        "signals": [{"kind": "windowed_sine", "t_on": 0.1, "t_off": 0.3, "amplitude": 0.5, "f0": 2.0}],
    },
    "a2kf": {"qd_floor": 1e-12, "qd_init": 1e-6},
}
# field of the message -> (its rule's text, the keys of the field in DOC)
YAML_FIELDS = {
    "model.dt": (POSITIVE, ("model", "dt")),
    "scenario.duration": (POSITIVE, ("scenario", "duration")),
    "scenario.rmse_skip": (NON_NEGATIVE, ("scenario", "rmse_skip")),
    **{f"scenario.signals[0].{name}": (FINITE, ("scenario", "signals", 0, name))
       for name in ("t_on", "t_off", "amplitude", "f0")},
    **{f"a2kf.{name}": (NON_NEGATIVE, ("a2kf", name)) for name in ("qd_floor", "qd_init")},
}


def write_doc(tmp_path, keys, text):
    """DOC as a YAML file, the field at keys written as the YAML text `text`."""
    doc = node = copy.deepcopy(DOC)
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "VALUE"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc).replace("VALUE", text))
    return path


def run_cli(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("word, value", [
    ("yes", True), ("no", False), ("on", True), ("off", False), ("true", True), ("false", False),
])
@pytest.mark.parametrize("field", YAML_FIELDS)
def test_a_yaml_bool_is_not_a_number(tmp_path, capsys, field, word, value):
    text, keys = YAML_FIELDS[field]
    path = write_doc(tmp_path, keys, word)
    assert yaml.safe_load(path.read_text())    # the word is a YAML bool, not text
    rc, err = run_cli(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert (rc, err) == (1, f"config error: {field}: must be {text}, got {value}\n")


@pytest.mark.parametrize("field", YAML_FIELDS)
def test_a_number_written_as_yaml_text_loads_as_a_number(tmp_path, capsys, field):
    path = write_doc(tmp_path, YAML_FIELDS[field][1], "2e-1")
    assert run_cli(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path)]) == (0, "")


# a plant without unknown input: E has no columns, so there is no signal
NO_INPUT = replace(
    CASE, model=replace(CASE.model, E=np.zeros((CASE.model.n_x, 0))), signals=(), seeds=(1, 2, 3),
    estimators=("r4skf", "a2kf", "uio"),
)


def test_without_unknown_input_the_a2kf_is_the_r4skf():
    result = run_scenario(NO_INPUT)
    K, n_x = NO_INPUT.n_steps, NO_INPUT.model.n_x
    for seed in NO_INPUT.seeds:
        runs = result.runs[seed]
        assert runs["a2kf"].x_hat.shape == (K, n_x) and runs["a2kf"].d_hat.shape == (K, 0)
        assert runs["uio"].x_hat.shape == (K, n_x)
        # with no input to estimate, both are the same Kalman filter
        assert np.array_equal(runs["a2kf"].x_hat, runs["r4skf"].x_hat)


def test_an_a2kf_step_without_unknown_input():
    model = NO_INPUT.model
    state = a2kf.initial_state(model, np.ones(model.n_x))
    state, report = a2kf.a2kf_step(state, np.zeros(model.n_u), np.ones(model.n_y), model)
    rstate, _ = r4skf.step(r4skf.initial_state(model, np.ones(model.n_x)), np.zeros(model.n_u), np.ones(model.n_y), model)
    assert state.x_hat.shape == (model.n_x,) and state.d_hat.shape == (0,)
    assert np.array_equal(state.x_hat, rstate.x_hat) and np.array_equal(report.gamma, rstate.gamma)


@pytest.mark.parametrize("dt", ["5e-324", "1e-300"], ids=["beyond the floats", "beyond an array index"])
def test_a_step_count_no_array_can_index_is_a_config_error(capsys, dt):
    with pytest.raises(ConfigError, match=rf"^scenario\.duration: 1\.0 is more steps of dt = {dt} than an array of 56 bytes per step can hold$"):
        benchmark_case(1, dt=float(dt), duration=1.0)
    rc, err = run_cli(capsys, ["reproduce", "--case", "1", "--seeds", "1", "--dt", dt, "--duration", "1"])
    assert rc == 1 and err.startswith("config error: scenario.duration: ") and err.count("\n") == 1


def test_a_step_count_whose_arrays_numpy_cannot_size_is_a_config_error(capsys):
    """4e18 steps can be indexed, but 4e18 rows of 56 bytes (the truth's 4 process and 3 measurement
    noise draws per step) are more bytes than numpy sizes; numpy said "array is too big", naming no field."""
    rc, err = run_cli(capsys, ["reproduce", "--case", "1", "--dt", "0.01", "--duration", "4e16"])
    assert (rc, err) == (1, "config error: scenario.duration: 4e+16 is more steps of dt = 0.01 than an array of 56 bytes per step can hold\n")


def test_the_row_is_per_seed_and_a_callable_matrix_widens_it():
    case = benchmark_case(1, duration=1e15)         # 1e17 steps of 56 bytes: numpy can size them, for any seed count
    assert len(case.seeds) == 20
    A = case.model.A(0.0)
    with pytest.raises(ConfigError, match=r"^scenario\.duration: 1000000000000000\.0 is more steps of dt = 0\.01 than an array of 128 bytes per step can hold$"):
        replace(case, model=replace(case.model, A=lambda t: A))         # each A(t) of the truth is a row of 16 floats


def test_a_run_numpy_can_size_but_not_allocate_is_a_memory_config_error(capsys):
    """1e17 steps of 56 bytes pass the bound; the first array of the run, the sampled signals, is more than any
    address space holds, so numpy's MemoryError is raised at once, before any step runs."""
    rc, err = run_cli(capsys, ["reproduce", "--case", "1", "--seeds", "1", "--duration", "1e15"])
    assert (rc, err) == (1, "config error: Unable to allocate 1.39 EiB for an array with shape (100000000000000000, 2) and data type float64\n")


def test_a_run_too_large_for_memory_is_a_config_error(capsys, monkeypatch):
    def allocate(*args):
        raise MemoryError("Unable to allocate 1.39 EiB for an array with shape (100000000000000000, 2)")

    monkeypatch.setattr(sim, "sample_signals", allocate)
    rc, err = run_cli(capsys, ["reproduce", "--case", "1", "--seeds", "1", "--duration", "1e15"])
    assert (rc, err) == (1, "config error: Unable to allocate 1.39 EiB for an array with shape (100000000000000000, 2)\n")


@pytest.mark.parametrize("estimator, where", [
    ("r4skf", "step 1, all seeds (shared covariance sequence)"),
    # numpy raises for the whole seed stack, so no seed is named
    ("a2kf", "step 1"),
])
def test_a_linalg_error_names_the_estimator_and_the_step(monkeypatch, estimator, where):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(r4skf, "kalman_gain", fail)
    with pytest.raises(np.linalg.LinAlgError) as info:
        run_scenario(replace(CASE, estimators=(estimator,)))
    assert str(info.value) == f"{estimator}, {where}: Eigenvalues did not converge"
