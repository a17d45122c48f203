"""Each input failure has one owner. The dataclass that holds an array field
converts it, so a value numpy cannot convert gives the same
`<field>: not a numeric array (...)` whether it comes from Python or from
YAML; load_scenario reports an unreadable file as a config error; and
cli.main maps every failure, a bad command line included, to its exit code
and one stderr line. The step functions and initial states refuse an
argument of the wrong shape with a DimensionError that names it."""

import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, benchmark, cdekf, cli, config, model, onestep, r4skf, sim, uio
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.errors import ConfigError, DimensionError, IllConditionedError
from uikf.model import SystemModel
from uikf.sim import SignalSpec

from test_cdekf import linear_nl_model

DOC = {
    "schema": 1,
    "model": {
        "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "E": [[1.0], [0.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]], "dt": 0.01,
    },
    "scenario": {
        "duration": 0.5, "seeds": [1], "x0_true": [0.0, 0.0], "x0_hat": [1.0, 1.0],
        "estimators": ["r4skf", "uio"],
        "signals": [{"kind": "custom", "samples": [0.5] * 50}],
    },
    "uio": {"gain": [[1.0, 0.0], [0.0, 1.0]]},
}
MATRICES = {name: np.array(value) for name, value in DOC["model"].items() if name != "dt"}
BAD = {"ragged": [[1.0], [1.0, 2.0]], "string": "abc"}


def numpy_message(value):
    try:
        np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"numpy converts {value!r}")


def yaml_message(tmp_path, section, key, value):
    """The message of load_scenario for DOC with doc[section][key] = value."""
    doc = {name: dict(part) if isinstance(part, dict) else part for name, part in DOC.items()}
    doc[section][key] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError) as info:
        config.load_scenario(path)
    return str(info.value)


def python_message(build):
    with pytest.raises(ConfigError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("name", MATRICES)
class TestModelMatrices:
    def test_a_constant_matrix(self, tmp_path, name, bad):
        message = python_message(lambda: SystemModel(**{**MATRICES, name: bad}, dt=0.01))
        assert message == f"model.{name}: not a numeric array ({numpy_message(bad)})"
        assert message == yaml_message(tmp_path, "model", name, bad)

    def test_the_value_at_0_of_a_callable_matrix(self, tmp_path, name, bad):
        message = python_message(lambda: SystemModel(**{**MATRICES, name: lambda _arg: bad}, dt=0.01))
        assert message == yaml_message(tmp_path, "model", name, bad)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("name", ["E", "G", "Q", "R"])
def test_a_nonlinear_model_matrix_reads_as_the_linear_one(tmp_path, name, bad):
    fields = dict(f=lambda x, u, t: x, h=lambda x: x, E=MATRICES["E"], G=MATRICES["G"],
                  Q=MATRICES["Q"], R=MATRICES["R"], dt=0.01)
    message = python_message(lambda: NonlinearModel(**{**fields, name: bad}))
    assert message == yaml_message(tmp_path, "model", name, bad)


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_signal_samples(tmp_path, bad):
    message = python_message(lambda: SignalSpec(kind="custom", samples=bad))
    assert message == f"samples: not a numeric array ({numpy_message(bad)})"
    signals = [{"kind": "custom", "samples": bad}]
    assert yaml_message(tmp_path, "scenario", "signals", signals) == f"scenario.signals[0].{message}"


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("name, section, key", [
    ("x0_true", "scenario", "x0_true"), ("x0_hat", "scenario", "x0_hat"), ("uio_gain", "uio", "gain"),
])
def test_scenario_arrays(tmp_path, name, section, key, bad):
    message = python_message(lambda: replace(benchmark_case(1), **{name: bad}))
    assert message == f"{section}.{key}: not a numeric array ({numpy_message(bad)})"
    assert message == yaml_message(tmp_path, section, key, bad)


def test_a_string_array_is_a_config_error_not_a_type_error():
    message = python_message(lambda: replace(benchmark_case(1), x0_true=np.array(["a", "b", "c", "d"])))
    assert message.startswith("scenario.x0_true: not a numeric array (could not convert string to float")


def test_scenario_arrays_are_read_only_float_copies():
    x0_true, gain = np.zeros(4, dtype=int), np.zeros((4, 3))
    cfg = replace(benchmark_case(1), x0_true=x0_true, uio_gain=gain)
    gain[0, 0] = 1.0
    assert cfg.uio_gain[0, 0] == 0.0
    for value in (cfg.x0_true, cfg.x0_hat, cfg.uio_gain):
        assert value.dtype == float and not value.flags.writeable


def test_a_missing_initial_state_is_still_a_shape_error():
    message = python_message(lambda: replace(benchmark_case(1), x0_true=None))
    assert message == "scenario.x0_true: expected 4 values, got shape ()"


def test_an_unreadable_config_file_is_a_config_error(tmp_path):
    for path in (tmp_path / "none.yaml", tmp_path):
        with pytest.raises(ConfigError) as info:
            config.load_scenario(path)
        assert str(path) in str(info.value)


class TestCommandLine:
    @staticmethod
    def run(capsys, argv):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "usage" not in err, err
        return rc, err

    @pytest.mark.parametrize("argv, words", [
        (["reproduce", "--case", "4"], "argument --case: invalid choice: "),
        (["check"], "the following arguments are required: suite"),
        (["simulate", "--config", "x.yaml", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["check", "stability", "--dt", "fast"], "argument --dt: invalid float value: 'fast'"),
        (["reconcile"], "argument command: invalid choice: 'reconcile'"),
        # each suite takes only its own flags
        (["check", "properties", "--dt", "0.5", "--config", "/nonexistent.yaml"],
         "unrecognized arguments: --dt 0.5 --config /nonexistent.yaml"),
    ])
    def test_a_bad_command_line_is_one_config_error_line(self, capsys, argv, words):
        rc, err = self.run(capsys, argv)
        assert rc == 1 and err.startswith(f"config error: {words}")

    def test_help_exits_0_and_lists_only_the_suites_own_flags(self, capsys):
        for suite, flags in (("properties", False), ("stability", True)):
            with pytest.raises(SystemExit) as info:
                cli.main(["check", suite, "--help"])
            assert info.value.code == 0
            out = capsys.readouterr().out
            assert ("--dt" in out and "--config" in out) is flags

    # a failure of each row of cli.FAILURES, raised where no command handler
    # of its own maps it to that code
    @pytest.mark.parametrize("module, name, exc, rc, prefix", [
        (benchmark, "benchmark_case", np.linalg.LinAlgError("SVD did not converge"), 2, "estimator failure: "),
        (benchmark, "benchmark_case", IllConditionedError("S is singular"), 2, "estimator failure: "),
        (sim, "run_scenario", DimensionError("model.C, step 3: shape (2, 4)"), 1, "config error: "),
        (sim, "run_scenario", OSError("disk gone"), 3, "i/o failure: "),
    ], ids=["LinAlgError", "IllConditionedError", "DimensionError", "OSError"])
    def test_each_failure_maps_to_its_code(self, capsys, monkeypatch, module, name, exc, rc, prefix):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, name, fail)
        assert self.run(capsys, ["reproduce", "--case", "1"]) == (rc, f"{prefix}{exc}\n")


@pytest.mark.parametrize("name, value", [("f", None), ("h", "h"), ("F", 1.0), ("H", np.eye(2))])
def test_nonlinear_model_functions_must_be_callable(name, value):
    fields = dict(f=lambda x, u, t: x, h=lambda x: x, E=MATRICES["E"], G=MATRICES["G"],
                  Q=MATRICES["Q"], R=MATRICES["R"], dt=0.01)
    message = python_message(lambda: NonlinearModel(**{**fields, name: value}))
    assert message == f"model.{name}: must be callable, got {type(value).__name__}"


# a complex ndarray used to lose its imaginary part with a ComplexWarning
COMPLEX = {
    "ndarray": lambda real: real + 2j,
    "zero imaginary part": lambda real: real.astype(complex),
    "list": lambda real: (real + 2j).tolist(),
}
REFUSED = "not a numeric array (complex values are not allowed)"


@pytest.mark.parametrize("make", COMPLEX.values(), ids=COMPLEX.keys())
def test_a_complex_model_matrix(make):
    assert python_message(lambda: SystemModel(**{**MATRICES, "A": make(MATRICES["A"])}, dt=0.01)) == f"model.A: {REFUSED}"


@pytest.mark.parametrize("make", COMPLEX.values(), ids=COMPLEX.keys())
def test_a_complex_initial_estimate(make):
    bad = make(np.zeros(4))
    assert python_message(lambda: replace(benchmark_case(1), x0_hat=bad)) == f"scenario.x0_hat: {REFUSED}"


@pytest.mark.parametrize("make", COMPLEX.values(), ids=COMPLEX.keys())
def test_complex_signal_samples(make):
    assert python_message(lambda: SignalSpec(kind="custom", samples=make(np.zeros(50)))) == f"samples: {REFUSED}"


def with_first(real, value):
    """real as an object ndarray whose first entry is value"""
    out = real.astype(object)
    out.flat[0] = value
    return out


# numpy reads a bool as 1.0 or 0.0, and upcasts one beside floats in a list
# without a word; an array field refuses it as the scalar fields do
BOOLS = {
    "bool ndarray": lambda real: real != 0.0,
    "object ndarray": lambda real: with_first(real, True),
    "list beside floats": lambda real: with_first(real, True).tolist(),
    "numpy bool in a list": lambda real: with_first(real, np.False_).tolist(),
}
NOT_A_NUMBER = "not a numeric array (bool values are not allowed)"


@pytest.mark.parametrize("make", BOOLS.values(), ids=BOOLS.keys())
@pytest.mark.parametrize("name", MATRICES)
def test_a_bool_model_matrix(make, name):
    bad = make(MATRICES[name].astype(float))
    assert python_message(lambda: SystemModel(**{**MATRICES, name: bad}, dt=0.01)) == f"model.{name}: {NOT_A_NUMBER}"
    assert python_message(lambda: SystemModel(**{**MATRICES, name: lambda _arg: bad}, dt=0.01)) == f"model.{name}: {NOT_A_NUMBER}"


@pytest.mark.parametrize("make", BOOLS.values(), ids=BOOLS.keys())
@pytest.mark.parametrize("name, section, key, shape", [
    ("x0_true", "scenario", "x0_true", (4,)), ("x0_hat", "scenario", "x0_hat", (4,)), ("uio_gain", "uio", "gain", (4, 3)),
])
def test_a_bool_scenario_array(make, name, section, key, shape):
    bad = make(np.ones(shape))
    assert python_message(lambda: replace(benchmark_case(1), **{name: bad})) == f"{section}.{key}: {NOT_A_NUMBER}"


@pytest.mark.parametrize("make", BOOLS.values(), ids=BOOLS.keys())
def test_bool_signal_samples(make):
    bad = make(np.full(50, 0.5))
    assert python_message(lambda: SignalSpec(kind="custom", samples=bad)) == f"samples: {NOT_A_NUMBER}"


@pytest.mark.parametrize("bad", [True, np.True_, [True, False], [[False]]])
def test_a_bare_bool_is_not_a_numeric_array(bad):
    assert python_message(lambda: model.read_only(bad, "model.A")) == f"model.A: {NOT_A_NUMBER}"


def yaml_text(tmp_path, section, key, text):
    """A copy of DOC written to a file with doc[section][key] given as YAML text."""
    doc = {name: dict(part) if isinstance(part, dict) else part for name, part in DOC.items()}
    doc[section][key] = "TEXT"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc).replace("TEXT", text))
    return path


# YAML 1.1 reads yes, no, on, off, true and false as bools
@pytest.mark.parametrize("section, key, text, field", [
    ("scenario", "x0_hat", "[yes, off]", "scenario.x0_hat"),
    ("scenario", "x0_true", "[0.0, true]", "scenario.x0_true"),
    ("model", "A", "[[0.0, on], [0.0, 0.0]]", "model.A"),
    ("model", "C", "[[yes, no], [no, yes]]", "model.C"),
    ("uio", "gain", "[[1.0, false], [0.0, 1.0]]", "uio.gain"),
    ("scenario", "signals", f"[{{kind: custom, samples: [{'0.5, ' * 49}on]}}]", "scenario.signals[0].samples"),
])
def test_a_yaml_bool_in_an_array_field(tmp_path, section, key, text, field):
    with pytest.raises(ConfigError) as info:
        config.load_scenario(yaml_text(tmp_path, section, key, text))
    assert str(info.value) == f"{field}: {NOT_A_NUMBER}"


def test_a_yaml_bool_array_field_exits_1_with_one_line(tmp_path, capsys):
    path = yaml_text(tmp_path, "scenario", "x0_hat", "[yes, off]")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"config error: scenario.x0_hat: {NOT_A_NUMBER}\n"


def _step_inputs():
    """The benchmark plant (n_x 4, n_u 2, n_d 2, n_y 3), x0, u, y and an r4skf
    initial state."""
    model = benchmark.benchmark_model()
    x0, u, y = np.zeros(4), np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    return model, x0, u, y, r4skf.initial_state(model, x0)


@pytest.mark.parametrize("name, call", [
    ("y", lambda m, x0, u, y, s: r4skf.step(s, u, y[:2], m)),
    ("y", lambda m, x0, u, y, s: r4skf.advance(replace(s, x_hat=np.zeros((5, 4))), np.zeros((5, m.n_u)), np.zeros((5, 2)), r4skf.step_terms(m, 0))),
    ("y", lambda m, x0, u, y, s: a2kf.a2kf_step(a2kf.initial_state(m, x0), u, np.append(y, 0.0), m)),
    ("y", lambda m, x0, u, y, s: uio.observer_step(uio.initial_observer_state(x0, 2), y[0], u, r4skf.step_terms(m, 0).dm, m.C(1), np.zeros((4, 3)))),
    ("L", lambda m, x0, u, y, s: uio.observer_step(uio.initial_observer_state(x0, 2), y, u, r4skf.step_terms(m, 0).dm, m.C(1), np.eye(3))),
    ("y", lambda m, x0, u, y, s: cdekf.cd_four_step(s, u, y[:2], linear_nl_model(m))),
    ("x0_hat", lambda m, x0, u, y, s: r4skf.initial_state(m, x0[:3])),
    ("P0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, P0=np.eye(3))),
    ("Pd0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, Pd0=np.eye(3))),
    ("x0_hat", lambda m, x0, u, y, s: a2kf.initial_state(m, np.zeros(5))),
    ("P0", lambda m, x0, u, y, s: a2kf.initial_state(m, x0, P0=np.ones(4))),
    ("u", lambda m, x0, u, y, s: r4skf.step(s, 0.0, y, m)),
    ("x_hat", lambda m, x0, u, y, s: r4skf.advance(replace(s, x_hat=np.array(0.0)), u, y, r4skf.step_terms(m, 0))),
    ("u", lambda m, x0, u, y, s: a2kf.a2kf_step(a2kf.initial_state(m, x0), np.zeros(3), y, m)),
    ("x_hat", lambda m, x0, u, y, s: cdekf.cd_four_step(replace(s, x_hat=np.zeros(3)), u, y, linear_nl_model(m))),
    ("u", lambda m, x0, u, y, s: cdekf.cd_four_step(s, 0.0, y, linear_nl_model(m))),
    ("y", lambda m, x0, u, y, s: onestep.one_step_estimate(y[:2], np.eye(3))),
    # the one-step estimate reads one square C: a C with more columns than rows, or a stack of them, is refused
    ("C", lambda m, x0, u, y, s: onestep.one_step_estimate(y, np.eye(3, 4))),
    ("C", lambda m, x0, u, y, s: onestep.one_step_estimate(y, np.stack([np.eye(3)] * 3))),
    # an initial state is one seed's value; the runners stack it
    ("x0_hat", lambda m, x0, u, y, s: r4skf.initial_state(m, np.zeros((3, 4)))),
    ("P0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, P0=np.zeros((3, 4, 4)))),
    ("Pd0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, Pd0=np.zeros((3, 2, 2)))),
    ("P0", lambda m, x0, u, y, s: a2kf.initial_state(m, x0, P0=np.zeros((3, 4, 4)))),
    # the covariance a step reads: the r4skf's P is shared by the seeds, the a2kf's P_a is per seed
    ("P", lambda m, x0, u, y, s: r4skf.step(replace(s, P=np.eye(3)), u, y, m)),
    ("P", lambda m, x0, u, y, s: r4skf.advance(replace(s, P=np.zeros((2, 4, 4))), u, y, r4skf.step_terms(m, 0))),
    ("P", lambda m, x0, u, y, s: cdekf.cd_four_step(replace(s, P=np.eye(3)), u, y, linear_nl_model(m))),
    ("P_a", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), P_a=np.eye(5)), u, y, m)),
    # the a2kf's x_a is (..., n_a) and P_a carries its leading axes: a stacked P_a
    # beside one x_a used to turn the state into a stack
    ("x_a", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), x_a=np.zeros(5)), u, y, m)),
    ("x_a", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), x_a=np.array(0.0)), u, y, m)),
    ("P_a", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), P_a=np.stack([np.eye(6)] * 3)), u, y, m)),
    ("P_a", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), x_a=np.zeros((3, 6))), u, y, m)),
    # Q^d and the innovation window carry the leading axes of x_a too
    ("Qd_hat", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), Qd_hat=np.eye(3)), u, y, m)),
    ("Qd_hat", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), Qd_hat=np.stack([np.eye(2)] * 3)), u, y, m)),
    ("innov_window", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), innov_window=np.zeros((0, 2))), u, y, m)),
    ("innov_window", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), innov_window=np.zeros((3, 0, 3))), u, y, m)),
    ("innov_window", lambda m, x0, u, y, s: a2kf.a2kf_step(replace(a2kf.initial_state(m, x0), innov_window=np.zeros(3)), u, y, m)),
], ids=["r4skf.step y", "r4skf.advance stacked y", "a2kf_step y", "observer_step y",
        "observer_step L", "cd_four_step y", "r4skf x0_hat", "r4skf P0", "r4skf Pd0", "a2kf x0_hat", "a2kf P0",
        "r4skf.step 0-d u", "r4skf.advance 0-d x_hat", "a2kf_step u", "cd_four_step x_hat", "cd_four_step 0-d u",
        "one_step_estimate y", "one_step_estimate C", "one_step_estimate stacked C",
        "r4skf stacked x0_hat", "r4skf stacked P0", "r4skf stacked Pd0", "a2kf stacked P0",
        "r4skf.step P", "r4skf.advance stacked P", "cd_four_step P", "a2kf_step P_a",
        "a2kf_step x_a", "a2kf_step 0-d x_a", "a2kf_step stacked P_a", "a2kf_step stacked x_a",
        "a2kf_step Qd_hat", "a2kf_step stacked Qd_hat", "a2kf_step innov_window", "a2kf_step stacked innov_window",
        "a2kf_step 1-d innov_window"])
def test_an_argument_of_the_wrong_shape_is_a_dimension_error_naming_it(name, call):
    with pytest.raises(DimensionError, match=f"^{re.escape(name)}: shape "):
        call(*_step_inputs())


@pytest.mark.parametrize("name, bad", [(name, lambda M0: M0[:1]) for name in "ABEGQCR"] + [("A", lambda M0: M0[0])],
                         ids=list("ABEGQCR") + ["A vector"])
def test_a_later_model_value_of_the_wrong_shape_is_refused_by_the_step_as_by_the_truth(name, bad):
    """A, B, E, G and Q are read at t = dt for step 2 and C and R at k = 1 for
    step 1; r4skf.step refuses a changed shape with the error that the truth
    simulator refuses it with, instead of broadcasting it or failing in numpy."""
    cfg = benchmark_case(1, duration=0.05, seeds=(1,), estimators=("r4skf",))
    M0 = getattr(cfg.model, name)(0)
    model = replace(cfg.model, **{name: lambda arg: M0 if arg == 0 else bad(M0)})
    with pytest.raises(DimensionError) as truth:
        sim.run_scenario(replace(cfg, model=model))
    state, y = r4skf.initial_state(model, np.zeros(4)), np.zeros(3)
    with pytest.raises(DimensionError) as step:
        for _ in range(2):
            state, _ = r4skf.step(state, np.zeros(2), y, model)
    assert str(step.value) == str(truth.value)
    assert str(step.value).startswith(f"model.{name}, step {1 if name in 'CR' else 2}: shape ")


# a later value that read_only refuses; numpy used to read a bool as 1.0 or 0.0,
# drop an imaginary part with a ComplexWarning, or fail on text in its own words
NOT_NUMERIC = {
    "bool": (lambda M0: M0 != 0, "bool values are not allowed"),
    "complex": (lambda M0: M0 + 1j, "complex values are not allowed"),
    "text": (lambda M0: "abc", "could not convert string to float: 'abc'"),
}


@pytest.mark.parametrize("kind", NOT_NUMERIC)
@pytest.mark.parametrize("name", "ABEGQCR")
def test_a_later_model_value_that_is_not_numeric_is_refused_with_one_text(name, kind):
    """The matrix itself refuses the value, so the filter steps, run_scenario
    and the truth simulator give one ConfigError naming the matrix and step."""
    make, reason = NOT_NUMERIC[kind]
    cfg = benchmark_case(1, duration=0.05, seeds=(1,), estimators=("r4skf", "a2kf"))
    M0 = getattr(cfg.model, name)(0)
    model = replace(cfg.model, **{name: lambda arg: M0 if arg == 0 else make(M0)})
    u, y, x0 = np.zeros(2), np.zeros(3), np.zeros(4)

    def steps(step, state):
        for _ in range(2):
            state, _ = step(state, u, y, model)

    runs = [
        lambda: steps(r4skf.step, r4skf.initial_state(model, x0)),
        lambda: steps(a2kf.a2kf_step, a2kf.initial_state(model, x0)),
        lambda: sim.run_scenario(replace(cfg, model=model)),
        lambda: sim.simulate(model, x0, np.zeros((5, 2)), [np.random.default_rng(1)]),
    ]
    want = f"model.{name}, step {1 if name in 'CR' else 2}: not a numeric array ({reason})"
    assert [python_message(run) for run in runs] == [want] * 4


def test_a_callable_matrix_returns_a_float_array_of_its_shape_as_it_is_and_is_wrapped_once():
    model = benchmark.benchmark_model()
    values = [np.array(model.C(0)) for _ in range(3)]

    def C(k):
        return values[k]

    varying = replace(model, C=C)
    assert all(varying.C(k) is values[k] for k in range(3))
    assert replace(varying, dt=0.02).C.fn is C                 # not the wrapper of a wrapper
    ints = replace(model, C=lambda k: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    assert ints.C(4).dtype == float and np.array_equal(ints.C(4), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])


def test_a_step_numbers_the_t_matrices_with_the_dt_of_its_model():
    model = benchmark.benchmark_model()
    A0 = model.A(0.0)
    bad = replace(model, A=lambda t: A0 if t < 0.035 else A0[:1])
    for dt, step in ((0.01, 5), (0.005, 8)):
        with pytest.raises(DimensionError, match=rf"^model\.A, step {step}: shape \(1, 4\), but \(4, 4\) at 0$"):
            sim.simulate(replace(bad, dt=dt), np.zeros(4), np.zeros((10, 2)), [np.random.default_rng(1)])


def from_second_call(fn, cut):
    """fn, whose values from its second call on keep only their first `cut` entries."""
    calls = []

    def call(*args):
        calls.append(1)
        return fn(*args) if len(calls) == 1 else fn(*args)[:cut]
    return call


# a value of the wrong shape used to broadcast into a wrong estimate (f, F) or to
# surface as a RankConditionError (h, H); a differenced Jacobian's function is
# named; with F and H given, f is called once per RK4 stage and h at x* and x_pred
CD_FAULTS = {
    "f": ("f", lambda nl: dict(f=lambda x, u, t: nl.f(x, u, t)[:1])),
    "F": ("F", lambda nl: dict(F=lambda x, u, t: nl.F(x, u, t)[:1, :1])),
    "h": ("h", lambda nl: dict(h=lambda x: nl.h(x)[:1])),
    "H": ("H", lambda nl: dict(H=lambda x: nl.H(x)[:1])),
    "f differenced": ("f", lambda nl: dict(f=lambda x, u, t: nl.f(x, u, t)[:1], F=None)),
    "h differenced": ("h", lambda nl: dict(h=lambda x: nl.h(x)[:1], H=None)),
    "f at the second stage": ("f", lambda nl: dict(f=from_second_call(nl.f, 1))),
    "h at x_pred": ("h", lambda nl: dict(h=from_second_call(nl.h, 2))),
}


@pytest.mark.parametrize("fault, method", [(fault, method) for fault in CD_FAULTS for method in ("euler", "rk4")
                                           if (fault, method) != ("f at the second stage", "euler")])
def test_a_model_function_value_of_the_wrong_shape_is_a_dimension_error_naming_it(fault, method):
    name, change = CD_FAULTS[fault]
    model, x0, u, y, state = _step_inputs()
    nl = linear_nl_model(model)
    with pytest.raises(DimensionError, match=rf"^model\.{name}: shape \("):
        cdekf.cd_four_step(state, u, y, replace(nl, **change(nl)), method=method)
