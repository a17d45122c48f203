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

from uikf import a2kf, benchmark, cdekf, cli, config, r4skf, sim, uio
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


def _step_inputs():
    """The benchmark plant (n_x 4, n_u 2, n_d 2, n_y 3), x0, u, y and an r4skf
    initial state."""
    model = benchmark.benchmark_model()
    x0, u, y = np.zeros(4), np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    return model, x0, u, y, r4skf.initial_state(model, x0)


@pytest.mark.parametrize("name, call", [
    ("y", lambda m, x0, u, y, s: r4skf.step(s, u, y[:2], m)),
    ("y", lambda m, x0, u, y, s: r4skf.advance(replace(s, x_hat=np.zeros((5, 4))), np.zeros((5, m.n_u)), np.zeros((5, 2)), r4skf.step_terms(m, 0))),
    ("gain (gain_override or L)", lambda m, x0, u, y, s: r4skf.step(s, u, y, m, gain_override=np.zeros((4, 2)))),
    ("y", lambda m, x0, u, y, s: a2kf.a2kf_step(a2kf.initial_state(m, x0), u, np.append(y, 0.0), m)),
    ("y", lambda m, x0, u, y, s: uio.observer_step(uio.initial_observer_state(x0, 2), y[0], u, r4skf.step_terms(m, 0).dm, m.C(1), np.zeros((4, 3)))),
    ("gain (gain_override or L)", lambda m, x0, u, y, s: uio.observer_step(uio.initial_observer_state(x0, 2), y, u, r4skf.step_terms(m, 0).dm, m.C(1), np.eye(3))),
    ("y", lambda m, x0, u, y, s: cdekf.cd_four_step(s, u, y[:2], linear_nl_model(m))),
    ("x0_hat", lambda m, x0, u, y, s: r4skf.initial_state(m, x0[:3])),
    ("P0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, P0=np.eye(3))),
    ("Pd0", lambda m, x0, u, y, s: r4skf.initial_state(m, x0, Pd0=np.eye(3))),
    ("x0_hat", lambda m, x0, u, y, s: a2kf.initial_state(m, np.zeros(5))),
    ("P0", lambda m, x0, u, y, s: a2kf.initial_state(m, x0, P0=np.ones(4))),
], ids=["r4skf.step y", "r4skf.advance stacked y", "r4skf.step gain_override", "a2kf_step y", "observer_step y",
        "observer_step L", "cd_four_step y", "r4skf x0_hat", "r4skf P0", "r4skf Pd0", "a2kf x0_hat", "a2kf P0"])
def test_an_argument_of_the_wrong_shape_is_a_dimension_error_naming_it(name, call):
    with pytest.raises(DimensionError, match=f"^{re.escape(name)}: shape "):
        call(*_step_inputs())
