"""Each input failure has one owner. The dataclass that holds an array field
converts it, so a value numpy cannot convert gives the same
`<field>: not a numeric array (...)` whether it comes from Python or from
YAML; load_scenario reports an unreadable file as a config error; and
cli.main maps every failure, a bad command line included, to its exit code
and one stderr line."""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import benchmark, cli, config, sim
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.errors import ConfigError, DimensionError, IllConditionedError
from uikf.model import SystemModel
from uikf.sim import SignalSpec

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
