import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uikf import checks, cli, config, r4skf, uio
from uikf.benchmark import benchmark_case
from uikf.errors import ConfigError, IllConditionedError

MINIMAL_DOC = {
    "schema": 1,
    "model": {
        "A": [[0.0, 1.0], [0.0, 0.0]],
        "B": [[0.0], [0.0]],
        "E": [[1.0], [0.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]],
        "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]],
        "dt": 0.01,
    },
    "scenario": {
        "duration": 1.0,
        "seeds": [1, 2],
        "x0_true": [0.0, 0.0],
        "x0_hat": [1.0, 1.0],
        "estimators": ["r4skf", "a2kf"],
        "signals": [{"kind": "step", "t_on": 0.2, "t_off": 0.8, "amplitude": 0.5}],
    },
}

SQUARE_DOC = {
    "schema": 1,
    "model": {
        "A": [[0.0, 1.0], [0.0, 0.0]],
        "B": [[0.0], [0.0]],
        "E": [[1.0, 0.0], [0.0, 1.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]],
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1.0e-4, 0.0], [0.0, 1.0e-4]],
        "R": [[1.0e-4, 0.0], [0.0, 1.0e-4]],
        "dt": 0.01,
    },
    "scenario": {
        "duration": 1.0,
        "seeds": [3],
        "x0_true": [0.0, 0.0],
        "x0_hat": [0.0, 0.0],
        "estimators": ["r4skf", "onestep"],
        "signals": [
            {"kind": "windowed_sine", "t_on": 0.1, "t_off": 0.9, "amplitude": 1.0, "f0": 2.0},
            {"kind": "zero"},
        ],
    },
}


def deep_update(doc, path, value):
    import copy

    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def write_doc(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestConfigParsing:
    def test_minimal_document_round_trip(self, tmp_path):
        cfg = config.load_scenario(write_doc(tmp_path, MINIMAL_DOC))
        assert cfg.model.n_x == 2 and cfg.model.n_d == 1
        assert cfg.duration == 1.0
        assert cfg.seeds == (1, 2)
        assert cfg.signals[0].kind == "step"

    def test_numbers_with_an_exponent_load_as_numbers(self, tmp_path):
        # PyYAML reads 1e-2, an exponent without a dot, as a string
        text = yaml.safe_dump(MINIMAL_DOC)
        raw = text.replace("dt: 0.01", "dt: 1e-2").replace("duration: 1.0", "duration: 1e0")
        assert raw != text and "1e-2" in raw and "1e0" in raw
        plain = config.load_scenario(write_doc(tmp_path, MINIMAL_DOC))
        path = tmp_path / "raw.yaml"
        path.write_text(raw)
        cfg = config.load_scenario(str(path))
        assert (cfg.model.dt, cfg.duration, cfg.n_steps) == (plain.model.dt, plain.duration, plain.n_steps) == (0.01, 1.0, 100)

    def test_missing_schema(self):
        doc = {k: v for k, v in MINIMAL_DOC.items() if k != "schema"}
        with pytest.raises(ConfigError, match="schema"):
            config.parse_scenario(doc)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="schema"):
            config.parse_scenario(deep_update(MINIMAL_DOC, ("schema",), 2))

    def test_missing_model_matrix_names_field(self):
        doc = deep_update(MINIMAL_DOC, ("model",), {
            k: v for k, v in MINIMAL_DOC["model"].items() if k != "E"
        })
        with pytest.raises(ConfigError, match="model.E"):
            config.parse_scenario(doc)

    def test_non_numeric_matrix_names_field(self):
        doc = deep_update(MINIMAL_DOC, ("model", "A"), [["x", 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="model.A"):
            config.parse_scenario(doc)

    def test_vector_where_matrix_expected(self):
        doc = deep_update(MINIMAL_DOC, ("model", "Q"), [1.0e-6, 1.0e-6])
        with pytest.raises(ConfigError, match="model.Q"):
            config.parse_scenario(doc)

    def test_bad_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            config.parse_scenario(deep_update(MINIMAL_DOC, ("model", "dt"), -0.01))

    def test_too_many_input_channels_names_model(self):
        # n_d > n_y violates the one-step invertibility requirement
        doc = deep_update(MINIMAL_DOC, ("model", "E"),
                          [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        doc = deep_update(doc, ("model", "C"), [[1.0, 0.0]])
        doc = deep_update(doc, ("model", "R"), [[1.0e-7]])
        with pytest.raises(ConfigError, match="model"):
            config.parse_scenario(doc)

    def test_bad_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            config.parse_scenario(deep_update(MINIMAL_DOC, ("scenario", "seeds"), []))
        with pytest.raises(ConfigError, match="seeds"):
            config.parse_scenario(
                deep_update(MINIMAL_DOC, ("scenario", "seeds"), ["one"])
            )

    def test_bad_signal_kind(self):
        doc = deep_update(MINIMAL_DOC, ("scenario", "signals"), [{"kind": "ramp"}])
        with pytest.raises(ConfigError, match=r"signals\[0\].kind"):
            config.parse_scenario(doc)

    def test_signal_count_mismatch(self):
        doc = deep_update(MINIMAL_DOC, ("scenario", "signals"),
                          [{"kind": "zero"}, {"kind": "zero"}])
        with pytest.raises(ConfigError, match="signals"):
            config.parse_scenario(doc)

    def test_uio_gain_shape_checked(self):
        doc = dict(MINIMAL_DOC)
        doc = deep_update(doc, ("uio",), {"gain": [[1.0], [0.0]]})
        with pytest.raises(ConfigError, match="uio.gain"):
            config.parse_scenario(doc)

    def test_a2kf_options(self):
        doc = deep_update(MINIMAL_DOC, ("a2kf",), {"window": 5, "qd_floor": 1e-10, "qd_init": 1e-5})
        cfg = config.parse_scenario(doc)
        assert (cfg.a2kf_config.window, cfg.a2kf_config.qd_floor, cfg.a2kf_config.qd_init) == (5, 1e-10, 1e-5)

    @pytest.mark.parametrize("key, value", [("negative_check", "pre"), ("rescale_by_dt", True)])
    def test_a_former_qd_switch_is_an_unknown_key(self, key, value):
        doc = deep_update(MINIMAL_DOC, ("a2kf",), {key: value})
        with pytest.raises(ConfigError, match=rf"^a2kf\.{key}: unknown key, expected one of window, qd_floor, qd_init$"):
            config.parse_scenario(doc)


class TestCliReproduce:
    def test_case1_short_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["reproduce", "--case", "1", "--out", str(out),
                       "--seeds", "7", "--duration", "0.5"])
        assert rc == 0
        assert (out / "case1_summary.csv").exists()
        assert (out / "case1_r4skf_timeseries.csv").exists()
        assert (out / "case1_a2kf_timeseries.csv").exists()
        printed = capsys.readouterr().out
        assert "r4skf" in printed and "a2kf" in printed

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["reproduce", "--case", "1", "--out", str(out),
                           "--seeds", "7", "--duration", "0.5"])
            assert rc == 0
            outs.append(out)
        for fname in ("case1_summary.csv", "case1_r4skf_timeseries.csv",
                      "case1_a2kf_timeseries.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_bad_seed_list_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "--case", "1", "--out", str(tmp_path),
                       "--seeds", "1,two"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("UIKF_OUT", str(out))
        rc = cli.main(["reproduce", "--case", "1", "--seeds", "7",
                       "--duration", "0.2"])
        assert rc == 0
        assert (out / "case1_summary.csv").exists()


class TestCliSimulate:
    def test_minimal_config_runs(self, tmp_path, capsys):
        path = write_doc(tmp_path, MINIMAL_DOC)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 0
        assert (out / "scenario_summary.csv").exists()
        assert (out / "scenario_r4skf_timeseries.csv").exists()

    def test_square_config_with_onestep(self, tmp_path):
        path = write_doc(tmp_path, SQUARE_DOC)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 0
        assert (out / "scenario_onestep_timeseries.csv").exists()

    def test_schema_violation_exits_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, deep_update(MINIMAL_DOC, ("schema",), 99))
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_yaml_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text("schema: 1\nmodel: [1, 2\n")
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: document: not valid YAML (") and err.count("\n") == 1

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--config", str(tmp_path / "none.yaml"),
                       "--out", str(tmp_path)])
        assert rc == 1

    def test_rank_deficient_plant_exits_2(self, tmp_path, capsys):
        # the input channel is invisible through the single output: rank(CE)=0
        doc = deep_update(MINIMAL_DOC, ("model", "C"), [[1.0, 0.0]])
        doc = deep_update(doc, ("model", "R"), [[1.0e-7]])
        doc = deep_update(doc, ("model", "E"), [[0.0], [1.0]])
        doc = deep_update(doc, ("scenario", "x0_true"), [0.0, 0.0])
        path = write_doc(tmp_path, doc)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "estimator failure" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        path = write_doc(tmp_path, MINIMAL_DOC)
        out1, out2 = tmp_path / "s5", tmp_path / "s5b"
        for out in (out1, out2):
            rc = cli.main(["simulate", "--config", path, "--out", str(out),
                           "--seeds", "5"])
            assert rc == 0
        a = (out1 / "scenario_r4skf_timeseries.csv").read_bytes()
        b = (out2 / "scenario_r4skf_timeseries.csv").read_bytes()
        assert a == b


class TestCliCheck:
    def test_properties_all_pass(self, capsys):
        assert cli.main(["check", "properties"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_stability_report_lists_models(self, capsys):
        assert cli.main(["check", "stability"]) == 0
        out = capsys.readouterr().out
        assert "rho(A_bar)" in out and "rho(A_tilde)" in out
        assert "benchmark" in out and "square" in out

    def test_stability_with_user_config(self, tmp_path, capsys):
        path = write_doc(tmp_path, MINIMAL_DOC)
        assert cli.main(["check", "stability", "--config", path]) == 0
        assert "user" in capsys.readouterr().out


class TestRejectedScenarios:
    def test_a2kf_window_below_one(self):
        doc = deep_update(MINIMAL_DOC, ("a2kf",), {"window": 0})
        with pytest.raises(ConfigError, match=r"a2kf\.window"):
            config.parse_scenario(doc)

    def test_custom_signal_shorter_than_run(self):
        doc = deep_update(MINIMAL_DOC, ("scenario", "signals"),
                          [{"kind": "custom", "samples": [1.0, 2.0]}])
        with pytest.raises(ConfigError, match=r"scenario\.signals\[0\]\.samples"):
            config.parse_scenario(doc)

    def test_simulate_with_duration_below_dt_exits_1(self, tmp_path, capsys):
        path = write_doc(tmp_path, deep_update(MINIMAL_DOC, ("scenario", "duration"), 0.004))
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "scenario.duration" in err


class TestNegativeSeed:
    """A negative seed is refused when the scenario is built, as a ConfigError
    naming scenario.seeds, from Python, from YAML and from --seeds, not later
    by numpy's default_rng inside run_scenario."""

    MESSAGE = r"^scenario\.seeds: must be a non-empty list of non-negative integers, got \[3, -1\]$"

    def test_from_python(self):
        with pytest.raises(ConfigError, match=self.MESSAGE):
            replace(benchmark_case(1), seeds=[3, -1])
        with pytest.raises(ConfigError, match=self.MESSAGE):
            benchmark_case(1, seeds=[3, -1])

    def test_from_yaml(self):
        with pytest.raises(ConfigError, match=self.MESSAGE):
            config.parse_scenario(deep_update(MINIMAL_DOC, ("scenario", "seeds"), [3, -1]))

    @pytest.mark.parametrize("route", ["reproduce --seeds", "simulate yaml", "simulate --seeds"])
    def test_from_the_command_line_exits_1_with_one_line(self, tmp_path, capsys, route):
        out = tmp_path / "out"
        argv = {
            "reproduce --seeds": ["reproduce", "--case", "1", "--seeds=3,-1", "--duration", "0.05"],
            "simulate yaml": ["simulate", "--config", write_doc(tmp_path, deep_update(MINIMAL_DOC, ("scenario", "seeds"), [3, -1]),
                                                                 "negative.yaml")],
            "simulate --seeds": ["simulate", "--config", write_doc(tmp_path, MINIMAL_DOC), "--seeds=3,-1"],
        }[route]
        assert cli.main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert re.match(self.MESSAGE, captured.err.removeprefix("config error: ").rstrip("\n"))
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()


class TestNonFiniteStepAndDuration:
    """A bad dt or duration exits 1 with a message that names the field, on
    every route, and never with a traceback."""

    @staticmethod
    def assert_config_error(capsys, field):
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_check_stability_with_bad_dt_exits_1(self, capsys, dt):
        assert cli.main(["check", "stability", "--dt", dt]) == 1
        self.assert_config_error(capsys, "model.dt")

    @pytest.mark.parametrize("option, value, field", [
        ("--duration", "inf", "scenario.duration"),
        ("--duration", "nan", "scenario.duration"),
        ("--dt", "nan", "model.dt"),
    ])
    def test_reproduce_with_non_finite_value_exits_1(self, tmp_path, capsys, option, value, field):
        assert cli.main(["reproduce", "--case", "1", "--out", str(tmp_path), option, value]) == 1
        self.assert_config_error(capsys, field)

    @pytest.mark.parametrize("path, value, field", [
        (("scenario", "duration"), float("inf"), "scenario.duration"),
        (("model", "dt"), float("nan"), "model.dt"),
        (("model", "dt"), float("inf"), "model.dt"),
    ])
    def test_simulate_with_non_finite_value_exits_1(self, tmp_path, capsys, path, value, field):
        config_path = write_doc(tmp_path, deep_update(MINIMAL_DOC, path, value))
        assert cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)]) == 1
        self.assert_config_error(capsys, field)

    def test_check_stability_estimator_failure_exits_2(self, capsys):
        assert cli.main(["check", "stability", "--dt", "1e10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("estimator failure: benchmark: ") and "Traceback" not in err


class TestFloatingPointFailure:
    """An overflow, invalid value or division by zero inside a filter run
    exits 2 with one line naming the estimator and the step, without a
    printed warning or a traceback."""

    @staticmethod
    def run_quietly(capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        err = capsys.readouterr().err
        assert caught == [] and "Traceback" not in err and err.count("\n") == 1, err
        return rc, err

    @pytest.mark.parametrize("dt", ["1e-300", "1e300"])
    def test_check_stability_with_extreme_dt_exits_2(self, capsys, dt):
        rc, err = self.run_quietly(capsys, ["check", "stability", "--dt", dt])
        assert rc == 2
        assert err.startswith("estimator failure: benchmark: r4skf, step 1: overflow encountered")

    def test_reproduce_with_extreme_dt_exits_2(self, tmp_path, capsys):
        argv = ["reproduce", "--case", "1", "--dt", "1e-300", "--duration", "1e-298", "--seeds", "1", "--out", str(tmp_path)]
        rc, err = self.run_quietly(capsys, argv)
        assert rc == 2
        assert err.startswith("estimator failure: r4skf, step 1: overflow encountered")

    def test_simulate_with_overflowing_rmse_exits_2(self, tmp_path, capsys):
        """The observer's estimates stay finite but are huge, so the RMSE overflows."""
        doc = deep_update(MINIMAL_DOC, ("scenario", "estimators"), ["uio"])
        doc = deep_update(deep_update(doc, ("model", "dt"), 1.0e-300), ("scenario", "duration"), 1.0e-298)
        argv = ["simulate", "--config", write_doc(tmp_path, doc), "--out", str(tmp_path)]
        rc, err = self.run_quietly(capsys, argv)
        assert rc == 2
        assert err == "estimator failure: uio, rmse: overflow encountered in square\n"

    def test_check_stability_names_the_step_of_a_singular_innovation_covariance(self, capsys):
        rc, err = self.run_quietly(capsys, ["check", "stability", "--dt", "1e10"])
        assert rc == 2
        assert err == ("estimator failure: benchmark: r4skf, step 2: "
                       "innovation covariance C P C^T + R is numerically singular\n")


class TestNamedStepFailure:
    """A failure of a property check's filter or observer exits 2 with one
    line naming the estimator and the 1-based step of that check's run."""

    @staticmethod
    def fail_on_call(monkeypatch, module, name, n, exc):
        real, calls = getattr(module, name), [0]

        def failing(*args):
            calls[0] += 1
            if calls[0] == n:
                raise exc
            return real(*args)

        monkeypatch.setattr(module, name, failing)

    # calls of each estimator before a check: gain irrelevance steps the filter
    # 500 times and then the observer 500 times; the dual form steps the filter
    # 100 times, one-step equivalence 500 times, the observer's square case the
    # observer 300 times, and its general case the filter and then the observer
    # 300 times each
    @pytest.mark.parametrize("module, name, call, estimator", [
        (r4skf, "step", 3, "r4skf"),
        (r4skf, "step", 503, "r4skf"),
        (r4skf, "step", 1103, "r4skf"),
        (uio, "observer_step", 3, "uio"),
        (uio, "observer_step", 503, "uio"),
        (uio, "observer_step", 803, "uio"),
    ])
    def test_check_properties_names_the_estimator_and_step(self, monkeypatch, capsys, module, name, call, estimator):
        self.fail_on_call(monkeypatch, module, name, call, IllConditionedError("S is singular"))
        assert cli.main(["check", "properties"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"estimator failure: {estimator}, step 3: S is singular\n"

    @pytest.mark.parametrize("module, name, estimator", [(r4skf, "step", "r4skf"), (uio, "observer_step", "uio")])
    def test_a_named_failure_keeps_its_type(self, monkeypatch, module, name, estimator):
        self.fail_on_call(monkeypatch, module, name, 1, FloatingPointError("overflow encountered in matmul"))
        with pytest.raises(FloatingPointError, match=rf"^{estimator}, step 1: overflow encountered in matmul$") as info:
            checks.run_property_checks()
        assert type(info.value.__cause__) is FloatingPointError
