import numpy as np
import pytest
import yaml

from uikf import cli, config
from uikf.errors import ConfigError

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
        doc = deep_update(MINIMAL_DOC, ("a2kf",),
                          {"window": 5, "rescale_by_dt": True, "negative_check": "pre"})
        cfg = config.parse_scenario(doc)
        assert cfg.a2kf_config.window == 5
        assert cfg.a2kf_config.rescale_by_dt is True
        assert cfg.a2kf_config.negative_check == "pre"

    def test_bad_negative_check(self):
        doc = deep_update(MINIMAL_DOC, ("a2kf",), {"negative_check": "maybe"})
        with pytest.raises(ConfigError, match="negative_check"):
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
