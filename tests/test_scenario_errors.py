"""Bad scenarios fail fast: wrong initial-state lengths, non-finite or
out-of-range scenario values and non-finite model matrices are config errors
naming the field, and estimator errors raised
inside run_scenario keep their type while naming the estimator, the seed and
the 1-based step."""

import copy
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from uikf import checks, cli, r4skf
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.errors import ConfigError, DimensionError, IllConditionedError, RankConditionError
from uikf.model import SystemModel
from uikf.sim import ScenarioConfig, SignalSpec, run_scenario

DOC = {
    "schema": 1,
    "model": {
        "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "E": [[1.0], [0.0]],
        "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
        "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]], "dt": 0.01,
    },
    "scenario": {
        "duration": 0.5, "seeds": [1], "x0_true": [0.0, 0.0], "x0_hat": [1.0, 1.0],
        "signals": [{"kind": "step", "t_on": 0.1, "t_off": 0.3, "amplitude": 0.5}],
    },
}


@pytest.mark.parametrize("field, value", [("x0_true", [1.0]), ("x0_hat", [1.0, 1.0, 1.0])])
def test_initial_state_of_wrong_length_exits_1(tmp_path, capsys, field, value):
    doc = copy.deepcopy(DOC)
    doc["scenario"][field] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"scenario.{field}" in err and "Traceback" not in err


def scenario(C, E, R, estimators, time_invariant=True):
    mats = dict(A=np.zeros((2, 2)), B=np.zeros((2, 1)), E=E, G=np.eye(2), C=C, Q=1e-6 * np.eye(2), R=R)
    if not time_invariant:
        mats = {n: (lambda _arg, M=M: M) for n, M in mats.items()}
    return ScenarioConfig(
        model=SystemModel(dt=0.01, **mats), signals=(SignalSpec(),), duration=0.1, seeds=(7,),
        x0_true=np.zeros(2), x0_hat=np.ones(2), estimators=estimators,
    )


# both outputs see the first state only and are almost noise-free: S is singular at step 1
SINGULAR_S = dict(C=np.array([[1.0, 0.0], [1.0, 0.0]]), E=np.array([[1.0], [0.0]]), R=1e-20 * np.eye(2))
# the unknown input drives the second state, which the single output does not see
RANK_DEFICIENT = dict(C=np.array([[1.0, 0.0]]), E=np.array([[0.0], [1.0]]), R=np.array([[1e-7]]))


@pytest.mark.parametrize(
    "plant, error, estimators, time_invariant, where",
    [
        (SINGULAR_S, IllConditionedError, ("r4skf",), True, "r4skf, step 1, all seeds"),
        (SINGULAR_S, IllConditionedError, ("r4skf",), False, "r4skf, step 1, all seeds"),
        (SINGULAR_S, IllConditionedError, ("a2kf",), True, "a2kf, seed 7, step 1"),
        (RANK_DEFICIENT, RankConditionError, ("r4skf",), True, "r4skf, step 1, all seeds"),
        (RANK_DEFICIENT, RankConditionError, ("r4skf",), False, "r4skf, step 1, all seeds"),
        (RANK_DEFICIENT, RankConditionError, ("uio",), True, "uio, seed 7, step 1"),
        # the a2kf reads the rank-checked F_d of the step terms
        (RANK_DEFICIENT, RankConditionError, ("a2kf",), True, "a2kf, seed 7, step 1"),
        (RANK_DEFICIENT, RankConditionError, ("a2kf",), False, "a2kf, seed 7, step 1"),
    ],
)
def test_estimator_errors_name_estimator_seed_and_step(plant, error, estimators, time_invariant, where):
    with pytest.raises(error, match=where):
        run_scenario(scenario(estimators=estimators, time_invariant=time_invariant, **plant))


# from step 6 on, both outputs see the first state only and are almost noise-free
LATE_SINGULAR_S = dict(
    C=lambda k: np.eye(2) if k < 6 else SINGULAR_S["C"], E=SINGULAR_S["E"], R=lambda k: (1e-7 if k < 6 else 1e-30) * np.eye(2)
)


@pytest.mark.parametrize(
    "plant, estimators, error, where",
    [
        # the observer's huge gain overflows at step 2, before the r4skf's S turns singular
        # at step 6, though the r4skf comes first in config order
        (LATE_SINGULAR_S, ("r4skf", "uio"), FloatingPointError, "uio, step 2: overflow"),
        (LATE_SINGULAR_S, ("r4skf",), IllConditionedError, "r4skf, step 6, all seeds"),
        # a failure of the step terms is a tie at its step: the first estimator reports it
        (RANK_DEFICIENT, ("r4skf", "uio"), RankConditionError, "r4skf, step 1, all seeds"),
        (RANK_DEFICIENT, ("uio", "r4skf"), RankConditionError, "uio, seed 7, step 1"),
    ],
)
def test_the_earliest_failing_step_over_all_estimators_is_reported(plant, estimators, error, where):
    cfg = scenario(estimators=estimators, **plant)
    if plant is LATE_SINGULAR_S:
        cfg = replace(cfg, uio_gain=1e160 * np.ones((2, 2)))
    with pytest.raises(error, match=rf"^{where}"):
        run_scenario(cfg)


NAN = float("nan")


@pytest.mark.parametrize(
    "section, key, value, field",
    [
        ("uio", "gain", [[NAN, 0.0], [0.0, 1.0]], "uio.gain"),
        ("scenario", "rmse_skip", -0.05, "scenario.rmse_skip"),
        ("scenario", "rmse_skip", NAN, "scenario.rmse_skip"),
        ("scenario", "x0_hat", [NAN, 0.0], "scenario.x0_hat"),
        ("scenario", "x0_true", [NAN, 0.0], "scenario.x0_true"),
        ("a2kf", "qd_floor", NAN, "a2kf.qd_floor"),
        ("a2kf", "qd_floor", -1.0, "a2kf.qd_floor"),
        ("a2kf", "qd_init", -1.0, "a2kf.qd_init"),
    ],
)
def test_a_bad_scenario_value_exits_1_naming_the_field(tmp_path, capsys, section, key, value, field):
    doc = copy.deepcopy(DOC)
    doc["scenario"]["estimators"] = ["r4skf", "a2kf", "uio"]
    doc.setdefault(section, {})[key] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "keys, value, field, what",
    [
        # each field is converted under its own name: no traceback, no "scenario: could
        # not convert ...", no window truncated to 2 and no 2-D samples counted as 1
        (("scenario", "signals", 0, "t_on"), "abc", "scenario.signals[0].t_on", "not a number"),
        (("scenario", "signals", 0), {"kind": "custom", "samples": "abc"}, "scenario.signals[0].samples", "not a numeric array"),
        (("scenario", "signals", 0), {"kind": "custom", "samples": [[0.0] * 50]}, "scenario.signals[0].samples", "expected a flat array"),
        (("scenario", "signals", 0), 3, "scenario.signals[0]", "must be a mapping"),
        (("scenario", "rmse_skip"), "abc", "scenario.rmse_skip", "not a number"),
        (("a2kf",), {"window": "abc"}, "a2kf.window", "must be an integer"),
        (("a2kf",), {"window": 2.7}, "a2kf.window", "must be an integer"),
        (("a2kf",), {"qd_floor": "abc"}, "a2kf.qd_floor", "not a number"),
        (("a2kf",), 3, "a2kf", "must be a mapping"),
        (("model",), 3, "model", "must be a mapping"),
        (("scenario",), 3, "scenario", "must be a mapping"),
        (("uio",), 3, "uio", "must be a mapping"),
        # a scalar where a list belongs is not read as a tuple of characters
        (("scenario", "seeds"), 5, "scenario.seeds", "must be a list"),
        (("scenario", "estimators"), "r4skf", "scenario.estimators", "must be a list"),
        (("scenario", "signals"), 3, "scenario.signals", "must be a list"),
        # the dataclasses refuse these, also when built in Python
        (("scenario", "signals", 0), {"kind": "ramp"}, "scenario.signals[0].kind", "unknown kind 'ramp'"),
        (("scenario", "signals", 0), {"kind": "custom"}, "scenario.signals[0].samples", "required for kind=custom"),
        (("scenario", "seeds"), [1.5], "scenario.seeds", "must be a non-empty list of non-negative integers"),
        (("scenario", "seeds"), [1, 2, 1], "scenario.seeds", "1 is repeated"),
        (("scenario", "estimators"), [], "scenario.estimators", "must be a non-empty list"),
        (("scenario", "estimators"), ["r4skf", "r4skf"], "scenario.estimators", "'r4skf' is repeated"),
        (("scenario", "duration"), "abc", "scenario.duration", "not a number"),
        (("model", "dt"), "abc", "model.dt", "not a number"),
        (("model", "R"), [[1e-7, 9e-9], [0.0, 1e-7]], "model.R", "not symmetric"),
        # a key that the schema does not define
        (("extra",), 1, "document.extra", "unknown key"),
        (("model", "D"), [[0.0]], "model.D", "unknown key"),
        (("model", "n_x"), 2, "model.n_x", "unknown key"),
        (("scenario", "seed"), [1], "scenario.seed", "unknown key"),
        (("scenario", "signals", 0, "amp"), 0.5, "scenario.signals[0].amp", "unknown key"),
        (("a2kf",), {"windw": 5}, "a2kf.windw", "unknown key"),
        # the a2kf has one Q^d projection: its former switches are not keys
        (("a2kf",), {"negative_check": "pre"}, "a2kf.negative_check", "unknown key, expected one of window, qd_floor, qd_init"),
        (("a2kf",), {"rescale_by_dt": True}, "a2kf.rescale_by_dt", "unknown key, expected one of window, qd_floor, qd_init"),
        (("uio",), {"gian": [[1.0, 0.0], [0.0, 1.0]]}, "uio.gian", "unknown key"),
    ],
)
def test_a_config_value_of_the_wrong_type_exits_1_naming_the_field(tmp_path, capsys, keys, value, field, what):
    doc = node = copy.deepcopy(DOC)
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: {what}") and "Traceback" not in err


@pytest.mark.parametrize(
    "signal, field",
    [
        # a traceback from math.sin before signal values were checked
        ({"kind": "windowed_sine", "t_on": 0.1, "t_off": 0.3, "amplitude": 0.5, "f0": float("inf")}, "f0"),
        # a diverged truth, exit 2
        ({"kind": "step", "t_on": 0.1, "t_off": 0.3, "amplitude": NAN}, "amplitude"),
        ({"kind": "custom", "samples": [0.0] * 10 + [NAN] * 40}, "samples"),
        # a silently zero signal, exit 0
        ({"kind": "step", "t_on": NAN, "t_off": 0.3, "amplitude": 0.5}, "t_on"),
    ],
)
def test_a_non_finite_signal_value_exits_1_naming_the_field(tmp_path, capsys, signal, field):
    doc = copy.deepcopy(DOC)
    doc["scenario"]["signals"] = [signal]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: scenario.signals[0].{field}: ") and err.count("\n") == 1


def test_a_yaml_model_of_mismatched_dimensions_exits_1_naming_the_matrix(tmp_path, capsys):
    doc = copy.deepcopy(DOC)
    doc["model"]["C"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: model.C: must have 2 columns, got (2, 3)\n"


@pytest.mark.parametrize("field", ["t_on", "t_off", "amplitude", "f0"])
def test_a_signal_spec_built_in_python_refuses_a_non_finite_value(field):
    with pytest.raises(ConfigError, match=rf"^{field}: must be a finite number, got nan$"):
        SignalSpec(kind="step", **{field: NAN})


CASE = benchmark_case(1, duration=0.5, seeds=(1, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SignalSpec(kind="ramp"), r"^kind: unknown kind 'ramp', expected one of \("),
        (lambda: SignalSpec(kind="custom"), r"^samples: required for kind=custom$"),
        (lambda: SignalSpec(kind="custom", samples=np.zeros((2, 5))), r"^samples: expected a flat array, got ndim=2$"),
        (lambda: A2KFConfig(window=2.5), r"^a2kf\.window: must be an integer, got 2\.5$"),
        (lambda: replace(CASE, seeds=(1.5,)), r"^scenario\.seeds: must be a non-empty list of non-negative integers, got \[1\.5\]$"),
        (lambda: replace(CASE, seeds=(1, 2, 1)), r"^scenario\.seeds: 1 is repeated$"),
        (lambda: replace(CASE, estimators=()), r"^scenario\.estimators: must be a non-empty list$"),
        (lambda: replace(CASE, estimators=("r4skf", "a2kf", "r4skf")), r"^scenario\.estimators: 'r4skf' is repeated$"),
        (lambda: replace(CASE, duration="5"), r"^scenario\.duration: must be a positive finite number, got '5'$"),
        (lambda: replace(CASE.model, dt="0.01"), r"^model\.dt: must be a positive finite number, got '0\.01'$"),
        # a callable matrix is checked at 0 as an array is
        (lambda: replace(CASE.model, C=lambda k: np.ones(4)), r"^model\.C: must be a 2-D matrix, got shape \(4,\)$"),
        # off by 9 % of R = 1e-7 I, below an absolute tolerance of 1e-8
        (lambda: replace(CASE.model, R=1e-7 * np.array([[1.0, 0.09, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])), r"^model\.R: not symmetric$"),
        # the benchmark plant: n_x = 4, n_u = 2, n_d = 2, n_y = 3, n_w = 4
        (lambda: replace(CASE.model, A=np.zeros((4, 5))), r"^model\.A: must be square, got \(4, 5\)$"),
        (lambda: replace(CASE.model, B=np.zeros((5, 2))), r"^model\.B: must have 4 rows, got \(5, 2\)$"),
        (lambda: replace(CASE.model, E=np.zeros((3, 2))), r"^model\.E: must have 4 rows, got \(3, 2\)$"),
        (lambda: replace(CASE.model, G=np.eye(5)), r"^model\.G: must have 4 rows, got \(5, 5\)$"),
        (lambda: replace(CASE.model, C=np.zeros((3, 5))), r"^model\.C: must have 4 columns, got \(3, 5\)$"),
        (lambda: replace(CASE.model, Q=np.eye(3)), r"^model\.Q: must be 4x4, got \(3, 3\)$"),
        (lambda: replace(CASE.model, R=np.eye(2)), r"^model\.R: must be 3x3, got \(2, 2\)$"),
    ],
)
def test_a_config_built_in_python_refuses_a_bad_value_naming_the_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "field, value, got",
    [
        ("seeds", 5, "int"), ("seeds", "12", "str"), ("seeds", np.int64(5), "int64"), ("seeds", np.array(5), "ndarray"),
        ("estimators", "r4skf", "str"), ("estimators", None, "NoneType"),
        ("signals", SignalSpec(), "SignalSpec"), ("signals", "zero", "str"),
    ],
)
def test_a_config_built_in_python_refuses_a_str_or_non_iterable_list(field, value, got):
    with pytest.raises(ConfigError, match=rf"^scenario\.{field}: must be a list, got {got}$"):
        replace(CASE, **{field: value})


@pytest.mark.parametrize("name", ["kf", "R4SKF", ["r4skf"], {"r4skf": 1}, None, 3])
def test_an_unknown_estimator_is_named_as_given(name):
    # a list or a dict, as YAML may give, is not hashable
    with pytest.raises(ConfigError, match=rf"^scenario\.estimators: unknown estimator {re.escape(repr(name))}$"):
        replace(CASE, estimators=("r4skf", name))


@pytest.mark.parametrize("value, got", [(CASE.model.C, "function"), (None, "NoneType"), ("x", "str")])
def test_a_config_built_in_python_refuses_a_model_that_is_not_a_system_model(value, got):
    with pytest.raises(ConfigError, match=rf"^scenario\.model: must be a SystemModel, got {got}$"):
        replace(CASE, model=value)


def test_a_config_built_in_python_keeps_its_seeds_and_estimators_as_tuples():
    signals = [SignalSpec(), SignalSpec()]
    cfg = replace(CASE, seeds=[np.int64(3), 4], estimators=["uio"], signals=signals)
    assert cfg.seeds == (3, 4) and cfg.estimators == ("uio",) and cfg.signals == tuple(signals)
    assert replace(CASE, seeds=(n for n in (1, 2))).seeds == (1, 2)


def test_signal_samples_are_a_read_only_copy():
    samples = np.zeros(5)
    spec = SignalSpec(kind="custom", samples=samples)
    samples[2] = NAN
    assert spec.value(0.02, k=2) == 0.0
    with pytest.raises(ValueError, match="read-only"):
        spec.samples[0] = 1.0
    with pytest.raises(ConfigError, match=r"^samples: sample 2 is not finite$"):
        SignalSpec(kind="custom", samples=samples)


def test_ill_conditioned_scenario_exits_2_with_context(tmp_path, capsys):
    doc = copy.deepcopy(DOC)
    doc["model"].update(A=[[0.0, 0.0], [0.0, 0.0]], C=[[1.0, 0.0], [1.0, 0.0]], R=[[1e-20, 0.0], [0.0, 1e-20]])
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "r4skf, step 1, all seeds" in err and "Traceback" not in err


def test_non_finite_matrix_in_yaml_exits_1(tmp_path, capsys):
    doc = copy.deepcopy(DOC)
    doc["model"]["C"] = [[float("nan"), 0.0], [0.0, 1.0]]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert ".nan" in path.read_text()
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "model.C: must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, bad, error, where",
    [
        ("R", lambda R, k: R * np.nan if k >= 5 else R, ConfigError, "model.R, step 5: value is not finite"),
        ("A", lambda A, t: A + np.inf if t > 0.025 else A, ConfigError, "model.A, step 4: value is not finite"),
        ("C", lambda C, k: C[:2] if k == 3 else C, DimensionError, r"model.C, step 3: shape \(2, 4\), but \(3, 4\)"),
        # finite and of the right shape, but not a covariance
        ("R", lambda R, k: -R if k >= 5 else R, ConfigError, "model.R, step 5: Matrix is not positive definite"),
        ("Q", lambda Q, t: -Q if t >= 0.05 else Q, ConfigError, r"model.Q, step 6: not positive semi-definite \(eigenvalue -1e-06\)"),
        # a factorization reads one triangle only, so these pass it
        ("R", lambda R, k: R + np.triu(np.full_like(R, 1e-3), 1) if k >= 5 else R, ConfigError, "model.R, step 5: not symmetric"),
        ("Q", lambda Q, t: Q + np.triu(np.full_like(Q, 1e-3), 1) if t >= 0.05 else Q, ConfigError, "model.Q, step 6: not symmetric"),
        # off by 9 % of R = 1e-7 I, below an absolute tolerance of 1e-8
        ("R", lambda R, k: R + np.triu(np.full_like(R, 9e-9), 1) if k >= 5 else R, ConfigError, "model.R, step 5: not symmetric"),
    ],
)
def test_a_bad_later_model_value_names_matrix_and_step_before_any_filter_runs(monkeypatch, name, bad, error, where):
    gains = []
    monkeypatch.setattr(r4skf, "gain_and_covariance", lambda *args, **kw: gains.append(1))
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2))
    M0 = getattr(cfg.model, name)(0)
    model = replace(cfg.model, **{name: lambda arg: bad(M0, arg)})
    with pytest.raises(error, match=where):
        run_scenario(replace(cfg, model=model))
    assert gains == []


def later_refusal(name, M):
    """The ConfigError of a run whose model takes the value M from step 1 on
    (R(k) for k >= 1, Q(t) for t > 0, read first at step 2), or None."""
    model = checks.square_test_model()
    M0 = getattr(model, name)(0)
    cfg = ScenarioConfig(
        model=replace(model, **{name: lambda arg: M0 if arg == 0 else M}), signals=(SignalSpec(),) * 2,
        duration=0.03, seeds=(1,), x0_true=np.zeros(2), x0_hat=np.zeros(2), estimators=("uio",),
    )
    try:
        run_scenario(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from("RQ"), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.booleans())
@example("R", [1.0, 0.0, 0.5, 1.0], False)     # symmetric lower triangle, positive definite
@example("Q", [1.0, 0.0, 0.5, 0.0], False)
@example("R", [1.0, 0.0, 0.0, 0.0], True)      # semi-definite
def test_a_later_covariance_is_refused_exactly_when_the_model_refuses_it_at_0(name, entries, symmetric):
    a, b, c, e = entries
    M = np.array([[a, b if symmetric else c], [b, e]])
    try:
        replace(checks.square_test_model(), **{name: M})
        at_0 = None
    except ValueError as exc:
        at_0 = str(exc)
    later = later_refusal(name, M)
    assert (at_0 is None) == (later is None), (at_0, later)
    if at_0 is not None:                # the same reason, named by the model at 0 and by the step later
        step = 1 if name == "R" else 2
        assert later == f"model.{name}, step {step}: " + at_0.removeprefix(f"model.{name}: ")


def test_a_linalg_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(r4skf, "kalman_gain", fail)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(DOC))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "estimator failure: r4skf, step 1, all seeds (shared covariance sequence): Eigenvalues did not converge\n"


@pytest.mark.parametrize("estimator", ["r4skf", "a2kf"])
def test_a_floating_point_error_names_estimator_and_step(estimator):
    before = np.geterr()
    cfg = benchmark_case(1, dt=1e-300, duration=1e-298, seeds=(1, 2), estimators=(estimator,))
    with pytest.raises(FloatingPointError, match=rf"^{estimator}, step 1: overflow encountered"):
        run_scenario(cfg)
    assert np.geterr() == before


def test_stability_report_names_the_step_and_keeps_the_error_type():
    with pytest.raises(IllConditionedError, match=r"^r4skf, step \d+: innovation covariance C P C\^T \+ R is numerically singular$"):
        checks.stability_report(benchmark_model(dt=1e10))
