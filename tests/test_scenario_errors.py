"""Bad scenarios fail fast: wrong initial-state lengths are config errors
naming the field, and estimator errors raised inside run_scenario keep
their type while naming the estimator, the seed and the 1-based step."""

import copy

import numpy as np
import pytest
import yaml

from uikf import cli
from uikf.errors import IllConditionedError, RankConditionError
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
        (SINGULAR_S, IllConditionedError, ("r4skf",), False, "r4skf, seed 7, step 1"),
        (SINGULAR_S, IllConditionedError, ("a2kf",), True, "a2kf, seed 7, step 1"),
        (RANK_DEFICIENT, RankConditionError, ("r4skf",), True, "r4skf, step 1, all seeds"),
        (RANK_DEFICIENT, RankConditionError, ("r4skf",), False, "r4skf, seed 7, step 1"),
        (RANK_DEFICIENT, RankConditionError, ("uio",), True, "uio, seed 7, step 1"),
    ],
)
def test_estimator_errors_name_estimator_seed_and_step(plant, error, estimators, time_invariant, where):
    with pytest.raises(error, match=where):
        run_scenario(scenario(estimators=estimators, time_invariant=time_invariant, **plant))


def test_ill_conditioned_scenario_exits_2_with_context(tmp_path, capsys):
    doc = copy.deepcopy(DOC)
    doc["model"].update(A=[[0.0, 0.0], [0.0, 0.0]], C=[[1.0, 0.0], [1.0, 0.0]], R=[[1e-20, 0.0], [0.0, 1e-20]])
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "r4skf, step 1, all seeds" in err and "Traceback" not in err
