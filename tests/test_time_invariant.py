"""On a time-invariant model run_scenario evaluates the model once per
scenario and computes r4skf's covariance and gain sequence once for all
seeds. A model whose matrices are callables takes the per-step reference
path (r4skf.step, a2kf.a2kf_step); these tests hold the two paths to the
same outputs bit for bit.
"""

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from uikf import a2kf, config, r4skf
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.model import SystemModel
from uikf.sim import EstimatorRun, run_scenario

MATRICES = ("A", "B", "E", "G", "Q", "C", "R")


def as_callables(model):
    """The same plant with every matrix wrapped as a constant callable."""
    return SystemModel(dt=model.dt, **{n: (lambda _arg, M=getattr(model, n)(0): M) for n in MATRICES})


@pytest.mark.parametrize(
    "negative_check, rescale_by_dt, window",
    list(itertools.product(("post", "pre"), (False, True), (1, 10))),
)
def test_shared_path_equals_per_step_path(negative_check, rescale_by_dt, window):
    cfg = benchmark_case(
        1, duration=3.5, seeds=(3, 4), estimators=("r4skf", "a2kf", "uio"),
        a2kf_config=A2KFConfig(window=window, rescale_by_dt=rescale_by_dt, negative_check=negative_check),
    )
    ref = replace(cfg, model=as_callables(cfg.model))
    assert cfg.model.time_invariant and not ref.model.time_invariant
    got, want = run_scenario(cfg), run_scenario(ref)
    for seed, est in itertools.product(cfg.seeds, cfg.estimators):
        for f in fields(EstimatorRun):
            a, b = getattr(got.runs[seed][est], f.name), getattr(want.runs[seed][est], f.name)
            assert (a is None and b is None) or np.array_equal(a, b), (seed, est, f.name)


def test_arrays_make_a_time_invariant_model():
    assert benchmark_model().time_invariant


@pytest.mark.parametrize("name", MATRICES)
def test_any_callable_makes_a_time_varying_model(name):
    model = benchmark_model()
    M = getattr(model, name)(0)
    kwargs = {n: getattr(model, n)(0) for n in MATRICES}
    kwargs[name] = lambda _arg: M
    assert not SystemModel(dt=model.dt, **kwargs).time_invariant


def test_a_model_loaded_from_yaml_is_time_invariant(tmp_path):
    doc = {
        "schema": 1,
        "model": {
            "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]], "E": [[1.0], [0.0]],
            "G": [[1.0, 0.0], [0.0, 1.0]], "C": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[1.0e-6, 0.0], [0.0, 1.0e-6]], "R": [[1.0e-7, 0.0], [0.0, 1.0e-7]], "dt": 0.01,
        },
        "scenario": {
            "duration": 1.0, "seeds": [1], "x0_true": [0.0, 0.0], "x0_hat": [1.0, 1.0],
            "signals": [{"kind": "zero"}],
        },
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert config.load_scenario(path).model.time_invariant


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_covariance_sequence_and_blocks_are_computed_once_per_scenario(monkeypatch):
    gains = count_calls(monkeypatch, r4skf, "gain_and_covariance")
    blocks = count_calls(monkeypatch, a2kf, "augment")
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2, 3))
    run_scenario(cfg)
    assert len(gains) == cfg.n_steps
    assert len(blocks) == 1


def test_a_time_varying_model_runs_the_sequence_per_seed(monkeypatch):
    gains = count_calls(monkeypatch, r4skf, "gain_and_covariance")
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2, 3), estimators=("r4skf",))
    run_scenario(replace(cfg, model=as_callables(cfg.model)))
    assert len(gains) == 3 * cfg.n_steps
