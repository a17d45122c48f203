"""run_scenario computes r4skf's covariance and gain sequence once for all
seeds of any model. A model whose matrices are callables is evaluated once
per step, a time-invariant model once per scenario; these tests hold the
two to the same outputs bit for bit.
"""

import itertools
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from uikf import config, r4skf
from uikf.a2kf import A2KFConfig
from uikf.benchmark import benchmark_case, benchmark_model
from uikf.model import SystemModel
from uikf.sim import EstimatorRun, run_scenario

MATRICES = ("A", "B", "E", "G", "Q", "C", "R")


def as_callables(model):
    """The same plant with every matrix wrapped as a constant callable."""
    return SystemModel(dt=model.dt, **{n: (lambda _arg, M=getattr(model, n)(0): M) for n in MATRICES})


@pytest.mark.parametrize(
    "window, qd_floor, qd_init",
    list(itertools.product((1, 10), (1e-12, 0.5), (1e-6, 1e-2))),
)
def test_shared_path_equals_per_step_path(window, qd_floor, qd_init):
    cfg = benchmark_case(
        1, duration=3.5, seeds=(3, 4), estimators=("r4skf", "a2kf", "uio"),
        a2kf_config=A2KFConfig(window=window, qd_floor=qd_floor, qd_init=qd_init),
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


@pytest.mark.parametrize("varying", [False, True])
def test_a_replace_copy_keeps_whether_the_model_is_time_invariant(varying):
    model = benchmark_model()
    if varying:
        model = replace(model, C=lambda _k, C=model.C(0): C)
    assert model.time_invariant is not varying
    for copy in (replace(model), replace(model, dt=0.02), replace(model, R=2.0 * model.R(0))):
        assert copy.time_invariant is not varying


def test_a_constant_reads_as_its_one_read_only_array():
    model = benchmark_model()
    C = model.C(0)
    assert model.C(5) is C and model.C.arr is C and not C.flags.writeable
    assert replace(model, dt=0.02).C(3) is C                 # a replace copy keeps the constant's reader


def test_a_users_callable_with_an_arr_or_fn_attribute_is_read_as_a_callable():
    model = benchmark_model()
    C0 = model.C(0)

    def C(_k):
        return C0
    C.arr = C.fn = "not a matrix"
    varying = replace(model, C=C)
    assert not varying.time_invariant and varying.C.fn is C and varying.C(2) is C0


def measured_states(k):
    """C(k) of the benchmark plant, a callable that pickles by its name."""
    return benchmark_model().C(0) * (1.0 + 0.1 * k)


@pytest.mark.parametrize("varying", [False, True])
def test_a_model_pickles_as_the_arrays_and_callables_it_was_built_from(varying):
    model = replace(benchmark_model(), C=measured_states) if varying else benchmark_model()
    copy = pickle.loads(pickle.dumps(model))
    assert copy.time_invariant is not varying and copy.dt == model.dt
    assert all(np.array_equal(getattr(copy, n)(2), getattr(model, n)(2)) for n in MATRICES)
    assert copy.C.fn is measured_states if varying else not copy.C(0).flags.writeable


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
    blocks = count_calls(monkeypatch, r4skf, "discretize")
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2, 3))
    run_scenario(cfg)
    assert len(gains) == cfg.n_steps
    assert len(blocks) == 1


def test_a_time_varying_model_runs_the_sequence_once_for_all_seeds(monkeypatch):
    gains = count_calls(monkeypatch, r4skf, "gain_and_covariance")
    cfg = benchmark_case(1, duration=0.5, seeds=(1, 2, 3), estimators=("r4skf",))
    run_scenario(replace(cfg, model=as_callables(cfg.model)))
    assert len(gains) == cfg.n_steps
