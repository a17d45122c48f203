"""Running the library rebinds no module attribute. The traced benchmark
(perfbench/run.py, module_snapshot) compares every attribute of every uikf
module by identity before and after a run, and counts a change as a failure,
so a cache kept in a module global that a call rebinds would fail it; this
test makes the same comparison after a few steps of every estimator,
run_scenario and `check properties`.
"""

import importlib
import pkgutil
import sys
from dataclasses import replace

import numpy as np

import uikf
from uikf import a2kf, cdekf, cli, onestep, r4skf, uio
from uikf.benchmark import benchmark_case
from uikf.checks import square_test_model
from uikf.model import discretize, moore_penrose_pinv
from uikf.sim import run_scenario

from test_seed_stack import varying


def module_snapshot():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "uikf" or name.startswith("uikf.")
    }


def run_everything():
    model = varying(benchmark_case(1).model)
    u, y = np.zeros(model.n_u), np.array([0.3, -0.2, 0.1])
    state, filt = r4skf.initial_state(model, np.ones(model.n_x)), a2kf.initial_state(model, np.ones(model.n_x))
    obs, L = uio.initial_observer_state(np.ones(model.n_x), model.n_d), moore_penrose_pinv(model.C(0))
    for k in range(3):
        state, _ = r4skf.step(state, u, y, model)
        filt, _ = a2kf.a2kf_step(filt, u, y, model)
        obs = uio.observer_step(obs, y, u, discretize(model, k * model.dt), model.C(k + 1), L)
    onestep.one_step_estimate(np.ones(2), square_test_model().C(0))

    C = model.C(0)
    nl = cdekf.NonlinearModel(
        f=lambda x, u, t: model.A(t) @ x, h=lambda x: C @ x,
        E=model.E(0.0), G=model.G(0.0), Q=model.Q(0.0), R=model.R(0), dt=model.dt,
    )
    cd = r4skf.initial_state(model, np.zeros(model.n_x))
    for k in range(3):
        cd, _ = cdekf.cd_four_step(cd, u, 0.1 * k * y, nl, method="rk4")

    cfg = benchmark_case(1, duration=0.2, seeds=(1, 2), estimators=("r4skf", "a2kf", "uio"))
    run_scenario(replace(cfg, model=model))
    run_scenario(cfg)
    assert cli.main(["check", "properties"]) == 0


def test_a_run_rebinds_no_module_attribute(capsys):
    for info in pkgutil.walk_packages(uikf.__path__, "uikf."):
        importlib.import_module(info.name)
    run_everything()            # anything set once, on a first call, is set here
    before = module_snapshot()
    run_everything()
    after = module_snapshot()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys(), name
        changed = [attr for attr in before[name] if before[name][attr] is not after[name][attr]]
        assert changed == [], name
