"""The objects that check their fields when built stay frozen: a field
assigned after __post_init__ would skip its checks. DiscretizedModel stays
frozen because every estimator of a step shares it through the kept
StepTerms. The per-step records (FilterState, StepReport, A2KFState,
A2KFStepReport, ObserverState) are plain dataclasses and are not listed.
"""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from uikf import a2kf, checks, sim
from uikf.benchmark import benchmark_case
from uikf.cdekf import NonlinearModel
from uikf.model import discretize


def frozen_objects():
    cfg = benchmark_case(1, duration=0.05, seeds=(1,))
    model = cfg.model
    return {
        "SystemModel": model,
        "ScenarioConfig": cfg,
        "SignalSpec": cfg.signals[0],
        "TruthTrajectory": sim.generate_truth(cfg, 1),
        "A2KFConfig": cfg.a2kf_config,
        "AugmentedModel": a2kf.augment(model),
        "NonlinearModel": NonlinearModel(
            f=lambda x, u, t: x, h=lambda x: x, E=np.eye(2), G=np.eye(2),
            Q=np.eye(2), R=np.eye(2), dt=0.01,
        ),
        "CheckResult": checks.CheckResult("check", True, 0.0, 1.0),
        "DiscretizedModel": discretize(model, 0.0),
    }


@pytest.mark.parametrize("name", list(frozen_objects()))
def test_assigning_a_field_raises(name):
    obj = frozen_objects()[name]
    assert type(obj).__name__ == name
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
