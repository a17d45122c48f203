"""The library names that the benchmark harness under perfbench/ reads exist.

perfbench/tracer.py wraps every (module, function) of its TRACED table, the
harness self-tests restore some bindings by name, and the stream-tv workload
calls uio.observer_step positionally. A deletion or rename of any of them
breaks the traced benchmark; here it fails the test suite instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from uikf import uio

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, name) for mod, names in tracer.TRACED.items() for name in names]


# the bindings of one function under other modules that the self-tests restore
REBOUND = [("r4skf", "discretize"), ("a2kf", "discretize"), ("cdekf", "moore_penrose_pinv")]


@pytest.mark.parametrize("mod, name", traced_names() + REBOUND, ids=lambda v: v)
def test_traced_name_exists(mod, name):
    assert callable(getattr(importlib.import_module(f"uikf.{mod}"), name))


def test_observer_step_parameters():
    assert list(inspect.signature(uio.observer_step).parameters) == ["state", "y", "u", "dm", "C", "L"]
