"""Span tracer that times calls into uikf's public functions from outside
the library.

Modules bind library functions with ``from .model import discretize``, so
one function can be reachable under several module attributes
(``uikf.model.discretize``, ``uikf.r4skf.discretize``, ``uikf.a2kf.discretize``
...). The tracer replaces every binding of a traced function in every loaded
``uikf`` module with its own wrapper, records one span per call and puts the
original objects back on exit.

Spans are kept in memory as four flat arrays (name id, start ns, end ns,
parent span index) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# layer (module) -> public functions whose calls are timed
TRACED = {
    "model": ("discretize", "moore_penrose_pinv", "numerical_rank"),
    "r4skf": (
        "step",
        "predict_no_input",
        "estimate_unknown_input",
        "predict_with_input",
        "unknown_input_error_cov",
        "gain_and_covariance",
        "update",
        "stability_matrices",
    ),
    "a2kf": ("a2kf_step", "augment", "innovation_covariance", "estimate_Qd"),
    "uio": ("observer_step",),
    "onestep": ("one_step_estimate", "equivalence_check"),
    "cdekf": ("cd_four_step", "propagate_state", "propagate_covariance", "finite_difference_jacobian"),
    "sim": ("generate_truth", "run_scenario", "rmse", "write_timeseries_csv", "write_summary_csv"),
    "checks": ("run_property_checks", "stability_report"),
    "config": ("load_scenario",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Context manager that installs the wrappers on enter and restores
    every replaced module attribute on exit.

    ``on_return`` maps a span name to a callback ``(args, result)`` that
    runs after each successful call, for counts the span alone cannot give
    (steps simulated, bytes written).
    """

    def __init__(self, on_return=None):
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self._stack = []
        self._on_return = dict(on_return or {})
        self._replaced = []  # (module, attribute, original)
        self.counts = {}

    def counted(self, name, fn):
        """Wrap one of the benchmark's own callables with an exact call counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def __enter__(self):
        targets = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"uikf.{mod}"]
            for fn in fns:
                targets[id(getattr(module, fn))] = (f"{mod}.{fn}", getattr(module, fn))
        modules = [m for name, m in sorted(sys.modules.items()) if name == "uikf" or name.startswith("uikf.")]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[1] is value:
                        setattr(module, attr, self._wrap(value, hit[0]))
                        self._replaced.append((module, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        nid = SPAN_NAMES.index(name)
        name_id, start_ns, end_ns, parent = self.name_id, self.start_ns, self.end_ns, self.parent
        stack = self._stack
        on_return = self._on_return.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end_ns.append(0)
            stack.append(idx)
            start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def summary(self):
        """Per span name: calls, total inclusive ns and total self ns.

        Self time is the span's duration minus the durations of its direct
        children; spans nest (single thread), so children never overlap.
        """
        n = len(self.name_id)
        dur = [self.end_ns[i] - self.start_ns[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in SPAN_NAMES}
        for i in range(n):
            rec = out[SPAN_NAMES[self.name_id[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return out

    def write(self, path):
        """Write the spans as gzip-compressed CSV: id, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i},{SPAN_NAMES[self.name_id[i]]},{self.start_ns[i]},{self.end_ns[i]},{self.parent[i]}\n"
                )
