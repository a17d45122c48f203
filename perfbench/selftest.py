"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check that the tracer restores every module attribute and is never
installed by an untraced run, that the exact counts repeat from run to run,
that a perturbed estimate is counted as a failure, that BENCHMARK.json
matches the metrics run.py prints, and that the benchmark refuses to run
without the library.
"""

import json
import shutil
import subprocess
import sys
import unittest

import run

run.load_library()

import tracer  # noqa: E402
import uikf  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class TracerHygiene(unittest.TestCase):
    def test_every_binding_gets_its_own_wrapper_and_is_restored(self):
        before = run.module_snapshot()
        originals = {
            "uikf.model.discretize": uikf.model.discretize,
            "uikf.r4skf.discretize": uikf.r4skf.discretize,
            "uikf.a2kf.discretize": uikf.a2kf.discretize,
            "uikf.cdekf.moore_penrose_pinv": uikf.cdekf.moore_penrose_pinv,
            "uikf.step": uikf.step,
        }
        with self.assertRaises(RuntimeError):
            with tracer.Tracer():
                wrapped = [uikf.model.discretize, uikf.r4skf.discretize, uikf.a2kf.discretize]
                self.assertEqual(len({id(w) for w in wrapped}), 3)
                for w in wrapped + [uikf.cdekf.moore_penrose_pinv, uikf.step]:
                    self.assertTrue(hasattr(w, "__wrapped__"))
                raise RuntimeError("leave the traced block by an exception")
        self.assertIs(uikf.model.discretize, originals["uikf.model.discretize"])
        self.assertIs(uikf.step, originals["uikf.step"])
        after = run.module_snapshot()
        self.assertEqual(before.keys(), after.keys())
        for mod in before:
            self.assertEqual(before[mod].keys(), after[mod].keys(), mod)
            for attr, val in before[mod].items():
                self.assertIs(after[mod][attr], val, f"{mod}.{attr}")

    def test_untraced_run_never_installs_the_tracer(self):
        def refuse(self):
            raise AssertionError("tracer installed in an untraced run")

        enter = tracer.Tracer.__enter__
        tracer.Tracer.__enter__ = refuse
        try:
            _, _, attempted, failed, messages = run.untraced_run(WORKLOADS["cd-nonlinear"], 3, 0.1, 0.0)
        finally:
            tracer.Tracer.__enter__ = enter
        self.assertEqual(failed, 0, messages)
        self.assertGreater(attempted, 0)


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_between_runs(self):
        for name in ("cd-nonlinear", "stream-tv"):
            runs = [run.traced_run(WORKLOADS[name], 5, 0.1) for _ in range(2)]
            for metrics, _, _, failed, messages in runs:
                self.assertEqual(failed, 0, messages)
            counts = [
                {k: v for k, v in m.items() if k.endswith(".calls") or k.endswith("_evals_per_step")}
                for m, *_ in runs
            ]
            self.assertEqual(counts[0], counts[1], name)
            self.assertGreater(counts[0]["r4skf.step.calls" if name == "stream-tv" else "cdekf.cd_four_step.calls"], 0)
            if name == "cd-nonlinear":
                # RK4 (4) + central-difference Jacobian of f in 4 states (1 + 8)
                self.assertEqual(counts[0]["cdekf.f_evals_per_step"], 13)
                # Jacobian of h (1 + 8) + h(x*) + h(x_pred)
                self.assertEqual(counts[0]["cdekf.h_evals_per_step"], 11)
            else:
                m = runs[0][0]
                subs = [f"r4skf.{fn}" for fn in tracer.TRACED["r4skf"] if fn != "step"]
                for sub in subs:
                    self.assertLessEqual(m[f"{sub}.us"], m["r4skf.step.incl_us"], sub)
                # on stream-tv every r4skf sub-function call comes from r4skf.step
                child_us = sum(m[f"{s}.us"] * m[f"{s}.calls"] for s in subs)
                self.assertLessEqual(child_us, m["r4skf.step.incl_us"] * m["r4skf.step.calls"])

    def test_check_cli_step_constants(self):
        with run.work_dir(WORKLOADS["check-cli"]) as work, tracer.Tracer() as tr:
            wl = WORKLOADS["check-cli"](DEFAULT_SEED, work)
            for argv, steps in wl.commands[:2]:
                start = tr.summary()
                wl._call(argv)
                end = tr.summary()
                done = sum(end[n][0] - start[n][0] for n in ("r4skf.step", "uio.observer_step"))
                self.assertEqual(done, steps, argv)


class FailureCounting(unittest.TestCase):
    def test_reference_matches_at_default_seed(self):
        for name, cls in WORKLOADS.items():
            with run.work_dir(cls) as work:
                wl = cls(DEFAULT_SEED, work)
                checks, failed, failures = run.verify(wl, [wl.run_pass()], DEFAULT_SEED)
            self.assertEqual(failures, [], name)
            self.assertEqual((checks, failed), (3, 0))

    def test_perturbed_estimate_is_a_failure(self):
        update = uikf.r4skf.update

        def perturbed(x_pred, y, K, C):
            return update(x_pred, y, K, C) + 1e-4

        uikf.r4skf.update = perturbed
        try:
            _, _, attempted, failed, messages = run.untraced_run(WORKLOADS["stream-tv"], DEFAULT_SEED, 0.1, 0.0)
        finally:
            uikf.r4skf.update = update
        self.assertGreater(failed, 0)
        self.assertTrue(any("reference" in m and "r4skf" in m for m in messages), messages)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream-tv", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
