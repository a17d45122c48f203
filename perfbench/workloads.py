"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``__init__``
(part of set-up), runs one fixed unit of work per ``run_pass`` call, and
checks its own outputs in ``check``. Library functions are always looked up
through their module (``r4skf.step``, never a bound name), so the tracer's
wrappers see every call the workload makes.

A pass returns its outputs as a dict of name -> 1-D float array. Passes on
one workload object process identical inputs, so their outputs must be
identical; on the default seed they are also compared with reference.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from array import array
from pathlib import Path

import numpy as np
import yaml

from uikf import a2kf, benchmark, cdekf, cli, r4skf, sim, uio
from uikf import model as plant_model

import calibration

DEFAULT_SEED = 1
# reference and equivalence tolerance: |a - b| <= RTOL * max|b| per compared vector
RTOL = 1e-6
# values read back from the CLI's CSV files carry 6 significant digits
RTOL_CSV = 2e-5
SAMPLE_STEPS = (99, 499, 999, 1499, 1999)
ESTIMATORS = ("r4skf", "a2kf", "uio", "cdekf")

clock = time.perf_counter_ns


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def random_inputs(rng: np.random.Generator, n_steps: int, dt: float) -> np.ndarray:
    """Two unknown-input channels: a piecewise-constant level that switches
    every 1-3 s, and a sine of random frequency and phase."""
    d = np.zeros((n_steps, 2))
    k = 0
    while k < n_steps:
        span = int(rng.integers(100, 300))
        d[k:k + span, 0] = rng.uniform(-0.5, 0.5)
        k += span
    f0 = rng.uniform(0.2, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    d[:, 1] = 0.3 * np.sin(2.0 * math.pi * f0 * np.arange(n_steps) * dt + phase)
    return d


def assert_close(name: str, got, want, rtol: float, failures: list) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        failures.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    tol = rtol * (float(np.abs(want).max()) if want.size else 0.0)
    err = float(np.abs(got - want).max()) if want.size else 0.0
    if not err <= tol:
        failures.append(f"{name}: max deviation {err:.3g} > tolerance {tol:.3g}")


def check_psd(name: str, P: np.ndarray, failures: list) -> None:
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(P).max()))):
        failures.append(f"{name}: covariance not symmetric")
    elif np.linalg.eigvalsh(P).min() < -1e-12 * max(1.0, float(np.abs(P).max())):
        failures.append(f"{name}: covariance not positive semi-definite")


class Workload:
    """Common bookkeeping: per-operation wall times and failures.

    An operation is the smallest timed unit: one measurement for the
    streaming workloads, one library or CLI call for the others.
    ``op_steps[i]`` is the number of estimator steps in operation i. The
    calibration kernel runs before every ``BLOCK`` operations and once at
    the end of a pass.
    """

    name = ""
    rtol = RTOL
    BLOCK = 1

    def __init__(self, seed: int, out_dir: Path, tracer=None):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.op_ns = []         # per pass: wall ns of each operation
        self.cal_ns = []        # per pass: calibration kernel ns around each block
        self.attempted = 0
        self.failures = []

    def _begin_pass(self):
        self.op_ns.append(array("q"))
        self.cal_ns.append(array("q"))
        return self.op_ns[-1]

    def _calibrate(self):
        self.cal_ns[-1].append(calibration.probe_ns())

    def _op(self, fn):
        """Run one timed operation; an exception counts as a failed op."""
        self._calibrate()
        self.attempted += 1
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # any estimator or CLI error is a benchmark failure
            self.failures.append(f"{self.name}: {type(exc).__name__}: {exc}")
            return None, False
        self.op_ns[-1].append(clock() - t0)
        return result, True

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict:
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        """Invariants that hold on every seed; returns failure messages."""
        failures = []
        for key, val in outputs.items():
            if not np.all(np.isfinite(val)):
                failures.append(f"{self.name}: non-finite values in {key}")
        return failures

    def accuracy(self, outputs: dict) -> dict:
        """Estimator -> (rmse_x, rmse_d), channel- and seed-averaged."""
        return {
            est: (float(np.mean(outputs[f"rmse_x.{est}"])), float(np.mean(outputs[f"rmse_d.{est}"])))
            for est in ESTIMATORS
            if f"rmse_x.{est}" in outputs
        }


class McPaper(Workload):
    """Benchmark cases 1-3, both filters, N_SEEDS Monte-Carlo seeds each, run
    through sim.run_scenario and written out as `uikf reproduce` does."""

    name = "mc-paper"
    # seeds per run_scenario call: small enough that one call stays under a
    # second, which the statistics need to see past contention on the host
    N_SEEDS = 2
    CASES = (1, 2, 3)

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        rng = _rng(seed, 1)
        self.mc_seeds = tuple(int(s) for s in rng.choice(1_000_000, size=self.N_SEEDS, replace=False))
        self.configs = {c: benchmark.benchmark_case(c, seeds=self.mc_seeds) for c in self.CASES}
        cfg = self.configs[1]
        self.op_steps = [cfg.n_steps * len(cfg.seeds) * len(cfg.estimators)] * len(self.CASES)
        self.steps_per_pass = sum(self.op_steps)
        self.last_result = None

    def _request(self, case, cfg, tag):
        result = sim.run_scenario(cfg)
        for est in cfg.estimators:
            sim.write_timeseries_csv(self.out_dir / f"{tag}_{est}_timeseries.csv", result, est)
        sim.write_summary_csv(self.out_dir / f"{tag}_summary.csv", {tag: result})
        return result

    def warm_up(self):
        cfg = benchmark.benchmark_case(1, seeds=self.mc_seeds[:1], duration=0.5)
        self._request(1, cfg, "warmup")

    def run_pass(self):
        outputs = {}
        self._begin_pass()
        for case, cfg in self.configs.items():
            result, ok = self._op(lambda: self._request(case, cfg, f"case{case}"))
            if not ok:
                continue
            self.last_result = result
            first = self.mc_seeds[0]
            for est in cfg.estimators:
                outputs[f"case{case}.rmse_x.{est}"] = result.rmse_mean[est]["x"]
                outputs[f"case{case}.rmse_d.{est}"] = result.rmse_mean[est]["d"]
                run = result.runs[first][est]
                outputs[f"case{case}.x_hat.{est}"] = run.x_hat[list(SAMPLE_STEPS[:3])].ravel()
                outputs[f"case{case}.d_hat.{est}"] = run.d_hat[list(SAMPLE_STEPS[:3])].ravel()
                outputs[f"case{case}.finite.{est}"] = np.array(
                    [float(np.isfinite(result.runs[s][est].x_hat).all() and np.isfinite(result.runs[s][est].d_hat).all())
                     for s in self.mc_seeds]
                )
        self._calibrate()
        return outputs

    def check(self, outputs):
        failures = super().check(outputs)
        for key, val in outputs.items():
            if ".finite." in key and not np.all(val == 1.0):
                failures.append(f"{self.name}: non-finite estimates in {key}")
        failures += self._check_csv()
        failures += self._check_step_path()
        return failures

    def _check_csv(self):
        failures = []
        for case, cfg in self.configs.items():
            path = self.out_dir / f"case{case}_summary.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if [r[1] for r in rows] != list(cfg.estimators):
                failures.append(f"{self.name}: {path.name} lists {[r[1] for r in rows]}")
        return failures

    def _check_step_path(self):
        """run_scenario's output for the first seed of the last case must
        match the reference per-step path (r4skf.step / a2kf.a2kf_step)."""
        result = self.last_result
        if result is None:
            return [f"{self.name}: no scenario result to check"]
        cfg = result.config
        seed = cfg.seeds[0]
        truth = result.truths[seed]
        fs = r4skf.initial_state(cfg.model, cfg.x0_hat)
        as_ = a2kf.initial_state(cfg.model, cfg.x0_hat, cfg=cfg.a2kf_config)
        xs = {"r4skf": [], "a2kf": []}
        ds = {"r4skf": [], "a2kf": []}
        for k in range(cfg.n_steps):
            fs, _ = r4skf.step(fs, truth.u[k], truth.y[k], cfg.model)
            as_, _ = a2kf.a2kf_step(as_, truth.u[k], truth.y[k], cfg.model, cfg.a2kf_config)
            for est, st in (("r4skf", fs), ("a2kf", as_)):
                xs[est].append(st.x_hat)
                ds[est].append(st.d_hat)
        failures = []
        for est in xs:
            run = result.runs[seed][est]
            for ch in range(cfg.model.n_x):
                assert_close(f"{self.name}: step path {est} x{ch + 1}", run.x_hat[:, ch], np.array(xs[est])[:, ch], RTOL, failures)
            for ch in range(cfg.model.n_d):
                assert_close(f"{self.name}: step path {est} d{ch + 1}", run.d_hat[:, ch], np.array(ds[est])[:, ch], RTOL, failures)
        return failures

    def accuracy(self, outputs):
        acc = {}
        for est in ("r4skf", "a2kf"):
            xs = [np.mean(outputs[f"case{c}.rmse_x.{est}"]) for c in self.CASES if f"case{c}.rmse_x.{est}" in outputs]
            ds = [np.mean(outputs[f"case{c}.rmse_d.{est}"]) for c in self.CASES if f"case{c}.rmse_d.{est}" in outputs]
            if xs:
                acc[est] = (float(np.mean(xs)), float(np.mean(ds)))
        return acc


def tv_model():
    """Time-varying variant of the benchmark plant: the unstable plant shifted
    to stability with a slowly rotating perturbation in A(t), a drifting
    first output gain in C(k) and a breathing noise level in R(k)."""
    A0 = benchmark.A_PLANT - 3.0 * np.eye(4)
    N = np.array(
        [
            [0.0, 0.4, 0.0, -0.2],
            [-0.4, 0.0, 0.3, 0.0],
            [0.0, -0.3, 0.0, 0.2],
            [0.2, 0.0, -0.2, 0.0],
        ]
    )

    def A(t):
        return A0 + math.sin(0.4 * math.pi * t) * N

    def C(k):
        c = benchmark.C_PLANT.copy()
        c[0, 0] = 1.0 + 0.05 * math.sin(2.0 * math.pi * k / 400.0)
        return c

    def R(k):
        return benchmark.R_PLANT * (1.0 + 0.5 * math.sin(2.0 * math.pi * k / 300.0))

    return plant_model.SystemModel(
        A=A, B=benchmark.B_PLANT, E=benchmark.B_PLANT, G=np.eye(4),
        C=C, Q=benchmark.Q_PLANT, R=R, dt=benchmark.DEFAULT_DT,
    )


class StreamTv(Workload):
    """One measurement stream from a time-varying plant, fed one measurement
    at a time to r4skf.step, a2kf.a2kf_step and uio.observer_step."""

    name = "stream-tv"
    BLOCK = 100
    N_MEAS = 2000
    BURN_IN = 100
    ESTS = ("r4skf", "a2kf", "uio")

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        self.model = tv_model()
        dt = self.model.dt
        rng = _rng(seed, 2)
        d = random_inputs(rng, self.N_MEAS, dt)
        x0_hat = 0.1 * rng.standard_normal(4)
        signals = tuple(sim.SignalSpec(kind="custom", samples=d[:, j]) for j in range(2))
        cfg = sim.ScenarioConfig(
            model=self.model, signals=signals, duration=self.N_MEAS * dt, seeds=(0,),
            x0_true=np.zeros(4), x0_hat=x0_hat, estimators=("r4skf",),
        )
        self.truth = sim.generate_truth(cfg, int(rng.integers(2**31)))
        self.x0_hat = x0_hat
        self.a2kf_cfg = a2kf.A2KFConfig()
        self.L = np.linalg.pinv(benchmark.C_PLANT)
        self.op_steps = [len(self.ESTS)] * self.N_MEAS
        self.steps_per_pass = sum(self.op_steps)

    def _stream(self, n):
        m = self.model
        truth = self.truth
        fs = r4skf.initial_state(m, self.x0_hat)
        as_ = a2kf.initial_state(m, self.x0_hat, cfg=self.a2kf_cfg)
        os_ = uio.initial_observer_state(self.x0_hat, m.n_d)
        X = np.zeros((3, n, m.n_x))
        D = np.zeros((3, n, m.n_d))
        times = self._begin_pass()
        for k in range(n):
            if k % self.BLOCK == 0:
                self._calibrate()
            u, y = truth.u[k], truth.y[k]
            self.attempted += 1
            t0 = clock()
            try:
                fs, _ = r4skf.step(fs, u, y, m)
                as_, _ = a2kf.a2kf_step(as_, u, y, m, self.a2kf_cfg)
                dm = plant_model.discretize(m, k * m.dt)
                os_ = uio.observer_step(os_, y, u, dm, np.asarray(m.C(k + 1), dtype=float), self.L)
            except Exception as exc:  # any estimator error is a benchmark failure
                self.failures.append(f"{self.name}: step {k + 1}: {type(exc).__name__}: {exc}")
                break
            times.append(clock() - t0)
            X[0, k], X[1, k], X[2, k] = fs.x_hat, as_.x_hat, os_.x_hat
            D[0, k], D[1, k], D[2, k] = fs.d_hat, as_.d_hat, os_.d_hat
        self._calibrate()
        self.final = (fs, as_)
        return X, D

    def warm_up(self):
        self._stream(20)
        self.op_ns.clear()
        self.cal_ns.clear()
        self.attempted = 0

    def run_pass(self):
        X, D = self._stream(self.N_MEAS)
        x_true = self.truth.x[1:]
        d_true = self.truth.d
        b = self.BURN_IN
        outputs = {}
        for i, est in enumerate(self.ESTS):
            outputs[f"rmse_x.{est}"] = np.sqrt(np.mean((X[i, b:] - x_true[b:]) ** 2, axis=0))
            outputs[f"rmse_d.{est}"] = np.sqrt(np.mean((D[i, b:] - d_true[b:]) ** 2, axis=0))
            outputs[f"x_hat.{est}"] = X[i, list(SAMPLE_STEPS)].ravel()
            outputs[f"d_hat.{est}"] = D[i, list(SAMPLE_STEPS)].ravel()
            outputs[f"finite.{est}"] = np.array([float(np.isfinite(X[i]).all() and np.isfinite(D[i]).all())])
        return outputs

    def check(self, outputs):
        failures = super().check(outputs)
        for key, val in outputs.items():
            if key.startswith("finite.") and not np.all(val == 1.0):
                failures.append(f"{self.name}: non-finite estimates from {key[7:]}")
        fs, as_ = self.final
        check_psd(f"{self.name}: r4skf P", fs.P, failures)
        check_psd(f"{self.name}: a2kf P_a", as_.P_a, failures)
        check_psd(f"{self.name}: a2kf Qd", as_.Qd_hat, failures)
        return failures


class CdNonlinear(Workload):
    """cdekf.cd_four_step with RK4 propagation and finite-difference
    Jacobians on the benchmark plant with a cubic damping term."""

    name = "cd-nonlinear"
    BLOCK = 100
    # the unmeasured third state wanders slowly (time constant ~5 s), so its
    # RMSE needs a long stream to read the same from seed to seed
    N_MEAS = 8000
    BURN_IN = 100
    KAPPA = 0.5

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        A, B, C = benchmark.A_PLANT, benchmark.B_PLANT, benchmark.C_PLANT
        kappa = self.KAPPA

        def f(x, u, t):
            return A @ x + B @ u - kappa * x ** 3

        def h(x):
            return C @ x

        plant_f, plant_h = f, h
        if tracer is not None:
            plant_f = tracer.counted("cdekf.f_evals", f)
            plant_h = tracer.counted("cdekf.h_evals", h)
        dt = benchmark.DEFAULT_DT
        Q, R = benchmark.Q_PLANT, benchmark.R_PLANT
        self.model = cdekf.NonlinearModel(f=plant_f, h=plant_h, E=B, G=np.eye(4), Q=Q, R=R, dt=dt)

        rng = _rng(seed, 3)
        n = self.N_MEAS
        d = random_inputs(rng, n, dt)
        x = 0.5 * rng.standard_normal(4)
        self.x0_hat = x + 0.1 * rng.standard_normal(4)
        u = np.zeros(B.shape[1])
        xs = np.zeros((n + 1, 4))
        ys = np.zeros((n, 3))
        xs[0] = x
        w = rng.standard_normal((n, 4)) * np.sqrt(np.diag(Q) * dt)
        v = rng.standard_normal((n, 3)) * np.sqrt(np.diag(R))
        for k in range(n):
            def rhs(xx):
                return f(xx, u, k * dt) + B @ d[k]

            k1 = rhs(x)
            k2 = rhs(x + 0.5 * dt * k1)
            k3 = rhs(x + 0.5 * dt * k2)
            k4 = rhs(x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4) + w[k]
            xs[k + 1] = x
            ys[k] = h(x) + v[k]
        self.x_true, self.d_true, self.y, self.u = xs[1:], d, ys, u
        self.op_steps = [1] * n
        self.steps_per_pass = n

    def _stream(self, n):
        m = self.model
        st = r4skf.FilterState(
            x_hat=self.x0_hat, P=np.eye(4), d_hat=np.zeros(2), Pd=np.eye(2), gamma=np.zeros(3), k=0
        )
        X = np.zeros((n, 4))
        D = np.zeros((n, 2))
        times = self._begin_pass()
        for k in range(n):
            if k % self.BLOCK == 0:
                self._calibrate()
            self.attempted += 1
            t0 = clock()
            try:
                st, _ = cdekf.cd_four_step(st, self.u, self.y[k], m, method="rk4")
            except Exception as exc:  # any estimator error is a benchmark failure
                self.failures.append(f"{self.name}: step {k + 1}: {type(exc).__name__}: {exc}")
                break
            times.append(clock() - t0)
            X[k] = st.x_hat
            D[k] = st.d_hat
        self._calibrate()
        self.final = st
        return X, D

    def warm_up(self):
        self._stream(20)
        self.op_ns.clear()
        self.cal_ns.clear()
        self.attempted = 0

    def run_pass(self):
        X, D = self._stream(self.N_MEAS)
        b = self.BURN_IN
        return {
            "rmse_x.cdekf": np.sqrt(np.mean((X[b:] - self.x_true[b:]) ** 2, axis=0)),
            "rmse_d.cdekf": np.sqrt(np.mean((D[b:] - self.d_true[b:]) ** 2, axis=0)),
            "x_hat.cdekf": X[list(SAMPLE_STEPS)].ravel(),
            "d_hat.cdekf": D[list(SAMPLE_STEPS)].ravel(),
        }

    def check(self, outputs):
        failures = super().check(outputs)
        check_psd(f"{self.name}: cdekf P", self.final.P, failures)
        return failures


class CheckCli(Workload):
    """`uikf check properties`, `uikf check stability --config` and
    `uikf simulate --config` on a README-style YAML scenario, run in-process
    through cli.main with stdout captured."""

    name = "check-cli"
    rtol = RTOL_CSV
    # estimator steps the two check suites run: properties = 1900 r4skf.step
    # + 600 uio.observer_step; stability = 1000 r4skf.step per model for the
    # benchmark, user and square models
    PROPERTY_STEPS = 2500
    STABILITY_STEPS = 3000
    DURATION = 2.0
    ESTS = ("r4skf", "a2kf", "uio")

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        rng = _rng(seed, 4)
        seeds = sorted(int(s) for s in rng.choice(1_000_000, size=3, replace=False))
        doc = {
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
                "duration": self.DURATION,
                "seeds": seeds,
                "x0_true": [0.0, 0.0],
                "x0_hat": [1.0, 1.0],
                "estimators": list(self.ESTS),
                "rmse_skip": 0.2,
                "signals": [{"kind": "step", "t_on": 0.5, "t_off": 1.5, "amplitude": 0.5}],
            },
            "a2kf": {"window": 10},
            "uio": {"gain": [[1.0, 0.0], [0.0, 1.0]]},
        }
        self.config_path = self.out_dir / "scenario.yaml"
        with open(self.config_path, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
        self.sim_dir = self.out_dir / "simulate"
        sim_steps = int(round(self.DURATION / 0.01)) * len(seeds) * len(self.ESTS)
        cfg = str(self.config_path)
        self.commands = (
            (("check", "properties"), self.PROPERTY_STEPS),
            (("check", "stability", "--config", cfg), self.STABILITY_STEPS),
            (("simulate", "--config", cfg, "--out", str(self.sim_dir)), sim_steps),
        )
        self.op_steps = [steps for _, steps in self.commands]
        self.steps_per_pass = sum(self.op_steps)

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self):
        self._call(("simulate", "--config", str(self.config_path), "--out", str(self.sim_dir)))

    def run_pass(self):
        outputs = {}
        self.texts = {}
        self._begin_pass()
        for argv, _ in self.commands:
            res, ok = self._op(lambda: self._call(argv))
            if not ok:
                continue
            rc, out, err = res
            self.texts[argv[0] + " " + argv[1]] = (rc, out, err)
            if rc != 0:
                self.failures.append(f"{self.name}: `uikf {' '.join(argv)}` exited {rc}: {err.strip()}")
        self._calibrate()
        rc, out, _ = self.texts.get("check stability", (None, "", ""))
        rho = [float(tok.split("=")[1]) for line in out.splitlines() for tok in line.split()[1:]]
        outputs["stability.rho"] = np.array(rho)
        summary = self.sim_dir / "scenario_summary.csv"
        if summary.exists():
            with open(summary, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            for row in rows:
                vals = [float(v) for v in row[2:]]
                outputs[f"rmse_x.{row[1]}"] = np.array(vals[:2])
                outputs[f"rmse_d.{row[1]}"] = np.array(vals[2:])
            for est in self.ESTS:
                with open(self.sim_dir / f"scenario_{est}_timeseries.csv", newline="") as fh:
                    reader = csv.DictReader(fh)
                    rows = [r for i, r in enumerate(reader) if i in (49, 99, 199)]
                outputs[f"x_hat.{est}"] = np.array([float(r[c]) for r in rows for c in ("x_hat1", "x_hat2")])
                outputs[f"d_hat.{est}"] = np.array([float(r["d_hat1"]) for r in rows])
        return outputs

    def check(self, outputs):
        failures = super().check(outputs)
        rc, out, _ = self.texts.get("check properties", (None, "", ""))
        lines = out.splitlines()
        if not lines or any(not line.startswith("PASS") for line in lines):
            failures.append(f"{self.name}: property checks did not all pass:\n{out}")
        rho = outputs.get("stability.rho", np.array([]))
        if rho.size != 6 or not np.all(rho[1::2] < 1.0):
            failures.append(f"{self.name}: stability report {rho}")
        for est in self.ESTS:
            if f"rmse_x.{est}" not in outputs:
                failures.append(f"{self.name}: simulate summary lacks {est}")
        return failures


WORKLOADS = {w.name: w for w in (McPaper, StreamTv, CdNonlinear, CheckCli)}
