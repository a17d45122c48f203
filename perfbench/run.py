"""uikf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the library is imported from the
checkout's src/ directory. With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics from a run with the span tracer installed. See README.md in this
directory for the metrics and workloads.
"""

import os

# pin BLAS to one thread before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
TRACE_PASSES = 2

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "est_steps_per_s": ("1/s", "higher"),
    "step_us_p50": ("us", "lower"),
    "step_us_p99": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "rmse_x": ("1", "lower"),
    "rmse_d": ("1", "lower"),
}


def per_layer_units():
    from tracer import SPAN_NAMES
    from workloads import ESTIMATORS

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.us"] = "us"
        units[f"{name}.incl_us"] = "us"
        units[f"{name}.calls"] = "count"
    units["sim.generate_truth.us_per_step"] = "us"
    units["sim.csv.bytes"] = "B"
    units["cdekf.f_evals_per_step"] = "count"
    units["cdekf.h_evals_per_step"] = "count"
    units["trace.overhead_s"] = "s"
    for est in ESTIMATORS:
        units[f"rmse_x.{est}"] = "1"
        units[f"rmse_d.{est}"] = "1"
    return units


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def timing(wl):
    """Times of the complete passes, normalized by the calibration kernel.

    Each block of operations is scaled by calibration.REF_NS over the mean
    of the kernel times measured just before and just after it (see
    calibration.py for why). Returns a dict with the median normalized pass
    time (s); per operation, the median over passes of its normalized time
    per estimator step (µs), which drops stalls that hit one pass only; the
    same two unnormalized; and the median scale.
    """
    import numpy as np
    from calibration import REF_NS

    n_ops = len(wl.op_steps)
    n_blocks = n_ops // wl.BLOCK
    done = [(ops, cal) for ops, cal in zip(wl.op_ns, wl.cal_ns) if len(ops) == n_ops and len(cal) == n_blocks + 1]
    if not done:
        nan = float("nan")
        return {"wall_s": nan, "step_us": np.full(1, nan), "raw_wall_s": nan, "raw_step_us": np.full(1, nan), "scale": nan}
    raw = np.array([ops for ops, _ in done], dtype=float) / 1e9
    cal = np.array([c for _, c in done], dtype=float)
    scale = REF_NS / (0.5 * (cal[:, :-1] + cal[:, 1:]))
    norm = raw * np.repeat(scale, wl.BLOCK, axis=1)
    steps = np.array(wl.op_steps, dtype=float)
    return {
        "wall_s": float(np.median(norm.sum(axis=1))),
        "step_us": np.median(norm / steps * 1e6, axis=0),
        "raw_wall_s": float(np.median(raw.sum(axis=1))),
        "raw_step_us": np.median(raw / steps * 1e6, axis=0),
        "scale": float(np.median(scale)),
    }


def load_library():
    """Import uikf from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "uikf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no uikf package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import uikf
    import workloads  # noqa: F401
    import_s = time.perf_counter() - t0
    if src.resolve() not in Path(uikf.__file__).resolve().parents:
        raise SystemExit(f"benchmark: uikf was imported from {uikf.__file__}, not from {src}")
    return import_s


def environment(workload, seed):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version") if k in blas},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def run_passes(wl, budget_s, min_passes, max_passes=None):
    """Run passes until the next one would end after budget_s (at least
    min_passes, at most max_passes). Returns pass wall times and outputs."""
    times, outputs = [], []
    gc.collect()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.run_pass())
        times.append(time.perf_counter() - t0)
        if max_passes is not None and len(times) >= max_passes:
            break
        if len(times) >= min_passes and time.perf_counter() - start + statistics.median(times) > budget_s:
            break
    return times, outputs


def verify(wl, outputs, seed):
    """Checks on the pass outputs, in groups: determinism across passes,
    the workload's invariants, and on the default seed the reference
    outputs. Returns (groups checked, groups failed, failure messages)."""
    import numpy as np
    from workloads import DEFAULT_SEED, assert_close

    groups = []
    first = outputs[0]
    same = []
    for i, out in enumerate(outputs[1:], start=1):
        if out.keys() != first.keys() or any(not np.array_equal(out[k], first[k]) for k in first):
            same.append(f"{wl.name}: pass {i} outputs differ from pass 0 on identical inputs")
            break
    groups.append(same)
    groups.append(wl.check(first))
    if seed == DEFAULT_SEED:
        ref_fail = []
        with open(HERE / "reference.json") as fh:
            ref = json.load(fh)[wl.name]
        if set(ref) != set(first):
            ref_fail.append(f"{wl.name}: outputs {sorted(set(first) ^ set(ref))} differ from reference.json")
        for key in sorted(set(ref) & set(first)):
            assert_close(f"{wl.name}: reference {key}", first[key], ref[key], wl.rtol, ref_fail)
        groups.append(ref_fail)
    return len(groups), sum(1 for g in groups if g), [m for g in groups for m in g]


def accuracy_means(wl, outputs):
    acc = wl.accuracy(outputs) or {"none": (math.nan, math.nan)}
    return (
        statistics.fmean(x for x, _ in acc.values()),
        statistics.fmean(d for _, d in acc.values()),
        acc,
    )


def work_dir(cls):
    """A private directory for the files one run writes, removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT, prefix=f"{cls.name}-")


def untraced_run(cls, seed, seconds, import_s):
    with work_dir(cls) as work:
        return _untraced_run(cls, seed, seconds, import_s, Path(work))


def _untraced_run(cls, seed, seconds, import_s, work):
    from calibration import normalized, probe_ns

    probe = probe_ns()
    setups = [normalized(import_s, probe, probe)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed, work)
        wl.warm_up()
        elapsed = time.perf_counter() - t0
        after = probe_ns()
        setups.append(normalized(elapsed, probe, after))
        probe = after
    times, outputs = run_passes(wl, seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, failed_checks, failures = verify(wl, outputs, seed)
    rmse_x, rmse_d, acc = accuracy_means(wl, outputs[0])
    tm = timing(wl)
    metrics = {
        "setup_s": setups[0] + statistics.median(setups[1:]),
        "wall_s": tm["wall_s"],
        "est_steps_per_s": wl.steps_per_pass / tm["wall_s"],
        "step_us_p50": quantile(tm["step_us"], 0.5),
        "step_us_p99": quantile(tm["step_us"], 0.99),
        "peak_rss_mb": peak_rss_mb,
        "rmse_x": rmse_x,
        "rmse_d": rmse_d,
    }
    info = {
        "passes": len(times),
        "pass_s": times,
        "step_samples": tm["step_us"].size,
        "calibration_scale": tm["scale"],
        "unnormalized": {
            "wall_s": tm["raw_wall_s"],
            "step_us_p50": quantile(tm["raw_step_us"], 0.5),
            "step_us_p99": quantile(tm["raw_step_us"], 0.99),
        },
        "setup_runs_s": setups,
        "import_s": import_s,
        "accuracy": acc,
    }
    attempted = wl.attempted + checks
    failed = len(wl.failures) + failed_checks
    return metrics, info, attempted, failed, wl.failures + failures


def module_snapshot():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "uikf" or name.startswith("uikf.")
    }


def traced_run(cls, seed, seconds):
    with work_dir(cls) as work:
        return _traced_run(cls, seed, seconds, Path(work))


def _traced_run(cls, seed, seconds, work):
    from tracer import SPAN_NAMES, Tracer
    from workloads import ESTIMATORS

    wl = cls(seed, work)
    wl.warm_up()
    plain_times, plain_outputs = run_passes(wl, seconds / 2.0, MIN_PASSES)

    truth_steps = [0]
    csv_bytes = [0]

    def count_truth(args, result):
        truth_steps[0] += len(result.y)

    def count_bytes(args, result):
        csv_bytes[0] += os.path.getsize(args[0])

    before = module_snapshot()
    tracer = Tracer(on_return={
        "sim.generate_truth": count_truth,
        "sim.write_timeseries_csv": count_bytes,
        "sim.write_summary_csv": count_bytes,
    })
    with tracer:
        traced = cls(seed, work, tracer=tracer)
        traced.warm_up()
        traced_times, traced_outputs = run_passes(traced, 0.0, TRACE_PASSES, TRACE_PASSES)
    failures = []
    after = module_snapshot()
    if before.keys() != after.keys() or any(
        before[m].keys() != after[m].keys() or any(before[m][a] is not after[m][a] for a in before[m])
        for m in before
    ):
        failures.append("tracer: module attributes were not restored")
    tracer.write(OUT / f"spans-{cls.name}.csv.gz")

    checks_a, failed_a, fails_a = verify(wl, plain_outputs, seed)
    checks_b, failed_b, fails_b = verify(traced, traced_outputs, seed)

    summary = tracer.summary()
    metrics = {}
    for name in SPAN_NAMES:
        calls, incl_ns, self_ns = summary[name]
        metrics[f"{name}.us"] = self_ns / calls / 1e3 if calls else 0.0
        metrics[f"{name}.incl_us"] = incl_ns / calls / 1e3 if calls else 0.0
        metrics[f"{name}.calls"] = calls
    truth_ns = summary["sim.generate_truth"][2]
    metrics["sim.generate_truth.us_per_step"] = truth_ns / truth_steps[0] / 1e3 if truth_steps[0] else 0.0
    metrics["sim.csv.bytes"] = csv_bytes[0]
    cd_steps = summary["cdekf.cd_four_step"][0]
    for key in ("f", "h"):
        evals = tracer.counts.get(f"cdekf.{key}_evals", 0)
        metrics[f"cdekf.{key}_evals_per_step"] = evals / cd_steps if cd_steps else 0.0
    metrics["trace.overhead_s"] = timing(traced)["wall_s"] - timing(wl)["wall_s"]
    acc = traced.accuracy(traced_outputs[0])
    for est in ESTIMATORS:
        x, d = acc.get(est, (0.0, 0.0))
        metrics[f"rmse_x.{est}"] = x
        metrics[f"rmse_d.{est}"] = d
    info = {"untraced_passes": len(plain_times), "traced_passes": len(traced_times), "spans": len(tracer.name_id)}
    attempted = wl.attempted + traced.attempted + checks_a + checks_b + 1
    failed = len(wl.failures) + len(traced.failures) + failed_a + failed_b + len(failures)
    return metrics, info, attempted, failed, wl.failures + traced.failures + failures + fails_a + fails_b


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_s = load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))

    if args.trace:
        metrics, info, attempted, failed, messages = traced_run(cls, args.seed, args.seconds)
        units = per_layer_units()
    else:
        metrics, info, attempted, failed, messages = untraced_run(cls, args.seed, args.seconds, import_s)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    for msg in messages[:20]:
        print(f"FAILURE {msg}", file=sys.stderr)
    for name, value in metrics.items():
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} {better}")
    print(f"  {'fail_rate':<44} {failed / attempted:>16.6g} 1      lower   ({failed} of {attempted})")
    print("info " + json.dumps(info, default=str))

    # a run without a complete pass has no timings; it is reported as failed
    values = {name: metrics[name] if math.isfinite(metrics[name]) else 0.0 for name in units}
    result = {
        "correct": failed == 0 and values == metrics,
        "attempted": attempted,
        "failed": failed if values == metrics else max(failed, 1),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "info": info, **result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
