"""Command-line front end.

Subcommands:

  reproduce --case {1,2,3}   run a benchmark case with both filters, write
                             time-series and summary CSVs, print the summary
  simulate  --config PATH    run a user scenario from a YAML config
  check properties           run the property suites
  check stability [--dt DT] [--config PATH]
                             print the spectral radii of the stability matrices

Exit codes: 0 success; 1 config violation or bad command line; 2 estimator or
property failure; 3 I/O failure. Each failure is one stderr line (FAILURES),
never a traceback or argparse's usage text; a check suite that runs but fails
prints "failed properties: <names>" or "unstable filters: <models>" after its
stdout report. Default output directory comes from $UIKF_OUT.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import benchmark, checks, sim
from .config import load_scenario
from .errors import ESTIMATOR_FAILURES, ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ESTIMATOR = 2
EXIT_IO = 3

# failure -> (exit code, stderr prefix), the first match wins: np.linalg.LinAlgError
# is a ValueError, so the estimator row comes first
FAILURES = (
    (ESTIMATOR_FAILURES, EXIT_ESTIMATOR, "estimator failure: "),
    # ConfigError and DimensionError included; a MemoryError is a scenario too large to allocate
    ((ValueError, MemoryError), EXIT_CONFIG, "config error: "),
    (OSError, EXIT_IO, "i/o failure: "),
)


def _parse_seeds(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--seeds: expected comma-separated integers ({exc})") from exc


def _out_dir(arg: Optional[str]) -> Path:
    out = arg or os.environ.get("UIKF_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print_summary(tag: str, result: sim.ScenarioResult):
    model = result.config.model
    cols = [f"x{i + 1}" for i in range(model.n_x)] + [f"d{j + 1}" for j in range(model.n_d)]
    print(f"{tag}: seed-averaged RMSE ({len(result.config.seeds)} seeds)")
    print("  estimator  " + "  ".join(f"{c:>12}" for c in cols))
    for est in result.config.estimators:
        vals = list(result.rmse_mean[est]["x"]) + list(result.rmse_mean[est]["d"])
        print(f"  {est:<9}  " + "  ".join(f"{v:>12.6g}" for v in vals))


def _write_outputs(out: Path, tag: str, result: sim.ScenarioResult) -> None:
    for est in result.config.estimators:
        sim.write_timeseries_csv(out / f"{tag}_{est}_timeseries.csv", result, est)
    sim.write_summary_csv(out / f"{tag}_summary.csv", {tag: result})


def _run(cfg: sim.ScenarioConfig, args, tag: str) -> int:
    """Run a scenario on the seeds of --seeds, if given, write its CSVs and print the RMSE summary."""
    seeds = _parse_seeds(args.seeds)
    if seeds is not None:
        cfg = replace(cfg, seeds=seeds)
    result = sim.run_scenario(cfg)
    _write_outputs(_out_dir(args.out), tag, result)
    _print_summary(tag, result)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cfg = benchmark.benchmark_case(args.case, dt=args.dt, duration=args.duration)
    return _run(cfg, args, f"case{args.case}")


def cmd_simulate(args) -> int:
    return _run(load_scenario(args.config), args, "scenario")


def _verdict(label: str, failed) -> int:
    """EXIT_OK, or one stderr line "<label>: <names>" and EXIT_ESTIMATOR for a suite with failures."""
    if failed:
        print(f"{label}: " + ", ".join(failed), file=sys.stderr)
        return EXIT_ESTIMATOR
    return EXIT_OK


def cmd_properties(args) -> int:
    results = checks.run_property_checks()
    for r in results:
        print(r.line())
    return _verdict("failed properties", [r.name for r in results if not r.passed])


def cmd_stability(args) -> int:
    models = {"benchmark": benchmark.benchmark_model(dt=args.dt)}
    if args.config is not None:
        models["user"] = load_scenario(args.config).model
    models["square"] = checks.square_test_model()
    unstable = []
    for name, model in models.items():
        try:
            rep = checks.stability_report(model)
        except ESTIMATOR_FAILURES as exc:   # the same failure, naming the model
            raise type(exc)(f"{name}: {exc}") from exc
        print(f"{name}: rho(A_bar)={rep['rho_A_bar']:.6g} rho(A_tilde)={rep['rho_A_tilde']:.6g}")
        if rep["rho_A_tilde"] >= 1.0:
            unstable.append(name)
    return _verdict("unstable filters", unstable)


class _Parser(argparse.ArgumentParser):
    def error(self, message):           # a bad command line is a config error: one line, exit 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uikf",
        description="State and unknown-input estimation for continuous-discrete systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser("reproduce", help="run a built-in benchmark case")
    p_rep.add_argument("--case", type=int, required=True, choices=(1, 2, 3))
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_rep.add_argument("--dt", type=float, default=benchmark.DEFAULT_DT)
    p_rep.add_argument("--duration", type=float, default=benchmark.DEFAULT_DURATION)
    p_rep.set_defaults(func=cmd_reproduce)

    p_sim = sub.add_parser("simulate", help="run a user scenario from YAML config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check", help="run property or stability suites")
    suites = p_chk.add_subparsers(dest="suite", required=True)
    suites.add_parser("properties", help="run the property suites").set_defaults(func=cmd_properties)
    p_stab = suites.add_parser("stability", help="print the spectral radii of the stability matrices")
    p_stab.add_argument("--config", default=None, help="extra model for the stability report")
    p_stab.add_argument("--dt", type=float, default=benchmark.DEFAULT_DT)
    p_stab.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    """Run one command line; a failure is one stderr line and the exit code of its row of FAILURES."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:
        for types, code, prefix in FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
