"""Command-line front end.

Subcommands:

  reproduce --case {1,2,3}   run a benchmark case with both filters, write
                             time-series and summary CSVs, print the summary
  simulate  --config PATH    run a user scenario from a YAML config
  check     {properties,stability}
                             run the property suites / print spectral radii

Exit codes: 0 success; 1 config schema violation; 2 estimator or property
failure; 3 I/O failure. Default output directory comes from $UIKF_OUT.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import benchmark, checks, sim
from .config import load_scenario
from .errors import ConfigError, IllConditionedError, RankConditionError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ESTIMATOR = 2
EXIT_IO = 3
ESTIMATOR_FAILURES = (RankConditionError, IllConditionedError, FloatingPointError, np.linalg.LinAlgError)


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


def _run(cfg: sim.ScenarioConfig, out: Optional[str], tag: str) -> int:
    """Run a scenario, write its CSVs and print the RMSE summary."""
    try:
        result = sim.run_scenario(cfg)
    except ESTIMATOR_FAILURES as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    try:
        _write_outputs(_out_dir(out), tag, result)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_summary(tag, result)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    try:
        cfg = benchmark.benchmark_case(
            args.case,
            dt=args.dt,
            duration=args.duration,
            seeds=_parse_seeds(args.seeds),
        )
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run(cfg, args.out, f"case{args.case}")


def cmd_simulate(args) -> int:
    try:
        cfg = load_scenario(args.config)
        if args.seeds is not None:
            cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run(cfg, args.out, "scenario")


def cmd_check(args) -> int:
    if args.suite == "properties":
        results = checks.run_property_checks()
        for r in results:
            print(r.line())
        failed = [r.name for r in results if not r.passed]
        if failed:
            print("failed properties: " + ", ".join(failed), file=sys.stderr)
            return EXIT_ESTIMATOR
        return EXIT_OK

    # stability suite
    try:
        models = {"benchmark": benchmark.benchmark_model(dt=args.dt)}
        if args.config is not None:
            models["user"] = load_scenario(args.config).model
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    models["square"] = checks.square_test_model()
    ok = True
    for name, model in models.items():
        try:
            rep = checks.stability_report(model)
        except ESTIMATOR_FAILURES as exc:
            print(f"estimator failure: {name}: {exc}", file=sys.stderr)
            return EXIT_ESTIMATOR
        print(
            f"{name}: rho(A_bar)={rep['rho_A_bar']:.6g} rho(A_tilde)={rep['rho_A_tilde']:.6g}"
        )
        if rep["rho_A_tilde"] >= 1.0:
            ok = False
    return EXIT_OK if ok else EXIT_ESTIMATOR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_chk.add_argument("suite", choices=("properties", "stability"))
    p_chk.add_argument("--config", default=None, help="extra model for the stability report")
    p_chk.add_argument("--dt", type=float, default=benchmark.DEFAULT_DT)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
