"""YAML scenario configuration (schema version 1).

Matrices are written row-major as arrays of arrays. Example document:

    schema: 1
    model:
      A: [[0.0, 1.0], [0.0, 0.0]]
      B: [[0.0], [0.0]]
      E: [[1.0], [0.0]]
      G: [[1.0, 0.0], [0.0, 1.0]]
      C: [[1.0, 0.0], [0.0, 1.0]]
      Q: [[1.0e-6, 0.0], [0.0, 1.0e-6]]
      R: [[1.0e-7, 0.0], [0.0, 1.0e-7]]
      dt: 0.01
    scenario:
      duration: 5.0
      seeds: [1, 2, 3]
      x0_true: [0.0, 0.0]
      x0_hat: [1.0, 1.0]
      estimators: [r4skf, a2kf]
      signals:
        - {kind: step, t_on: 1.0, t_off: 3.0, amplitude: 0.5}
    a2kf: {window: 10}
    uio: {gain: [[1.0, 0.0], [0.0, 1.0]]}
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np
import yaml

from .a2kf import A2KFConfig
from .errors import ConfigError, DimensionError
from .model import SystemModel
from .sim import ScenarioConfig, SignalSpec

SCHEMA_VERSION = 1

_MODEL_MATRICES = ("A", "B", "E", "G", "C", "Q", "R")
_SIGNAL_KINDS = ("zero", "step", "windowed_sine", "custom")


def _require(doc: Dict[str, Any], field: str, ctx: str):
    if field not in doc:
        raise ConfigError(f"{ctx}.{field}: required field is missing")
    return doc[field]


def _mapping(value, field: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: must be a mapping, got {type(value).__name__}")
    return value


def _number(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a number ({exc})") from exc


def _matrix(value, field: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric matrix ({exc})") from exc
    if arr.ndim != 2:
        raise ConfigError(f"{field}: expected a matrix (array of arrays), got ndim={arr.ndim}")
    return arr


def _vector(value, field: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: not a numeric vector ({exc})") from exc
    if arr.ndim != 1:
        raise ConfigError(f"{field}: expected a flat array, got ndim={arr.ndim}")
    return arr


def parse_model(doc: Dict[str, Any]) -> SystemModel:
    doc = _mapping(doc, "model")
    mats = {name: _matrix(_require(doc, name, "model"), f"model.{name}") for name in _MODEL_MATRICES}
    dt = _require(doc, "dt", "model")
    if not isinstance(dt, (int, float)) or not np.isfinite(dt) or dt <= 0:
        raise ConfigError("model.dt: must be a positive finite number")
    try:
        return SystemModel(dt=float(dt), **mats)
    except (DimensionError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _parse_signal(doc: Dict[str, Any], field: str) -> SignalSpec:
    """One signal entry; every field is converted under its own name."""
    doc = _mapping(doc, field)
    kind = doc.get("kind", "zero")
    if kind not in _SIGNAL_KINDS:
        raise ConfigError(f"{field}.kind: unknown kind {kind!r}, expected one of {_SIGNAL_KINDS}")
    samples = doc.get("samples")
    if kind == "custom" and samples is None:
        raise ConfigError(f"{field}.samples: required for kind=custom")
    values = {name: _number(doc.get(name, 0.0), f"{field}.{name}") for name in ("t_on", "t_off", "amplitude", "f0")}
    samples = None if samples is None else _vector(samples, f"{field}.samples")
    try:
        return SignalSpec(kind=kind, samples=samples, **values)
    except ConfigError as exc:          # SignalSpec names the field within the signal
        raise ConfigError(f"{field}.{exc}") from exc


def parse_a2kf(doc: Dict[str, Any]) -> A2KFConfig:
    """The a2kf settings; A2KFConfig checks their values."""
    doc = _mapping(doc, "a2kf")
    window = doc.get("window", 10)
    if not isinstance(window, int) or isinstance(window, bool):
        raise ConfigError(f"a2kf.window: must be an integer, got {window!r}")
    rescale_by_dt = doc.get("rescale_by_dt", False)
    if not isinstance(rescale_by_dt, bool):
        raise ConfigError(f"a2kf.rescale_by_dt: must be true or false, got {rescale_by_dt!r}")
    return A2KFConfig(
        window=window,
        qd_floor=_number(doc.get("qd_floor", 1e-12), "a2kf.qd_floor"),
        qd_init=_number(doc.get("qd_init", 1e-6), "a2kf.qd_init"),
        rescale_by_dt=rescale_by_dt,
        negative_check=doc.get("negative_check", "post"),
    )


def parse_scenario(doc: Dict[str, Any]) -> ScenarioConfig:
    """Validate a full config document and build the scenario."""
    if not isinstance(doc, dict):
        raise ConfigError("document: top level must be a mapping")
    schema = _require(doc, "schema", "document")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {schema!r}, expected {SCHEMA_VERSION}")
    model = parse_model(_require(doc, "model", "document"))
    sc = _mapping(_require(doc, "scenario", "document"), "scenario")

    duration = _require(sc, "duration", "scenario")
    if not isinstance(duration, (int, float)):
        raise ConfigError("scenario.duration: must be a positive number")
    seeds = _require(sc, "seeds", "scenario")
    if not isinstance(seeds, list) or len(seeds) == 0 or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("scenario.seeds: must be a non-empty list of integers")
    signals_doc = _require(sc, "signals", "scenario")
    if not isinstance(signals_doc, list):
        raise ConfigError("scenario.signals: must be a list")
    signals = tuple(
        _parse_signal(s, f"scenario.signals[{i}]") for i, s in enumerate(signals_doc)
    )
    estimators = sc.get("estimators", ["r4skf", "a2kf"])
    if not isinstance(estimators, list) or len(estimators) == 0:
        raise ConfigError("scenario.estimators: must be a non-empty list")

    uio_doc = _mapping(doc.get("uio", {}), "uio")
    uio_gain = None
    if "gain" in uio_doc:
        uio_gain = _matrix(uio_doc["gain"], "uio.gain")

    try:
        return ScenarioConfig(
            model=model,
            signals=signals,
            duration=float(duration),
            seeds=tuple(seeds),
            x0_true=_vector(_require(sc, "x0_true", "scenario"), "scenario.x0_true"),
            x0_hat=_vector(_require(sc, "x0_hat", "scenario"), "scenario.x0_hat"),
            estimators=tuple(estimators),
            a2kf_config=parse_a2kf(doc.get("a2kf", {})),
            uio_gain=uio_gain,
            rmse_skip=_number(sc.get("rmse_skip", 0.0), "scenario.rmse_skip"),
        )
    except ConfigError:
        raise
    except (DimensionError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return parse_scenario(doc)
