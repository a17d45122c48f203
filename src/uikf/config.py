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

from dataclasses import MISSING, fields
from typing import Any, Dict

import yaml

from .a2kf import A2KFConfig
from .errors import ConfigError
from .model import SystemModel
from .sim import ScenarioConfig, SignalSpec

SCHEMA_VERSION = 1
# libyaml's parser where PyYAML was built with it; both loaders use SafeLoader's
# constructor and resolver, so they build the same objects
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _mapping(value, field: str, keys, required=()) -> Dict[str, Any]:
    """value, a mapping whose every key is one of keys and that has every key in required."""
    if not isinstance(value, dict):
        raise ConfigError(f"{field}: must be a mapping, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{field}.{key}: unknown key, expected one of {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{field}.{key}: required field is missing")
    return value


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field}: must be a list, got {type(value).__name__}")
    return value


def _number(value, field: str):
    try:        # YAML 1.1 reads 1e-2 as text; any other value is the dataclass's to check
        return float(value) if isinstance(value, str) else value
    except ValueError as exc:
        raise ConfigError(f"{field}: not a number ({exc})") from exc


def _fields(cls, doc, field: str, convert: Dict[str, Any], given=()) -> Dict[str, Any]:
    """The mapping doc as keyword arguments of the dataclass cls, the value of a
    key in convert converted by convert[key](value, name). Every key must name
    an init field of cls not in given, which the caller passes itself, and each
    such field without a default must be present; cls checks the values."""
    keys = [f.name for f in fields(cls) if f.init and f.name not in given]
    doc = _mapping(doc, field, keys, [f.name for f in fields(cls) if f.name in keys and f.default is MISSING])
    return {key: convert[key](value, f"{field}.{key}") if key in convert else value for key, value in doc.items()}


def parse_model(doc: Dict[str, Any]) -> SystemModel:
    values = _fields(SystemModel, doc, "model", {"dt": _number})
    try:
        return SystemModel(**values)
    except ValueError as exc:           # SystemModel names the field; DimensionError included
        raise ConfigError(str(exc)) from exc


def _parse_signal(doc: Dict[str, Any], field: str) -> SignalSpec:
    values = _fields(SignalSpec, doc, field, dict.fromkeys(("t_on", "t_off", "amplitude", "f0"), _number))
    try:
        return SignalSpec(**values)
    except ConfigError as exc:          # SignalSpec names the field within the signal
        raise ConfigError(f"{field}.{exc}") from exc


def parse_a2kf(doc: Dict[str, Any]) -> A2KFConfig:
    return A2KFConfig(**_fields(A2KFConfig, doc, "a2kf", {"qd_floor": _number, "qd_init": _number}))


def parse_scenario(doc: Dict[str, Any]) -> ScenarioConfig:
    """Build the scenario of a full config document; the dataclasses convert and check the values."""
    doc = _mapping(doc, "document", ("schema", "model", "scenario", "a2kf", "uio"), ("schema", "model", "scenario"))
    if doc["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"schema: unsupported version {doc['schema']!r}, expected {SCHEMA_VERSION}")
    model = parse_model(doc["model"])
    sc = _fields(ScenarioConfig, doc["scenario"], "scenario", {
        "duration": _number, "rmse_skip": _number, "seeds": _list, "estimators": _list, "signals": _list,
    }, given=("model", "a2kf_config", "uio_gain"))
    sc["signals"] = tuple(_parse_signal(s, f"scenario.signals[{i}]") for i, s in enumerate(sc["signals"]))
    if "a2kf" in doc:
        sc["a2kf_config"] = parse_a2kf(doc["a2kf"])
    uio = _mapping(doc.get("uio", {}), "uio", ("gain",))
    if "gain" in uio:
        sc["uio_gain"] = uio["gain"]
    return ScenarioConfig(model=model, **sc)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:     # PyYAML decodes the bytes: UTF-8, or UTF-16 with its BOM
            doc = yaml.load(fh, Loader=LOADER)
    except OSError as exc:              # a file that cannot be read is a config error
        raise ConfigError(str(exc)) from exc
    except yaml.YAMLError as exc:       # its message spans several lines
        raise ConfigError(f"document: not valid YAML ({' '.join(str(exc).split())})") from exc
    return parse_scenario(doc)
