"""Experiment configuration documents: loading, shape checks, resolution.

Configs are JSON key-value trees mirroring :class:`ExperimentSpec` plus
output options. This module checks the document's shape: unknown keys are
rejected with the offending path, required keys must be present, objects,
lists and strings must have their JSON type, and the numbers that become
gate angles, amplitudes, error models and sweep values must be numbers. The
spec's own fields go to :class:`ExperimentSpec` as read, and an absent one
takes the spec's default. The spec types and ranges every field and checks
cross-field consistency, reporting a problem as :class:`ConfigError` with
the same path, so a config error names exactly what to fix.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .experiments import (
    PROTOCOLS,
    SWEEPABLE,
    ConfigError,
    ExperimentSpec,
    InputSpec,
    _as_float,
    _with_parameter,
)
from .noise import FORMAT, AmplitudeErrorModel
from .protocols import GateSpec
from .statespace import BlochAxis

ENV_OUT_DIR = "HERALDSIM_OUT"


@dataclass(frozen=True)
class OutputOptions:
    directory: str
    prefix: str
    write_trajectories: bool = False
    write_branches: bool = False

    def to_dict(self) -> dict:
        return {
            "dir": self.directory,
            "prefix": self.prefix,
            "write_trajectories": self.write_trajectories,
            "write_branches": self.write_branches,
        }


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"parameter": self.parameter, "values": list(self.values)}


@dataclass(frozen=True)
class ResolvedConfig:
    spec: ExperimentSpec
    output: OutputOptions
    sweep: SweepSettings | None = None

    def to_dict(self) -> dict:
        doc = self.spec.to_dict()
        doc["output"] = self.output.to_dict()
        if self.sweep is not None:
            doc["sweep"] = self.sweep.to_dict()
        return doc


def load_config(path: str | Path) -> dict:
    """Parse a UTF-8 JSON config file; syntax errors keep their line and column."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"config file {str(path)!r} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}")


def _value(doc: dict, key: str, path: str, default=None, required: bool = False):
    """The value under ``key`` as read, or ``default`` when the key is absent."""
    if key in doc:
        return doc[key]
    if required:
        raise ConfigError(f"missing required key {key!r}", path)
    return default


def _get(doc: dict, key: str, kind: type, path: str, default=None, required: bool = False):
    """The value under ``key``, which must be a JSON ``kind`` (str, list or bool)."""
    value = _value(doc, key, path, default, required)
    if key in doc and not isinstance(value, kind):
        raise ConfigError(
            f"expected {kind.__name__}, got {type(value).__name__}", f"{path}.{key}"
        )
    return value


def _get_number(doc: dict, key: str, path: str, default=None, required: bool = False):
    value = _value(doc, key, path, default, required)
    return _as_float(value, f"{path}.{key}") if key in doc else value


def _parse_error_model(doc, path: str) -> AmplitudeErrorModel:
    if not isinstance(doc, dict):
        raise ConfigError("error_model must be an object", path)
    kind = _get(doc, "kind", str, path, required=True)
    if kind not in FORMAT:
        raise ConfigError(
            f"unknown error model kind {kind!r}; choose from {sorted(FORMAT)}",
            f"{path}.kind",
        )
    _reject_unknown(doc, {"kind", *FORMAT[kind]}, path)
    # The model keeps each number as written, so the summary echoes it
    # unchanged; it only has to fit a float.
    for key, value in doc.items():
        if key != "kind":
            _as_float(value, f"{path}.{key}")
    try:
        return AmplitudeErrorModel.from_dict(doc)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_gate(doc, path: str) -> GateSpec:
    if not isinstance(doc, dict):
        raise ConfigError("gate must be an object", path)
    _reject_unknown(doc, {"theta", "phi", "theta_gate"}, path)
    theta = _get_number(doc, "theta", path, required=True)
    phi = _get_number(doc, "phi", path, default=0.0)
    theta_gate = _get_number(doc, "theta_gate", path, required=True)
    try:
        return GateSpec(BlochAxis(theta, phi), theta_gate)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_input_state(doc, path: str) -> InputSpec:
    if not isinstance(doc, dict):
        raise ConfigError("input_state must be an object", path)
    _reject_unknown(doc, {"kind", "label", "amplitudes"}, path)
    kind = _get(doc, "kind", str, path, required=True)
    label = _get(doc, "label", str, path, default="")
    amps = None
    if "amplitudes" in doc:
        raw = doc["amplitudes"]
        if not isinstance(raw, list):
            raise ConfigError("amplitudes must be a list of [re, im] pairs", f"{path}.amplitudes")
        amps = []
        for i, pair in enumerate(raw):
            where = f"{path}.amplitudes[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError("each amplitude must be a [re, im] pair", where)
            amps.append(complex(_as_float(pair[0], where), _as_float(pair[1], where)))
    return InputSpec(kind, label, tuple(amps) if amps is not None else None)


def _parse_crosstalk(doc, path: str) -> list:
    """The ratios list as read; the spec types each ratio."""
    if not isinstance(doc, dict):
        raise ConfigError("crosstalk must be an object", path)
    _reject_unknown(doc, {"ratios"}, path)
    return _get(doc, "ratios", list, path, required=True)


def _parse_output(doc, path: str, command: str) -> OutputOptions:
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("output must be an object", path)
    _reject_unknown(doc, {"dir", "prefix", "write_trajectories", "write_branches"}, path)
    directory = _get(doc, "dir", str, path, default=os.environ.get(ENV_OUT_DIR, "."))
    prefix = _get(doc, "prefix", str, path, default=command)
    write_traj = _get(doc, "write_trajectories", bool, path, default=False)
    write_branches = _get(doc, "write_branches", bool, path, default=False)
    return OutputOptions(directory, prefix, bool(write_traj), bool(write_branches))


def _parse_sweep(doc, path: str, spec: ExperimentSpec) -> SweepSettings:
    if not isinstance(doc, dict):
        raise ConfigError("sweep must be an object", path)
    _reject_unknown(doc, {"parameter", "values"}, path)
    parameter = _get(doc, "parameter", str, path, required=True)
    if parameter not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; choose from {list(SWEEPABLE)}",
            f"{path}.parameter",
        )
    values = _get(doc, "values", list, path, required=True)
    if not values:
        raise ConfigError("values must be a non-empty list", f"{path}.values")
    out = []
    for i, v in enumerate(values):
        value = _as_float(v, f"{path}.values[{i}]")
        try:
            _with_parameter(spec, parameter, value)
        except ValueError as exc:
            raise ConfigError(str(exc), f"{path}.values[{i}]") from exc
        out.append(value)
    return SweepSettings(parameter, tuple(out))


# A config's top level holds the spec's fields by name, plus the CLI's sections.
_TOP_KEYS = {f.name for f in fields(ExperimentSpec)} | {"sweep", "output"}

_DEFAULT_INPUT = {
    "single": InputSpec("basis", "0"),
    "cz": InputSpec("basis", "gg"),
}


def parse_config(doc: dict, command: str) -> ResolvedConfig:
    """Validate a raw config tree against a CLI command and resolve defaults.

    ``command`` is one of single/cz/addressing/sweep; for sweep the protocol
    comes from the config itself.
    """
    _reject_unknown(doc, _TOP_KEYS, "$")
    protocol = _get(doc, "protocol", str, "$", default=None)
    if command == "sweep":
        if protocol is None:
            raise ConfigError("sweep configs must name a protocol", "$")
        if "sweep" not in doc:
            raise ConfigError("missing required key 'sweep'", "$")
    else:
        if protocol is None:
            protocol = command
        elif protocol != command:
            raise ConfigError(
                f"protocol {protocol!r} does not match command {command!r}",
                "$.protocol",
            )
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}", "$.protocol")

    for key, owner in (("fock_cutoff", "cz"), ("target", "addressing")):
        if key in doc and protocol != owner:
            raise ConfigError(f"{key} applies to the {owner} protocol only", f"$.{key}")
    gate = _parse_gate(doc["gate"], "$.gate") if "gate" in doc else None
    error_model = _parse_error_model(
        _value(doc, "error_model", "$", required=True), "$.error_model"
    )
    crosstalk = None
    if "crosstalk" in doc:
        crosstalk = _parse_crosstalk(doc["crosstalk"], "$.crosstalk")

    if "input_state" in doc:
        input_state = _parse_input_state(doc["input_state"], "$.input_state")
    elif protocol == "addressing":
        input_state = InputSpec("basis", "0" * len(crosstalk or ()))
    else:
        input_state = _DEFAULT_INPUT[protocol]

    spec = ExperimentSpec(
        protocol=protocol,
        error_model=error_model,
        input_state=input_state,
        trials=_value(doc, "trials", "$", required=True),
        master_seed=_value(doc, "master_seed", "$", required=True),
        gate=gate,
        crosstalk=crosstalk,
        **{
            key: doc[key]
            for key in ("selectivity", "mode", "fock_cutoff", "target")
            if key in doc
        },
    )

    sweep_settings = None
    if "sweep" in doc:
        if command != "sweep":
            raise ConfigError("sweep settings are only used by the sweep command", "$.sweep")
        sweep_settings = _parse_sweep(doc["sweep"], "$.sweep", spec)

    output = _parse_output(doc.get("output"), "$.output", command)
    return ResolvedConfig(spec, output, sweep_settings)


def format_float(x: float) -> str:
    """Fixed 17-significant-digit text form; round-trips float64 exactly."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"
