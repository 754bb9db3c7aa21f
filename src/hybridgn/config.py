"""Strict JSON reader and ingestion of config files.

A config file fully describes one link study: the span's fiber segments in
datasheet units, the system parameters, optional quadrature overrides, and
optional output/variant blocks.  Validation is strict and happens before any
computation: the reader rejects unknown and missing keys, wrong JSON types
and unknown enum values, and the model classes check every value range.
Unit conversion to SI occurs here and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from .engine import Coherent, GnVariant, SpanScaled
from .link import FiberSegment, SpanPlan, SystemConfig
from .quadrature import QuadratureSettings
from .units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    gamma_per_w_km_to_per_w_m,
)

__all__ = ["ConfigError", "AppConfig", "load_config", "parse_config", "read_config"]


class ConfigError(ValueError):
    """Raised for malformed, invalid, or physically inconsistent configs."""


class _Object(NamedTuple):
    """A JSON object: each key's kind, and the keys that must be present."""

    fields: Dict[str, Any]
    required: Tuple[str, ...] = ()


# What json.load returns for each JSON type; bool is an int subclass.
_JSON_TYPES = {
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
}

_SEGMENT = {"name": "string", "length_km": "number", "attenuation_db_per_km": "number",
            "beta2_ps2_per_km": "number", "gamma_per_w_km": "number"}

# A kind is a JSON type name, a tuple of allowed strings, a one-element list
# (a JSON array of that kind) or an _Object.  Value ranges are not listed
# here: the model classes check them.
_CONFIG = _Object({
    "span": [_Object(_SEGMENT, tuple(_SEGMENT))],
    "system": _Object({"spans": "integer", "symbol_rate_gbd": "number",
                       "channels": "integer", "noise_figure_db": "number",
                       "wavelength_nm": "number", "mpi_coeff_per_w": "number",
                       "mpi_compensation": "number"},
                      ("spans", "symbol_rate_gbd", "channels", "noise_figure_db",
                       "wavelength_nm")),
    "quadrature": _Object({"delta_safety": "number", "nodes_per_oscillation": "integer",
                           "target_rel_truncation": "number",
                           "truncation_enabled": "boolean", "workers": "integer"}),
    "output": _Object({"format": ("csv", "json"), "path": "string"}),
    "variant": _Object({"kind": ("coherent", "span_scaled"), "epsilon": "number"},
                       ("kind",)),
}, ("span", "system"))


def _check(value: Any, kind: Any, where: str) -> None:
    """Raise ConfigError unless `value` has the JSON shape `kind`."""
    def invalid(message: str) -> None:
        raise ConfigError(f"config invalid at {where or '(top level)'}: {message}")

    if isinstance(kind, _Object):
        if not isinstance(value, dict):
            invalid(f"expected an object, got {value!r}")
        for key in kind.required:
            if key not in value:
                invalid(f"missing required key {key!r}")
        for key, item in value.items():
            if key not in kind.fields:
                invalid(f"unknown key {key!r}")
            _check(item, kind.fields[key], f"{where}/{key}".lstrip("/"))
    elif isinstance(kind, list):
        if not isinstance(value, list):
            invalid(f"expected a list, got {value!r}")
        for i, item in enumerate(value):
            _check(item, kind[0], f"{where}/{i}")
    elif isinstance(kind, tuple):
        if value not in kind:
            invalid(f"{value!r} is not one of {list(kind)}")
    elif not _JSON_TYPES[kind](value):
        invalid(f"expected {kind}, got {value!r}")


@dataclass(frozen=True)
class AppConfig:
    """Validated, unit-converted view of one config file."""

    span: SpanPlan
    system: SystemConfig
    settings: QuadratureSettings
    variant: GnVariant
    output_format: str          # "csv" | "json"
    output_path: Optional[str]  # None means stdout


def parse_config(raw: Dict[str, Any]) -> AppConfig:
    """Validate a parsed JSON object and convert it to model objects."""
    _check(raw, _CONFIG, "")
    try:
        segments = tuple(
            FiberSegment(
                name=s["name"],
                length=s["length_km"] * 1e3,
                attenuation=attenuation_db_per_km_to_np_per_m(s["attenuation_db_per_km"]),
                beta2=beta2_ps2_per_km_to_s2_per_m(s["beta2_ps2_per_km"]),
                gamma=gamma_per_w_km_to_per_w_m(s["gamma_per_w_km"]),
            )
            for s in raw["span"]
        )
        span = SpanPlan(segments=segments)
        sysraw = raw["system"]
        system = SystemConfig(
            span_count=sysraw["spans"],
            symbol_rate=sysraw["symbol_rate_gbd"] * 1e9,
            channel_count=sysraw["channels"],
            noise_figure_db=sysraw["noise_figure_db"],
            wavelength=sysraw["wavelength_nm"] * 1e-9,
            mpi_coeff=sysraw.get("mpi_coeff_per_w", 0.0),
            mpi_compensation=sysraw.get("mpi_compensation", 0.0),
        )
        settings = QuadratureSettings(**raw.get("quadrature", {}))
        varraw = raw.get("variant", {"kind": "coherent"})
        if varraw["kind"] == "coherent":
            if "epsilon" in varraw:
                raise ValueError("variant/epsilon applies only to kind span_scaled")
            variant: GnVariant = Coherent()
        else:
            variant = SpanScaled(epsilon=varraw.get("epsilon", 0.0))
    except (ValueError, OverflowError) as exc:
        # OverflowError: a JSON integer too large for a float in a number key
        raise ConfigError(str(exc)) from exc

    out = raw.get("output", {})
    path = out.get("path")
    return AppConfig(
        span=span,
        system=system,
        settings=settings,
        variant=variant,
        output_format=out.get("format", "csv"),
        output_path=None if path in (None, "-", "stdout") else path,
    )


def _reject_constant(name: str) -> float:
    """json hook for the non-standard literals NaN, Infinity and -Infinity."""
    raise ConfigError(f"non-finite number {name} is not allowed in a config")


def read_config(path: str) -> Dict[str, Any]:
    """Read a JSON config file into its document, before any validation of
    its keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str) -> AppConfig:
    """Read, validate and convert a JSON config file."""
    return parse_config(read_config(path))
