"""JSON configuration schema and ingestion.

A config file fully describes one link study: the span's fiber segments in
datasheet units, the system parameters, optional quadrature overrides, and
optional output/variant blocks.  Validation is strict (unknown keys are
rejected) and happens before any computation; unit conversion to SI occurs
here and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

import jsonschema

from .engine import Coherent, GnVariant, SpanScaled
from .link import FiberSegment, SpanPlan, SystemConfig
from .quadrature import QuadratureSettings
from .units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    gamma_per_w_km_to_per_w_m,
)

__all__ = ["ConfigError", "AppConfig", "CONFIG_SCHEMA", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Raised for malformed, invalid, or physically inconsistent configs."""


CONFIG_SCHEMA: Dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["span", "system"],
    "properties": {
        "span": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["name", "length_km", "attenuation_db_per_km",
                             "beta2_ps2_per_km", "gamma_per_w_km"],
                "properties": {
                    "name": {"type": "string"},
                    "length_km": {"type": "number", "exclusiveMinimum": 0},
                    "attenuation_db_per_km": {"type": "number", "minimum": 0},
                    "beta2_ps2_per_km": {"type": "number"},
                    "gamma_per_w_km": {"type": "number", "minimum": 0},
                },
            },
        },
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["spans", "symbol_rate_gbd", "channels",
                         "noise_figure_db", "wavelength_nm"],
            "properties": {
                "spans": {"type": "integer", "minimum": 1},
                "symbol_rate_gbd": {"type": "number", "exclusiveMinimum": 0},
                "channels": {"type": "integer", "minimum": 1},
                "noise_figure_db": {"type": "number"},
                "wavelength_nm": {"type": "number", "exclusiveMinimum": 0},
                "mpi_coeff_per_w": {"type": "number", "minimum": 0},
                "mpi_compensation": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta_safety": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "nodes_per_oscillation": {"type": "integer", "minimum": 2},
                "target_rel_truncation": {"type": "number", "exclusiveMinimum": 0},
                "truncation_enabled": {"type": "boolean"},
                "pole_window": {"type": "number", "exclusiveMinimum": 0},
                "workers": {"type": "integer", "minimum": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "format": {"enum": ["csv", "json"]},
                "path": {"type": "string"},
            },
        },
        "variant": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["coherent", "span_scaled"]},
                "epsilon": {"type": "number"},
            },
        },
    },
}


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
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {e.message}")

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
            variant: GnVariant = Coherent()
        else:
            variant = SpanScaled(epsilon=varraw.get("epsilon", 0.0))
    except ValueError as exc:
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


def load_config(path: str) -> AppConfig:
    """Read, validate and convert a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)
