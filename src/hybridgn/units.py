"""Unit conversions for the configuration boundary.

Everything past the ingestion layer works in SI base units: lengths in m,
power attenuation in Np/m, group-velocity dispersion in s^2/m, nonlinear
coefficients in 1/(W m), frequencies in Hz, powers in W.  Datasheet-style
units (dB/km, ps^2/km, GBd, dBm) are converted exactly once, here.
"""

from __future__ import annotations

import math

#: ln(10)/10, the nepers-per-decibel factor for power quantities.
_NP_PER_DB = math.log(10.0) / 10.0


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio from dB to linear scale."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB.  Requires value > 0."""
    if value <= 0.0:
        raise ValueError(f"dB conversion requires a positive ratio, got {value!r}")
    return 10.0 * math.log10(value)


def dbm_to_watt(power_dbm: float) -> float:
    """Convert power from dBm to watts."""
    return 1e-3 * db_to_linear(power_dbm)


def watt_to_dbm(power_w: float) -> float:
    """Convert power from watts to dBm.  Requires power_w > 0."""
    return linear_to_db(power_w / 1e-3)


def attenuation_db_per_km_to_np_per_m(alpha_db_per_km: float) -> float:
    """Convert fiber power attenuation from dB/km to Np/m.

    The returned coefficient `a` satisfies P(z) = P(0) exp(-a z) for power,
    so 0.2 dB/km maps to 4.60517e-5 Np/m.
    """
    return alpha_db_per_km * _NP_PER_DB / 1e3


def beta2_ps2_per_km_to_s2_per_m(beta2_ps2_per_km: float) -> float:
    """Convert group-velocity dispersion from ps^2/km to s^2/m."""
    return beta2_ps2_per_km * 1e-27


def gamma_per_w_km_to_per_w_m(gamma_per_w_km: float) -> float:
    """Convert a nonlinear coefficient from 1/(W km) to 1/(W m)."""
    return gamma_per_w_km / 1e3

