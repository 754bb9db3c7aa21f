"""Link performance built on the nonlinear noise coefficient.

Combines the single-integral evaluator with amplifier noise and an opaque
multi-path-interference (MPI) term into the effective OSNR

    OSNR_eff(P) = P / (a_ase + b_mpi * P + g_nl * P^3)

with launch power P per channel in W, ASE power a_ase in W, dimensionless
MPI fraction b_mpi and nonlinear coefficient g_nl in 1/W^2.  On top of that
sit the optimal launch power and a Q-factor mapping for PDM-16QAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .link import DerivedSpan, SpanPlan, SystemConfig, derive_span
from .quadrature import IntegralReport, QuadratureSettings, log_weighted_integral
from .units import db_to_linear

__all__ = [
    "Coherent",
    "SpanScaled",
    "GnVariant",
    "PerformanceCoeffs",
    "nl_coefficient",
    "nl_coefficient_with_report",
    "ase_coefficient",
    "performance_coeffs",
    "osnr_eff",
    "optimal_power",
    "q_factor",
]

# Exact SI values of the speed of light (m/s) and the Planck constant (J s).
_C0 = 299792458.0
_PLANCK = 6.62607015e-34

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class Coherent:
    """Full coherent accumulation: the phased-array factor carries all
    span-to-span interference at the true span count."""


@dataclass(frozen=True)
class SpanScaled:
    """Single-span integral scaled by span_count ** (1 + epsilon).

    epsilon = 0 reproduces incoherent accumulation, small positive values
    model partially coherent growth.
    """

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")


GnVariant = Union[Coherent, SpanScaled]


@dataclass(frozen=True)
class PerformanceCoeffs:
    """Denominator coefficients of the effective OSNR."""

    ase: float   # W
    mpi: float   # dimensionless
    nl: float    # 1/W^2


def nl_coefficient_with_report(
    span: SpanPlan,
    sys: SystemConfig,
    variant: GnVariant = Coherent(),
    settings: QuadratureSettings = QuadratureSettings(),
) -> Tuple[float, DerivedSpan, IntegralReport]:
    """Nonlinear noise coefficient in 1/W^2, with the derived span and the
    quadrature report behind it.

    Raises ArithmeticError when the coefficient is not finite, for example
    when a huge gamma overflows the kernel; that error replaces numpy's
    overflow and invalid-value warnings.
    """
    if isinstance(variant, Coherent):
        link, scale = sys, 1.0
    elif isinstance(variant, SpanScaled):
        link = replace(sys, span_count=1)
        scale = float(sys.span_count) ** (1.0 + variant.epsilon)
    else:
        raise TypeError(f"unknown accumulation variant: {variant!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        d = derive_span(span, link)
        report = log_weighted_integral(d, settings)
    value = d.kappa * report.value * scale
    if not math.isfinite(value):
        raise ArithmeticError(f"gamma_nl is not finite: {value!r}")
    return value, d, report


def nl_coefficient(
    span: SpanPlan,
    sys: SystemConfig,
    variant: GnVariant = Coherent(),
    settings: QuadratureSettings = QuadratureSettings(),
) -> float:
    """Nonlinear noise coefficient g_nl in 1/W^2 for the chosen variant."""
    value, _, _ = nl_coefficient_with_report(span, sys, variant, settings)
    return value


def ase_coefficient(span: SpanPlan, sys: SystemConfig) -> float:
    """Accumulated ASE power in the OSNR resolution bandwidth, in W.

    Each amplifier exactly undoes its span loss G = exp(sum_k a_k l_k) and
    adds F * h * f_carrier * (G - 1) * osnr_bw of noise; span_count
    amplifiers contribute independently.
    """
    gain = math.exp(math.fsum(s.attenuation * s.length for s in span.segments))
    f_carrier = _C0 / sys.wavelength
    noise_factor = db_to_linear(sys.noise_figure_db)
    return sys.span_count * noise_factor * _PLANCK * f_carrier * (gain - 1.0) * sys.osnr_bw


def performance_coeffs(
    span: SpanPlan,
    sys: SystemConfig,
    variant: GnVariant = Coherent(),
    settings: QuadratureSettings = QuadratureSettings(),
) -> PerformanceCoeffs:
    """Assemble all three OSNR denominator coefficients for one link."""
    return PerformanceCoeffs(
        ase=ase_coefficient(span, sys),
        mpi=(1.0 - sys.mpi_compensation) * sys.mpi_coeff,
        nl=nl_coefficient(span, sys, variant, settings),
    )


def osnr_eff(power: float, coeffs: PerformanceCoeffs) -> float:
    """Effective OSNR (linear) at launch power `power` W per channel."""
    if not power > 0.0:
        raise ValueError("power must be > 0")
    denom = coeffs.ase + coeffs.mpi * power + coeffs.nl * power ** 3
    if denom == 0.0:
        raise ZeroDivisionError("all noise coefficients are zero")
    return power / denom


def optimal_power(coeffs: PerformanceCoeffs) -> float:
    """Launch power in W that maximizes the effective OSNR.

    Differentiating P / (a + b P + g P^3) gives the stationarity condition
    a = 2 g P^3 with the linear MPI term cancelled, so the closed form
    (a / (2 g))^(1/3) is exact for every MPI level; the tests cross-check
    it against a golden-section search of the OSNR peak.
    """
    if not coeffs.nl > 0.0:
        raise ValueError("optimal power needs a positive nonlinear coefficient")
    if not coeffs.ase > 0.0:
        raise ValueError("optimal power needs a positive ASE coefficient")
    return (coeffs.ase / (2.0 * coeffs.nl)) ** (1.0 / 3.0)


def q_factor(
    osnr: float,
    sys: SystemConfig,
    ber_map: Optional[Callable[[float], float]] = None,
) -> float:
    """Q-factor in dB from a linear effective OSNR.

    Convention: the OSNR measured in `osnr_bw` is rescaled to the symbol
    rate, mapped to a pre-FEC BER (PDM-16QAM by default,
    BER = 3/8 erfc(sqrt(SNR/10))), and the BER is re-expressed as
    Q = 20 log10(sqrt(2) erfcinv(2 BER)), computed as the standard normal
    quantile -Phi^-1(BER).  A different modulation can be injected through
    `ber_map`; BER >= 1/2 maps to -inf.
    """
    if not osnr > 0.0:
        raise ValueError("osnr must be > 0")
    snr = osnr * sys.osnr_bw / sys.symbol_rate
    ber = 0.375 * math.erfc(math.sqrt(snr / 10.0)) if ber_map is None else ber_map(snr)
    if ber >= 0.5:
        return -math.inf
    if ber <= 0.0:
        return math.inf
    return 20.0 * math.log10(-_STANDARD_NORMAL.inv_cdf(ber))
