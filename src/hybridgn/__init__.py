"""Nonlinear-interference coefficient and link performance for coherent
transmission over hybrid (multi-fiber-type) spans.

The public surface re-exports the configuration dataclasses, the span
derivation, the single-integral evaluator and the performance layer.
"""

from .link import DerivedSpan, FiberSegment, SpanPlan, SystemConfig, derive_span
from .kernel import fwm_efficiency, phased_array, xi
from .quadrature import (
    IntegralReport,
    QuadratureSettings,
    brute_force_gamma_integral,
    delta_rule,
    integrate_body,
    log_weighted_integral,
    refined_singular_head,
    truncation_bound,
)
from .engine import (
    Coherent,
    GnVariant,
    PerformanceCoeffs,
    SpanScaled,
    ase_coefficient,
    nl_coefficient,
    nl_coefficient_with_report,
    optimal_power,
    osnr_eff,
    performance_coeffs,
    q_factor,
)
from .sweep import (
    PowerSweepRow,
    SplitSweepRow,
    optimal_split,
    sweep_power,
    sweep_split,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedSpan",
    "FiberSegment",
    "SpanPlan",
    "SystemConfig",
    "derive_span",
    "fwm_efficiency",
    "phased_array",
    "xi",
    "IntegralReport",
    "QuadratureSettings",
    "brute_force_gamma_integral",
    "delta_rule",
    "integrate_body",
    "log_weighted_integral",
    "refined_singular_head",
    "truncation_bound",
    "Coherent",
    "GnVariant",
    "PerformanceCoeffs",
    "SpanScaled",
    "ase_coefficient",
    "nl_coefficient",
    "nl_coefficient_with_report",
    "optimal_power",
    "osnr_eff",
    "performance_coeffs",
    "q_factor",
    "PowerSweepRow",
    "SplitSweepRow",
    "optimal_split",
    "sweep_power",
    "sweep_split",
    "__version__",
]
