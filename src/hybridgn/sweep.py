"""Launch-power and fiber-split sweeps over a fixed link.

The split sweep answers the deployment question "given a span length budget
and two fiber types, how much of the span should be the premium fiber":
it slides the boundary between a leading fiber (placed at the span input,
where the signal power and therefore the nonlinear distortion is highest)
and a trailing fiber.  It runs in two steps: the span physics of each split
(gamma_nl, ASE and the optimal launch power, none of which depend on MPI)
is computed once, then `apply_mpi` evaluates an MPI model on those rows at
almost no cost, so several MPI models can share one physics sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from .engine import (
    Coherent,
    GnVariant,
    _assemble_coeffs,
    optimal_power,
    osnr_eff,
    performance_coeffs,
    q_factor,
)
from .link import FiberSegment, SpanPlan, SystemConfig
from .quadrature import QuadratureSettings
from .units import dbm_to_watt

__all__ = [
    "PowerSweepRow",
    "SplitSweepRow",
    "MAX_POWER_ROWS",
    "MAX_SPLIT_STEPS",
    "power_grid_dbm",
    "sweep_power",
    "sweep_split",
    "apply_mpi",
    "split_step_count",
    "optimal_split",
    "span_with_split",
]


@dataclass(frozen=True)
class PowerSweepRow:
    power: float      # W per channel
    osnr: float       # linear
    q_db: float


@dataclass(frozen=True)
class SplitSweepRow:
    first_length: float   # m of leading fiber in the span
    split_ratio: float    # first_length / span length
    gamma_nl: float       # 1/W^2
    ase: float            # W
    mpi: float            # dimensionless
    p_opt: float          # W
    osnr_opt: float       # linear
    q_opt_db: float


#: Most launch powers one power grid may hold; a wider range or a finer step
#: is refused before any point is built.
MAX_POWER_ROWS = 100_000

#: Most steps one split sweep may take across the span; each step is one
#: gamma_nl integral, so a finer step is refused before any is made.
MAX_SPLIT_STEPS = 1000


def power_grid_dbm(p_min_dbm: float, p_max_dbm: float, p_step_db: float) -> List[float]:
    """Launch powers p_min + i*step in dBm, i = 0, 1, ..., up to p_max.

    p_max is included when it lies within 1e-9 steps past the last point.
    ValueError unless both bounds are finite with p_min <= p_max, the step is
    finite and > 0, the grid holds at most MAX_POWER_ROWS points, and both
    end points convert to a finite power > 0 W.
    """
    if not (all(map(math.isfinite, (p_min_dbm, p_max_dbm, p_step_db)))
            and p_step_db > 0 and p_min_dbm <= p_max_dbm):
        raise ValueError("power grid needs finite p_min <= p_max and a finite positive step")
    steps = (p_max_dbm - p_min_dbm) / p_step_db + 1e-9  # inf when the range overflows
    if not steps < MAX_POWER_ROWS:
        raise ValueError(f"power grid would hold more than {MAX_POWER_ROWS} points")
    grid = [p_min_dbm + i * p_step_db for i in range(int(steps) + 1)]
    try:  # 10**(p/10) raises OverflowError, or underflows to 0
        in_range = dbm_to_watt(grid[0]) > 0.0 and math.isfinite(dbm_to_watt(grid[-1]))
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError("launch powers must convert to a finite power > 0 W")
    return grid


def sweep_power(
    span: SpanPlan,
    sys: SystemConfig,
    powers: Sequence[float],
    variant: GnVariant = Coherent(),
    settings: QuadratureSettings = QuadratureSettings(),
) -> List[PowerSweepRow]:
    """Effective OSNR and Q over a launch-power grid (W per channel).

    The noise coefficients are derived once and reused for every power.
    """
    coeffs = performance_coeffs(span, sys, variant, settings)
    rows = []
    for p in powers:
        osnr = osnr_eff(p, coeffs)
        rows.append(PowerSweepRow(power=p, osnr=osnr, q_db=q_factor(osnr, sys)))
    return rows


def span_with_split(
    leading: FiberSegment,
    trailing: FiberSegment,
    span_length: float,
    first_length: float,
) -> SpanPlan:
    """Two-segment span with `first_length` of the leading fiber.

    Degenerate splits (0 or the full span) collapse to a single segment.
    """
    if not 0.0 <= first_length <= span_length:
        raise ValueError("first_length must lie in [0, span_length]")
    segments = []
    if first_length > 0.0:
        segments.append(replace(leading, length=first_length))
    if span_length - first_length > 0.0:
        segments.append(replace(trailing, length=span_length - first_length))
    return SpanPlan(segments=tuple(segments))


def split_step_count(span_length: float, step: float) -> int:
    """Number of split steps across the span.

    `step` must divide `span_length` to within 1 part in 1e9 so the sweep
    lands exactly on the endpoints, into at most MAX_SPLIT_STEPS steps;
    ValueError otherwise.
    """
    if not span_length > 0.0:
        raise ValueError("span_length must be > 0")
    if not 0.0 < step <= span_length:
        raise ValueError("step must lie in (0, span_length]")
    n_steps = span_length / step
    if not n_steps < MAX_SPLIT_STEPS + 0.5:
        raise ValueError(f"step must split the span into at most {MAX_SPLIT_STEPS} steps")
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        raise ValueError("step must divide span_length")
    return int(round(n_steps))


def sweep_split(
    leading: FiberSegment,
    trailing: FiberSegment,
    span_length: float,
    sys: SystemConfig,
    step: float,
    variant: GnVariant = Coherent(),
    settings: QuadratureSettings = QuadratureSettings(),
    mpi_model: Optional[Callable[[float], float]] = None,
) -> List[SplitSweepRow]:
    """Sweep the leading-fiber length from 0 to the full span.

    `step` is checked by `split_step_count`.  Each split's span physics
    (gamma_nl, ASE, optimal launch power) is computed once, then
    `apply_mpi(rows, sys, mpi_model)` fills in the MPI-dependent fields.
    """
    n_steps = split_step_count(span_length, step)
    rows = []
    for i in range(n_steps + 1):
        first = span_length * i / n_steps
        span = span_with_split(leading, trailing, span_length, first)
        coeffs = performance_coeffs(span, sys, variant, settings)
        rows.append(SplitSweepRow(
            first_length=first,
            split_ratio=first / span_length,
            gamma_nl=coeffs.nl,
            ase=coeffs.ase,
            mpi=coeffs.mpi,
            p_opt=optimal_power(coeffs),
            osnr_opt=math.nan,
            q_opt_db=math.nan,
        ))
    return apply_mpi(rows, sys, mpi_model)


def apply_mpi(
    rows: Sequence[SplitSweepRow],
    sys: SystemConfig,
    mpi_model: Optional[Callable[[float], float]] = None,
) -> List[SplitSweepRow]:
    """Re-evaluate split rows under another MPI model, without integrals.

    `mpi_model`, when given, maps the leading-fiber length in m to the
    (uncompensated) MPI coefficient of that row, overriding the constant
    value from `sys`; compensation from `sys` still applies.  Only `mpi`,
    `osnr_opt` and `q_opt_db` change: the optimal launch power does not
    depend on MPI (see `optimal_power`).
    """
    out = []
    for row in rows:
        row_sys = sys if mpi_model is None else replace(
            sys, mpi_coeff=mpi_model(row.first_length))
        coeffs = _assemble_coeffs(row.ase, row.gamma_nl, row_sys)
        osnr = osnr_eff(row.p_opt, coeffs)
        out.append(replace(row, mpi=coeffs.mpi, osnr_opt=osnr, q_opt_db=q_factor(osnr, row_sys)))
    return out


def optimal_split(rows: Sequence[SplitSweepRow]) -> SplitSweepRow:
    """Row with the highest optimal-power Q; ties go to the shorter
    leading-fiber length."""
    if not rows:
        raise ValueError("empty sweep")
    best = rows[0]
    for row in rows[1:]:
        if row.q_opt_db > best.q_opt_db or (
                row.q_opt_db == best.q_opt_db and row.first_length < best.first_length):
            best = row
    return best
