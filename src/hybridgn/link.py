"""Link description and derived per-span quantities.

A span is an ordered sequence of fiber segments traversed between two
amplifiers; a link repeats the same span `span_count` times with lumped
amplification that exactly compensates the span loss.  `derive_span`
folds the segment table and system parameters into the dimensionless
quantities the four-wave-mixing kernel and the quadrature engine consume,
so that all downstream code works with a single immutable object.

All fields are SI (m, Np/m, s^2/m, 1/(W m), Hz); use :mod:`hybridgn.units`
to convert datasheet values at the boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "FiberSegment",
    "SpanPlan",
    "SystemConfig",
    "DerivedSpan",
    "derive_span",
]


def _require_finite(owner: str, **values: float) -> None:
    """Reject NaN and infinities, which slip through every `x < 0` check."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner}: {name} must be finite, got {value}")


@dataclass(frozen=True)
class FiberSegment:
    """One homogeneous stretch of fiber inside a span.

    Attributes
    ----------
    name : str
        Label used in reports ("QSMF", "SMF", ...).
    length : float
        Segment length in m, > 0.
    attenuation : float
        Power attenuation in Np/m, >= 0.
    beta2 : float
        Group-velocity dispersion in s^2/m, != 0.
    gamma : float
        Nonlinear coefficient in 1/(W m), >= 0.
    """

    name: str
    length: float
    attenuation: float
    beta2: float
    gamma: float

    def __post_init__(self) -> None:
        _require_finite(f"segment {self.name!r}", length=self.length,
                        attenuation=self.attenuation, beta2=self.beta2, gamma=self.gamma)
        if not self.length > 0.0:
            raise ValueError(f"segment {self.name!r}: length must be > 0, got {self.length}")
        if self.attenuation < 0.0:
            raise ValueError(f"segment {self.name!r}: attenuation must be >= 0")
        if self.beta2 == 0.0:
            raise ValueError(f"segment {self.name!r}: zero dispersion is unsupported")
        if self.beta2 * self.length == 0.0:  # lam_k = 0: the tail law divides by it
            raise ValueError(f"segment {self.name!r}: dispersion x length underflows to 0")
        if self.gamma < 0.0:
            raise ValueError(f"segment {self.name!r}: gamma must be >= 0")


@dataclass(frozen=True)
class SpanPlan:
    """Ordered fiber segments of one span, amplifier to amplifier."""

    segments: Tuple[FiberSegment, ...]

    def __post_init__(self) -> None:
        if len(self.segments) == 0:
            raise ValueError("span needs at least one segment")
        signs = {s.beta2 > 0.0 for s in self.segments}
        if len(signs) > 1:
            # The tail and head bounds assume every segment rotates the FWM
            # phase in the same direction; dispersion-managed spans are out
            # of the model's validity range.
            raise ValueError("all segments in a span must share the dispersion sign")
        # lam_k as derive_span takes it: the tail law divides by lam_k^2
        b2l = np.array([s.beta2 * s.length for s in self.segments])
        for s, share in zip(self.segments, np.abs(b2l) / abs(float(np.sum(b2l)))):
            if share * share == 0.0:
                raise ValueError(f"segment {s.name!r}: its share of the span's dispersion x "
                                 f"length, {share:.3g}, underflows to 0 when squared")

    @property
    def length(self) -> float:
        """Total span length in m."""
        return float(sum(s.length for s in self.segments))


#: Most spans a link may have.  A whole period costs 24 kernel nodes at any
#: span count, but the other panels, the tail law's beat terms and the period
#: weights grow with it; far beyond this bound an integral runs out of memory.
MAX_SPAN_COUNT = 1000


@dataclass(frozen=True)
class SystemConfig:
    """Link-level transmission parameters.

    Attributes
    ----------
    span_count : int
        Number of identical spans N_s, in [1, MAX_SPAN_COUNT].
    symbol_rate : float
        Symbol rate per channel in baud.
    channel_count : int
        Number of WDM channels on the Nyquist grid, >= 1.
    noise_figure_db : float
        Amplifier noise figure in dB.
    wavelength : float
        Carrier wavelength in m.
    resolution_bw : float, optional
        OSNR resolution bandwidth in Hz; defaults to the symbol rate.
    mpi_coeff : float
        Multi-path interference coefficient: the MPI noise power is
        mpi_coeff * P for launch power P, so the value is a dimensionless
        power fraction.  Defaults to 0 (no MPI).
    mpi_compensation : float
        Fraction of the MPI removed by DSP, in [0, 1].  Defaults to 0.
    """

    span_count: int
    symbol_rate: float
    channel_count: int
    noise_figure_db: float
    wavelength: float
    resolution_bw: Optional[float] = None
    mpi_coeff: float = 0.0
    mpi_compensation: float = 0.0

    def __post_init__(self) -> None:
        # bool is an Integral; numpy integers are too
        for name, value in (("span_count", self.span_count), ("channel_count", self.channel_count)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # an int too large for a float raises OverflowError here
        _require_finite("system", span_count=self.span_count,
                        channel_count=self.channel_count, symbol_rate=self.symbol_rate,
                        noise_figure_db=self.noise_figure_db, wavelength=self.wavelength,
                        mpi_coeff=self.mpi_coeff, mpi_compensation=self.mpi_compensation)
        if self.resolution_bw is not None:
            _require_finite("system", resolution_bw=self.resolution_bw)
        if not 1 <= self.span_count <= MAX_SPAN_COUNT:
            raise ValueError(f"span_count must lie in [1, {MAX_SPAN_COUNT}]")
        if not self.symbol_rate > 0.0:
            raise ValueError("symbol_rate must be > 0")
        if self.channel_count < 1:
            raise ValueError("channel_count must be >= 1")
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be > 0")
        if self.resolution_bw is not None and not self.resolution_bw > 0.0:
            raise ValueError("resolution_bw must be > 0 when given")
        if self.mpi_coeff < 0.0:
            raise ValueError("mpi_coeff must be >= 0")
        if not 0.0 <= self.mpi_compensation <= 1.0:
            raise ValueError("mpi_compensation must lie in [0, 1]")

    @property
    def osnr_bw(self) -> float:
        """Resolution bandwidth actually used, in Hz."""
        return self.symbol_rate if self.resolution_bw is None else self.resolution_bw


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DerivedSpan:
    """Precomputed span quantities for the FWM kernel and the integrator.

    The kernel works in the dimensionless variable zeta = f1 f2 / (2 f_phase^2)
    and per-segment coordinates x_k(zeta) = 2 (nu_k + i lam_k zeta).

    Attributes
    ----------
    lengths, gammas : ndarray
        Segment lengths (m) and nonlinear coefficients (1/(W m)).
    nu : ndarray
        Per-segment field attenuation nu_k = a_k l_k / 2 (dimensionless).
    lam : ndarray
        Per-segment dispersion weights lam_k = |beta2_k| l_k / |sum_j beta2_j l_j|;
        they sum to 1.
    sigma_k : ndarray
        Dispersion-adjusted attenuations nu_k / lam_k.
    sigma : float
        min_k sigma_k, > 0; controls every decay bound.
    gamma_bound : float
        Worst-case span nonlinear strength in 1/W; together with sigma it
        bounds the FWM efficiency by gamma_bound^2 / (sigma^2 + zeta^2).
    f_phase : float
        Phased-array bandwidth of the span's length-weighted average
        dispersion, Hz.
    b0 : float
        Total optical bandwidth channel_count * symbol_rate, Hz.
    zeta_max : float
        Upper integration limit b0^2 / (8 f_phase^2).
    kappa : float
        Dimensionless prefactor turning the log-weighted kernel integral
        into the nonlinear noise coefficient (includes the span_count^2 and
        resolution-bandwidth factors).
    n_panels : int
        ceil(zeta_max / pi), the number of pi-length oscillation periods.
    n_spans : int
        Copy of the span count used to build the phased-array factor.
    """

    lengths: np.ndarray
    gammas: np.ndarray
    nu: np.ndarray
    lam: np.ndarray
    sigma_k: np.ndarray
    sigma: float
    gamma_bound: float
    f_phase: float
    b0: float
    zeta_max: float
    kappa: float
    n_panels: int
    n_spans: int


def derive_span(span: SpanPlan, sys: SystemConfig) -> DerivedSpan:
    """Fold a span plan and system config into a :class:`DerivedSpan`.

    Pure and deterministic: identical inputs give bitwise-identical fields.

    Raises
    ------
    ValueError
        If the length-weighted average dispersion vanishes (the single
        integral reduction needs a finite phased-array bandwidth).
    """
    lengths = np.array([s.length for s in span.segments], dtype=float)
    gammas = np.array([s.gamma for s in span.segments], dtype=float)
    atten = np.array([s.attenuation for s in span.segments], dtype=float)
    beta2 = np.array([s.beta2 for s in span.segments], dtype=float)

    l_span = float(np.sum(lengths))
    b2l = beta2 * lengths
    beta2_avg = float(np.sum(b2l)) / l_span
    if abs(beta2_avg) * l_span <= 1e-12 * float(np.sum(np.abs(b2l))) or beta2_avg == 0.0:
        raise ValueError("zero average dispersion is unsupported")

    f_phase = 1.0 / (2.0 * math.pi * math.sqrt(abs(beta2_avg) * l_span))

    nu = atten * lengths / 2.0
    lam = np.abs(b2l) / abs(float(np.sum(b2l)))
    sigma_k = nu / lam
    sigma = float(np.min(sigma_k))

    # Worst-case span strength: each segment contributes its nonlinear
    # weight attenuated by everything in front of it, with the slowest
    # decay rate sigma substituted throughout to keep the bound one-sided.
    prefix = np.concatenate(([0.0], np.cumsum(lam)[:-1]))
    terms = gammas * (lengths / lam) * np.exp(-2.0 * sigma * prefix) \
        * 0.5 * (1.0 + np.exp(-2.0 * lam * sigma))
    gamma_bound = float(np.sum(terms))

    b0 = sys.channel_count * sys.symbol_rate
    zeta_max = b0 * b0 / (8.0 * f_phase * f_phase)
    kappa = (128.0 / 27.0) * (f_phase / sys.symbol_rate) ** 2 \
        * (sys.osnr_bw / sys.symbol_rate) * sys.span_count ** 2
    n_panels = int(math.ceil(zeta_max / math.pi))

    return DerivedSpan(
        lengths=_readonly(lengths),
        gammas=_readonly(gammas),
        nu=_readonly(nu),
        lam=_readonly(lam),
        sigma_k=_readonly(sigma_k),
        sigma=sigma,
        gamma_bound=gamma_bound,
        f_phase=f_phase,
        b0=b0,
        zeta_max=zeta_max,
        kappa=kappa,
        n_panels=n_panels,
        n_spans=sys.span_count,
    )
