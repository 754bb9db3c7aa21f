"""Four-wave-mixing kernel of the nonlinear-interference integrand.

The integrand of the single-integral noise reduction factorizes as
xi(zeta) = phi(zeta) * eta(zeta): a phased-array factor phi carrying the
span-to-span coherence and an FWM efficiency eta carrying the intra-span
interference of all fiber segments.  Both are evaluated here, vectorized
over zeta.

eta keeps the dimensional factor (gamma * length)^2, so it is in 1/W^2;
phi is dimensionless and lies in [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .link import DerivedSpan

__all__ = [
    "SERIES_SWITCH",
    "fwm_efficiency",
    "phased_array",
    "xi",
]

#: Below this |x| the expm1-style quotient loses digits; switch to the series.
SERIES_SWITCH = 1e-4


def _quotient(x: np.ndarray, e: np.ndarray, may_be_small: bool = True) -> np.ndarray:
    """(1 - e) / x for e = exp(-x), by its Taylor series where |x| is small.

    With `may_be_small` False the caller guarantees |x| >= SERIES_SWITCH.
    """
    if may_be_small:
        small = np.abs(x) < SERIES_SWITCH
        if np.any(small):
            out = np.empty_like(x)
            xs = x[small]
            # 1 - x/2 + x^2/6 - x^3/24; next term is below 1e-18 at the switch.
            out[small] = 1.0 + xs * (-0.5 + xs * (1.0 / 6.0 + xs * (-1.0 / 24.0)))
            big = ~small
            out[big] = (1.0 - e[big]) / x[big]
            return out
    return (1.0 - e) / x


def _segment_amplitude(zeta: np.ndarray, d: DerivedSpan) -> np.ndarray:
    """Coherent sum of per-segment FWM amplitudes, in 1/W, per zeta value.

    Segment k has x_k = 2 (nu_k + i lam_k zeta) and contributes
    gamma_k L_k (1 - e^{-x_k}) / x_k behind the loss and phase
    e^{-sum_{m<k} x_m} of the segments in front.  One e^{-x_k} =
    e^{-2 nu_k} (cos 2 lam_k zeta - i sin 2 lam_k zeta) per segment serves
    both factors; the front factor is their running product.
    """
    amp = np.zeros(zeta.shape, dtype=complex)
    front = np.ones(zeta.shape, dtype=complex)
    for nu, lam, gamma, length in zip(d.nu, d.lam, d.gammas, d.lengths):
        theta = 2.0 * lam * zeta
        x = 2.0 * nu + 1j * theta
        e = np.empty_like(x)
        e.real, e.imag = np.cos(theta), -np.sin(theta)
        e *= math.exp(-2.0 * nu)
        amp += front * (gamma * length * _quotient(x, e, 2.0 * nu < SERIES_SWITCH))
        front *= e
    return amp


def fwm_efficiency(zeta, d: DerivedSpan):
    """FWM efficiency eta(zeta) of one span, in 1/W^2.

    eta is the squared magnitude of the phase-matched nonlinear amplitude
    accumulated across the ordered segments.  It is even in zeta, equals
    (sum_k gamma_k L_eff_k)^2 at zeta = 0, and decays like 1/zeta^2.
    """
    z = np.asarray(zeta, dtype=float)
    scalar = z.ndim == 0
    amp = _segment_amplitude(np.atleast_1d(z).ravel(), d)
    eta = (amp.real ** 2 + amp.imag ** 2).reshape(np.atleast_1d(z).shape)
    return float(eta[0]) if scalar else eta


def phased_array(zeta, n_spans: int):
    """Coherence factor phi(zeta) = sin^2(N zeta) / (N^2 sin^2 zeta).

    phi is pi-periodic, peaks at 1 on multiples of pi and averages 1/N
    elsewhere.  The ratio is taken on t = zeta - k*pi, the offset from the
    nearest pole, where sin t carries full relative precision; only t = 0
    itself (0/0) takes the limit 1.  Output is capped at 1 to absorb
    sub-eps overshoot.
    """
    if n_spans < 1:
        raise ValueError("n_spans must be >= 1")
    z = np.asarray(zeta, dtype=float)
    scalar = z.ndim == 0
    z1 = np.atleast_1d(z).ravel()

    if n_spans == 1:
        phi = np.ones_like(z1)
    else:
        t = z1 - np.pi * np.round(z1 / np.pi)
        den = n_spans * np.sin(t)
        ratio = np.divide(np.sin(n_spans * t), den, out=np.ones_like(t), where=den != 0.0)
        phi = np.minimum(ratio * ratio, 1.0)
    phi = phi.reshape(np.atleast_1d(z).shape)
    return float(phi[0]) if scalar else phi


def xi(zeta, d: DerivedSpan):
    """Full integrand factor xi = phi * eta, in 1/W^2."""
    return phased_array(zeta, d.n_spans) * fwm_efficiency(zeta, d)
