"""Four-wave-mixing kernel of the nonlinear-interference integrand.

The integrand of the single-integral noise reduction factorizes as
xi(zeta) = phi(zeta) * eta(zeta): a phased-array factor phi carrying the
span-to-span coherence and an FWM efficiency eta carrying the intra-span
interference of all fiber segments.  Both are evaluated here, vectorized
over zeta.  On a period layout zeta = s + tau (s a multiple of pi), each
segment phase is a factor of s times one of tau, built once for rows that
share tau, and phi, pi-periodic, is taken on tau alone.

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


def _buffer(work, name, shape, dtype=complex) -> np.ndarray:
    """A `shape` view of the reusable array work[name], reallocated only when
    it is too small; a new array when there is no `work` dict."""
    size = math.prod(shape)
    work = {} if work is None else work
    if name not in work or work[name].size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def _quotient(x: np.ndarray, e: np.ndarray, may_be_small: bool = True, out=None):
    """(1 - e) / x for e = exp(-x), by its Taylor series where |x| is small.

    With `may_be_small` False the caller guarantees |x| >= SERIES_SWITCH.
    """
    if may_be_small:
        small = np.abs(x) < SERIES_SWITCH
        if np.any(small):
            out = np.empty_like(x) if out is None else out
            xs = x[small]
            # 1 - x/2 + x^2/6 - x^3/24; next term is below 1e-18 at the switch.
            out[small] = 1.0 + xs * (-0.5 + xs * (1.0 / 6.0 + xs * (-1.0 / 24.0)))
            big = ~small
            out[big] = (1.0 - e[big]) / x[big]
            return out
    return np.divide(np.subtract(1.0, e, out=out), x, out=out)


def _wave(lam: float, tau) -> np.ndarray:
    """A segment's offset factor e^{-2i lam tau}."""
    return np.exp(-2j * lam * tau)


def _segment_amplitude(zeta: np.ndarray, d: DerivedSpan, s, waves, work) -> np.ndarray:
    """Coherent sum of per-segment FWM amplitudes, in 1/W, per node s + tau.

    Segment k has x_k = 2 (nu_k + i lam_k zeta) and contributes t_k =
    gamma_k L_k (1 - e^{-x_k}) / x_k behind the loss and phase
    e^{-sum_{m<k} x_m} of the segments in front, so the sum is t_1 +
    e^{-x_1} (t_2 + e^{-x_2} (... + t_K)), accumulated from the last segment
    forward.  Each e^{-x_k} is the product of e^{-2 nu_k - 2i lam_k s}, one
    per row start, and e^{-2i lam_k tau}, one per offset, from `waves`: rows
    that share their offsets take one complex exp per row and one per offset
    instead of a cos and a sin.  Without `waves`, s = 0 and tau is zeta.
    """
    amp, e, x, q = (_buffer(work, name, zeta.shape) for name in ("amp", "e", "x", "q"))
    last = len(d.lam) - 1
    for i in range(last, -1, -1):
        nu, lam = d.nu[i], d.lam[i]
        x.real.fill(2.0 * nu)
        np.multiply(zeta, 2.0 * lam, out=x.imag)
        np.multiply(np.exp(-2.0 * nu - 2j * lam * s),
                    _wave(lam, zeta) if waves is None else waves[i], out=e)
        term = _quotient(x, e, 2.0 * nu < SERIES_SWITCH, out=q if i < last else amp)
        term *= d.gammas[i] * d.lengths[i]
        if i < last:
            amp *= e
            amp += q
    return amp


def fwm_efficiency(zeta, d: DerivedSpan, layout=None, work=None):
    """FWM efficiency eta(zeta) of one span, in 1/W^2.

    eta is the squared magnitude of the phase-matched nonlinear amplitude
    accumulated across the ordered segments.  It is even in zeta, equals
    (sum_k gamma_k L_eff_k)^2 at zeta = 0, and decays like 1/zeta^2.
    `layout` and `work` are as for :func:`xi`.
    """
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    s, waves = (0.0, None) if layout is None else (layout[0][:, None], layout[2])
    amp = _segment_amplitude(z, d, s, waves, work)
    eta = np.square(amp.real, out=_buffer(work, "eta", z.shape, float))
    eta += np.square(amp.imag, out=amp.imag)
    return float(eta[0]) if np.ndim(zeta) == 0 else eta


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
    t = z - np.pi * np.round(z / np.pi)
    den = n_spans * np.sin(t)
    ratio = np.divide(np.sin(n_spans * t), den, out=np.ones_like(t), where=den != 0.0)
    phi = np.minimum(ratio * ratio, 1.0)
    return float(phi) if z.ndim == 0 else phi


def xi(zeta, d: DerivedSpan, layout=None, work=None):
    """Full integrand factor xi = phi * eta, in 1/W^2.

    A `layout` (s, tau, waves) gives the nodes as zeta = s[:, None] + tau:
    row starts s_i at multiples of pi, offsets tau with one row shared by all
    or one row each, and the list of each segment's e^{-2i lam_k tau}, built
    once for calls that share tau; phi is taken on tau.  (The body's whole
    periods carry phi in their weights, and take eta alone on a layout.)  No
    layout means s = 0, tau = zeta.  With a `work` dict the buffers are kept
    across calls, and the result is a view into them.
    """
    phi = phased_array(zeta if layout is None else layout[1], d.n_spans)
    eta = fwm_efficiency(zeta, d, layout, work)
    return phi * eta if work is None else np.multiply(phi, eta, out=eta)
