"""The tail's closed form and its certified remainder.

Past mu = (m+1)*pi the driver adds `tail_mean`'s mean of the tail and the
leading term of its oscillation, and reports the remainder as `tail_bound`.
These tests hold all three against the untruncated body on a grid of spans,
span counts and channel counts, and hold the expansion behind them against
the kernel and against term-by-term sums.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hybridgn import (
    QuadratureSettings,
    SpanPlan,
    derive_span,
    fwm_efficiency,
    integrate_body,
    log_weighted_integral,
    truncation_bound,
)
from hybridgn.quadrature import tail_mean
from conftest import ATLANTIC, LOSSLESS, QSMF, SMF, THREE_FIBER


def _split(fraction):
    """The 100 km QSMF + SMF span with QSMF over `fraction` of its length."""
    return SpanPlan((replace(QSMF, length=fraction * 100e3),
                     replace(SMF, length=(1.0 - fraction) * 100e3)))


SPANS = {
    **{f"split {p} %": _split(p / 100.0) for p in (0.1, 1, 5, 30, 50, 90, 99)},
    "lossless first segment": SpanPlan((LOSSLESS, SMF)),
    "three segments": THREE_FIBER,
    "1 pm last segment": SpanPlan((QSMF, replace(SMF, length=1e-12))),
}

UNTRUNCATED = QuadratureSettings(truncation_enabled=False)


def _derived(span, n_spans, channels):
    return derive_span(SPANS[span], replace(ATLANTIC, span_count=n_spans,
                                            channel_count=channels))


def _largest_m(d):
    """The largest m with (m+1)*pi < zeta_max."""
    m = math.ceil(d.zeta_max / math.pi) - 2
    while not (m + 1) * math.pi < d.zeta_max:
        m -= 1
    return m


@pytest.mark.parametrize("channels", [3, 9, 80])
@pytest.mark.parametrize("n_spans", [1, 2, 60, 200])
@pytest.mark.parametrize("span", sorted(SPANS))
def test_remainder_bounds_the_tail_less_its_mean(span, n_spans, channels):
    """At 6 log-spaced truncation points, the last two periods and the
    driver's stop, |n_spans * tail - mean - oscillation| <= remainder, the
    tail integrated without truncation; the driver's value is within
    tail_bound + 1e-7 I of the untruncated integral."""
    d = _derived(span, n_spans, channels)
    m_max = _largest_m(d)
    _assert_sound(d, set(np.geomspace(1, m_max, 6).astype(int).tolist()) | {m_max - 1, m_max})


#: The QSMF + SMF span with both lengths x10: its slowest decay rate sigma is
#: about 18, so the first truncation points lie below it.
LONG = SpanPlan((replace(QSMF, length=10 * QSMF.length), replace(SMF, length=10 * SMF.length)))


@pytest.mark.parametrize("n_spans, channels", [(1, 9), (2, 9), (7, 9), (1, 3)])
def test_remainder_bounds_the_tail_where_mu_is_below_sigma(n_spans, channels):
    """As above on a span of 500 + 500 km, at m in {1, 2, 3, 7, 15} (mu below
    and near sigma), 12 log-spaced m, the driver's stop and the last period."""
    d = derive_span(LONG, replace(ATLANTIC, span_count=n_spans, channel_count=channels))
    assert 4.0 * math.pi < d.sigma  # mu at m = 1, 2, 3 lies below sigma
    m_max = _largest_m(d)
    _assert_sound(d, {1, 2, 3, 7, 15, m_max}
                  | set(np.geomspace(1, m_max, 12).astype(int).tolist()))


@pytest.mark.parametrize("channels", [9, 80])
@pytest.mark.parametrize("n_spans", [1, 2, 60])
def test_remainder_bounds_the_tail_after_a_1_pm_first_segment(n_spans, channels):
    """As above on 1 pm of QSMF in front of the SMF.  Its beat (1, 0, 0) has
    |w| = 4e-17, which the driver bounds as a term below the cut and the
    term-by-term oracles (|w| < 1e-9) would count in the mean, so this span
    is not in SPANS."""
    d = derive_span(SpanPlan((replace(QSMF, length=1e-12), SMF)),
                    replace(ATLANTIC, span_count=n_spans, channel_count=channels))
    m_max = _largest_m(d)
    _assert_sound(d, set(np.geomspace(1, m_max, 6).astype(int).tolist()) | {m_max - 1, m_max})


def _assert_sound(d, ms):
    """|n_spans * tail - mean - oscillation| <= remainder at every m of `ms`
    and at the driver's stop, the tail integrated without truncation; the
    driver's value is within tail_bound + 1e-7 I of the untruncated
    integral."""
    n_spans = d.n_spans
    rep = log_weighted_integral(d, QuadratureSettings())
    if rep.truncation_m is None:  # no power of two period before zeta_max was admissible
        assert rep.tail_bound == rep.tail_mean == rep.tail_oscillation == 0.0
    else:
        ms.add(rep.truncation_m)
    ms = np.array(sorted(ms))
    # the tails past each mu, summed from the pieces between them
    cuts = [*((ms + 1) * math.pi), d.zeta_max]
    pieces = [integrate_body(a, b, d, UNTRUNCATED) for a, b in zip(cuts[:-1], cuts[1:])]
    tails = np.cumsum(pieces[::-1])[::-1]
    mean, oscillation, remainder = tail_mean(ms, d)
    assert np.all(np.abs(n_spans * tails - mean - oscillation) <= remainder)

    full = rep.head + integrate_body(rep.delta, cuts[0], d, UNTRUNCATED) + tails[0]
    assert abs(full - rep.value) <= rep.tail_bound + 1e-7 * full
    assert rep.value == rep.head + rep.body
    if rep.truncation_m is not None:
        assert (rep.tail_mean, rep.tail_oscillation) == \
            tuple(x / n_spans for x in tail_mean(rep.truncation_m, d)[:2])


def _expansion(d):
    """Lam_j, the amplitudes b_j of z A(z) ~ sum_j b_j e^{-2i Lam_j z}, and the
    bound r of z A(z) - S(z), from the segment table."""
    lam = np.concatenate(([0.0], np.cumsum(d.lam)))
    front = np.exp(-2.0 * np.concatenate(([0.0], np.cumsum(d.nu))))
    g = np.concatenate(([0.0], d.gammas * d.lengths / d.lam, [0.0]))
    b = np.array([front[j] * (g[j + 1] - g[j]) / 2j for j in range(len(lam))])
    r = sum(d.gammas[k] * d.lengths[k] * (front[k] + front[k + 1]) * d.nu[k]
            / (2.0 * d.lam[k] ** 2) for k in range(len(d.lam)))
    return lam, b, r


@pytest.mark.parametrize("n_spans", [1, 2, 7, 60])
@pytest.mark.parametrize("span", sorted(SPANS))
def test_closed_form_mean_is_the_sum_of_the_resonant_terms(span, n_spans):
    """The mean is the sum of every term b_j conj(b_l) (1 - |n|/N) of
    phi |S|^2 at frequency 2(n - (Lam_j - Lam_l)) = 0, found by a float test
    over all of them, times int_mu^zeta_max ln(zeta_max/z)/z^2 dz."""
    d = _derived(span, n_spans, 9)
    lam, b, _ = _expansion(d)
    resonant = 0.0
    for j in range(len(b)):
        for l in range(len(b)):
            for n in range(1 - n_spans, n_spans):
                if abs(2.0 * (n - (lam[j] - lam[l]))) < 1e-9:
                    resonant += (b[j] * np.conj(b[l])).real * (1.0 - abs(n) / n_spans)
    for m in (1, 10, 100):
        mu = (m + 1) * math.pi
        weight = (math.log(d.zeta_max / mu) - 1.0) / mu + 1.0 / d.zeta_max
        assert tail_mean(m, d)[0] == pytest.approx(resonant * weight, rel=1e-12)


@pytest.mark.parametrize("n_spans", [1, 2, 7, 60])
@pytest.mark.parametrize("span", sorted(SPANS))
def test_oscillation_is_the_sum_of_the_leading_terms(span, n_spans):
    """The oscillation is Re(c i e^{i w mu} / w) g(mu), g = ln(zeta_max/z)/z^2,
    summed over every term c = b_j conj(b_l) (1 - |n|/N) of phi |S|^2 whose
    frequency w = 2(n - (Lam_j - Lam_l)) has |w| >= |g'(mu)|/g(mu), term by
    term in complex arithmetic, to 1e-9 of the sum of their magnitudes
    |c| g(mu) / |w| (the phases of the terms carry rounding of w mu)."""
    d = _derived(span, n_spans, 80)
    lam, b, _ = _expansion(d)
    for m in (1, 10, 100, 1000):
        mu = (m + 1) * math.pi
        log = math.log(d.zeta_max / mu)
        g, cut = log / mu ** 2, (1.0 + 2.0 * log) / (log * mu)
        terms = [(b[j] * np.conj(b[l]) * (1.0 - abs(n) / n_spans) * g / w,
                  np.exp(1j * w * mu))
                 for j in range(len(b)) for l in range(len(b))
                 for n in range(1 - n_spans, n_spans)
                 for w in [2.0 * (n - (lam[j] - lam[l]))] if abs(w) >= max(cut, 1e-9)]
        total = math.fsum((c * 1j * phase).real for c, phase in terms)
        scale = math.fsum(abs(c) for c, _ in terms)
        assert abs(tail_mean(m, d)[1] - total) <= 1e-9 * scale


def _log_moment(p, mu, zeta_max):
    """int_mu^zeta_max ln(zeta_max/z)/z^p dz, from the antiderivative
    z^(1-p) (ln(zeta_max/z) + 1/(1-p)) / (1-p)."""
    def antiderivative(z):
        return z ** (1 - p) * (math.log(zeta_max / z) + 1.0 / (1 - p)) / (1 - p)
    return antiderivative(zeta_max) - antiderivative(mu)


@pytest.mark.parametrize("n_spans", [1, 2, 7, 60])
@pytest.mark.parametrize("span", sorted(SPANS))
def test_remainder_is_the_sum_of_the_term_bounds(span, n_spans):
    """The remainder is, to 1e-12, tail_mean's rule applied term by term:
    each term c = b_j conj(b_l) (1 - |n|/N) of phi |S|^2 at a frequency
    w = 2(n - (Lam_j - Lam_l)) != 0 adds |c| min(G, 2 g(mu)/|w|) below
    |w| = |g'(mu)|/g(mu) and 2 |c g'(mu)|/w^2 from it on, with g =
    ln(zeta_max/z)/z^2 and G its integral past mu; and the R part adds
    pi h(mu) + int_mu h."""
    d = _derived(span, n_spans, 9)
    lam, b, r = _expansion(d)
    s = sum(abs(x) for x in b)
    for m in (1, 10, 100):
        mu = (m + 1) * math.pi
        log = math.log(d.zeta_max / mu)
        g, slope = log / mu ** 2, (1.0 + 2.0 * log) / mu ** 3
        big_g = _log_moment(2, mu, d.zeta_max)
        terms = []
        for j in range(len(b)):
            for l in range(len(b)):
                for n in range(1 - n_spans, n_spans):
                    w = abs(2.0 * (n - (lam[j] - lam[l])))
                    if w < 1e-9:  # a term of the mean
                        continue
                    c = abs(b[j] * np.conj(b[l])) * (1.0 - abs(n) / n_spans)
                    terms.append(c * min(big_g, 2.0 * g / w) if w < slope / g
                                 else 2.0 * c * slope / (w * w))
        slow = math.pi * log * (2.0 * s * r / mu ** 3 + r * r / mu ** 4) \
            + 2.0 * s * r * _log_moment(3, mu, d.zeta_max) \
            + r * r * _log_moment(4, mu, d.zeta_max)
        remainder = tail_mean(m, d)[2]
        assert remainder == pytest.approx(math.fsum(terms) + slow, rel=1e-12)


@pytest.mark.parametrize("span", sorted(SPANS))
def test_expansion_matches_the_kernel(span):
    """|z^2 eta(z) - |S(z)|^2| <= 2 s r / z + r^2 / z^2 with s = sum_j |b_j|:
    the amplitudes b_j and the bound r agree with fwm_efficiency."""
    d = _derived(span, 1, 80)
    lam, b, r = _expansion(d)
    z = np.geomspace(2.0 * math.pi, 0.9 * d.zeta_max, 2001)
    s_of_z = np.exp(-2j * np.outer(z, lam)) @ b
    s = np.sum(np.abs(b))
    gap = np.abs(z * z * fwm_efficiency(z, d) - np.abs(s_of_z) ** 2)
    assert np.all(gap <= (2.0 * s * r / z + r * r / z / z) * (1.0 + 1e-9) + 1e-12 * s * s)


#: Spans of four and five distinct fibers: (K+1)^2 (2N-1) beat terms with
#: many pairs j > l, so the sums run over wide term tables.
FOUR_FIBER = SpanPlan(THREE_FIBER.segments + (replace(SMF, name="f4", length=25e3),))
FIVE_FIBER = SpanPlan((replace(QSMF, name="f0", length=15e3),) + FOUR_FIBER.segments)


@pytest.mark.parametrize("span, n_spans", [
    ("two segments", 60),
    *((span, n) for span in ("four segments", "five segments") for n in (1, 2, 60, 200)),
])
def test_tail_mean_array_matches_scalar_calls(span, n_spans):
    """Every m of one array call gives exactly its scalar call's three values,
    its remainder below the bound on the whole tail on these spans; an m out
    of range raises, alone or in an array."""
    plan = {"two segments": SpanPlan((QSMF, SMF)), "four segments": FOUR_FIBER,
            "five segments": FIVE_FIBER}[span]
    d = derive_span(plan, replace(ATLANTIC, span_count=n_spans))
    m_max = _largest_m(d)
    ms = np.arange(1, m_max + 1)
    mean, oscillation, remainder = tail_mean(ms, d)
    assert mean.shape == oscillation.shape == remainder.shape == ms.shape
    for m, a, o, r in zip(ms.tolist(), mean.tolist(), oscillation.tolist(),
                          remainder.tolist()):
        assert (a, o, r) == tail_mean(m, d)
        assert r <= truncation_bound(m, d)[0]
    for bad in (0, m_max + 1, np.array([0, 5]), np.array([5, m_max + 1])):
        with pytest.raises(ValueError):
            tail_mean(bad, d)


def test_tail_mean_is_zero_without_nonlinearity(hybrid_span):
    span = SpanPlan(tuple(replace(seg, gamma=0.0) for seg in hybrid_span.segments))
    assert tail_mean(5, derive_span(span, ATLANTIC)) == (0.0, 0.0, 0.0)
