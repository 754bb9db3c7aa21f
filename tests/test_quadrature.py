import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from hybridgn import (
    QuadratureSettings,
    SpanPlan,
    brute_force_gamma_integral,
    delta_rule,
    derive_span,
    fwm_efficiency,
    integrate_body,
    log_weighted_integral,
    phased_array,
    refined_singular_head,
    truncation_bound,
    xi,
)
from hybridgn import quadrature
from hybridgn.quadrature import _HEAD_U, _HEAD_W, _gauss_legendre, _simpson_block, tail_mean
from conftest import (ATLANTIC, QSMF, SMF, TOY, fejer_log_moment, fejer_running_integral,
                      singular_head)
from test_block_driver import reference_panels


def _xi_scalar(z, d):
    return float(xi(np.array([z]), d)[0])


def _head_oracle(delta, d):
    """int_0^delta ln(zeta_max/z) xi(z) dz by adaptive quadrature, with the
    log singularity handled through the alg-loga weight."""
    plain = integrate.quad(lambda z: _xi_scalar(z, d), 0.0, delta,
                           limit=200, epsabs=1e-16, epsrel=1e-13)[0]
    weighted = integrate.quad(lambda z: _xi_scalar(z, d), 0.0, delta,
                              weight="alg-loga", wvar=(0.0, 0.0),
                              limit=200, epsabs=1e-16, epsrel=1e-13)[0]
    return math.log(d.zeta_max) * plain - weighted


# ---------------------------------------------------------------------------
# settings and head cut


def test_settings_validation():
    QuadratureSettings()
    with pytest.raises(ValueError):
        QuadratureSettings(delta_safety=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(delta_safety=1.5)
    with pytest.raises(ValueError):
        QuadratureSettings(target_rel_truncation=0.0)
    with pytest.raises(ValueError):
        QuadratureSettings(workers=0)
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="workers"):
            QuadratureSettings(workers=bad)
    assert QuadratureSettings(workers=np.int32(2))


def test_delta_rule_values(d_atlantic, d_toy, settings):
    assert delta_rule(1, d_atlantic.zeta_max, settings) == pytest.approx(
        0.1 * 3.0 * math.sqrt(3.0), rel=1e-14)
    assert delta_rule(60, d_atlantic.zeta_max, settings) == pytest.approx(
        0.008660254037844388, rel=1e-14)
    # narrow toy spectrum: the zeta_max/2 cap wins
    assert delta_rule(2, d_toy.zeta_max, settings) == 0.5 * d_toy.zeta_max


def test_delta_rule_scales_with_safety(d_atlantic):
    full = delta_rule(60, d_atlantic.zeta_max, QuadratureSettings())
    half = delta_rule(60, d_atlantic.zeta_max, QuadratureSettings(delta_safety=0.05))
    assert half == pytest.approx(0.5 * full, rel=1e-14)


@given(st.integers(1, 200), st.floats(0.05, 2000.0))
def test_delta_rule_respects_cap(n, zeta_max):
    delta = delta_rule(n, zeta_max, QuadratureSettings())
    assert 0.0 < delta <= 0.5 * zeta_max


def test_delta_rule_rejects_bad_inputs(settings):
    with pytest.raises(ValueError):
        delta_rule(0, 10.0, settings)
    with pytest.raises(ValueError):
        delta_rule(4, 0.0, settings)


# ---------------------------------------------------------------------------
# singular head


def test_head_single_span_closed_form(hybrid_span, settings):
    # with one span phi = 1, so the head is eta(0) (ln(zeta_max/d) + 1) d
    d = derive_span(hybrid_span, replace(ATLANTIC, span_count=1))
    delta = 0.01
    eta0 = fwm_efficiency(0.0, d)
    expected = eta0 * (math.log(d.zeta_max / delta) + 1.0) * delta
    assert singular_head(delta, d) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n_spans, oracle", [
    (1, 21.50112859492823),
    (4, 21.497735122550857),
    (20, 21.411135886403557),
])
def test_head_against_frozen_quadrature_oracles(hybrid_span, settings, n_spans, oracle):
    """Oracles are adaptive log-weighted quadrature values of the exact head
    integral at delta = 0.01 (see _head_oracle, which regenerates them)."""
    d = derive_span(hybrid_span, replace(ATLANTIC, span_count=n_spans))
    assert _head_oracle(0.01, d) == pytest.approx(oracle, rel=1e-9)
    assert refined_singular_head(0.01, d, settings) == pytest.approx(oracle, rel=1e-6)
    # the fully closed form freezes eta at zeta = 0 and is a little coarser
    assert singular_head(0.01, d) == pytest.approx(oracle, rel=2e-5)


def test_head_at_production_cut(d_atlantic, settings):
    delta = delta_rule(d_atlantic.n_spans, d_atlantic.zeta_max, settings)
    oracle = _head_oracle(delta, d_atlantic)
    assert oracle == pytest.approx(18.30916050846514, rel=1e-9)
    assert refined_singular_head(delta, d_atlantic, settings) == pytest.approx(
        oracle, rel=1e-6)


def test_head_respects_envelope_bound(hybrid_span, settings):
    # head <= Gamma^2/sigma^2 (ln(zeta_max/delta) + 1) delta for any delta
    for n_spans in (1, 8, 60):
        d = derive_span(hybrid_span, replace(ATLANTIC, span_count=n_spans))
        # 0.0866 lies just inside the head's domain 3*sqrt(3)/60
        for delta in (1e-3, 1e-2, 0.2 if n_spans < 60 else 0.0866):
            cap = d.gamma_bound ** 2 / d.sigma ** 2 \
                * (math.log(d.zeta_max / delta) + 1.0) * delta
            assert singular_head(delta, d) <= cap
            assert refined_singular_head(delta, d, settings) <= cap


def test_head_vanishes_with_delta(d_atlantic, settings):
    heads = [refined_singular_head(dl, d_atlantic, settings)
             for dl in (1e-6, 1e-4, 1e-2)]
    assert heads[0] < heads[1] < heads[2]
    # scale: xi(0) * delta * (ln(zeta_max/delta) + 1) ~ 4e-3 at delta = 1e-6
    assert heads[0] < 1e-2


def test_head_rejects_delta_outside_range(d_atlantic, settings):
    with pytest.raises(ValueError):
        singular_head(0.0, d_atlantic)
    with pytest.raises(ValueError):
        singular_head(2.0 * d_atlantic.zeta_max, d_atlantic)
    with pytest.raises(ValueError):
        refined_singular_head(0.0, d_atlantic, settings)


def test_head_domain_ends_at_the_largest_cut(hybrid_span, settings):
    # the head's rule holds for delta <= 3*sqrt(3)/n_spans, which is the cut
    # at delta_safety = 1; that cut must pass and anything above it fail
    for n_spans in (1, 60, 1000):
        d = derive_span(hybrid_span, replace(ATLANTIC, span_count=n_spans))
        radius = delta_rule(n_spans, d.zeta_max, QuadratureSettings(delta_safety=1.0))
        assert radius == pytest.approx(3.0 * math.sqrt(3.0) / n_spans, rel=1e-15)
        assert refined_singular_head(radius, d, settings) > 0.0
        with pytest.raises(ValueError):
            refined_singular_head(math.nextafter(radius, math.inf), d, settings)
        with pytest.raises(ValueError):
            refined_singular_head(1.01 * radius, d, settings)


def _n_phi(n):
    """n_spans * phi as its cosine sum, sharing no code with phased_array."""
    j = np.arange(1, n)
    w = 2.0 * (1.0 - j / n)
    return lambda z: 1.0 + float(np.cos(2.0 * z * j) @ w)


def test_head_rule_is_gauss_legendre():
    """The head's rule, built without LAPACK, against numpy's leggauss."""
    x, w = _gauss_legendre(80)
    ref_x, ref_w = np.polynomial.legendre.leggauss(80)
    np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(w, ref_w, rtol=0.0, atol=1e-12)


def _gauss_log_moment(x, n):
    """int_0^x ln(x/z) n*phi(z) dz by the head's Gauss rule in ln(x/z)."""
    return n * x * float(_HEAD_W @ phased_array(x * _HEAD_U, n))


@pytest.mark.parametrize("n", [1, 2, 3, 9, 60, 200, 1000])
def test_head_log_moment_matches_oracles(n):
    """The head's rule over its domain n x <= 3*sqrt(3), against the closed
    Fejer form x + sum_j (1/j - 1/N) Si(2 j x) with Si from scipy, and for
    small n against adaptive log-weighted quadrature of the cosine sum."""
    for nx in np.linspace(0.0, 3.0 * math.sqrt(3.0), 41)[1:]:
        x = nx / n
        assert _gauss_log_moment(x, n) == pytest.approx(fejer_log_moment(x, n), rel=1e-13)
    if n > 9:
        return
    for nx in (0.6, 2.2, 5.1):
        x = nx / n
        plain = integrate.quad(_n_phi(n), 0.0, x, limit=200)[0]
        logged = integrate.quad(_n_phi(n), 0.0, x, weight="alg-loga",
                                wvar=(0.0, 0.0), limit=200)[0]
        assert _gauss_log_moment(x, n) == pytest.approx(
            math.log(x) * plain - logged, rel=1e-10)


def test_fejer_antiderivatives_match_quadrature():
    """White-box check of the running Fejer antiderivative against adaptive
    quadrature of the cosine-sum integrand."""
    for n in (2, 4, 9):
        for x in (0.3, 1.1, 2.9):
            run_ref = integrate.quad(_n_phi(n), 0.0, x, limit=200)[0]
            assert fejer_running_integral(x, n) == pytest.approx(run_ref, rel=1e-12)


# ---------------------------------------------------------------------------
# body panels


def _simpson(f, a, b, n_sub):
    """The body's block Simpson rule on the one panel [a, b]."""
    return float(_simpson_block(np.zeros(1), [np.linspace(a, b, n_sub + 1)],
                                np.array([(b - a) / n_sub]), lambda z, layout: f(z))[0])


def test_body_exact_for_cubics():
    # composite Simpson integrates polynomials of degree <= 3 exactly
    val = _simpson(lambda z: z ** 2, 0.0, 2.5, 32)
    assert val == pytest.approx(2.5 ** 3 / 3.0, rel=1e-14)
    val = _simpson(lambda z: z ** 3 - z, 0.0, 2.0, 32)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_body_sine_benchmark():
    val = _simpson(np.sin, 0.0, math.pi, 32)
    assert val == pytest.approx(2.0, rel=1e-5)


def test_body_against_adaptive_quadrature(d_atlantic, settings):
    ours = integrate_body(math.pi, 2.0 * math.pi, d_atlantic, settings)
    ref = integrate.quad(
        lambda z: math.log(d_atlantic.zeta_max / z) * _xi_scalar(z, d_atlantic),
        math.pi, 2.0 * math.pi, limit=2000, epsabs=1e-14, epsrel=1e-13)[0]
    assert ours == pytest.approx(ref, rel=1e-6)


def test_body_is_additive_over_subranges(d_atlantic, settings):
    delta = 0.008660254037844388
    whole = integrate_body(delta, 3.0 * math.pi, d_atlantic, settings)
    parts = (integrate_body(delta, math.pi, d_atlantic, settings)
             + integrate_body(math.pi, 2.0 * math.pi, d_atlantic, settings)
             + integrate_body(2.0 * math.pi, 3.0 * math.pi, d_atlantic, settings))
    assert whole == pytest.approx(parts, rel=1e-13)


def test_body_node_count_convergence(d_atlantic, settings):
    """The body's rule against the same panels at three times the density."""
    ours = integrate_body(0.01, 20.0 * math.pi, d_atlantic, settings)
    fine = math.fsum(v for _, v in reference_panels(0.01, 20.0 * math.pi, d_atlantic, 48))
    assert ours == pytest.approx(fine, rel=1e-6)


def test_body_workers_bitwise_identical(d_atlantic):
    serial = integrate_body(0.01, d_atlantic.zeta_max, d_atlantic,
                            QuadratureSettings(workers=1))
    threaded = integrate_body(0.01, d_atlantic.zeta_max, d_atlantic,
                              QuadratureSettings(workers=4))
    assert serial == threaded


def test_body_input_validation(d_atlantic, settings):
    with pytest.raises(ValueError):
        integrate_body(2.0, 1.0, d_atlantic, settings)
    with pytest.raises(ValueError):
        integrate_body(0.0, 1.0, d_atlantic, settings)  # log kernel at zero
    with pytest.raises(ValueError):
        integrate_body(1.0, 2.0 * d_atlantic.zeta_max, d_atlantic, settings)


# ---------------------------------------------------------------------------
# tail bounds


def test_tail_bounds_ordered_and_decreasing(d_atlantic):
    prev_tight = math.inf
    for m in range(1, 340, 7):
        tight, loose = truncation_bound(m, d_atlantic)
        assert 0.0 < tight <= loose
        assert tight < prev_tight
        prev_tight = tight


def test_tail_bounds_frozen_table(d_atlantic):
    table = {
        5: (299.080548172872, 300.41274284387185),
        10: (125.50288958795177, 125.64301939301934),
        20: (50.52572065908266, 50.53983368205136),
        50: (13.721123106175602, 13.721736442493869),
    }
    for m, (tight, loose) in table.items():
        t, l = truncation_bound(m, d_atlantic)
        assert t == pytest.approx(tight, rel=1e-12)
        assert l == pytest.approx(loose, rel=1e-12)


def test_tail_bounds_are_sound(d_atlantic, settings):
    # the bounds certify n_spans times the discarded integral
    off = replace(settings, truncation_enabled=False)
    for m in (5, 20):
        mu = (m + 1) * math.pi
        measured = d_atlantic.n_spans * integrate_body(
            mu, d_atlantic.zeta_max, d_atlantic, off)
        tight, loose = truncation_bound(m, d_atlantic)
        assert measured <= tight <= loose


def test_tail_bound_input_validation(d_atlantic, d_toy):
    with pytest.raises(ValueError):
        truncation_bound(0, d_atlantic)
    with pytest.raises(ValueError):
        truncation_bound(400, d_atlantic)  # (m+1) pi beyond zeta_max
    with pytest.raises(ValueError):
        truncation_bound(1, d_toy)  # toy range is shorter than 2 pi


def test_lossless_segment_takes_the_tight_bound_limit():
    lossless = replace(QSMF, name="lossless", attenuation=0.0)
    d = derive_span(SpanPlan((lossless, SMF)), ATLANTIC)
    assert d.sigma == 0.0
    tight, loose = truncation_bound(20, d)
    assert tight == loose and math.isfinite(tight)
    # a vanishing loss approaches the limit from below
    faint = derive_span(SpanPlan((replace(lossless, attenuation=1e-12), SMF)), ATLANTIC)
    faint_tight, faint_loose = truncation_bound(20, faint)
    assert faint_tight <= faint_loose
    assert faint_tight == pytest.approx(tight, rel=1e-6)
    rep = log_weighted_integral(d, QuadratureSettings())
    assert math.isfinite(rep.value) and rep.value > 0.0
    assert rep.truncation_m is not None
    assert rep.tail_bound == tail_mean(rep.truncation_m, d)[2] / d.n_spans
    assert 0.0 < rep.tail_bound < 1e-4 * rep.value


def test_driver_truncation_pins(d_atlantic, d_toy, settings):
    assert log_weighted_integral(d_atlantic, settings).truncation_m == 31
    assert log_weighted_integral(d_toy, settings).truncation_m is None
    strict = replace(settings, target_rel_truncation=1e-12)
    assert log_weighted_integral(d_atlantic, strict).truncation_m is None
    loose = replace(settings, target_rel_truncation=1.0)
    rep = log_weighted_integral(d_atlantic, loose)
    assert rep.truncation_m is not None and rep.truncation_m <= 5
    assert tail_mean(rep.truncation_m, d_atlantic)[2] <= d_atlantic.n_spans * rep.value


def test_driver_stops_at_once_without_nonlinearity(hybrid_span, settings):
    # every gamma = 0: the integral and every tail bound are exactly 0, so the
    # first whole period already meets the target
    span = SpanPlan(tuple(replace(seg, gamma=0.0) for seg in hybrid_span.segments))
    d = derive_span(span, replace(ATLANTIC, channel_count=80))
    rep = log_weighted_integral(d, settings)
    assert rep.value == 0.0
    assert rep.truncation_m == 1
    assert rep.tail_bound == 0.0
    assert rep.panels_evaluated <= 20


# ---------------------------------------------------------------------------
# full driver


def test_driver_report_frozen_values(d_atlantic, settings):
    rep = log_weighted_integral(d_atlantic, settings)
    assert rep.value == pytest.approx(63.11461744386851, rel=1e-12)
    assert rep.head == pytest.approx(18.30916377708156, rel=1e-12)
    assert rep.tail_bound == pytest.approx(0.005589131839118636, rel=1e-12)
    assert rep.delta == pytest.approx(0.008660254037844388, rel=1e-14)
    assert rep.panels_evaluated == 40
    assert rep.truncation_m == 31
    assert rep.tail_mean == pytest.approx(0.10087220292435138, rel=1e-12)
    # equal dispersion weights: every beat's sine vanishes on multiples of pi
    assert abs(rep.tail_oscillation) < 1e-15 * rep.value
    assert rep.value == rep.head + rep.body


def test_driver_without_truncation(d_atlantic, settings):
    rep = log_weighted_integral(d_atlantic,
                                replace(settings, truncation_enabled=False))
    assert rep.value == pytest.approx(63.114669107166435, rel=1e-12)
    assert rep.panels_evaluated == 355
    assert rep.truncation_m is None
    assert rep.tail_bound == 0.0


def test_driver_truncation_is_certified(d_atlantic, settings):
    on = log_weighted_integral(d_atlantic, settings)
    off = log_weighted_integral(d_atlantic,
                                replace(settings, truncation_enabled=False))
    # the tail's closed form is in on.value; tail_bound bounds what remains of it
    assert abs(off.value - on.value) <= on.tail_bound


def test_driver_head_cut_stability(d_atlantic, settings):
    base = log_weighted_integral(d_atlantic, settings)
    halved = log_weighted_integral(d_atlantic,
                                   replace(settings, delta_safety=0.05))
    assert halved.value == pytest.approx(base.value, rel=1e-6)


def test_driver_workers_bitwise_identical(d_atlantic, settings):
    serial = log_weighted_integral(d_atlantic, settings)
    threaded = log_weighted_integral(d_atlantic, replace(settings, workers=8))
    assert serial.value == threaded.value
    assert serial.head == threaded.head
    assert serial.body == threaded.body
    assert serial.panels_evaluated == threaded.panels_evaluated
    assert serial.truncation_m == threaded.truncation_m


def test_driver_toy_runs_to_the_end(d_toy, settings):
    rep = log_weighted_integral(d_toy, settings)
    assert rep.truncation_m is None
    assert rep.tail_bound == 0.0
    assert d_toy.kappa * rep.value == pytest.approx(3634.0786152119913, rel=1e-12)


# ---------------------------------------------------------------------------
# 2-D brute force


def test_brute_force_grid_validation(d_toy):
    with pytest.raises(ValueError):
        brute_force_gamma_integral(d_toy, 255)
    with pytest.raises(ValueError):
        brute_force_gamma_integral(d_toy, 0)


def test_brute_force_constant_integrand(d_toy, monkeypatch):
    monkeypatch.setattr(quadrature, "xi", lambda z, d: np.ones_like(z))
    val = brute_force_gamma_integral(d_toy, 8)
    assert val == pytest.approx((d_toy.b0 / 2.0) ** 2, rel=1e-13)


def test_brute_force_bilinear_integrand(d_toy, monkeypatch):
    # with xi(z) = z the quadrant integral is (half^2/2)^2 / (2 f_phase^2)
    monkeypatch.setattr(quadrature, "xi", lambda z, d: z)
    val = brute_force_gamma_integral(d_toy, 16)
    half = d_toy.b0 / 2.0
    expected = (half * half / 2.0) ** 2 / (2.0 * d_toy.f_phase ** 2)
    assert val == pytest.approx(expected, rel=1e-13)


def test_brute_force_frozen_value_and_convergence(d_toy):
    # reference from scipy.integrate.dblquad at epsrel 1e-11:
    # quadrant integral 3.8326199977388324e+20
    v256 = brute_force_gamma_integral(d_toy, 256)
    v512 = brute_force_gamma_integral(d_toy, 512)
    assert v256 == pytest.approx(3.8326199977388324e20, rel=1e-10)
    assert v512 == pytest.approx(v256, rel=1e-11)
