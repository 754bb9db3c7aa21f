import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy.constants import c as C0, h as PLANCK
from scipy.optimize import minimize_scalar
from scipy.special import erfc, erfcinv

from hybridgn import (
    Coherent,
    PerformanceCoeffs,
    SpanPlan,
    SpanScaled,
    ase_coefficient,
    nl_coefficient,
    nl_coefficient_with_report,
    optimal_power,
    osnr_eff,
    performance_coeffs,
    q_factor,
)
from hybridgn import engine
from conftest import ATLANTIC, QSMF, SMF


def optimal_power_search(coeffs: PerformanceCoeffs) -> float:
    """OSNR-maximizing power by golden-section search.

    Derivative-free, so its precision is limited to about sqrt(eps) relative
    by the flatness of the OSNR peak; an independent check of the closed
    form in :func:`optimal_power`.
    """
    seed = optimal_power(coeffs)
    res = minimize_scalar(
        lambda p: -osnr_eff(p, coeffs),
        bracket=(seed / 8.0, seed, seed * 8.0),
        method="golden",
        options={"xtol": 1e-13, "maxiter": 400},
    )
    return float(res.x)


# ---------------------------------------------------------------------------
# accumulation variants


def test_variants_coincide_for_single_span(hybrid_span, settings):
    sys1 = replace(ATLANTIC, span_count=1)
    coh = nl_coefficient(hybrid_span, sys1, Coherent(), settings)
    inc = nl_coefficient(hybrid_span, sys1, SpanScaled(0.7), settings)
    assert coh == inc


def test_span_scaled_pure_power_law(hybrid_span, settings):
    g30 = nl_coefficient(hybrid_span, replace(ATLANTIC, span_count=30),
                         SpanScaled(0.0), settings)
    g60 = nl_coefficient(hybrid_span, replace(ATLANTIC, span_count=60),
                         SpanScaled(0.0), settings)
    assert g60 == pytest.approx(2.0 * g30, rel=1e-14)


def test_span_scaled_epsilon_exponent(hybrid_span, settings):
    g0 = nl_coefficient(hybrid_span, ATLANTIC, SpanScaled(0.0), settings)
    g15 = nl_coefficient(hybrid_span, ATLANTIC, SpanScaled(0.15), settings)
    assert g15 / g0 == pytest.approx(60.0 ** 0.15, rel=1e-12)


def test_variant_frozen_values(hybrid_span, settings):
    assert nl_coefficient(hybrid_span, ATLANTIC, Coherent(), settings) \
        == pytest.approx(10016.954321045956, rel=1e-12)
    assert nl_coefficient(hybrid_span, ATLANTIC, SpanScaled(0.0), settings) \
        == pytest.approx(7195.607590481431, rel=1e-12)
    assert nl_coefficient(hybrid_span, ATLANTIC, SpanScaled(0.15), settings) \
        == pytest.approx(13298.11728006151, rel=1e-12)


def test_coherent_exceeds_incoherent_moderately(hybrid_span, settings):
    # span-to-span interference adds a coherence premium, but for a wide
    # spectrum it stays well below a factor 2
    coh = nl_coefficient(hybrid_span, ATLANTIC, Coherent(), settings)
    inc = nl_coefficient(hybrid_span, ATLANTIC, SpanScaled(0.0), settings)
    assert 1.0 < coh / inc < 2.0


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_span_scaled_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        SpanScaled(epsilon)


def test_unknown_variant_rejected(hybrid_span, settings):
    with pytest.raises(TypeError):
        nl_coefficient(hybrid_span, ATLANTIC, object(), settings)


def test_report_passthrough(hybrid_span, settings):
    gamma, d, rep = nl_coefficient_with_report(hybrid_span, ATLANTIC,
                                               Coherent(), settings)
    assert gamma == d.kappa * rep.value
    assert rep.panels_evaluated == 271
    # the span-scaled report is derived at a single span
    _, d1, _ = nl_coefficient_with_report(hybrid_span, ATLANTIC,
                                          SpanScaled(0.0), settings)
    assert d1.n_spans == 1


def test_gamma_scales_quadratically_with_kerr(hybrid_span, settings):
    boosted = SpanPlan(tuple(replace(s, gamma=2.0 * s.gamma)
                             for s in hybrid_span.segments))
    base = nl_coefficient(hybrid_span, ATLANTIC, Coherent(), settings)
    big = nl_coefficient(boosted, ATLANTIC, Coherent(), settings)
    assert big == pytest.approx(4.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# amplifier noise


def test_ase_frozen_and_hand_arithmetic(hybrid_span):
    gain = math.exp(QSMF.attenuation * 50e3 + SMF.attenuation * 50e3)
    hand = 60 * 10.0 ** 0.5 * PLANCK * (C0 / 1550e-9) * (gain - 1.0) * 32e9
    ours = ase_coefficient(hybrid_span, ATLANTIC)
    assert ours == pytest.approx(hand, rel=1e-14)
    assert ours == pytest.approx(2.9494239414354596e-05, rel=1e-12)


def test_physical_constants_are_the_exact_si_values():
    assert engine._C0 == C0
    assert engine._PLANCK == PLANCK


def test_ase_lossless_span_is_zero():
    span = SpanPlan((replace(QSMF, attenuation=0.0),))
    assert ase_coefficient(span, ATLANTIC) == 0.0


def test_ase_scales_with_span_count(hybrid_span):
    one = ase_coefficient(hybrid_span, replace(ATLANTIC, span_count=1))
    sixty = ase_coefficient(hybrid_span, ATLANTIC)
    assert sixty == pytest.approx(60.0 * one, rel=1e-14)


def test_ase_monotone_in_noise_figure(hybrid_span):
    quiet = ase_coefficient(hybrid_span, replace(ATLANTIC, noise_figure_db=4.0))
    loud = ase_coefficient(hybrid_span, replace(ATLANTIC, noise_figure_db=6.0))
    assert loud > quiet


def test_ase_linear_in_resolution_bandwidth(hybrid_span):
    narrow = ase_coefficient(hybrid_span, replace(ATLANTIC, resolution_bw=12.5e9))
    wide = ase_coefficient(hybrid_span, replace(ATLANTIC, resolution_bw=25e9))
    assert wide == pytest.approx(2.0 * narrow, rel=1e-14)


def test_performance_coeffs_fold_mpi_compensation(hybrid_span, settings):
    sys = replace(ATLANTIC, mpi_coeff=0.01, mpi_compensation=0.4)
    coeffs = performance_coeffs(hybrid_span, sys, Coherent(), settings)
    assert coeffs.mpi == pytest.approx(0.006, rel=1e-12)
    assert coeffs.ase == ase_coefficient(hybrid_span, sys)
    assert coeffs.nl == nl_coefficient(hybrid_span, sys, Coherent(), settings)


# ---------------------------------------------------------------------------
# effective OSNR


def test_osnr_eff_algebra():
    coeffs = PerformanceCoeffs(ase=2e-5, mpi=1e-3, nl=1e4)
    p = 1e-3
    expected = p / (2e-5 + 1e-3 * p + 1e4 * p ** 3)
    assert osnr_eff(p, coeffs) == pytest.approx(expected, rel=1e-14)


def test_osnr_eff_input_validation():
    coeffs = PerformanceCoeffs(ase=2e-5, mpi=0.0, nl=1e4)
    with pytest.raises(ValueError):
        osnr_eff(0.0, coeffs)
    with pytest.raises(ZeroDivisionError):
        osnr_eff(1e-3, PerformanceCoeffs(ase=0.0, mpi=0.0, nl=0.0))


@given(st.floats(1e-6, 1e-1), st.floats(1e-7, 1e-3),
       st.floats(0.0, 0.1), st.floats(1.0, 1e6))
def test_osnr_eff_decreases_with_each_noise_term(p, ase, mpi, nl):
    base = osnr_eff(p, PerformanceCoeffs(ase=ase, mpi=mpi, nl=nl))
    assert osnr_eff(p, PerformanceCoeffs(ase=2 * ase, mpi=mpi, nl=nl)) < base
    assert osnr_eff(p, PerformanceCoeffs(ase=ase, mpi=mpi + 0.01, nl=nl)) < base
    assert osnr_eff(p, PerformanceCoeffs(ase=ase, mpi=mpi, nl=2 * nl)) < base


# ---------------------------------------------------------------------------
# optimal launch power


@given(st.floats(-7.0, -3.0), st.floats(0.0, 6.0), st.floats(0.0, 0.2))
@hsettings(max_examples=100)
def test_optimal_power_stationarity(log_ase, log_nl, mpi):
    """At the optimum the ASE term equals twice the nonlinear term; the MPI
    term cancels from the derivative, so this holds for every MPI level."""
    coeffs = PerformanceCoeffs(ase=10.0 ** log_ase, mpi=mpi, nl=10.0 ** log_nl)
    p = optimal_power(coeffs)
    assert coeffs.ase == pytest.approx(2.0 * coeffs.nl * p ** 3, rel=1e-12)


@given(st.floats(-7.0, -3.0), st.floats(0.0, 6.0), st.floats(0.0, 0.2))
@hsettings(max_examples=60)
def test_optimal_power_is_a_maximum(log_ase, log_nl, mpi):
    coeffs = PerformanceCoeffs(ase=10.0 ** log_ase, mpi=mpi, nl=10.0 ** log_nl)
    p = optimal_power(coeffs)
    peak = osnr_eff(p, coeffs)
    assert peak >= osnr_eff(0.9 * p, coeffs)
    assert peak >= osnr_eff(1.1 * p, coeffs)


def test_optimal_power_ignores_mpi():
    a = optimal_power(PerformanceCoeffs(ase=3e-5, mpi=0.0, nl=1e4))
    b = optimal_power(PerformanceCoeffs(ase=3e-5, mpi=0.08, nl=1e4))
    assert a == b


def test_optimal_power_osnr_identity_without_mpi():
    coeffs = PerformanceCoeffs(ase=3e-5, mpi=0.0, nl=1e4)
    p = optimal_power(coeffs)
    assert osnr_eff(p, coeffs) == pytest.approx(p / (1.5 * coeffs.ase), rel=1e-13)


def test_optimal_power_validation():
    with pytest.raises(ValueError):
        optimal_power(PerformanceCoeffs(ase=3e-5, mpi=0.0, nl=0.0))
    with pytest.raises(ValueError):
        optimal_power(PerformanceCoeffs(ase=0.0, mpi=0.0, nl=1e4))


def test_golden_section_agrees_with_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = PerformanceCoeffs(
            ase=10.0 ** rng.uniform(-7, -3),
            mpi=rng.uniform(0.0, 0.2),
            nl=10.0 ** rng.uniform(0, 6),
        )
        exact = optimal_power(coeffs)
        searched = optimal_power_search(coeffs)
        # the peak is flat, golden section resolves about sqrt(eps) relative
        assert searched == pytest.approx(exact, rel=1e-5)


def test_atlantic_link_operating_point(hybrid_span, settings):
    coeffs = performance_coeffs(hybrid_span, ATLANTIC, Coherent(), settings)
    p = optimal_power(coeffs)
    assert p == pytest.approx(0.0011376024116960138, rel=1e-12)
    osnr = osnr_eff(p, coeffs)
    assert osnr == pytest.approx(25.713550267996897, rel=1e-12)
    assert q_factor(osnr, ATLANTIC) == pytest.approx(7.516414566464942, rel=1e-12)


# ---------------------------------------------------------------------------
# Q-factor


def test_q_factor_frozen_points():
    assert q_factor(10.0, ATLANTIC) == pytest.approx(3.8810271884059806, rel=1e-12)
    assert q_factor(15.0, ATLANTIC) == pytest.approx(5.404717044613571, rel=1e-12)
    assert q_factor(100.0, ATLANTIC) == pytest.approx(13.128203005466615, rel=1e-12)


def test_q_factor_extremes():
    # the default 16QAM map saturates at BER 3/8 < 1/2, so the low end is
    # finite; a vanishing BER gives an unbounded Q
    assert q_factor(1e-30, ATLANTIC) == pytest.approx(-9.934011469850395, rel=1e-12)
    assert q_factor(1e12, ATLANTIC) == math.inf
    with pytest.raises(ValueError):
        q_factor(0.0, ATLANTIC)


@given(st.floats(-5.0, 7.0), st.floats(0.01, 2.0))
def test_q_factor_monotone_in_osnr(log_osnr, factor):
    low = q_factor(10.0 ** log_osnr, ATLANTIC)
    high = q_factor(10.0 ** log_osnr * (1.0 + factor), ATLANTIC)
    assert high >= low


def test_q_factor_bandwidth_rescaling():
    # doubling the resolution bandwidth doubles the SNR at fixed OSNR
    wide = replace(ATLANTIC, resolution_bw=2.0 * ATLANTIC.symbol_rate)
    assert q_factor(5.0, wide) == pytest.approx(q_factor(10.0, ATLANTIC), rel=1e-13)


def test_q_factor_custom_ber_map():
    # for QPSK, BER = erfc(sqrt(SNR/2))/2, the erfc pair cancels exactly:
    # Q_dB = 10 log10(SNR), so SNR = 10 gives exactly 10 dB
    qpsk = lambda snr: 0.5 * erfc(math.sqrt(snr / 2.0))
    assert q_factor(10.0, ATLANTIC, ber_map=qpsk) == pytest.approx(10.0, rel=1e-13)
    assert q_factor(10.0, ATLANTIC, ber_map=lambda snr: 0.6) == -math.inf
    assert q_factor(10.0, ATLANTIC, ber_map=lambda snr: 0.0) == math.inf


def test_q_factor_matches_the_erfcinv_form():
    # Q = sqrt(2) erfcinv(2 BER) is computed as the standard normal quantile;
    # the two forms agree to a few ulp on linear Q down to BER = 1e-300
    for ber in np.geomspace(1e-300, 0.5, 2001)[:-1]:
        ber = float(ber)
        reference = math.sqrt(2.0) * float(erfcinv(2.0 * ber))
        q_db = q_factor(10.0, ATLANTIC, ber_map=lambda snr: ber)
        assert 10.0 ** (q_db / 20.0) == pytest.approx(reference, rel=2e-15)


def test_q_factor_nan_ber_stays_nan():
    assert math.isnan(q_factor(10.0, ATLANTIC, ber_map=lambda snr: math.nan))


def test_math_erfc_matches_scipy_on_the_16qam_range():
    # BER = 3/8 erfc(sqrt(SNR/10)) is evaluated at x = sqrt(SNR/10); up to
    # x = 20 (BER about 1e-176) the result is far from underflow.  scipy's
    # own error grows to a few 1e-14 there, math.erfc stays within 1e-15 of
    # a 40-digit reference.
    for x in np.linspace(0.0, 20.0, 2001):
        x = float(x)
        assert math.erfc(x) == pytest.approx(float(erfc(x)), rel=5e-14)
    with mpmath.workdps(40):
        for x in np.linspace(0.0, 20.0, 81):
            x = float(x)
            assert math.erfc(x) == pytest.approx(float(mpmath.erfc(x)), rel=1e-15)
