import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from hybridgn import FiberSegment, SpanPlan, SystemConfig, derive_span
from conftest import ATLANTIC, QSMF, SMF, span_plans


def _ok_segment(**kw):
    base = dict(name="f", length=1e3, attenuation=2e-5, beta2=-2.66e-26,
                gamma=1.3e-3)
    base.update(kw)
    return FiberSegment(**base)


def test_segment_field_validation():
    _ok_segment()
    with pytest.raises(ValueError):
        _ok_segment(length=0.0)
    with pytest.raises(ValueError):
        _ok_segment(attenuation=-1e-9)
    with pytest.raises(ValueError):
        _ok_segment(beta2=0.0)
    with pytest.raises(ValueError):
        _ok_segment(gamma=-1e-9)


@pytest.mark.parametrize("field", ["length", "attenuation", "beta2", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_segment_rejects_non_finite_fields(field, value):
    # NaN passes every `x < 0` check, so it needs its own rejection
    with pytest.raises(ValueError, match="finite"):
        _ok_segment(**{field: value})


def test_span_rejects_empty():
    with pytest.raises(ValueError):
        SpanPlan(segments=())


def test_span_rejects_mixed_dispersion_signs():
    with pytest.raises(ValueError, match="dispersion sign"):
        SpanPlan((_ok_segment(), _ok_segment(beta2=2.66e-26)))


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_span_rejects_a_dispersion_share_that_underflows(position):
    """A segment of beta2 -1e-302 s^2/m and 1e-20 m next to one of -1e-3
    s^2/m and 100 km has a share lam_k of the span's dispersion x length of
    1e-324, which is 0 in floats; derive_span and the tail law divide by it.
    The span refuses it, naming the segment."""
    tiny = _ok_segment(name="tiny", length=1e-20, beta2=-1e-302)
    segments = [_ok_segment(name="long", length=100e3, beta2=-1e-3)]
    segments.insert(len(segments) if position == -1 else 0, tiny)
    with pytest.raises(ValueError, match="segment 'tiny'.*underflows"):
        SpanPlan(tuple(segments))


def test_span_length_sums_segments(hybrid_span):
    assert hybrid_span.length == pytest.approx(100e3, rel=1e-15)


def test_system_validation():
    with pytest.raises(ValueError):
        replace(ATLANTIC, span_count=0)
    with pytest.raises(ValueError):
        replace(ATLANTIC, symbol_rate=0.0)
    with pytest.raises(ValueError):
        replace(ATLANTIC, channel_count=0)
    with pytest.raises(ValueError):
        replace(ATLANTIC, wavelength=0.0)
    with pytest.raises(ValueError):
        replace(ATLANTIC, resolution_bw=0.0)
    with pytest.raises(ValueError):
        replace(ATLANTIC, mpi_coeff=-1e-6)
    with pytest.raises(ValueError):
        replace(ATLANTIC, mpi_compensation=1.5)


@pytest.mark.parametrize("key, bad", [("span_count", 60.5), ("span_count", 60.0),
                                      ("span_count", True), ("channel_count", 9.5),
                                      ("channel_count", np.float64(9.0))])
def test_system_rejects_fractional_counts(key, bad):
    # a fractional span count used to reach the phased-array factor:
    # span_count=60.5 gave gamma_nl = 10106.1, between 10017.0 at 60 and
    # 10195.8 at 61
    with pytest.raises(ValueError, match=key):
        replace(ATLANTIC, **{key: bad})
    assert replace(ATLANTIC, span_count=np.int64(60), channel_count=np.int32(9))


@pytest.mark.parametrize("field", ["symbol_rate", "noise_figure_db", "wavelength",
                                   "resolution_bw", "mpi_coeff", "mpi_compensation"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_system_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match="finite"):
        replace(ATLANTIC, **{field: value})


def test_osnr_bw_defaults_to_symbol_rate():
    assert ATLANTIC.osnr_bw == ATLANTIC.symbol_rate
    assert replace(ATLANTIC, resolution_bw=12.5e9).osnr_bw == 12.5e9


def test_derived_phase_bandwidth_from_first_principles(d_atlantic):
    # f_phase = 1 / (2 pi sqrt(|beta2_avg| l_span)) with the length-weighted
    # average dispersion of the two equal 50 km segments
    expected = 1.0 / (2.0 * math.pi * math.sqrt(2.66e-26 * 100e3))
    assert d_atlantic.f_phase == pytest.approx(expected, rel=1e-14)
    assert d_atlantic.f_phase == pytest.approx(3085881986.6543927, rel=1e-12)


def test_derived_integration_limit_identity(d_atlantic):
    b0 = 9 * 32e9
    assert d_atlantic.b0 == pytest.approx(b0, rel=1e-15)
    assert d_atlantic.zeta_max == pytest.approx(
        b0 * b0 / (8.0 * d_atlantic.f_phase ** 2), rel=1e-14)
    assert d_atlantic.zeta_max == pytest.approx(1088.770541700461, rel=1e-12)
    assert d_atlantic.n_panels == 347
    assert d_atlantic.n_panels == math.ceil(d_atlantic.zeta_max / math.pi)


def test_derived_prefactor_identity(d_atlantic):
    sys = ATLANTIC
    expected = (128.0 / 27.0) * (d_atlantic.f_phase / sys.symbol_rate) ** 2 \
        * (sys.osnr_bw / sys.symbol_rate) * sys.span_count ** 2
    assert d_atlantic.kappa == pytest.approx(expected, rel=1e-14)
    assert d_atlantic.kappa == pytest.approx(158.71112725930098, rel=1e-12)


def test_derived_segment_quantities(d_atlantic):
    # equal lengths and equal dispersion: lam = [1/2, 1/2]
    assert np.allclose(d_atlantic.lam, [0.5, 0.5], rtol=0, atol=1e-15)
    nu_expected = np.array([QSMF.attenuation, SMF.attenuation]) * 50e3 / 2.0
    assert np.allclose(d_atlantic.nu, nu_expected, rtol=1e-14)
    assert np.allclose(d_atlantic.sigma_k,
                       [1.842068074395237, 1.8190422234652963], rtol=1e-12)
    assert d_atlantic.sigma == min(d_atlantic.sigma_k)


def test_derived_strength_bound_by_hand(d_atlantic):
    # Gamma = sum_k gamma_k (l_k/lam_k) e^{-2 sigma prefix_k}
    #               * (1 + e^{-2 lam_k sigma}) / 2
    s = d_atlantic.sigma
    total = 0.0
    prefix = 0.0
    for k in range(2):
        lam = d_atlantic.lam[k]
        total += d_atlantic.gammas[k] * (d_atlantic.lengths[k] / lam) \
            * math.exp(-2.0 * s * prefix) * 0.5 * (1.0 + math.exp(-2.0 * lam * s))
        prefix += lam
    assert d_atlantic.gamma_bound == pytest.approx(total, rel=1e-14)
    assert d_atlantic.gamma_bound == pytest.approx(33.36614417123018, rel=1e-12)


def test_derived_arrays_are_frozen(d_atlantic):
    with pytest.raises(ValueError):
        d_atlantic.lam[0] = 2.0


def test_derive_rejects_cancelling_dispersion():
    # mixed signs are stopped at the span level already
    with pytest.raises(ValueError):
        SpanPlan((_ok_segment(beta2=-2.66e-26), _ok_segment(beta2=2.66e-26)))


def test_derive_is_deterministic(hybrid_span):
    a = derive_span(hybrid_span, ATLANTIC)
    b = derive_span(hybrid_span, ATLANTIC)
    assert a.f_phase == b.f_phase
    assert a.zeta_max == b.zeta_max
    assert a.kappa == b.kappa
    assert np.array_equal(a.sigma_k, b.sigma_k)
    assert np.array_equal(a.lam, b.lam)


@given(span_plans(), st.integers(1, 80))
@hsettings(max_examples=60)
def test_dispersion_weights_sum_to_one(span, n_spans):
    sys = replace(ATLANTIC, span_count=n_spans)
    d = derive_span(span, sys)
    assert math.fsum(d.lam) == pytest.approx(1.0, abs=1e-12)
    assert d.sigma > 0.0
    assert d.sigma == pytest.approx(float(np.min(d.sigma_k)), rel=1e-15)
    assert d.zeta_max > 0.0
    assert d.gamma_bound > 0.0


@given(span_plans())
@hsettings(max_examples=40)
def test_channel_count_scales_integration_limit(span):
    d1 = derive_span(span, replace(ATLANTIC, channel_count=5))
    d2 = derive_span(span, replace(ATLANTIC, channel_count=10))
    assert d2.zeta_max == pytest.approx(4.0 * d1.zeta_max, rel=1e-13)
    assert d2.f_phase == d1.f_phase


@given(span_plans(), st.integers(1, 40))
@hsettings(max_examples=40)
def test_span_count_enters_only_prefactor(span, n):
    d1 = derive_span(span, replace(ATLANTIC, span_count=1))
    dn = derive_span(span, replace(ATLANTIC, span_count=n))
    assert dn.kappa == pytest.approx(n * n * d1.kappa, rel=1e-13)
    assert dn.zeta_max == d1.zeta_max
    assert dn.f_phase == d1.f_phase
    assert dn.gamma_bound == d1.gamma_bound
    assert dn.n_spans == n


@given(span_plans(), st.sampled_from([0.5, 2.0, 10.0]))
@hsettings(max_examples=40)
def test_time_rescale_invariance(span, c):
    """Scaling rates by c and dispersion by 1/c^2 leaves the dimensionless
    span quantities untouched and multiplies f_phase by c."""
    scaled = SpanPlan(tuple(replace(s, beta2=s.beta2 / c ** 2)
                            for s in span.segments))
    sys1 = ATLANTIC
    sys2 = replace(ATLANTIC, symbol_rate=c * ATLANTIC.symbol_rate)
    d1 = derive_span(span, sys1)
    d2 = derive_span(scaled, sys2)
    assert d2.f_phase == pytest.approx(c * d1.f_phase, rel=1e-12)
    assert d2.zeta_max == pytest.approx(d1.zeta_max, rel=1e-12)
    assert d2.kappa == pytest.approx(d1.kappa, rel=1e-12)
    assert np.allclose(d2.lam, d1.lam, rtol=1e-12)
    assert d2.gamma_bound == pytest.approx(d1.gamma_bound, rel=1e-12)


@given(span_plans(), st.floats(1.1, 4.0))
@hsettings(max_examples=40)
def test_kerr_scaling_is_linear_in_gamma(span, k):
    boosted = SpanPlan(tuple(replace(s, gamma=k * s.gamma)
                             for s in span.segments))
    d1 = derive_span(span, ATLANTIC)
    d2 = derive_span(boosted, ATLANTIC)
    assert d2.gamma_bound == pytest.approx(k * d1.gamma_bound, rel=1e-12)
    assert np.array_equal(d2.lam, d1.lam)
    assert np.array_equal(d2.sigma_k, d1.sigma_k)
    assert d2.zeta_max == d1.zeta_max


def test_segment_order_changes_strength_bound():
    fwd = derive_span(SpanPlan((QSMF, SMF)), ATLANTIC)
    rev = derive_span(SpanPlan((SMF, QSMF)), ATLANTIC)
    # the prefix attenuation weights differ, so the bound must differ
    assert abs(fwd.gamma_bound - rev.gamma_bound) / fwd.gamma_bound > 1e-2
