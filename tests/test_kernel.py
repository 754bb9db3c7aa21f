import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from hybridgn import (
    SpanPlan,
    derive_span,
    fwm_efficiency,
    phased_array,
    xi,
)
from hybridgn.kernel import SERIES_SWITCH
from conftest import ATLANTIC, QSMF, SMF, complex_effective_length, span_plans, split_segments


def _efficiency_by_cumulative_exponent(zeta, d):
    """eta from the textbook form: one complex exponential per segment for
    the effective length and exp(-cumsum x) for the segments in front."""
    x = 2.0 * (d.nu[:, None] + 1j * d.lam[:, None] * zeta[None, :])
    leff = complex_effective_length(x, d.lengths[:, None])
    front = np.vstack([np.zeros((1, x.shape[1]), dtype=complex),
                       np.cumsum(x, axis=0)[:-1]])
    amp = np.sum(d.gammas[:, None] * np.exp(-front) * leff, axis=0)
    return amp.real ** 2 + amp.imag ** 2


# ---------------------------------------------------------------------------
# complex effective length


def test_effective_length_at_zero_is_length():
    assert complex_effective_length(0.0, 50e3) == 50e3 + 0j


def test_effective_length_reference_point():
    # reference from a 40-digit evaluation of L (1 - e^-x) / x
    val = complex_effective_length(0.37 + 1.9j, 50e3)
    assert val.real == pytest.approx(22612.604879864753, rel=1e-13)
    assert val.imag == pytest.approx(-27788.787538381662, rel=1e-13)


def test_effective_length_series_branch_reference_point():
    val = complex_effective_length(3e-5 + 7e-5j, 50e3)
    assert val.real == pytest.approx(49999.249966667529, rel=1e-13)
    assert val.imag == pytest.approx(-1.7499649996791805, rel=1e-12)


def test_effective_length_real_argument():
    x = 0.8
    expected = 50e3 * (1.0 - math.exp(-x)) / x
    assert complex_effective_length(x, 50e3).real == pytest.approx(expected, rel=1e-14)
    assert complex_effective_length(x, 50e3).imag == 0.0


@given(st.floats(-6.0, -3.01), st.floats(0.0, 2.0 * math.pi))
def test_effective_length_series_matches_quotient(log10_r, angle):
    """Both branches agree through the switch region: the series output is
    checked against the directly evaluated quotient, whose rounding error
    eps/|x| stays below 1e-9 for |x| >= 1e-6."""
    x = 10.0 ** log10_r * complex(math.cos(angle), math.sin(angle))
    ours = complex_effective_length(x, 1.0)
    naive = (1.0 - np.exp(-x)) / x
    assert abs(ours - naive) / abs(naive) < 1e-8


def test_effective_length_branch_continuity():
    for angle in (0.0, 1.0, 2.5, 4.0):
        rot = complex(math.cos(angle), math.sin(angle))
        below = complex_effective_length(0.999 * SERIES_SWITCH * rot, 1.0)
        above = complex_effective_length(1.001 * SERIES_SWITCH * rot, 1.0)
        assert abs(above - below) / abs(below) < 1e-3  # smoothness of L(x)
        naive = (1.0 - np.exp(-0.999 * SERIES_SWITCH * rot)) / (0.999 * SERIES_SWITCH * rot)
        assert abs(below - naive) / abs(naive) < 5e-12


def test_effective_length_array_shape():
    x = np.array([[0.1 + 0.2j, 0.0], [2.0 + 1.0j, 1e-6 + 1e-7j]])
    out = complex_effective_length(x, 2.0)
    assert out.shape == x.shape
    for idx in np.ndindex(x.shape):
        assert out[idx] == complex_effective_length(complex(x[idx]), 2.0)


# ---------------------------------------------------------------------------
# FWM efficiency


def test_efficiency_matches_distance_integral_references(d_atlantic):
    """Frozen references from adaptive quadrature of the defining integral
    |int_0^L gamma(z) exp(-int_0^z (a + i b) du) dz|^2 over physical
    distance."""
    zeta = np.array([0.0, 0.7, 5.3])
    eta = fwm_efficiency(zeta, d_atlantic)
    assert eta[0] == pytest.approx(170.67274263226534, rel=1e-12)
    assert eta[1] == pytest.approx(149.75959365037704, rel=1e-12)
    assert eta[2] == pytest.approx(18.239926234591415, rel=1e-12)


@pytest.mark.parametrize("attenuation", [None, 0.0])
def test_efficiency_matches_cumulative_exponent_form(attenuation):
    """The running product of per-segment exponentials gives the same eta as
    exp(-cumsum x), near zeta = 0 (series branch) and deep in the tail."""
    first = QSMF if attenuation is None else replace(QSMF, attenuation=attenuation)
    span = SpanPlan((first, SMF, replace(QSMF, name="third", length=20e3)))
    d = derive_span(span, ATLANTIC)
    zeta = np.concatenate(([0.0, 1e-9, 3e-5], np.linspace(0.01, 3.0, 400),
                           np.linspace(500.0, 1088.0, 400)))
    np.testing.assert_allclose(fwm_efficiency(zeta, d),
                               _efficiency_by_cumulative_exponent(zeta, d),
                               rtol=1e-11, atol=0.0)


def test_efficiency_peak_closed_form(d_atlantic):
    # at zeta = 0 the amplitude is real: sum of attenuated segment weights
    amp = 0.0
    prefix = 0.0
    for k in range(2):
        nu = d_atlantic.nu[k]
        amp += d_atlantic.gammas[k] * math.exp(-2.0 * prefix) \
            * d_atlantic.lengths[k] * (1.0 - math.exp(-2.0 * nu)) / (2.0 * nu)
        prefix += nu
    assert fwm_efficiency(0.0, d_atlantic) == pytest.approx(amp * amp, rel=1e-13)


def test_efficiency_single_segment_closed_form():
    d = derive_span(SpanPlan((SMF,)), ATLANTIC)
    nu = float(d.nu[0])
    g, L = float(d.gammas[0]), float(d.lengths[0])
    for zeta in (0.0, 0.3, 1.7, 12.0):
        # |1 - e^-x|^2 = 1 - 2 e^-2nu cos(2 zeta) + e^-4nu with x = 2(nu + i zeta)
        num = 1.0 - 2.0 * math.exp(-2.0 * nu) * math.cos(2.0 * zeta) \
            + math.exp(-4.0 * nu)
        expected = g * g * L * L * num / (4.0 * nu * nu + 4.0 * zeta * zeta)
        assert fwm_efficiency(zeta, d) == pytest.approx(expected, rel=1e-13)


def test_efficiency_is_even(d_atlantic):
    z = np.linspace(0.0, 40.0, 101)
    assert np.allclose(fwm_efficiency(z, d_atlantic),
                       fwm_efficiency(-z, d_atlantic), rtol=1e-14, atol=0)


def test_efficiency_respects_lorentzian_bound(d_atlantic):
    z = np.linspace(0.0, 300.0, 6001)
    eta = fwm_efficiency(z, d_atlantic)
    bound = d_atlantic.gamma_bound ** 2 / (d_atlantic.sigma ** 2 + z ** 2)
    assert np.all(eta <= bound * (1.0 + 1e-12))


def test_efficiency_partition_invariance_fixed(hybrid_span, d_atlantic):
    z = np.linspace(0.0, 60.0, 121)
    base = fwm_efficiency(z, d_atlantic)
    for parts in (2, 3, 7):
        d_split = derive_span(split_segments(hybrid_span, parts), ATLANTIC)
        split = fwm_efficiency(z, d_split)
        assert np.max(np.abs(split - base) / base) < 1e-12


@given(span_plans(max_segments=3), st.integers(2, 5),
       st.floats(0.0, 30.0))
@hsettings(max_examples=60, deadline=None)
def test_efficiency_partition_invariance_random(span, parts, zeta):
    d_base = derive_span(span, ATLANTIC)
    d_split = derive_span(split_segments(span, parts), ATLANTIC)
    a = fwm_efficiency(zeta, d_base)
    b = fwm_efficiency(zeta, d_split)
    assert abs(a - b) <= 1e-11 * a


def test_efficiency_depends_on_segment_order():
    fwd = derive_span(SpanPlan((QSMF, SMF)), ATLANTIC)
    rev = derive_span(SpanPlan((SMF, QSMF)), ATLANTIC)
    a = fwm_efficiency(0.0, fwd)
    b = fwm_efficiency(0.0, rev)
    assert abs(a - b) / a > 1e-2


def test_efficiency_vectorization_matches_scalars(d_atlantic):
    z = np.array([0.0, 0.31, 2.7, 19.0])
    vec = fwm_efficiency(z, d_atlantic)
    for i, zi in enumerate(z):
        assert vec[i] == fwm_efficiency(float(zi), d_atlantic)


def test_efficiency_accepts_2d_grids(d_atlantic):
    grid = np.linspace(0.0, 5.0, 12).reshape(3, 4)
    flat = fwm_efficiency(grid.ravel(), d_atlantic)
    assert np.array_equal(fwm_efficiency(grid, d_atlantic), flat.reshape(3, 4))


# ---------------------------------------------------------------------------
# phased-array factor


def _cosine_form(z, n):
    if n == 1:
        return np.ones_like(np.asarray(z, dtype=float))
    j = np.arange(1, n)
    w = 2.0 * (1.0 - j / n)
    return (1.0 + np.cos(2.0 * np.outer(np.atleast_1d(z), j)) @ w) / n


def test_phased_array_single_span_is_one():
    z = np.linspace(0.0, 20.0, 50)
    assert np.all(phased_array(z, 1) == 1.0)


def test_phased_array_peaks_at_pi_multiples():
    for n in (2, 7, 60):
        for m in range(5):
            assert phased_array(m * math.pi, n) == pytest.approx(1.0, abs=1e-12)


def test_phased_array_zeros_between_peaks():
    n = 60
    for k in (1, 2, 3, 7, 31):
        assert phased_array(k * math.pi / n, n) < 1e-25


def test_phased_array_matches_cosine_form_everywhere():
    rng = np.random.default_rng(42)
    z = rng.uniform(0.0, 10.0 * math.pi, 4000)
    for n in (2, 4, 60):
        assert np.max(np.abs(phased_array(z, n) - _cosine_form(z, n))) < 1e-10


def test_phased_array_keeps_its_digits_next_to_a_pole():
    """Within and just past 1e-6 of a pole m*pi the float argument carries
    ~m*ulp(pi) of error, which a sin ratio on the raw zeta amplifies by
    1/offset; reducing to the offset from the nearest pole keeps phi within
    1e-11 of the cosine form on both sides of the pole."""
    for n in (60, 200):
        for m in (1, 2, 3, 100):
            for dist in (1e-12, 3e-7, 9e-7, 1.1e-6, 3e-6, 1e-4, 1e-2):
                for s in (-1.0, 1.0):
                    z = m * math.pi + s * dist
                    ref = float(_cosine_form(z, n)[0])
                    assert phased_array(z, n) == pytest.approx(ref, abs=1e-11)


def test_phased_array_periodicity():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.0, math.pi, 500)
    for n in (2, 60):
        a = phased_array(z, n)
        b = phased_array(z + math.pi, n)
        assert np.max(np.abs(a - b)) < 1e-9


@given(st.floats(0.0, 1000.0), st.integers(1, 80))
def test_phased_array_bounded(z, n):
    val = phased_array(z, n)
    assert 0.0 <= val <= 1.0


def test_phased_array_rejects_bad_span_count():
    with pytest.raises(ValueError):
        phased_array(1.0, 0)


# ---------------------------------------------------------------------------
# composition


def test_xi_is_product_of_factors(d_atlantic):
    z = np.linspace(0.01, 25.0, 200)
    expected = phased_array(z, d_atlantic.n_spans) * fwm_efficiency(z, d_atlantic)
    assert np.array_equal(xi(z, d_atlantic), expected)


def test_xi_2d_grid(d_atlantic):
    grid = np.linspace(0.0, 3.0, 16).reshape(4, 4)
    assert np.array_equal(xi(grid, d_atlantic),
                          xi(grid.ravel(), d_atlantic).reshape(4, 4))


# ---------------------------------------------------------------------------
# period layouts

#: A segment without loss: its quotient takes the series branch at zeta = 0.
LOSSLESS = replace(SMF, name="lossless", attenuation=0.0)


def _layout(s, tau, d):
    """The layout (s, tau, waves) of the nodes s[:, None] + tau: each
    segment's phase factor e^{-2i lam tau}."""
    return s, tau, [np.exp(-2j * lam * tau) for lam in d.lam]


def _simpson_rows(values):
    w = np.full(values.shape[-1], 2.0)
    w[1::2] = 4.0
    w[[0, -1]] = 1.0
    return values @ w


@pytest.mark.parametrize("n_spans", [1, 2, 60, 200])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
@pytest.mark.parametrize("second", [SMF, LOSSLESS], ids=["smf", "lossless"])
def test_xi_on_a_layout_matches_the_explicit_grid(n_spans, shared, second):
    """xi on the layout (s, tau, waves) equals xi on the grid s_i + tau_j
    panel by panel: phi is taken on tau and each phase is a row times an
    offset factor, which moves only the rounding."""
    d = derive_span(SpanPlan((QSMF, second)), replace(ATLANTIC, span_count=n_spans))
    n_sub = max(32, 16 * n_spans)
    s = np.array([0, 1, 2, 7, 30, 49, 50]) * math.pi
    if shared:
        tau = np.linspace(0.0, math.pi, n_sub + 1)[None, :]
    else:
        lo = np.linspace(0.0, 2.5, len(s))
        tau = np.linspace(lo, lo + np.linspace(0.3, math.pi, len(s)), n_sub + 1, axis=1)
    zeta = s[:, None] + tau
    ours = _simpson_rows(xi(zeta, d, layout=_layout(s, tau, d)))
    ref = _simpson_rows(xi(zeta, d))
    assert np.all(np.abs(ours - ref) <= 1e-11 * np.abs(ref))


def test_xi_work_buffers_give_the_same_values(d_atlantic):
    """Reusing one work dict across layouts of different sizes, larger first,
    returns what fresh arrays return."""
    work = {}
    for rows, cols in ((5, 961), (2, 33), (7, 961)):
        s = np.arange(1, rows + 1) * math.pi
        tau = np.linspace(0.0, math.pi, cols)[None, :]
        zeta = s[:, None] + tau
        layout = _layout(s, tau, d_atlantic)
        fresh = xi(zeta, d_atlantic, layout=layout)
        assert np.array_equal(xi(zeta, d_atlantic, layout=layout, work=work), fresh)
