"""Shared fixtures: a transatlantic-class reference link, a toy system,
and strategies for randomly generated spans."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import sici

from hybridgn import (
    FiberSegment,
    QuadratureSettings,
    SpanPlan,
    SystemConfig,
    derive_span,
    fwm_efficiency,
)
from hybridgn.kernel import _quotient
from hybridgn.units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    gamma_per_w_km_to_per_w_m,
)

# Reference span: 50 km of large-area fiber feeding 50 km of standard fiber,
# both anomalous dispersion.  The gamma values follow from n2 = 2.6e-20 m^2/W
# at 1550 nm with 250 and 112 um^2 effective areas.
QSMF = FiberSegment(
    name="qsmf",
    length=50e3,
    attenuation=attenuation_db_per_km_to_np_per_m(0.16),
    beta2=beta2_ps2_per_km_to_s2_per_m(-26.6),
    gamma=gamma_per_w_km_to_per_w_m(0.42158152337308633),
)
SMF = FiberSegment(
    name="smf",
    length=50e3,
    attenuation=attenuation_db_per_km_to_np_per_m(0.158),
    beta2=beta2_ps2_per_km_to_s2_per_m(-26.6),
    gamma=gamma_per_w_km_to_per_w_m(0.9410301932738785),
)

#: 60 x 100 km link, 9 x 32 GBd Nyquist channels.
ATLANTIC = SystemConfig(span_count=60, symbol_rate=32e9, channel_count=9,
                        noise_figure_db=5.0, wavelength=1550e-9)

#: Down-scaled system whose 2-D brute-force reference stays cheap.
TOY = SystemConfig(span_count=2, symbol_rate=1e9, channel_count=3,
                   noise_figure_db=5.0, wavelength=1550e-9)


@pytest.fixture(scope="session")
def hybrid_span():
    return SpanPlan((QSMF, SMF))


@pytest.fixture(scope="session")
def d_atlantic(hybrid_span):
    return derive_span(hybrid_span, ATLANTIC)


@pytest.fixture(scope="session")
def d_toy(hybrid_span):
    return derive_span(hybrid_span, TOY)


@pytest.fixture(scope="session")
def settings():
    return QuadratureSettings()


def fejer_running_integral(x: float, n_spans: int) -> float:
    """int_0^x n_spans*phi(z) dz = x + sum_j (1/j - 1/N) sin(2 j x)."""
    total = x
    for j in range(1, n_spans):
        total += (1.0 / j - 1.0 / n_spans) * math.sin(2.0 * j * x)
    return total


def fejer_log_moment(x: float, n_spans: int) -> float:
    """int_0^x ln(x/z) n_spans*phi(z) dz = x + sum_j (1/j - 1/N) Si(2 j x).

    Si comes from scipy, so this oracle shares no code with the head under
    test."""
    total = x
    for j in range(1, n_spans):
        total += (1.0 / j - 1.0 / n_spans) * float(sici(2.0 * j * x)[0])
    return total


def singular_head(delta: float, d) -> float:
    """Closed-form estimate of the head integral int_0^delta ln(zeta_max/z) xi dz.

    Freezes the FWM efficiency at its zeta = 0 value (valid for delta well
    inside the efficiency's flat region) and integrates the log weight
    against the phased-array factor exactly via Fejer antiderivatives.  A
    coarser cousin of `refined_singular_head`, kept as a test oracle.
    """
    if not 0.0 < delta <= d.zeta_max:
        raise ValueError("delta must lie in (0, zeta_max]")
    eta0 = fwm_efficiency(0.0, d)
    n = d.n_spans
    return (eta0 / n) * (
        math.log(d.zeta_max / delta) * fejer_running_integral(delta, n)
        + fejer_log_moment(delta, n)
    )


def complex_effective_length(x, length):
    """Effective interaction length length * (1 - exp(-x)) / x.

    `x` is the complex per-segment exponent (twice attenuation plus phase
    rotation over the segment); near x = 0 the quotient is evaluated by its
    Taylor series to avoid cancellation.  Accepts scalars or arrays.  The
    kernel's textbook form, kept as a test oracle for `fwm_efficiency`.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=complex))
    out = length * _quotient(x_arr, np.exp(-x_arr))
    return complex(out[0]) if np.ndim(x) == 0 else out


def split_segments(span: SpanPlan, parts: int) -> SpanPlan:
    """Cut every segment into `parts` equal pieces; same physical span."""
    segs = []
    for seg in span.segments:
        for i in range(parts):
            segs.append(replace(seg, name=f"{seg.name}.{i}",
                                length=seg.length / parts))
    return SpanPlan(tuple(segs))


@st.composite
def span_plans(draw, max_segments=4):
    """Random plausible spans, all segments anomalous dispersion."""
    n = draw(st.integers(1, max_segments))
    segs = []
    for i in range(n):
        length = draw(st.floats(5.0, 120.0)) * 1e3
        alpha = attenuation_db_per_km_to_np_per_m(draw(st.floats(0.12, 0.35)))
        beta2 = beta2_ps2_per_km_to_s2_per_m(-draw(st.floats(2.0, 30.0)))
        gamma = gamma_per_w_km_to_per_w_m(draw(st.floats(0.3, 2.6)))
        segs.append(FiberSegment(f"seg{i}", length, alpha, beta2, gamma))
    return SpanPlan(tuple(segs))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(RESULTS):
        terminalreporter.write_line(line)
