"""The block-evaluated body against the panel-by-panel driver it replaced.

`reference_integral` keeps that driver as an oracle: one kernel call per
panel, a per-panel exact sum, and the stop test re-summing every panel so far
after each full period.  The block driver must reach the same truncation
decisions on the same panels and agree on the value to rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hybridgn import (
    FiberSegment,
    IntegralReport,
    QuadratureSettings,
    SpanPlan,
    delta_rule,
    derive_span,
    integrate_body,
    log_weighted_integral,
    nl_coefficient,
    refined_singular_head,
    truncation_bound,
    xi,
)
from hybridgn import quadrature
from hybridgn.units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    gamma_per_w_km_to_per_w_m,
)
from conftest import ATLANTIC, QSMF, SMF

#: A three-fiber span inside the datasheet ranges, for the single-span cases.
THREE_FIBER = SpanPlan((
    FiberSegment("f1", 31.4e3, attenuation_db_per_km_to_np_per_m(0.1914),
                 beta2_ps2_per_km_to_s2_per_m(-16.6), gamma_per_w_km_to_per_w_m(0.406)),
    FiberSegment("f2", 40.2e3, attenuation_db_per_km_to_np_per_m(0.1549),
                 beta2_ps2_per_km_to_s2_per_m(-26.8), gamma_per_w_km_to_per_w_m(1.3948)),
    FiberSegment("f3", 22.5e3, attenuation_db_per_km_to_np_per_m(0.2013),
                 beta2_ps2_per_km_to_s2_per_m(-21.1), gamma_per_w_km_to_per_w_m(0.8821)),
))

#: A segment without loss: sigma = 0, the tight tail bound takes its limit.
LOSSLESS = FiberSegment("lossless", 20e3, 0.0, beta2_ps2_per_km_to_s2_per_m(-20.0),
                        gamma_per_w_km_to_per_w_m(0.9))


def reference_layout(lower, upper):
    """Panels (a, b, k) of [lower, upper]: doubling from `lower` below pi,
    then the multiples of pi, then `upper`; k = K for a panel ending at
    K*pi below `upper`, else 0."""
    edges, ks = [lower], [0]
    while 0.0 < edges[-1] and 2.0 * edges[-1] < min(math.pi, upper):
        edges.append(2.0 * edges[-1])
        ks.append(0)
    big_k = 1
    while big_k * math.pi < upper:
        if big_k * math.pi > lower:
            edges.append(big_k * math.pi)
            ks.append(big_k)
        big_k += 1
    edges.append(upper)
    ks.append(0)
    return np.array(edges[:-1]), np.array(edges[1:]), np.array(ks[1:])


def reference_panels(lower, upper, d, settings):
    """Yield (k, value) per panel: one kernel call and an fsum Simpson each,
    on the subinterval count of the panel's nominal length."""
    sub_per_pi = d.n_spans * settings.nodes_per_oscillation
    n_floor = 2 * settings.nodes_per_oscillation
    for a, b, k_end in zip(*reference_layout(lower, upper)):
        # a whole period counts as pi long, whatever b - a rounds to
        whole = k_end >= 2 and a == (k_end - 1) * math.pi
        length = math.pi if whole else b - a
        n_sub = max(n_floor, 2 * int(math.ceil(length / math.pi * sub_per_pi / 2.0)))
        nodes = np.linspace(a, b, n_sub + 1)
        w = np.ones(n_sub + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        f = np.log(d.zeta_max / nodes) * xi(nodes, d)
        yield int(k_end), math.fsum((w * f).tolist()) * ((b - a) / n_sub) / 3.0


def reference_integral(d, settings):
    """Panel-by-panel driver: head + fsum(all panels so far) for the stop
    test after each full period."""
    delta = delta_rule(d.n_spans, d.zeta_max, settings)
    head = refined_singular_head(delta, d, settings)
    values = []
    truncation_m = None
    tail_bound = 0.0
    for k_end, value in reference_panels(delta, d.zeta_max, d, settings):
        values.append(value)
        if settings.truncation_enabled and k_end >= 2:
            running = head + math.fsum(values)
            if running > 0.0:
                tight, _ = truncation_bound(k_end - 1, d)
                if tight <= settings.target_rel_truncation * d.n_spans * running:
                    truncation_m = k_end - 1
                    tail_bound = tight / d.n_spans
                    break
    body = math.fsum(values)
    return IntegralReport(value=head + body, head=head, body=body, tail_bound=tail_bound,
                          delta=delta, panels_evaluated=len(values),
                          truncation_m=truncation_m)


def _coherent(span, n_spans):
    return derive_span(span, replace(ATLANTIC, span_count=n_spans))


def _single_span(span, channels):
    # what the SpanScaled variant integrates: one span at the full bandwidth
    return derive_span(span, replace(ATLANTIC, span_count=1, channel_count=channels))


CASES = {
    "coherent N=1": lambda: _coherent(SpanPlan((QSMF, SMF)), 1),
    "coherent N=2": lambda: _coherent(SpanPlan((QSMF, SMF)), 2),
    "coherent N=60": lambda: _coherent(SpanPlan((QSMF, SMF)), 60),
    "coherent N=200": lambda: _coherent(SpanPlan((QSMF, SMF)), 200),
    "span-scaled 9 ch": lambda: _single_span(THREE_FIBER, 9),
    "span-scaled 80 ch": lambda: _single_span(THREE_FIBER, 80),
    "lossless segment N=60": lambda: _coherent(SpanPlan((QSMF, LOSSLESS)), 60),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_driver_matches_panel_by_panel_reference(case):
    d = CASES[case]()
    settings = QuadratureSettings()
    ours = log_weighted_integral(d, settings)
    ref = reference_integral(d, settings)
    assert ours.truncation_m is not None
    assert ours.panels_evaluated == ref.panels_evaluated
    assert ours.truncation_m == ref.truncation_m
    assert ours.tail_bound == ref.tail_bound
    assert ours.head == ref.head
    assert ours.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    assert ours.value == ours.head + ours.body


def test_block_driver_matches_reference_without_truncation():
    d = _coherent(SpanPlan((QSMF, SMF)), 60)
    settings = QuadratureSettings(truncation_enabled=False)
    ours = log_weighted_integral(d, settings)
    ref = reference_integral(d, settings)
    assert ours.panels_evaluated == ref.panels_evaluated == 355
    assert ours.truncation_m is None and ours.tail_bound == 0.0
    assert ours.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)


def _first_admissible_m(d, settings, running):
    """Linear scan for the smallest m whose tight bound meets the target."""
    target = settings.target_rel_truncation * d.n_spans * running
    m = 1
    while (m + 1) * math.pi < d.zeta_max:
        if truncation_bound(m, d)[0] <= target:
            return m
        m += 1
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_body_nodes_stay_below_the_stop_cap(case, monkeypatch):
    """Every block ends at or before the latest period at which the loop can
    stop, as certified by the estimate just before the block; only the block
    holding the stop may reach past the truncation period."""
    d = CASES[case]()
    settings = QuadratureSettings()
    starts = []
    real_xi = quadrature.xi

    def recording_xi(zeta, d, layout=None, work=None):
        if layout is not None:
            # the first node of the last row: s + tau is exact there, while
            # the top node s + pi need not round to the panel end
            s, tau = layout
            starts.append(float(s[-1] + tau[-1, 0]))
        return real_xi(zeta, d, layout, work)

    monkeypatch.setattr(quadrature, "xi", recording_xi)
    rep = log_weighted_integral(d, settings)
    stop = (rep.truncation_m + 1) * math.pi

    assert starts and rep.truncation_m is not None
    # the last row of a block starts a panel; the block ends where it ends
    lowers, ends = reference_layout(rep.delta, d.zeta_max)[:2]
    last_panel = np.searchsorted(lowers, starts)
    assert np.array_equal(lowers[last_panel], starts)
    blocks = ends[last_panel]
    # the stop lies in the last block
    first_panel = np.concatenate(([0], last_panel[:-1] + 1))
    assert first_panel[-1] < rep.panels_evaluated <= last_panel[-1] + 1
    ref = [v for _, v in reference_panels(rep.delta, d.zeta_max, d, settings)]
    for top, first in zip(blocks, first_panel):
        cap = _first_admissible_m(d, settings, rep.head + math.fsum(ref[:first]))
        if cap is not None:
            assert top <= (cap + 1) * math.pi
    assert cap is not None  # the last block is capped
    assert all(top <= stop for top in blocks[:-1])


def test_blocks_hold_many_panels_within_the_node_budget(monkeypatch):
    """Kernel calls are blocks of up to BLOCK_NODES nodes, not single panels,
    each laid out as one panels x nodes grid; every whole period gets the
    subinterval count of pi, 60 * 16 at N = 60."""
    d = _coherent(SpanPlan((QSMF, SMF)), 60)
    blocks = []
    real_xi = quadrature.xi

    def recording_xi(zeta, d, layout=None, work=None):
        if layout is not None:
            s, tau = layout
            blocks.append((np.shape(zeta), s.copy(), tau.copy()))
        return real_xi(zeta, d, layout, work)

    monkeypatch.setattr(quadrature, "xi", recording_xi)
    rep = log_weighted_integral(d, QuadratureSettings())
    assert max(math.prod(shape) for shape, _, _ in blocks) <= quadrature.BLOCK_NODES
    assert len(blocks) < rep.panels_evaluated / 10
    assert all(len(shape) == 2 for shape, _, _ in blocks)
    periods = 0
    for shape, s, tau in blocks:
        k = np.rint(s / math.pi)
        # rows k pi + tau with one shared row of offsets from 0 to pi
        if (np.all((k >= 1) & (s == k * math.pi)) and len(tau) == 1
                and tau[0, 0] == 0.0 and tau[0, -1] == math.pi):
            assert shape[1] == 60 * 16 + 1
            periods += len(s)
    assert periods >= rep.truncation_m  # the periods [pi, 2 pi] .. [m pi, (m+1) pi]


def test_a_repeated_integral_keeps_its_pages():
    """The node grid and the kernel's arrays are allocated once per integral
    and kept across blocks, so a second 80-channel N = 60 gamma_nl takes few
    minor page faults (about 51k when every block allocated its own)."""
    resource = pytest.importorskip("resource")
    span, system = SpanPlan((QSMF, SMF)), replace(ATLANTIC, span_count=60, channel_count=80)
    nl_coefficient(span, system)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nl_coefficient(span, system)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_integrate_body_matches_panel_by_panel_simpson(d_atlantic):
    """integrate_body shares the block evaluator with the driver."""
    settings = QuadratureSettings()
    lower, upper = 0.01, 40.0 * math.pi + 0.5
    ours = integrate_body(lower, upper, d_atlantic, settings)
    ref = math.fsum(v for _, v in reference_panels(lower, upper, d_atlantic, settings))
    assert ours == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_block_nodes_follow_linspace():
    """A block lays out each panel's nodes as np.linspace would, one row per
    panel: exactly for rows of their own that start at 0 or at a multiple of
    pi, and to the rounding of s + tau for whole periods, which share one
    row of offsets."""
    a = np.array([0.3, math.pi, 2.0 * math.pi])
    b = np.array([math.pi, 2.0 * math.pi, 3.0 * math.pi])
    n_sub = 3200
    expected = np.array([np.linspace(a[i], b[i], n_sub + 1) for i in range(3)])
    for whole, rows in ((False, slice(None)), (True, slice(1, None))):
        seen = []
        quadrature._simpson_block(*quadrature._rows(a[rows], b[rows], n_sub, whole),
                                  lambda z, layout: seen.append(z.copy()) or np.ones_like(z))
        if whole:
            assert np.allclose(seen[0], expected[rows], rtol=0.0, atol=np.spacing(b[-1]))
        else:
            assert np.array_equal(seen[0], expected[rows])
