"""The block-evaluated body against the panel-by-panel driver it replaced.

`reference_integral` keeps that driver as an oracle: one kernel call per
panel, a per-panel exact sum, and the stop test re-summing every panel so far
after each full period.  The block driver must reach the same truncation
decisions on the same panels and agree on the value to rounding.
"""

import math
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridgn import (
    IntegralReport,
    QuadratureSettings,
    SpanPlan,
    delta_rule,
    derive_span,
    integrate_body,
    log_weighted_integral,
    nl_coefficient,
    refined_singular_head,
    xi,
)
from hybridgn import quadrature
from hybridgn.link import MAX_SPAN_COUNT
from hybridgn.quadrature import tail_mean
from conftest import ATLANTIC, LOSSLESS, QSMF, SMF, THREE_FIBER

#: Simpson subintervals per oscillation of phi in the driver's rule.
PER_OSCILLATION = 16


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


def reference_subintervals(lower, upper, n_spans, per_osc):
    """Simpson subintervals per panel of reference_layout, from the panel's
    nominal length."""
    counts = []
    for a, b, k_end in zip(*reference_layout(lower, upper)):
        # a whole period counts as pi long, whatever b - a rounds to
        whole = k_end >= 2 and a == (k_end - 1) * math.pi
        length = math.pi if whole else b - a
        counts.append(max(2 * per_osc, 2 * int(math.ceil(length / math.pi * n_spans * per_osc
                                                         / 2.0))))
    return np.array(counts)


def reference_panels(lower, upper, d, per_osc):
    """Yield (k, value) per panel: one kernel call and an fsum Simpson each,
    on the subinterval count of the panel's nominal length at per_osc
    subintervals per oscillation."""
    counts = reference_subintervals(lower, upper, d.n_spans, per_osc)
    for (a, b, k_end), n_sub in zip(zip(*reference_layout(lower, upper)), counts):
        nodes = np.linspace(a, b, n_sub + 1)
        w = np.ones(n_sub + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        f = np.log(d.zeta_max / nodes) * xi(nodes, d)
        yield int(k_end), math.fsum((w * f).tolist()) * ((b - a) / n_sub) / 3.0


def _tested(k):
    """Whether the driver tests its stop after period k: k a power of two."""
    return k >= 2 and k & (k - 1) == 0


def reference_integral(d, settings):
    """Panel-by-panel driver: head + fsum(all panels so far) for the stop
    test on the tail's remainder bound after each full period k = m + 1 that
    is a power of two; the tail's closed form joins the body at the stop."""
    delta = delta_rule(d.n_spans, d.zeta_max, settings)
    head = refined_singular_head(delta, d, settings)
    values = []
    truncation_m = None
    mean = oscillation = remainder = 0.0
    for k_end, value in reference_panels(delta, d.zeta_max, d, PER_OSCILLATION):
        values.append(value)
        if settings.truncation_enabled and _tested(k_end):
            running = head + math.fsum(values)
            if running > 0.0:
                mean, oscillation, remainder = tail_mean(k_end - 1, d)
                if remainder <= settings.target_rel_truncation * d.n_spans * running:
                    truncation_m = k_end - 1
                    break
    if truncation_m is None:
        mean = oscillation = remainder = 0.0
    body = math.fsum(values) + (mean + oscillation) / d.n_spans
    return IntegralReport(value=head + body, head=head, body=body,
                          tail_bound=remainder / d.n_spans, tail_mean=mean / d.n_spans,
                          tail_oscillation=oscillation / d.n_spans,
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
    """Scan for the smallest tested m (m + 1 a power of two) whose remainder
    bound meets the target."""
    target = settings.target_rel_truncation * d.n_spans * running
    m = 1
    while (m + 1) * math.pi < d.zeta_max:
        if tail_mean(m, d)[2] <= target:
            return m
        m = 2 * m + 1
    return None


def _body_calls(monkeypatch):
    """Record (first node, node count, layout) of every kernel call of the
    body; the head's calls, whose nodes start at 0, are left out."""
    calls = []
    real_xi = quadrature.xi

    def recording_xi(zeta, d, layout=None, work=None):
        if np.min(zeta) > 0.0:
            calls.append((float(np.min(zeta)), np.size(zeta), layout))
        return real_xi(zeta, d, layout, work)

    monkeypatch.setattr(quadrature, "xi", recording_xi)
    return calls


def _held_panels(calls, lowers, sizes):
    """The first and last panel that each call holds: it starts at a panel's
    lower end, and its node count is that of whole consecutive panels."""
    held = []
    for start, size, _ in calls:
        first = int(np.searchsorted(lowers, start))
        assert lowers[first] == start
        nodes = np.cumsum(sizes[first:])
        last = first + int(np.searchsorted(nodes, size))
        assert nodes[last - first] == size
        held.append((first, last))
    # the calls take the panels in order, each once
    assert [first for first, _ in held] == [0] + [last + 1 for _, last in held[:-1]]
    return held


@pytest.mark.parametrize("case", sorted(CASES))
def test_body_nodes_stay_below_the_stop_cap(case, monkeypatch):
    """Every block ends at or before the latest period at which the loop can
    stop, as certified by the estimate just before the block; only the block
    holding the stop may reach past the truncation period.  A call on the
    nodes of panels laid end to end counts as the panels it holds."""
    d = CASES[case]()
    settings = QuadratureSettings()
    calls = _body_calls(monkeypatch)
    rep = log_weighted_integral(d, settings)
    stop = (rep.truncation_m + 1) * math.pi

    assert calls and rep.truncation_m is not None
    lowers, ends = reference_layout(rep.delta, d.zeta_max)[:2]
    sizes = reference_subintervals(rep.delta, d.zeta_max, d.n_spans, PER_OSCILLATION) + 1
    first_panel, last_panel = np.array(_held_panels(calls, lowers, sizes)).T
    for (_, _, layout), last in zip(calls, last_panel):
        if layout is not None:
            # the first node of the last row: s + tau is exact there, while
            # the top node s + pi need not round to the panel end
            s, tau = layout[:2]
            assert s[-1] + tau[-1, 0] == lowers[last]
    blocks = ends[last_panel]
    # the stop lies in the last block
    assert first_panel[-1] < rep.panels_evaluated <= last_panel[-1] + 1
    ref = [v for _, v in reference_panels(rep.delta, d.zeta_max, d, PER_OSCILLATION)]
    for top, first in zip(blocks, first_panel):
        cap = _first_admissible_m(d, settings, rep.head + math.fsum(ref[:first]))
        if cap is not None:
            assert top <= (cap + 1) * math.pi
    assert cap is not None  # the last block is capped
    assert all(top <= stop for top in blocks[:-1])


def test_blocks_hold_many_panels_within_the_node_budget(monkeypatch):
    """Kernel calls are blocks of up to BLOCK_NODES nodes, not single panels;
    blocks of periods are one panels x nodes grid, every whole period with
    the subinterval count of pi, 60 * 16 at N = 60, and all of them share the
    one row of offsets, phi and phase factors built for the integral; the
    graded panels below pi are one call.  The body runs to zeta_max, through
    all its periods."""
    d = _coherent(SpanPlan((QSMF, SMF)), 60)
    calls = _body_calls(monkeypatch)
    rep = log_weighted_integral(d, QuadratureSettings(truncation_enabled=False))
    assert max(size for _, size, _ in calls) <= quadrature.BLOCK_NODES
    assert len(calls) < rep.panels_evaluated / 10
    grids = [(size, layout) for _, size, layout in calls if layout is not None]
    periods = 0
    for size, (s, tau, phi, waves) in grids:
        assert size == len(s) * tau.shape[1]  # one panels x nodes grid
        k = np.rint(s / math.pi)
        # rows k pi + tau with one shared row of offsets from 0 to pi
        assert np.all((k >= 1) & (s == k * math.pi))
        assert len(tau) == 1 and tau[0, 0] == 0.0 and tau[0, -1] == math.pi
        assert tau.shape[1] == 60 * 16 + 1
        periods += len(s)
    for part in range(1, 4):
        assert len({id(layout[part]) for _, layout in grids}) == 1
    # the graded panels below pi, one call
    lowers = reference_layout(rep.delta, d.zeta_max)[0]
    sizes = reference_subintervals(rep.delta, d.zeta_max, 60, PER_OSCILLATION) + 1
    first, last = _held_panels(calls, lowers, sizes)[0]
    assert calls[0][2] is None and last > first and lowers[last + 1] == math.pi
    # the periods [pi, 2 pi] .. [(K-1) pi, K pi], K pi the last multiple below zeta_max
    assert periods == math.ceil(d.zeta_max / math.pi) - 2


def test_a_repeated_integral_keeps_its_pages():
    """The node grid and the kernel's arrays are kept across blocks, so a
    second 80-channel N = 60 gamma_nl takes few minor page faults (about 51k
    when every block allocated its own)."""
    resource = pytest.importorskip("resource")
    span, system = SpanPlan((QSMF, SMF)), replace(ATLANTIC, span_count=60, channel_count=80)
    nl_coefficient(span, system)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    nl_coefficient(span, system)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


# One op of four single-span integrals, repeated in a fresh interpreter after
# a LAPACK call, whose set-up changes how the allocator returns freed pages;
# prints the minor page faults of the repeated op.
REPEATED_OP = """
import resource, sys
from dataclasses import replace
import numpy as np
sys.path.insert(0, sys.argv[1])
from conftest import ATLANTIC, QSMF, SMF
from hybridgn import SpanPlan, SpanScaled, nl_coefficient
np.linalg.eigh(np.eye(3))
span = SpanPlan((QSMF, SMF))
systems = [replace(ATLANTIC, channel_count=c) for c in (9, 20, 40, 80)]
def op():
    for system in systems:
        nl_coefficient(span, system, SpanScaled(0.05))
op()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
op()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_block_arrays_outlive_the_integral():
    """A thread keeps its block arrays from one integral to the next, so a
    repeated op of four integrals takes few minor page faults whatever the
    process did before (about 1,500 when each integral allocated its own)."""
    pytest.importorskip("resource")
    tests = Path(__file__).resolve().parent
    res = subprocess.run([sys.executable, "-c", REPEATED_OP, str(tests)],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) < 300


def test_a_period_at_the_span_limit_fits_one_block(monkeypatch):
    """At MAX_SPAN_COUNT spans a whole period, 16,001 nodes, is one grid row
    within a block, every kernel call holds at most BLOCK_NODES nodes, and the
    thread keeps no array larger than a block after the integral."""
    d = _coherent(SpanPlan((QSMF, SMF)), MAX_SPAN_COUNT)
    calls = _body_calls(monkeypatch)
    kept = {}

    def run():
        rep = log_weighted_integral(d, QuadratureSettings())
        kept.update(rep=rep, sizes=[a.size for a in vars(quadrature._BLOCK_ARRAYS).values()])

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert kept["rep"].truncation_m is not None
    grids = [(size, layout) for _, size, layout in calls if layout is not None]
    assert grids
    for size, (s, tau, _, _) in grids:
        assert tau.shape == (1, PER_OSCILLATION * MAX_SPAN_COUNT + 1)
        assert size == len(s) * tau.shape[1] <= quadrature.BLOCK_NODES
    assert max(size for _, size, _ in calls) <= quadrature.BLOCK_NODES
    assert kept["sizes"] and max(kept["sizes"]) <= quadrature.BLOCK_NODES


def test_a_stretch_larger_than_a_block_is_one_call(monkeypatch):
    """At MAX_SPAN_COUNT spans and delta_safety 1e-6 the graded stretch below
    pi is 30 panels of 16,650 nodes in all, more than a block: it is one
    kernel call, and the integral stops where the panel-by-panel reference
    does.  A fresh thread keeps the larger arrays out of this one."""
    d = _coherent(SpanPlan((QSMF, SMF)), MAX_SPAN_COUNT)
    settings = QuadratureSettings(delta_safety=1e-6)
    calls = _body_calls(monkeypatch)
    ours = _first_in_a_fresh_thread(d, settings)
    ref = reference_integral(d, settings)
    assert (ours.panels_evaluated, ours.truncation_m) == (ref.panels_evaluated, 31) == (61, 31)
    assert ours.tail_bound == ref.tail_bound
    assert ours.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)
    lowers = reference_layout(ours.delta, d.zeta_max)[0]
    sizes = reference_subintervals(ours.delta, d.zeta_max, d.n_spans, PER_OSCILLATION) + 1
    first, last = _held_panels(calls, lowers, sizes)[0]
    assert calls[0][2] is None and (first, last) == (0, 29) and lowers[last + 1] == math.pi
    assert calls[0][1] == 16650 > quadrature.BLOCK_NODES


def test_threads_integrating_different_spans_match_the_serial_results():
    """Each thread has its own block arrays: concurrent integrals of spans of
    different block shapes give the serial results bit for bit."""
    ds = [CASES[case]() for case in ("coherent N=2", "coherent N=60",
                                     "span-scaled 80 ch", "lossless segment N=60")]
    settings = QuadratureSettings()
    serial = [log_weighted_integral(d, settings) for d in ds]
    results = {}
    start = threading.Barrier(len(ds))

    def run(i):
        start.wait()
        results[i] = [log_weighted_integral(ds[i], settings) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(ds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, ref in enumerate(serial):
        assert results[i] == [ref, ref]


def _first_in_a_fresh_thread(d, settings):
    """The report of `d` as the first integral of a new thread."""
    out = []
    thread = threading.Thread(target=lambda: out.append(log_weighted_integral(d, settings)))
    thread.start()
    thread.join(timeout=120)
    return out[0]


def test_an_integral_after_others_matches_it_run_first():
    """What an integral builds for its period layout, and the arrays the
    thread keeps, carry nothing into the next integral: each report of a
    sequence of integrals of different layouts in one thread equals that of
    the same integral run first in a fresh thread."""
    cases = ("coherent N=60", "coherent N=200", "coherent N=1", "span-scaled 80 ch",
             "lossless segment N=60", "coherent N=60")
    settings = QuadratureSettings()
    ds = [CASES[case]() for case in cases]
    fresh = [_first_in_a_fresh_thread(d, settings) for d in ds]
    out = []
    thread = threading.Thread(
        target=lambda: out.extend(log_weighted_integral(d, settings) for d in ds))
    thread.start()
    thread.join(timeout=120)
    assert out == fresh


def test_integrate_body_matches_panel_by_panel_simpson(d_atlantic):
    """integrate_body shares the block evaluator with the driver."""
    settings = QuadratureSettings()
    lower, upper = 0.01, 40.0 * math.pi + 0.5
    ours = integrate_body(lower, upper, d_atlantic, settings)
    ref = math.fsum(v for _, v in reference_panels(lower, upper, d_atlantic, PER_OSCILLATION))
    assert ours == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_block_nodes_follow_linspace():
    """A block lays out each panel's nodes as np.linspace would: exactly for
    the panels with nodes of their own, which one call takes end to end, and
    to the rounding of s + tau for whole periods, which share one row of
    offsets."""
    lower, upper, n_spans = 0.3, 3.0 * math.pi + 0.5, 200
    period = n_spans * PER_OSCILLATION
    row = np.linspace(0.0, math.pi, period + 1)[None, :]
    a, b, _ = reference_layout(lower, upper)
    expected = [np.linspace(x, y, n + 1) for x, y, n in
                zip(a, b, reference_subintervals(lower, upper, n_spans, PER_OSCILLATION))]
    panels = 0
    for s, tau, h, _ in quadrature._pi_panels(lower, upper, n_spans, row):
        seen = []
        quadrature._simpson_block(s, tau, h,
                                  lambda z, layout: seen.append(z.copy()) or np.ones_like(z),
                                  shared=(quadrature._simpson_weights(period),))
        rows = expected[panels:panels + len(s)]
        panels += len(s)
        if tau is row:
            assert np.allclose(seen[0], rows, rtol=0.0, atol=np.spacing(upper))
        else:
            assert np.array_equal(seen[0], np.concatenate(rows))
    assert panels == len(expected) == 7
