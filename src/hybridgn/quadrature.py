"""Log-weighted quadrature of the FWM integrand with certified truncation.

The nonlinear noise coefficient reduces to a single improper integral

    I = int_0^zeta_max  ln(zeta_max / zeta) * xi(zeta) dzeta,

whose integrand has a logarithmic singularity at the origin and a tail that
oscillates with period pi.  The evaluator splits the range into

* head  [0, delta]        Simpson under ln(zeta_max/delta), a Gauss rule in
                          ln(delta/zeta) under the rest of the log weight,
* body  [delta, mu]       composite Simpson on panels aligned to the pi grid,
* tail  [mu, zeta_max]    dropped once an analytic bound certifies that its
                          contribution is below the requested tolerance.

The body's layout is decided in one place, :func:`_pi_panels`: it gives each
panel its Simpson subinterval count from the panel's nominal length (pi for
every whole period, so all periods get the same count) and groups
consecutive panels with equal counts into blocks of at most BLOCK_NODES
nodes, so no array grows with zeta_max.  Each block is one grid of rows
s_i + tau (s_i a multiple of pi; whole periods share one row of offsets
tau), one kernel call on that layout and one row sum with the Simpson
weights, in arrays that each thread keeps across its integrals (grown, not
renewed; those past one block of BLOCK_NODES nodes go when their integral
returns).
Per block, one vectorised call of :func:`truncation_bound` gives each panel
that closes a period its tight tail bound.  The body stops at the first such
panel whose bound is within the target of the estimate head + panels so
far.  The integrand is nonnegative, so that estimate never falls: the first
panel admissible at the estimate before a block caps the block's end.  One
math.fsum sums the kept panels, so the result does not depend on the blocks.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .kernel import _buffer, fwm_efficiency, phased_array, xi
from .link import DerivedSpan

__all__ = [
    "QuadratureSettings",
    "IntegralReport",
    "delta_rule",
    "refined_singular_head",
    "integrate_body",
    "truncation_bound",
    "log_weighted_integral",
    "brute_force_gamma_integral",
]


#: Most Simpson subintervals per span oscillation; far beyond this bound the
#: head and the body blocks run out of memory.
MAX_NODES_PER_OSCILLATION = 1000


@dataclass(frozen=True)
class QuadratureSettings:
    """Tunables of the single-integral evaluator.

    Attributes
    ----------
    delta_safety : float
        Fraction of the head-validity radius 3*sqrt(3)/n_spans used as the
        head cut delta, in (0, 1].
    nodes_per_oscillation : int
        Simpson subintervals per span oscillation, in
        [2, MAX_NODES_PER_OSCILLATION]; each whole period gets
        n_spans * nodes_per_oscillation subintervals, rounded up to even and
        at least 2 * nodes_per_oscillation.
    target_rel_truncation : float
        Relative tail tolerance epsilon_r for adaptive truncation.
    truncation_enabled : bool
        When False the body always runs to zeta_max.
    workers : int
        Accepted and validated, but the integral no longer uses threads:
        the body is evaluated serially in blocks, so any value gives the
        same result.
    """

    delta_safety: float = 0.1
    nodes_per_oscillation: int = 16
    target_rel_truncation: float = 1e-4
    truncation_enabled: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_safety <= 1.0:
            raise ValueError("delta_safety must lie in (0, 1]")
        for name in ("nodes_per_oscillation", "workers"):
            value = getattr(self, name)
            # bool is an Integral; numpy integers are too
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # float() raises OverflowError past a float
        if not 2 <= float(self.nodes_per_oscillation) <= MAX_NODES_PER_OSCILLATION:
            raise ValueError("nodes_per_oscillation must lie in "
                             f"[2, {MAX_NODES_PER_OSCILLATION}]")
        if not self.target_rel_truncation > 0.0:
            raise ValueError("target_rel_truncation must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class IntegralReport:
    """Result of the log-weighted integral with its error-control records.

    `value` is always the plain sum head + body; `tail_bound` is a certified
    upper bound (same units as `value`) on what truncation discarded, zero
    when the body ran to zeta_max.
    """

    value: float
    head: float
    body: float
    tail_bound: float
    delta: float
    panels_evaluated: int
    truncation_m: Optional[int]


# ---------------------------------------------------------------------------
# head


def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1]: four Newton steps on P_n, evaluated by its three-term
    recurrence, from the estimates cos((i - 1/4) pi / (n + 1/2)), then the
    weights 2 / ((1 - x^2) P_n'(x)^2)."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for step in range(5):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if step < 4:
            x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


#: The head's rule for int_0^1 ln(1/u) f(u) du = int_0^inf t e^{-t} f(e^{-t}) dt:
#: 80 Gauss-Legendre nodes t on [0, 40], past which t e^{-t} integrates to
#: 41 e^{-40} < 2e-16, as nodes u = e^{-t} and weights w t e^{-t}.
_HEAD_T, _HEAD_W = _gauss_legendre(80)
_HEAD_T = 20.0 * (_HEAD_T + 1.0)
_HEAD_U = np.exp(-_HEAD_T)
_HEAD_W = 20.0 * _HEAD_W * _HEAD_T * _HEAD_U

#: n_spans times the head's largest delta, of which the head cut is a fraction.
_HEAD_REACH = 3.0 * math.sqrt(3.0)


def delta_rule(n_spans: int, zeta_max: float, settings: QuadratureSettings) -> float:
    """Head cut: delta = min(delta_safety * 3*sqrt(3)/n_spans, zeta_max/2).

    3*sqrt(3)/n_spans bounds the domain of :func:`refined_singular_head`;
    the zeta_max/2 cap keeps a nonempty body for very narrow systems.
    """
    if n_spans < 1:
        raise ValueError("n_spans must be >= 1")
    if not zeta_max > 0.0:
        raise ValueError("zeta_max must be > 0")
    return min(settings.delta_safety * _HEAD_REACH / n_spans, 0.5 * zeta_max)


def refined_singular_head(delta: float, d: DerivedSpan,
                          settings: QuadratureSettings) -> float:
    """Head estimate with the flat part of the weight integrated numerically.

    Splits ln(zeta_max/z) = ln(zeta_max/delta) + ln(delta/z); the first,
    constant part multiplies a plain Simpson integral of xi over [0, delta]
    (no frozen-efficiency error), while the singular remainder freezes eta
    at eta(0) and takes int_0^delta ln(delta/z) phi(z) dz by a Gauss rule in
    t = ln(delta/z).  This is the head the integral driver uses.

    delta must lie in (0, min(zeta_max, 3*sqrt(3)/n_spans)], which
    delta_rule never leaves.  There phi passes at most its first zero
    pi/n_spans and the rule is exact to rounding; it is off by 2e-11 at
    n_spans * delta = 10 and by 8e-4 at 26.
    """
    if not 0.0 < delta <= min(d.zeta_max, _HEAD_REACH / d.n_spans):
        raise ValueError("delta must lie in (0, min(zeta_max, 3*sqrt(3)/n_spans)]")
    spacing = math.pi / (d.n_spans * settings.nodes_per_oscillation)
    n_sub = max(16, 2 * int(math.ceil(delta / spacing / 2.0)))
    mass = float(_simpson_block(*_rows(np.zeros(1), np.array([delta]), n_sub, False),
                                lambda z, layout: xi(z, d))[0])
    moment = delta * float(_HEAD_W @ phased_array(delta * _HEAD_U, d.n_spans))
    return math.log(d.zeta_max / delta) * mass + fwm_efficiency(0.0, d) * moment


# ---------------------------------------------------------------------------
# body

#: Kernel nodes per block of periods at most (a period with more nodes than
#: that is a block of its own).
BLOCK_NODES = 1 << 14

#: Each thread's node grid and kernel arrays, kept across its integrals so
#: that repeated integrals reuse their pages; arrays larger than a block of
#: BLOCK_NODES nodes are released when their integral returns.
_BLOCK_ARRAYS = threading.local()


def _pi_panels(lower: float, upper: float, n_spans: int, per_osc: int,
               ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Split [lower, upper] at multiples of pi; yield the panels one block at
    a time as (s, tau, h, k), in the layout of :func:`_rows`: per panel the
    start s of its row of nodes s + tau, its Simpson step h and the period
    k >= 2 that it closes (b = k*pi < upper), or 0.

    Below the first pi edge the log weight still varies on the scale of zeta
    itself, so that stretch is subdivided geometrically (each sub-panel about
    as long as its distance from the origin); uniform pi panels would
    otherwise lose four orders of accuracy right above the head cut.

    A panel of nominal length L gets max(2 * per_osc, the even number at or
    above L/pi * n_spans * per_osc) subintervals: per_osc per oscillation of
    phi, which has n_spans of them per period.  L is pi for a whole period,
    so every period gets the same count, and b - a for the graded panels, a
    partial first panel and the last panel.  Consecutive panels with equal
    counts share a block; a block of periods holds at most BLOCK_NODES nodes,
    or one period when that alone holds more.
    """
    def count(length):
        return np.maximum(2 * per_osc,
                          2 * np.ceil(length / math.pi * (n_spans * per_osc) / 2.0)
                          ).astype(np.int64)

    def runs(a, b, n_sub, k, periods):
        cuts = [0, *(np.flatnonzero(np.diff(n_sub)) + 1), len(a)]
        for i, j in zip(cuts[:-1], cuts[1:]):
            whole = periods and bool(k[i:j].all())
            yield (*_rows(a[i:j], b[i:j], int(n_sub[i]), whole), k[i:j])

    period = int(count(math.pi))
    per_block = max(1, BLOCK_NODES // (period + 1))
    edges = [lower]
    # grading needs a positive anchor; integrands starting at zero are smooth
    # there and take the stretch as one panel
    while 0.0 < edges[-1] and 2.0 * edges[-1] < min(math.pi, upper):
        edges.append(2.0 * edges[-1])
    k = math.floor(lower / math.pi)
    while k * math.pi <= lower:  # k*pi: the first multiple of pi above lower
        k += 1
    # the stretch up to the first multiple of pi, where only a partial first
    # panel (lower >= pi) can close a period
    a, b = np.array(edges), np.append(edges[1:], min(k * math.pi, upper))
    closes = np.where(b < upper, k if k >= 2 else 0, 0)
    yield from runs(a, b, count(b - a), closes, False)
    while b[-1] < upper:
        ks = np.arange(k + 1, k + 1 + per_block)
        ends = np.append(ks[ks * math.pi < upper] * math.pi, upper)[:per_block]
        a, b = np.append(b[-1], ends[:-1]), ends
        closes = np.where(b < upper, ks[:len(b)], 0)
        yield from runs(a, b, np.where(closes > 0, period, count(b - a)), closes, True)
        k += per_block


def _rows(a: np.ndarray, b: np.ndarray, n_sub: int, whole: bool,
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layout (s, tau, h) of the panels [a_i, b_i] with n_sub Simpson
    subintervals each: nodes s_i + tau_i, step h_i = (b_i - a_i) / n_sub.
    Whole periods (b_i = a_i + pi) start at s_i = a_i and share one row of
    offsets pi*j/n_sub; other panels start at the multiple of pi at or below
    a_i (0 below pi, where the nodes are np.linspace(a_i, b_i)), with a row
    of offsets each."""
    h = (b - a) / n_sub
    if whole:
        return a, np.linspace(0.0, math.pi, n_sub + 1)[None, :], h
    s = np.floor(a / math.pi) * math.pi
    return s, np.linspace(a - s, b - s, n_sub + 1, axis=1), h


def _simpson_block(s: np.ndarray, tau: np.ndarray, h: np.ndarray,
                   f: Callable[[np.ndarray, tuple], np.ndarray], work=None) -> np.ndarray:
    """Composite-Simpson values of the panels of a layout (s, tau, h) from
    one call f(nodes, (s, tau)) on their grid, kept in `work` when given.
    The rows are summed without BLAS, whose threads gain no wall time."""
    nodes = np.add(s[:, None], tau, out=_buffer(work, "nodes", (len(s), tau.shape[1]), float))
    weights = np.full(tau.shape[1], 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return np.einsum("ij,j->i", f(nodes, (s, tau)), weights) * h / 3.0


def _integrate_panels(lower: float, upper: float, d: DerivedSpan,
                      settings: QuadratureSettings, head: float = 0.0,
                      truncate: bool = False) -> Tuple[float, int, Optional[int], float]:
    """Composite-Simpson sum of ln(zeta_max/z) xi(z) over the pi-aligned
    panels of [lower, upper], bounded and evaluated one block of
    :func:`_pi_panels` at a time.

    The blocks share this thread's node grid and kernel arrays, grown for a
    larger block.  With `truncate`, one :func:`truncation_bound` call per block
    gives each panel that closes a period k its tight tail bound (m = k - 1),
    and the sum stops at the first one whose bound is <= target * (head +
    panels so far).  Returns (body, panels evaluated, m or None, tight bound
    at the stop or 0).
    """
    work: dict = vars(_BLOCK_ARRAYS)  # this thread's own dict

    def f(z, layout):
        weight = _buffer(work, "weight", z.shape, float)
        np.log(np.divide(d.zeta_max, z, out=weight), out=weight)
        return np.multiply(weight, xi(z, d, layout, work), out=weight)

    target = settings.target_rel_truncation * d.n_spans
    values: List[float] = []
    try:
        for s, tau, h, k in _pi_panels(lower, upper, d.n_spans, settings.nodes_per_oscillation):
            # NaN where no stop is allowed: it compares false against any estimate
            bound = np.full(len(s), np.nan)
            if truncate and k.any():
                bound[k > 0] = truncation_bound(k[k > 0] - 1, d)[0]
            done = head + math.fsum(values)
            # the estimate never falls, so the body stops here at the latest (a
            # 0 bound stops a 0 estimate); a shared row of offsets (tau of one
            # row) stays whole
            admissible = np.flatnonzero(bound <= target * done)
            if admissible.size:
                s, tau, h, k, bound = (x[:admissible[0] + 1] for x in (s, tau, h, k, bound))
            block = _simpson_block(s, tau, h, f, work)
            estimates = done + np.cumsum(block)
            stops = np.flatnonzero(bound <= target * estimates)
            if stops.size:
                stop = int(stops[0])
                values.extend(block[:stop + 1].tolist())
                return math.fsum(values), len(values), int(k[stop]) - 1, float(bound[stop])
            values.extend(block.tolist())
        return math.fsum(values), len(values), None, 0.0
    finally:
        for name in [n for n, a in work.items() if a.size > BLOCK_NODES]:
            del work[name]


def integrate_body(lower: float, upper: float, d: DerivedSpan,
                   settings: QuadratureSettings) -> float:
    """Composite-Simpson integral of the log-weighted kernel
    ln(zeta_max/z) xi(z) over [lower, upper], 0 < lower < upper <= zeta_max,
    on pi-aligned panels: the body that :func:`log_weighted_integral` sums,
    without truncation.
    """
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    if upper > d.zeta_max * (1.0 + 1e-12):
        raise ValueError("upper must not exceed zeta_max")
    if not lower > 0.0:
        raise ValueError("the log-weighted integrand needs lower > 0")
    return _integrate_panels(lower, upper, d, settings)[0]


# ---------------------------------------------------------------------------
# tail bounds


def truncation_bound(m, d: DerivedSpan):
    """Certified bounds on the discarded tail past mu = (m+1)*pi.

    Returns (tight, loose) with tight <= loose, both bounding
    n_spans * int_mu^zeta_max ln(zeta_max/z) xi(z) dz from above:

        tight = Gamma^2 / sigma * arccot(m pi / sigma) * ln(zeta_max/(m pi))
        loose = Gamma^2 / (m pi) * ln(zeta_max/(m pi))

    where Gamma and sigma are the worst-case span strength and the slowest
    decay rate from :func:`hybridgn.link.derive_span`.  A lossless segment
    gives sigma = 0, where the tight bound takes its limit, the loose one.

    An int `m` gives two floats; an int array gives two arrays, each element
    equal to the scalar call's.  Every m must satisfy the range checks.
    """
    m_arr = np.asarray(m)
    if np.any(m_arr < 1):
        raise ValueError("m must be >= 1")
    if not np.all((m_arr + 1.0) * math.pi < d.zeta_max):
        raise ValueError("truncation point (m+1)*pi must lie below zeta_max")
    g2 = d.gamma_bound * d.gamma_bound
    m_pi = m_arr * math.pi
    log_factor = np.log(d.zeta_max / m_pi)
    loose = g2 / m_pi * log_factor
    if d.sigma == 0.0:  # atan(sigma/(m pi))/sigma -> 1/(m pi)
        tight = loose
    else:
        tight = g2 / d.sigma * np.arctan(d.sigma / m_pi) * log_factor
    if m_arr.ndim == 0:
        return float(tight), float(loose)
    return tight, loose


# ---------------------------------------------------------------------------
# driver


def log_weighted_integral(d: DerivedSpan, settings: QuadratureSettings) -> IntegralReport:
    """Evaluate I = int_0^zeta_max ln(zeta_max/z) xi(z) dz with error control.

    Head and body as documented on the module; when truncation is enabled the
    body stops at the first full period mu = (m+1)*pi at which the tight tail
    bound drops below target_rel_truncation relative to the running estimate.
    The returned report satisfies value = head + body exactly.
    """
    delta = delta_rule(d.n_spans, d.zeta_max, settings)
    head = refined_singular_head(delta, d, settings)
    body, panels, truncation_m, tight = _integrate_panels(
        delta, d.zeta_max, d, settings, head, settings.truncation_enabled)
    return IntegralReport(
        value=head + body,
        head=head,
        body=body,
        tail_bound=tight / d.n_spans,
        delta=delta,
        panels_evaluated=panels,
        truncation_m=truncation_m,
    )

# ---------------------------------------------------------------------------
# 2-D cross-check


def brute_force_gamma_integral(d: DerivedSpan, grid_n: int,
                               integrand: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """First-quadrant 2-D Simpson integral of xi(f1 f2 / (2 f_phase^2)).

    Integrates over [0, b0/2] x [0, b0/2] with grid_n subintervals per axis
    (must be even).  Multiplying by 4 and by 16/27 * n_spans^2 * osnr_bw /
    symbol_rate^3 gives the same noise coefficient as the single-integral
    path; the comparison is the main cross-validation of the reduction.
    """
    if grid_n < 2 or grid_n % 2:
        raise ValueError("grid_n must be even and >= 2")
    if integrand is None:
        integrand = lambda z: xi(z, d)
    half = d.b0 / 2.0
    f = np.linspace(0.0, half, grid_n + 1)
    w = np.ones(grid_n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    zeta_grid = np.outer(f, f) / (2.0 * d.f_phase * d.f_phase)
    vals = np.asarray(integrand(zeta_grid), dtype=float)
    h = half / grid_n
    return math.fsum(((w[:, None] * w[None, :]) * vals).ravel().tolist()) * h * h / 9.0
