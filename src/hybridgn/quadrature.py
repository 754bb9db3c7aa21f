"""Log-weighted quadrature of the FWM integrand with certified truncation.

The nonlinear noise coefficient reduces to a single improper integral

    I = int_0^zeta_max  ln(zeta_max / zeta) * xi(zeta) dzeta,

whose integrand has a logarithmic singularity at the origin and a tail that
oscillates with period pi.  The evaluator splits the range into

* head  [0, delta]        Simpson under ln(zeta_max/delta), a Gauss rule in
                          ln(delta/zeta) under the rest of the log weight,
* body  [delta, mu]       composite Simpson on panels aligned to the pi grid,
* tail  [mu, zeta_max]    its mean and the leading term of its oscillation
                          in closed form, once a certified bound on the rest
                          is below the requested tolerance.

The body's layout is decided in one place, :func:`_pi_panels`: it gives each
panel its Simpson subinterval count, SUBINTERVALS_PER_OSCILLATION per
oscillation of the panel's nominal length (pi for every whole period, so
all periods get the same count), and groups the whole periods into blocks
of at most BLOCK_NODES nodes, so no array grows with zeta_max.  Whole
periods share one row of offsets tau, its Simpson weights, phi(tau) and
each segment's phase factor on tau, all built once per integral: a block of
them is one grid of rows s_i + tau (s_i a multiple of pi), one kernel call
and one row sum.  The other panels (graded below pi, a partial first one,
the last) are one kernel call for the stretch below the first multiple of
pi and one for the last panel, on their nodes laid end to end, each summed
on its own.  Each thread keeps the kernel arrays across its integrals
(grown, not renewed).  Within link.MAX_SPAN_COUNT spans none is larger than
a block for delta_safety >= 1e-3; each halving of the head cut below that
adds a graded panel of at least 33 nodes, up to about 49k nodes at 1e-300.
Per block, :func:`tail_mean` gives each panel that closes a period k = m + 1
that is a power of two the tail's closed form past it and a certified bound
on the rest.  The body stops at the first whose bound is within the target
of the estimate head + panels so far, and adds the closed form.  Testing only
powers of two lets integrals of similar spans stop at the same period and
cost the same; the periods past the first admissible one, fewer than those
before it, only shrink the remainder.  The integrand is nonnegative, so the
estimate never falls: the first tested panel admissible at the estimate
before a block caps the block's end.  One math.fsum sums the kept panels,
whatever the blocks.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .kernel import _buffer, _wave, phased_array, xi
from .link import DerivedSpan

__all__ = [
    "QuadratureSettings",
    "IntegralReport",
    "delta_rule",
    "refined_singular_head",
    "integrate_body",
    "truncation_bound",
    "tail_mean",
    "log_weighted_integral",
    "brute_force_gamma_integral",
]


#: Simpson subintervals per span oscillation (n_spans oscillations per pi):
#: each whole period gets n_spans times as many, at least twice as many.
SUBINTERVALS_PER_OSCILLATION = 16


@dataclass(frozen=True)
class QuadratureSettings:
    """Tunables of the single-integral evaluator.  The quadrature rule is not
    one of them: every panel takes SUBINTERVALS_PER_OSCILLATION Simpson
    subintervals per oscillation.

    Attributes
    ----------
    delta_safety : float
        Fraction of the head-validity radius 3*sqrt(3)/n_spans used as the
        head cut delta, in (0, 1].
    target_rel_truncation : float
        Relative tolerance epsilon_r on the tail less its closed form.
    truncation_enabled : bool
        When False the body always runs to zeta_max.
    workers : int
        Accepted and validated, but the integral no longer uses threads:
        the body is evaluated serially in blocks, so any value gives the
        same result.
    """

    delta_safety: float = 0.1
    target_rel_truncation: float = 1e-4
    truncation_enabled: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_safety <= 1.0:
            raise ValueError("delta_safety must lie in (0, 1]")
        # bool is an Integral; numpy integers are too
        if isinstance(self.workers, bool) or not isinstance(self.workers, numbers.Integral):
            raise ValueError(f"workers must be an integer, got {self.workers!r}")
        if not self.target_rel_truncation > 0.0:
            raise ValueError("target_rel_truncation must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class IntegralReport:
    """Result of the log-weighted integral with its error-control records.

    `value` is always the plain sum head + body; `body` includes `tail_mean`
    and `tail_oscillation`, the tail past the stop in closed form (its mean
    and the leading term of its oscillation), and `tail_bound` bounds |tail -
    tail_mean - tail_oscillation| (same units), all zero when the body ran to
    zeta_max.
    """

    value: float
    head: float
    body: float
    tail_bound: float
    tail_mean: float
    tail_oscillation: float
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
    The rule is fixed: `settings` is accepted but not read.

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
    spacing = math.pi / (d.n_spans * SUBINTERVALS_PER_OSCILLATION)
    n_sub = max(16, 2 * int(math.ceil(delta / spacing / 2.0)))
    values = xi(np.linspace(0.0, delta, n_sub + 1)[None, :], d)
    mass = float(np.einsum("ij,j->i", values, _simpson_weights(n_sub))[0]
                 * (delta / n_sub) / 3.0)
    moment = delta * float(_HEAD_W @ phased_array(delta * _HEAD_U, d.n_spans))
    # phi(0) = 1, so the mass block's first node holds eta(0)
    return math.log(d.zeta_max / delta) * mass + float(values[0, 0]) * moment


# ---------------------------------------------------------------------------
# body

#: Kernel nodes per block of whole periods at most.  A period has at most
#: 16,001 nodes (SUBINTERVALS_PER_OSCILLATION * link.MAX_SPAN_COUNT + 1), so a
#: block holds whole periods; only a hand-built span of more spans makes a
#: period that is a block of its own.
BLOCK_NODES = 1 << 14

#: Each thread's node grid and kernel arrays, kept across its integrals so
#: that repeated integrals reuse their pages.
_BLOCK_ARRAYS = threading.local()


def _subintervals(length, n_spans: int) -> np.ndarray:
    """Simpson subintervals of panels of nominal length `length`:
    SUBINTERVALS_PER_OSCILLATION per oscillation of phi (n_spans per period),
    even and at least twice that."""
    per_osc = SUBINTERVALS_PER_OSCILLATION
    return np.maximum(2 * per_osc, 2 * np.ceil(length / math.pi * (n_spans * per_osc) / 2.0)
                      ).astype(np.int64)


def _pi_panels(lower: float, upper: float, n_spans: int, row: np.ndarray,
               ) -> Iterator[Tuple[np.ndarray, object, np.ndarray, np.ndarray]]:
    """Split [lower, upper] at multiples of pi; yield the panels one block at
    a time as (s, tau, h, k), in the layout of :func:`_simpson_block`: per
    panel the start s of its nodes s + tau, its Simpson step h and the period
    k >= 2 that it closes (b = k*pi < upper), or 0.

    Below the first pi edge the log weight still varies on the scale of zeta
    itself, so that stretch is subdivided geometrically (each sub-panel about
    as long as its distance from the origin); uniform pi panels would
    otherwise lose four orders of accuracy right above the head cut.

    A panel of nominal length L gets :func:`_subintervals` of L: pi for a
    whole period, so all periods get the same count n, else b - a.  Whole
    periods share `row`, the offsets linspace(0, pi, n + 1), from s = (k - 1)
    pi, in blocks of at most BLOCK_NODES nodes (or of one larger period, past
    link.MAX_SPAN_COUNT spans).  The others come as s = 0 and the list of
    their nodes np.linspace(a, b), in two blocks of any size: the stretch up
    to the first multiple of pi, and the last panel.
    """
    def own_nodes(a, b, k):
        n_sub = _subintervals(b - a, n_spans)
        return (np.zeros(len(a)), [np.linspace(x, y, n + 1) for x, y, n in zip(a, b, n_sub)],
                (b - a) / n_sub, k)

    period = row.shape[1] - 1
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
    yield own_nodes(a, b, np.where(b < upper, k if k >= 2 else 0, 0))
    while k * math.pi < upper:
        ks = np.arange(k + 1, k + 1 + per_block)
        ks = ks[ks * math.pi < upper]
        if len(ks):
            a = (ks - 1) * math.pi
            yield a, row, (ks * math.pi - a) / period, ks
        k += len(ks)
        if len(ks) < per_block:  # the last panel, [k pi, upper]
            yield own_nodes(np.array([k * math.pi]), np.array([upper]), np.zeros(1, int))
            return


def _simpson_weights(n_sub: int) -> np.ndarray:
    """Composite-Simpson weights 1, 4, 2, ..., 4, 1 of n_sub subintervals."""
    weights = np.full(n_sub + 1, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return weights


def _simpson_block(s: np.ndarray, tau, h: np.ndarray, f: Callable, work=None,
                   shared: Optional[tuple] = None) -> np.ndarray:
    """Composite-Simpson values of the panels of a layout (s, tau, h), the
    nodes kept in `work` when given.  A tau of one row, shared by all, comes
    with `shared`, its Simpson weights, phi and phase factors: one call
    f(nodes, (s, tau, phi, waves)) on the grid.  A list tau holds the nodes
    of panels of any lengths at s = 0: one call f(nodes, None) on them all.
    The rows are summed without BLAS, whose threads gain no wall time."""
    if isinstance(tau, list):
        ends = np.cumsum([len(t) for t in tau])
        values = f(np.concatenate(tau, out=_buffer(work, "nodes", (ends[-1],), float)), None)
        return np.concatenate([np.einsum("ij,j->i", v[None, :], _simpson_weights(len(v) - 1))
                               for v in np.split(values, ends[:-1])]) * h / 3.0
    nodes = np.add(s[:, None], tau, out=_buffer(work, "nodes", (len(s), tau.shape[1]), float))
    weights, *offsets = shared
    return np.einsum("ij,j->i", f(nodes, (s, tau, *offsets)), weights) * h / 3.0


def _integrate_panels(lower: float, upper: float, d: DerivedSpan, head: float = 0.0,
                      target: Optional[float] = None,
                      ) -> Tuple[float, int, Optional[int], float, float, float]:
    """Composite-Simpson sum of ln(zeta_max/z) xi(z) over the pi-aligned
    panels of [lower, upper], bounded and evaluated one block of
    :func:`_pi_panels` at a time.

    The offsets of a whole period, their Simpson weights, phi and each
    segment's phase factor on them are built once per integral; the blocks
    share this thread's node grid and kernel arrays, grown for a larger
    block and kept for the thread's next integral.  With a `target`, the sum
    stops at the first panel closing a period k, a power of two, whose
    :func:`tail_mean` remainder (m = k - 1) is <= target * (head + panels so
    far).  Returns (sum of the panels, panels evaluated, m or None, and
    tail_mean's three values at the stop, or zeros).
    """
    work: dict = vars(_BLOCK_ARRAYS)  # this thread's own dict
    period = int(_subintervals(math.pi, d.n_spans))
    row = np.linspace(0.0, math.pi, period + 1)[None, :]
    shared = (_simpson_weights(period), phased_array(row, d.n_spans),
              [_wave(lam, row) for lam in d.lam])

    def f(z, layout):
        weight = _buffer(work, "weight", z.shape, float)
        np.log(np.divide(d.zeta_max, z, out=weight), out=weight)
        return np.multiply(weight, xi(z, d, layout, work), out=weight)

    law = None if target is None else _tail_law(d)
    values: List[float] = []
    for s, tau, h, k in _pi_panels(lower, upper, d.n_spans, row):
        tested = (k > 0) & (k & (k - 1) == 0)  # k = m + 1 a power of two
        if law is None or not tested.any():  # no stop in this block
            values.extend(_simpson_block(s, tau, h, f, work, shared).tolist())
            continue
        # NaN where no stop is allowed: it compares false against any estimate
        bound, mean, swing = np.full(len(s), np.nan), np.zeros(len(s)), np.zeros(len(s))
        mean[tested], swing[tested], bound[tested] = law(k[tested] - 1)
        done = head + math.fsum(values)
        # the estimate never falls, so the body stops here at the latest (a 0
        # bound stops a 0 estimate); a shared row of offsets (tau of one row)
        # stays whole
        admissible = np.flatnonzero(bound <= target * done)
        if admissible.size:
            s, tau, h, k, bound = (x[:admissible[0] + 1] for x in (s, tau, h, k, bound))
        block = _simpson_block(s, tau, h, f, work, shared)
        estimates = done + np.cumsum(block)
        stops = np.flatnonzero(bound <= target * estimates)
        if stops.size:
            stop = int(stops[0])
            values.extend(block[:stop + 1].tolist())
            return (math.fsum(values), len(values), int(k[stop]) - 1,
                    float(mean[stop]), float(swing[stop]), float(bound[stop]))
        values.extend(block.tolist())
    return math.fsum(values), len(values), None, 0.0, 0.0, 0.0


def integrate_body(lower: float, upper: float, d: DerivedSpan,
                   settings: QuadratureSettings) -> float:
    """Composite-Simpson integral of the log-weighted kernel
    ln(zeta_max/z) xi(z) over [lower, upper], 0 < lower < upper <= zeta_max,
    on pi-aligned panels: the body that :func:`log_weighted_integral` sums,
    without truncation.  The rule is fixed: `settings` is accepted but not
    read.
    """
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    if upper > d.zeta_max * (1.0 + 1e-12):
        raise ValueError("upper must not exceed zeta_max")
    if not lower > 0.0:
        raise ValueError("the log-weighted integrand needs lower > 0")
    return _integrate_panels(lower, upper, d)[0]


# ---------------------------------------------------------------------------
# tail bounds


def _largest_m(d: DerivedSpan) -> int:
    """The largest m with (m+1)*pi < zeta_max, below 1 when no m >= 1 has it."""
    m = math.floor(d.zeta_max / math.pi) - 1
    while m >= 1 and not (m + 1.0) * math.pi < d.zeta_max:
        m -= 1
    return m


def _check_m(m, d: DerivedSpan) -> None:
    """Raise ValueError unless every m (an int or an int array) has m >= 1
    and (m+1)*pi < zeta_max."""
    m = np.asarray(m)
    if np.any(m < 1):
        raise ValueError("m must be >= 1")
    if np.any(m > _largest_m(d)):
        raise ValueError("truncation point (m+1)*pi must lie below zeta_max")


def truncation_bound(m: int, d: DerivedSpan) -> Tuple[float, float]:
    """Certified bounds on the whole discarded tail past mu = (m+1)*pi, as
    `hybridgn bound` prints them and acceptance criterion 4 checks them.

    Returns (tight, loose) with tight <= loose, both bounding
    n_spans * int_mu^zeta_max ln(zeta_max/z) xi(z) dz from above:

        tight = Gamma^2 / sigma * arccot(m pi / sigma) * ln(zeta_max/(m pi))
        loose = Gamma^2 / (m pi) * ln(zeta_max/(m pi))

    where Gamma and sigma are the worst-case span strength and the slowest
    decay rate from :func:`hybridgn.link.derive_span`.  A lossless segment
    gives sigma = 0, where the tight bound takes its limit, the loose one.
    The int `m` must satisfy m >= 1 and (m+1)*pi < zeta_max.  The driver
    does not stop on these but on :func:`tail_mean`'s remainder.
    """
    _check_m(m, d)
    g2 = d.gamma_bound * d.gamma_bound
    m_pi = m * math.pi
    # numpy's log and arctan: math's can differ in the last place, which `bound` prints
    log_factor = np.log(d.zeta_max / m_pi)
    loose = float(g2 / m_pi * log_factor)
    if d.sigma == 0.0:  # atan(sigma/(m pi))/sigma -> 1/(m pi)
        return loose, loose
    return float(g2 / d.sigma * np.arctan(d.sigma / m_pi) * log_factor), loose


def tail_mean(m, d: DerivedSpan):
    """Closed-form tail past mu = (m+1)*pi and a certified bound on the rest:
    (mean, oscillation, remainder) with |tail - mean - oscillation| <=
    remainder, the tail scaled as in :func:`truncation_bound`.  An int `m`
    gives three floats, an int array three arrays; every m must satisfy
    m >= 1 and (m+1)*pi < zeta_max.

    With Lam_j = lam_1+..+lam_j, P_j = exp(-2(nu_1+..+nu_j)) and g_k = gamma_k
    l_k / lam_k (g_0 = g_{K+1} = 0), the amplitude A of eta = |A|^2 splits as
    z A = S + R, S = sum_{j=0..K} b_j e^{-2i Lam_j z}, b_j = P_j (g_{j+1} - g_j)
    / (2i), |R| <= r/z, r = sum_k gamma_k l_k (P_{k-1} + P_k) nu_k / (2 lam_k^2).
    N phi |S|^2 has the real terms c = b_j conj(b_l) (1 - |n|/N) at w = 2(n -
    (Lam_j - Lam_l)), |n| < N, against g = ln(zeta_max/z)/z^2, with Lam_K = 1.
    Every term at w = 0 gives the mean.  Integrating each other term by parts
    leaves c g(mu) sin(2 (Lam_j - Lam_l) mu) / w, which vanishes where Lam_j -
    Lam_l is a whole number; summed over the others, it is the oscillation.
    It also leaves c int_mu |g'| sin(w z) / w, at most 2 |c g'(mu)| / w^2 by
    the second mean-value theorem; that is kept where |w| >= |g'(mu)|/g(mu),
    and below it the term itself is bounded by |c| min(2 g(mu)/|w|, int_mu g).
    R adds at most pi h(mu) + int_mu h, h = ln(zeta_max/z) (2 s r/z^3 +
    r^2/z^4), s = sum_j |b_j|.
    """
    _check_m(m, d)
    parts = _tail_law(d)(np.atleast_1d(m))
    return tuple(float(p[0]) for p in parts) if np.ndim(m) == 0 else parts


def _tail_law(d: DerivedSpan,
              ) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`tail_mean` of an int array m, the span's constants bound in."""
    n = d.n_spans
    # Lam_K is 1, which the cumulative sum of the shares can miss by an ulp
    lam = np.concatenate(([0.0], np.cumsum(d.lam)[:-1], [1.0]))
    front = np.exp(-2.0 * np.concatenate(([0.0], np.cumsum(d.nu))))
    strength = d.gammas * d.lengths
    # b_j = -i beta_j, so every b_j conj(b_l) = beta_j beta_l is real
    beta = front * np.diff(np.concatenate(([0.0], strength / d.lam, [0.0]))) / 2.0
    r = np.sum(strength * (front[:-1] + front[1:]) * d.nu / (2.0 * d.lam ** 2))
    sr2, r2 = 2.0 * np.sum(np.abs(beta)) * r, r * r
    # the beat terms c at w, a row (j, l) of Lam_j - Lam_l by a column n; the
    # mean is those at w = 0, where 1/|w| is 0
    shift = (lam[:, None] - lam[None, :]).ravel()
    orders = np.arange(1 - n, n)
    signed = 2.0 * (orders - shift[:, None])
    coef = np.outer(beta, beta).reshape(-1, 1) * (1.0 - np.abs(orders) / n)
    c_inf = np.sum(coef[signed == 0.0])
    omega, size = np.abs(signed).ravel(), np.abs(coef).ravel()
    inverse = np.divide(1.0, omega, out=np.zeros_like(omega), where=omega > 0.0)
    # c/w, 0 on the rows of a whole shift, whose sine vanishes on multiples of
    # pi; (j, l, n) and (l, j, -n) give the same term
    ratio = np.divide(coef, signed, out=np.zeros_like(coef),
                      where=(shift != np.round(shift))[:, None])

    def law(m: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        mu = (m + 1.0) * math.pi
        log = np.log(d.zeta_max / mu)

        def moment(p):  # int_mu^zeta_max ln(zeta_max/z)/z^p dz
            return log / ((p - 1) * mu ** (p - 1)) \
                + (d.zeta_max ** (1 - p) - mu ** (1 - p)) / (p - 1) ** 2
        big_g = np.maximum(moment(2), 0.0)
        g = log / mu ** 2
        slope = (1.0 + 2.0 * log) / mu ** 3  # |g'(mu)|
        # every sum runs along the last axis, so each m gets its scalar call's
        # result; a term from |w| = |g'(mu)|/g(mu) on (far) leaves at most
        # 2 |c g'(mu)|/w^2, one below it is at most |c| min(G(mu), 2 g(mu)/|w|)
        far = omega >= (slope / g)[:, None]
        oscillating = np.sum(size * np.where(
            far, 2.0 * slope[:, None] * inverse ** 2,
            np.minimum(big_g[:, None], 2.0 * g[:, None] * inverse)), axis=-1)
        slow = math.pi * log * (sr2 / mu ** 3 + r2 / mu ** 4) + sr2 * moment(3) \
            + r2 * moment(4)
        beats = np.sum(np.where(far.reshape(len(m), *ratio.shape), ratio, 0.0), axis=-1)
        oscillation = g * np.sum(np.sin(2.0 * np.outer(mu, shift)) * beats, axis=-1)
        return c_inf * big_g, oscillation, oscillating + slow

    return law


# ---------------------------------------------------------------------------
# driver


def log_weighted_integral(d: DerivedSpan, settings: QuadratureSettings) -> IntegralReport:
    """Evaluate I = int_0^zeta_max ln(zeta_max/z) xi(z) dz with error control.

    Head and body as documented on the module; when truncation is enabled the
    body stops at the first full period mu = (m+1)*pi, m + 1 a power of two,
    at which the bound on the tail less its closed form drops below
    target_rel_truncation relative to the running estimate, and adds that
    closed form.  value = head + body exactly.
    """
    delta = delta_rule(d.n_spans, d.zeta_max, settings)
    head = refined_singular_head(delta, d, settings)
    target = settings.target_rel_truncation * d.n_spans if settings.truncation_enabled else None
    panels_sum, panels, truncation_m, mean, swing, remainder = _integrate_panels(
        delta, d.zeta_max, d, head, target)
    body = panels_sum + (mean + swing) / d.n_spans
    return IntegralReport(
        value=head + body,
        head=head,
        body=body,
        tail_bound=remainder / d.n_spans,
        tail_mean=mean / d.n_spans,
        tail_oscillation=swing / d.n_spans,
        delta=delta,
        panels_evaluated=panels,
        truncation_m=truncation_m,
    )

# ---------------------------------------------------------------------------
# 2-D cross-check


def brute_force_gamma_integral(d: DerivedSpan, grid_n: int) -> float:
    """First-quadrant 2-D Simpson integral of xi(f1 f2 / (2 f_phase^2)).

    Integrates over [0, b0/2] x [0, b0/2] with grid_n subintervals per axis
    (must be even).  Multiplying by 4 and by 16/27 * n_spans^2 * osnr_bw /
    symbol_rate^3 gives the same noise coefficient as the single-integral
    path; the comparison is the main cross-validation of the reduction.
    """
    if grid_n < 2 or grid_n % 2:
        raise ValueError("grid_n must be even and >= 2")
    half = d.b0 / 2.0
    f = np.linspace(0.0, half, grid_n + 1)
    w = _simpson_weights(grid_n)
    zeta_grid = np.outer(f, f) / (2.0 * d.f_phase * d.f_phase)
    vals = xi(zeta_grid, d)
    h = half / grid_n
    return math.fsum(((w[:, None] * w[None, :]) * vals).ravel().tolist()) * h * h / 9.0
