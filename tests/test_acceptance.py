"""Acceptance gate for the single-integral evaluator and the link stack.

Every test here asserts one numbered end-to-end criterion at its stated
tolerance and registers a PASS/FAIL line that the terminal summary prints
after the run.  Tolerances are deliberately not loosened: a criterion that
cannot be met must fail visibly.
"""

import functools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import integrate

from hybridgn import (
    Coherent,
    PerformanceCoeffs,
    QuadratureSettings,
    SpanPlan,
    derive_span,
    fwm_efficiency,
    integrate_body,
    nl_coefficient,
    optimal_power,
    osnr_eff,
    phased_array,
    refined_singular_head,
    truncation_bound,
    xi,
)
from hybridgn.sweep import optimal_split, sweep_split
from conftest import ATLANTIC, QSMF, SMF, TOY, singular_head, split_segments

REPO = Path(__file__).resolve().parent.parent
RESULTS = []

SPAN = SpanPlan((QSMF, SMF))
SETTINGS = QuadratureSettings()


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append((num, f"FAIL  criterion {num:2d}: {title}"))
                raise
            RESULTS.append((num, f"PASS  criterion {num:2d}: {title}"))
        return wrapper
    return decorate


@criterion(1, "single integral matches 2-D brute force within 0.5% on the "
              "toy system, under 60 s")
def test_cross_validation_against_brute_force():
    from hybridgn import brute_force_gamma_integral

    start = time.monotonic()
    d = derive_span(SPAN, TOY)
    gamma_1d = nl_coefficient(SPAN, TOY, Coherent(), SETTINGS)
    quadrant = brute_force_gamma_integral(d, 256)
    gamma_2d = (64.0 / 27.0) * (TOY.span_count ** 2 * TOY.osnr_bw
                                / TOY.symbol_rate ** 3) * quadrant
    elapsed = time.monotonic() - start
    rel = abs(gamma_2d / gamma_1d - 1.0)
    assert rel <= 5e-3, f"rel deviation {rel:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


@criterion(2, "segment partition invariance: efficiency to 1e-12, "
              "coefficient to 1e-9")
def test_partition_invariance():
    rng = np.random.default_rng(202)
    zeta = rng.uniform(0.0, 60.0, 50)
    d_base = derive_span(SPAN, ATLANTIC)
    eta_base = fwm_efficiency(zeta, d_base)
    # truncation chooses its stopping point from the partition-dependent
    # strength bound, so the full-range integral is compared instead
    full = replace(SETTINGS, truncation_enabled=False)
    gamma_base = nl_coefficient(SPAN, ATLANTIC, Coherent(), full)
    for parts in (2, 3, 7):
        split = split_segments(SPAN, parts)
        eta_split = fwm_efficiency(zeta, derive_span(split, ATLANTIC))
        worst = float(np.max(np.abs(eta_split - eta_base) / eta_base))
        assert worst < 1e-12, f"{parts} parts: efficiency deviates {worst:.3e}"
        gamma_split = nl_coefficient(split, ATLANTIC, Coherent(), full)
        rel = abs(gamma_split / gamma_base - 1.0)
        assert rel < 1e-9, f"{parts} parts: coefficient deviates {rel:.3e}"


@criterion(3, "phased-array sin-ratio and cosine-sum forms agree to 1e-10")
def test_phased_array_identity():
    rng = np.random.default_rng(20260823)
    zeta = rng.uniform(0.0, 10.0 * math.pi, 10000)
    for n in (1, 2, 4, 60):
        if n == 1:
            ratio = np.ones_like(zeta)
            cosine = np.ones_like(zeta)
        else:
            ratio = (np.sin(n * zeta) / (n * np.sin(zeta))) ** 2
            j = np.arange(1, n)
            w = 2.0 * (1.0 - j / n)
            cosine = (1.0 + np.cos(2.0 * np.outer(zeta, j)) @ w) / n
        worst = float(np.max(np.abs(ratio - cosine)))
        assert worst < 1e-10, f"n_spans {n}: forms deviate {worst:.3e}"
        impl = phased_array(zeta, n)
        worst_impl = float(np.max(np.abs(impl - cosine)))
        assert worst_impl < 1e-10, f"n_spans {n}: evaluator deviates {worst_impl:.3e}"


@criterion(4, "measured truncation tails respect tight and loose bounds "
              "for m in {5, 10, 20, 50}")
def test_tail_bounds_sound():
    d = derive_span(SPAN, ATLANTIC)
    full = replace(SETTINGS, truncation_enabled=False)
    for m in (5, 10, 20, 50):
        mu = (m + 1) * math.pi
        measured = d.n_spans * integrate_body(mu, d.zeta_max, d, full)
        tight, loose = truncation_bound(m, d)
        assert measured <= tight, f"m={m}: {measured:.4f} > tight {tight:.4f}"
        assert tight <= loose, f"m={m}: tight {tight:.4f} > loose {loose:.4f}"


@criterion(5, "head integral matches log-weighted adaptive quadrature to "
              "1e-6 and respects its envelope bound")
def test_singular_head_accuracy():
    frozen = {1: 21.50112859492823, 4: 21.497735122550857, 20: 21.411135886403557}
    delta = 0.01
    for n_spans, pinned in frozen.items():
        sys = replace(ATLANTIC, span_count=n_spans)
        d = derive_span(SPAN, sys)

        def xi_s(z):
            return float(xi(np.array([z]), d)[0])

        plain = integrate.quad(xi_s, 0.0, delta, limit=200,
                               epsabs=1e-16, epsrel=1e-13)[0]
        weighted = integrate.quad(xi_s, 0.0, delta, weight="alg-loga",
                                  wvar=(0.0, 0.0), limit=200,
                                  epsabs=1e-16, epsrel=1e-13)[0]
        oracle = math.log(d.zeta_max) * plain - weighted
        assert abs(oracle / pinned - 1.0) < 1e-9  # oracle reproducibility
        head = refined_singular_head(delta, d, SETTINGS)
        rel = abs(head / oracle - 1.0)
        assert rel < 1e-6, f"n_spans {n_spans}: head off by {rel:.3e}"
        cap = d.gamma_bound ** 2 / d.sigma ** 2 \
            * (math.log(d.zeta_max / delta) + 1.0) * delta
        assert head <= cap
        assert singular_head(delta, d) <= cap
        assert oracle <= cap


@criterion(6, "reference-link constants: f_phase 3.09 GHz, zeta_max 1.089e3 "
              "(both to 0.5%), 347 oscillation panels")
def test_reference_link_constants():
    d = derive_span(SPAN, ATLANTIC)
    assert abs(d.f_phase / 3.09e9 - 1.0) < 5e-3
    assert abs(d.zeta_max / 1.089e3 - 1.0) < 5e-3
    assert d.n_panels == 347


@criterion(7, "optimal launch power satisfies a = 2 g P^3 to 1e-9 and the "
              "MPI-free OSNR identity to 1e-12")
def test_optimal_power_stationarity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ase = 10.0 ** rng.uniform(-7, -3)
        nl = 10.0 ** rng.uniform(0, 6)
        mpi = rng.uniform(0.0, 0.2)
        coeffs = PerformanceCoeffs(ase=ase, mpi=mpi, nl=nl)
        p = optimal_power(coeffs)
        rel = abs(ase - 2.0 * nl * p ** 3) / ase
        assert rel <= 1e-9, f"stationarity off by {rel:.3e}"
        clean = PerformanceCoeffs(ase=ase, mpi=0.0, nl=nl)
        p0 = optimal_power(clean)
        ident = p0 / (1.5 * ase)
        rel = abs(osnr_eff(p0, clean) / ident - 1.0)
        assert rel <= 1e-12, f"OSNR identity off by {rel:.3e}"


@criterion(8, "5 km split sweep finds the all-premium optimum with "
              "monotone Q, under 5 minutes")
def test_split_sweep_optimum():
    start = time.monotonic()
    rows = sweep_split(QSMF, SMF, 100e3, ATLANTIC, 5e3, Coherent(), SETTINGS)
    elapsed = time.monotonic() - start
    assert len(rows) == 21
    best = optimal_split(rows)
    assert best.split_ratio == 1.0
    qs = [r.q_opt_db for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:])), "Q not monotone"
    assert elapsed < 300.0, f"took {elapsed:.1f} s"


@criterion(9, "halving the head cut changes the coefficient by less "
              "than 1e-6")
def test_head_cut_robustness():
    base = nl_coefficient(SPAN, ATLANTIC, Coherent(), SETTINGS)
    halved = nl_coefficient(SPAN, ATLANTIC, Coherent(),
                            replace(SETTINGS, delta_safety=0.05))
    rel = abs(halved / base - 1.0)
    assert rel < 1e-6, f"delta halving moved the result by {rel:.3e}"


@criterion(10, "CLI output is byte-identical for 1 and 8 worker threads")
def test_cli_worker_determinism():
    cfg = str(REPO / "configs" / "transatlantic.json")

    def run(workers):
        return subprocess.run(
            [sys.executable, "-m", "hybridgn", "gamma", "--config", cfg,
             "--format", "json", "--workers", str(workers)],
            capture_output=True, timeout=300)

    one = run(1)
    eight = run(8)
    assert one.returncode == 0, one.stderr
    assert eight.returncode == 0, eight.stderr
    assert len(one.stdout) > 0
    assert one.stdout == eight.stdout
    json.loads(one.stdout)  # and it is well-formed
