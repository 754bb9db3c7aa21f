import math
from dataclasses import fields, replace

import pytest

from hybridgn import (
    Coherent,
    QuadratureSettings,
    SpanPlan,
    SplitSweepRow,
    nl_coefficient,
    optimal_power,
    optimal_split,
    osnr_eff,
    performance_coeffs,
    q_factor,
    sweep_power,
    sweep_split,
)
from hybridgn.sweep import (
    MAX_POWER_ROWS,
    MAX_SPLIT_STEPS,
    apply_mpi,
    power_grid_dbm,
    span_with_split,
    split_step_count,
)
from hybridgn.units import dbm_to_watt, watt_to_dbm
from conftest import ATLANTIC, QSMF, SMF


# ---------------------------------------------------------------------------
# power sweep


def test_power_grid_is_built_by_index_up_to_the_row_cap():
    assert power_grid_dbm(-1.0, 1.0, 0.5) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert power_grid_dbm(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 3 * 0.1]
    assert power_grid_dbm(2.0, 2.0, 1.0) == [2.0]
    # a 1/32 dB step keeps every point exact and below the float range
    step = 2.0 ** -5
    assert len(power_grid_dbm(-1500.0, -1500.0 + (MAX_POWER_ROWS - 1) * step, step)) \
        == MAX_POWER_ROWS
    with pytest.raises(ValueError, match="more than"):
        power_grid_dbm(-1500.0, -1500.0 + MAX_POWER_ROWS * step, step)
    with pytest.raises(ValueError):
        power_grid_dbm(1.0, -1.0, 0.5)


@pytest.mark.parametrize("p_min, p_max, step", [
    (3000.0, 3100.0, 50.0), (-4000.0, -3990.0, 5.0), (-4000.0, 0.0, 100.0),
], ids=["last-point-overflows", "all-underflow", "first-point-underflows"])
def test_power_grid_refuses_a_power_outside_the_float_range(p_min, p_max, step):
    # 10**(p/10) mW overflows a float from about 3,083 dBm and underflows
    # to 0 W below about -3,206 dBm
    with pytest.raises(ValueError, match="finite power > 0"):
        power_grid_dbm(p_min, p_max, step)


def test_power_sweep_rows_match_direct_evaluation(hybrid_span, settings):
    powers = [dbm_to_watt(p) for p in (-3.0, 0.0, 2.0)]
    rows = sweep_power(hybrid_span, ATLANTIC, powers, Coherent(), settings)
    coeffs = performance_coeffs(hybrid_span, ATLANTIC, Coherent(), settings)
    assert [r.power for r in rows] == powers
    for r in rows:
        assert r.osnr == osnr_eff(r.power, coeffs)
        assert r.q_db == q_factor(r.osnr, ATLANTIC)


def test_power_sweep_is_unimodal(hybrid_span, settings):
    powers = [dbm_to_watt(-8 + 0.5 * i) for i in range(33)]
    rows = sweep_power(hybrid_span, ATLANTIC, powers, Coherent(), settings)
    qs = [r.q_db for r in rows]
    diffs = [b - a for a, b in zip(qs, qs[1:])]
    sign_changes = sum(1 for a, b in zip(diffs, diffs[1:]) if a > 0 > b)
    assert sign_changes == 1


def test_power_sweep_peak_brackets_closed_form(hybrid_span, settings):
    step_db = 0.5
    powers = [dbm_to_watt(-4 + step_db * i) for i in range(17)]
    rows = sweep_power(hybrid_span, ATLANTIC, powers, Coherent(), settings)
    best = max(rows, key=lambda r: r.q_db)
    coeffs = performance_coeffs(hybrid_span, ATLANTIC, Coherent(), settings)
    exact_dbm = watt_to_dbm(optimal_power(coeffs))
    assert abs(watt_to_dbm(best.power) - exact_dbm) <= step_db


# ---------------------------------------------------------------------------
# split construction


def test_span_with_split_degenerate_ends():
    zero = span_with_split(QSMF, SMF, 100e3, 0.0)
    assert len(zero.segments) == 1
    assert zero.segments[0].name == "smf"
    assert zero.segments[0].length == 100e3
    full = span_with_split(QSMF, SMF, 100e3, 100e3)
    assert len(full.segments) == 1
    assert full.segments[0].name == "qsmf"


def test_span_with_split_interior():
    span = span_with_split(QSMF, SMF, 100e3, 30e3)
    assert [s.name for s in span.segments] == ["qsmf", "smf"]
    assert span.segments[0].length == 30e3
    assert span.segments[1].length == 70e3
    assert span.length == pytest.approx(100e3, rel=1e-15)


def test_span_with_split_validation():
    with pytest.raises(ValueError):
        span_with_split(QSMF, SMF, 100e3, -1.0)
    with pytest.raises(ValueError):
        span_with_split(QSMF, SMF, 100e3, 100e3 + 1.0)


# ---------------------------------------------------------------------------
# split sweep


def test_split_sweep_reference_link(settings):
    rows = sweep_split(QSMF, SMF, 100e3, ATLANTIC, 25e3, Coherent(), settings)
    assert [r.split_ratio for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    # the all-premium end wins and Q rises monotonically toward it
    qs = [r.q_opt_db for r in rows]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    assert qs[0] == pytest.approx(5.686229808494038, rel=1e-12)
    assert qs[-1] == pytest.approx(7.690729933988546, rel=1e-12)
    best = optimal_split(rows)
    assert best.split_ratio == 1.0


def test_split_sweep_interior_rows_match_direct_pipeline(settings):
    rows = sweep_split(QSMF, SMF, 100e3, ATLANTIC, 50e3, Coherent(), settings)
    mid = rows[1]
    span = span_with_split(QSMF, SMF, 100e3, 50e3)
    coeffs = performance_coeffs(span, ATLANTIC, Coherent(), settings)
    assert mid.gamma_nl == coeffs.nl
    assert mid.ase == coeffs.ase
    assert mid.p_opt == optimal_power(coeffs)
    assert mid.q_opt_db == q_factor(osnr_eff(mid.p_opt, coeffs), ATLANTIC)


def test_split_sweep_end_rows_match_single_fiber_spans(settings):
    rows = sweep_split(QSMF, SMF, 100e3, ATLANTIC, 50e3, Coherent(), settings)
    all_smf = SpanPlan((replace(SMF, length=100e3),))
    all_qsmf = SpanPlan((replace(QSMF, length=100e3),))
    assert rows[0].gamma_nl == pytest.approx(
        nl_coefficient(all_smf, ATLANTIC, Coherent(), settings), rel=1e-14)
    assert rows[-1].gamma_nl == pytest.approx(
        nl_coefficient(all_qsmf, ATLANTIC, Coherent(), settings), rel=1e-14)


def test_split_sweep_identical_fibers_is_flat():
    # truncation picks its stopping point from a partition-dependent bound,
    # so exact flatness is only seen on the full-range integral
    full = QuadratureSettings(truncation_enabled=False)
    rows = sweep_split(SMF, SMF, 100e3, ATLANTIC, 25e3, Coherent(), full)
    base = rows[0].gamma_nl
    for r in rows[1:]:
        assert r.gamma_nl == pytest.approx(base, rel=1e-12)
        assert r.q_opt_db == pytest.approx(rows[0].q_opt_db, rel=1e-12)


def test_optimal_split_ties_resolve_to_shortest_leading_length():
    rows = [SplitSweepRow(first_length=f, split_ratio=f / 100e3,
                          gamma_nl=1e4, ase=1e-5, mpi=0.0, p_opt=1e-3,
                          osnr_opt=300.0, q_opt_db=7.5)
            for f in (0.0, 50e3, 100e3)]
    assert optimal_split(rows).first_length == 0.0
    assert optimal_split(list(reversed(rows))).first_length == 0.0


def test_split_sweep_step_validation(settings):
    with pytest.raises(ValueError):
        sweep_split(QSMF, SMF, 100e3, ATLANTIC, 7e3, Coherent(), settings)
    with pytest.raises(ValueError):
        sweep_split(QSMF, SMF, 100e3, ATLANTIC, 0.0, Coherent(), settings)
    with pytest.raises(ValueError):
        sweep_split(QSMF, SMF, 100e3, ATLANTIC, 200e3, Coherent(), settings)


def test_split_sweep_with_length_dependent_mpi(settings):
    """A premium fiber that accumulates MPI with length moves the optimum
    into the interior of the span."""
    model = lambda first: 0.02 * (first / 100e3)
    rows = apply_mpi(sweep_split(QSMF, SMF, 100e3, ATLANTIC, 10e3, Coherent(), settings),
                     ATLANTIC, model)
    for r in rows:
        assert r.mpi == pytest.approx(model(r.first_length), rel=1e-15)
    best = optimal_split(rows)
    assert best.split_ratio == pytest.approx(0.4)
    assert best.q_opt_db == pytest.approx(6.653747857326112, rel=1e-12)
    assert 0.0 < best.split_ratio < 1.0


def test_split_sweep_mpi_compensation_still_applies(settings):
    sys = replace(ATLANTIC, mpi_compensation=0.5)
    model = lambda first: 0.02 * (first / 100e3)
    rows = apply_mpi(sweep_split(QSMF, SMF, 100e3, sys, 50e3, Coherent(), settings),
                     sys, model)
    assert rows[2].mpi == pytest.approx(0.5 * model(100e3), rel=1e-14)


def test_optimal_split_rejects_empty():
    with pytest.raises(ValueError):
        optimal_split([])


# ---------------------------------------------------------------------------
# MPI step


@pytest.mark.parametrize("compensation", [0.0, 0.5], ids=["plain", "compensated"])
@pytest.mark.parametrize("strength", [0.0, 0.02, 0.1])
def test_apply_mpi_equals_sweep_split_with_the_model(settings, compensation, strength):
    sys = replace(ATLANTIC, mpi_coeff=0.01, mpi_compensation=compensation)
    model = lambda first: strength * (first / 100e3)
    # physics swept under another constant MPI: the model overrides it
    physics = sweep_split(QSMF, SMF, 100e3, replace(sys, mpi_coeff=0.05), 25e3,
                          Coherent(), settings)
    direct = apply_mpi(sweep_split(QSMF, SMF, 100e3, sys, 25e3, Coherent(), settings),
                       sys, model)
    reused = apply_mpi(physics, sys, model)
    assert len(reused) == len(direct)
    for a, b in zip(reused, direct):
        for f in fields(SplitSweepRow):
            assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_apply_mpi_without_model_keeps_the_constant_mpi(settings):
    sys = replace(ATLANTIC, mpi_coeff=0.01, mpi_compensation=0.25)
    rows = sweep_split(QSMF, SMF, 100e3, sys, 50e3, Coherent(), settings)
    assert apply_mpi(rows, sys) == rows
    assert all(r.mpi == 0.75 * 0.01 for r in rows)


def test_apply_mpi_changes_only_the_mpi_fields(settings):
    physics = sweep_split(QSMF, SMF, 100e3, ATLANTIC, 50e3, Coherent(), settings)
    rows = apply_mpi(physics, ATLANTIC, lambda first: 0.05)
    for a, b in zip(rows, physics):
        assert (a.first_length, a.split_ratio, a.gamma_nl, a.ase, a.p_opt) == \
            (b.first_length, b.split_ratio, b.gamma_nl, b.ase, b.p_opt)
        assert a.mpi == 0.05 and a.osnr_opt < b.osnr_opt and a.q_opt_db < b.q_opt_db


def test_split_step_count():
    assert split_step_count(100e3, 25e3) == 4
    assert split_step_count(100e3, 100e3) == 1
    assert split_step_count(100e3, 100e3 / 3.0) == 3
    assert split_step_count(100e3, 100.0) == MAX_SPLIT_STEPS == 1000
    for span_length, step in ((100e3, 7e3), (100e3, 0.0), (100e3, -5e3),
                              (100e3, 200e3), (0.0, 1.0), (100e3, math.nan),
                              # more steps than MAX_SPLIT_STEPS, some dividing the span
                              (100e3, 50.0), (100e3, 1.0), (100e3, 1e-9), (100e3, 5e-324)):
        with pytest.raises(ValueError):
            split_step_count(span_length, step)
