import math

import pytest
from hypothesis import given, strategies as st

from hybridgn.units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    db_to_linear,
    dbm_to_watt,
    gamma_per_w_km_to_per_w_m,
    linear_to_db,
    watt_to_dbm,
)


def test_db_to_linear_known_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-14)
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-14)


def test_linear_to_db_known_points():
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-14)


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-3.0)


@given(st.floats(-80.0, 80.0))
def test_db_roundtrip(x):
    assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-10)


def test_dbm_watt_known_points():
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-14)
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-14)
    assert watt_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watt_to_dbm(2e-3) == pytest.approx(3.0102999566398116, rel=1e-12)


@given(st.floats(-60.0, 40.0))
def test_dbm_roundtrip(p):
    assert watt_to_dbm(dbm_to_watt(p)) == pytest.approx(p, abs=1e-10)


def test_attenuation_conversion():
    # 0.2 dB/km in power is 0.2 ln(10)/10 Np/km
    assert attenuation_db_per_km_to_np_per_m(0.2) == pytest.approx(
        4.605170185988092e-05, rel=1e-14)
    assert attenuation_db_per_km_to_np_per_m(0.0) == 0.0


def test_attenuation_matches_exp_decay():
    # 100 km of 0.2 dB/km must lose exactly 20 dB
    a = attenuation_db_per_km_to_np_per_m(0.2)
    assert math.exp(-a * 100e3) == pytest.approx(db_to_linear(-20.0), rel=1e-12)


def test_beta2_conversion():
    assert beta2_ps2_per_km_to_s2_per_m(-26.6) == pytest.approx(-2.66e-26, rel=1e-14)
    assert beta2_ps2_per_km_to_s2_per_m(0.0) == 0.0


def test_gamma_conversion():
    assert gamma_per_w_km_to_per_w_m(1.3) == pytest.approx(1.3e-3, rel=1e-14)


