import json
import math
from pathlib import Path

import pytest

from hybridgn import Coherent, QuadratureSettings, SpanScaled
from hybridgn.config import ConfigError, load_config, parse_config

REPO = Path(__file__).resolve().parent.parent


def _minimal():
    return {
        "span": [
            {"name": "smf", "length_km": 80.0, "attenuation_db_per_km": 0.2,
             "beta2_ps2_per_km": -21.7, "gamma_per_w_km": 1.3},
        ],
        "system": {
            "spans": 10, "symbol_rate_gbd": 32.0, "channels": 5,
            "noise_figure_db": 5.0, "wavelength_nm": 1550.0,
        },
    }


def test_minimal_config_parses_and_converts():
    cfg = parse_config(_minimal())
    seg = cfg.span.segments[0]
    assert seg.name == "smf"
    assert seg.length == pytest.approx(80e3, rel=1e-15)
    assert seg.attenuation == pytest.approx(0.2 * math.log(10.0) / 10.0 / 1e3,
                                            rel=1e-14)
    assert seg.beta2 == pytest.approx(-21.7e-27, rel=1e-14)
    assert seg.gamma == pytest.approx(1.3e-3, rel=1e-14)
    assert cfg.system.span_count == 10
    assert cfg.system.symbol_rate == pytest.approx(32e9, rel=1e-15)
    assert cfg.system.wavelength == pytest.approx(1550e-9, rel=1e-15)
    assert cfg.system.mpi_coeff == 0.0
    assert cfg.settings == QuadratureSettings()
    assert isinstance(cfg.variant, Coherent)
    assert cfg.output_format == "csv"
    assert cfg.output_path is None


def test_optional_blocks():
    raw = _minimal()
    raw["quadrature"] = {"delta_safety": 0.05, "workers": 4,
                         "truncation_enabled": False}
    raw["variant"] = {"kind": "span_scaled", "epsilon": 0.1}
    raw["output"] = {"format": "json", "path": "out.json"}
    raw["system"]["mpi_coeff_per_w"] = 0.01
    raw["system"]["mpi_compensation"] = 0.25
    cfg = parse_config(raw)
    assert cfg.settings.delta_safety == 0.05
    assert cfg.settings.workers == 4
    assert cfg.settings.truncation_enabled is False
    assert cfg.variant == SpanScaled(epsilon=0.1)
    assert cfg.output_format == "json"
    assert cfg.output_path == "out.json"
    assert cfg.system.mpi_coeff == 0.01
    assert cfg.system.mpi_compensation == 0.25


def test_stdout_path_aliases():
    for alias in ("-", "stdout"):
        raw = _minimal()
        raw["output"] = {"path": alias}
        assert parse_config(raw).output_path is None


def test_unknown_top_level_key_rejected():
    raw = _minimal()
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="config invalid"):
        parse_config(raw)


def test_unknown_span_key_rejected():
    raw = _minimal()
    raw["span"][0]["dispersion_slope"] = 0.06
    with pytest.raises(ConfigError, match="span/0"):
        parse_config(raw)


def test_missing_required_field_rejected():
    raw = _minimal()
    del raw["system"]["channels"]
    with pytest.raises(ConfigError, match="channels"):
        parse_config(raw)


def test_wrong_type_rejected():
    raw = _minimal()
    raw["system"]["symbol_rate_gbd"] = "32"
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_schema_bounds_enforced():
    raw = _minimal()
    raw["span"][0]["length_km"] = 0.0
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _minimal()
    raw["system"]["mpi_compensation"] = 1.5
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _minimal()
    raw["output"] = {"format": "yaml"}
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _minimal()
    raw["variant"] = {"kind": "magic"}
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _minimal()
    raw["quadrature"] = {"nodes_per_oscillation": 1}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_model_level_validation_still_applies():
    # schema-legal values can still violate model invariants
    raw = _minimal()
    raw["span"].append({"name": "dcf", "length_km": 10.0,
                        "attenuation_db_per_km": 0.5,
                        "beta2_ps2_per_km": 100.0, "gamma_per_w_km": 5.0})
    with pytest.raises(ConfigError, match="dispersion sign"):
        parse_config(raw)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(p))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_finite_literals(tmp_path, literal):
    text = json.dumps(_minimal()).replace('"noise_figure_db": 5.0',
                                          f'"noise_figure_db": {literal}')
    p = tmp_path / "nonfinite.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match="non-finite"):
        load_config(str(p))


def test_load_config_rejects_overflowing_numbers(tmp_path):
    # 1e999 parses to inf without any special literal
    text = json.dumps(_minimal()).replace('"attenuation_db_per_km": 0.2',
                                          '"attenuation_db_per_km": 1e999')
    p = tmp_path / "overflow.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match="finite"):
        load_config(str(p))


def test_load_config_rejects_overflowing_epsilon(tmp_path):
    raw = _minimal()
    raw["variant"] = {"kind": "span_scaled", "epsilon": 0.1}
    p = tmp_path / "epsilon.json"
    p.write_text(json.dumps(raw).replace('"epsilon": 0.1', '"epsilon": 1e999'))
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(str(p))


def test_load_config_non_object_root(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_config(str(p))


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_minimal()))
    cfg = load_config(str(p))
    assert cfg.system.channel_count == 5


def test_bundled_configs_parse():
    cfg = load_config(str(REPO / "configs" / "transatlantic.json"))
    assert [s.name for s in cfg.span.segments] == ["QSMF", "SMF"]
    assert cfg.system.span_count == 60
    assert cfg.system.channel_count == 9
    toy = load_config(str(REPO / "configs" / "toy.json"))
    assert toy.system.span_count == 2
    assert toy.system.symbol_rate == pytest.approx(1e9, rel=1e-15)
