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


_DELETE = object()


def _edited(path, value):
    """_minimal() plus the three optional blocks, with the value at `path`
    (keys and list indices) replaced, or removed when `value` is _DELETE."""
    raw = _minimal()
    raw.update(quadrature={}, output={}, variant={"kind": "coherent"})
    node = raw
    for step in path[:-1]:
        node = node[step]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


_NUMBER_KEYS = [
    ("span", 0, "length_km"), ("span", 0, "attenuation_db_per_km"),
    ("span", 0, "beta2_ps2_per_km"), ("span", 0, "gamma_per_w_km"),
    ("system", "symbol_rate_gbd"), ("system", "noise_figure_db"),
    ("system", "wavelength_nm"), ("system", "mpi_coeff_per_w"),
    ("system", "mpi_compensation"), ("quadrature", "delta_safety"),
    ("quadrature", "target_rel_truncation"), ("quadrature", "pole_window"),
    ("variant", "epsilon"),
]
_INTEGER_KEYS = [("system", "spans"), ("system", "channels"),
                 ("quadrature", "nodes_per_oscillation"), ("quadrature", "workers")]


def _case(path, value, tag):
    return pytest.param(path, value, id="/".join(map(str, path)) + "=" + tag)


@pytest.mark.parametrize("path, value", [
    # a string, a bool and a null where a number is expected; the string case
    # of system/symbol_rate_gbd is this test's first input
    *[_case(key, bad, tag) for key in _NUMBER_KEYS + _INTEGER_KEYS
      for bad, tag in (("32", "string"), (True, "true"), (None, "null"))],
    # JSON numbers that are not integers where an integer is expected
    *[_case(key, bad, tag) for key in _INTEGER_KEYS
      for bad, tag in ((2.0, "2.0"), (2.5, "2.5"))],
    _case(("span", 0, "name"), 1, "number"),
    _case(("span", 0, "name"), None, "null"),
    _case(("quadrature", "truncation_enabled"), 1, "number"),
    _case(("quadrature", "truncation_enabled"), "false", "string"),
    _case(("output", "path"), 1, "number"),
    _case(("output", "path"), None, "null"),
    # unknown keys, per block
    *[_case((*block, "extra"), 1, "unknown") for block in
      [(), ("span", 0), ("system",), ("quadrature",), ("output",), ("variant",)]],
    # missing required keys, per block
    *[_case(key, _DELETE, "missing") for key in [
        ("span",), ("system",), ("span", 0, "name"), ("span", 0, "length_km"),
        ("span", 0, "attenuation_db_per_km"), ("span", 0, "beta2_ps2_per_km"),
        ("span", 0, "gamma_per_w_km"), ("system", "spans"),
        ("system", "symbol_rate_gbd"), ("system", "channels"),
        ("system", "noise_figure_db"), ("system", "wavelength_nm"),
        ("variant", "kind")]],
    # blocks of the wrong JSON type
    *[_case(key, bad, tag) for key in [("system",), ("quadrature",), ("output",),
                                       ("variant",), ("span", 0)]
      for bad, tag in (([], "list"), ("x", "string"), (None, "null"))],
    _case(("span",), {}, "object"),
    _case(("span",), "smf", "string"),
    _case(("span",), None, "null"),
])
def test_wrong_type_rejected(path, value):
    raw = _edited(path, value)
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("path, value", [
    _case(("span", 0, "length_km"), 0.0, "0"),
    _case(("span", 0, "length_km"), -1.0, "-1"),
    _case(("span", 0, "attenuation_db_per_km"), -0.1, "-0.1"),
    _case(("span", 0, "gamma_per_w_km"), -1.0, "-1"),
    _case(("span",), [], "empty"),
    _case(("system", "spans"), 0, "0"),
    _case(("system", "symbol_rate_gbd"), 0.0, "0"),
    _case(("system", "symbol_rate_gbd"), -32.0, "-32"),
    _case(("system", "channels"), 0, "0"),
    _case(("system", "wavelength_nm"), 0.0, "0"),
    _case(("system", "wavelength_nm"), -1550.0, "-1550"),
    _case(("system", "mpi_coeff_per_w"), -0.01, "-0.01"),
    _case(("system", "mpi_compensation"), 1.5, "1.5"),
    _case(("system", "mpi_compensation"), -0.5, "-0.5"),
    _case(("output", "format"), "yaml", "yaml"),
    _case(("output", "format"), "CSV", "CSV"),
    _case(("variant", "kind"), "magic", "magic"),
    _case(("variant", "kind"), "span-scaled", "span-scaled"),
    _case(("quadrature", "nodes_per_oscillation"), 1, "1"),
    _case(("quadrature", "nodes_per_oscillation"), 0, "0"),
    _case(("quadrature", "delta_safety"), 0.0, "0"),
    _case(("quadrature", "delta_safety"), 1.5, "1.5"),
    _case(("quadrature", "target_rel_truncation"), 0.0, "0"),
    _case(("quadrature", "target_rel_truncation"), -1e-4, "-1e-4"),
    _case(("quadrature", "pole_window"), 0.0, "0"),
    _case(("quadrature", "pole_window"), -1e-6, "-1e-6"),
    _case(("quadrature", "workers"), 0, "0"),
])
def test_schema_bounds_enforced(path, value):
    raw = _edited(path, value)
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("path, value", [
    _case(("span", 0, "attenuation_db_per_km"), 0, "0"),
    _case(("span", 0, "gamma_per_w_km"), 0, "0"),
    _case(("span", 0, "length_km"), 80, "int"),
    _case(("system", "spans"), 1, "1"),
    _case(("system", "channels"), 1, "1"),
    _case(("system", "mpi_compensation"), 1, "1"),
    _case(("quadrature", "delta_safety"), 1, "1"),
    _case(("quadrature", "nodes_per_oscillation"), 2, "2"),
    _case(("output", "path"), "stdout", "stdout"),
])
def test_edge_values_accepted(path, value):
    parse_config(_edited(path, value))


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
