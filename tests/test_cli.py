import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hybridgn import cli, derive_span
from hybridgn.config import load_config

REPO = Path(__file__).resolve().parent.parent
ATLANTIC_CFG = str(REPO / "configs" / "transatlantic.json")
TOY_CFG = str(REPO / "configs" / "toy.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hybridgn", *args],
                          capture_output=True, text=False, timeout=300)


def csv_pairs(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    assert rows[0] == ["key", "value"]
    return {k: v for k, v in rows[1:]}


def test_gamma_csv_report():
    res = run_cli("gamma", "--config", ATLANTIC_CFG)
    assert res.returncode == 0, res.stderr
    report = csv_pairs(res.stdout)
    assert report["variant"] == "coherent"
    assert report["n_panels"] == "347"
    assert report["span_count"] == "60"
    assert float(report["zeta0"]) == pytest.approx(1088.770541700461, rel=1e-12)
    assert float(report["gamma_nl_per_w2"]) == pytest.approx(
        10016.992122573714, rel=1e-12)
    assert float(report["f_phase_hz"]) == pytest.approx(
        3085881986.6543927, rel=1e-12)
    assert report["truncation_m"] == "31"


def test_gamma_json_report():
    res = run_cli("gamma", "--config", ATLANTIC_CFG, "--format", "json")
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["truncation_m"] == 31
    assert report["panels_evaluated"] == 40
    assert report["gamma_nl_per_w2"] == pytest.approx(10016.992122573714,
                                                      rel=1e-12)
    assert report["integral_value"] == pytest.approx(63.114617705462024,
                                                     rel=1e-12)


def test_gamma_worker_count_does_not_change_bytes():
    one = run_cli("gamma", "--config", ATLANTIC_CFG, "--format", "json",
                  "--workers", "1")
    eight = run_cli("gamma", "--config", ATLANTIC_CFG, "--format", "json",
                    "--workers", "8")
    assert one.returncode == 0 and eight.returncode == 0
    assert one.stdout == eight.stdout
    one_csv = run_cli("gamma", "--config", ATLANTIC_CFG, "--workers", "1")
    eight_csv = run_cli("gamma", "--config", ATLANTIC_CFG, "--workers", "8")
    assert one_csv.stdout == eight_csv.stdout


def test_gamma_without_truncation():
    res = run_cli("gamma", "--config", ATLANTIC_CFG, "--no-truncation")
    assert res.returncode == 0
    report = csv_pairs(res.stdout)
    assert report["truncation_m"] == "None"
    assert report["panels_evaluated"] == "355"
    assert float(report["tail_bound"]) == 0.0
    assert float(report["gamma_nl_per_w2"]) == pytest.approx(
        10017.000322116135, rel=1e-12)


def test_gamma_span_scaled_variant():
    res = run_cli("gamma", "--config", ATLANTIC_CFG,
                  "--variant", "span-scaled", "--epsilon", "0.15",
                  "--format", "json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["variant"] == "span_scaled"
    assert report["epsilon"] == 0.15
    assert report["gamma_nl_per_w2"] == pytest.approx(13298.169189988848,
                                                      rel=1e-12)


@pytest.mark.parametrize("flags", [[], ["--variant", "coherent"]],
                         ids=["config-coherent", "variant-coherent"])
def test_epsilon_requires_span_scaled(flags):
    res = run_cli("gamma", "--config", ATLANTIC_CFG, *flags, "--epsilon", "0.1")
    assert res.returncode == 2
    assert b"epsilon" in res.stderr


def test_span_scaled_flag_keeps_the_config_epsilon(tmp_path, capsys):
    raw = json.loads(Path(TOY_CFG).read_text())
    raw["variant"] = {"kind": "span_scaled", "epsilon": 0.2}
    p = tmp_path / "epsilon.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["gamma", "--config", str(p), "--variant", "span-scaled",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == 0.2


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_flag_is_a_config_error(epsilon):
    res = run_cli("gamma", "--config", TOY_CFG, "--variant", "span-scaled",
                  "--epsilon", epsilon)
    assert res.returncode == 2
    assert res.stdout == b""
    assert b"config error" in res.stderr and b"epsilon" in res.stderr


def test_overflowing_epsilon_in_config_is_a_config_error(tmp_path):
    raw = json.loads(Path(TOY_CFG).read_text())
    raw["variant"] = {"kind": "span_scaled", "epsilon": 0.1}
    p = tmp_path / "epsilon.json"
    p.write_text(json.dumps(raw).replace('"epsilon": 0.1', '"epsilon": 1e999'))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2
    assert res.stdout == b""
    assert b"config error" in res.stderr and b"epsilon" in res.stderr


def test_integer_too_large_for_a_float_in_config_is_a_config_error(tmp_path):
    for block, key in (("span", "length_km"), ("system", "spans")):
        raw = json.loads(Path(TOY_CFG).read_text())
        target = raw["span"][0] if block == "span" else raw[block]
        target[key] = 10 ** 400
        p = tmp_path / f"huge_{key}.json"
        p.write_text(json.dumps(raw))
        res = run_cli("gamma", "--config", str(p))
        assert res.returncode == 2, key
        assert res.stdout == b""
        assert b"config error" in res.stderr


def test_gamma_non_finite_result_is_a_numerical_error(tmp_path):
    """A gamma so large that gamma_nl overflows: every subcommand that
    integrates stops with the same one-line message and prints nothing."""
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    raw["span"][0]["gamma_per_w_km"] = 1e300
    p = tmp_path / "huge_gamma.json"
    p.write_text(json.dumps(raw))
    for args in (["gamma"], ["sweep-power"], ["sweep-split", "--step-km", "25"],
                 ["check"]):
        res = run_cli(*args, "--config", str(p))
        assert res.returncode == 3, (args, res.stderr)
        assert res.stdout == b"", args
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1, (args, lines)
        assert lines[0].startswith("numerical error: gamma_nl is not finite"), args


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_a_segment_whose_dispersion_times_length_underflows_is_a_config_error(
        tmp_path, position):
    """A 1e-302 km segment has beta2 * length = 0 in floats, so lam_k = 0,
    which the span's decay rates and tail law divide by: a config error
    naming the segment, in one line.  At 1e-301 km the product is a
    subnormal, but lam_k^2, which the tail law divides by, is 0: a config
    error too.  At 1e-150 km gamma_nl comes out finite, the body truncated,
    without a floating-point warning."""
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    raw["span"][position]["length_km"] = 1e-302
    p = tmp_path / "underflow.json"
    p.write_text(json.dumps(raw))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and "config error" in lines[0], lines
    assert repr(raw["span"][position]["name"]) in lines[0]
    assert "underflows" in lines[0]

    raw["span"][position]["length_km"] = 1e-301
    p.write_text(json.dumps(raw))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2, res.stderr
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and "config error" in lines[0], lines
    assert repr(raw["span"][position]["name"]) in lines[0]

    raw["span"][position]["length_km"] = 1e-150
    p.write_text(json.dumps(raw))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hybridgn",
                          "gamma", "--config", str(p), "--format", "json"],
                         capture_output=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stderr == b""
    out = json.loads(res.stdout)
    assert math.isfinite(out["gamma_nl_per_w2"]) and out["gamma_nl_per_w2"] > 0.0
    assert out["truncation_m"] is not None


def test_a_segment_of_almost_no_dispersion_is_a_config_error(tmp_path):
    """A first segment of 1e-23 km and -1e-275 ps^2/km has a share lam_1 of
    the span's dispersion x length of 7e-302, whose square, which the tail
    law divides by, is 0 in floats: a config error naming the segment, in
    one line, where a divide-by-zero warning and an untruncated body were."""
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    raw["span"][0].update(length_km=1e-23, beta2_ps2_per_km=-1e-275)
    p = tmp_path / "no_dispersion.json"
    p.write_text(json.dumps(raw))
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hybridgn",
                          "gamma", "--config", str(p)], capture_output=True, timeout=300)
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error"), lines
    assert repr(raw["span"][0]["name"]) in lines[0]


def test_gamma_below_the_float_range_is_a_numerical_error(tmp_path):
    """Every gamma scaled by 1e-165 puts gamma_nl near 1e-326, below the
    float range: a clean numerical error, not 0.0 with exit 0."""
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    for segment in raw["span"]:
        segment["gamma_per_w_km"] *= 1e-165
    p = tmp_path / "faint_gamma.json"
    p.write_text(json.dumps(raw))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 3, res.stderr
    assert res.stdout == b""
    assert res.stderr.decode().startswith("numerical error: gamma_nl underflows")


def test_overflowing_amplifier_gain_names_the_span_loss(tmp_path):
    """Both fibers at 1e3 dB/km make a 1e5 dB span, whose amplifier gain is
    past the float range: the sweeps, which need the ASE, stop with a message
    that names the loss, while gamma, which does not, still succeeds."""
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    for segment in raw["span"]:
        segment["attenuation_db_per_km"] = 1e3
    p = tmp_path / "lossy.json"
    p.write_text(json.dumps(raw))
    for args in (["sweep-power"], ["sweep-split"]):
        res = run_cli(*args, "--config", str(p))
        assert res.returncode == 3, (args, res.stderr)
        assert res.stdout == b"", args
        assert res.stderr.decode() == ("numerical error: span loss of 100000 dB: "
                                       "the amplifier gain overflows\n"), args
    assert run_cli("gamma", "--config", str(p)).returncode == 0


def test_output_dash_writes_to_stdout(tmp_path):
    to_stdout = run_cli("gamma", "--config", TOY_CFG)
    res = subprocess.run([sys.executable, "-m", "hybridgn", "gamma", "--config", TOY_CFG,
                          "--output", "-"], capture_output=True, timeout=300, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert res.returncode == 0, res.stderr
    assert res.stdout == to_stdout.stdout != b""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_a_config_error(tmp_path, target):
    """An --output that cannot be opened for writing is one config error
    line and exit 2, not a traceback."""
    path = tmp_path / "no" / "such" / "out.csv" if target == "missing-dir" else tmp_path
    res = run_cli("gamma", "--config", TOY_CFG, "--output", str(path))
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    err = res.stderr.decode()
    assert err.startswith(f"config error: cannot write output {path}: ")
    assert err.count("\n") == 1


SPAN_SCALED = {"kind": "span_scaled", "epsilon": 0.2}

# flags, the config blocks that set the same keys, the base config's variant
FLAG_CASES = {
    "no-truncation": (["--no-truncation"], {"quadrature": {"truncation_enabled": False}},
                      None),
    "workers": (["--workers", "3"], {"quadrature": {"workers": 3}}, None),
    "workers-zero": (["--workers", "0"], {"quadrature": {"workers": 0}}, None),
    "span-scaled": (["--variant", "span-scaled"], {"variant": {"kind": "span_scaled"}}, None),
    "span-scaled-keeps-epsilon": (["--variant", "span-scaled"], {}, SPAN_SCALED),
    "coherent-drops-epsilon": (["--variant", "coherent"], {"variant": {"kind": "coherent"}},
                               SPAN_SCALED),
    "epsilon": (["--variant", "span-scaled", "--epsilon", "0.15"],
                {"variant": {"kind": "span_scaled", "epsilon": 0.15}}, None),
    "epsilon-on-coherent": (["--epsilon", "0.1"],
                            {"variant": {"kind": "coherent", "epsilon": 0.1}}, None),
    "format": (["--format", "json"], {"output": {"format": "json"}}, None),
    "output-dash": (["--output", "-"], {"output": {"path": "-"}}, None),
}


@pytest.mark.parametrize("case", FLAG_CASES)
def test_flag_equals_its_config_key(tmp_path, capsys, case):
    flags, blocks, variant = FLAG_CASES[case]

    def run(edit, argv):
        raw = json.loads(Path(TOY_CFG).read_text())
        if variant is not None:
            raw["variant"] = variant
        raw.update(edit)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        code = cli.main(["gamma", "--config", str(p), *argv])
        return (code, *capsys.readouterr())

    with_flag = run({}, flags)
    assert with_flag == run(blocks, [])
    assert with_flag[0] in (0, 2)
    assert (with_flag[0] == 0) == (with_flag[1] != "")


def test_output_flag_writes_the_config_path(tmp_path, capsys):
    raw = json.loads(Path(TOY_CFG).read_text())
    raw["output"] = {"path": str(tmp_path / "from_config.csv")}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["gamma", "--config", str(p)]) == 0
    assert cli.main(["gamma", "--config", TOY_CFG,
                     "--output", str(tmp_path / "from_flag.csv")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "from_flag.csv").read_bytes() == \
        (tmp_path / "from_config.csv").read_bytes()


@pytest.mark.parametrize("block, value, flags", [
    ("quadrature", [], ["--workers", "2"]),
    ("variant", "coherent", ["--epsilon", "0.1"]),
    ("variant", "span_scaled", ["--variant", "span-scaled"]),
    ("output", "json", ["--format", "csv"]),
], ids=["quadrature-list-workers", "variant-string-epsilon", "variant-string-span-scaled",
        "output-string-format"])
def test_malformed_block_is_a_config_error_before_flags(tmp_path, capsys, block, value,
                                                        flags):
    raw = json.loads(Path(TOY_CFG).read_text())
    raw[block] = value
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(raw))
    assert cli.main(["gamma", "--config", str(p), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: config invalid at {block}:")


def test_output_file_matches_stdout(tmp_path):
    to_stdout = run_cli("gamma", "--config", ATLANTIC_CFG)
    out = tmp_path / "report.csv"
    to_file = run_cli("gamma", "--config", ATLANTIC_CFG, "--output", str(out))
    assert to_file.returncode == 0
    assert to_file.stdout == b""
    assert out.read_bytes() == to_stdout.stdout


def test_sweep_power_table():
    res = run_cli("sweep-power", "--config", ATLANTIC_CFG,
                  "--p-min-dbm", "-2", "--p-max-dbm", "2", "--p-step-db", "1")
    assert res.returncode == 0
    rows = list(csv.reader(io.StringIO(res.stdout.decode())))
    assert rows[0] == ["p_dbm", "osnr_db", "q_db"]
    assert len(rows) == 6
    table = [(float(p), float(q)) for p, _, q in rows[1:]]
    assert [p for p, _ in table] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    # the optimum sits at 0.56 dBm, so 1 dBm wins on this grid
    best = max(table, key=lambda t: t[1])
    assert best[0] == 1.0


def test_sweep_power_grid_validation():
    res = run_cli("sweep-power", "--config", ATLANTIC_CFG,
                  "--p-min-dbm", "5", "--p-max-dbm", "-5")
    assert res.returncode == 2


def _cap_address_space():
    # A run whose memory grows with its input would take all the memory
    # there is; cap it at 2 GiB so that such a run fails fast instead.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("args", [
    ["--p-min-dbm=-1e15", "--p-max-dbm", "1e15"],
    ["--p-min-dbm=-1e308", "--p-max-dbm", "1e308"],
    ["--p-min-dbm", "0", "--p-max-dbm", "1", "--p-step-db", "1e-9"],
], ids=["wide-range", "overflowing-range", "fine-step"])
def test_sweep_power_grid_over_the_row_cap_is_a_config_error(args):
    res = subprocess.run([sys.executable, "-m", "hybridgn", "sweep-power",
                          "--config", TOY_CFG, *args],
                         capture_output=True, timeout=60,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                         preexec_fn=_cap_address_space)
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    assert b"config error" in res.stderr and b"more than" in res.stderr


def test_gamma_with_a_hundred_thousand_channels_fits_in_memory(tmp_path):
    # the body is laid out per block, so memory does not grow with zeta0
    raw = json.loads(Path(TOY_CFG).read_text())
    raw["system"]["channels"] = 100000
    p = tmp_path / "wide.json"
    p.write_text(json.dumps(raw))
    res = subprocess.run([sys.executable, "-m", "hybridgn", "gamma", "--config", str(p)],
                         capture_output=True, timeout=120,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                         preexec_fn=_cap_address_space)
    assert res.returncode == 0, res.stderr
    gamma = float(csv_pairs(res.stdout)["gamma_nl_per_w2"])
    assert math.isfinite(gamma) and gamma > 0.0


def test_sweep_split_csv():
    res = run_cli("sweep-split", "--config", ATLANTIC_CFG, "--step-km", "25")
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()
    assert lines[0].split(",")[:3] == ["first_km", "split_ratio",
                                      "gamma_nl_per_w2"]
    assert len(lines) == 7  # header + 5 rows + optimum trailer
    assert lines[-1].startswith("# optimal first_km=100.0 split_ratio=1.0")


def test_sweep_split_json():
    res = run_cli("sweep-split", "--config", ATLANTIC_CFG, "--step-km", "50",
                  "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert len(payload["rows"]) == 3
    assert payload["optimal"]["split_ratio"] == 1.0
    assert payload["rows"][0]["split_ratio"] == 0.0


def test_sweep_split_needs_two_fibers(tmp_path):
    cfg = {
        "span": [{"name": "smf", "length_km": 80.0,
                  "attenuation_db_per_km": 0.2, "beta2_ps2_per_km": -21.7,
                  "gamma_per_w_km": 1.3}],
        "system": {"spans": 4, "symbol_rate_gbd": 32.0, "channels": 3,
                   "noise_figure_db": 5.0, "wavelength_nm": 1550.0},
    }
    p = tmp_path / "single.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("sweep-split", "--config", str(p))
    assert res.returncode == 2
    assert b"two fiber types" in res.stderr


def test_sweep_split_step_must_divide():
    res = run_cli("sweep-split", "--config", ATLANTIC_CFG, "--step-km", "7")
    assert res.returncode == 2
    assert b"divide" in res.stderr


def test_check_passes_on_default_tolerance():
    res = run_cli("check", "--config", TOY_CFG, "--grid", "128")
    assert res.returncode == 0, res.stderr
    report = csv_pairs(res.stdout)
    assert report["status"] == "pass"
    assert float(report["rel_deviation"]) < 5e-3


def test_check_fails_on_unreachable_tolerance():
    res = run_cli("check", "--config", TOY_CFG, "--grid", "128",
                  "--tolerance", "1e-9")
    assert res.returncode == 3
    report = csv_pairs(res.stdout)
    assert report["status"] == "fail"


def test_bound_table():
    res = run_cli("bound", "--config", ATLANTIC_CFG)
    assert res.returncode == 0
    rows = list(csv.reader(io.StringIO(res.stdout.decode())))
    assert rows[0] == ["m", "mu", "tight_bound", "loose_bound"]
    assert [r[0] for r in rows[1:]] == ["5", "10", "20", "50"]
    for r in rows[1:]:
        assert float(r[2]) <= float(r[3])


def test_bound_non_finite_is_a_numerical_error(tmp_path):
    raw = json.loads(Path(ATLANTIC_CFG).read_text())
    raw["span"][0]["gamma_per_w_km"] = 1e300
    p = tmp_path / "huge_gamma.json"
    p.write_text(json.dumps(raw))
    res = run_cli("bound", "--config", str(p), "--m-list", "5")
    assert res.returncode == 3
    assert res.stdout == b""
    assert b"numerical error:" in res.stderr


def test_bound_rejects_out_of_range_m():
    res = run_cli("bound", "--config", ATLANTIC_CFG, "--m-list", "5,600")
    assert res.returncode == 2


def _zeta_max(path):
    cfg = load_config(path)
    return derive_span(cfg.span, cfg.system).zeta_max


def test_bound_names_the_largest_valid_m():
    zeta_max = _zeta_max(ATLANTIC_CFG)
    largest = max(m for m in range(1, 2000) if (m + 1) * math.pi < zeta_max)
    res = run_cli("bound", "--config", ATLANTIC_CFG, "--m-list", "5,600")
    assert res.returncode == 2 and res.stdout == b""
    assert f"m=600: truncation point (m+1)*pi must lie below zeta_max; " \
           f"the largest valid m is {largest}" in res.stderr.decode()
    assert largest == 345  # zeta_max = 1.089e3 on the reference link


@pytest.mark.parametrize("m_list", ["5,10,20,50", "1"])
def test_bound_on_a_link_without_truncation_point(m_list):
    """The toy link has zeta_max < 2 pi, so no m >= 1 is valid: the error
    says so, whichever m were asked for."""
    zeta_max = _zeta_max(TOY_CFG)
    assert zeta_max <= 2.0 * math.pi
    res = run_cli("bound", "--config", TOY_CFG, "--m-list", m_list)
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr.decode() == ("config error: the link admits no truncation point: "
                                   f"zeta_max = {zeta_max:.6g} is not above 2*pi\n")


def test_bound_rejects_malformed_m_list():
    res = run_cli("bound", "--config", ATLANTIC_CFG, "--m-list", "a,b")
    assert res.returncode == 2


@pytest.mark.parametrize("m_list", [",", "", " , "])
def test_bound_rejects_an_empty_m_list(m_list):
    res = run_cli("bound", "--config", ATLANTIC_CFG, "--m-list", m_list)
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr.decode() == "config error: --m-list names no m\n"


def test_missing_config_file():
    res = run_cli("gamma", "--config", "/nonexistent/nowhere.json")
    assert res.returncode == 2
    assert b"config error" in res.stderr


def test_invalid_config_content(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"span": []}')
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2


@pytest.mark.parametrize("value", ["NaN", "1e999"])
def test_non_finite_config_value_is_a_config_error(tmp_path, value):
    p = tmp_path / "nan.json"
    text = Path(TOY_CFG).read_text()
    raw = json.loads(text)
    raw["span"][0]["attenuation_db_per_km"] = "@"
    p.write_text(json.dumps(raw).replace('"@"', value))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2
    assert res.stdout == b""
    assert b"config error" in res.stderr


@pytest.mark.parametrize("command", ["gamma", "sweep-split", "check"])
@pytest.mark.parametrize("block, key", [("system", "spans"), ("quadrature", "workers")])
def test_non_integral_count_in_config_is_a_config_error(tmp_path, command, block, key):
    """A JSON 2.0 is a number, not an integer: it must not reach range() or a
    numpy cast as a float."""
    raw = json.loads(Path(TOY_CFG).read_text())
    raw.setdefault(block, {})[key] = 2.0
    p = tmp_path / "float_count.json"
    p.write_text(json.dumps(raw))
    res = run_cli(command, "--config", str(p))
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    assert b"config error" in res.stderr and key.encode() in res.stderr


@pytest.mark.parametrize("args", [
    ["check", "--config", TOY_CFG, "--grid", "255"],
    ["check", "--config", TOY_CFG, "--grid", "0"],
    ["check", "--config", TOY_CFG, "--tolerance", "nan"],
    ["sweep-power", "--config", TOY_CFG, "--p-min-dbm", "nan"],
    ["sweep-power", "--config", TOY_CFG, "--p-min-dbm=-inf"],
    ["sweep-power", "--config", TOY_CFG, "--p-max-dbm", "inf"],
    ["gamma", "--config", TOY_CFG, "--workers", "0"],
    # 10**(p/10) mW overflows a float, or underflows to 0 W
    ["sweep-power", "--config", TOY_CFG, "--p-min-dbm", "3000", "--p-max-dbm", "3100",
     "--p-step-db", "50"],
    ["sweep-power", "--config", TOY_CFG, "--p-min-dbm=-4000", "--p-max-dbm=-3990",
     "--p-step-db", "5"],
    # past the caps: a 2-D grid that outgrows memory, 2,000 split integrals
    ["check", "--config", TOY_CFG, "--grid", "2050"],
    ["sweep-split", "--config", TOY_CFG, "--step-km", "0.05"],
], ids=["grid-odd", "grid-zero", "tolerance-nan", "p-min-nan", "p-min-minus-inf",
        "p-max-inf", "workers-zero", "power-overflow", "power-underflow", "grid-too-fine",
        "split-step-too-fine"])
def test_bad_numeric_argument_is_an_argument_error(args):
    res = run_cli(*args)
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    assert b"config error" in res.stderr


def test_unknown_config_key(tmp_path):
    p = tmp_path / "extra.json"
    raw = json.loads(Path(TOY_CFG).read_text())
    raw["surprise"] = True
    p.write_text(json.dumps(raw))
    res = run_cli("gamma", "--config", str(p))
    assert res.returncode == 2


def test_no_subcommand_is_usage_error():
    res = run_cli()
    assert res.returncode == 2


def test_config_flag_is_required():
    res = run_cli("gamma")
    assert res.returncode == 2


def _strict_json(data):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(data, parse_constant=reject)


def test_json_output_is_strict_for_non_finite_values(tmp_path):
    """All-zero gamma: the dB coefficient is -inf and Q is +inf (BER
    underflows to 0); both are written as null, never as -Infinity or
    Infinity."""
    raw = json.loads(Path(TOY_CFG).read_text())
    for seg in raw["span"]:
        seg["gamma_per_w_km"] = 0.0
    p = tmp_path / "linear.json"
    p.write_text(json.dumps(raw))

    res = run_cli("gamma", "--config", str(p), "--format", "json")
    assert res.returncode == 0, res.stderr
    report = _strict_json(res.stdout)
    assert report["gamma_nl_per_w2"] == 0.0
    assert report["gamma_nl_db_mw2"] is None

    res = run_cli("sweep-power", "--config", str(p), "--format", "json",
                  "--p-min-dbm", "0", "--p-max-dbm", "1", "--p-step-db", "1")
    assert res.returncode == 0, res.stderr
    rows = _strict_json(res.stdout)
    assert [r["p_dbm"] for r in rows] == [0.0, 1.0]
    assert all(r["q_db"] is None and math.isfinite(r["osnr_db"]) for r in rows)


def test_json_text_nulls_non_finite_floats():
    text = cli._json_text({"a": [1.0, math.nan, (math.inf, -math.inf)], "b": 2})
    assert _strict_json(text) == {"a": [1.0, None, [None, None]], "b": 2}
