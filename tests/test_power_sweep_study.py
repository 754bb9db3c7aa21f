"""scripts/power_sweep_study.py: one gamma_nl integral per design, and
argument errors before any integral."""

import csv
import importlib.util
import io
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hybridgn.engine
from hybridgn import Coherent, QuadratureSettings, sweep_power
from hybridgn.config import load_config
from hybridgn.units import dbm_to_watt

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "power_sweep_study.py"
_spec = importlib.util.spec_from_file_location("power_sweep_study", SCRIPT)
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)

ARGV = ["--p-min-dbm", "-1", "--p-max-dbm", "1"]


def _count_nl_calls(monkeypatch):
    calls = []
    original = hybridgn.engine.nl_coefficient

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hybridgn.engine, "nl_coefficient", counting)
    return calls


def _run_study(tmp_path, argv):
    out = tmp_path / "study.csv"
    assert study.main([*argv, "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        return fh.read()


def test_study_integrates_each_design_once(tmp_path, monkeypatch):
    calls = _count_nl_calls(monkeypatch)
    _run_study(tmp_path, ARGV)
    assert len(calls) == len(study.DESIGNS) == 3


def test_study_q_columns_equal_sweep_power(tmp_path):
    grid = [dbm_to_watt(p) for p in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    rows = list(csv.reader(io.StringIO(_run_study(tmp_path, ARGV))))
    columns = {name: [repr(r.q_db) for r in sweep_power(
        span, study.SYSTEM, grid, Coherent(), QuadratureSettings())]
        for name, span in study.DESIGNS.items()}
    assert rows[0] == ["p_dbm", "q_db_premium", "q_db_standard", "q_db_hybrid"]
    assert [r[0] for r in rows[1:6]] == ["-1.00", "-0.50", "0.00", "0.50", "1.00"]
    for j, name in enumerate(study.DESIGNS, start=1):
        assert [r[j] for r in rows[1:6]] == columns[name]


def test_study_link_is_the_transatlantic_config():
    cfg = load_config(str(REPO / "configs" / "transatlantic.json"))
    assert study.SYSTEM == cfg.system
    assert study.DESIGNS["hybrid"] == cfg.span
    for seg, ref in zip((study.PREMIUM, study.STANDARD), cfg.span.segments, strict=True):
        assert replace(seg, length=ref.length) == ref


@pytest.mark.parametrize("argv", [
    ["--p-min-dbm", "nan"],
    ["--p-max-dbm", "nan"],
    ["--p-step-db", "nan"],
    ["--p-step-db", "inf"],
    ["--p-min-dbm", "3000", "--p-max-dbm", "3100", "--p-step-db", "50"],
    ["--p-min-dbm=-4000", "--p-max-dbm=-3990", "--p-step-db", "5"],
], ids=["p-min-nan", "p-max-nan", "step-nan", "step-inf", "power-overflow",
        "power-underflow"])
def test_study_rejects_bad_arguments_before_any_integral(tmp_path, monkeypatch,
                                                         capsys, argv):
    calls = _count_nl_calls(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        study.main([*argv, "-o", str(tmp_path / "never.csv")])
    assert exc.value.code == 2
    assert calls == []
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def _cap_address_space():
    # A grid loop that never ends grows until memory runs out; cap it so
    # that such a run fails fast instead.
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["--p-step-db", "0"],
    ["--p-step-db", "-0.5"],
    ["--p-max-dbm", "inf"],
    ["--p-min-dbm=-inf"],
    ["--p-min-dbm=-1e20"],
    ["--p-min-dbm=-1e15", "--p-max-dbm", "1e15"],
], ids=["step-zero", "step-negative", "p-max-inf", "p-min-minus-inf", "p-min-huge",
        "range-huge"])
def test_study_rejects_a_grid_that_never_ends(tmp_path, argv):
    out = tmp_path / "never.csv"
    res = subprocess.run([sys.executable, str(SCRIPT), *argv, "-o", str(out)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                         preexec_fn=_cap_address_space)
    assert res.returncode == 2, res.stderr
    assert "error:" in res.stderr
    assert not out.exists()
