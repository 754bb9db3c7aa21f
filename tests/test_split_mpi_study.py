"""scripts/split_mpi_study.py: one physics sweep shared by every MPI
strength, and argument errors before any integral."""

import csv
import importlib.util
import io
from dataclasses import replace
from pathlib import Path

import pytest

import hybridgn.engine
import hybridgn.sweep
from hybridgn import Coherent, QuadratureSettings
from hybridgn.config import load_config
from hybridgn.sweep import apply_mpi, optimal_split, sweep_split
from hybridgn.units import linear_to_db, watt_to_dbm

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "split_mpi_study", REPO / "scripts" / "split_mpi_study.py")
study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(study)

STRENGTHS = (0.0, 0.02, 0.05)
ARGV = ["--strengths", "0,0.02,0.05", "--step-km", "20"]


def _count_nl_calls(monkeypatch):
    """Wrap nl_coefficient in every hybridgn module that holds it."""
    calls = []
    original = hybridgn.engine.nl_coefficient

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (hybridgn.engine, hybridgn.sweep):
        if hasattr(mod, "nl_coefficient"):
            monkeypatch.setattr(mod, "nl_coefficient", counting)
    return calls


def _run_study(tmp_path, argv):
    out = tmp_path / "study.csv"
    assert study.main([*argv, "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        return fh.read()


def test_output_dash_writes_to_stdout(tmp_path, monkeypatch, capsys):
    """-o - means stdout, as the CLI's --output - does; no file named -."""
    monkeypatch.chdir(tmp_path)
    assert study.main([*ARGV, "-o", "-"]) == 0
    assert not (tmp_path / "-").exists()
    assert capsys.readouterr().out == _run_study(tmp_path, ARGV)


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, target):
    """A -o that cannot be opened for writing is one config error line and
    exit 2, as for the CLI's --output."""
    path = tmp_path / "no" / "such" / "out.csv" if target == "missing-dir" else tmp_path
    assert study.main([*ARGV, "-o", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot write output {path}: ")
    assert err.count("\n") == 1


def test_study_computes_each_split_once(tmp_path, monkeypatch):
    calls = _count_nl_calls(monkeypatch)
    _run_study(tmp_path, ARGV)
    assert len(calls) == 6  # 0, 20, ..., 100 km of premium fiber


def test_study_csv_equals_per_strength_sweeps(tmp_path):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["mpi_strength", "best_split_ratio", "best_first_km",
                     "p_opt_dbm", "osnr_opt_db", "q_opt_db"])
    for k in STRENGTHS:
        rows = apply_mpi(sweep_split(study.PREMIUM, study.STANDARD, study.SPAN_LENGTH,
                                     study.SYSTEM, 20e3, Coherent(), QuadratureSettings()),
                         study.SYSTEM, lambda first: k * first / study.SPAN_LENGTH)
        best = optimal_split(rows)
        writer.writerow([repr(k), repr(best.split_ratio),
                         f"{best.first_length / 1e3:.1f}",
                         f"{watt_to_dbm(best.p_opt):.3f}",
                         f"{linear_to_db(best.osnr_opt):.3f}",
                         repr(best.q_opt_db)])
    assert _run_study(tmp_path, ARGV) == buf.getvalue()


def test_study_link_is_the_transatlantic_config():
    cfg = load_config(str(REPO / "configs" / "transatlantic.json"))
    assert study.SYSTEM == cfg.system
    assert study.SPAN_LENGTH == cfg.span.length
    for seg, ref in zip((study.PREMIUM, study.STANDARD), cfg.span.segments, strict=True):
        assert replace(seg, length=ref.length) == ref


@pytest.mark.parametrize("argv", [
    ["--step-km", "7"],
    ["--step-km", "0"],
    ["--step-km", "150"],
    ["--step-km", "0.05"],
    ["--strengths", "0,-1"],
    ["--strengths", "0,nan"],
    ["--strengths", "inf"],
    ["--strengths", "0,x"],
], ids=["step-not-dividing", "step-zero", "step-too-long", "step-too-fine",
        "negative-strength", "nan-strength", "inf-strength", "malformed-strength"])
def test_study_rejects_bad_arguments_before_any_integral(tmp_path, monkeypatch,
                                                         capsys, argv):
    calls = _count_nl_calls(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        study.main([*argv, "-o", str(tmp_path / "never.csv")])
    assert exc.value.code == 2
    assert calls == []
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()
