"""The runtime import path stays free of scipy and jsonschema.

Both are installed on a test machine, so only a fresh interpreter shows what
the CLI and the study scripts load by themselves.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOY_CFG = str(REPO / "configs" / "toy.json")

# Runs one entry point in this interpreter, then prints the loaded scipy and
# jsonschema modules (with the packages jsonschema brings) as the last line
# of stdout.
PROBE = """
import importlib, json, runpy, sys
kind, target, args = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.argv = [target, *args]
if kind == "import":
    importlib.import_module(target)
else:
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
groups = {"scipy": {"scipy"},
          "jsonschema": {"jsonschema", "jsonschema_specifications", "referencing", "rpds"}}
print(json.dumps({name: sorted(m for m in sys.modules if m.split(".")[0] in roots)
                  for name, roots in groups.items()}))
"""

ENTRY_POINTS = pytest.mark.parametrize("kind, target, args", [
    ("import", "hybridgn.cli", []),
    ("module", "hybridgn", ["gamma", "--config", TOY_CFG]),
    ("path", str(REPO / "scripts" / "power_sweep_study.py"),
     ["--p-min-dbm", "0", "--p-max-dbm", "0"]),
    ("path", str(REPO / "scripts" / "split_mpi_study.py"),
     ["--strengths", "0", "--step-km", "50"]),
], ids=["import-cli", "python-m-gamma", "power-sweep-study", "split-mpi-study"])


@functools.lru_cache(maxsize=None)
def _loaded_modules(kind, target, args):
    """Both tests read one probe run per entry point."""
    res = subprocess.run([sys.executable, "-c", PROBE, kind, target, *args],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


@ENTRY_POINTS
def test_runtime_loads_no_scipy(kind, target, args):
    loaded = _loaded_modules(kind, target, tuple(args))["scipy"]
    assert loaded == []


@ENTRY_POINTS
def test_runtime_loads_no_jsonschema(kind, target, args):
    assert _loaded_modules(kind, target, tuple(args))["jsonschema"] == []


def test_cli_runs_without_lapack():
    """Nothing on the CLI's path calls LAPACK: the head's Gauss rule is built
    by a recurrence, not by an eigensolver, whose first call sets up the
    BLAS library's buffers."""
    probe = """
import runpy, sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise RuntimeError("numpy.linalg.eigh called")

numpy.linalg.eigh = refuse
sys.argv = ["hybridgn", *sys.argv[1:]]
runpy.run_module("hybridgn", run_name="__main__", alter_sys=True)
"""
    res = subprocess.run([sys.executable, "-c", probe, "gamma", "--config", TOY_CFG],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert "gamma_nl_per_w2" in res.stdout
