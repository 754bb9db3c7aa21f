"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def bench(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS


@pytest.mark.parametrize("workload", ["cli_session", "single_span_gamma"])
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (result(bench(workload, 7, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(tracing.METRICS)
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
        assert first["metrics"][name]["value"] > 0, name


def test_untraced_run_reports_every_end_to_end_metric():
    out = result(bench("single_span_gamma", 3, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli_session", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_beyond_but_at_least_the_median():
    assert run.tail([float(i) for i in range(200)]) == (189.0, pytest.approx(94.97, rel=1e-3), 10)
    assert run.tail([float(i) for i in range(31)]) == (20.0, pytest.approx(66.67, rel=1e-3), 10)
    assert run.tail([float(i) for i in range(15)]) == (7.0, 50.0, 7)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert run.tail([1.0]) == (1.0, 0.0, 0)


def test_parse_importtime_attributes_outermost_package_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |     scipy._lib",
        "import time:        30 |         50 |   scipy.constants",
        "import time:        10 |        210 | hybridgn",
        "import time:         5 |          5 | encodings.idna",
    ])
    out = tracing.parse_importtime(stderr)
    assert out["cli.import_s"] == pytest.approx(210e-6)
    assert out["cli.import_numpy_s"] == pytest.approx(150e-6)
    assert out["cli.import_scipy_s"] == pytest.approx(50e-6)
    assert out["cli.import_jsonschema_s"] == 0.0


def test_compare_csv_tolerances():
    ref = "p_dbm,osnr_db,q_db\n0.0,15.0,8.0\n"
    assert workloads.compare_csv("p_dbm,osnr_db,q_db\n0.0,15.0002,8.0001\n", ref) == []
    assert workloads.compare_csv("p_dbm,osnr_db,q_db\n0.0,15.01,8.0\n", ref)
    assert workloads.compare_csv("p_dbm,osnr_db,q_db\n0.5,15.0,8.0\n", ref)
