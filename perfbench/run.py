"""hybridgn benchmark: one closed-loop client (a link designer waiting for
each result) runs one workload and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 the ops are timed for S
seconds (the last op started before the deadline completes) and the
end-to-end metrics are printed.  With --trace 1 one pass over the seed's
cases runs in-process untraced and then traced, and the per-layer metrics
are printed.  Every op's output is checked; a mismatch counts as a failed
op.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the same numbers for
people, the fail ratio and the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import os

from workloads import BLAS_THREADS

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import common  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metric name -> unit (fail_ratio is printed but not declared:
#: it is 0 on a correct program, and `failed`/`attempted` carry it).
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB", "gamma_rel_err_max": "ratio"}
#: setup_s is the median of this many fresh set-ups: the run's own and
#: the rest in child interpreters.
SETUP_SAMPLES = 3


def tail(times: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least 10 samples beyond it (nearest rank), but never below the median:
    with fewer than 21 samples no percentile above the median has 10 beyond
    it.  A higher percentile would rest on one to three samples and would
    swing with every slow op."""
    ordered = sorted(times)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * idx / max(n - 1, 1), n - 1 - idx


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> Dict[str, object]:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas_threads": BLAS_THREADS,
        "quadrature_workers": 1,
        "clients": 1,
    }


def child_setup_seconds(args: argparse.Namespace) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_loop(wl: workloads.Workload, seconds: float):
    times: List[float] = []
    outcomes: List[workloads.Outcome] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        op = wl.ops[i % len(wl.ops)]
        t0 = time.perf_counter()
        outcome = wl.run(op, inprocess=False)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        i += 1
        if time.perf_counter() >= deadline:
            break
    return times, outcomes, time.perf_counter() - start


def one_pass(wl: workloads.Workload, rec=None):
    times: List[float] = []
    outcomes: List[workloads.Outcome] = []
    for op in wl.ops:
        if rec is not None:
            rec.begin_op()
        t0 = time.perf_counter()
        outcomes.append(wl.run(op, inprocess=True))
        times.append(time.perf_counter() - t0)
    return times, outcomes


def end_to_end(args, wl, setup_s) -> Tuple[Dict[str, float], List[workloads.Outcome], List[str]]:
    times, outcomes, elapsed = timed_loop(wl, args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.uses_subprocess else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    errors = [e for o in outcomes for e in o.gamma_errors]
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": peak_rss_mb,
        # every op failed to produce a gamma_nl: report the worst possible error
        "gamma_rel_err_max": max(errors) if errors else 1.0,
    }
    failed = sum(not o.ok for o in outcomes)
    notes = [
        f"ops {len(times)} in {elapsed:.2f} s; op_tail_s is p{tail_pct:.1f} "
        f"with {beyond} samples beyond it",
        f"fail_ratio = {failed / len(outcomes):.6g} (failed {failed} of {len(outcomes)})",
        f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"op times (s), in order: {' '.join(f'{t:.4f}' for t in times)}",
    ]
    return metrics, outcomes, notes


def traced(wl) -> Tuple[Dict[str, float], List[workloads.Outcome], List[str]]:
    import tracing

    wl.load_inprocess()
    plain_times, plain = one_pass(wl)
    rec = tracing.Recorder()
    undo, absent = tracing.install(rec, wl.extra_modules)
    try:
        traced_times, traced_outcomes = one_pass(wl, rec)
    finally:
        tracing.uninstall(undo)
    metrics, gone = tracing.layer_metrics(rec, absent)
    metrics.update(tracing.import_times(workloads.program_env(), str(common.ROOT)))
    metrics["trace.overhead_rel"] = (statistics.median(traced_times)
                                     / statistics.median(plain_times) - 1.0)
    gamma_s = metrics["engine.nl_coefficient_s"]
    notes = [f"traced pass: {len(wl.ops)} ops in-process, {len(rec.names)} spans"]
    if gamma_s > 0:
        kernel = (metrics["kernel.xi_self_s"] + metrics["kernel.fwm_efficiency_s"]
                  + metrics["kernel.phased_array_s"])
        overhead = (metrics["quadrature.driver_self_s"] + metrics["quadrature.reduce_s"]
                    + metrics["quadrature.truncation_s"])
        notes.append(f"share of gamma_nl time: kernel {kernel / gamma_s:.3f}, "
                     f"driver+reduce+truncation {overhead / gamma_s:.3f}")
    if absent or gone:
        notes.append(f"absent layers: {', '.join(absent)}; metrics reported as 0: "
                     f"{', '.join(gone)}")
    return metrics, plain + traced_outcomes, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for setup_s samples)")
    args = parser.parse_args(argv)

    missing = common.missing_inputs(args.workload)
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    workdir = common.ROOT / ".perfbench_work" / str(os.getpid())
    try:
        t0 = time.perf_counter()
        wl = workloads.setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import tracing
            metrics, outcomes, notes = traced(wl)
            units = tracing.METRICS
        else:
            metrics, outcomes, notes = end_to_end(args, wl, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed = sum(not o.ok for o in outcomes)
    for problem in [p for o in outcomes for p in o.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"environment": environment(args)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
