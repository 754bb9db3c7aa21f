"""Record the benchmark's input pools and reference outputs.

For every workload this draws a pool of inputs from the datasheet ranges in
``common.py`` (fixed pool seeds), runs the program on them, and writes
``references/<workload>.json``:

* the exact outputs of every CLI call and study run the workload can make,
  compared field by field during a benchmark run, and
* every ``gamma_nl`` recomputed with truncation disabled, the reference that
  each truncated ``gamma_nl`` must match to within its tail bound.

References are recorded once, from the commit that introduced them, and are
never recomputed: a file that already exists is left alone, so a later change
to the program is measured against the original numbers.  Run from the
repository root:

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

import common

common.ensure_src_on_path()

from hybridgn import Coherent, QuadratureSettings, nl_coefficient_with_report  # noqa: E402
from hybridgn import cli  # noqa: E402
from hybridgn.config import parse_config  # noqa: E402
from hybridgn.sweep import sweep_split  # noqa: E402

POOL_SEED = 20201103
LONG_HAUL_POOL = 32
TOY_POOL = 32
POWER_STUDY_POOL = 16
#: MPI strengths a split-study run may draw (every multiple of 0.0025 in [0, 0.1]).
SPLIT_STRENGTHS = [f"{0.0025 * i:.4f}" for i in range(41)]
SPLIT_STEP_KM = 20.0
#: Wide-band pool: two-fiber hybrid spans, like the transatlantic config, whose
#: truncated 80-channel N = 60 integral evaluates a band of panels around the
#: transatlantic pair's 1,749.
WIDEBAND_POOL = 9
WIDEBAND_PANELS = (1600, 1850)
WIDEBAND_SPANS = (60, 200)
SINGLE_SPAN_PER_SEGMENTS = 6
#: Band of panels the truncated 80-channel N = 1 integral must evaluate.
SINGLE_SPAN_PANELS = (2600, 2950)
SINGLE_SPAN_CHANNELS = (9, 20, 40, 60, 80)
SINGLE_SPAN_EPSILONS = ("0.0", "0.05")

UNTRUNCATED = QuadratureSettings(truncation_enabled=False)


def untruncated_gamma(cfg: Dict[str, Any]) -> float:
    app = parse_config(cfg)
    value, _, _ = nl_coefficient_with_report(
        app.span, app.system, app.variant, replace(app.settings, truncation_enabled=False))
    return value


def run_cli(workdir: Path, cfg: Dict[str, Any], argv: List[str]) -> str:
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = common.call_main(cli.main, [argv[0], "--config", str(path)] + argv[1:])
    if code != 0:
        raise RuntimeError(f"hybridgn {' '.join(argv)} exited {code}")
    return out


def record_cli_session(workdir: Path) -> Dict[str, Any]:
    rng = random.Random(POOL_SEED + 1)
    long_haul = []
    for i in range(LONG_HAUL_POOL):
        cfg = common.config(
            common.draw_span(rng, common.SEGMENTS[i % 3]),
            common.system_block(60, 9, 32.0, round(rng.uniform(4.5, 6.0), 2)))
        sweep_args = ["--p-min-dbm", str(rng.choice([-6.0, -5.0, -4.0, -3.0, -2.0])),
                      "--p-max-dbm", str(rng.choice([2.0, 3.0, 4.0, 5.0, 6.0])),
                      "--p-step-db", "0.5"]
        bound_args = ["--m-list", ",".join(str(m) for m in sorted(rng.sample(range(2, 100), 4)))]
        long_haul.append({
            "config": cfg,
            "sweep_args": sweep_args,
            "bound_args": bound_args,
            "gamma_ref": untruncated_gamma(cfg),
            "outputs": {
                "gamma": run_cli(workdir, cfg, ["gamma"]),
                "sweep_power": run_cli(workdir, cfg, ["sweep-power"] + sweep_args),
                "bound": run_cli(workdir, cfg, ["bound"] + bound_args),
            },
        })
    toy = []
    for i in range(TOY_POOL):
        cfg = common.config(common.draw_span(rng, common.SEGMENTS[i % 3]),
                            common.system_block(2, 3, 1.0))
        toy.append({
            "config": cfg,
            "gamma_ref": untruncated_gamma(cfg),
            "outputs": {
                "gamma": run_cli(workdir, cfg, ["gamma"]),
                "check": run_cli(workdir, cfg, ["check", "--grid", "256"]),
            },
        })
    study = common.load_script(common.POWER_STUDY)
    gamma_refs = {
        name: nl_coefficient_with_report(span, study.SYSTEM, Coherent(), UNTRUNCATED)[0]
        for name, span in study.DESIGNS.items()
    }
    runs = []
    for _ in range(POWER_STUDY_POOL):
        args = ["--p-min-dbm", str(rng.choice([-6.0, -5.0, -4.0, -3.0])),
                "--p-max-dbm", str(rng.choice([2.0, 3.0, 4.0, 5.0])),
                "--p-step-db", str(rng.choice([0.5, 1.0]))]
        code, out = common.call_main(study.main, args)
        if code != 0:
            raise RuntimeError(f"power_sweep_study {args} exited {code}")
        runs.append({"args": args, "output": out})
    return {"long_haul": long_haul, "toy": toy,
            "power_study": {"gamma_refs": gamma_refs, "runs": runs}}


def record_split_study(workdir: Path) -> Dict[str, Any]:
    study = common.load_script(common.SPLIT_STUDY)
    args = ["--strengths", ",".join(SPLIT_STRENGTHS), "--step-km", str(SPLIT_STEP_KM)]
    code, out = common.call_main(study.main, args)
    if code != 0:
        raise RuntimeError(f"split_mpi_study exited {code}")
    lines = out.splitlines()
    header, rows = lines[0], lines[1:]
    if len(rows) != len(SPLIT_STRENGTHS):
        raise RuntimeError("split_mpi_study printed an unexpected number of rows")
    splits = sweep_split(study.PREMIUM, study.STANDARD, study.SPAN_LENGTH, study.SYSTEM,
                         SPLIT_STEP_KM * 1e3, Coherent(), UNTRUNCATED)
    return {
        "step_km": SPLIT_STEP_KM,
        "span_km": study.SPAN_LENGTH / 1e3,
        "header": header,
        "rows": dict(zip(SPLIT_STRENGTHS, rows)),
        "splits": {f"{r.first_length / 1e3:.1f}": {"gamma_ref": r.gamma_nl, "ase_w": r.ase}
                   for r in splits},
    }


def record_wideband_gamma(workdir: Path) -> Dict[str, Any]:
    rng = random.Random(POOL_SEED + 3)
    pool: List[Dict[str, Any]] = []
    drawn = 0
    while len(pool) < WIDEBAND_POOL:
        drawn += 1
        span = common.draw_span(rng, 2)
        app = parse_config(common.config(span, common.system_block(60, 80, 32.0)))
        value, _, rep = nl_coefficient_with_report(app.span, app.system)
        if not WIDEBAND_PANELS[0] <= rep.panels_evaluated <= WIDEBAND_PANELS[1]:
            continue
        refs = {str(n): untruncated_gamma(common.config(span, common.system_block(n, 80, 32.0)))
                for n in WIDEBAND_SPANS}
        pool.append({"span": span, "refs": refs,
                     "truncation_error": abs(value / refs["60"] - 1.0)})
        print(f"wideband: {rep.panels_evaluated} panels", file=sys.stderr)
    return {"drawn": drawn, "panels_band": list(WIDEBAND_PANELS), "pool": pool}


def record_single_span_gamma(workdir: Path) -> Dict[str, Any]:
    rng = random.Random(POOL_SEED + 4)
    pool: Dict[str, List[Dict[str, Any]]] = {str(n): [] for n in common.SEGMENTS}
    drawn = 0
    for n_seg in common.SEGMENTS:
        while len(pool[str(n_seg)]) < SINGLE_SPAN_PER_SEGMENTS:
            drawn += 1
            span = common.draw_span(rng, n_seg)
            spans = rng.randint(20, 100)
            app = parse_config(common.config(span, common.system_block(spans, 80, 32.0),
                                             epsilon=0.0))
            value, _, rep = nl_coefficient_with_report(app.span, app.system, app.variant)
            if not SINGLE_SPAN_PANELS[0] <= rep.panels_evaluated <= SINGLE_SPAN_PANELS[1]:
                continue
            refs = {
                str(ch): {eps: untruncated_gamma(common.config(
                    span, common.system_block(spans, ch, 32.0), epsilon=float(eps)))
                    for eps in SINGLE_SPAN_EPSILONS}
                for ch in SINGLE_SPAN_CHANNELS
            }
            pool[str(n_seg)].append({
                "span": span, "spans": spans, "refs": refs,
                "truncation_error": abs(value / refs["80"]["0.0"] - 1.0)})
    return {"drawn": drawn, "panels_band": list(SINGLE_SPAN_PANELS), "pool": pool}


RECORDERS = {
    "cli_session": record_cli_session,
    "split_study": record_split_study,
    "wideband_gamma": record_wideband_gamma,
    "single_span_gamma": record_single_span_gamma,
}


def main() -> int:
    common.REFERENCES.mkdir(exist_ok=True)
    for name in common.WORKLOADS:
        target = common.REFERENCES / f"{name}.json"
        if target.exists():
            print(f"{target.name} exists; kept", file=sys.stderr)
            continue
        workdir = common.ROOT / ".perfbench_work" / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            data = RECORDERS[name](workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        target.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {target.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
