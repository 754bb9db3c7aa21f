"""The four benchmark workloads: seeded inputs, one op each, and the
correctness gate every op's output passes through.

Inputs are drawn, by the run's seed, from pools recorded with their
reference outputs in ``references/`` (see ``record_references.py``).  Every
pool was drawn from the datasheet ranges in ``common.py``.  A run's cases
are stratified (by command, segment count or channel count)
so that every seed exercises the same mix of work sizes, and the timed loop
walks them in a fixed order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common

#: Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "cli_session": "CLI calls and power study as subprocesses: start-up, imports and "
                   "config validation dominate, the quadrature is a small share",
    "split_study": "split_mpi_study runs: many transatlantic gamma_nl evaluations for few "
                   "distinct spans, where sweep-level reuse and row parallelism show",
    "wideband_gamma": "in-process 80-channel Coherent gamma_nl of two-fiber spans at N = 60 "
                      "and 200: about 1,700 panels of 961 to 3,201 nodes, the body kernel "
                      "dominates",
    "single_span_gamma": "in-process SpanScaled gamma_nl at 9 to 80 channels: hundreds to "
                         "thousands of 33-node panels, per-panel overhead dominates",
}
SUBPROCESS_WORKLOADS = ("cli_session", "split_study")
#: MPI strengths of one split-study run (the low end of the 3-5 range).
SPLIT_STRENGTHS_PER_RUN = 3

#: Slack on top of a tail bound when comparing with a reference computed
#: without truncation (the discretisation agreement level of the body rule).
REL_SLACK = 1e-7
#: Tolerance of a float output that does not depend on gamma_nl.
REL_EXACT = 1e-9
#: Tolerance in dB of outputs derived from gamma_nl: a 1e-4 relative change of
#: gamma_nl (the certified truncation target) moves them by at most 4.4e-4 dB.
DB_TOL = 5e-4
#: The check command's relative deviation moves with gamma_nl itself.
DEVIATION_TOL = 2e-4
#: Integration diagnostics: checked for consistency, not against the recording,
#: because an algorithm change may legitimately move them.
DIAGNOSTIC = {"integral_value", "head", "body", "tail_bound", "panels_evaluated",
              "truncation_m", "delta"}
#: gamma_nl values: checked against the untruncated reference instead.
GAMMA_FIELDS = {"gamma_nl_per_w2", "gamma_single_integral_per_w2"}
DB_FIELDS = {"osnr_db", "q_db", "gamma_nl_db_mw2", "p_opt_dbm", "osnr_opt_db", "q_opt_db"}

BLAS_THREADS = "1"


def program_env() -> Dict[str, str]:
    """Environment of a program child: the checkout's sources, and the BLAS
    thread setting run.py put in this process's environment."""
    return dict(os.environ, PYTHONPATH=str(common.SRC))


# ---------------------------------------------------------------------------
# correctness


@dataclass
class Outcome:
    ok: bool
    gamma_errors: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _last_place(text: str) -> float:
    """One unit in the last place of a value the studies print with three
    decimals (a rounding flip there is not an error); 0 for other values."""
    if "e" in text.lower() or "." not in text or len(text.split(".")[1]) != 3:
        return 0.0
    return 1e-3


def _tolerance(name: str, ref: str, value: float) -> float:
    unit = _last_place(ref)
    if name == "rel_deviation":
        return DEVIATION_TOL + unit
    if name in DB_FIELDS or name.startswith("q_db_"):
        return DB_TOL + unit
    return REL_EXACT * abs(value) + unit


def _as_float(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(actual: str, expected: str) -> List[str]:
    """Cell-by-cell comparison of CSV output with a recorded output."""
    a_rows = list(csv.reader(io.StringIO(actual)))
    e_rows = list(csv.reader(io.StringIO(expected)))
    if len(a_rows) != len(e_rows):
        return [f"{len(a_rows)} rows, expected {len(e_rows)}"]
    problems = []
    header: Optional[List[str]] = None
    for a_row, e_row in zip(a_rows, e_rows):
        if len(a_row) != len(e_row):
            problems.append(f"row {e_row[:1]}: {len(a_row)} cells, expected {len(e_row)}")
            continue
        if not e_row:
            header = None
            continue
        if header is None and all(_as_float(c) is None for c in e_row):
            header = e_row
            if a_row != e_row:
                problems.append(f"header {a_row} != {e_row}")
            continue
        for col, (a, e) in enumerate(zip(a_row, e_row)):
            name = e_row[0] if header == ["key", "value"] else (header or e_row)[col]
            if name in DIAGNOSTIC or name in GAMMA_FIELDS:
                continue
            av, ev = _as_float(a), _as_float(e)
            if av is None or ev is None:
                if a != e:
                    problems.append(f"{name}: {a!r} != {e!r}")
            elif not (av == ev or abs(av - ev) <= _tolerance(name, e, ev)):
                problems.append(f"{name}: {a} != {e}")
    return problems


def gamma_check(value: float, ref: float, bound_rel: float, out: Outcome, label: str) -> None:
    """A gamma_nl must be finite, positive, and within its tail bound plus
    REL_SLACK (relative) of the reference computed without truncation."""
    if not (math.isfinite(value) and value > 0.0):
        out.ok = False
        out.problems.append(f"{label}: gamma_nl = {value}")
        return
    err = abs(value - ref) / abs(ref)
    out.gamma_errors.append(err)
    if not err <= bound_rel + REL_SLACK:
        out.ok = False
        out.problems.append(f"{label}: relative deviation {err:.3e} > bound {bound_rel:.3e}")


def _key_values(text: str) -> Dict[str, str]:
    rows = list(csv.reader(io.StringIO(text)))
    return {r[0]: r[1] for r in rows[1:] if len(r) == 2}


def check_gamma_report(text: str, ref: float, out: Outcome) -> None:
    kv = _key_values(text)
    g = float(kv["gamma_nl_per_w2"])
    head, body, value = float(kv["head"]), float(kv["body"]), float(kv["integral_value"])
    tail = float(kv["tail_bound"])
    if abs(head + body - value) > 1e-12 * abs(value) or not tail >= 0.0:
        out.ok = False
        out.problems.append("integral_value != head + body, or negative tail bound")
    if abs(float(kv["gamma_nl_db_mw2"]) - 10.0 * math.log10(g * 1e-6)) > 1e-9:
        out.ok = False
        out.problems.append("gamma_nl_db_mw2 does not match gamma_nl_per_w2")
    gamma_check(g, ref, tail / value, out, "gamma")


def invert_split_gamma(q_opt_db: float, ase: float, mpi: float) -> float:
    """gamma_nl implied by the optimal-power Q of a split-study row.

    Undoes Q = 20 log10(sqrt2 erfcinv(2 BER)), BER = 3/8 erfc(sqrt(SNR/10))
    and OSNR = P / (1.5 a + b P) with g P^3 = a / 2 at the optimum (the
    resolution bandwidth equals the symbol rate in the study)."""
    q = 10.0 ** (q_opt_db / 20.0)
    ber = 0.5 * math.erfc(q / math.sqrt(2.0))
    x = -statistics.NormalDist().inv_cdf(4.0 * ber / 3.0) / math.sqrt(2.0)
    osnr = 10.0 * x * x
    p = 1.5 * ase * osnr / (1.0 - mpi * osnr)
    return ase / (2.0 * p ** 3)


# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    label: str
    argv: List[str]                                  # subprocess form
    inproc: Optional[Callable[[], Any]] = None       # in-process form
    check: Optional[Callable[[Any], Outcome]] = None


class Workload:
    """Seeded cases of one workload, ready to run."""

    def __init__(self, name: str, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        self.ops: List[Op] = []
        self.extra_modules: List[Any] = []
        self.mains: Dict[str, Callable] = {}

    @property
    def uses_subprocess(self) -> bool:
        return self.name in SUBPROCESS_WORKLOADS

    def load_inprocess(self) -> None:
        """Load the entry points that subprocess ops run, for in-process calls."""
        if not self.uses_subprocess:
            return
        from hybridgn import cli
        self.mains["hybridgn"] = cli.main
        for path in (common.POWER_STUDY, common.SPLIT_STUDY):
            module = common.load_script(path)
            self.extra_modules.append(module)
            self.mains[str(path)] = module.main

    def run(self, op: Op, inprocess: bool) -> Outcome:
        try:
            if self.uses_subprocess and not inprocess:
                proc = subprocess.run([sys.executable] + op.argv, cwd=str(common.ROOT),
                                      env=program_env(), capture_output=True, text=True,
                                      timeout=170)
                code, out = proc.returncode, proc.stdout
            elif self.uses_subprocess:
                if op.argv[0] == "-m":
                    code, out = common.call_main(self.mains["hybridgn"], op.argv[2:])
                else:
                    code, out = common.call_main(self.mains[op.argv[0]], op.argv[1:])
            else:
                code, out = 0, op.inproc()
            if code != 0:
                return Outcome(False, problems=[f"{op.label}: exit code {code}"])
            return op.check(out)
        except Exception as exc:  # a failed op is counted, not fatal
            return Outcome(False, problems=[f"{op.label}: {type(exc).__name__}: {exc}"])


def _write_config(workdir: Path, name: str, cfg: Dict[str, Any]) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _cli_op(label: str, argv: List[str], expected: str,
            extra: Optional[Callable[[str, Outcome], None]] = None) -> Op:
    def check(text: str) -> Outcome:
        out = Outcome(True)
        problems = compare_csv(text, expected)
        if problems:
            out.ok = False
            out.problems.extend(f"{label}: {p}" for p in problems)
        if extra is not None:
            extra(text, out)
        return out
    return Op(label, argv, check=check)


def _by_segments(rng: random.Random, pool: List[Dict[str, Any]], count: int) -> List[int]:
    """Distinct pool indices; the i-th has SEGMENTS[-1 - i % 3] segments,
    so the largest spans come first."""
    chosen: List[int] = []
    for i in range(count):
        n_seg = common.SEGMENTS[-1 - i % len(common.SEGMENTS)]
        chosen.append(rng.choice([k for k, e in enumerate(pool)
                                  if len(e["config"]["span"]) == n_seg and k not in chosen]))
    return chosen


def _setup_cli_session(wl: Workload, rng: random.Random) -> None:
    refs = common.load_references("cli_session")
    cycles = 4
    # cycle c takes configs of SEGMENTS[-1 - c % 3] segments, so every seed runs
    # the same segment counts; the largest, which sets the check's memory peak,
    # comes first, so a short run reaches it too
    long_haul = _by_segments(rng, refs["long_haul"], cycles)
    toys = _by_segments(rng, refs["toy"], cycles)
    studies = rng.sample(range(len(refs["power_study"]["runs"])), cycles)
    gamma_refs = refs["power_study"]["gamma_refs"]

    def study_extra(text: str, out: Outcome) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        summary = rows[rows.index(["design", "gamma_nl_per_w2", "p_opt_dbm",
                                   "osnr_opt_db", "q_opt_db"]) + 1:]
        for row in summary:
            gamma_check(float(row[1]), gamma_refs[row[0]], common.TARGET_REL_TRUNCATION,
                        out, f"power study {row[0]}")

    for c in range(cycles):
        lh = refs["long_haul"][long_haul[c]]
        toy = refs["toy"][toys[c]]
        run = refs["power_study"]["runs"][studies[c]]
        lh_path = _write_config(wl.workdir, f"long_haul_{c}", lh["config"])
        toy_path = _write_config(wl.workdir, f"toy_{c}", toy["config"])

        def lh_gamma(text, out, ref=lh["gamma_ref"]):
            check_gamma_report(text, ref, out)

        def toy_gamma(text, out, ref=toy["gamma_ref"]):
            check_gamma_report(text, ref, out)

        def toy_check(text, out, ref=toy["gamma_ref"]):
            kv = _key_values(text)
            if kv.get("status") != "pass":
                out.ok = False
                out.problems.append("check: status is not pass")
            gamma_check(float(kv["gamma_single_integral_per_w2"]), ref,
                        common.TARGET_REL_TRUNCATION, out, "check")

        cli = ["-m", "hybridgn"]
        wl.ops += [
            _cli_op("gamma long-haul", cli + ["gamma", "--config", lh_path],
                    lh["outputs"]["gamma"], lh_gamma),
            _cli_op("sweep-power long-haul",
                    cli + ["sweep-power", "--config", lh_path] + lh["sweep_args"],
                    lh["outputs"]["sweep_power"]),
            _cli_op("bound long-haul", cli + ["bound", "--config", lh_path] + lh["bound_args"],
                    lh["outputs"]["bound"]),
            _cli_op("gamma toy", cli + ["gamma", "--config", toy_path],
                    toy["outputs"]["gamma"], toy_gamma),
            _cli_op("check toy", cli + ["check", "--config", toy_path, "--grid", "256"],
                    toy["outputs"]["check"], toy_check),
            _cli_op("power study", [str(common.POWER_STUDY)] + run["args"], run["output"],
                    study_extra),
        ]


def _setup_split_study(wl: Workload, rng: random.Random) -> None:
    refs = common.load_references("split_study")
    strengths = sorted(refs["rows"])
    # every op runs the same number of strengths, so that the median op is
    # the middle of a run's ops and not of the few that share its size
    for _ in range(8):
        chosen = rng.sample(strengths, SPLIT_STRENGTHS_PER_RUN)
        expected = "\n".join([refs["header"]] + [refs["rows"][s] for s in chosen]) + "\n"

        def extra(text, out, chosen=chosen):
            rows = list(csv.reader(io.StringIO(text)))[1:]
            for strength, row in zip(chosen, rows):
                split = refs["splits"][row[2]]
                mpi = float(strength) * float(row[2]) / refs["span_km"]
                gamma_check(invert_split_gamma(float(row[5]), split["ase_w"], mpi),
                            split["gamma_ref"], common.TARGET_REL_TRUNCATION, out,
                            f"split {row[2]} km")

        argv = [str(common.SPLIT_STUDY), "--strengths", ",".join(chosen),
                "--step-km", str(refs["step_km"])]
        wl.ops.append(_cli_op(f"split study x{len(chosen)}", argv, expected, extra))


def _gamma_op(label: str, cases: List[Tuple[str, Dict[str, Any], float]]) -> Op:
    """One op that evaluates the gamma_nl of each (label, config, reference)
    case in turn and checks every one."""
    import hybridgn
    from hybridgn.config import parse_config

    apps = [(case_label, parse_config(cfg), ref) for case_label, cfg, ref in cases]

    def compute():
        # looked up per call, so the traced run sees its rebinding
        return [hybridgn.nl_coefficient_with_report(app.span, app.system, app.variant,
                                                    app.settings)
                for _, app, _ in apps]

    def check(results) -> Outcome:
        out = Outcome(True)
        for (case_label, _, ref), (value, _, report) in zip(apps, results):
            gamma_check(value, ref, report.tail_bound / report.value, out, case_label)
        return out

    return Op(label, [], inproc=compute, check=check)


def _worst(entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The pool entry whose truncated gamma_nl deviated most from its
    reference when recorded.  Every run includes it, so the accuracy guard
    sees the hardest recorded input on every seed."""
    return max(entries, key=lambda e: e["truncation_error"])


def _pick(rng: random.Random, entries: List[Dict[str, Any]], count: int,
          anchor: Dict[str, Any]) -> List[Dict[str, Any]]:
    if any(e is anchor for e in entries):
        return [anchor] + rng.sample([e for e in entries if e is not anchor], count - 1)
    return rng.sample(entries, count)


def _setup_wideband_gamma(wl: Workload, rng: random.Random) -> None:
    pool = common.load_references("wideband_gamma")["pool"]
    chosen = _pick(rng, pool, 6, _worst(pool))
    # two N = 60 ops per N = 200 op in every stretch of the loop, so the mix
    # does not depend on how many ops fit in the run
    plan = []
    for i in range(3):
        plan += [(chosen[2 * i], 60), (chosen[2 * i + 1], 60), (chosen[i], 200)]
    for entry, spans in plan:
        cfg = common.config(entry["span"], common.system_block(spans, 80, 32.0))
        label = f"wideband N={spans}"
        wl.ops.append(_gamma_op(label, [(label, cfg, entry["refs"][str(spans)])]))


def _setup_single_span_gamma(wl: Workload, rng: random.Random) -> None:
    pool = common.load_references("single_span_gamma")["pool"]
    anchor = _worst([e for entries in pool.values() for e in entries])
    picks = {n: _pick(rng, pool[str(n)], 4, anchor) for n in common.SEGMENTS}
    channels = sorted(int(c) for c in anchor["refs"])
    epsilons = sorted(anchor["refs"][str(channels[0])], key=float)
    # one op is one span at every channel count: a single integral takes
    # 0.05-0.3 s, so ops of one integral would make the median depend on
    # which part of the case list a run happened to reach
    integrals = 0
    for i in range(4):
        for n in common.SEGMENTS:
            entry = picks[n][i]
            cases = []
            for ch in channels:
                eps = epsilons[integrals % len(epsilons)]
                integrals += 1
                cfg = common.config(entry["span"],
                                    common.system_block(entry["spans"], ch, 32.0),
                                    epsilon=float(eps))
                cases.append((f"single span {n} seg {ch} ch eps={eps}", cfg,
                              entry["refs"][str(ch)][eps]))
            wl.ops.append(_gamma_op(f"single span {n} seg", cases))


_SETUP = {
    "cli_session": _setup_cli_session,
    "split_study": _setup_split_study,
    "wideband_gamma": _setup_wideband_gamma,
    "single_span_gamma": _setup_single_span_gamma,
}


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Imports, input generation and config writing: everything before the
    first timed op."""
    common.ensure_src_on_path()
    import hybridgn  # noqa: F401
    import hybridgn.cli  # noqa: F401  (also compiles the modules a CLI call loads)

    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, workdir)
    _SETUP[name](wl, random.Random(f"{name}:{seed}"))
    return wl
