"""Per-layer tracing from outside the program.

The traced run rebinds public functions of ``hybridgn`` to recording
wrappers in every module namespace that holds them, so a call is seen no
matter which module its caller imported the name from.  Each wrapper keeps
a span (name, start, end, parent) in memory until the run ends, plus the
counts needed for work and useful-work ratios.  A function that no longer
exists is reported as an absent layer instead of failing the run, so the
trace survives refactors that move or delete functions.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (module, function, span name).  Several functions may share a span name
#: when they do the same job; nested spans of one name count once.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("hybridgn.config", "load_config", "config.load_config"),
    ("hybridgn.link", "derive_span", "link.derive_span"),
    ("hybridgn.engine", "nl_coefficient", "engine.nl_coefficient"),
    ("hybridgn.engine", "nl_coefficient_with_report", "engine.nl_coefficient"),
    ("hybridgn.sweep", "sweep_split", "sweep.sweep_split"),
    ("hybridgn.kernel", "xi", "kernel.xi"),
    ("hybridgn.kernel", "fwm_efficiency", "kernel.fwm_efficiency"),
    ("hybridgn.kernel", "phased_array", "kernel.phased_array"),
    ("hybridgn.quadrature", "log_weighted_integral", "quadrature.driver"),
    ("hybridgn.quadrature", "integrate_body", "quadrature.driver"),
    ("hybridgn.quadrature", "refined_singular_head", "quadrature.head"),
    ("hybridgn.quadrature", "singular_head", "quadrature.head"),
    ("hybridgn.quadrature", "panel_sum", "quadrature.panel_sum"),
    ("hybridgn.quadrature", "truncation_bound", "quadrature.truncation"),
    ("hybridgn.quadrature", "choose_truncation", "quadrature.truncation"),
    ("hybridgn.quadrature", "brute_force_gamma_integral", "quadrature.brute_force"),
)

#: Per-layer metric name -> unit, in the order they are reported.
METRICS: Dict[str, str] = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_jsonschema_s": "s",
    "cli.import_numpy_s": "s",
    "config.load_config_s": "s",
    "link.derive_span_s": "s",
    "link.derive_span_calls": "count",
    "engine.nl_coefficient_calls": "count",
    "engine.nl_coefficient_distinct": "count",
    "engine.distinct_ratio": "ratio",
    "engine.nl_coefficient_s": "s",
    "sweep.sweep_split_s": "s",
    "sweep.rows": "count",
    "kernel.xi_calls": "count",
    "kernel.nodes_evaluated": "count",
    "kernel.xi_self_s": "s",
    "kernel.fwm_efficiency_s": "s",
    "kernel.phased_array_s": "s",
    "kernel.ns_per_node": "ns",
    "quadrature.log_weighted_integral_s": "s",
    "quadrature.head_s": "s",
    "quadrature.driver_self_s": "s",
    "quadrature.truncation_bound_calls": "count",
    "quadrature.truncation_s": "s",
    "quadrature.panel_sum_calls": "count",
    "quadrature.panel_sum_terms": "count",
    "quadrature.reduce_s": "s",
    "quadrature.panels_evaluated": "count",
    "quadrature.panels_planned": "count",
    "quadrature.brute_force_s": "s",
    "trace.overhead_rel": "ratio",
}

#: Counts that must repeat exactly for one seed.
EXACT_COUNTS = ("kernel.nodes_evaluated", "quadrature.panels_evaluated",
                "quadrature.panel_sum_terms", "quadrature.truncation_bound_calls",
                "engine.nl_coefficient_calls", "engine.nl_coefficient_distinct")

#: Span names whose absence makes a metric absent.
_METRIC_SPANS = {
    "config.load_config_s": "config.load_config",
    "link.derive_span_s": "link.derive_span",
    "link.derive_span_calls": "link.derive_span",
    "sweep.sweep_split_s": "sweep.sweep_split",
    "sweep.rows": "sweep.sweep_split",
    "kernel.xi_calls": "kernel.xi",
    "kernel.nodes_evaluated": "kernel.xi",
    "kernel.xi_self_s": "kernel.xi",
    "kernel.ns_per_node": "kernel.xi",
    "kernel.fwm_efficiency_s": "kernel.fwm_efficiency",
    "kernel.phased_array_s": "kernel.phased_array",
    "quadrature.log_weighted_integral_s": "quadrature.driver",
    "quadrature.driver_self_s": "quadrature.driver",
    "quadrature.panels_evaluated": "quadrature.driver",
    "quadrature.panels_planned": "quadrature.driver",
    "quadrature.head_s": "quadrature.head",
    "quadrature.truncation_bound_calls": "quadrature.truncation",
    "quadrature.truncation_s": "quadrature.truncation",
    "quadrature.panel_sum_calls": "quadrature.panel_sum",
    "quadrature.panel_sum_terms": "quadrature.panel_sum",
    "quadrature.reduce_s": "quadrature.panel_sum",
    "quadrature.brute_force_s": "quadrature.brute_force",
}
for _m in ("engine.nl_coefficient_calls", "engine.nl_coefficient_distinct",
           "engine.distinct_ratio", "engine.nl_coefficient_s"):
    _METRIC_SPANS[_m] = "engine.nl_coefficient"


def _distinct_key(bound: inspect.BoundArguments) -> str:
    """Identity of one gamma_nl evaluation, MPI fields of the system ignored
    (they change the OSNR, not gamma_nl)."""
    parts = []
    for name, value in bound.arguments.items():
        if dataclasses.is_dataclass(value):
            value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
                     if not f.name.startswith("mpi")}
        parts.append(f"{name}={value!r}")
    return "|".join(parts)


class Recorder:
    """In-memory span store with the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._op_distinct: set = set()

    def begin_op(self) -> None:
        """Distinct gamma_nl evaluations are counted per op: separate
        processes cannot share work."""
        self._op_distinct = set()

    def _inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def wrap(self, span: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self._inside(span)
            if hook is not None:
                args = hook(self, span, nested, signature, args, kwargs) or args
            idx = len(self.names)
            self.names.append(span)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.ends[idx] = time.perf_counter()
            if span == "quadrature.driver" and not nested:
                self.counts["panels_evaluated"] += getattr(result, "panels_evaluated", 0)
            elif span == "sweep.sweep_split" and not nested:
                self.counts["sweep_rows"] += len(result)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """(inclusive seconds, self seconds, span count) per span name.

        Inclusive time counts only the outermost span of a name, so nested
        calls of one layer are not counted twice."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            own[name] += dur - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                inclusive[name] += dur
                calls[name] += 1
        return inclusive, own, calls


def _hook(rec: Recorder, span: str, nested: bool, signature: inspect.Signature,
          args: tuple, kwargs: dict) -> Optional[tuple]:
    if span == "kernel.xi":
        rec.counts["nodes"] += int(np.size(args[0] if args else kwargs.get("zeta")))
    elif span == "quadrature.panel_sum" and args:
        values = args[0]
        if not hasattr(values, "__len__"):
            values = list(values)
            args = (values,) + tuple(args[1:])
        rec.counts["panel_sum_terms"] += len(values)
        return args
    elif span == "quadrature.driver" and not nested:
        d = args[0] if args else next(iter(kwargs.values()))
        rec.counts["panels_planned"] += getattr(d, "n_panels", 0)
    elif span == "engine.nl_coefficient" and not nested:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = _distinct_key(bound)
        if key not in rec._op_distinct:
            rec._op_distinct.add(key)
            rec.counts["distinct"] += 1
    return None


def install(rec: Recorder, extra_modules: Iterable[Any] = ()) -> Tuple[list, List[str]]:
    """Rebind every target in all hybridgn modules and `extra_modules`.

    Returns (undo list, absent target names)."""
    undo: list = []
    absent: List[str] = []
    for modname, fname, span in TARGETS:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            absent.append(f"{modname}.{fname}")
            continue
        original = getattr(module, fname, None)
        if not callable(original):
            absent.append(f"{modname}.{fname}")
            continue
        wrapper = rec.wrap(span, original, _hook)
        holders = [m for name, m in list(sys.modules.items())
                   if name == "hybridgn" or name.startswith("hybridgn.")]
        for holder in holders + list(extra_modules):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
    return undo, absent


def uninstall(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


def layer_metrics(rec: Recorder, absent: Sequence[str]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced pass, and the metrics whose layer is absent."""
    inclusive, own, calls = rec.totals()
    nodes = rec.counts["nodes"]
    gamma_calls = calls.get("engine.nl_coefficient", 0)
    m: Dict[str, float] = {
        "config.load_config_s": inclusive.get("config.load_config", 0.0),
        "link.derive_span_s": inclusive.get("link.derive_span", 0.0),
        "link.derive_span_calls": calls.get("link.derive_span", 0),
        "engine.nl_coefficient_calls": gamma_calls,
        "engine.nl_coefficient_distinct": rec.counts["distinct"],
        "engine.distinct_ratio": rec.counts["distinct"] / gamma_calls if gamma_calls else 0.0,
        "engine.nl_coefficient_s": inclusive.get("engine.nl_coefficient", 0.0),
        "sweep.sweep_split_s": inclusive.get("sweep.sweep_split", 0.0),
        "sweep.rows": rec.counts["sweep_rows"],
        "kernel.xi_calls": calls.get("kernel.xi", 0),
        "kernel.nodes_evaluated": nodes,
        "kernel.xi_self_s": own.get("kernel.xi", 0.0),
        "kernel.fwm_efficiency_s": inclusive.get("kernel.fwm_efficiency", 0.0),
        "kernel.phased_array_s": inclusive.get("kernel.phased_array", 0.0),
        "kernel.ns_per_node": 1e9 * inclusive.get("kernel.xi", 0.0) / nodes if nodes else 0.0,
        "quadrature.log_weighted_integral_s": inclusive.get("quadrature.driver", 0.0),
        "quadrature.head_s": inclusive.get("quadrature.head", 0.0),
        "quadrature.driver_self_s": own.get("quadrature.driver", 0.0),
        "quadrature.truncation_bound_calls": calls.get("quadrature.truncation", 0),
        "quadrature.truncation_s": inclusive.get("quadrature.truncation", 0.0),
        "quadrature.panel_sum_calls": calls.get("quadrature.panel_sum", 0),
        "quadrature.panel_sum_terms": rec.counts["panel_sum_terms"],
        "quadrature.reduce_s": inclusive.get("quadrature.panel_sum", 0.0),
        "quadrature.panels_evaluated": rec.counts["panels_evaluated"],
        "quadrature.panels_planned": rec.counts["panels_planned"],
        "quadrature.brute_force_s": inclusive.get("quadrature.brute_force", 0.0),
    }
    present_spans = {span for modname, fname, span in TARGETS
                     if f"{modname}.{fname}" not in absent}
    gone = [name for name, span in _METRIC_SPANS.items() if span not in present_spans]
    return m, gone


# ---------------------------------------------------------------------------
# import time

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")
IMPORT_PACKAGES = {"cli.import_scipy_s": "scipy", "cli.import_jsonschema_s": "jsonschema",
                   "cli.import_numpy_s": "numpy"}


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Seconds spent by `import hybridgn.cli`, and by the outermost imports
    of each package in IMPORT_PACKAGES (their cumulative times, which
    include dependencies nothing else had imported yet)."""
    lines = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            lines.append((int(match.group(2)), len(match.group(3)) // 2, match.group(4)))
    out = {"cli.import_s": 0.0}
    out.update({k: 0.0 for k in IMPORT_PACKAGES})
    stack: List[Tuple[int, str]] = []
    # importtime prints children before parents; walk parents first
    for cumulative, depth, name in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if not stack and root == "hybridgn":
            out["cli.import_s"] += cumulative * 1e-6
        for metric, package in IMPORT_PACKAGES.items():
            if root == package and all(s[1].split(".")[0] != package for s in stack):
                out[metric] += cumulative * 1e-6
        stack.append((depth, name))
    return out


def import_times(env: Dict[str, str], cwd: str, repeats: int = 3) -> Dict[str, float]:
    """Median over `repeats` fresh interpreters of parse_importtime."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hybridgn.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import hybridgn.cli failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
