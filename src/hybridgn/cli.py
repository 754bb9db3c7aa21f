"""Command line front end.

Subcommands:

* ``gamma``        nonlinear coefficient with the full quadrature report
* ``sweep-power``  OSNR and Q over a launch-power grid
* ``sweep-split``  per-span two-fiber split study at optimal power
* ``check``        single-integral vs 2-D brute-force cross-validation
* ``bound``        truncation tail-bound table

Exit codes: 0 success, 2 configuration or argument error, 3 numerical error.
Output (csv or json) is byte-deterministic: reruns with any worker count
produce identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .config import AppConfig, ConfigError, parse_config, read_config
from .engine import Coherent, SpanScaled, nl_coefficient_with_report
from .link import derive_span
from .quadrature import _largest_m, brute_force_gamma_integral, truncation_bound
from .sweep import optimal_split, power_grid_dbm, split_step_count, sweep_power, sweep_split
from .units import dbm_to_watt, linear_to_db, watt_to_dbm

__all__ = ["main", "build_parser"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_table(header: Sequence[str], rows: Sequence[Sequence[Any]],
               trailer: Optional[str] = None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if trailer is not None:
        buf.write(trailer + "\n")
    return buf.getvalue()


def _json_safe(obj: Any) -> Any:
    """Strict-JSON form of a report: non-finite floats become null."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _json_text(obj: Any) -> str:
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(report: Dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json_text(report)
    return _csv_table(["key", "value"], list(report.items()))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gamma(cfg: AppConfig) -> Tuple[str, int]:
    gamma_nl, d, rep = nl_coefficient_with_report(
        cfg.span, cfg.system, cfg.variant, cfg.settings)
    report: Dict[str, Any] = {
        "variant": "coherent" if isinstance(cfg.variant, Coherent) else "span_scaled",
        "gamma_nl_per_w2": gamma_nl,
        "gamma_nl_db_mw2": linear_to_db(gamma_nl * 1e-6) if gamma_nl > 0 else -math.inf,
        "f_phase_hz": d.f_phase,
        "zeta0": d.zeta_max,
        "n_panels": d.n_panels,
        "delta": rep.delta,
        "integral_value": rep.value,
        "head": rep.head,
        "body": rep.body,
        "tail_bound": rep.tail_bound,
        "panels_evaluated": rep.panels_evaluated,
        "truncation_m": rep.truncation_m,
        "span_count": cfg.system.span_count,
        "channels": cfg.system.channel_count,
    }
    if isinstance(cfg.variant, SpanScaled):
        report["epsilon"] = cfg.variant.epsilon
    return _emit(report, cfg.output_format), 0


def cmd_sweep_power(cfg: AppConfig, p_min_dbm: float, p_max_dbm: float,
                    p_step_db: float) -> Tuple[str, int]:
    try:
        grid_dbm = power_grid_dbm(p_min_dbm, p_max_dbm, p_step_db)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = sweep_power(cfg.span, cfg.system, [dbm_to_watt(p) for p in grid_dbm],
                       cfg.variant, cfg.settings)
    table = [
        (p_dbm, linear_to_db(r.osnr), r.q_db)
        for p_dbm, r in zip(grid_dbm, rows)
    ]
    if cfg.output_format == "json":
        return _json_text([
            {"p_dbm": a, "osnr_db": b, "q_db": c} for a, b, c in table
        ]), 0
    return _csv_table(["p_dbm", "osnr_db", "q_db"], table), 0


def cmd_sweep_split(cfg: AppConfig, step_km: Optional[float]) -> Tuple[str, int]:
    if len(cfg.span.segments) != 2:
        raise ConfigError("sweep-split needs a span with exactly two fiber types")
    leading, trailing = cfg.span.segments
    span_length = cfg.span.length
    step = step_km * 1e3 if step_km is not None else span_length / 20.0
    try:
        split_step_count(span_length, step)
    except ValueError as exc:
        raise ConfigError(f"--step-km: {exc}") from exc
    rows = sweep_split(leading, trailing, span_length, cfg.system, step,
                       cfg.variant, cfg.settings)
    best = optimal_split(rows)
    table = [
        (r.first_length / 1e3, r.split_ratio, r.gamma_nl, r.ase, r.mpi,
         watt_to_dbm(r.p_opt), linear_to_db(r.osnr_opt), r.q_opt_db)
        for r in rows
    ]
    header = ["first_km", "split_ratio", "gamma_nl_per_w2", "ase_w", "mpi",
              "p_opt_dbm", "osnr_opt_db", "q_opt_db"]
    if cfg.output_format == "json":
        payload = {
            "rows": [dict(zip(header, row)) for row in table],
            "optimal": {"first_km": best.first_length / 1e3,
                        "split_ratio": best.split_ratio,
                        "q_opt_db": best.q_opt_db},
        }
        return _json_text(payload), 0
    trailer = "# optimal first_km=%s split_ratio=%s q_opt_db=%s" % (
        _fmt(best.first_length / 1e3), _fmt(best.split_ratio), _fmt(best.q_opt_db))
    return _csv_table(header, table, trailer=trailer), 0


#: Finest 2-D grid `check` accepts: its (grid + 1)^2 nodes still fit in
#: about 2 GiB of address space, twice that do not.
MAX_CHECK_GRID = 2048


def cmd_check(cfg: AppConfig, grid_n: int, tolerance: float) -> Tuple[str, int]:
    if not 2 <= grid_n <= MAX_CHECK_GRID or grid_n % 2:
        raise ConfigError(f"--grid must be even and in [2, {MAX_CHECK_GRID}], got {grid_n}")
    if not 0.0 <= tolerance < math.inf:
        raise ConfigError(f"--tolerance must be finite and >= 0, got {tolerance}")
    # Shrink the spectral extent so the 2-D reference stays cheap while the
    # fibers under test are kept unchanged.
    small = replace(cfg.system,
                    span_count=min(cfg.system.span_count, 2),
                    channel_count=min(cfg.system.channel_count, 3),
                    symbol_rate=min(cfg.system.symbol_rate, 1e9),
                    resolution_bw=None)
    # the default, coherent variant: the one the 2-D double integral models
    gamma_1d, d, _ = nl_coefficient_with_report(cfg.span, small, settings=cfg.settings)
    quadrant = brute_force_gamma_integral(d, grid_n)
    gamma_2d = (64.0 / 27.0) * (small.span_count ** 2 * small.osnr_bw
                                / small.symbol_rate ** 3) * quadrant
    rel_dev = abs(gamma_2d / gamma_1d - 1.0) if gamma_1d != 0 else math.inf
    ok = math.isfinite(rel_dev) and rel_dev <= tolerance
    report = {
        "grid_n": grid_n,
        "spans": small.span_count,
        "channels": small.channel_count,
        "symbol_rate_gbd": small.symbol_rate / 1e9,
        "gamma_single_integral_per_w2": gamma_1d,
        "gamma_brute_force_per_w2": gamma_2d,
        "rel_deviation": rel_dev,
        "tolerance": tolerance,
        "status": "pass" if ok else "fail",
    }
    return _emit(report, cfg.output_format), 0 if ok else 3


def cmd_bound(cfg: AppConfig, m_list: List[int]) -> Tuple[str, int]:
    d = derive_span(cfg.span, cfg.system)
    m_max = _largest_m(d)
    if m_max < 1:
        raise ConfigError("the link admits no truncation point: "
                          f"zeta_max = {d.zeta_max:.6g} is not above 2*pi")
    rows = []
    for m in m_list:
        try:
            tight, loose = truncation_bound(m, d)
        except ValueError as exc:
            raise ConfigError(f"m={m}: {exc}; the largest valid m is {m_max}") from exc
        if not (math.isfinite(tight) and math.isfinite(loose)):
            raise ArithmeticError(f"m={m}: tail bound is not finite: {tight!r}, {loose!r}")
        rows.append((m, (m + 1) * math.pi, tight, loose))
    header = ["m", "mu", "tight_bound", "loose_bound"]
    if cfg.output_format == "json":
        return _json_text([dict(zip(header, row)) for row in rows]), 0
    return _csv_table(header, rows), 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridgn",
        description="Nonlinear-interference coefficient and link performance "
                    "for hybrid fiber spans.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="JSON config file")
    # Each flag below sets one config key; see _set_flags.
    common.add_argument("--output", metavar="PATH",
                        help="output.path: write the result here; - means stdout")
    common.add_argument("--format", choices=["csv", "json"],
                        help="output.format")
    common.add_argument("--variant", choices=["coherent", "span-scaled"],
                        help="variant.kind: the accumulation variant")
    common.add_argument("--epsilon", type=float,
                        help="variant.epsilon: span-scaled coherence exponent")
    common.add_argument("--no-truncation", action="store_true",
                        help="quadrature.truncation_enabled = false: integrate "
                             "the full range, no tail truncation")
    common.add_argument("--workers", type=int, metavar="N",
                        help="quadrature.workers; the integral runs serially, so "
                             "the output is the same for any value")

    sub.add_parser("gamma", parents=[common],
                   help="nonlinear coefficient with quadrature report")

    p = sub.add_parser("sweep-power", parents=[common],
                       help="OSNR and Q over a launch power grid")
    p.add_argument("--p-min-dbm", type=float, default=-10.0)
    p.add_argument("--p-max-dbm", type=float, default=10.0)
    p.add_argument("--p-step-db", type=float, default=0.5)

    p = sub.add_parser("sweep-split", parents=[common],
                       help="two-fiber span split study at optimal power")
    p.add_argument("--step-km", type=float,
                   help="split step in km (default: span length / 20)")

    p = sub.add_parser("check", parents=[common],
                       help="cross-validate the single integral against the "
                            "2-D brute force on a down-scaled system")
    p.add_argument("--grid", type=int, default=256, metavar="N",
                   help="2-D Simpson subintervals per axis (even)")
    p.add_argument("--tolerance", type=float, default=5e-3,
                   help="acceptable relative deviation")

    p = sub.add_parser("bound", parents=[common],
                       help="tail truncation bound table")
    p.add_argument("--m-list", default="5,10,20,50", metavar="M1,M2,...",
                   help="comma-separated truncation indices")

    return parser


def _set_flags(raw: Dict[str, Any], args: argparse.Namespace) -> None:
    """Write each flag given on the command line into the config key it sets."""
    def put(block: str, key: str, value: Any) -> None:
        raw.setdefault(block, {})[key] = value

    if args.no_truncation:
        put("quadrature", "truncation_enabled", False)
    if args.workers is not None:
        put("quadrature", "workers", args.workers)
    if args.variant == "coherent":
        raw["variant"] = {"kind": "coherent"}  # drops the file's epsilon
    elif args.variant == "span-scaled":
        put("variant", "kind", "span_scaled")  # keeps the file's epsilon
    if args.epsilon is not None:
        raw.setdefault("variant", {"kind": "coherent"})["epsilon"] = args.epsilon
    if args.format is not None:
        put("output", "format", args.format)
    if args.output is not None:
        put("output", "path", args.output)


def _write(text: str, path: Optional[str]) -> int:
    """Write `text` to the file `path`, or to stdout for None or "-"; return
    0, or 2 after a config error line when the file cannot be written."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"config error: cannot write output {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = read_config(args.config)
        parse_config(raw)  # the file must be valid before a flag edits it
        _set_flags(raw, args)
        cfg = parse_config(raw)
        if args.command == "gamma":
            text, code = cmd_gamma(cfg)
        elif args.command == "sweep-power":
            text, code = cmd_sweep_power(cfg, args.p_min_dbm, args.p_max_dbm,
                                         args.p_step_db)
        elif args.command == "sweep-split":
            text, code = cmd_sweep_split(cfg, args.step_km)
        elif args.command == "check":
            text, code = cmd_check(cfg, args.grid, args.tolerance)
        else:
            try:
                m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigError(f"--m-list must be comma-separated integers: {exc}")
            if not m_list:
                raise ConfigError("--m-list names no m")
            text, code = cmd_bound(cfg, m_list)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return _write(text, cfg.output_path) or code
