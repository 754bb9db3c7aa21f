"""Compare launch-power behaviour of three span designs.

Sweeps received Q against launch power for an all-premium span, an
all-standard span and a half/half hybrid, all on the long-haul reference
system.  The fibers, the hybrid span and the system are those of
configs/transatlantic.json.  Emits one CSV row per power with a Q column per
design, then a summary block with each design's closed-form optimum.

Run from the repository root:

    python3 scripts/power_sweep_study.py
    python3 scripts/power_sweep_study.py --p-min-dbm -6 --p-max-dbm 6 -o out.csv
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from hybridgn import SpanPlan, optimal_power, osnr_eff, performance_coeffs, q_factor
from hybridgn.config import load_config
from hybridgn.sweep import power_grid_dbm
from hybridgn.units import dbm_to_watt, linear_to_db, watt_to_dbm

#: The reference link: a premium + standard hybrid span on the long-haul system.
LINK = load_config(str(REPO / "configs" / "transatlantic.json"))
SYSTEM = LINK.system
PREMIUM, STANDARD = (replace(s, length=LINK.span.length) for s in LINK.span.segments)

DESIGNS = {
    "premium": SpanPlan((PREMIUM,)),
    "standard": SpanPlan((STANDARD,)),
    "hybrid": LINK.span,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-min-dbm", type=float, default=-4.0)
    parser.add_argument("--p-max-dbm", type=float, default=4.0)
    parser.add_argument("--p-step-db", type=float, default=0.5)
    parser.add_argument("-o", "--output", default=None,
                        help="CSV destination (default stdout)")
    args = parser.parse_args(argv)
    try:
        grid_dbm = power_grid_dbm(args.p_min_dbm, args.p_max_dbm, args.p_step_db)
    except ValueError as exc:
        parser.error(str(exc))
    grid = [dbm_to_watt(p) for p in grid_dbm]

    # one gamma_nl integral per design, shared by the sweep and the summary
    coeffs = {name: performance_coeffs(span, SYSTEM, LINK.variant, LINK.settings)
              for name, span in DESIGNS.items()}

    sink = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["p_dbm"] + [f"q_db_{name}" for name in DESIGNS])
        for power in grid:
            row = [f"{watt_to_dbm(power):.2f}"]
            row += [repr(q_factor(osnr_eff(power, coeffs[name]), SYSTEM))
                    for name in DESIGNS]
            writer.writerow(row)

        writer.writerow([])
        writer.writerow(["design", "gamma_nl_per_w2", "p_opt_dbm",
                         "osnr_opt_db", "q_opt_db"])
        for name in DESIGNS:
            p_opt = optimal_power(coeffs[name])
            osnr = osnr_eff(p_opt, coeffs[name])
            writer.writerow([
                name,
                repr(coeffs[name].nl),
                f"{watt_to_dbm(p_opt):.3f}",
                f"{linear_to_db(osnr):.3f}",
                f"{q_factor(osnr, SYSTEM):.3f}",
            ])
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
