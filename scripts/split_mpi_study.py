"""How multipath interference moves the optimal fiber split.

Without MPI the premium fiber wins outright and the best span is 100%
premium.  If the premium fiber carries an MPI penalty that grows with its
deployed length, the optimum migrates toward the standard fiber.  This
study sweeps the MPI strength and reports the best split at each level.
MPI changes only the OSNR, not gamma_nl or ASE, so the span physics of each
split is computed once and every MPI strength reuses it.  The two fibers and
the system are those of configs/transatlantic.json.

Run from the repository root:

    python3 scripts/split_mpi_study.py
    python3 scripts/split_mpi_study.py --strengths 0,0.02,0.05,0.1 --step-km 5
"""

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from hybridgn.config import load_config
from hybridgn.sweep import apply_mpi, optimal_split, split_step_count, sweep_split
from hybridgn.units import linear_to_db, watt_to_dbm

#: The reference link: its two fibers, each stretched over the whole span.
LINK = load_config(str(REPO / "configs" / "transatlantic.json"))
SPAN_LENGTH = LINK.span.length
SYSTEM = LINK.system
PREMIUM, STANDARD = (replace(s, length=SPAN_LENGTH) for s in LINK.span.segments)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strengths", default="0,0.01,0.02,0.05,0.1",
                        help="comma-separated MPI coefficients at full "
                             "premium length")
    parser.add_argument("--step-km", type=float, default=5.0)
    parser.add_argument("-o", "--output", default=None,
                        help="CSV destination (default stdout)")
    args = parser.parse_args(argv)

    try:
        strengths = [float(s) for s in args.strengths.split(",")]
    except ValueError as exc:
        parser.error(f"--strengths: {exc}")
    if not all(math.isfinite(k) and k >= 0.0 for k in strengths):
        parser.error("--strengths must be finite and >= 0")
    step = args.step_km * 1e3
    try:
        split_step_count(SPAN_LENGTH, step)
    except ValueError as exc:
        parser.error(f"--step-km: {exc}")

    physics = sweep_split(PREMIUM, STANDARD, SPAN_LENGTH, SYSTEM, step,
                          LINK.variant, LINK.settings)

    sink = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(sink)
        writer.writerow(["mpi_strength", "best_split_ratio", "best_first_km",
                         "p_opt_dbm", "osnr_opt_db", "q_opt_db"])
        for strength in strengths:
            # penalty proportional to the premium share of the span
            def mpi_model(first_length, k=strength):
                return k * first_length / SPAN_LENGTH

            best = optimal_split(apply_mpi(physics, SYSTEM, mpi_model))
            writer.writerow([
                repr(strength),
                repr(best.split_ratio),
                f"{best.first_length / 1e3:.1f}",
                f"{watt_to_dbm(best.p_opt):.3f}",
                f"{linear_to_db(best.osnr_opt):.3f}",
                repr(best.q_opt_db),
            ])
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
