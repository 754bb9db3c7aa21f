"""Compare launch-power behaviour of three span designs.

Sweeps received Q against launch power for an all-premium span, an
all-standard span and a half/half hybrid, all on the long-haul reference
system.  Emits one CSV row per power with a Q column per design, then a
summary block with each design's closed-form optimum.

Run from the repository root:

    python3 scripts/power_sweep_study.py
    python3 scripts/power_sweep_study.py --p-min-dbm -6 --p-max-dbm 6 -o out.csv
"""

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hybridgn import (
    Coherent,
    FiberSegment,
    QuadratureSettings,
    SpanPlan,
    SystemConfig,
    optimal_power,
    osnr_eff,
    performance_coeffs,
    q_factor,
)
from hybridgn.units import (
    attenuation_db_per_km_to_np_per_m,
    beta2_ps2_per_km_to_s2_per_m,
    dbm_to_watt,
    gamma_per_w_km_to_per_w_m,
    linear_to_db,
    watt_to_dbm,
)

PREMIUM = FiberSegment(
    name="premium",
    length=100e3,
    attenuation=attenuation_db_per_km_to_np_per_m(0.16),
    beta2=beta2_ps2_per_km_to_s2_per_m(-26.6),
    gamma=gamma_per_w_km_to_per_w_m(0.42158152337308633),
)
STANDARD = FiberSegment(
    name="standard",
    length=100e3,
    attenuation=attenuation_db_per_km_to_np_per_m(0.158),
    beta2=beta2_ps2_per_km_to_s2_per_m(-26.6),
    gamma=gamma_per_w_km_to_per_w_m(0.9410301932738785),
)

SYSTEM = SystemConfig(
    span_count=60,
    symbol_rate=32e9,
    channel_count=9,
    noise_figure_db=5.0,
    wavelength=1550e-9,
)

DESIGNS = {
    "premium": SpanPlan((PREMIUM,)),
    "standard": SpanPlan((STANDARD,)),
    "hybrid": SpanPlan((
        replace(PREMIUM, length=50e3),
        replace(STANDARD, length=50e3),
    )),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-min-dbm", type=float, default=-4.0)
    parser.add_argument("--p-max-dbm", type=float, default=4.0)
    parser.add_argument("--p-step-db", type=float, default=0.5)
    parser.add_argument("-o", "--output", default=None,
                        help="CSV destination (default stdout)")
    args = parser.parse_args(argv)
    if not (all(map(math.isfinite, (args.p_min_dbm, args.p_max_dbm, args.p_step_db)))
            and args.p_step_db > 0):
        parser.error("power bounds must be finite and --p-step-db finite and > 0")

    settings = QuadratureSettings()
    variant = Coherent()

    grid = []
    p = args.p_min_dbm
    while p <= args.p_max_dbm + 1e-9:
        grid.append(dbm_to_watt(p))
        p += args.p_step_db

    # one gamma_nl integral per design, shared by the sweep and the summary
    coeffs = {name: performance_coeffs(span, SYSTEM, variant, settings)
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
