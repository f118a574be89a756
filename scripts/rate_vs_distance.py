#!/usr/bin/env python3
"""Key rate versus fiber length for a set of dimensions.

Writes the optimized sweep table as CSV and prints, per dimension, the
rate at the first grid distance and the maximum reachable distance,
followed by the fitted distance-extension slope (km gained per 100x
increase in d).  It exits like the mubqct CLI, through its code map: 1
for a usage error or bad input such as a malformed --d or --L, 3 for a
grid over the sweep cap, a d beyond the rate model's copy scan or a
failed allocation, 4 when --out cannot be written.

Example:
    python3 scripts/rate_vs_distance.py --d 128,1024,16384 --L 0:150:5 \
        --profile snspd_lab --out rates.csv
"""

import math
import sys

from mubqct.cli import _parse_grid, _parse_int_list, _Parser, exit_code
from mubqct.models import BOUNDS_SOURCES, DEFAULT_BOUNDS_SOURCE, DETECTOR_PRESETS
from mubqct.ratemodel import max_distance, sweep, sweep_rows_to_csv


def run(argv):
    parser = _Parser(prog="rate_vs_distance.py", description=__doc__)
    parser.add_argument("--d", default="128,1024,16384", help="comma-separated dimensions")
    parser.add_argument("--L", default="0:150:5", help="distance grid start:stop:step in km")
    parser.add_argument("--profile", default="snspd_lab", choices=sorted(DETECTOR_PRESETS))
    parser.add_argument("--alpha", type=float, default=0.2, help="fiber loss in dB/km")
    parser.add_argument("--bounds-source", choices=BOUNDS_SOURCES, default=DEFAULT_BOUNDS_SOURCE)
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    args = parser.parse_args(argv)
    ds = _parse_int_list(args.d)
    rows = sweep(
        ds,
        _parse_grid(args.L),
        [args.profile],
        alpha_db_per_km=args.alpha,
        bounds_source=args.bounds_source,
    )
    csv_text = sweep_rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    detector = DETECTOR_PRESETS[args.profile]
    reaches = []
    print(f"# profile={args.profile} bounds={args.bounds_source}", file=sys.stderr)
    for d in ds:
        # rows of one d are sorted by L, so the first is at the first grid distance
        first = next(row for row in rows if row.d == d)
        reach = max_distance(d, detector, args.alpha, args.bounds_source)
        reaches.append((d, reach.distance_km))
        tag = " (saturated)" if reach.saturated else ""
        print(
            f"# d={d}: K({first.length_km:g} km)={first.key_rate_bits:.4f} bits/round, "
            f"L_max={reach.distance_km:.1f} km{tag}",
            file=sys.stderr,
        )
    if len(reaches) >= 2:
        xs = [math.log10(d) for d, _ in reaches]
        ys = [r for _, r in reaches]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        denom = sum((x - xbar) ** 2 for x in xs)
        if denom > 0:
            slope = 2.0 * sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
            print(f"# distance extension: {slope:.1f} km per 100x in d", file=sys.stderr)
    return 0


def main(argv=None):
    return exit_code(run, argv)


if __name__ == "__main__":
    raise SystemExit(main())
