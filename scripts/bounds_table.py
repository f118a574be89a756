#!/usr/bin/env python3
"""Adversary-bound table across dimensions.

Tabulates, for each d, the exact lambda (where the sign search is
offered, d <= 16), the closed-form lambda, the guessing-probability
bounds, the resulting min-entropy, and the accessible-information
chain. CSV on stdout.

Example:
    python3 scripts/bounds_table.py --d 2,4,8,16,64,1024 --m 1
"""

import argparse
import sys

from mubqct.errors import CapabilityError
from mubqct.security import bounds_report

COLUMNS = (
    "d",
    "m",
    "lambda_numeric",
    "lambda_paper",
    "pguess_certified",
    "pguess_paper_single",
    "pguess_paper_multi",
    "hmin_bits",
    "iacc_bits",
    "helstrom_single",
    "delta_pinsker",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", default="2,4,8,16,64,1024", help="comma-separated dimensions")
    parser.add_argument("--m", type=int, default=1, help="signal copies per round")
    parser.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the exact lambda even where it is offered",
    )
    return parser.parse_args(argv)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def main(argv=None):
    args = parse_args(argv)
    ds = [int(tok) for tok in args.d.split(",") if tok.strip()]
    print(",".join(COLUMNS))
    for d in ds:
        report = None
        if not args.no_oracle:
            try:
                report = bounds_report(d, args.m, oracle=True)
            except CapabilityError as exc:
                print(f"# d={d}: oracle skipped ({exc})", file=sys.stderr)
        if report is None:
            report = bounds_report(d, args.m, oracle=False)
        record = report.to_dict()
        print(",".join(_fmt(record[col]) for col in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
