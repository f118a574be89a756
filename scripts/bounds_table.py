#!/usr/bin/env python3
"""Adversary-bound table across dimensions.

Tabulates, for each d, the exact lambda (read from the commuting classes
of the split observables where their dense relation check is offered,
d <= 16), the closed-form lambda, the guessing-probability
bounds, the resulting min-entropy, and the accessible-information
chain. CSV on stdout. Bad input, such as a d that is not a power of two
or m < 1, exits 1 with an `error:` line, as in the mubqct CLI.

Example:
    python3 scripts/bounds_table.py --d 2,4,8,16,64,1024 --m 1
"""

import argparse
import sys

from mubqct.cli import _parse_int_list
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
    return parser.parse_args(argv)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _record(d, m):
    """bounds_report at (d, m), closed form where the exact lambda is not offered."""
    try:
        return bounds_report(d, m, oracle=True).to_dict()
    except CapabilityError as exc:
        print(f"# d={d}: oracle skipped ({exc})", file=sys.stderr)
    return bounds_report(d, m, oracle=False).to_dict()


def main(argv=None):
    args = parse_args(argv)
    try:
        ds = _parse_int_list(args.d)
        records = [_record(d, args.m) for d in ds]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(",".join(COLUMNS))
    for record in records:
        print(",".join(_fmt(record[col]) for col in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
