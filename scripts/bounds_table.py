#!/usr/bin/env python3
"""Adversary-bound table across dimensions.

Tabulates, for each d, the exact lambda (from the commuting classes of
the split observables), the paper's closed-form lambda, the
guessing-probability bounds, the resulting min-entropy, and the
accessible-information chain. CSV on stdout. It exits like the mubqct
CLI, through its code map: a usage error or bad input, such as a d that
is not a power of two or m < 1, exits 1 with an `error:` line.

Example:
    python3 scripts/bounds_table.py --d 2,4,8,16,64,1024 --m 1
"""

from mubqct.cli import _parse_int_list, _Parser, exit_code
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


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def run(argv):
    parser = _Parser(prog="bounds_table.py", description=__doc__)
    parser.add_argument("--d", default="2,4,8,16,64,1024", help="comma-separated dimensions")
    parser.add_argument("--m", type=int, default=1, help="signal copies per round")
    args = parser.parse_args(argv)
    records = [bounds_report(d, args.m, oracle=True).to_dict() for d in _parse_int_list(args.d)]
    print(",".join(COLUMNS))
    for record in records:
        print(",".join(_fmt(record[col]) for col in COLUMNS))
    return 0


def main(argv=None):
    return exit_code(run, argv)


if __name__ == "__main__":
    raise SystemExit(main())
