#!/usr/bin/env python3
"""Tabulate [n, k, d] over a range of field sizes.

The distance column is exact whenever the family split, the one exact
path at every q, fits the evaluation budget (q <= 5 under the default)
and falls back to the witness upper bound otherwise (marked <=).
Exit status: 0, or 2 on a usage error (a --qs entry that names no
supported field, or a --csv path that cannot be opened for writing).
The --csv file is opened before the first distance and written after the
last (``cli._output``), so a run that is interrupted or raises leaves an
existing file as it was.
"""

import argparse
from contextlib import ExitStack

from ograss.cli import _at_least, _field, _output
from ograss.codes import BudgetExceeded, DEFAULT_BUDGET, minimum_distance
from ograss.grassmann import parse_decimal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", default="2,3,4,5,7,8,9")
    ap.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)
    ap.add_argument("--csv", default=None, help="optional output path, columns q,n,k,d,exact")
    args = ap.parse_args()
    try:
        fields = [_field(parse_decimal(t)) for t in args.qs.split(",")]
    except ValueError as exc:
        ap.error(f"--qs: {exc}")
    with ExitStack() as stack:
        try:  # before the first distance, so that a bad path costs no scan and prints no table
            csv = stack.enter_context(_output(args.csv)) if args.csv else None
        except OSError as exc:
            ap.error(f"--csv: {exc}")
        lines = ["q,n,k,d,exact\n"]
        print(f"{'q':>3} {'n':>6} {'k':>3} {'d':>8}  evaluations")
        for f in fields:
            try:
                res = minimum_distance(f, budget=args.budget)
                mark = ""
            except BudgetExceeded:
                res = minimum_distance(f, method="witness")
                mark = "<="
            print(f"{f.q:>3} {res.n:>6} {res.dimension:>3} {mark:>2}{res.distance:>6}  {res.evaluations}")
            lines.append(f"{f.q},{res.n},{res.dimension},{res.distance},{res.exact}\n")
        if csv:
            csv.write("".join(lines).encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
