#!/usr/bin/env python3
"""Tabulate [n, k, d] over a range of field sizes.

The distance column is exact whenever the search fits the evaluation
budget and falls back to the witness upper bound otherwise (marked <=).
Exit status: 0, or 2 on a usage error.
"""

import argparse

from ograss.cli import _at_least
from ograss.codes import BudgetExceeded, DEFAULT_BUDGET, minimum_distance
from ograss.gf import field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", default="2,3,4,5,7,8,9")
    ap.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)
    ap.add_argument("--threads", type=_at_least(1), default=1)
    ap.add_argument("--csv", default=None, help="optional output path, columns q,n,k,d,exact")
    args = ap.parse_args()
    try:
        fields = [field(int(t)) for t in args.qs.split(",")]
    except ValueError as exc:
        ap.error(f"--qs: {exc}")
    rows = []
    print(f"{'q':>3} {'n':>6} {'k':>3} {'d':>8}  evaluations")
    for f in fields:
        try:
            res = minimum_distance(f, budget=args.budget, threads=args.threads)
            mark = ""
        except BudgetExceeded:
            res = minimum_distance(f, method="witness")
            mark = "<="
        print(f"{f.q:>3} {res.n:>6} {res.dimension:>3} {mark:>2}{res.distance:>6}  {res.evaluations}")
        rows.append((f.q, res.n, res.dimension, res.distance, res.exact))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("q,n,k,d,exact\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
