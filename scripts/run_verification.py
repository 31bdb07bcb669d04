#!/usr/bin/env python3
"""Run the structural verification suite over a range of field sizes.

Prints one report per q.  Exit status: 0 if every check passes, 1 if a
check fails anywhere, 2 on a usage error.  A stdout closed early ends the
script by SIGPIPE, as it ends cat (status 141 in the shell), with nothing
on stderr.
"""

import argparse
import signal

from ograss.cli import _at_least, _field
from ograss.codes import DEFAULT_BUDGET, verify
from ograss.grassmann import parse_decimal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qs", default="2,3,4,5", help="comma-separated prime powers")
    ap.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET)
    args = ap.parse_args()
    try:
        fields = [_field(parse_decimal(t)) for t in args.qs.split(",")]
    except ValueError as exc:
        ap.error(f"--qs: {exc}")
    ok = True
    for f in fields:
        report = verify(f, budget=args.budget)
        print("\n".join(report.lines()))
        print()
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the script as it ends cat (POSIX only)
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
