"""Command line front end.

All outputs are byte-deterministic: JSON uses sorted keys and exact
integers only, matrices and points follow the frozen orderings spelled
out in --help.  Exit codes: 0 success, 1 verification failure, 2
usage/configuration error.

``genmat`` writes its matrix as bytes, row by row, in both formats: one
table per field holds each element's ASCII digits and separator, a row is
one ``np.take`` of that table, and no Python object is made per entry.
The JSON text is the one ``json.dumps(..., indent=2)`` gives, with the
rows spliced in where the dump of an empty list stands.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from . import codes, polar
from .gf import GF, factor_prime_power, field
from .grassmann import COLUMN_SETS, MinorFunction

MAX_Q = 49

_ORDERING_NOTE = (
    "ordering contracts: points are listed cell by cell in the fixed order "
    "456, 356, 246, 236, 145, 135, 124, 123, parameter tuples in ascending "
    "lexicographic order of their integer encodings; coefficient vectors and "
    "generator rows follow the 20 column triples of {1..6} in lexicographic "
    "order 123, 124, 125, ..., 456."
)

_THREADS_HELP = (
    "worker threads for the full enumeration of all q^k codewords; the "
    "information-set search used when q^k exceeds the budget runs in one thread"
)


def _at_least(low: int):
    """An argparse type: an integer no smaller than low (a usage error otherwise)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _field_from_args(args: argparse.Namespace) -> GF:
    q = args.q
    factor_prime_power(q)
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the supported maximum {MAX_Q}")
    poly = None
    if getattr(args, "poly", None):
        poly = tuple(int(t) for t in args.poly.split(","))
    return field(q, poly)


def _emit(chunks: Iterable, out: str | None) -> None:
    """Write byte chunks (bytes or 1-D uint8 arrays) to the file ``out``, else to stdout."""
    if out:
        with open(out, "wb") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell_id(pivots) -> str:
    return "".join(str(i) for i in pivots)


def _cmd_points(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    if args.format == "json":
        payload = {
            "q": f.q,
            "n": polar.point_count(f.q),
            "points": [{"cell": _cell_id(pivots), "params": params, "rows": rows}
                       for pivots, params, rows in polar.point_rows(f)],
        }
        text = _dump(payload)
    else:
        strs = [str(i) for i in range(f.q)]
        blocks = []
        for pivots, params, rows in polar.point_rows(f):
            head = f"cell {_cell_id(pivots)} params {','.join(map(strs.__getitem__, params)) or '-'}"
            blocks.append("\n".join([head] + [" ".join(map(strs.__getitem__, r)) for r in rows]))
        text = "\n\n".join(blocks) + "\n"
    _emit([text.encode()], args.out)
    return 0


def _matrix_rows(matrix: np.ndarray, q: int, lead: bytes, sep: bytes):
    """Each row of a matrix over GF(q) as one uint8 array: every entry as
    ``lead``, its decimal digits and ``sep``, the row's last ``sep`` cut to
    a newline.

    The (q, width) table holds every element's bytes, zero-padded on the
    right to the widest; the pad exists only when q > 10, and one boolean
    mask drops it from a row.
    """
    table = np.zeros((q, len(lead) + len(str(q - 1)) + len(sep)), dtype=np.uint8)
    for v in range(q):
        cell = b"%s%d%s" % (lead, v, sep)
        table[v, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    for row in matrix:
        cells = np.take(table, row, axis=0).ravel()
        if q > 10:
            cells = cells[cells != 0]  # ndarray.compress would hold an intp index per byte
        end = len(cells) - len(sep)
        cells[end] = ord("\n")
        yield cells[:end + 1]


def _cmd_genmat(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    G = codes.build_generator(f)
    if args.format == "json":
        head, foot = _dump({
            "q": f.q,
            "n": G.n,
            "colsets": [_cell_id(A) for A in COLUMN_SETS],
            "rows": [],
        }).rsplit("[]", 1)
        rows = _matrix_rows(G.matrix, f.q, b" " * 6, b",\n")
        framed = chain.from_iterable((b",\n    [\n" if i else b"[\n    [\n", row, b"    ]")
                                     for i, row in enumerate(rows))
        chunks = chain([head.encode()], framed, [b"\n  ]" + foot.encode()])
    else:
        chunks = _matrix_rows(G.matrix, f.q, b"", b" ")
    _emit(chunks, args.out)
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    res = codes.minimum_distance(f, method=args.method, budget=args.budget, threads=args.threads)
    payload = {
        "q": res.q,
        "n": res.n,
        "dimension": res.dimension,
        "method": res.method,
        "exact": res.exact,
        "evaluations": res.evaluations,
        "witness_coeffs": list(res.witness.coeffs),
    }
    if res.exact:
        payload["d"] = res.distance
    else:
        payload["d_upper_bound"] = res.distance
        payload["upper_bound_only"] = True
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    text = Path(args.coeffs).read_text()
    fn = MinorFunction.parse(f, text)
    rep = codes.weight(fn)
    payload = {
        "q": f.q,
        "total": rep.total,
        "per_cell": {_cell_id(piv): w for piv, w in rep.per_cell.items()},
    }
    sys.stdout.write(_dump(payload))
    return 0


def _cmd_weight_dist(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    dist = codes.weight_distribution(f, budget=args.budget)
    lines = ["weight,count"] + [f"{w},{c}" for w, c in sorted(dist.items())]
    _emit([("\n".join(lines) + "\n").encode()], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    f = _field_from_args(args)
    report = codes.verify(f, budget=args.budget, threads=args.threads)
    sys.stdout.write("\n".join(report.lines()) + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ograss",
        description="polar orthogonal Grassmann codes over GF(q): points, generator "
                    "matrix, weights, minimum distance, verification",
        epilog=_ORDERING_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--q", type=int, required=True, help="field size, a prime power <= 49")
        sp.add_argument("--poly", default=None,
                        help="defining polynomial coefficients, low to high, monic "
                             "(for example 1,1,1 for GF(4))")

    sp = sub.add_parser("points", help="emit the point enumeration")
    common(sp)
    sp.add_argument("--format", choices=("json", "txt"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_points)

    sp = sub.add_parser("genmat", help="emit the 20-row generator matrix")
    common(sp)
    sp.add_argument("--format", choices=("txt", "json"), default="txt")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_genmat)

    sp = sub.add_parser("distance", help="minimum distance (exhaustive or witness bound)")
    common(sp)
    sp.add_argument("--method", choices=("exhaustive", "witness"), default="exhaustive")
    sp.add_argument("--budget", type=_at_least(0), default=codes.DEFAULT_BUDGET,
                    help="maximum number of codeword evaluations for exhaustive search")
    sp.add_argument("--threads", type=_at_least(1), default=1, help=_THREADS_HELP)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("weights", help="weight report of a serialized coefficient vector")
    common(sp)
    sp.add_argument("--coeffs", required=True,
                    help="file holding 20 coefficients (JSON array or comma-separated line)")
    sp.set_defaults(func=_cmd_weights)

    sp = sub.add_parser("weight-dist", help="full weight distribution as CSV")
    common(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--budget", type=_at_least(0), default=codes.DEFAULT_BUDGET)
    sp.set_defaults(func=_cmd_weight_dist)

    sp = sub.add_parser("verify", help="run all structural checks, nonzero exit on failure")
    common(sp)
    sp.add_argument("--budget", type=_at_least(0), default=codes.DEFAULT_BUDGET)
    sp.add_argument("--threads", type=_at_least(1), default=1, help=_THREADS_HELP)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
