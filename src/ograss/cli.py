"""Command line front end.

All outputs are byte-deterministic: JSON uses sorted keys and exact
integers only, matrices and points follow the frozen orderings spelled
out in --help.  Exit codes: 0 success, 1 verification failure (a failed
``verify`` check, or a ``weight-dist`` histogram failing ``codes.macwilliams``:
no CSV), 2 usage/configuration error.  Every numeric argument is read by
``grassmann.parse_decimal`` (ASCII decimal digits only), and the fields
by ``_field``, which the scripts share; it parses ``--poly`` and leaves
the rule of which fields exist (a prime power q <= 49) to ``gf.field``.
``main`` builds the field once and passes it to the command.
``weight-dist`` opens ``--out`` before the split (``_output``), so that a
bad path costs no scan.

``genmat`` and ``points`` write their text as bytes, block by block, and no
Python object is made per entry.  The text of one matrix row entry, or of
one point, is a record of fixed length: its constant text with a NUL-padded
field for each value that varies.  A block is a reused buffer of copies of
the record; each field is filled by one ``np.take`` of the q digit strings
and one ``bytearray.translate`` deletes the pads (see ``_record_writer``).
Each record is cut from the format's own text (``json.dumps(...,
sort_keys=True, indent=2)`` or the txt layout) of one point, or of a 2 x 2
matrix, written with the marker -1 - k where column k of the values stands.

Each command loads only the modules it runs: ``points`` the point
enumeration (``polar``), ``genmat`` also the generator build
(``generator``), and the other four the distance engine (``codes``), which
``verify`` alone extends by the form checks (``forms``).  The ``--budget``
options default to ``codes.DEFAULT_BUDGET`` when the command runs, so that
building the parser loads no engine.

``entry`` is the process entry of ``python -m ograss`` and the ``ograss``
script: it runs ``main``, freezes the objects the garbage collector tracks
(``gc.freeze``) so that the full collections of interpreter shutdown skip
the numpy and ograss modules, and exits with main's code.  It first
restores the default SIGPIPE action, so that a stdout closed early ends
the process quietly, as it ends ``cat`` (status 141 in the shell).
``main`` does neither, so tests and library callers can run it in process.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import signal
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import polar
from .gf import GF, field
from .grassmann import COLUMN_SETS, MinorFunction, parse_decimal

#: the most bytes of text in one block of the writers; it bounds their buffer, index and chunk
_BLOCK_BYTES = 1 << 18

_ORDERING_NOTE = (
    "ordering contracts: points are listed cell by cell in the fixed order "
    "456, 356, 246, 236, 145, 135, 124, 123, parameter tuples in ascending "
    "lexicographic order of their integer encodings; coefficient vectors and "
    "generator rows follow the 20 column triples of {1..6} in lexicographic "
    "order 123, 124, 125, ..., 456."
)

_BUDGET_HELP = "maximum codeword evaluations of the family split (default 10^8)"


def _at_least(low: int):
    """An argparse type: an integer no smaller than low, read by ``parse_decimal`` (a usage error otherwise)."""
    def parse(text: str) -> int:
        try:
            value = parse_decimal(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {exc}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _field(q: int, poly: str | None = None) -> GF:
    """``gf.field(q)`` on the comma-separated coefficients ``poly`` (read by
    ``parse_decimal``) or, when it is None or empty, the default polynomial."""
    return field(q, tuple(map(parse_decimal, poly.split(","))) if poly else None)


@contextmanager
def _output(out: str | None) -> Iterator:
    """stdout's binary stream, or the file ``out`` opened at once, so that a bad path fails before
    the work; a file made here and still empty at the end (an error, a failed check) is removed."""
    if not out:
        sys.stdout.flush()
        yield sys.stdout.buffer
        return
    made = not os.path.lexists(out)
    fh = open(out, "wb")
    try:
        yield fh
    finally:
        fh.close()
        if made and not os.path.getsize(out):
            os.remove(out)


def _emit(chunks: Iterable, out: str | None) -> None:
    """Write byte chunks (bytes or bytearrays) to the file ``out``, else to stdout."""
    with _output(out) as fh:
        fh.writelines(chunks)


def _dump(payload) -> str:
    import json  # genmat txt and points txt never dump JSON

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cell_id(pivots) -> str:
    return "".join(str(i) for i in pivots)


def _record_writer(items: list, q: int):
    """A function from a values array to the text of ``items`` once for each
    of its rows, as byte chunks of one block of rows each.  An item is
    literal bytes or an int k, which stands for the decimal digits of
    column k of the values (elements of GF(q)).

    ``items`` make one record of fixed length, each int a field of as many
    NULs as q - 1 has digits.  A block is a bytearray of copies of the
    record, viewed through ``np.frombuffer`` as a structured array of those
    fields and reused for every later block of its size.  Each column is
    one ``np.take`` of the q digit strings (NUL-padded) into a scratch
    array, assigned to its field, and ``bytearray.translate`` deletes the
    pads, the only NULs in the text.
    """
    table = np.array([b"%d" % v for v in range(q)], dtype=bytes)
    record, fields = b"", {}
    for item in items:
        if isinstance(item, bytes):
            record += item
        else:
            fields[item] = len(record)
            record += bytes(table.itemsize)
    dtype = np.dtype({"names": [f"f{k}" for k in fields], "formats": [table.dtype] * len(fields),
                      "offsets": list(fields.values()), "itemsize": len(record)})
    step = max(1, _BLOCK_BYTES // len(record))
    blocks = {}

    def text(values: np.ndarray) -> Iterator[bytearray]:
        for start in range(0, len(values), step):
            block = values[start:start + step]
            if len(block) not in blocks:
                buf = bytearray(record * len(block))
                blocks[len(block)] = buf, np.frombuffer(buf, dtype=dtype), np.empty(len(block), table.dtype)
            buf, records, digits = blocks[len(block)]
            for k in fields:
                np.take(table, block[:, k], out=digits, mode="clip")  # "raise" would buffer out
                records[f"f{k}"] = digits
            yield buf.translate(None, b"\0")

    return text


def _template_items(text: str) -> list:
    """The items of ``_record_writer`` in a template: literal bytes, and the int k
    where the text holds the field marker -1 - k (nothing else in a template is negative)."""
    return [int(t) - 1 if i % 2 else t.encode() for i, t in enumerate(re.split(r"-(\d+)", text))]


def _point_chunks(f: GF, fmt: str) -> Iterator[bytearray]:
    """The text of every point in the frozen order, as byte chunks of one block of points each.

    A cell's template is one point with a field marker for each parameter
    and each matrix entry that varies over the cell.  Every point starts
    with the separator that the first point drops.
    """
    for pivots in polar.CELL_ORDER:
        arity = polar.CELL_ARITY[pivots]
        mats = polar.cell_matrices(f, pivots).reshape(18, -1)
        live = (mats != mats[:, :1]).any(axis=1)
        values = np.concatenate([polar.cell_params(f.q, pivots).astype(mats.dtype), mats[live].T], axis=1)
        columns = iter(range(arity, values.shape[1]))
        entries = [-1 - next(columns) if v else e for v, e in zip(live, mats[:, 0].tolist())]
        params, rows = [-1 - j for j in range(arity)], [entries[i:i + 6] for i in range(0, 18, 6)]
        if fmt == "json":
            point = _dump({"cell": _cell_id(pivots), "params": params, "rows": rows})
            text = ",\n    " + point[:-1].replace("\n", "\n    ")
        else:
            text = "\ncell %s params %s\n" % (_cell_id(pivots), ",".join(map(str, params)) or "-")
            text += "".join(" ".join(map(str, row)) + "\n" for row in rows)
        yield from _record_writer(_template_items(text), f.q)(values)


def _cmd_points(f: GF, args: argparse.Namespace) -> int:
    chunks = _point_chunks(f, args.format)
    first = next(chunks)
    del first[0]  # the separator before the first point
    if args.format == "json":
        head, foot = _dump({"n": polar.point_count(f.q), "points": [], "q": f.q}).rsplit("[]", 1)
        chunks = chain([head.encode(), b"[", first], chunks, [b"\n  ]" + foot.encode()])
    else:
        chunks = chain([first], chunks)
    _emit(chunks, args.out)
    return 0


def _cmd_genmat(f: GF, args: argparse.Namespace) -> int:
    from . import generator

    G = generator.build_generator(f)
    if args.format == "json":
        text = _dump({
            "q": f.q,
            "n": G.n,
            "colsets": [_cell_id(A) for A in COLUMN_SETS],
            "rows": [[-1, -1], [-1, -1]],
        })
    else:
        text = "-1 -1\n-1 -1\n"
    head, _, sep, _, row_sep, *_, foot = _template_items(text)
    entries = _record_writer([0, sep], f.q)
    rows = (chain([row_sep if i else head], entries(row[:-1, None]), [b"%d" % row[-1]])
            for i, row in enumerate(G.matrix))
    _emit(chain(chain.from_iterable(rows), [foot]), args.out)
    return 0


def _cmd_distance(f: GF, args: argparse.Namespace) -> int:
    from . import codes

    budget = getattr(args, "budget", codes.DEFAULT_BUDGET)
    res = codes.minimum_distance(f, method=args.method, budget=budget)
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


def _cmd_weights(f: GF, args: argparse.Namespace) -> int:
    from . import codes

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


def _cmd_weight_dist(f: GF, args: argparse.Namespace) -> int:
    from . import codes

    with _output(args.out) as out:  # before the split, so that a bad path costs no scan
        dist = codes.weight_distribution(f, budget=getattr(args, "budget", codes.DEFAULT_BUDGET))
        try:
            codes.macwilliams(f.q, polar.point_count(f.q), dist)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines = ["weight,count"] + [f"{w},{c}" for w, c in sorted(dist.items())]
        out.write(("\n".join(lines) + "\n").encode())
    return 0


def _cmd_verify(f: GF, args: argparse.Namespace) -> int:
    from . import codes

    report = codes.verify(f, budget=getattr(args, "budget", codes.DEFAULT_BUDGET))
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
        sp.add_argument("--q", type=_at_least(2), required=True, help="field size, a prime power <= 49")
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
    sp.add_argument("--budget", type=_at_least(0), default=argparse.SUPPRESS, help=_BUDGET_HELP)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("weights", help="weight report of a serialized coefficient vector")
    common(sp)
    sp.add_argument("--coeffs", required=True,
                    help="file holding 20 coefficients (JSON array or comma-separated line)")
    sp.set_defaults(func=_cmd_weights)

    sp = sub.add_parser("weight-dist", help="full weight distribution as CSV")
    common(sp)
    sp.add_argument("--out", default=None)
    sp.add_argument("--budget", type=_at_least(0), default=argparse.SUPPRESS, help=_BUDGET_HELP)
    sp.set_defaults(func=_cmd_weight_dist)

    sp = sub.add_parser("verify", help="run all structural checks, nonzero exit on failure")
    common(sp)
    sp.add_argument("--budget", type=_at_least(0), default=argparse.SUPPRESS, help=_BUDGET_HELP)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_field(args.q, args.poly), args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry(argv=None) -> NoReturn:
    """Run ``main``, then freeze the tracked objects and exit with its code (see the module docstring)."""
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process as it ends cat (POSIX only)
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main(argv)
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
