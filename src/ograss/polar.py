"""Enumeration of the totally singular 3-spaces of the hyperbolic quadric in F_q^6.

Canonical (right-to-left reduced) representatives fall into eight pivot
cells; a pivot set never contains both i and 7-i, so the possible sets
are 123, 124, 135, 145, 236, 246, 356 and 456.  Each cell is an explicit
parametrized family whose non-pivot block is skew-symmetric with zero
diagonal:

    P456 (a2,a3,a5)      P356 (b2,b3,b5)      P246 (c2,c3)     P236 (d2,d3)
    [ 0   a2  a3 0 0 1]  [ 0   b2  0 b3 0 1]  [ 0  0 c2 0 c3 1] [ 0  0 0 d2 d3 1]
    [-a2  0   a5 0 1 0]  [-b2  0   0 b5 1 0]  [-c2 0 0  1 0  0] [-d2 0 1 0  0  0]
    [-a3 -a5  0  1 0 0]  [-b3 -b5  1 0  0 0]  [-c3 1 0  0 0  0] [-d3 1 0 0  0  0]

    P145 (e2)            P135 (x2)            P124              P123
    [0  0  e2 0 1 0]     [0  0  0 x2 1 0]     [0 0 0 1 0 0]     [0 0 1 0 0 0]
    [0 -e2 0  1 0 0]     [0 -x2 1 0  0 0]     [0 1 0 0 0 0]     [0 1 0 0 0 0]
    [1  0  0  0 0 0]     [1  0  0 0  0 0]     [1 0 0 0 0 0]     [1 0 0 0 0 0]

(negation is field negation, so -a = a in even characteristic).

The frozen point order -- cells as listed above, parameter tuples in
ascending lexicographic order of their integer encodings -- fixes the
coordinate order of every codeword and is part of the file-format
contract.  Total count: 2*(q^3 + q^2 + q + 1).

``brute_force_points`` is an independent oracle: it scans every rank-3
right-to-left reduced 3x6 matrix and filters by the form conditions.  It
is test machinery, lives behind a cost guard, and never feeds the
production path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

from .forms import FormSpace
from .gf import GF
from .grassmann import AMBIENT, ELL, MatrixRep, rref_right_to_left

#: Cell enumeration order (also the per-cell segment order of codewords).
CELL_ORDER: tuple[tuple[int, int, int], ...] = (
    (4, 5, 6), (3, 5, 6), (2, 4, 6), (2, 3, 6),
    (1, 4, 5), (1, 3, 5), (1, 2, 4), (1, 2, 3),
)

CELL_ARITY: dict[tuple[int, int, int], int] = {
    (4, 5, 6): 3, (3, 5, 6): 3,
    (2, 4, 6): 2, (2, 3, 6): 2,
    (1, 4, 5): 1, (1, 3, 5): 1,
    (1, 2, 4): 0, (1, 2, 3): 0,
}


class CostGuardExceeded(RuntimeError):
    """Brute-force enumeration was requested beyond its cost guard."""


def build_cell(f: GF, pivots: tuple[int, int, int], params: tuple[int, ...]) -> MatrixRep:
    """The canonical representative of the given cell at the given parameters."""
    pivots = tuple(pivots)
    if pivots not in CELL_ARITY:
        raise ValueError(f"{pivots} is not one of the eight pivot sets")
    if len(params) != CELL_ARITY[pivots]:
        raise ValueError(f"cell {pivots} takes {CELL_ARITY[pivots]} parameters, got {len(params)}")
    n = f.neg
    if pivots == (4, 5, 6):
        a2, a3, a5 = params
        rows = ((0, a2, a3, 0, 0, 1), (n(a2), 0, a5, 0, 1, 0), (n(a3), n(a5), 0, 1, 0, 0))
    elif pivots == (3, 5, 6):
        b2, b3, b5 = params
        rows = ((0, b2, 0, b3, 0, 1), (n(b2), 0, 0, b5, 1, 0), (n(b3), n(b5), 1, 0, 0, 0))
    elif pivots == (2, 4, 6):
        c2, c3 = params
        rows = ((0, 0, c2, 0, c3, 1), (n(c2), 0, 0, 1, 0, 0), (n(c3), 1, 0, 0, 0, 0))
    elif pivots == (2, 3, 6):
        d2, d3 = params
        rows = ((0, 0, 0, d2, d3, 1), (n(d2), 0, 1, 0, 0, 0), (n(d3), 1, 0, 0, 0, 0))
    elif pivots == (1, 4, 5):
        (e2,) = params
        rows = ((0, 0, e2, 0, 1, 0), (0, n(e2), 0, 1, 0, 0), (1, 0, 0, 0, 0, 0))
    elif pivots == (1, 3, 5):
        (x2,) = params
        rows = ((0, 0, 0, x2, 1, 0), (0, n(x2), 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    elif pivots == (1, 2, 4):
        rows = ((0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    else:  # (1, 2, 3)
        rows = ((0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    return MatrixRep(f, rows)


@dataclass(frozen=True)
class Point:
    """One totally singular 3-space: cell id, parameter tuple, representative."""

    pivots: tuple[int, int, int]
    params: tuple[int, ...]
    matrix: MatrixRep


def point_count(q: int) -> int:
    return 2 * (q**3 + q**2 + q + 1)


@functools.lru_cache(maxsize=None)
def enumerate_points(f: GF) -> tuple[Point, ...]:
    """All points in the frozen order; length 2*(q^3 + q^2 + q + 1)."""
    return tuple(Point(pivots, params, build_cell(f, pivots, params))
                 for pivots in CELL_ORDER for params in product(range(f.q), repeat=CELL_ARITY[pivots]))


def cell_slices(q: int) -> tuple[tuple[tuple[int, int, int], int, int], ...]:
    """(pivots, start, stop) coordinate ranges of each cell segment."""
    out = []
    start = 0
    for pivots in CELL_ORDER:
        size = q ** CELL_ARITY[pivots]
        out.append((pivots, start, start + size))
        start += size
    return tuple(out)


def canonical_rref_forms(f: GF) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every rank-3 right-to-left reduced 3x6 matrix over GF(q), as row tuples.

    Row r holds the r-th largest pivot; free entries sit on non-pivot
    columns strictly left of the row's pivot.
    """
    for I in combinations(range(1, AMBIENT + 1), ELL):
        piv_desc = sorted(I, reverse=True)
        free: list[tuple[int, int]] = []
        for r, piv in enumerate(piv_desc):
            for c in range(1, AMBIENT + 1):
                if c not in I and c < piv:
                    free.append((r, c))
        base = [[0] * AMBIENT for _ in range(ELL)]
        for r, piv in enumerate(piv_desc):
            base[r][piv - 1] = 1
        for values in product(range(f.q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (r, c), v in zip(free, values):
                rows[r][c - 1] = v
            yield tuple(tuple(r) for r in rows)


@functools.lru_cache(maxsize=8)
def brute_force_points(f: GF, force: bool = False) -> frozenset[tuple[tuple[int, ...], ...]]:
    """Oracle enumeration: filter all canonical reduced forms by the form conditions.

    Cost grows like the Gaussian binomial [6 choose 3]_q, so q is guarded
    at 4 unless ``force`` is set.
    """
    if f.q > 4 and not force:
        raise CostGuardExceeded(f"brute-force scan at q={f.q} exceeds the cost guard; pass force=True")
    space = FormSpace(f, ELL)
    return frozenset(rows for rows in canonical_rref_forms(f) if space.is_totally_singular(rows))


def swap34_map(f: GF) -> dict[tuple[tuple[int, int, int], tuple[int, ...]], tuple[tuple[int, int, int], tuple[int, ...]]]:
    """Swap columns 3 and 4 of every point whose pivot set contains 4.

    Swapping columns 3 and 4 fixes both forms, so the image of a point is
    again a point; the map sends cell P_I to the cell on I with 4
    replaced by 3.  Keys and values are (pivots, params) labels.
    """
    index = {pt.matrix.rows: (pt.pivots, pt.params) for pt in enumerate_points(f)}
    out = {}
    for pt in enumerate_points(f):
        if 4 not in pt.pivots:
            continue
        swapped = tuple(r[:2] + (r[3], r[2]) + r[4:] for r in pt.matrix.rows)
        canonical, _ = rref_right_to_left(MatrixRep(f, swapped))
        target = index.get(canonical.rows)
        if target is None:
            raise RuntimeError("column swap left the point set; enumeration is inconsistent")
        out[(pt.pivots, pt.params)] = target
    return out
