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
``cell_rows`` derives these templates from one rule for any pivot set
(``_parameter_entries``), which also gives ``CELL_ARITY``; the diagram only
documents them.  ``build_cell`` fills them with
scalars for one representative, and ``cell_grid`` with the cell's
parameters as open-grid axes (parameter j varies along axis j of a
(q,)*arity grid, so an entry holding one parameter is a q-vector and a
constant is a scalar), the form the generator build reads.  The C-order
ravel of that grid is the order of the points within a cell, so that
parameter tuples ascend in lexicographic order of their integer
encodings.  ``cell_matrices`` broadcasts every grid entry to the whole
grid and ravels it, the dense form ``points`` and ``verify`` read; a
point's parameters are the entries of its representative at the
positions ``_parameter_entries`` names first.

The frozen point order -- cells as listed above, each in its grid's
C order -- fixes the coordinate order of every codeword and is part of
the file-format contract.  Total count: 2*(q^3 + q^2 + q + 1).

``brute_force_points`` is an independent oracle: it scans every rank-3
right-to-left reduced 3x6 matrix and filters by the form conditions.
``verify`` compares the cell enumeration with it at q <= 3; a cost guard
refuses it above q = 4.
"""

from __future__ import annotations

import functools
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .gf import GF
from .grassmann import AMBIENT, ELL, MatrixRep

#: Cell enumeration order (also the per-cell segment order of codewords).
CELL_ORDER: tuple[tuple[int, int, int], ...] = (
    (4, 5, 6), (3, 5, 6), (2, 4, 6), (2, 3, 6),
    (1, 4, 5), (1, 3, 5), (1, 2, 4), (1, 2, 3),
)


@functools.lru_cache(maxsize=None)
def _parameter_entries(pivots: tuple[int, int, int]) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """(row, column) of each parameter of the cell on ``pivots`` and of its negated mirror, in parameter order.

    Row r has its 1 on column pivots[2 - r]; S[r][s] of the skew block sits
    in row r on the s-th non-pivot column.  An upper entry S[r][s] (r < s)
    is a parameter when it and its mirror S[s][r] both lie left of their
    row's pivot, and 0 otherwise.
    """
    other = [c for c in range(1, AMBIENT + 1) if c not in pivots]
    return tuple(((r, other[s] - 1), (s, other[r] - 1)) for r, s in combinations(range(ELL), 2)
                 if other[s] < pivots[ELL - 1 - r] and other[r] < pivots[ELL - 1 - s])


CELL_ARITY: dict[tuple[int, int, int], int] = {I: len(_parameter_entries(I)) for I in CELL_ORDER}


class CostGuardExceeded(RuntimeError):
    """Brute-force enumeration was requested beyond its cost guard."""


def cell_rows(pivots: tuple[int, int, int], params, neg, zero, one) -> tuple[tuple, tuple, tuple]:
    """The three rows of the cell on ``pivots``, one entry per column.

    The single statement of the cell layout (``_parameter_entries``).
    ``params`` iterates over the cell's parameters and ``neg``, ``zero``
    and ``one`` give field negation and the two constants, so the same rule
    serves two forms: scalars (``build_cell``, one representative) and the
    open grid (``cell_grid``, a whole cell at once).
    """
    rows = [[zero] * AMBIENT for _ in range(ELL)]
    for r in range(ELL):
        rows[r][pivots[ELL - 1 - r] - 1] = one
    for ((r, c), (s, d)), p in zip(_parameter_entries(pivots), params, strict=True):
        rows[r][c], rows[s][d] = p, neg(p)
    return tuple(map(tuple, rows))


def build_cell(f: GF, pivots: tuple[int, int, int], params: tuple[int, ...]) -> MatrixRep:
    """The canonical representative of the given cell at the given parameters."""
    pivots = tuple(pivots)
    if pivots not in CELL_ARITY:
        raise ValueError(f"{pivots} is not one of the eight pivot sets")
    if len(params) != CELL_ARITY[pivots]:
        raise ValueError(f"cell {pivots} takes {CELL_ARITY[pivots]} parameters, got {len(params)}")
    return MatrixRep(f, cell_rows(pivots, params, f.neg, 0, 1))


def cell_grid(f: GF, pivots: tuple[int, int, int]) -> tuple[tuple, tuple, tuple]:
    """The cell template with each parameter on its own broadcast axis.

    Parameter j is ``np.arange(q)`` shaped to vary along axis j of (q,)*arity,
    constants are numpy scalars, so every entry broadcasts to the cell's
    (q,)*arity grid, whose C-order ravel is the frozen order of the cell's
    points.
    """
    neg = f.np_tables()[2]
    axes = np.ix_(*[np.arange(f.q, dtype=neg.dtype)] * CELL_ARITY[pivots])
    return cell_rows(pivots, axes, neg.__getitem__, neg.dtype.type(0), neg.dtype.type(1))


def cell_matrices(f: GF, pivots: tuple[int, int, int]) -> np.ndarray:
    """The cell's representatives as a (3, 6, q^arity) array: [r, c] is entry (r, c) of
    ``cell_grid`` broadcast to the whole grid and raveled, so point j is column j."""
    grid = np.broadcast_arrays(*(entry for row in cell_grid(f, pivots) for entry in row))
    return np.reshape(grid, (ELL, AMBIENT, -1))


class Point:
    """One totally singular 3-space: cell id, parameter tuple, representative."""

    __slots__ = ("pivots", "params", "matrix")

    def __init__(self, pivots: tuple[int, int, int], params: tuple[int, ...], matrix: MatrixRep) -> None:
        self.pivots, self.params, self.matrix = pivots, params, matrix


def point_count(q: int) -> int:
    return 2 * (q**3 + q**2 + q + 1)


@functools.lru_cache(maxsize=None)
def enumerate_points(f: GF) -> tuple[Point, ...]:
    """All points in the frozen order as ``Point`` objects read off the cell
    arrays, each point's parameters off its representative; length
    2*(q^3 + q^2 + q + 1).  The scalar oracles of the tests and the
    benchmark's traced run read it; no command does."""
    return tuple(Point(pivots, tuple(rows[r][c] for (r, c), _ in _parameter_entries(pivots)), MatrixRep(f, rows))
                 for pivots in CELL_ORDER for rows in cell_matrices(f, pivots).transpose(2, 0, 1).tolist())


def cell_slices(q: int) -> tuple[tuple[tuple[int, int, int], int, int], ...]:
    """(pivots, start, stop) coordinate ranges of each cell segment."""
    out = []
    start = 0
    for pivots in CELL_ORDER:
        size = q ** CELL_ARITY[pivots]
        out.append((pivots, start, start + size))
        start += size
    return tuple(out)


def family_mask(q: int) -> np.ndarray:
    """The coordinates of generator family A as a boolean mask, False on family B.

    Two generators of Q+(5,q) lie in one family iff they meet in odd
    dimension, and the base point of cell P_I is span{e_i : i in I}, so
    P_I is in family A iff |I & {4, 5, 6}| is odd: A = {456, 236, 135, 124}.
    """
    mask = np.zeros(point_count(q), dtype=bool)
    for pivots, start, stop in cell_slices(q):
        mask[start:stop] = len({4, 5, 6}.intersection(pivots)) % 2
    return mask


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
def brute_force_points(f: GF) -> frozenset[tuple[tuple[int, ...], ...]]:
    """Oracle enumeration: filter all canonical reduced forms by the form conditions.

    Cost grows like the Gaussian binomial [6 choose 3]_q, so q is guarded at 4.
    """
    if f.q > 4:
        raise CostGuardExceeded(f"brute-force scan at q={f.q} exceeds the cost guard")
    from .forms import FormSpace  # only this oracle reads the forms

    space = FormSpace(f, ELL)
    return frozenset(rows for rows in canonical_rref_forms(f) if space.is_totally_singular(rows))


def swap34_map(f: GF) -> np.ndarray:
    """The column 3/4 swap as an ``intp`` permutation ``perm`` of the point coordinates.

    Swapping columns 3 and 4 fixes both forms, and it turns the template of
    cell P_I into the template of the cell on I with 4 replaced by 3 (and
    back) at the same parameters, which is already canonical.  So entry j
    is the coordinate of the image of point j, the map is an involution,
    and ``G[:, perm]`` is the swapped code.
    """
    slices = cell_slices(f.q)
    # CELL_ORDER lists each cell whose pivot set holds 4 just before its image: cell i maps to cell i ^ 1
    return np.concatenate([np.arange(*slices[i ^ 1][1:], dtype=np.intp) for i in range(len(slices))])
