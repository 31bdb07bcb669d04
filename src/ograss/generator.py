"""The generator matrix of the code: one row per minor, one column per point.

The generator matrix has one row per column triple (lexicographic order)
and one column per point (frozen cell order), entry = that minor on that
point's representative.

The minors are evaluated one pivot cell at a time, never from per-point
objects, in one place: ``cell_minors``.  On the cell P_I every minor is a
signed minor of the skew-symmetric non-pivot block: det_A is det(block),
negated or not, the block's positions and the sign read from
``grassmann.expansion_plan(I)``, as ``expand_minor`` reads them.  That
determinant (size 0 to 3, size 0 giving 1) is evaluated in
closed form over the field's lookup tables, each product and difference
one ``gf.gather`` from a flattened (q, q) table.  The block is read off the
cell's open parameter grid (``cell_grid``), where each parameter is its
own broadcast axis and each constant a scalar: a product of two
parameters is a (q, q) lookup and a product with the constant 0 stays the
scalar 0, so each minor comes out as an array that varies along at most
two of the cell's axes.  The whole 3x3 non-pivot block is skew-symmetric
of odd order with zero diagonal, hence singular in every characteristic,
so the minor on the non-pivot columns is written as 0 unevaluated.
``build_generator`` broadcasts each minor to the cell's q^arity points,
straight into its span of the dense matrix; ``genmat`` formats the
minors as they are (``cli._cell_text``) and builds no matrix.  The direct
3x3 determinant of each column triple stays as the oracle:
``codes.verify`` evaluates it with ``_np_det`` on the cell arrays
(``cell_matrices``) and compares the two on every point and every column
set.

This module needs no elimination, search or form check, so ``genmat``
reads its minors without loading ``codes`` or ``forms``.
"""

from __future__ import annotations

import functools

import numpy as np

from .gf import GF, gather
from .grassmann import COLSET_INDEX, COLUMN_SETS, expansion_plan
from .polar import CELL_ARITY, cell_grid, cell_slices, point_count


class GeneratorMatrix:
    """20 x n generator matrix; row i lists minor COLUMN_SETS[i] over all points.

    Compared and hashed by identity (``codes._reduced_basis`` caches per generator)."""

    __slots__ = ("field", "matrix")

    def __init__(self, field: GF, matrix: np.ndarray) -> None:
        self.field, self.matrix = field, matrix

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def row(self, A) -> np.ndarray:
        return self.matrix[COLSET_INDEX[tuple(A)]]


def _det_tables(f: GF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(add, mul, minus) for ``_np_det``, with minus[x, y] = x - y."""
    add, mul, neg, _ = f.np_tables()
    return add, mul, add[:, neg]


def _np_det(tables, block):
    """Closed-form determinant of a square block (size 0 to 3) of arrays that broadcast.

    ``tables`` is ``_det_tables(f)``; each product and difference is one
    ``gather``, shaped like the broadcast of its operands.
    """
    add, mul, minus = tables

    def sub(x, y):
        return gather(minus, x, y)

    def times(x, y):
        # a constant 0 factor gives the constant 0, which broadcasts to nothing
        if np.ndim(x) == 0 and not x:
            return x
        if np.ndim(y) == 0 and not y:
            return y
        return gather(mul, x, y)

    n = len(block)
    if n == 0:
        return mul.dtype.type(1)
    if n == 1:
        return block[0][0]
    if n == 2:
        (a, b), (c, d) = block
        return sub(times(a, d), times(b, c))
    (a, b, c), (d, e, g), (h, i, j) = block
    t1 = times(a, sub(times(e, j), times(g, i)))
    t2 = times(b, sub(times(d, j), times(g, h)))
    t3 = times(c, sub(times(d, i), times(e, h)))
    return gather(add, sub(t1, t2), t3)


def cell_minors(f: GF, pivots: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """The 20 minors on the cell P_I in COLUMN_SETS order, each evaluated on its open parameter grid.

    Each is det_A = det(block), negated as ``expansion_plan(I)`` says, the block
    read off ``cell_grid``, whose parameters are separate broadcast axes, as
    an array of ndim arity whose axes have length q where the minor varies
    and 1 where it does not: a product of two parameters is a (q, q) lookup.
    A 2 x 2 sub-block of the zero-diagonal block holds a diagonal zero, so a
    minor varies along at most two axes (q^2 distinct entries).
    """
    tables = _det_tables(f)
    neg = f.np_tables()[2]
    grid = cell_grid(f, pivots)
    ones = (1,) * CELL_ARITY[pivots]
    values = []
    for block, negate in expansion_plan(pivots):
        if len(block) == 3:
            # the whole non-pivot block: skew-symmetric of odd order with zero diagonal, so singular
            value = neg.dtype.type(0)
        else:
            value = _np_det(tables, [[grid[r][c] for r, c in row] for row in block])
        value = neg[value] if negate else value
        values.append(np.reshape(value, np.shape(value) or ones))
    return tuple(values)


@functools.lru_cache(maxsize=None)
def build_generator(f: GF) -> GeneratorMatrix:
    """The 20 x n generator: each cell's minors (``cell_minors``) broadcast to the cell's
    q^arity points, straight into its span of the matrix (a contiguous slice, so the
    reshape is a view)."""
    q = f.q
    mat = np.empty((len(COLUMN_SETS), point_count(q)), dtype=f.np_tables()[2].dtype)
    for pivots, start, stop in cell_slices(q):
        shape = (q,) * CELL_ARITY[pivots]
        for idx, value in enumerate(cell_minors(f, pivots)):
            mat[idx, start:stop].reshape(shape)[...] = value
    mat.setflags(write=False)
    return GeneratorMatrix(field=f, matrix=mat)
