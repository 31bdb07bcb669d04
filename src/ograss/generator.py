"""The generator matrix of the code: one row per minor, one column per point.

The generator matrix has one row per column triple (lexicographic order)
and one column per point (frozen cell order), entry = that minor on that
point's representative.

The matrix is built one pivot cell at a time, never from per-point
objects.  On the cell P_I every minor is a signed minor of the
skew-symmetric non-pivot block, det_A = expansion_sign(A, I) *
det(reduced block), the block's positions and the sign read from
``grassmann.expansion_plan(I)``, as ``expand_minor`` reads them.  That
determinant (size 0 to 3, size 0 giving 1) is evaluated in closed form
over the field's lookup tables, each product and difference one
``gf.gather`` from a flattened (q, q) table.  The block is read off the
cell's open parameter grid (``cell_grid``), where each parameter is its
own broadcast axis and each constant a scalar: a product of two
parameters is a (q, q) lookup, a product with the constant 0 stays the
scalar 0, and only the finished row is broadcast to the cell's q^arity
points, straight into its span of the matrix.  The whole 3x3 non-pivot
block is skew-symmetric of odd order with zero diagonal, hence singular
in every characteristic, so the minor on the non-pivot columns is
written as 0 unevaluated.  The direct 3x3 determinant of each column
triple stays as the oracle: ``codes.verify`` evaluates it with
``_np_det`` on the cell arrays (``cell_matrices``) and compares the two
on every point and every column set.

This module needs no elimination, search or form check, so ``genmat``
builds its matrix without loading ``codes`` or ``forms``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf import GF, gather
from .grassmann import COLSET_INDEX, COLUMN_SETS, expansion_plan
from .polar import CELL_ARITY, cell_grid, cell_slices, point_count


@dataclass(eq=False)
class GeneratorMatrix:
    """20 x n generator matrix; row i lists minor COLUMN_SETS[i] over all points."""

    field: GF
    matrix: np.ndarray

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


@functools.lru_cache(maxsize=None)
def build_generator(f: GF) -> GeneratorMatrix:
    """The 20 x n generator, each cell's minors evaluated on its open parameter grid.

    Each entry is det_A = expansion_sign(A, I) * det(reduced block), the
    block read off ``cell_grid``, whose parameters are separate broadcast
    axes: a product of two parameters is a (q, q) lookup, and only the
    finished row is broadcast to the cell's q^arity points, straight into
    its span of the matrix (a contiguous slice, so the reshape is a view).
    """
    tables = _det_tables(f)
    neg = f.np_tables()[2]
    q = f.q
    mat = np.empty((len(COLUMN_SETS), point_count(q)), dtype=neg.dtype)
    for pivots, start, stop in cell_slices(q):
        grid = cell_grid(f, pivots)
        shape = (q,) * CELL_ARITY[pivots]
        for idx, (block, negate) in enumerate(expansion_plan(pivots)):
            if len(block) == 3:
                # the whole non-pivot block: skew-symmetric of odd order with zero diagonal, so singular
                value = 0
            else:
                value = _np_det(tables, [[grid[r][c] for r, c in row] for row in block])
            mat[idx, start:stop].reshape(shape)[...] = neg[value] if negate else value
    mat.setflags(write=False)
    return GeneratorMatrix(field=f, matrix=mat)
