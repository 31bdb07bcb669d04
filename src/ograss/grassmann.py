"""Matrix representatives of 3-spaces in F_q^6 and the calculus of their minors.

A point of the Grassmannian is stored as a 3x6 matrix whose rowspace is
the subspace; its 20 maximal minors (indexed by the 3-subsets of {1..6}
in lexicographic order) are the Pluecker coordinates.  Linear
combinations of those minors form the function space whose evaluations
are the codewords downstream.

Canonical representatives come from row reduction scanning columns right
to left: the first row carries the rightmost pivot, so the pivot block is
anti-diagonal and the non-pivot block of a totally singular space is
skew-symmetric with zero diagonal.  With that convention the minor on the
pivot columns themselves evaluates to -1 (determinant of the 3x3
anti-diagonal identity), and all signs in this module are exact
determinant signs.  ``expansion_plan`` states the pivot expansion once:
the non-pivot block and the sign of each minor on each pivot cell, which
the generator build and ``expand_minor`` both read.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Mapping, Sequence

from .gf import GF, FieldMismatchError, row_reduce

ELL = 3
AMBIENT = 6

#: The 20 column triples of {1..6} in lexicographic order; this fixes the
#: coordinate order of every coefficient vector and serialized file.
COLUMN_SETS: tuple[tuple[int, int, int], ...] = tuple(combinations(range(1, AMBIENT + 1), ELL))
COLSET_INDEX: dict[tuple[int, int, int], int] = {A: i for i, A in enumerate(COLUMN_SETS)}


class RankDeficientError(ValueError):
    """A full-rank representative was required but not supplied."""


def _colset(A: Sequence[int]) -> tuple[int, int, int]:
    A = tuple(A)
    if A not in COLSET_INDEX:
        raise ValueError(f"{A} is not a sorted 3-subset of 1..6")
    return A


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class MatrixRep:
    """An ell x m matrix over GF(q), rows spanning the represented subspace.

    ``rows`` is read into a tuple of int tuples; two are equal when their fields and rows are.
    Not hashable."""

    __slots__ = ("field", "rows")

    def __init__(self, field: GF, rows: Sequence[Sequence[int]]) -> None:
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be non-empty and rectangular")
        q = field.q
        for r in rows:
            for v in r:
                if not 0 <= v < q:
                    raise ValueError(f"entry {v} out of range for GF({q})")
        self.field, self.rows = field, rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.rows) == (other.field, other.rows)



def det(f: GF, rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant for square matrices of size at most 3.

    Closed Laplace formulas: branch-free, no division.  det([]) = 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return f.sub(f.mul(a, d), f.mul(b, c))
    if n == 3:
        (a, b, c), (d, e, g), (h, i, j) = rows
        t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
        t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
        t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
        return f.add(f.sub(t1, t2), t3)
    raise ValueError("closed determinant is only implemented for size <= 3")


def rref_right_to_left(M: MatrixRep) -> tuple[MatrixRep, tuple[int, ...]]:
    """Canonical form with pivots located scanning columns m down to 1.

    The first row receives the rightmost pivot, so canonical forms of
    totally singular spaces display an anti-diagonal pivot block with the
    skew-symmetric parameter block on the non-pivot columns.  Returns the
    reduced matrix and the ascending pivot column set; raises
    RankDeficientError when the rank is below the row count.
    """
    reduced, pivots = row_reduce(M.field, M.rows, range(len(M.rows[0]) - 1, -1, -1))
    if len(pivots) < len(M.rows):
        raise RankDeficientError(f"rank {len(pivots)} < {len(M.rows)}; no canonical representative")
    return MatrixRep(M.field, tuple(map(tuple, reduced.tolist()))), tuple(sorted(c + 1 for c in pivots))


def minor(M: MatrixRep, A: Sequence[int]) -> int:
    """Determinant of the 3x3 submatrix of M on columns A, computed exactly."""
    A = _colset(A)
    sub = [[row[a - 1] for a in A] for row in M.rows]
    return det(M.field, sub)


# ---------------------------------------------------------------------------
# coefficient vectors over the 20 minors
# ---------------------------------------------------------------------------

def parse_decimal(text: str) -> int:
    """The integer that text writes in ASCII decimal digits, whitespace around it allowed.

    The one rule for integers read from outside: coefficients here, and the
    numeric arguments of the CLI and the scripts.  int() would also read
    1_0 as 10, +1 and -1, and non-ASCII digits such as U+0663 as 3.
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{digits!r} is not a decimal integer")
    return int(digits)


class MinorFunction:
    """An F_q-linear combination of the 20 maximal minors.

    ``coeffs[i]`` multiplies the minor on ``COLUMN_SETS[i]``; it is read into a tuple
    of ints.  Two are equal when their fields and coefficients are.
    Not hashable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: Sequence[int]) -> None:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != len(COLUMN_SETS):
            raise ValueError(f"expected {len(COLUMN_SETS)} coefficients, got {len(coeffs)}")
        q = field.q
        for c in coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c} out of range for GF({q})")
        self.field, self.coeffs = field, coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.coeffs) == (other.field, other.coeffs)


    @classmethod
    def single(cls, f: GF, A: Sequence[int]) -> "MinorFunction":
        return cls.from_map(f, {tuple(A): 1})

    @classmethod
    def from_map(cls, f: GF, coeff_map: Mapping[Sequence[int], int]) -> "MinorFunction":
        coeffs = [0] * len(COLUMN_SETS)
        for A, c in coeff_map.items():
            coeffs[COLSET_INDEX[_colset(A)]] = c
        return cls(f, tuple(coeffs))

    def evaluate(self, M: MatrixRep) -> int:
        f = self.field
        if f != M.field:
            raise FieldMismatchError(f"mixed fields: {f!r} vs {M.field!r}")
        acc = 0
        for c, A in zip(self.coeffs, COLUMN_SETS):
            if c:
                acc = f.add(acc, f.mul(c, minor(M, A)))
        return acc

    @classmethod
    def parse(cls, f: GF, text: str) -> "MinorFunction":
        """Read either the JSON-array or the comma-separated form of the 20 encodings,
        in lexicographic column-set order."""
        text = text.strip()
        if text.startswith("["):
            import json

            values = json.loads(text)
            for v in values:
                if type(v) is not int:  # int() would truncate 1.5 and read true and "2"
                    raise ValueError(f"coefficient {v!r} is not an integer")
        else:
            values = [parse_decimal(t) for t in text.split(",")]
        return cls(f, tuple(values))


# ---------------------------------------------------------------------------
# reflected complements and pivot expansion
# ---------------------------------------------------------------------------

def reflected_complement(A: Sequence[int]) -> tuple[int, ...]:
    """{m+1-i : i not in A} for m = AMBIENT, sorted ascending.

    An involution on ell-subsets; its fixed points are exactly the sets
    containing one column from each mirror pair {i, m+1-i}.
    """
    m = AMBIENT
    s = set(A)
    if not s <= set(range(1, m + 1)):
        raise ValueError(f"{A} is not a subset of 1..{m}")
    return tuple(sorted(m + 1 - i for i in range(1, m + 1) if i not in s))


def reduced_minor_indices(A: Sequence[int], I: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row and column index sets of the reduced minor of det_A on the cell P_I.

    With I = {i_1 < ... < i_ell} self-paired (I equal to its reflected
    complement) and N the sorted complement, returns

        rows = { r : i_{ell+1-r} in I \\ A }
        cols = { s : n_s in N intersect A }

    as indices into the ell x ell non-pivot block.
    """
    I = tuple(sorted(I))
    if I != reflected_complement(I):
        raise ValueError(f"pivot set {I} is not self-paired")
    A = tuple(sorted(A))
    N = sorted(set(range(1, AMBIENT + 1)) - set(I))
    i_minus_a = set(I) - set(A)
    rows = tuple(r for r in range(1, ELL + 1) if I[ELL - r] in i_minus_a)
    cols = tuple(s for s in range(1, ELL + 1) if N[s - 1] in set(A))
    return rows, cols


def expansion_sign(A: Sequence[int], I: Sequence[int]) -> int:
    """Sign (+1/-1) of the Laplace expansion of det_A along the pivot columns in A.

    Each pivot column i_r of a canonical representative is the unit vector
    e_{ell+1-r}.  Expanding those columns one at a time accumulates
    (-1)^(row+col) with positions recomputed in the shrinking submatrix;
    the result is order-independent.
    """
    A = tuple(sorted(A))
    I = tuple(sorted(I))
    rows_left = list(range(1, ELL + 1))
    cols_left = list(A)
    s = 0
    for a in sorted(set(A) & set(I)):
        r = I.index(a) + 1
        unit_row = ELL + 1 - r
        s += rows_left.index(unit_row) + 1 + cols_left.index(a) + 1
        rows_left.remove(unit_row)
        cols_left.remove(a)
    return -1 if s % 2 else 1


@functools.lru_cache(maxsize=None)
def reduced_index_table() -> dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]]:
    """``reduced_minor_indices(A, I)`` keyed (A, I), for every column set A on every
    self-paired pivot set I (the eight cells): 160 pairs, computed once per process
    and read by ``expansion_plan`` and by verify's transpose duality check.  Shared:
    callers must not change it."""
    cells = [I for I in COLUMN_SETS if I == reflected_complement(I)]
    return {(A, I): reduced_minor_indices(A, I) for I in cells for A in COLUMN_SETS}


@functools.lru_cache(maxsize=None)
def expansion_plan(pivots: tuple[int, ...]) -> tuple[tuple[tuple, bool], ...]:
    """(block, negate) for each column set A on the cell P_I, in COLUMN_SETS order.

    ``block`` lists, row by row, the 0-based (row, column) positions in a
    canonical representative of the reduced block of
    ``reduced_minor_indices(A, I)`` (read from ``reduced_index_table``), and
    ``negate`` is ``expansion_sign(A, I) < 0``: det_A is det(block), negated
    if ``negate``.
    """
    table = reduced_index_table()
    if (COLUMN_SETS[0], pivots) not in table:
        raise ValueError(f"pivot set {pivots} is not self-paired")
    free = [c for c in range(AMBIENT) if c + 1 not in pivots]
    plan = []
    for A in COLUMN_SETS:
        block_rows, block_cols = table[A, pivots]
        block = tuple(tuple((r - 1, free[c - 1]) for c in block_cols) for r in block_rows)
        plan.append((block, expansion_sign(A, pivots) < 0))
    return tuple(plan)


def expand_minor(M: MatrixRep, A: Sequence[int]) -> int:
    """det_A(M) computed through the reduced minor of the non-pivot block.

    M must be a canonical (right-to-left reduced) representative whose
    pivot set is self-paired.  Agrees with ``minor(M, A)`` on every such
    input; the direct determinant is the ground truth the sign rule is
    validated against.
    """
    A = _colset(A)
    canonical, pivots = rref_right_to_left(M)
    if canonical.rows != M.rows:
        raise ValueError("matrix is not in right-to-left reduced form")
    block, negate = expansion_plan(pivots)[COLSET_INDEX[A]]
    value = det(M.field, [[M.rows[r][c] for r, c in row] for row in block])
    return M.field.neg(value) if negate else value
