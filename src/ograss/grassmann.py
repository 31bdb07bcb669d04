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
determinant signs.

Column substitutions act on coefficient vectors through the third
compound matrix (Cauchy-Binet): if g(M) = f(M*T) then the coefficients of
g are the compound of T applied to those of f.  Two families of
substitutions preserve total singularity and are provided here: paired
column operations (add a*C_j to C_i while subtracting a*C_{m+1-i} from
C_{m+1-j}) and permutations of the left half of the columns mirrored onto
the right half.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


def _same_field(a: GF, b: GF) -> None:
    if a != b:
        raise FieldMismatchError(f"mixed fields: {a!r} vs {b!r}")


def _colset(A: Sequence[int]) -> tuple[int, int, int]:
    A = tuple(A)
    if A not in COLSET_INDEX:
        raise ValueError(f"{A} is not a sorted 3-subset of 1..6")
    return A


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixRep:
    """An ell x m matrix over GF(q), rows spanning the represented subspace."""

    field: GF
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in r) for r in self.rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("rows must be non-empty and rectangular")
        q = self.field.q
        for r in rows:
            for v in r:
                if not 0 <= v < q:
                    raise ValueError(f"entry {v} out of range for GF({q})")
        object.__setattr__(self, "rows", rows)

    @property
    def ell(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])


def mat_mul(f: GF, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact matrix product over GF(q)."""
    if any(len(r) != len(b) for r in a):
        raise ValueError("inner dimensions do not match")
    return tuple(tuple(functools.reduce(f.add, map(f.mul, arow, col), 0) for col in zip(*b)) for arow in a)


def rank_of(f: GF, rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(q) by Gaussian elimination."""
    if len(rows) == 0:
        return 0
    return len(row_reduce(f, rows, range(len(rows[0])))[1])


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
    reduced, pivots = row_reduce(M.field, M.rows, range(M.m - 1, -1, -1))
    if len(pivots) < M.ell:
        raise RankDeficientError(f"rank {len(pivots)} < {M.ell}; no canonical representative")
    return MatrixRep(M.field, tuple(map(tuple, reduced.tolist()))), tuple(sorted(c + 1 for c in pivots))


def minor(M: MatrixRep, A: Sequence[int]) -> int:
    """Determinant of the 3x3 submatrix of M on columns A, computed exactly."""
    A = _colset(A)
    sub = [[row[a - 1] for a in A] for row in M.rows]
    return det(M.field, sub)


# ---------------------------------------------------------------------------
# coefficient vectors over the 20 minors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorFunction:
    """An F_q-linear combination of the 20 maximal minors.

    ``coeffs[i]`` multiplies the minor on ``COLUMN_SETS[i]``.
    """

    field: GF
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(coeffs) != len(COLUMN_SETS):
            raise ValueError(f"expected {len(COLUMN_SETS)} coefficients, got {len(coeffs)}")
        q = self.field.q
        for c in coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c} out of range for GF({q})")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, f: GF) -> "MinorFunction":
        return cls(f, (0,) * len(COLUMN_SETS))

    @classmethod
    def single(cls, f: GF, A: Sequence[int], coeff: int = 1) -> "MinorFunction":
        return cls.from_map(f, {tuple(A): coeff})

    @classmethod
    def from_map(cls, f: GF, coeff_map: Mapping[Sequence[int], int]) -> "MinorFunction":
        coeffs = [0] * len(COLUMN_SETS)
        for A, c in coeff_map.items():
            coeffs[COLSET_INDEX[_colset(A)]] = c
        return cls(f, tuple(coeffs))

    def __getitem__(self, A: Sequence[int]) -> int:
        return self.coeffs[COLSET_INDEX[_colset(A)]]

    def support(self) -> tuple[tuple[int, int, int], ...]:
        """Column sets whose coefficient is nonzero."""
        return tuple(A for A, c in zip(COLUMN_SETS, self.coeffs) if c)

    def evaluate(self, M: MatrixRep) -> int:
        _same_field(self.field, M.field)
        f = self.field
        acc = 0
        for c, A in zip(self.coeffs, COLUMN_SETS):
            if c:
                acc = f.add(acc, f.mul(c, minor(M, A)))
        return acc

    def plus(self, other: "MinorFunction") -> "MinorFunction":
        _same_field(self.field, other.field)
        f = self.field
        return MinorFunction(f, tuple(f.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c: int) -> "MinorFunction":
        f = self.field
        return MinorFunction(f, tuple(f.mul(c, v) for v in self.coeffs))

    # serialization: 20 encodings in lexicographic column-set order
    def to_csv(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def to_json(self) -> str:
        import json  # only the two JSON forms use it

        return json.dumps(list(self.coeffs))

    @classmethod
    def parse(cls, f: GF, text: str) -> "MinorFunction":
        """Read either the JSON-array or the comma-separated form."""
        text = text.strip()
        if text.startswith("["):
            import json

            values = json.loads(text)
            for v in values:
                if type(v) is not int:  # int() would truncate 1.5 and read true and "2"
                    raise ValueError(f"coefficient {v!r} is not an integer")
        else:
            values = [t.strip() for t in text.split(",")]
            for t in values:
                if not (t.isascii() and t.isdigit()):  # int() would read 1_0, +1 and Arabic-Indic digits
                    raise ValueError(f"coefficient {t!r} is not a decimal integer")
            values = [int(t) for t in values]
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


def is_principal(A: Sequence[int], I: Sequence[int]) -> bool:
    """True when the reduced minor of det_A on P_I is on equal row and column sets."""
    rows, cols = reduced_minor_indices(A, I)
    return rows == cols


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
    rows, cols = reduced_minor_indices(A, pivots)
    N = sorted(set(range(1, M.m + 1)) - set(pivots))
    block = [[M.rows[r - 1][N[c - 1] - 1] for c in cols] for r in rows]
    value = det(M.field, block)
    if expansion_sign(A, pivots) < 0:
        value = M.field.neg(value)
    return value


# ---------------------------------------------------------------------------
# column transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnTransform:
    """An invertible m x m matrix acting on points by M -> M*T."""

    field: GF
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        mat = tuple(tuple(int(v) for v in r) for r in self.matrix)
        m = len(mat)
        if any(len(r) != m for r in mat):
            raise ValueError("transform matrix must be square")
        object.__setattr__(self, "matrix", mat)
        if rank_of(self.field, mat) != m:
            raise ValueError("singular column transform")

    @property
    def m(self) -> int:
        return len(self.matrix)

    def apply_to(self, M: MatrixRep) -> MatrixRep:
        _same_field(self.field, M.field)
        return MatrixRep(M.field, mat_mul(M.field, M.rows, self.matrix))

    def matmul(self, other: "ColumnTransform") -> "ColumnTransform":
        _same_field(self.field, other.field)
        return ColumnTransform(self.field, mat_mul(self.field, self.matrix, other.matrix))


def identity_transform(f: GF, m: int = AMBIENT) -> ColumnTransform:
    return ColumnTransform(f, tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))


def paired_column_operation(f: GF, i: int, j: int, a: int) -> ColumnTransform:
    """The transform doing C_i += a*C_j together with C_{m+1-j} -= a*C_{m+1-i}.

    Requires i != j and i != m+1-j; the pairing keeps both B and Q zero on
    every totally singular space.  a = 0 gives the identity, and
    composing with the same operation at -a gives the identity back.
    """
    m = AMBIENT
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError(f"column indices must lie in 1..{m}")
    if i == j or i == m + 1 - j:
        raise ValueError(f"invalid column pair (i={i}, j={j})")
    f._chk(a)
    mat = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
    mat[j - 1][i - 1] = a
    mat[m - i][m - j] = f.neg(a)
    return ColumnTransform(f, tuple(tuple(r) for r in mat))


def mirrored_permutation(f: GF, eta: Sequence[int]) -> ColumnTransform:
    """Permute columns 1..ell by eta and columns ell+1..2*ell by the mirror rule.

    The full permutation is sigma(i) = eta(i) for i <= ell and
    sigma(i) = m+1 - eta(m+1-i) above, so sigma(m+1-i) = m+1 - sigma(i)
    and both forms are preserved.  Column c of M*T is column sigma(c) of M.
    """
    m = AMBIENT
    if sorted(eta) != list(range(1, ELL + 1)):
        raise ValueError(f"eta must be a permutation of 1..{ELL}")
    sigma = {i: eta[i - 1] if i <= ELL else m + 1 - eta[m - i] for i in range(1, m + 1)}
    mat = [[0] * m for _ in range(m)]
    for c in range(1, m + 1):
        mat[sigma[c] - 1][c - 1] = 1
    return ColumnTransform(f, tuple(tuple(r) for r in mat))


@functools.lru_cache(maxsize=512)
def third_compound(f: GF, matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """20x20 matrix of all 3x3 minors: entry [B][A] = det of matrix[rows B, cols A]."""
    comp = []
    for B in COLUMN_SETS:
        row = []
        for A in COLUMN_SETS:
            sub = [[matrix[b - 1][a - 1] for a in A] for b in B]
            row.append(det(f, sub))
        comp.append(tuple(row))
    return tuple(comp)


def apply_transform(fn: MinorFunction, T: ColumnTransform) -> MinorFunction:
    """The coefficient vector of g with g(M) = fn(M*T), via Cauchy-Binet."""
    _same_field(fn.field, T.field)
    f = fn.field
    return MinorFunction(f, tuple(functools.reduce(f.add, map(f.mul, brow, fn.coeffs), 0)
                                  for brow in third_compound(f, T.matrix)))
