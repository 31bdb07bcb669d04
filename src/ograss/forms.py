"""Anti-diagonal symmetric bilinear form and its hyperbolic quadric.

On F_q^m with m = 2*ell the form pair is

    B(x, y) = sum_{i=1}^{m} x_i * y_{m+1-i}
    Q(x)    = sum_{i=1}^{ell} x_i * x_{m+1-i}

so for ell = 3 the quadric is x1*x6 + x2*x5 + x3*x4.  B is computed
index-reversed directly; the Gram matrix is never materialized.  In even
characteristic Q is not recoverable from B and is always evaluated on its
own.

A subspace is totally singular when Q vanishes on all of it and B on all
pairs.  Checking the rows of a spanning matrix suffices in every
characteristic because Q(v + w) = Q(v) + Q(w) + B(v, w) holds identically
for this pair.  ``totally_singular_mask`` runs the test on a whole array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .gf import GF, gather


class FormSpace:
    """The form pair (B, Q) on F_q^(2*ell)."""

    __slots__ = ("field", "ell")

    def __init__(self, field: GF, ell: int) -> None:
        if ell < 1:
            raise ValueError("ell must be at least 1")
        self.field, self.ell = field, ell

    @property
    def m(self) -> int:
        return 2 * self.ell

    def _checked(self, x: Sequence[int]) -> Sequence[int]:
        if len(x) != self.m:
            raise ValueError(f"vector has length {len(x)}, expected {self.m}")
        return x

    def bilinear(self, x: Sequence[int], y: Sequence[int]) -> int:
        """B(x, y); symmetric in its arguments."""
        self._checked(x)
        self._checked(y)
        f = self.field
        acc = 0
        m = self.m
        for i in range(m):
            acc = f.add(acc, f.mul(x[i], y[m - 1 - i]))
        return acc

    def quadratic(self, x: Sequence[int]) -> int:
        """Q(x), the hyperbolic quadric value."""
        self._checked(x)
        f = self.field
        acc = 0
        m = self.m
        for i in range(self.ell):
            acc = f.add(acc, f.mul(x[i], x[m - 1 - i]))
        return acc

    def is_totally_singular(self, rows: Iterable[Sequence[int]]) -> bool:
        """True iff Q kills every row and B kills every row pair.

        Accepts any iterable of vectors, including a matrix representative
        object exposing ``.rows``.  Rank deficiency is allowed; only the
        form conditions are tested.
        """
        rows = [tuple(r) for r in getattr(rows, "rows", rows)]
        for r in rows:
            if self.quadratic(r) != 0:
                return False
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if self.bilinear(rows[i], rows[j]) != 0:
                    return False
        return True


def totally_singular_mask(f: GF, mats: np.ndarray) -> np.ndarray:
    """``FormSpace.is_totally_singular`` of each matrix in a (rows, 2*ell, count) array of table encodings.

    Entry i is True iff Q(r) = 0 for every row r of mats[:, :, i] and
    B(r, s) = 0 for every pair of its rows.
    """
    add, mul, _, _ = f.np_tables()
    rows, m, _ = mats.shape
    ok = True
    for i in range(rows):
        for j in range(i, rows):
            acc = 0
            for t in range(m // 2 if i == j else m):  # Q(r_i) when j == i, else B(r_i, r_j)
                acc = gather(add, acc, gather(mul, mats[i, t], mats[j, m - 1 - t]))
            ok = ok & (acc == 0)
    return ok
