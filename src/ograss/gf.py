"""Exact arithmetic in small finite fields GF(q), q = p^e.

Field elements are canonical integers in [0, q).  The base-p digits of an
element are the coefficients of its residue polynomial, constant term
first: in GF(9) built on x^2 + 2x + 2 the integer 5 = 2 + 1*3 stands for
2 + x.  This encoding is stable, hashable, and is the on-disk format used
by every serializer in the package.

One construction, ``_tables``, gives addition, negation, multiplication
and inversion as tables built once from the digit representation:
addition is digitwise mod p, and a * b is the sum over j of b_j * (x^j * a),
each term one gather from the table of base-field multiples and the map
a -> x * a, which folds x^e back in through the defining polynomial.
Inverses are read off the multiplication table.  The same tables decide
which polynomials define a field: F_p[x]/(f) is one exactly when its
multiplication table has no zero divisors, since a finite integral domain
is a field, so ``GF`` refuses a reducible f by that test and
``is_irreducible`` reads it too.  The tables are kept both as uint8
arrays and as nested lists for the scalar operations.  A GF instance is
immutable after construction and can be shared freely between threads.

This module is the one rule for which fields exist: the 23 prime powers
q <= ``MAX_Q`` = 49, refused otherwise (``factor_prime_power``).  Every
extension field among them has a default defining polynomial (its Conway
polynomial, coefficients low to high); pass ``poly=`` to override.

``row_reduce`` is the package's one Gauss-Jordan elimination over GF(q),
vectorized over the numpy view of the same tables.  ``gather`` is the
package's one lookup of a two-operand table on arrays.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

#: The largest supported field size.
MAX_Q = 49

#: Conway polynomial coefficients, constant term first, monic, for every extension field q <= MAX_Q.
DEFAULT_IRREDUCIBLE: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),            # x^2 + x + 1
    8: (1, 1, 0, 1),         # x^3 + x + 1
    9: (2, 2, 1),            # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),     # x^4 + x + 1
    25: (2, 4, 1),           # x^2 + 4x + 2
    27: (1, 2, 0, 1),        # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    49: (3, 6, 1),           # x^2 + 6x + 3
}


class FieldMismatchError(ValueError):
    """Objects over two different fields were combined."""


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime, for q <= ``MAX_Q``.  Raises ValueError otherwise:
    the size limit comes first, so that no large q is factored."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the supported maximum {MAX_Q} (the fields are the prime powers q <= {MAX_Q})")
    p = q
    for cand in range(2, int(q**0.5) + 1):
        if q % cand == 0:
            p = cand
            break
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _tables(p: int, e: int, poly: Sequence[int] | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (add, mul, neg, inv) tables of F_p[x]/(poly), poly monic of degree e (None for e = 1),
    as int arrays.  inv[a] is the first b with a * b = 1, and 0 where there is none (a = 0, or a
    zero divisor when poly is reducible)."""
    q = p**e
    # row a of digits holds the base-p digits of a, constant term first
    place = p ** np.arange(e)
    digits = np.arange(q)[:, None] // place % p
    add = sum((d[:, None] + d) % p * w for d, w in zip(digits.T, place))
    neg = -digits % p @ place
    scale = np.arange(p)[:, None, None] * digits % p @ place  # scale[c, a] = c * a for c in GF(p)
    # x * a: a's digits shifted up, the top one times x^e (-poly below its lead) added back; unused if e = 1
    top, x_e = q // p, -np.array((poly or (0,))[:e]) % p @ place
    times_x = add[np.arange(q) % top * p, scale[np.arange(q) // top, x_e]]
    mul, xa = 0, np.arange(q)
    for j in range(e):  # mul[a, b] = sum over j of b_j * (x^j * a)
        mul = add[mul, scale[digits[:, j], xa[:, None]]]
        xa = times_x[xa]
    return add, mul, neg, np.argmax(mul == 1, axis=1)


def is_irreducible(p: int, poly: Sequence[int]) -> bool:
    """True iff ``poly`` (coefficients low to high, any residues) is irreducible over GF(p).

    F_p[x]/(f) is a field, and f irreducible, exactly when its multiplication
    table has no zero divisors: a finite integral domain is a field.  The
    polynomial is made monic first; constants are not irreducible.  Raises
    ValueError when p is not a prime or p^deg exceeds ``MAX_Q``, the largest table.
    """
    # divisors up to MAX_Q: a larger p fails the size check below unless poly is constant
    if p < 2 or any(p % d == 0 for d in range(2, min(p, MAX_Q + 1))):
        raise ValueError(f"{p} is not a prime")
    coeffs = [c % p for c in poly]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if p**deg > MAX_Q:
        raise ValueError(f"q={p**deg} exceeds the supported maximum {MAX_Q}")
    lead = pow(coeffs[-1], -1, p)
    return bool(_tables(p, deg, [c * lead % p for c in coeffs])[1][1:, 1:].all())


def _field_parameters(q: int, poly: Sequence[int] | None) -> tuple[int, int, tuple[int, ...] | None]:
    """(p, e, poly) of GF(q), the polynomial in normal form: None for a prime
    field, else its coefficients mod p as a tuple, the default of q when none is given."""
    p, e = factor_prime_power(q)
    if e == 1:
        if poly is not None:
            raise ValueError("prime fields take no defining polynomial")
        return p, e, None
    return p, e, tuple(int(c) % p for c in (DEFAULT_IRREDUCIBLE[q] if poly is None else poly))


class GF:
    """Arithmetic context for GF(q).  Elements are plain ints in [0, q).

    Scalar operations look up precomputed tables; ``np_tables`` exposes the
    same tables as numpy arrays for vectorized work such as ``row_reduce``.
    Instances compare and hash by (q, defining polynomial), so two
    independently constructed GF(4) objects are interchangeable cache keys.
    """

    def __init__(self, q: int, poly: Sequence[int] | None = None):
        p, e, poly = _field_parameters(q, poly)
        if poly is not None and (len(poly) != e + 1 or poly[-1] != 1):
            raise ValueError(f"defining polynomial must be monic of degree {e}")
        add, mul, neg, inv = _tables(p, e, poly)
        if not mul[1:, 1:].all():
            raise ValueError(f"{list(poly)} is reducible over GF({p})")
        self.q, self.p, self.e, self.poly = q, p, e, poly
        self._add, self._mul, self._negt = (t.tolist() for t in (add, mul, neg))
        self._np_tables = tuple(t.astype(np.uint8) for t in (add, mul, neg, inv))
        for t in self._np_tables:
            t.setflags(write=False)

    # -- scalar operations ---------------------------------------------------

    def _chk(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not a canonical element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._add[self._chk(a)][self._chk(b)]

    def sub(self, a: int, b: int) -> int:
        return self._add[self._chk(a)][self._negt[self._chk(b)]]

    def neg(self, a: int) -> int:
        return self._negt[self._chk(a)]

    def mul(self, a: int, b: int) -> int:
        return self._mul[self._chk(a)][self._chk(b)]

    # -- vectorized view ------------------------------------------------------

    def np_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(add, mul, neg, inv) lookup tables as read-only numpy arrays; inv[0] is 0."""
        return self._np_tables

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.q, self.poly) == (other.q, other.poly)

    def __hash__(self) -> int:
        return hash((self.q, self.poly))

    def __repr__(self) -> str:
        if self.poly is None:
            return f"GF({self.q})"
        return f"GF({self.q}, poly={list(self.poly)})"


def gather(table: np.ndarray, x, y) -> np.ndarray:
    """table[x, y] for a (q, q) table from ``np_tables`` and operands that broadcast.

    One gather from the flattened table at x * q + y, x cast to the smallest
    unsigned dtype that holds q^2 - 1: about 2.5 times as fast as numpy's
    2-D fancy index on 10^5 entries.  With operands in the table's dtype
    the index array takes at most twice the output's bytes, where the 2-D
    index allocates none.  Either operand may be a scalar.
    """
    q = table.shape[1]
    return table.ravel()[np.asarray(x, dtype=np.min_scalar_type(q * q - 1)) * q + y]


def row_reduce(f: GF, rows, cols: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gauss-Jordan elimination over GF(q), pivoting on ``cols`` in the order given.

    The pivot of each step is the first column left in ``cols`` with a
    nonzero entry at or below the current rank; its first such row is
    swapped up, scaled to a leading 1 and cleared from every other row.
    Elimination stops once the rank equals the row count.  Returns the
    reduced copy of ``rows`` (a 2-D array of canonical elements) and the
    pivot columns in the order found; their count is the rank.
    """
    add, mul, neg, inv = f.np_tables()
    a = np.array(rows, dtype=add.dtype, ndmin=2)
    order = np.asarray(cols, dtype=np.intp)
    pivots: list[int] = []
    pos = 0
    for r in range(a.shape[0]):
        # the next live column, tested in chunks that double from pos on
        width = 64
        while pos < len(order):
            live = np.flatnonzero(a[r:, order[pos:pos + width]].any(axis=0))
            if live.size:
                break
            pos, width = pos + width, 2 * width
        else:
            break
        pos += int(live[0])
        c = int(order[pos])
        pos += 1
        p = r + int(np.flatnonzero(a[r:, c])[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = gather(mul, inv[a[r, c]], a[r])
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] = gather(add, a[others], gather(mul, neg[a[others, c]][:, None], a[r]))
        pivots.append(c)
    return a, tuple(pivots)


@functools.lru_cache(maxsize=None)
def _shared_field(q: int, poly: tuple[int, ...] | None) -> GF:
    return GF(q, poly)


def field(q: int, poly: Sequence[int] | None = None) -> GF:
    """Shared-instance GF constructor: equal fields give one instance.

    ``poly`` may be any sequence; it is put in the normal form of
    ``_field_parameters`` (the default for None, coefficients mod p, a
    tuple) before the instance is looked up, so field(4), field(4, (1, 1, 1))
    and field(4, [1, 1, 1]) share one instance and its tables.
    """
    return _shared_field(q, _field_parameters(q, poly)[2])
