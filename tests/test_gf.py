import functools
import random
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ograss.gf import DEFAULT_IRREDUCIBLE, GF, MAX_Q, factor_prime_power, field, gather, is_irreducible, row_reduce

PRIME_POWERS_LE_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]
SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
ROOT = Path(__file__).resolve().parents[1]


# polynomial arithmetic over F_p, coefficient lists low to high: the reference for the field tables

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(p, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(p, a, mod):
    """Remainder of a modulo a monic polynomial."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        shift = len(a) - 1 - d
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _digits(f, a):
    """The base-p digits of a, constant term first: the coefficients of its residue polynomial."""
    return [a // f.p**i % f.p for i in range(f.e)]


def _undigits(f, ds):
    return sum(c * f.p**i for i, c in enumerate(ds))


def _raw_mul(f, a, b):
    if f.e == 1:
        return a * b % f.p
    return _undigits(f, _poly_rem(f.p, _poly_mul(f.p, _digits(f, a), _digits(f, b)), f.poly))


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(49) == (7, 2)
    for bad in (0, 1, 6, 12, 100, 9999):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    f = field(q)
    inv = f.np_tables()[3]
    els = range(q)
    assert inv[0] == 0 and 1 not in [f.mul(0, b) for b in els]  # 0 has no inverse; its entry is a placeholder
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, int(inv[a])) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", [16, 25, 27, 32, 49])
def test_field_axioms_random_triples(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(1000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)


def test_characteristic_two_addition():
    assert field(2).add(1, 1) == 0
    assert field(4).add(2, 2) == 0  # alpha + alpha


def test_prime_field_arithmetic():
    f3 = field(3)
    assert f3.add(2, 2) == 1
    f5 = field(5)
    assert f5.mul(2, 3) == 1
    assert f5.np_tables()[3][2] == 3
    assert field(2).np_tables()[3][1] == 1


def test_gf4_generator_square():
    # alpha * alpha = alpha + 1 under x^2 + x + 1
    assert field(4).mul(2, 2) == 3


def test_gf9_inverses_exhaustive():
    f = field(9)
    inv = f.np_tables()[3]
    for a in range(1, 9):
        assert f.mul(a, int(inv[a])) == 1


def test_neg_in_characteristic_two():
    assert field(2).neg(1) == 1
    f8 = field(8)
    assert all(f8.neg(a) == a for a in range(8))


def _squares(f):
    """The squares of GF(q): the diagonal of the multiplication table."""
    return set(f.np_tables()[1].diagonal().tolist())


@pytest.mark.parametrize("q", PRIME_POWERS_LE_49)
def test_is_square_matches_brute_force(q):
    """Which elements are squares, against Euler's criterion a^((q-1)/2) = 1 on nonzero a for odd
    q, and against every element for even q, where squaring is the Frobenius automorphism."""
    f = field(q)
    euler = set(range(q))
    if q % 2:
        euler = {0} | {a for a in range(1, q) if functools.reduce(f.mul, [a] * ((q - 1) // 2)) == 1}
    assert _squares(f) == euler


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_LE_49 if q % 2])
def test_square_count_odd_q(q):
    assert len(_squares(field(q))) == (q + 1) // 2


def test_squares_f3():
    assert _squares(field(3)) == {0, 1}


def test_all_squares_even_q():
    assert _squares(field(4)) == set(range(4))
    assert _squares(field(8)) == set(range(8))


def test_default_polynomials_are_irreducible():
    """One for every extension field up to MAX_Q, and none above."""
    assert sorted(DEFAULT_IRREDUCIBLE) == [q for q in PRIME_POWERS_LE_49 if factor_prime_power(q)[1] > 1]
    assert MAX_Q == PRIME_POWERS_LE_49[-1] == 49
    for q, poly in DEFAULT_IRREDUCIBLE.items():
        p, e = factor_prime_power(q)
        assert len(poly) == e + 1 and poly[-1] == 1
        assert is_irreducible(p, poly)


#: the number of monic irreducible polynomials of degree e over GF(p) (Gauss), for every p^e <= 49 with e >= 2
IRREDUCIBLE_COUNTS = {(2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6, (3, 2): 3, (3, 3): 8, (5, 2): 10, (7, 2): 21}


@pytest.mark.parametrize("p, e", IRREDUCIBLE_COUNTS)
def test_irreducible_exactly_when_no_product_of_lower_degrees(p, e):
    """is_irreducible marks exactly the monic polynomials that are no product of two monic ones of
    lower degree, the products taken by the reference polynomial arithmetic; GF builds on each of
    those and refuses each product with the reducibility message."""
    monic = [list(low) + [1] for low in product(range(p), repeat=e)]
    products = {
        tuple(_poly_mul(p, list(a) + [1], list(b) + [1]))
        for d in range(1, e)
        for a in product(range(p), repeat=d)
        for b in product(range(p), repeat=e - d)
    }
    irreducible = [poly for poly in monic if is_irreducible(p, poly)]
    assert irreducible == [poly for poly in monic if tuple(poly) not in products]
    assert len(irreducible) == IRREDUCIBLE_COUNTS[p, e]
    for poly in monic:
        if tuple(poly) in products:
            with pytest.raises(ValueError, match=re.escape(f"{poly} is reducible over GF({p})")):
                GF(p**e, poly)
        else:
            assert GF(p**e, poly).poly == tuple(poly)


def test_is_irreducible_normalizes_the_polynomial():
    """Coefficients in any residue, a lead other than 1 and trailing zeros; constants are not irreducible."""
    assert is_irreducible(2, (1, 1, 1)) and is_irreducible(2, (3, -1, 1, 0, 2))
    assert is_irreducible(3, (2, 0, 2)) and not is_irreducible(3, (2, 2, 2))  # 2(x^2 + 1), 2(x - 1)^2
    assert is_irreducible(7, (3, 1)) and is_irreducible(47, (5, 9))  # every degree-1 polynomial
    assert not any(is_irreducible(5, c) for c in ((), (0,), (3,), (0, 0), (4, 0, 0)))


@pytest.mark.parametrize("p, poly", [(2, (1, 1, 0, 0, 0, 0, 1)), (7, (3, 0, 0, 1)), (53, (1, 1)), (3, (1, 0, 0, 0, 1, 0))])
def test_is_irreducible_refuses_degrees_above_the_maximum(p, poly):
    with pytest.raises(ValueError, match=f"q={p ** (len(poly) - 1 - (poly[-1] == 0))} exceeds the supported maximum 49"):
        is_irreducible(p, poly)


def test_large_prime_q_is_refused_at_once():
    """q = 2^61 - 1 is prime: the size limit refuses it before any factoring, which would take
    about 1.5e9 trial divisions."""
    res = subprocess.run([sys.executable, "-c", "from ograss import field; field(2**61 - 1)"],
                         capture_output=True, text=True, timeout=60, cwd=ROOT / "src")
    assert res.returncode == 1
    assert "ValueError: q=2305843009213693951 exceeds the supported maximum 49 (the fields are the prime powers q <= 49)" in res.stderr


@pytest.mark.parametrize("q", [53, 64, 121, 256, 1024])
def test_fields_above_the_maximum_are_refused(q):
    """Prime powers above MAX_Q, prime or not: no field is built by either constructor."""
    for build in (field, GF):
        with pytest.raises(ValueError, match=f"q={q} exceeds the supported maximum 49"):
            build(q)


def test_polynomial_override():
    f = GF(4, poly=(1, 1, 1))
    assert f.mul(2, 2) == 3
    with pytest.raises(ValueError):
        GF(4, poly=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(ValueError):
        GF(4, poly=(1, 1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        GF(4, poly=(1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        GF(5, poly=(1, 1))  # prime field takes no polynomial
    with pytest.raises(ValueError):
        GF(121)  # above the supported maximum 49


def _is_prime_power(q):
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


TABLE_FIELDS = [(q, None) for q in range(2, 50) if _is_prime_power(q)] + [(9, (2, 1, 1)), (49, (3, 2, 1))]


@pytest.mark.parametrize("q, poly", TABLE_FIELDS)
def test_tables_match_scalar_loops(q, poly):
    """The broadcast tables against one scalar digit or polynomial operation per entry."""
    f = GF(q, poly)
    digs = [_digits(f, a) for a in range(q)]
    add = [[_undigits(f, [(x + y) % f.p for x, y in zip(digs[a], digs[b])]) for b in range(q)] for a in range(q)]
    neg = [_undigits(f, [-x % f.p for x in digs[a]]) for a in range(q)]
    mul = [[_raw_mul(f, a, b) for b in range(q)] for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    assert (f._add, f._mul, f._negt) == (add, mul, neg)
    assert all(t.tolist() == ref for t, ref in zip(f.np_tables(), (add, mul, neg, inv)))
    assert all(t.dtype == np.uint8 for t in f.np_tables())


def test_factory_shares_instances():
    assert field(3) is field(3)
    assert field(4) == GF(4)
    assert field(4) != field(8)
    assert hash(field(9)) == hash(GF(9))


def test_factory_shares_equal_fields_whatever_the_poly_form():
    """The default polynomial, its coefficients in another residue or as a
    list give one instance; the other polynomials of that degree give another."""
    default = field(4)
    assert field(4, (1, 1, 1)) is default
    assert field(4, [1, 1, 1]) is default
    assert field(4, [3, 5, 1]) is default
    assert field(9, [2, 1, 1]) is field(9, (2, 1, 1)) is not field(9)


@pytest.mark.parametrize("q, poly, message", [
    (5, (1, 1), "prime fields take no defining polynomial"),
    (5, [1, 1], "prime fields take no defining polynomial"),
    (4, [1, 1], "monic of degree 2"),
    (4, (1, 1, 2), "monic of degree 2"),
    (4, [0, 0, 1], r"\[0, 0, 1\] is reducible over GF\(2\)"),
    (121, None, "exceeds the supported maximum 49"),
    (64, (1, 1, 0, 1, 1, 0, 1), "exceeds the supported maximum 49"),  # the limit before the polynomial
    (6, None, "not a prime power"),
])
def test_factory_keeps_the_constructor_errors(q, poly, message):
    with pytest.raises(ValueError, match=message):
        field(q, poly)


def test_out_of_range_elements_rejected():
    f = field(3)
    with pytest.raises(ValueError):
        f.add(1, 5)
    with pytest.raises(ValueError):
        f.neg(-1)
    with pytest.raises(ValueError):
        f.mul(3, 0)


@settings(max_examples=200)
@given(st.sampled_from(SMALL_Q), st.data())
def test_sub_is_add_of_negation(q, data):
    f = field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.add(f.sub(a, b), b) == a


def _reference_row_reduce(f, rows, cols):
    """Scalar Gauss-Jordan loop with the same pivot rule, the reference for the kernel."""
    rows = [list(r) for r in rows]
    r = 0
    pivots = []
    for col in cols:
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        cinv = int(f.np_tables()[3][rows[r][col]])
        rows[r] = [f.mul(cinv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.sub(v, f.mul(c, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, tuple(pivots)


@pytest.mark.parametrize("q", SMALL_Q)
def test_row_reduce_matches_scalar_loop(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 9)
        # a sparse matrix, so that zero columns and rank deficiency occur
        rows = [[rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(ncols)] for _ in range(nrows)]
        cols = rng.sample(range(ncols), rng.randrange(ncols + 1))
        reduced, pivots = row_reduce(f, rows, cols)
        ref_rows, ref_pivots = _reference_row_reduce(f, rows, cols)
        assert pivots == ref_pivots
        assert reduced.tolist() == ref_rows


def _row_reduce_by_full_scans(f, rows, cols):
    """The elimination loop that scanned every remaining column at each pivot,
    kept as the reference for the chunked scan of ``row_reduce``."""
    add, mul, neg, inv = f.np_tables()
    a = np.array(rows, dtype=add.dtype, ndmin=2)
    order = np.asarray(cols, dtype=np.intp)
    pivots = []
    pos = 0
    for r in range(a.shape[0]):
        live = np.flatnonzero(a[r:, order[pos:]].any(axis=0))
        if not live.size:
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


@pytest.mark.parametrize("q", [2, 3, 4, 9, 49])
def test_row_reduce_matches_full_column_scans(q):
    """Pivots and reduced rows equal those of the full-scan loop on wide
    matrices with zero runs of one chunk and longer, in natural and permuted
    column order, at full rank and rank deficient (rows repeated as
    combinations of others, or zero from some column on)."""
    f = field(q)
    rng = np.random.default_rng(q)
    mul = f.np_tables()[1]
    # live columns right after dead runs of one, two and three whole chunks (64, 64 + 128, 64 + 128 + 256)
    gapped = np.zeros((6, 1200), dtype=mul.dtype)
    live = np.cumsum([0, 65, 193, 1, 449, 65, 2])
    gapped[:, live] = rng.integers(0, q, (6, len(live)))
    gapped[np.arange(len(live)) % 6, live] = 1
    reduced, pivots = row_reduce(f, gapped, range(1200))
    ref, ref_pivots = _row_reduce_by_full_scans(f, gapped, range(1200))
    assert pivots == ref_pivots and np.array_equal(reduced, ref)
    for nrows, ncols in [(1, 5), (4, 70), (6, 300), (20, 2000)]:
        for deficient in (False, True):
            a = rng.integers(0, q, (nrows, ncols)).astype(mul.dtype)
            a[:, rng.random(ncols) < 0.6] = 0
            a[:, ncols // 4:ncols // 4 + 150] = 0
            if deficient and nrows > 1:
                a[nrows // 2:, ncols // 2:] = 0
                a[-1] = gather(mul, 2 % q, a[0])
            for cols in (range(ncols), rng.permutation(ncols), rng.permutation(ncols)[: ncols // 2]):
                reduced, pivots = row_reduce(f, a, cols)
                ref, ref_pivots = _row_reduce_by_full_scans(f, a, cols)
                assert pivots == ref_pivots
                assert np.array_equal(reduced, ref)
                if deficient and nrows > 1:
                    assert len(pivots) < nrows


GATHER_FIELDS = [(q, None) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49)] + [
    (9, (2, 1, 1)),
    (49, (1, 0, 1)),  # x^2 + 1, not the Conway polynomial
]


@pytest.mark.parametrize("q, poly", GATHER_FIELDS)
def test_gather_equals_2d_indexing(q, poly):
    f = field(q, poly)
    rng = np.random.default_rng(q)
    add, mul, neg, _ = f.np_tables()
    minus = add[:, neg]
    x = rng.integers(0, q, (3, 1, 5)).astype(add.dtype)
    y = rng.integers(0, q, (4, 5)).astype(add.dtype)
    every = np.arange(q)
    cases = [
        (every[:, None], every[None, :]),  # the whole table
        (x, y),  # broadcast to (3, 4, 5)
        (y, x),
        (0, y),  # scalar operands, Python and numpy
        (x, q - 1),
        (x[0, 0, 0], y[1, 2]),
        (x.tolist(), y.tolist()),  # nested sequences of Python ints
        (x[:, :, ::2], y[::-1, ::2]),  # strided views
    ]
    for table in (add, mul, minus):
        for a, b in cases:
            got, want = gather(table, a, b), table[a, b]
            assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
            assert np.array_equal(got, want)
