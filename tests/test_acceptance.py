"""Acceptance suite: one test per headline guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import random
import time

import numpy as np
import pytest

from ograss.cli import main as cli_main
from ograss.codes import (
    _combine,
    _direct_minors,
    build_generator,
    min_weight_witness,
    minimum_distance,
    verify,
    weight,
)
from ograss.forms import totally_singular_mask
from ograss.gf import field, gather
from ograss.grassmann import COLUMN_SETS, expand_minor, minor, reflected_complement
from ograss.polar import CELL_ORDER, brute_force_points, cell_matrices, enumerate_points, point_count


def _report(criterion: str, detail: str) -> None:
    print(f"{criterion}: PASS ({detail})")


def test_criterion_1_q2_parameter_triple(capsys):
    start = time.perf_counter()
    rep = verify(field(2))
    elapsed = time.perf_counter() - start
    assert rep.passed
    assert (rep.n, rep.dimension, rep.distance) == (30, 14, 8)
    assert rep.distance_exact
    assert elapsed < 5.0
    assert cli_main(["verify", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=30 k=14 d=8" in out
    _report("criterion 1", f"[30,14,8] verified in {elapsed:.2f}s")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_2_odd_witness_weight(q):
    start = time.perf_counter()
    rep = weight(min_weight_witness(field(q)))
    elapsed = time.perf_counter() - start
    assert rep.total == q**3 - q**2
    profile = tuple(rep.per_cell[piv] for piv in CELL_ORDER)
    assert profile == ((q - 2) * q**2, 0, 0, q**2, 0, 0, 0, 0)
    assert elapsed < 1.0
    _report("criterion 2", f"q={q} witness weight {rep.total} in {elapsed:.3f}s")


@pytest.mark.parametrize("q", [2, 4, 8])
def test_criterion_3_even_witness_weight(q):
    start = time.perf_counter()
    rep = weight(min_weight_witness(field(q)))
    elapsed = time.perf_counter() - start
    assert rep.total == q**3
    assert rep.per_cell[(4, 5, 6)] == q**3
    assert all(w == 0 for piv, w in rep.per_cell.items() if piv != (4, 5, 6))
    assert elapsed < 1.0
    _report("criterion 3", f"q={q} witness weight {rep.total} in {elapsed:.3f}s")


def test_criterion_4_exact_minimum_distance():
    res2 = minimum_distance(field(2))
    assert res2.distance == 8 and res2.exact
    start = time.perf_counter()
    res3 = minimum_distance(field(3))
    elapsed = time.perf_counter() - start
    assert res3.distance == 18 and res3.exact
    assert elapsed < 120.0
    assert weight(res3.witness).total == 18
    _report("criterion 4", f"d(q=2)=8, d(q=3)=18 in {elapsed:.1f}s")


def test_criterion_5_point_counts_and_oracle():
    for q in (2, 3, 4, 5):
        assert len(enumerate_points(field(q))) == point_count(q)
    for q in (2, 3):
        f = field(q)
        assert frozenset(p.matrix.rows for p in enumerate_points(f)) == brute_force_points(f)
    _report("criterion 5", "counts q=2..5, reduced-form oracle q=2,3")


@pytest.mark.parametrize("q", [2, 3, 4])
def test_criterion_6_expansion_identity(q):
    f = field(q)
    mismatches = sum(
        1
        for pt in enumerate_points(f)
        for A in COLUMN_SETS
        if expand_minor(pt.matrix, A) != minor(pt.matrix, A)
    )
    assert mismatches == 0
    _report("criterion 6", f"q={q} expansion identity on all {len(enumerate_points(f)) * 20} pairs")


@pytest.mark.parametrize("q", [2, 4])
def test_criterion_7_even_characteristic_self_pairing(q):
    G = build_generator(field(q))
    for A in COLUMN_SETS:
        assert np.array_equal(G.row(A), G.row(reflected_complement(A)))
    _report("criterion 7", f"q={q} generator rows equal on all reflected-complement pairs")


def _joined_cells(f):
    """The eight cell arrays joined to one (3, 6, n) array in the frozen point order."""
    return np.concatenate([cell_matrices(f, pivots) for pivots in CELL_ORDER], axis=2)


def _transforms(f, rng, count):
    """``count`` paired column operations, then ``count`` mirrored permutations, as one (2 * count, 6, 6) array.

    M -> M T keeps both forms zero on every totally singular M.  A paired
    operation adds a * column j to column i and -a * column 5 - i to column
    5 - j (0-based, i != j, i != 5 - j); a mirrored permutation moves
    columns 0..2 by a permutation eta and columns 5..3 by the same eta.
    """
    neg = f.np_tables()[2]
    eye = np.eye(6, dtype=neg.dtype)
    out = []
    while len(out) < count:
        i, j = rng.randrange(6), rng.randrange(6)
        if i == j or i == 5 - j:
            continue
        a = rng.randrange(f.q)
        T = eye.copy()
        T[j, i], T[5 - i, 5 - j] = a, neg[a]
        out.append(T)
    for _ in range(count):
        eta = rng.sample(range(3), 3)
        out.append(eye[:, eta + [5 - e for e in reversed(eta)]])
    return np.array(out)


def _images(f, mats, transforms):
    """M T for every representative M of a (3, 6, n) array and every T: a (3, 6, len(transforms) * n) array."""
    add, mul = f.np_tables()[:2]
    out = 0
    for s in range(6):  # out[:, c, t, p] += M_p[:, s] * T_t[s, c]
        out = gather(add, out, gather(mul, mats[:, s, None, None, :], transforms[:, s].T[None, :, :, None]))
    return out.reshape(3, 6, -1)


def _normalized(f, cols):
    """The columns of a (20, ...) array each scaled so that their first nonzero entry is 1."""
    _, mul, _, inv = f.np_tables()
    first = np.take_along_axis(cols, np.argmax(cols != 0, axis=0)[None], axis=0)
    return gather(mul, inv[first], cols)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_criterion_8_automorphism_invariance(q):
    """Each transform maps the point set onto itself: the images are totally
    singular and their Pluecker coordinates are the columns of G up to scaling
    and order, so every codeword weight is preserved."""
    f = field(q)
    mats = _joined_cells(f)
    n = mats.shape[2]
    G = build_generator(f)
    rng = random.Random(100 + q)
    transforms = _transforms(f, rng, 100)
    images = _images(f, mats, transforms)
    assert totally_singular_mask(f, images).all()
    minors = _direct_minors(f, images).reshape(20, len(transforms), n)
    # the images' Pluecker points are G's columns: equal once normalized and sorted
    image_cols = _normalized(f, minors)
    image_cols = np.take_along_axis(image_cols, np.lexsort(image_cols)[None], axis=-1)
    point_cols = _normalized(f, G.matrix)
    assert (image_cols == point_cols[:, None, np.lexsort(point_cols)]).all()
    for t in range(len(transforms)):
        coeffs = [rng.randrange(q) for _ in range(20)]
        before = np.count_nonzero(_combine(f, coeffs, G.matrix))
        assert np.count_nonzero(_combine(f, coeffs, minors[:, t])) == before
    _report("criterion 8", f"q={q}, {len(transforms)} random transforms map all {n} points onto themselves")


def test_criterion_9_property_suites():
    # field axioms, exhaustive for q <= 9
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field(q)
        inv = f.np_tables()[3]
        els = range(q)
        for a in els:
            if a:
                assert f.mul(a, int(inv[a])) == 1
            assert f.add(a, f.neg(a)) == 0
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    # Cauchy-Binet on every point: the minors of M T are the third compound
    # of T, whose row B is the minors of T's rows B, applied to the minors of M
    rng = random.Random(77)
    row_sets = np.array(COLUMN_SETS).T - 1
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field(q)
        mats = _joined_cells(f)
        G = build_generator(f)
        transforms = _transforms(f, rng, 3)
        minors = _direct_minors(f, _images(f, mats, transforms)).reshape(20, len(transforms), -1)
        for t, T in enumerate(transforms):
            compound = _direct_minors(f, T[row_sets].transpose(0, 2, 1)).T
            expected = [_combine(f, compound[:, A], G.matrix) for A in range(20)]
            assert np.array_equal(minors[:, t], expected)
    _report("criterion 9", "field axioms q<=9, Cauchy-Binet on every point q<=9")
