import os
import random
import subprocess
import sys
import time
import weakref
from itertools import product
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ograss import codes, grassmann
from ograss.codes import (
    BudgetExceeded,
    GeneratorMatrix,
    _direct_minors,
    _exhaustive_scan,
    _np_add,
    _pack,
    _packed_row_bytes,
    _reduced_basis,
    _split,
    _weights,
    build_generator,
    codeword,
    macwilliams,
    min_weight_witness,
    minimum_distance,
    rank_dimension,
    verify,
    weight,
    weight_distribution,
)
from ograss.generator import _det_tables, _np_det, cell_minors
from ograss.gf import factor_prime_power, field, row_reduce
from ograss.forms import FormSpace, totally_singular_mask
from ograss.grassmann import (
    COLUMN_SETS, MatrixRep, MinorFunction, expansion_plan, minor, reflected_complement,
)
from ograss.polar import (
    CELL_ARITY, CELL_ORDER, build_cell, cell_matrices, cell_slices, enumerate_points, family_mask, point_count,
)


def test_generator_shape_and_entries_q2():
    G = build_generator(field(2))
    assert G.matrix.shape == (20, 30)
    assert set(np.unique(G.matrix)) <= {0, 1}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_row_456_concentrates_on_its_cell(q):
    f = field(q)
    G = build_generator(f)
    row = G.row((4, 5, 6))
    for pivots, start, stop in cell_slices(q):
        seg = row[start:stop]
        if pivots == (4, 5, 6):
            assert np.all(seg == f.neg(1))
        else:
            assert np.all(seg == 0)


def test_rank_q2_is_14():
    assert rank_dimension(build_generator(field(2))) == 14


def test_rank_oracle_agreement_q3():
    f = field(3)
    G = build_generator(f)
    k = rank_dimension(G)

    # independent elimination scanning columns right to left
    rows = [list(map(int, r)) for r in G.matrix]
    r0 = 0
    for col in range(G.n - 1, -1, -1):
        piv = next((i for i in range(r0, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        inv = int(f.np_tables()[3][rows[r0][col]])
        rows[r0] = [f.mul(inv, v) for v in rows[r0]]
        for i in range(len(rows)):
            if i != r0 and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.sub(v, f.mul(c, w)) for v, w in zip(rows[i], rows[r0])]
        r0 += 1
    assert k == r0 == 20


def test_reduced_basis_computed_once_per_generator_and_read_only():
    G = build_generator(field(3))
    basis = _reduced_basis(G)
    assert _reduced_basis(G) is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0
    assert rank_dimension(G) == len(basis) == 20


def test_rank_zero_matrix():
    f = field(2)
    G = GeneratorMatrix(field=f, matrix=np.zeros((20, 12), dtype=np.uint8))
    assert rank_dimension(G) == 0


@pytest.mark.parametrize("q", [3, 5])
def test_odd_witness_weight_profile(q):
    rep = weight(min_weight_witness(field(q)))
    assert rep.total == q**3 - q**2
    assert tuple(rep.per_cell[piv] for piv in CELL_ORDER) == ((q - 2) * q**2, 0, 0, q**2, 0, 0, 0, 0)


@pytest.mark.parametrize("q", [2, 4])
def test_even_witness_weight_profile(q):
    rep = weight(min_weight_witness(field(q)))
    assert rep.total == q**3
    assert tuple(rep.per_cell[piv] for piv in CELL_ORDER) == (q**3, 0, 0, 0, 0, 0, 0, 0)


def test_weight_of_zero_function():
    rep = weight(MinorFunction(field(3), (0,) * 20))
    assert rep.total == 0
    assert all(v == 0 for v in rep.per_cell.values())


def test_weight_total_is_cell_sum():
    f = field(3)
    rng = random.Random(1)
    for _ in range(5):
        fn = MinorFunction(f, tuple(rng.randrange(3) for _ in range(20)))
        rep = weight(fn)
        assert rep.total == sum(rep.per_cell.values())


def test_codeword_linearity():
    f = field(5)
    G = build_generator(f)
    add, mul, _, _ = f.np_tables()
    rng = random.Random(2)
    for _ in range(5):
        fa = MinorFunction(f, tuple(rng.randrange(5) for _ in range(20)))
        fb = MinorFunction(f, tuple(rng.randrange(5) for _ in range(20)))
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        combo = MinorFunction(f, tuple(add[mul[a, fa.coeffs], mul[b, fb.coeffs]]))
        lhs = codeword(combo, G)
        rhs = add[mul[a, codeword(fa, G)], mul[b, codeword(fb, G)]]
        assert np.array_equal(lhs, rhs)


def test_generator_rows_match_single_minor_codewords():
    f = field(3)
    G = build_generator(f)
    for idx, A in enumerate(COLUMN_SETS):
        assert np.array_equal(G.matrix[idx], codeword(MinorFunction.single(f, A), G))
        direct = [MinorFunction.single(f, A).evaluate(pt.matrix) for pt in enumerate_points(f)]
        assert list(G.matrix[idx]) == direct


@pytest.mark.parametrize("q, poly", [(11, None), (16, (1, 0, 0, 1, 1)), (27, None), (32, None), (49, (3, 2, 1))])
def test_generator_equals_direct_minors(q, poly):
    """The open-grid build against the direct determinants, beyond the golden fields.

    Every field against the full 3x3 column triples of the dense cell arrays
    (``_direct_minors``); up to q = 16 also against the scalar ``minor`` of
    each representative, which takes over 15 s at q = 27.
    """
    f = field(q, poly)
    G = build_generator(f).matrix
    mats = np.concatenate([cell_matrices(f, pivots) for pivots in CELL_ORDER], axis=2)
    assert np.array_equal(G, _direct_minors(f, mats))
    if q <= 16:
        direct = [[minor(build_cell(f, pivots, params), A) for A in COLUMN_SETS]
                  for pivots in CELL_ORDER for params in product(range(q), repeat=CELL_ARITY[pivots])]
        assert np.array_equal(G, np.array(direct).T)


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


@pytest.mark.parametrize("q", _prime_powers(49))
def test_whole_skew_block_minor_vanishes_on_every_cell(q):
    """build_generator writes the minor on a cell's own non-pivot columns as 0
    without evaluating it; the general determinant is 0 on every point."""
    f = field(q)
    tables = _det_tables(f)
    G = build_generator(f)
    for pivots, start, stop in cell_slices(q):
        free = tuple(c for c in range(1, 7) if c not in pivots)
        plan = expansion_plan(pivots)
        assert [i for i, (block, _) in enumerate(plan) if len(block) == 3] == [COLUMN_SETS.index(free)]
        mats = cell_matrices(f, pivots)
        assert not _np_det(tables, mats[:, [c - 1 for c in free]]).any()
        assert not G.row(free)[start:stop].any()


@pytest.mark.parametrize("q", _prime_powers(49))
def test_cell_minors_vary_along_at_most_two_axes(q):
    """Each of a cell's 20 minors is an array of ndim arity whose axes have
    length q or 1, and at most two have length q: a 2 x 2 sub-block of the
    zero-diagonal block holds a diagonal zero, so a minor takes at most q^2
    distinct entries per cell, and only those are formatted by genmat."""
    f = field(q)
    for pivots in CELL_ORDER:
        values = cell_minors(f, pivots)
        assert len(values) == len(COLUMN_SETS)
        for v in values:
            assert v.ndim == CELL_ARITY[pivots] and set(v.shape) <= {1, q}
            assert v.shape.count(q) <= 2


def test_generator_q49_builds_without_points_or_direct_minors(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the generator build and verify must not build per-point matrix objects")

    for name in ("enumerate_points", "MatrixRep", "minor", "FormSpace"):
        assert not hasattr(codes, name)
    monkeypatch.setattr(MatrixRep, "__init__", forbidden)
    f = field(49)
    start = time.perf_counter()
    G = build_generator.__wrapped__(f)  # past the cache, which another test may have filled
    assert time.perf_counter() - start < 1
    assert G.matrix.shape == (20, 240200)
    for q in (3, 8):
        assert verify(field(q)).passed


def test_minimum_distance_q2_exhaustive():
    res = minimum_distance(field(2))
    assert (res.q, res.n, res.dimension) == (2, 30, 14)
    assert res.distance == 8
    assert res.exact and res.method == "exhaustive"
    assert res.evaluations == 2 * 2**10
    assert res.witness.coeffs == min_weight_witness(field(2)).coeffs
    assert weight(res.witness).total == 8


def test_minimum_distance_witness_mode():
    res = minimum_distance(field(4), method="witness")
    assert res.distance == 64 and not res.exact
    res = minimum_distance(field(5), method="witness")
    assert res.distance == 100 and not res.exact
    with pytest.raises(ValueError):
        minimum_distance(field(2), method="fancy")


def test_minimum_distance_q4_exact_via_split():
    res = minimum_distance(field(4))
    assert res.distance == 64 and res.exact
    assert res.evaluations == 2 * 4**10
    assert weight(res.witness).total == 64


def test_budget_errors_suggest_witness_mode():
    with pytest.raises(BudgetExceeded, match="witness"):
        minimum_distance(field(3), budget=1000)
    with pytest.raises(BudgetExceeded, match="witness"):
        minimum_distance(field(7))


def test_budget_error_raised_before_the_search(monkeypatch):
    """The exact cost of the split, the sum of q^dimension over its two
    sides, is refused before either side is scanned where the floor 2 * q^7
    lets it through: 2 * q^10 at q = 4 and 8."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact cost must reject before any side is scanned")

    monkeypatch.setattr(codes, "_exhaustive_scan", forbidden)
    with pytest.raises(BudgetExceeded, match="needs 2097152 codeword evaluations"):
        minimum_distance(field(4), budget=2_097_151)
    with pytest.raises(BudgetExceeded, match="needs 2147483648 codeword evaluations .*witness"):
        minimum_distance(field(8))


@pytest.mark.parametrize("q", [7, 9, 16, 49])
def test_budget_floor_raised_before_any_elimination(monkeypatch, q):
    def forbidden(*args):
        raise AssertionError("the budget floor must reject before the split row-reduces")

    f = field(q)
    rank_dimension(build_generator(f))  # the reduced basis, cached before row_reduce is replaced
    monkeypatch.setattr(codes, "row_reduce", forbidden)
    with pytest.raises(BudgetExceeded, match="at least .*witness"):
        minimum_distance(f)


def _split_floor(q, k):
    return q ** (k // 2) + q ** (k - k // 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_budget_floor_never_exceeds_projection(q):
    """The floor the split refuses on is at most its exact cost, the projections it scans."""
    f = field(q)
    basis = _reduced_basis(build_generator(f))
    floor = _split_floor(q, len(basis))
    with pytest.raises(BudgetExceeded, match=f"needs at least {floor} codeword"):
        _split(f, basis, family_mask(q), floor - 1)
    _, parts = _split(f, basis, family_mask(q), 10**12)
    assert floor <= sum(p.evaluations for p in parts)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 8, 9, 16, 49]), k=st.integers(2, 20), data=st.data())
def test_budget_floor_never_exceeds_projection_of_any_ranks(q, k, data):
    """Side S scans q^(rank C_S) words, and rank C_A + rank C_B >= k, so no
    ranks cost less than the floor once k >= 2."""
    rank_a = data.draw(st.integers(0, k))
    rank_b = data.draw(st.integers(k - rank_a, k))
    assert _split_floor(q, k) <= sum(q**r for r in (rank_a, rank_b) if r)


def _least(hist):
    """The least nonzero weight of a histogram over the weights 0..n, None if it has none."""
    nonzero = np.flatnonzero(np.asarray(hist)[1:])
    return int(nonzero[0]) + 1 if len(nonzero) else None


def _golden_distribution(q):
    rows = (Path(__file__).parent / "golden" / f"weight-dist-q{q}.csv").read_text().splitlines()[1:]
    return {int(w): int(c) for w, c in (row.split(",") for row in rows)}


def test_split_equals_full_scan_at_q2_and_q4():
    """The split against its oracle, the full scan of all q^k codewords of
    the whole reduced basis: the same weight distribution at q = 2 (2^14
    words) and q = 4 (4^14).  The q = 3 whole-code scan (3^20 words, about
    16 s) is pinned in CI."""
    for q in (2, 4):
        f = field(q)
        basis = _reduced_basis(build_generator(f))
        hist, _ = _split(f, basis, family_mask(q), 10**12)
        assert np.array_equal(hist, _exhaustive_scan(f, basis)[0])
        assert _least(hist) == q**3


def test_side_a_histograms_are_freed_before_side_b_scans(monkeypatch):
    """At q = 4, where each side bins its words by the 1 + (4^6 - 1)/3 coset
    classes of the six rows of T, side A's per-coset array is gone when side
    B's scan starts, and the weight distribution is still the golden one."""
    refs, alive = [], []
    real = codes._exhaustive_scan

    def scan(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        hist = real(*args, **kwargs)
        refs.append(weakref.ref(hist))
        return hist

    monkeypatch.setattr(codes, "_exhaustive_scan", scan)
    f = field(4)
    hist, _ = _split(f, _reduced_basis(build_generator(f)), family_mask(4), 10**12)
    assert alive == [[], [False]]
    assert {w: int(c) for w, c in enumerate(hist) if c} == _golden_distribution(4)


@pytest.mark.parametrize("q", [2, 4])
def test_budget_above_the_split_cost_changes_nothing(q):
    """The budget only guards: at the split's exact cost, at q^k (every word
    of the code) and at 10^12, the distance, witness, evaluations and parts
    are the same."""
    f = field(q)
    basis = _reduced_basis(build_generator(f))
    cost = sum(p.evaluations for p in _split(f, basis, family_mask(q), 10**12)[1])
    assert cost == 2 * q**10 < q ** len(basis)
    results = {(res.distance, res.witness.coeffs, res.evaluations, tuple(p.name for p in res.parts))
               for res in (minimum_distance(f, budget=b) for b in (cost, q ** len(basis), 10**12))}
    assert results == {(q**3, min_weight_witness(f).coeffs, cost, ("CA", "CB"))}


@pytest.mark.parametrize("q, parts, d", [
    (2, [("CA", 10), ("CB", 10)], 8),
    (3, [("CA", 10), ("CB", 10)], 18),
    (4, [("CA", 10), ("CB", 10)], 64),
    (5, [("CA", 10), ("CB", 10)], 100),
])
def test_distance_parts_by_field(q, parts, d):
    res = minimum_distance(field(q))
    assert [(p.name, p.dimension) for p in res.parts] == parts
    assert res.distance == d and res.exact
    assert res.evaluations == sum(p.evaluations for p in res.parts) == 2 * q**10


def test_half_coordinate_split_is_exact(monkeypatch):
    """With the first half of the coordinates as one side at q = 2, where the
    bound d(C_A) + d(C_B) = 2 on the words nonzero on both sides fell below
    the kernels' 8, the split still counts every word: d = 8 and the golden
    weight distribution."""
    monkeypatch.setattr(codes, "family_mask", lambda q: np.arange(point_count(q)) < point_count(q) // 2)
    res = minimum_distance(field(2), budget=10**5)
    assert (res.distance, res.exact) == (8, True)
    assert weight_distribution(field(2), budget=10**5) == _golden_distribution(2)


def test_minimum_distance_raises_on_a_heavier_witness(monkeypatch):
    """The known witness must weigh the distance that the split counted."""
    f = field(2)
    heavier = MinorFunction.from_map(f, {(1, 2, 3): 1, (4, 5, 6): 1})
    assert weight(heavier).total > 8
    monkeypatch.setattr(codes, "min_weight_witness", lambda f: heavier)
    with pytest.raises(codes.WitnessMismatch, match=f"weighs {weight(heavier).total}, not the distance 8"):
        minimum_distance(f)
    rep = verify(f, budget=10**5)
    failed = [(c.name, c.actual) for c in rep.checks if not c.passed]
    assert failed == [("witness weight", weight(heavier).total),
                      ("witness cell profile", tuple(weight(heavier).per_cell[piv] for piv in CELL_ORDER))]
    assert (rep.distance, rep.distance_exact) == (8, True)
    assert "exact minimum distance" in [c.name for c in rep.checks if c.passed]


#: (q, rows of the reduced basis): subcodes small enough to scan exhaustively
SUBCODES = [(3, 9), (4, 8), (5, 6), (8, 5), (9, 5)]


def _subcode(q, rows):
    f = field(q)
    return f, _reduced_basis(build_generator(f))[:rows]


def _record_weights(monkeypatch):
    """Every ``_weights`` call from here on, as (XOR shape, weights), in call order."""
    calls, weights = [], codes._weights

    def recorded(a, neg_b):
        out = weights(a, neg_b)
        calls.append((np.broadcast_shapes(a.shape, neg_b.shape), out))
        return out

    monkeypatch.setattr(codes, "_weights", recorded)
    return calls


def _messages(q, k):
    """(q^k, k): the digits of every message on k rows, in lexicographic order."""
    return np.arange(q**k)[:, None] // q ** np.arange(k - 1, -1, -1) % q


@pytest.mark.parametrize("block_target", [None, 5, 2000, 30000])
@pytest.mark.parametrize("q, rows", [(3, 20), (4, 14), (5, 12), (8, 8), (9, 8)])
def test_scan_weighs_each_scalar_class_once_in_message_order(monkeypatch, q, rows, block_target):
    """The scan weighs every message whose head part (its first floor(k/2)
    digits) is zero or has first nonzero coefficient 1, each exactly once
    and in lexicographic order, with the weight of its codeword: head rows
    1.. are one per scalar class, in message order, and the zero head meets
    every tail.  Every other message is a multiple of one whose head part
    leads with 1 and has its weight, which is what lets the scan skip it.

    The rows are the first of the reduced basis, as many as keep q^rows
    <= 2 * 10^4 (9, 7, 6, 4 and 4 of the 20, 14, 12, 8 and 8 named).  A
    block target of t packed codewords (_BLOCK_BYTES = t * the bytes of
    one) of 5 splits every head row's tails into several blocks, 2000
    holds several whole head rows and 30000 all of them.
    """
    f = field(q)
    rows = max(r for r in range(1, rows + 1) if q**r <= 2 * 10**4)
    sub = _reduced_basis(build_generator(f))[:rows]
    if block_target is not None:
        monkeypatch.setattr(codes, "_BLOCK_BYTES", block_target * _packed_row_bytes(q, sub.shape[1]))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one CPU weighs the blocks in order
    calls = _record_weights(monkeypatch)
    _exhaustive_scan(f, sub)
    weighed = [weights.reshape(-1) for _, weights in calls]
    reference = np.count_nonzero(_all_codewords(f, sub), axis=1)
    digits = _messages(q, rows)
    head = digits[:, :rows // 2]
    lead = head[np.arange(q**rows), np.argmax(head != 0, axis=1)]  # 0 exactly for the zero head
    assert np.array_equal(np.concatenate(weighed), reference[lead <= 1])
    mul = f.np_tables()[1]
    for c in range(2, q):
        assert np.array_equal(reference[mul[c, digits] @ q ** np.arange(rows - 1, -1, -1)], reference)
    if block_target == 5:
        assert max(map(len, weighed)) <= 5 < q ** (rows - rows // 2)


def _word_of(f, coeffs, rows):
    """sum_i coeffs[i] * rows[i], one row at a time through the add and mul tables."""
    add, mul, _, _ = f.np_tables()
    cw = np.zeros(rows.shape[1], dtype=rows.dtype)
    for c, row in zip(coeffs, rows):
        cw = add[cw, mul[c, row]]
    return cw


@pytest.mark.parametrize("q, rows", SUBCODES)
def test_split_matches_exhaustive_scan(q, rows):
    """On the family split of the first basis rows the split gives the full
    scan's weight distribution, also at q = 8, where both kernels are empty
    and every message on the rows is a coset of its own."""
    f, sub = _subcode(q, rows)
    hist, _ = _split(f, sub, family_mask(q), 10**12)
    assert np.array_equal(hist, _exhaustive_scan(f, sub)[0])


def _all_codewords(f, rows):
    """Every codeword of the row space, one per message in lexicographic order, the zero message first."""
    add, mul, _, _ = f.np_tables()
    words = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        words = add[words[:, None, :], mul[:, row][None, :, :]].reshape(-1, rows.shape[1])
    return words


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), n=st.integers(2, 12), empty=st.sampled_from([None, True, False]),
       data=st.data())
def test_split_lemma_against_full_scan(q, n, empty, data):
    """Every codeword is t + k_A + k_B in one way, so the split counts each
    word once: on random small codes and random coordinate splits (some
    rows confined to one side so that kernels are nonempty, often empty
    otherwise, and a third of the splits with an empty side), the split's
    weight distribution and distance are the full scan's, and each side is
    scanned at the rank of the code's projection on it."""
    f = field(q)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if empty is not None:
        mask[:] = empty
    k0 = data.draw(st.integers(1, min(5, n)))
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                       min_size=k0, max_size=k0)), dtype=np.uint8)
    for row in rows:
        row[(mask, ~mask, np.zeros(n, dtype=bool))[data.draw(st.integers(0, 2))]] = 0
    reduced, pivots = row_reduce(f, rows, range(n))
    assume(pivots)
    basis = reduced[:len(pivots)]
    hist, parts = _split(f, basis, mask, 10**12)
    full = _exhaustive_scan(f, basis)[0]
    assert np.array_equal(hist, full) and _least(hist) == _least(full) is not None
    ranks = [len(row_reduce(f, basis[:, on], range(int(on.sum())))[1]) for on in (mask, ~mask)]
    assert [(p.name, p.dimension, p.evaluations) for p in parts] == [
        ("CA", ranks[0], q ** ranks[0]), ("CB", ranks[1], q ** ranks[1])]


@pytest.mark.parametrize("q", [3, 4])
def test_scan_blocks_stay_within_block_bytes(monkeypatch, q):
    """During the split's scans every XOR that ``_weights`` computes fits in
    _BLOCK_BYTES, with no exception, at the default budget and at an
    eighth of it, where the parts take more blocks."""
    f = field(q)
    calls, counts = _record_weights(monkeypatch), []
    for block in (codes._BLOCK_BYTES, codes._BLOCK_BYTES // 8):
        monkeypatch.setattr(codes, "_BLOCK_BYTES", block)
        calls.clear()
        assert minimum_distance(f).distance == weight(min_weight_witness(f)).total
        xors = [int(np.prod(shape)) * 8 for shape, _ in calls]
        assert xors and max(xors) <= block
        counts.append(len(xors))
    assert counts[0] < counts[1]


def test_weights_matches_count_nonzero():
    """_weights of packed a and -b counts the nonzero entries of a + b,
    broadcasting over the rows like the add, for 1 to 6 bit planes and
    lengths on both sides of a word and of an 8-bit count."""
    rng = np.random.default_rng(7)
    shapes = [((1, 1), (1, 1)), ((5, 80), (80,)), ((3, 1, 6, 170), (1, 4, 1, 170)),
              ((7, 255), (7, 255)), ((2, 256), (256,)), ((9, 1640), (1, 1640))]
    for n in (1, 63, 64, 65, 255, 256, 1170, 1640):
        shapes += [((7, n), (7, n)), ((3, 1, n), (1, 4, n))]
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 49):
        add, _, neg, _ = field(q).np_tables()
        planes = (q - 1).bit_length()
        for shape_a, shape_b in shapes:
            a = rng.integers(0, q, size=shape_a, dtype=np.uint8)
            b = rng.integers(0, q, size=shape_b, dtype=np.uint8)
            b = b.reshape((1,) * (a.ndim - b.ndim) + b.shape)
            got = _weights(_pack(a, planes), _pack(neg[b], planes))
            assert np.array_equal(got, np.count_nonzero(add[a, b], axis=-1))
        for n in (255, 256, 312, 1170, 1640):
            a = np.full((3, n), q - 1, dtype=np.uint8)
            a[1, ::2] = 0
            got = _weights(_pack(a, planes), _pack(np.zeros((1, n), dtype=np.uint8), planes))
            assert got.tolist() == [n, n // 2, n]


@pytest.mark.parametrize("q, rows", [sc for sc in SUBCODES if sc[0] in (5, 8, 9)])
def test_scan_evaluations_count_every_message(monkeypatch, q, rows):
    """A scan of h head rows and t tail rows weighs (1 + (q^h - 1)/(q - 1)) *
    q^t messages through ``_weights``: the zero head and one head per scalar
    class, each against every tail.  With the q-1 multiples of the classes,
    they make the q^k words its histogram counts."""
    f, sub = _subcode(q, rows)
    k = len(sub)
    h, t = k // 2, k - k // 2
    calls = _record_weights(monkeypatch)
    hist = _exhaustive_scan(f, sub)
    weighed = sum(weights.size for _, weights in calls)
    assert weighed == (1 + (q**h - 1) // (q - 1)) * q**t
    assert q**t + (q - 1) * (weighed - q**t) == hist.sum() == q**k


@pytest.mark.parametrize("q, rows", [(2, None), (3, 20)])
def test_half_tables_carry_the_lexicographic_messages(q, rows):
    """``_codewords``, which builds the scan's tail table and the words its
    head's class words are made from, lists the codeword of every message
    in lexicographic message order: entry m combines the rows by the
    base-q digits of m, the first most significant.  Checked at the first,
    the last and 200 random entries of both halves of the reduced bases
    at q = 2 (k = 14) and q = 3 (k = 20)."""
    f = field(q)
    basis = _reduced_basis(build_generator(f))[:rows]
    rng = np.random.default_rng(q)
    for half in (basis[:len(basis) // 2], basis[len(basis) // 2:]):
        m = len(half)
        table = codes._codewords(f, half)
        assert table.shape == (q**m, basis.shape[1])
        for idx in [0, 1, q**m - 1, *rng.integers(0, q**m, 200).tolist()]:
            digits = [idx // q**i % q for i in range(m - 1, -1, -1)]
            assert np.array_equal(table[idx], _word_of(f, digits, half))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 47])
def test_np_add_matches_scalar_table(p):
    f = field(p)
    dtype = f.np_tables()[0].dtype
    x, y = (a.astype(dtype) for a in np.meshgrid(np.arange(p), np.arange(p), indexing="ij"))
    s = _np_add(f, x, y)
    assert s.dtype == dtype
    assert s.tolist() == [[f.add(a, b) for b in range(p)] for a in range(p)]


FAMILY_A = ((4, 5, 6), (2, 3, 6), (1, 3, 5), (1, 2, 4))


def _family_half(q):
    """The code on the q^3 + q^2 + q + 1 points of the A cells: G restricted to
    their columns and row-reduced, 10 rows for every q."""
    f = field(q)
    cols = np.concatenate([np.arange(start, stop) for pivots, start, stop in cell_slices(q) if pivots in FAMILY_A])
    reduced, pivots = row_reduce(f, build_generator(f).matrix[:, cols], range(len(cols)))
    assert len(pivots) == 10
    return f, reduced[:10]


@pytest.mark.parametrize("q, rows", [(2, None)] + SUBCODES + [(q, "A") for q in (2, 3, 4, 5)])
def test_pless_power_moments(monkeypatch, q, rows):
    """Moments 0-2 of the weight histogram against B1, B2 of the dual, read off the columns.

    The family halves (rows "A") take several blocks at q = 4 and 5;
    their minimum weight is (q-1)q^2 (Sorensen), met by
    (q-1) * C(q^3+q^2+q+1, 2) codewords, and a pool of two threads scans the same."""
    f, sub = _family_half(q) if rows == "A" else _subcode(q, rows)
    k, n = sub.shape
    hist = _exhaustive_scan(f, sub)[0]
    if rows == "A":
        d = _least(hist)
        assert d == (q - 1) * q**2
        assert hist[d] == (q - 1) * comb(q**3 + q**2 + q + 1, 2)
        _pool_every_scan(monkeypatch, cpus=2)
        assert np.array_equal(_exhaustive_scan(f, sub)[0], hist)
    _, mul, _, inv = f.np_tables()
    zero_cols = 0
    classes = {}  # nonzero columns up to scaling, each normalized to a leading 1
    for col in sub.T:
        nz = np.flatnonzero(col)
        if not len(nz):
            zero_cols += 1
            continue
        key = tuple(mul[inv[col[nz[0]]], col].tolist())
        classes[key] = classes.get(key, 0) + 1
    b1 = (q - 1) * zero_cols
    b2 = (q - 1) * sum(comb(m, 2) for m in classes.values()) + (q - 1) ** 2 * comb(zero_cols, 2)
    a = [int(c) for c in hist]
    assert sum(a) == q**k
    assert sum(i * c for i, c in enumerate(a)) == q ** (k - 1) * ((q - 1) * n - b1)
    assert sum(i * i * c for i, c in enumerate(a)) == q ** (k - 2) * (
        (q - 1) * n * ((q - 1) * n + 1) - (2 * (q - 1) * n + 2 - q) * b1 + 2 * b2)


def _direct_scan(f, rows):
    """The weight histogram of every F_q-combination of rows, the zero word included."""
    add, mul, _, _ = f.np_tables()
    n = rows.shape[1]
    tails = np.zeros((1, n), dtype=rows.dtype)
    for row in rows[1:]:
        tails = add[tails[:, None, :], mul[:, row][None, :, :]].reshape(-1, n)
    return sum(np.bincount(np.count_nonzero(add[tails, mul[c0, rows[0]]], axis=1), minlength=n + 1)
               for c0 in range(f.q))


@pytest.mark.parametrize("q, rows", [(3, 9), (4, 7), (9, 5)])
def test_exhaustive_scan_matches_direct_enumeration(q, rows):
    # in extension fields the scan must reach every F_q multiple of each row,
    # not only the prime-subfield ones
    f, sub = _subcode(q, rows)
    assert np.array_equal(_exhaustive_scan(f, sub)[0], _direct_scan(f, sub))


@pytest.mark.parametrize("q, rows", [(3, 9), (5, 5), (9, 4)])
def test_exhaustive_scan_steps_outer_generators(monkeypatch, q, rows):
    """A block target of p packed codewords splits every head row's tails
    into blocks of p, and rows r_i + 2*r_(i-1) spread the minimum words over
    messages that span several rows; the histogram is still the direct
    enumeration's."""
    f = field(q)
    basis = _reduced_basis(build_generator(f))
    monkeypatch.setattr(codes, "_BLOCK_BYTES", f.p * _packed_row_bytes(q, basis.shape[1]))
    sub = basis[:rows].copy()
    for i in range(1, rows):
        sub[i] = _np_add(f, sub[i], f.np_tables()[1][2, sub[i - 1]])
    assert np.array_equal(_exhaustive_scan(f, sub)[0], _direct_scan(f, sub))


#: the most rows, at most 8, of a random code with q^k <= 3^8 messages
_SCAN_ROWS = {2: 8, 3: 8, 4: 6, 5: 5, 7: 4, 8: 4, 9: 4, 16: 3, 25: 2, 27: 2}


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(_SCAN_ROWS)), n=st.integers(1, 70), tiny=st.booleans(), data=st.data())
def test_exhaustive_scan_matches_direct_scan_on_random_codes(q, n, tiny, data):
    """On random codes over prime, 2^e and odd-extension fields, with
    k = 1..8 rows (odd and even k, so heads of every size from none on)
    and often a row that is a multiple of an earlier one, the scan returns
    the direct enumeration's histogram of each coset class, for every
    number of coset rows; also with _BLOCK_BYTES cut to one packed
    codeword, where every block weighs a single message.  Class 0 is the
    zero message on the coset rows, and class i > 0 the i-th such message
    whose first nonzero digit is 1."""
    f = field(q)
    k = data.draw(st.integers(1, _SCAN_ROWS[q]))
    cosets = data.draw(st.integers(0, k))
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                       min_size=k, max_size=k)), dtype=np.uint8)
    if k > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(0, k - 2))
        j = data.draw(st.integers(i + 1, k - 1))
        rows[j] = f.np_tables()[1][data.draw(st.integers(0, q - 1)), rows[i]]
    block = _packed_row_bytes(q, n) if tiny else codes._BLOCK_BYTES
    with mock.patch.object(codes, "_BLOCK_BYTES", block):
        hist = _exhaustive_scan(f, rows, cosets=cosets)
    weights = np.count_nonzero(_all_codewords(f, rows), axis=1).reshape(q**cosets, -1)
    leads = [0] + [t for e in range(cosets) for t in range(q**e, 2 * q**e)]
    assert np.array_equal(hist, [np.bincount(weights[t], minlength=n + 1) for t in leads])
    if not cosets:
        assert np.array_equal(hist[0], _direct_scan(f, rows))


def test_weight_distribution_q2():
    wd = weight_distribution(field(2))
    assert sum(wd.values()) == 2**14
    assert wd[0] == 1
    assert min(w for w in wd if w) == 8
    assert set(wd) == {0, 8, 12, 16, 20, 24}


def test_weight_distribution_budget_guard(monkeypatch):
    """weight_distribution has the distance's budget: the split's cost at
    q = 7 (its floor and exact cost alike, 2 * 7^10) and its exact cost
    2 * 8^10 at q = 8 are refused before any scan, and the floor 2 * 9^10
    at q = 9 before any elimination.  No refusal names the witness method,
    which only the distance has."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the budget must refuse before this runs")

    monkeypatch.setattr(codes, "_exhaustive_scan", forbidden)
    with pytest.raises(BudgetExceeded, match="needs at least 564950498 ") as r7:
        weight_distribution(field(7), budget=564_950_497)
    with pytest.raises(BudgetExceeded, match="needs 2147483648 ") as r8:
        weight_distribution(field(8))
    f = field(9)
    rank_dimension(build_generator(f))  # the reduced basis, cached before row_reduce is replaced
    monkeypatch.setattr(codes, "row_reduce", forbidden)
    with pytest.raises(BudgetExceeded, match="needs at least 6973568802 ") as r9:
        weight_distribution(f)
    assert not any("witness" in str(r.value) for r in (r7, r8, r9))


@pytest.mark.parametrize("q", [4, 5])
def test_weight_distribution_threads_match(monkeypatch, q):
    """At q = 4 and 5 each side takes fewer than _POOL_BLOCKS blocks (11 and
    196), so a process with two CPUs scans them inline and builds no pool."""
    import concurrent.futures

    def forbidden(*args, **kwargs):
        raise AssertionError("a scan below _POOL_BLOCKS blocks built a thread pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", forbidden)
    assert weight_distribution(field(q)) == _golden_distribution(q)


def test_scan_invariant_under_basis_choice_q2():
    f = field(2)
    G = build_generator(f)
    basis1 = _reduced_basis(G)
    k = len(basis1)
    rng = random.Random(4)
    while True:
        # random invertible change of basis over GF(2)
        U = np.array([[rng.randrange(2) for _ in range(k)] for _ in range(k)], dtype=np.uint8)
        if len(row_reduce(f, U, range(k))[1]) == k:
            break
    basis2 = ((U.astype(np.int64) @ basis1.astype(np.int64)) % 2).astype(np.uint8)
    assert not np.array_equal(basis1, basis2)
    h1, h2 = _exhaustive_scan(f, basis1)[0], _exhaustive_scan(f, basis2)[0]
    assert _least(h1) == 8
    assert np.array_equal(h1, h2)


def _side_a(q):
    """(field, rows, cosets): the arguments of the family split's first side scan at q, which is not run."""
    class Found(Exception):
        pass

    def scan(f, rows, cosets=0):
        raise Found(rows, cosets)

    f = field(q)
    with mock.patch.object(codes, "_exhaustive_scan", scan), pytest.raises(Found) as found:
        _split(f, _reduced_basis(build_generator(f)), family_mask(q), 10**12)
    return (f, *found.value.args)


def _pool_every_scan(monkeypatch, cpus):
    """Make the process see ``cpus`` CPUs and pool every scan of one block or more:
    with more than one CPU, every scan goes to a pool of one thread per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(codes, "_POOL_BLOCKS", 1)


@pytest.mark.parametrize("q, rows", [(2, None), (3, 9), (9, 5), (4, "CA")])
def test_scan_threads_deterministic(monkeypatch, q, rows):
    """Three CPUs, more than the cores, give one CPU's histograms.  On the
    q = 4 side "CA" (the six coset rows of T and four of K_A) a block
    target of 64 packed codewords cuts each head row's 256 tails into four
    blocks, so the blocks of one histogram row land on different workers,
    which add them under the lock, switching as often as the interpreter
    allows: a lost update would change a count in one of five runs."""
    cosets = 0
    if rows == "CA":
        f, basis, cosets = _side_a(q)
        assert basis.shape[0] - cosets == 4 and cosets == 6
        monkeypatch.setattr(codes, "_BLOCK_BYTES", 64 * _packed_row_bytes(q, basis.shape[1]))
    else:
        f, basis = _subcode(q, rows)
    _pool_every_scan(monkeypatch, cpus=1)
    one = _exhaustive_scan(f, basis, cosets=cosets)
    _pool_every_scan(monkeypatch, cpus=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(_exhaustive_scan(f, basis, cosets=cosets), one)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("q, h", [(5, 5), (4, 6)])
def test_scan_packs_only_the_head_words_it_weighs(monkeypatch, q, h):
    """A side scan of the family split packs the zero word and one head word
    per scalar class, 1 + (q^h - 1)/(q - 1), and the q^(10-h) tail words:
    at q = 5 the head is 5 of the 10 rows (no cosets), at q = 4 the six
    coset rows of T."""
    f, rows, cosets = _side_a(q)
    assert (len(rows), cosets) == (10, 0 if q % 2 else h)
    sizes, pack = [], codes._pack

    def recorded(x, planes):
        sizes.append(len(x))
        return pack(x, planes)

    monkeypatch.setattr(codes, "_pack", recorded)
    _exhaustive_scan(f, rows, cosets=cosets)
    *head, tail = sizes
    assert (sum(head), tail) == (1 + (q**h - 1) // (q - 1), q ** (10 - h))


def test_full_scan_with_one_thread_runs_inline(monkeypatch):
    """A process with one CPU never builds a pool, not even for a scan of
    more than _POOL_BLOCKS blocks, which two CPUs share in a pool of two."""
    import concurrent.futures

    f, basis = _subcode(3, 13)
    monkeypatch.setattr(codes, "_BLOCK_BYTES", 64 * _packed_row_bytes(3, basis.shape[1]))
    assert (1 + (3**6 - 1) // 2) * -(-3**7 // 64) > codes._POOL_BLOCKS  # head rows, each in 35 blocks
    pools = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threaded = _exhaustive_scan(f, basis)
    assert pools == [{"max_workers": 2}]  # a scan above _POOL_BLOCKS blocks reaches the pool

    def forbidden(*args, **kwargs):
        raise AssertionError("a one-CPU scan built a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", forbidden)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert np.array_equal(_exhaustive_scan(f, basis), threaded)
    assert weight_distribution(field(2)) == _golden_distribution(2)


def test_import_leaves_the_thread_pool_unloaded():
    """Only a pooled full scan uses concurrent.futures (and the logging it
    loads), so importing the package and building a field leave it out."""
    src = os.path.dirname(os.path.dirname(codes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ograss; ograss.field(3); print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_threaded_scan_within_one_block_leaves_the_thread_pool_unloaded():
    """At q = 2 every part of the family split fits one block and runs
    inline, so two CPUs build no pool and never import concurrent.futures."""
    src = os.path.dirname(os.path.dirname(codes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import os, sys, ograss; os.sched_getaffinity = lambda pid: {0, 1}; "
            "d = ograss.minimum_distance(ograss.field(2)).distance; "
            "print(d, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "8 False"


def test_sampled_messages_direct_recount():
    # engine weights against the scalar evaluation path, on 164 random coefficient vectors at q = 2
    f = field(2)
    G = build_generator(f)
    rng = random.Random(9)
    pts = enumerate_points(f)
    for _ in range(164):
        fn = MinorFunction(f, tuple(rng.randrange(2) for _ in range(len(COLUMN_SETS))))
        engine = int(np.count_nonzero(codeword(fn, G)))
        direct = sum(1 for pt in pts if fn.evaluate(pt.matrix) != 0)
        assert engine == direct


@pytest.mark.parametrize("q", [2, 4])
def test_even_q_generator_rows_repeat_on_reflected_complements(q):
    G = build_generator(field(q))
    for A in COLUMN_SETS:
        assert np.array_equal(G.row(A), G.row(reflected_complement(A)))


def test_verify_q2_report():
    rep = verify(field(2))
    assert rep.passed
    assert (rep.n, rep.dimension, rep.distance, rep.distance_exact) == (30, 14, 8, True)
    lines = rep.lines()
    assert lines[0].endswith("n=30 k=14 d=8")
    assert all(line.startswith(("PASS", "polar", "15/15")) for line in lines)


_ORACLE_FIELDS = [(2, None), (3, None), (4, None), (5, None), (7, None), (8, None), (9, None), (9, (2, 1, 1))]


@pytest.mark.parametrize("q, poly", _ORACLE_FIELDS)
def test_array_oracles_match_scalar_references(q, poly):
    """The direct minors and the singularity mask of verify, against ``minor`` and ``FormSpace``."""
    f = field(q, poly)
    pts = enumerate_points(f)
    mats = np.concatenate([cell_matrices(f, pivots) for pivots in CELL_ORDER], axis=2)
    assert np.array_equal(_direct_minors(f, mats), [[minor(p.matrix, A) for p in pts] for A in COLUMN_SETS])
    assert totally_singular_mask(f, mats).all()
    # random 3x6 matrices, most of them not totally singular
    rng = np.random.default_rng(q)
    mats = rng.integers(0, q, size=(3, 6, 300)).astype(mats.dtype)
    mats[:, :, :q] = 0  # the zero matrix is singular
    mats[0, 0, 1:q] = np.arange(1, q)  # a lone nonzero x1 (x6 = 0): Q and B still vanish
    space = FormSpace(f, 3)
    reps = [MatrixRep(f, mats[:, :, i].tolist()) for i in range(mats.shape[2])]
    mask = totally_singular_mask(f, mats)
    assert mask.tolist() == [space.is_totally_singular(M) for M in reps]
    assert 0 < mask.sum() < len(mask)
    assert np.array_equal(_direct_minors(f, mats), [[minor(M, A) for M in reps] for A in COLUMN_SETS])


def _corrupt_point(mats):
    mats[0, 0, 0] = 1  # row e6 of the first P456 point becomes e1 + e6, where Q = 1


def _duplicate_point(mats):
    mats[:, :, 0] = mats[:, :, 1]


def _mirror_pivots(mats):
    mats[2, :, 0] = 0
    mats[2, 0, 0] = 1  # pivots 6, 5, 1: columns 1 and 6 are mirrored


def _row_operation(mats):
    # row 1 += row 2 of the first P456 (or P356) point, (0,0,0,0,0,1) + (0,0,0,0,1,0) with disjoint
    # supports: the same space and minors in every field, but not the canonical representative
    mats[0, :, 0] += mats[1, :, 0]


_SWAP = "column 3/4 swap pairs the cells bijectively"
_REDUCED = "representatives in right-to-left reduced form"
_SCAN = "cell enumeration equals reduced-form scan"
_DIRECT = "pivot expansion equals direct minor"


@pytest.mark.parametrize("corrupt, failing", [
    (_corrupt_point, {"points totally singular", _SCAN, _SWAP, _DIRECT}),
    (_duplicate_point, {"representatives pairwise distinct", _SCAN, _SWAP, _DIRECT}),
    (_mirror_pivots, {"pivot sets avoid mirrored column pairs", "points totally singular", _SCAN, _SWAP, _DIRECT}),
    (_row_operation, {_REDUCED, _SCAN, _SWAP}),
])
def test_verify_point_checks_fail_on_corrupted_cells(monkeypatch, corrupt, failing):
    f = field(3)
    build_generator(f)  # cached from the true cells before they are corrupted

    def corrupted(f, pivots):
        mats = cell_matrices(f, pivots)
        if pivots == (4, 5, 6):
            corrupt(mats)
        return mats

    monkeypatch.setattr(codes, "cell_matrices", corrupted)
    rep = verify(f, budget=1000)
    assert {c.name for c in rep.checks if not c.passed} == failing


def _verify_failures(monkeypatch, q, corrupted_cells):
    """Names of the checks verify fails at q with the row operation applied to the first point of these cells."""
    def corrupted(f, pivots):
        mats = cell_matrices(f, pivots)
        if pivots in corrupted_cells:
            _row_operation(mats)
        return mats

    monkeypatch.setattr(codes, "cell_matrices", corrupted)
    return [c.name for c in verify(field(q), budget=1000).checks if not c.passed]


@pytest.mark.parametrize("q", [4, 8])
def test_verify_swap_check_fails_on_a_non_canonical_representative(monkeypatch, q):
    """Beyond q = 3 there is no reduced-form scan; the reduced-form and swap checks see the row operation."""
    assert _verify_failures(monkeypatch, q, {(4, 5, 6)}) == [_REDUCED, _SWAP]


@pytest.mark.parametrize("q", [4, 8])
def test_verify_reduced_form_check_fails_on_a_swap_pair_changed_alike(monkeypatch, q):
    """The row operation on the first point of both P456 and P356: the swapped arrays still agree,
    the space, minors and pivots are unchanged, and only the reduced-form check sees it."""
    assert _verify_failures(monkeypatch, q, {(4, 5, 6), (3, 5, 6)}) == [_REDUCED]


def test_verify_direct_minor_check_fails_on_a_flipped_generator_entry(monkeypatch):
    f = field(3)
    G = build_generator(f)
    matrix = G.matrix.copy()
    matrix[7, 11] = f.add(int(matrix[7, 11]), 1)
    monkeypatch.setattr(codes, "build_generator", lambda f: GeneratorMatrix(field=f, matrix=matrix))
    rep = verify(f, budget=1000)
    check = next(c for c in rep.checks if c.name == "pivot expansion equals direct minor")
    assert (check.expected, check.actual, check.passed) == (0, 1, False)


_DUALITY = "reduced index transpose duality"


def _corrupted(block, pivots, kind):
    """block with one extra row (a copy of its first), one extra column (a copy of each row's
    first position) or its first position moved onto the first pivot column.  The 0 x 0 block
    has no row or position to copy or move, so it gains a row of its own: empty for "row", and
    for "column" and "pivot" one position on row 0 and on the last non-pivot column (off the
    diagonal of the skew block, which a self-paired set's transpose would keep) or the first
    pivot column."""
    if not block:
        free = max(set(range(6)) - {c - 1 for c in pivots})
        return {"row": ((),), "column": (((0, free),),), "pivot": (((0, pivots[0] - 1),),)}[kind]
    if kind == "row":
        return block + block[:1]
    if kind == "column":
        return tuple(row + row[:1] for row in block)
    (r, _), *rest = block[0]
    return (((r, pivots[0] - 1), *rest), *block[1:])


@pytest.mark.parametrize("kind", ["row", "column", "pivot"])
@pytest.mark.parametrize("A, I", [((1, 2, 3), (4, 5, 6)), ((2, 3, 6), (1, 3, 5)), ((1, 4, 5), (1, 4, 5))])
def test_verify_duality_check_fails_on_one_corrupted_plan_entry(monkeypatch, A, I, kind):
    """The check reads every column set's block against its reflected complement's on every
    cell, so one corrupted entry of one plan fails it, and it alone; the generator reads
    the plans through its own binding and stays correct."""
    plan = list(expansion_plan(I))
    block, negate = plan[COLUMN_SETS.index(A)]
    plan[COLUMN_SETS.index(A)] = (_corrupted(block, I, kind), negate)
    monkeypatch.setattr(codes, "expansion_plan", lambda pivots: tuple(plan) if pivots == I else expansion_plan(pivots))
    rep = verify(field(3), budget=1000)
    assert [c.name for c in rep.checks if not c.passed] == [_DUALITY]
    assert f"FAIL {_DUALITY}: expected True, got False" in rep.lines()


def test_verify_computes_each_cell_plan_once(monkeypatch):
    """The generator's minors and verify's duality check read one cached plan per cell:
    from empty caches, verify computes each of the eight plans once."""
    monkeypatch.setattr(codes, "build_generator", build_generator.__wrapped__)  # past the cache
    expansion_plan.cache_clear()
    assert verify(field(3), budget=1000).passed
    info = expansion_plan.cache_info()
    assert info.misses == info.currsize == len(CELL_ORDER) == 8
    assert info.hits >= len(CELL_ORDER)


def test_verify_q5_upper_bound_only():
    rep = verify(field(5), budget=10**6)
    assert rep.distance == 100 and not rep.distance_exact
    assert rep.passed


def test_macwilliams_identity_q2():
    """The full transform of the q = 2 code's weight distribution is the
    weight distribution of its dual, scanned from a parity-check basis, and
    ``macwilliams`` gives its first five terms."""
    f = field(2)
    basis = _reduced_basis(build_generator(f))
    k, n = basis.shape
    rref, pivots = row_reduce(f, basis, range(n))
    free = [c for c in range(n) if c not in pivots]
    dual = np.zeros((n - k, n), dtype=basis.dtype)
    for i, c in enumerate(free):
        dual[i, c] = 1
        dual[i, list(pivots)] = rref[:, c]  # -x = x over GF(2)
    assert not np.any((basis.astype(np.int64) @ dual.T.astype(np.int64)) % 2)
    assert len(row_reduce(f, dual, range(n))[1]) == n - k == 16
    a = _exhaustive_scan(f, basis)[0]
    b = _exhaustive_scan(f, dual)[0]

    def krawtchouk(j, i):
        return sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))

    for j in range(n + 1):
        assert 2**k * int(b[j]) == sum(int(a[i]) * krawtchouk(j, i) for i in range(n + 1))
    assert macwilliams(2, n, {i: int(c) for i, c in enumerate(a) if c}) == b[:5].tolist()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_macwilliams_checks_the_family_halves(q):
    """The scans of the family halves pass the check; moving one word to the
    next weight breaks the first moment, B_1 = -q / q^k, and fails it."""
    f, half = _family_half(q)
    hist = _exhaustive_scan(f, half)[0]
    dist = {w: int(c) for w, c in enumerate(hist) if c}
    b = macwilliams(q, half.shape[1], dist)
    assert b[:4] == [1, 0, 0, 0] and b[4] >= 0
    d = _least(hist)
    moved = dict(dist)
    moved[d] -= 1
    moved[d + 1] = moved.get(d + 1, 0) + 1
    with pytest.raises(ValueError, match="MacWilliams identity: its dual would have B_1 = "):
        macwilliams(q, half.shape[1], moved)


@pytest.mark.parametrize("q, b4", [(2, 0), (3, 520), (4, 10710), (5, 96720)])
def test_macwilliams_of_the_whole_codes(q, b4):
    assert macwilliams(q, point_count(q), _golden_distribution(q)) == [1, 0, 0, 0, b4]
