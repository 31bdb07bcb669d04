import time
from itertools import product

import numpy as np
import pytest

from ograss.forms import FormSpace
from ograss.gf import field
from ograss.polar import (
    CELL_ARITY,
    CELL_ORDER,
    CostGuardExceeded,
    brute_force_points,
    build_cell,
    cell_grid,
    cell_matrices,
    cell_slices,
    enumerate_points,
    point_count,
    swap34_map,
)


def test_fixed_cells():
    f = field(2)
    assert build_cell(f, (1, 2, 3), ()).rows == (
        (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
    assert build_cell(f, (1, 2, 4), ()).rows == (
        (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


def test_p456_zero_parameters():
    f = field(3)
    assert build_cell(f, (4, 5, 6), (0, 0, 0)).rows == (
        (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0))


def test_p246_over_f2_negation_is_identity():
    f = field(2)
    assert build_cell(f, (2, 4, 6), (1, 1)).rows == (
        (0, 0, 1, 0, 1, 1), (1, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0))


def test_cell_negations_odd_q():
    f = field(5)
    rows = build_cell(f, (4, 5, 6), (1, 2, 3)).rows
    assert rows[1][0] == f.neg(1)
    assert rows[2][0] == f.neg(2)
    assert rows[2][1] == f.neg(3)


def test_build_cell_validation():
    f = field(3)
    with pytest.raises(ValueError):
        build_cell(f, (4, 5, 6), (0, 0))
    with pytest.raises(ValueError):
        build_cell(f, (1, 2, 5), ())


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_point_count_law(q):
    pts = enumerate_points(field(q))
    assert len(pts) == point_count(q) == 2 * (q**3 + q**2 + q + 1)


def test_counts_small_q():
    assert len(enumerate_points(field(2))) == 30
    assert len(enumerate_points(field(3))) == 80
    assert len(enumerate_points(field(4))) == 170


@pytest.mark.parametrize("q", [2, 3, 5])
def test_cell_size_histogram(q):
    pts = enumerate_points(field(q))
    sizes = tuple(sum(1 for p in pts if p.pivots == piv) for piv in CELL_ORDER)
    assert sizes == (q**3, q**3, q**2, q**2, q, q, 1, 1)
    assert [CELL_ARITY[piv] for piv in CELL_ORDER] == [3, 3, 2, 2, 1, 1, 0, 0]


def test_frozen_point_order():
    pts = enumerate_points(field(2))
    assert pts[0].pivots == (4, 5, 6) and pts[0].params == (0, 0, 0)
    assert pts[1].params == (0, 0, 1)
    assert pts[2].params == (0, 1, 0)
    assert pts[-1].pivots == (1, 2, 3)
    slices = cell_slices(2)
    assert slices[0] == ((4, 5, 6), 0, 8)
    assert slices[-1] == ((1, 2, 3), 29, 30)
    for pivots, start, stop in slices:
        assert all(p.pivots == pivots for p in pts[start:stop])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pivot_exclusion(q):
    for p in enumerate_points(field(q)):
        assert not any(7 - i in p.pivots for i in p.pivots)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_points_totally_singular_and_distinct(q):
    f = field(q)
    pts = enumerate_points(f)
    space = FormSpace(f, 3)
    assert all(space.is_totally_singular(p.matrix) for p in pts)
    assert len({p.matrix.rows for p in pts}) == len(pts)


@pytest.mark.parametrize("q", [2, 3])
def test_enumeration_matches_brute_force(q):
    f = field(q)
    assert frozenset(p.matrix.rows for p in enumerate_points(f)) == brute_force_points(f)


def test_brute_force_histogram_q3():
    from ograss.grassmann import rref_right_to_left, MatrixRep
    f = field(3)
    forms = brute_force_points(f)
    assert len(forms) == 80
    counts = {}
    for rows in forms:
        _, piv = rref_right_to_left(MatrixRep(f, rows))
        counts[piv] = counts.get(piv, 0) + 1
    assert tuple(counts[piv] for piv in CELL_ORDER) == (27, 27, 9, 9, 3, 3, 1, 1)


def test_brute_force_cost_guard():
    with pytest.raises(CostGuardExceeded):
        brute_force_points(field(5))


def _point_index(q, pivots, params):
    """Coordinate of the point with these labels in the frozen order."""
    start = next(start for piv, start, _ in cell_slices(q) if piv == pivots)
    return start + sum(p * q ** (len(params) - 1 - i) for i, p in enumerate(params))


def test_swap34_pairs_cells():
    for q in (2, 3):
        pts = enumerate_points(field(q))
        perm = swap34_map(field(q))
        assert perm.dtype == np.intp and len(perm) == point_count(q)
        assert np.array_equal(np.sort(perm), np.arange(len(perm)))  # a bijection
        assert np.array_equal(perm[perm], np.arange(len(perm)))  # an involution
        assert sum(4 in p.pivots for p in pts) == q**3 + q**2 + q + 1  # cells 456, 246, 145, 124
        assert [_point_index(q, p.pivots, p.params) for p in pts] == list(range(len(pts)))
        for j, i in enumerate(perm.tolist()):
            src, dst = pts[j], pts[i]
            if 4 in src.pivots:
                assert dst.pivots == tuple(sorted((set(src.pivots) - {4}) | {3}))
            else:  # the inverse image of a cell without 4
                assert src.pivots == tuple(sorted((set(dst.pivots) - {4}) | {3}))
            assert dst.params == src.params  # parameters carry over unchanged


def test_swap34_singletons():
    perm = swap34_map(field(2))
    assert perm[_point_index(2, (1, 2, 4), ())] == _point_index(2, (1, 2, 3), ())
    assert perm[_point_index(2, (1, 2, 3), ())] == _point_index(2, (1, 2, 4), ())


@pytest.mark.parametrize("q", [2, 3])
def test_swap34_map_matches_scalar_column_swap(q):
    """Swapping columns 3 and 4 of point j's representative gives point perm[j]'s."""
    pts = enumerate_points(field(q))
    perm = swap34_map(field(q))
    for j, p in enumerate(pts):
        assert pts[perm[j]].matrix.rows == tuple(r[:2] + (r[3], r[2]) + r[4:] for r in p.matrix.rows)


@pytest.mark.parametrize("q, poly", [(11, None), (16, (1, 0, 0, 1, 1))])
def test_enumeration_equals_build_cell(q, poly):
    """The view of the cell arrays against the scalar path, beyond the golden fields."""
    f = field(q, poly)
    expected = [(pivots, params, build_cell(f, pivots, params))
                for pivots in CELL_ORDER for params in product(range(q), repeat=CELL_ARITY[pivots])]
    assert [(p.pivots, p.params, p.matrix) for p in enumerate_points(f)] == expected


def test_cell_matrices_layout():
    f = field(4)
    neg = f.np_tables()[2]
    for pivots in CELL_ORDER:
        mats = cell_matrices(f, pivots)
        assert mats.shape == (3, 6, 4 ** CELL_ARITY[pivots]) and mats.dtype == neg.dtype
    mats = cell_matrices(f, (4, 5, 6))
    assert mats[:, :, 6].tolist() == [list(r) for r in build_cell(f, (4, 5, 6), (0, 1, 2)).rows]


@pytest.mark.parametrize("q, poly", [(2, None), (3, None), (4, None), (5, None), (9, (2, 1, 1))])
def test_cell_matrices_are_the_raveled_grid(q, poly):
    """Entry (r, c) of a cell array is entry (r, c) of the open grid broadcast to (q,)*arity and
    raveled in C order: the generator's columns and the points come from one construction."""
    f = field(q, poly)
    for pivots in CELL_ORDER:
        shape = (q,) * CELL_ARITY[pivots]
        expected = [[np.broadcast_to(entry, shape).ravel() for entry in row] for row in cell_grid(f, pivots)]
        assert np.array_equal(cell_matrices(f, pivots), np.array(expected))


def test_swap34_q49_under_two_seconds():
    f = field(49)
    start = time.perf_counter()
    perm = swap34_map(f)
    assert time.perf_counter() - start < 2
    assert len(perm) == point_count(49)
    assert np.array_equal(perm[perm], np.arange(len(perm)))
    assert perm[_point_index(49, (4, 5, 6), (48, 0, 7))] == _point_index(49, (3, 5, 6), (48, 0, 7))
