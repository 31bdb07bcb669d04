import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ograss.gf import FieldMismatchError, field
from ograss.grassmann import (
    COLUMN_SETS,
    MatrixRep,
    MinorFunction,
    RankDeficientError,
    det,
    expand_minor,
    expansion_plan,
    minor,
    reflected_complement,
    rref_right_to_left,
)
from ograss.polar import CELL_ORDER, build_cell, enumerate_points


def test_column_sets_are_lexicographic():
    assert len(COLUMN_SETS) == 20
    assert COLUMN_SETS[0] == (1, 2, 3)
    assert COLUMN_SETS[1] == (1, 2, 4)
    assert COLUMN_SETS[-1] == (4, 5, 6)
    assert list(COLUMN_SETS) == sorted(COLUMN_SETS)


def test_matrix_validation():
    f = field(3)
    with pytest.raises(ValueError):
        MatrixRep(f, ((0, 1), (1,)))
    with pytest.raises(ValueError):
        MatrixRep(f, ((0, 1, 5),))
    M = MatrixRep(f, [[0, 1, 2], [1, 0, 0]])
    assert M.rows == ((0, 1, 2), (1, 0, 0))


def test_det_small_sizes():
    f = field(7)
    assert det(f, []) == 1
    assert det(f, [[4]]) == 4
    assert det(f, [[1, 2], [3, 4]]) == f.sub(4, 6)
    assert det(f, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == f.neg(1)
    with pytest.raises(ValueError):
        det(f, [[1, 0, 0, 0]] * 4)


def test_minor_values_on_p456():
    # a2, a3, a5 = 2, 3, 4 over F_5
    f = field(5)
    M = build_cell(f, (4, 5, 6), (2, 3, 4))
    assert minor(M, (4, 5, 6)) == f.neg(1)
    assert minor(M, (2, 3, 6)) == f.mul(4, 4)          # a5^2
    assert minor(M, (1, 2, 5)) == f.neg(f.mul(2, 3))   # -a2*a3
    assert minor(M, (1, 3, 4)) == f.mul(2, 3)          # a2*a3
    assert minor(M, (3, 4, 6)) == 4                    # a5
    assert minor(M, (1, 2, 3)) == 0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_rref_keeps_cells_canonical(q):
    f = field(q)
    for pt in enumerate_points(f):
        reduced, pivots = rref_right_to_left(pt.matrix)
        assert reduced.rows == pt.matrix.rows
        assert pivots == pt.pivots


def test_rref_identity_left_block():
    f = field(5)
    M = MatrixRep(f, ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)))
    reduced, pivots = rref_right_to_left(M)
    assert pivots == (1, 2, 3)
    assert reduced.rows == ((0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


def test_rref_recovers_cell_from_row_mixing():
    f = field(3)
    rng = random.Random(7)
    target = build_cell(f, (2, 4, 6), (1, 2))
    for _ in range(25):
        while True:
            U = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
            if det(f, U) != 0:
                break
        mixed = MatrixRep(f, np.array(U) @ np.array(target.rows) % 3)
        reduced, pivots = rref_right_to_left(mixed)
        assert pivots == (2, 4, 6)
        assert reduced.rows == target.rows


def test_rref_rank_deficient():
    f = field(2)
    with pytest.raises(RankDeficientError):
        rref_right_to_left(MatrixRep(f, ((1, 0, 0, 0, 0, 0),) * 3))


def test_evaluate_single_minor_even_q():
    f = field(2)
    fn = MinorFunction.single(f, (4, 5, 6))
    M = build_cell(f, (4, 5, 6), (1, 0, 1))
    assert fn.evaluate(M) == 1


def test_evaluate_witness_combination_vanishes_at_unit():
    # value on P456 is a5^2 - 1, zero exactly at a5 = +-1
    f = field(5)
    fn = MinorFunction.from_map(f, {(2, 3, 6): 1, (4, 5, 6): 1})
    for a5 in range(5):
        val = fn.evaluate(build_cell(f, (4, 5, 6), (2, 3, a5)))
        assert (val == 0) == (a5 in (1, 4))


def test_evaluate_zero_function():
    f = field(3)
    z = MinorFunction(f, (0,) * 20)
    assert all(z.evaluate(pt.matrix) == 0 for pt in enumerate_points(f))


def test_coefficient_validation():
    f = field(3)
    with pytest.raises(ValueError):
        MinorFunction(f, (0,) * 19)
    with pytest.raises(ValueError):
        MinorFunction(f, (0,) * 19 + (3,))
    with pytest.raises(ValueError):
        MinorFunction.from_map(f, {(1, 2, 7): 1})


def test_field_mismatch_rejected():
    f2, f3 = field(2), field(3)
    fn = MinorFunction.single(f2, (1, 2, 3))
    M = build_cell(f3, (1, 2, 3), ())
    with pytest.raises(FieldMismatchError):
        fn.evaluate(M)
    # equal order, different defining polynomials
    with pytest.raises(FieldMismatchError):
        MinorFunction.single(field(9), (1, 2, 3)).evaluate(build_cell(field(9, [2, 1, 1]), (1, 2, 3), ()))


def _csv(fn):
    """The comma-separated coefficient form, 20 encodings in lexicographic column-set order."""
    return ",".join(map(str, fn.coeffs))


def _json(fn):
    """The JSON-array coefficient form."""
    return json.dumps(list(fn.coeffs))


def test_serialization_formats():
    f = field(4)
    fn = MinorFunction.from_map(f, {(1, 2, 3): 2, (4, 5, 6): 3})
    assert MinorFunction.parse(f, "2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,3") == fn
    assert MinorFunction.parse(f, "[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3]") == fn
    with pytest.raises(ValueError):
        MinorFunction.parse(f, "1,2,3")


@pytest.mark.parametrize("entry", ["1.5", "2.9", "true", "false", '"2"'])
def test_json_parse_rejects_entries_that_are_not_integers(entry):
    """A float, a bool or a string is an error, not an int() of it."""
    with pytest.raises(ValueError, match="is not an integer"):
        MinorFunction.parse(field(3), "[" + ",".join([entry] + ["0"] * 19) + "]")


@pytest.mark.parametrize("entry", ["1_0", "\u0663", "+1", "-1", "1.5", "0x1", "\u00b2", ""],
                         ids=["underscore", "arabic-indic", "plus", "minus", "float", "hex", "superscript", "empty"])
def test_csv_parse_rejects_entries_that_are_not_decimal_digits(entry):
    """Only ASCII decimal digits are read; int() would take 1_0 as 10, \u0663 as 3 and +1 as 1."""
    with pytest.raises(ValueError, match="is not a decimal integer"):
        MinorFunction.parse(field(49), ",".join([entry] + ["0"] * 19))


def test_csv_parse_strips_whitespace_around_entries():
    f = field(49)
    assert MinorFunction.parse(f, " 10 ,\t3," + ",".join(["0"] * 18) + "\n").coeffs == (10, 3) + (0,) * 18


@settings(max_examples=100)
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_serialization_roundtrip(q, data):
    f = field(q)
    coeffs = data.draw(st.tuples(*[st.integers(0, q - 1)] * 20))
    fn = MinorFunction(f, coeffs)
    assert MinorFunction.parse(f, _csv(fn)) == fn
    assert MinorFunction.parse(f, _json(fn)) == fn


def test_reflected_complement():
    assert reflected_complement((4, 5, 6)) == (4, 5, 6)
    assert reflected_complement((1, 2, 5)) == (1, 3, 4)
    assert reflected_complement((1, 2, 3)) == (1, 2, 3)
    assert reflected_complement((1, 2, 6)) == (2, 3, 4)


def test_reflected_complement_is_involution():
    for A in COLUMN_SETS:
        assert reflected_complement(reflected_complement(A)) == A
    fixed = [A for A in COLUMN_SETS if reflected_complement(A) == A]
    assert tuple(sorted(fixed)) == tuple(sorted(CELL_ORDER))


def test_reduced_minor_indices():
    """Four entries on the cell P456, whose rows 0, 1, 2 carry their 1s on the 0-based columns
    5, 4, 3: the pivot columns in A leave the rows they miss on A's non-pivot columns. Read as
    1-based (rows, skew columns), the blocks are the reduced minor indices."""
    plan = dict(zip(COLUMN_SETS, expansion_plan((4, 5, 6))))
    assert plan[2, 3, 6][0] == (((1, 1), (1, 2)), ((2, 1), (2, 2)))
    assert plan[1, 2, 5][0] == (((0, 0), (0, 1)), ((2, 0), (2, 1)))
    assert plan[4, 5, 6][0] == ()
    assert plan[1, 2, 3][0] == (((0, 0), (0, 1), (0, 2)), ((1, 0), (1, 1), (1, 2)), ((2, 0), (2, 1), (2, 2)))

    def reduced(block):  # on P456 the skew columns are the matrix columns 0, 1, 2
        rows = tuple(row[0][0] + 1 for row in block)
        columns = tuple(c + 1 for _, c in block[0]) if block else ()
        return rows, columns

    assert reduced(plan[2, 3, 6][0]) == ((2, 3), (2, 3))
    assert reduced(plan[1, 2, 5][0]) == ((1, 3), (1, 2))
    assert reduced(plan[4, 5, 6][0]) == ((), ())
    assert reduced(plan[1, 2, 3][0]) == ((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="not self-paired"):
        expansion_plan((1, 2, 5))


def test_expansion_sign_frozen_cases():
    """The sign of each P456 expansion is the plan's negate flag."""
    plan = dict(zip(COLUMN_SETS, expansion_plan((4, 5, 6))))
    sign = {A: -1 if plan[A][1] else 1 for A in [(4, 5, 6), (2, 3, 6), (1, 2, 5), (1, 2, 3)]}
    assert sign[4, 5, 6] == -1  # the anti-diagonal identity: det = -1
    assert sign[2, 3, 6] == 1
    assert sign[1, 2, 5] == -1
    assert sign[1, 2, 3] == 1


@pytest.mark.parametrize("pivots", [(1, 2, 5), (4, 5), (6, 5, 4)])
def test_expansion_plan_refuses_a_pivot_set_that_is_not_self_paired(pivots):
    with pytest.raises(ValueError, match="not self-paired"):
        expansion_plan(pivots)


def test_transpose_duality_exhaustive():
    """On every cell, the block of A transposed in the skew block (matrix column c is its
    column free.index(c)) is the block of A's reflected complement: all 160 pairs."""
    for I in CELL_ORDER:
        free = [c for c in range(6) if c + 1 not in I]
        plan = dict(zip(COLUMN_SETS, expansion_plan(I)))
        for A in COLUMN_SETS:
            block = plan[A][0]
            assert all(len(row) == len(block) for row in block)
            transposed = tuple(tuple((free.index(c), free[r]) for r, c in col) for col in zip(*block))
            assert transposed == plan[reflected_complement(A)][0]


@pytest.mark.parametrize("q", [2, 3])
def test_expand_minor_equals_direct_minor(q):
    f = field(q)
    for pt in enumerate_points(f):
        for A in COLUMN_SETS:
            assert expand_minor(pt.matrix, A) == minor(pt.matrix, A)


def test_expand_minor_requires_canonical_input():
    f = field(3)
    M = build_cell(f, (4, 5, 6), (1, 2, 0))
    scrambled = MatrixRep(f, (M.rows[1], M.rows[0], M.rows[2]))
    with pytest.raises(ValueError):
        expand_minor(scrambled, (4, 5, 6))


def test_even_q_reflected_pairs_evaluate_equal():
    for q in (2, 4):
        f = field(q)
        for pt in enumerate_points(f):
            for A in COLUMN_SETS:
                fa = MinorFunction.single(f, A)
                fs = MinorFunction.single(f, reflected_complement(A))
                assert fa.evaluate(pt.matrix) == fs.evaluate(pt.matrix)

