import random

import pytest
from hypothesis import given, settings, strategies as st

from ograss.forms import FormSpace
from ograss.gf import FieldMismatchError, field
from ograss.grassmann import (
    COLUMN_SETS,
    ColumnTransform,
    MatrixRep,
    MinorFunction,
    RankDeficientError,
    apply_transform,
    det,
    expand_minor,
    expansion_sign,
    identity_transform,
    mat_mul,
    minor,
    mirrored_permutation,
    paired_column_operation,
    reduced_minor_indices,
    reflected_complement,
    rref_right_to_left,
    third_compound,
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
    assert (M.ell, M.m) == (2, 3)


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
        mixed = MatrixRep(f, mat_mul(f, U, target.rows))
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
    z = MinorFunction.zero(f)
    assert all(z.evaluate(pt.matrix) == 0 for pt in enumerate_points(f))


def test_support():
    f = field(5)
    fn = MinorFunction.from_map(f, {(2, 3, 6): 1, (4, 5, 6): 4})
    assert fn.support() == ((2, 3, 6), (4, 5, 6))
    assert MinorFunction.zero(f).support() == ()


def test_support_of_scaled_multiple_collapses():
    # the coefficient 3 is 0 in characteristic 3
    f = field(3)
    fn = MinorFunction.single(f, (1, 2, 3), coeff=f.from_int(3))
    assert fn.support() == ()


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
    with pytest.raises(FieldMismatchError):
        fn.plus(MinorFunction.single(f3, (1, 2, 3)))
    with pytest.raises(FieldMismatchError):
        identity_transform(f2).apply_to(M)


def test_serialization_formats():
    f = field(4)
    fn = MinorFunction.from_map(f, {(1, 2, 3): 2, (4, 5, 6): 3})
    assert MinorFunction.parse(f, fn.to_csv()) == fn
    assert MinorFunction.parse(f, fn.to_json()) == fn
    assert fn.to_csv().count(",") == 19
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
    assert MinorFunction.parse(f, fn.to_csv()) == fn
    assert MinorFunction.parse(f, fn.to_json()) == fn


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
    assert reduced_minor_indices((2, 3, 6), (4, 5, 6)) == ((2, 3), (2, 3))
    assert reduced_minor_indices((1, 2, 5), (4, 5, 6)) == ((1, 3), (1, 2))
    assert reduced_minor_indices((4, 5, 6), (4, 5, 6)) == ((), ())
    assert reduced_minor_indices((1, 2, 3), (4, 5, 6)) == ((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        reduced_minor_indices((1, 2, 3), (1, 2, 5))  # pivot set not self-paired


def test_transpose_duality_exhaustive():
    for I in CELL_ORDER:
        for A in COLUMN_SETS:
            r_a, c_a = reduced_minor_indices(A, I)
            r_s, c_s = reduced_minor_indices(reflected_complement(A), I)
            assert r_a == c_s
            assert c_a == r_s


def test_expansion_sign_frozen_cases():
    assert expansion_sign((4, 5, 6), (4, 5, 6)) == -1
    assert expansion_sign((2, 3, 6), (4, 5, 6)) == 1
    assert expansion_sign((1, 2, 5), (4, 5, 6)) == -1
    assert expansion_sign((1, 2, 3), (4, 5, 6)) == 1


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


# ---------------------------------------------------------------------------
# column transforms
# ---------------------------------------------------------------------------

def test_singular_transform_rejected():
    f = field(3)
    with pytest.raises(ValueError):
        ColumnTransform(f, tuple(tuple(0 for _ in range(6)) for _ in range(6)))


def test_paired_operation_zero_is_identity():
    f = field(5)
    assert paired_column_operation(f, 1, 2, 0).matrix == identity_transform(f).matrix


def test_paired_operation_inverse_composition():
    f = field(7)
    T = paired_column_operation(f, 2, 4, 3)
    Tinv = paired_column_operation(f, 2, 4, f.neg(3))
    assert T.matmul(Tinv).matrix == identity_transform(f).matrix


def test_paired_operation_invalid_pairs():
    f = field(3)
    with pytest.raises(ValueError):
        paired_column_operation(f, 2, 5, 1)  # i = 7 - j
    with pytest.raises(ValueError):
        paired_column_operation(f, 3, 3, 1)
    with pytest.raises(ValueError):
        paired_column_operation(f, 0, 2, 1)


def test_paired_operation_preserves_singularity_q3():
    f = field(3)
    space = FormSpace(f, 3)
    pts = enumerate_points(f)
    rng = random.Random(11)
    for _ in range(40):
        while True:
            i, j = rng.randrange(1, 7), rng.randrange(1, 7)
            if i != j and i != 7 - j:
                break
        T = paired_column_operation(f, i, j, rng.randrange(3))
        for pt in pts:
            assert space.is_totally_singular(T.apply_to(pt.matrix))


def test_mirrored_permutation_swap():
    f = field(3)
    T = mirrored_permutation(f, (2, 1, 3))
    M = MatrixRep(f, ((1, 2, 0, 0, 1, 2), (0, 0, 1, 1, 0, 0), (2, 1, 0, 0, 2, 1)))
    out = T.apply_to(M)
    # columns 1,2 swapped and columns 5,6 swapped
    assert out.rows == ((2, 1, 0, 0, 2, 1), (0, 0, 1, 1, 0, 0), (1, 2, 0, 0, 1, 2))


def test_mirrored_permutation_identity_and_validation():
    f = field(2)
    assert mirrored_permutation(f, (1, 2, 3)).matrix == identity_transform(f).matrix
    with pytest.raises(ValueError):
        mirrored_permutation(f, (1, 1, 2))


def test_mirrored_permutation_preserves_singularity_q2():
    from itertools import permutations
    f = field(2)
    space = FormSpace(f, 3)
    for eta in permutations((1, 2, 3)):
        T = mirrored_permutation(f, eta)
        for pt in enumerate_points(f):
            assert space.is_totally_singular(T.apply_to(pt.matrix))


def test_apply_transform_identity():
    f = field(4)
    fn = MinorFunction.from_map(f, {(1, 3, 5): 2, (2, 4, 6): 3})
    assert apply_transform(fn, identity_transform(f)) == fn


def _swap34(f):
    rows = [[0] * 6 for _ in range(6)]
    perm = {1: 1, 2: 2, 3: 4, 4: 3, 5: 5, 6: 6}
    for c, r in perm.items():
        rows[r - 1][c - 1] = 1
    return ColumnTransform(f, tuple(tuple(r) for r in rows))


def test_apply_transform_column_swap():
    f = field(5)
    swapped = apply_transform(MinorFunction.single(f, (1, 2, 3)), _swap34(f))
    assert swapped == MinorFunction.single(f, (1, 2, 4))
    # a set containing both swapped columns picks up the transposition sign
    swapped = apply_transform(MinorFunction.single(f, (1, 3, 4)), _swap34(f))
    assert swapped == MinorFunction.single(f, (1, 3, 4), coeff=f.neg(1))


def test_apply_transform_pointwise_oracle_q2():
    f = field(2)
    rng = random.Random(3)
    pts = enumerate_points(f)
    for _ in range(10):
        fn = MinorFunction(f, tuple(rng.randrange(2) for _ in range(20)))
        while True:
            i, j = rng.randrange(1, 7), rng.randrange(1, 7)
            if i != j and i != 7 - j:
                break
        T = paired_column_operation(f, i, j, 1)
        g = apply_transform(fn, T)
        for pt in pts:
            assert g.evaluate(pt.matrix) == fn.evaluate(T.apply_to(pt.matrix))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_compound_multiplicativity(q):
    f = field(q)
    rng = random.Random(q * 13)
    for _ in range(8):
        fn = MinorFunction(f, tuple(rng.randrange(q) for _ in range(20)))
        T1 = paired_column_operation(f, 1, 3, rng.randrange(1, q) if q > 1 else 1)
        T2 = mirrored_permutation(f, tuple(rng.sample([1, 2, 3], 3)))
        lhs = apply_transform(apply_transform(fn, T1), T2)
        rhs = apply_transform(fn, T2.matmul(T1))
        assert lhs == rhs


def test_third_compound_of_identity():
    f = field(3)
    comp = third_compound(f, identity_transform(f).matrix)
    for i in range(20):
        for j in range(20):
            assert comp[i][j] == (1 if i == j else 0)


def test_weight_invariance_under_transforms():
    f = field(3)
    pts = enumerate_points(f)
    rng = random.Random(5)
    for _ in range(10):
        fn = MinorFunction(f, tuple(rng.randrange(3) for _ in range(20)))
        T = paired_column_operation(f, 1, 2, rng.randrange(1, 3))
        g = apply_transform(fn, T)
        before = sum(1 for pt in pts if fn.evaluate(pt.matrix) != 0)
        after = sum(1 for pt in pts if g.evaluate(pt.matrix) != 0)
        assert before == after
