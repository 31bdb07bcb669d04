"""Exact toolkit for polar orthogonal Grassmann codes over small finite fields.

Evaluating linear combinations of the 20 maximal minors of a 3x6 matrix
on the totally singular 3-spaces of the hyperbolic quadric in F_q^6
yields a linear code of length 2*(q^3 + q^2 + q + 1).  This package
enumerates the points, builds the generator matrix, computes weight
distributions and the minimum distance (q^3 - q^2 for odd q, q^3 for
even q; [30, 14, 8] at q = 2), and cross-checks every structural fact
the construction relies on by direct computation.
"""

from .codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DistanceResult,
    GeneratorMatrix,
    VerificationReport,
    WeightReport,
    build_generator,
    codeword,
    min_weight_witness,
    minimum_distance,
    rank_dimension,
    verify,
    weight,
    weight_distribution,
)
from .forms import FormSpace
from .gf import GF, DEFAULT_IRREDUCIBLE, FieldMismatchError, factor_prime_power, field, is_irreducible
from .grassmann import (
    COLUMN_SETS,
    ColumnTransform,
    MatrixRep,
    MinorFunction,
    RankDeficientError,
    apply_transform,
    expand_minor,
    expansion_sign,
    identity_transform,
    is_principal,
    minor,
    mirrored_permutation,
    paired_column_operation,
    reduced_minor_indices,
    reflected_complement,
    rref_right_to_left,
    third_compound,
)
from .polar import (
    CELL_ARITY,
    CELL_ORDER,
    CostGuardExceeded,
    Point,
    brute_force_points,
    build_cell,
    cell_slices,
    enumerate_points,
    point_count,
    swap34_map,
)

__version__ = "0.1.0"
