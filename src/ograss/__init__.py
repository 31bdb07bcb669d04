"""Exact toolkit for polar orthogonal Grassmann codes over small finite fields.

Evaluating linear combinations of the 20 maximal minors of a 3x6 matrix
on the totally singular 3-spaces of the hyperbolic quadric in F_q^6
yields a linear code of length 2*(q^3 + q^2 + q + 1).  This package
enumerates the points, builds the generator matrix, computes weight
distributions and the minimum distance (q^3 - q^2 for odd q, q^3 for
even q; [30, 14, 8] at q = 2), and cross-checks every structural fact
the construction relies on by direct computation.

``import ograss`` loads none of the submodules: each public name, and each
submodule name, is resolved on first access (PEP 562) and loads only the
module that defines it and that module's imports, so ``ograss.field``
loads ``gf`` alone.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "codes": (
        "DEFAULT_BUDGET",
        "BudgetExceeded",
        "DistanceResult",
        "VerificationReport",
        "WeightReport",
        "codeword",
        "min_weight_witness",
        "minimum_distance",
        "rank_dimension",
        "verify",
        "weight",
        "weight_distribution",
    ),
    "forms": ("FormSpace",),
    "generator": ("GeneratorMatrix", "build_generator"),
    "gf": ("GF", "DEFAULT_IRREDUCIBLE", "FieldMismatchError", "factor_prime_power", "field", "is_irreducible"),
    "grassmann": (
        "COLUMN_SETS",
        "MatrixRep",
        "MinorFunction",
        "RankDeficientError",
        "expand_minor",
        "minor",
        "reflected_complement",
        "rref_right_to_left",
    ),
    "polar": (
        "CELL_ARITY",
        "CELL_ORDER",
        "CostGuardExceeded",
        "Point",
        "brute_force_points",
        "build_cell",
        "cell_slices",
        "enumerate_points",
        "point_count",
        "swap34_map",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def _load(module: str):
    """The submodule, imported by ``__import__`` (so ``-X importtime`` logs it) and bound here."""
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _load(name)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_SOURCE[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
