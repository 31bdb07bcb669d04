"""The lazy package namespace: what each entry loads, checked in fresh interpreters.

The test session has imported every module, so each check runs a small
script in a new interpreter and reads ``sys.modules`` there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: every name the package exported before its namespace became lazy, by the module it was read from
EXPORTED = {
    "codes": ["DEFAULT_BUDGET", "BudgetExceeded", "DistanceResult", "GeneratorMatrix", "VerificationReport",
              "WeightReport", "build_generator", "codeword", "min_weight_witness", "minimum_distance",
              "rank_dimension", "verify", "weight", "weight_distribution"],
    "forms": ["FormSpace"],
    "gf": ["GF", "DEFAULT_IRREDUCIBLE", "FieldMismatchError", "factor_prime_power", "field", "is_irreducible"],
    "grassmann": ["COLUMN_SETS", "MatrixRep", "MinorFunction", "RankDeficientError", "expand_minor",
                  "expansion_sign", "minor", "reduced_minor_indices", "reflected_complement",
                  "rref_right_to_left"],
    "polar": ["CELL_ARITY", "CELL_ORDER", "CostGuardExceeded", "Point", "brute_force_points", "build_cell",
              "cell_slices", "enumerate_points", "point_count", "swap34_map"],
}


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; ``loaded()`` there gives the ograss
    submodules in ``sys.modules``.  Returns the JSON value its last line prints."""
    prelude = "import json, sys\ndef loaded(): return sorted(m for m in sys.modules if m.startswith('ograss.'))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _fresh("import ograss\nprint(json.dumps(loaded()))") == []


def test_field_loads_gf_only():
    assert _fresh("import ograss\nograss.field(8)\nprint(json.dumps(loaded()))") == ["ograss.gf"]


@pytest.mark.parametrize("argv", [["genmat", "--q", "3"], ["genmat", "--q", "3", "--format", "json"],
                                  ["points", "--q", "3"], ["points", "--q", "3", "--format", "txt"]],
                         ids=["genmat-txt", "genmat-json", "points-json", "points-txt"])
def test_writers_leave_the_engine_unloaded(argv):
    """genmat and points load neither the search engine nor the forms."""
    code = f"from ograss import cli\nassert cli.main({[*argv, '--out', os.devnull]!r}) == 0\nprint(json.dumps(loaded()))"
    mods = _fresh(code)
    assert "ograss.polar" in mods
    assert "ograss.codes" not in mods and "ograss.forms" not in mods


def test_exported_names_resolve_to_their_modules():
    """Each name is the object its module defines, ``__all__`` and ``dir``
    list every one, and each submodule resolves after a bare import."""
    code = f"""
import ograss
modules = [m for m in ["cli", "codes", "forms", "generator", "gf", "grassmann", "polar"]
           if getattr(ograss, m) is sys.modules["ograss." + m]]
exported = {EXPORTED!r}
same = [name for module, names in exported.items() for name in names
        if getattr(ograss, name) is getattr(getattr(ograss, module), name)]
print(json.dumps([same, sorted(ograss.__all__), dir(ograss), modules]))
"""
    same, all_names, listed, modules = _fresh(code)
    names = sorted(name for names in EXPORTED.values() for name in names)
    assert sorted(same) == names
    assert all_names == names
    assert set(names) <= set(listed)
    assert modules == ["cli", "codes", "forms", "generator", "gf", "grassmann", "polar"]


def test_generator_names_shared_with_codes():
    """The generator build is defined once; ``codes`` and the package re-export it."""
    import ograss
    from ograss import codes, generator

    assert ograss.build_generator is codes.build_generator is generator.build_generator
    assert ograss.GeneratorMatrix is codes.GeneratorMatrix is generator.GeneratorMatrix


def test_unknown_name_raises_attribute_error():
    import ograss

    with pytest.raises(AttributeError, match="nosuch"):
        ograss.nosuch
    with pytest.raises(ImportError):
        from ograss import nosuch  # noqa: F401
