"""The lazy package namespace: what each entry loads, checked in fresh interpreters.

The test session has imported every module, so each check runs a small
script in a new interpreter and reads ``sys.modules`` there; the checks of
the process entry's collector policy run there too, where no earlier test
has loaded numpy.
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
    "grassmann": ["COLUMN_SETS", "MatrixRep", "MinorFunction", "RankDeficientError", "expand_minor", "minor",
                  "reflected_complement", "rref_right_to_left"],
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


def _process(argv) -> str:
    """Code that runs ``python -m ograss`` on argv in the fresh interpreter, to its exit status ``code``."""
    return (f"import runpy\nsys.argv = ['ograss', *{argv!r}]\n"
            "try:\n    runpy.run_module('ograss', run_name='__main__')\n"
            "except SystemExit as exc:\n    code = exc.code\n")


@pytest.mark.parametrize("argv", [["points", "--q", "3", "--out", os.devnull],
                                  ["genmat", "--q", "3", "--out", os.devnull],
                                  ["distance", "--q", "2"],
                                  ["weights", "--q", "2", "--coeffs", "COEFFS"],
                                  ["weight-dist", "--q", "2", "--out", os.devnull],
                                  ["verify", "--q", "3", "--budget", "1000"]],
                         ids=["points", "genmat", "distance", "weights", "weight-dist", "verify"])
def test_no_command_loads_dataclasses(argv, tmp_path):
    """Every class on a command path writes its methods out, so no command
    imports ``dataclasses``, whose classes generate and compile theirs at import."""
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text(",".join(["1"] + ["0"] * 19))
    argv = [str(coeffs) if a == "COEFFS" else a for a in argv]
    assert _fresh(_process(argv) + "print(json.dumps([code, 'dataclasses' in sys.modules]))") == [0, False]


def test_process_entry_loads_without_collections():
    """Through the process entry, the collector makes no pass before ``cli.main``
    starts (it is off while numpy and cli load), and it is on when main runs.
    The entry module is imported and the collector emptied first, so that
    the count starts at the entry."""
    code = """
import gc
from ograss import __main__ as process
seen, at_main = [], []

def watch(frame, event, arg):
    if event == "call" and not at_main and frame.f_code.co_name == "main" \\
            and frame.f_globals.get("__name__") == "ograss.cli":
        at_main.append([len(seen), gc.isenabled()])

gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and seen.append(info["generation"]))
sys.setprofile(watch)
try:
    process.entry(["distance", "--q", "2"])
except SystemExit as exc:
    code = exc.code
sys.setprofile(None)
print(json.dumps([code, at_main]))
"""
    assert _fresh(code) == [0, [[0, True]]]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_library_calls_leave_the_collector_alone(enabled):
    """``import ograss``, ``ograss.field(q)`` and ``cli.main`` in process neither
    switch the collector nor freeze: only the process entry does."""
    code = f"""
import gc
gc.enable() if {enabled} else gc.disable()
state = lambda: [gc.isenabled(), gc.get_freeze_count()]
states = [state()]
import ograss
states.append(state())
ograss.field(8)
states.append(state())
from ograss import cli
assert cli.main(["distance", "--q", "2"]) == 0
states.append(state())
print(json.dumps(states))
"""
    assert _fresh(code) == [[enabled, 0]] * 4
