"""The scripts under scripts/, each run in a fresh interpreter: a usage
error exits 2 without a traceback, as the CLI's do, and a run prints the
pinned results."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv", [
    ["--qs", "6"], ["--qs", "2,6"], ["--qs", "2,x"], ["--qs", "53"], ["--threads", "0"], ["--budget", "-1"],
    ["--qs", "1_1"], ["--qs", "2,+3"], ["--qs", "\u0663"], ["--qs", "-1"], ["--qs", ""],
    ["--budget", "1_0"], ["--threads", "+1"],
], ids=["not-prime-power", "late-bad-q", "not-int", "above-max-q", "threads-0", "budget-negative",
        "q-underscore", "q-plus", "q-arabic-indic", "q-minus", "q-empty", "budget-underscore", "threads-plus"])
@pytest.mark.parametrize("name", ["run_verification.py", "distance_table.py"])
def test_usage_error_exits_2(name, argv):
    """Every field in --qs is built before the first report, so a bad one prints none.  The fields
    are the CLI's (a prime power <= 49), and every number is ASCII decimal digits, as in the CLI.
    --threads is no option of either script, so it is refused like any unknown argument."""
    res = _script(name, *argv)
    assert (res.returncode, res.stdout) == (2, "")
    assert "usage:" in res.stderr and "Traceback" not in res.stderr


def test_run_verification_passes_at_q2():
    res = _script("run_verification.py", "--qs", "2")
    assert res.returncode == 0, res.stderr
    assert "FAIL" not in res.stdout


def test_distance_table_csv(tmp_path):
    csv = tmp_path / "d.csv"
    res = _script("distance_table.py", "--qs", "2,3", "--csv", str(csv))
    assert res.returncode == 0, res.stderr
    assert csv.read_text() == "q,n,k,d,exact\n2,30,14,8,True\n3,80,20,18,True\n"


def test_distance_table_unwritable_csv_is_a_usage_error(tmp_path):
    """The --csv file is opened before the first distance: a path in a missing
    directory exits 2 with no traceback and no table on stdout."""
    res = _script("distance_table.py", "--qs", "2", "--csv", str(tmp_path / "missing" / "d.csv"))
    assert (res.returncode, res.stdout) == (2, "")
    assert "usage:" in res.stderr and "--csv" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_distance_table_run_that_raises_keeps_the_csv_file(tmp_path, monkeypatch, error):
    """The --csv file is opened before the first distance but written only after the last: a run
    that raises or is interrupted leaves an existing file byte-identical and makes no new one."""
    spec = importlib.util.spec_from_file_location("distance_table", ROOT / "scripts" / "distance_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def fail(*args, **kwargs):
        raise error("stopped")

    monkeypatch.setattr(script, "minimum_distance", fail)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(b"precious\n")
    for csv in (old, new):
        monkeypatch.setattr(sys, "argv", ["distance_table.py", "--qs", "2", "--csv", str(csv)])
        with pytest.raises(error):
            script.main()
    assert old.read_bytes() == b"precious\n"
    assert not new.exists()
