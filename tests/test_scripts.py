"""The scripts under scripts/, each run in a fresh interpreter: a usage
error exits 2 without a traceback, as the CLI's do, and a run prints the
pinned results."""

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


@pytest.mark.parametrize("argv", [["--qs", "6"], ["--qs", "2,6"], ["--qs", "2,x"], ["--threads", "0"],
                                  ["--budget", "-1"]], ids=["not-prime-power", "late-bad-q", "not-int",
                                                            "threads-0", "budget-negative"])
@pytest.mark.parametrize("name", ["run_verification.py", "distance_table.py"])
def test_usage_error_exits_2(name, argv):
    """Every field in --qs is built before the first report, so a bad one prints none."""
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
