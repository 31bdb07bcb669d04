"""The scripts under scripts/, each run in a fresh interpreter: a usage
error exits 2 without a traceback, as the CLI's do, and a run prints the
pinned results."""

import importlib.util
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _script(name, *argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=_env(), timeout=300)


def _close_after_one_byte(name, *argv):
    """Run the script unbuffered (-u) with a reader that closes the pipe after one byte:
    (exit status, stderr)."""
    with subprocess.Popen([sys.executable, "-u", str(ROOT / "scripts" / name), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()) as proc:
        try:
            assert len(proc.stdout.read(1)) == 1
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    return proc.returncode, err


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


@pytest.mark.parametrize("name, argv", [("run_verification.py", ["--qs", "2,3"]),
                                        ("distance_table.py", ["--qs", "3,4"])])
def test_closed_stdout_ends_the_script_quietly(tmp_path, name, argv):
    """A reader that closes the pipe after one byte ends the script by SIGPIPE, as it ends cat:
    nothing on stderr, and not the failed-check status 1.  Run unbuffered (-u), the script writes
    its first line before the first field's work, so a later line meets the closed pipe; the
    distance table's existing --csv file, written only after the last distance, keeps its bytes."""
    csv = tmp_path / "d.csv"
    csv.write_bytes(b"precious\n")
    argv = [*argv, "--csv", str(csv)] if name == "distance_table.py" else argv
    assert _close_after_one_byte(name, *argv) == (-signal.SIGPIPE, b"")
    assert csv.read_bytes() == b"precious\n"


def test_closed_unbuffered_stdout_makes_no_csv_file(tmp_path):
    """Unbuffered (-u), the table's header line goes out before the first distance, so a reader
    that closes the pipe after one byte ends the run before the CSV is written: no --csv file
    is made."""
    csv = tmp_path / "new.csv"
    assert _close_after_one_byte("distance_table.py", "--qs", "3,4", "--csv", str(csv)) == (-signal.SIGPIPE, b"")
    assert not csv.exists()


def test_distance_table_csv(tmp_path):
    csv = tmp_path / "d.csv"
    res = _script("distance_table.py", "--qs", "2,3", "--csv", str(csv))
    assert res.returncode == 0, res.stderr
    assert csv.read_text() == "q,n,k,d,exact\n2,30,14,8,True\n3,80,20,18,True\n"


def test_distance_table_csv_to_stdout_pipe(tmp_path):
    """--csv /dev/stdout, stdout a block-buffered pipe: the table, then the CSV, exit 0."""
    csv = tmp_path / "d.csv"
    table = _script("distance_table.py", "--qs", "2", "--csv", str(csv))
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, str(ROOT / "scripts" / "distance_table.py"), "--qs", "2", "--csv", "/dev/stdout"]
    res = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == table.stdout + csv.read_text()


def test_distance_table_csv_to_stdout_file(tmp_path):
    """--csv /dev/stdout, stdout a file (>): the CSV follows the table in that file, where a
    second open of /dev/stdout at offset 0 would write over the table and cut it."""
    csv = tmp_path / "d.csv"
    table = _script("distance_table.py", "--qs", "2,3", "--csv", str(csv))
    out = tmp_path / "out"
    argv = [sys.executable, str(ROOT / "scripts" / "distance_table.py"), "--qs", "2,3", "--csv", "/dev/stdout"]
    with open(out, "wb") as stdout:
        res = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=_env(), timeout=300)
    assert (res.returncode, res.stderr) == (0, "")
    assert out.read_text() == table.stdout + csv.read_text()


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
