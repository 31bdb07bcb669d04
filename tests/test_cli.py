import gc
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ograss import cli, codes, generator
from ograss.cli import main
from ograss.codes import min_weight_witness
from ograss.gf import field
from ograss.grassmann import COLUMN_SETS
from ograss.polar import CELL_ORDER, cell_matrices, cell_params, point_count

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def main_never_freezes():
    """Only the process entry freezes the collector; tests and library callers run main in process."""
    before = gc.get_freeze_count()
    yield
    assert gc.get_freeze_count() == before


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_points_json(capsys):
    code, out, _ = run(capsys, "points", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 2 and payload["n"] == 30
    assert len(payload["points"]) == 30
    first = payload["points"][0]
    assert first["cell"] == "456" and first["params"] == [0, 0, 0]
    assert first["rows"] == [[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0]]


def test_points_txt(capsys):
    code, out, _ = run(capsys, "points", "--q", "2", "--format", "txt")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 30
    assert blocks[-1].splitlines()[0] == "cell 123 params -"


def test_genmat_txt(capsys):
    code, out, _ = run(capsys, "genmat", "--q", "2")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 20
    assert all(len(r.split()) == 30 for r in rows)
    assert set("".join(r.replace(" ", "") for r in rows)) <= {"0", "1"}


def test_genmat_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, out, _ = run(capsys, "genmat", "--q", "3", "--format", "json", "--out", str(out_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["n"] == 80
    assert payload["colsets"][0] == "123" and payload["colsets"][-1] == "456"


def test_distance_q2(capsys):
    code, out, _ = run(capsys, "distance", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 8 and payload["exact"] is True
    assert payload["dimension"] == 14


def test_distance_witness_mode(capsys):
    code, out, _ = run(capsys, "distance", "--q", "5", "--method", "witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["d_upper_bound"] == 100
    assert payload["upper_bound_only"] is True
    assert "d" not in payload


def test_distance_invalid_q(capsys):
    code, _, err = run(capsys, "distance", "--q", "9999")
    assert code == 2
    assert "prime power" in err


def test_distance_budget_error(capsys):
    code, _, err = run(capsys, "distance", "--q", "3", "--budget", "100")
    assert code == 2
    assert "witness" in err


def test_weight_dist_budget_error_names_no_witness_mode(capsys):
    """weight-dist has no witness mode, so its refusal states only the cost and the budget."""
    code, out, err = run(capsys, "weight-dist", "--q", "3", "--budget", "100")
    assert (code, out) == (2, "")
    assert "needs at least 118098 codeword evaluations (budget 100)" in err and "witness" not in err


def test_q_above_max_rejected(capsys):
    code, _, err = run(capsys, "points", "--q", "53")
    assert code == 2
    assert "maximum" in err


def test_prime_power_above_max_rejected(capsys):
    """q = 64 = 2^6 is a prime power; gf refuses it, and no output is written."""
    code, out, err = run(capsys, "points", "--q", "64")
    assert (code, out) == (2, "")
    assert "q=64 exceeds the supported maximum 49" in err


def test_poly_override(capsys):
    code, out, _ = run(capsys, "points", "--q", "4", "--poly", "1,1,1")
    assert code == 0
    code, _, err = run(capsys, "points", "--q", "4", "--poly", "0,0,1")
    assert code == 2 and "reducible" in err


def test_weights_witness_file(tmp_path, capsys):
    fn = min_weight_witness(field(3))
    coeffs = tmp_path / "witness.txt"
    coeffs.write_text(",".join(map(str, fn.coeffs)))
    code, out, _ = run(capsys, "weights", "--q", "3", "--coeffs", str(coeffs))
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 18
    assert payload["per_cell"]["456"] == 9 and payload["per_cell"]["236"] == 9
    assert payload["per_cell"]["123"] == 0


def test_weights_json_coeffs_format(tmp_path, capsys):
    fn = min_weight_witness(field(2))
    coeffs = tmp_path / "witness.json"
    coeffs.write_text(json.dumps(list(fn.coeffs)))
    code, out, _ = run(capsys, "weights", "--q", "2", "--coeffs", str(coeffs))
    assert code == 0
    assert json.loads(out)["total"] == 8


def test_weights_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2,3")
    code, _, err = run(capsys, "weights", "--q", "2", "--coeffs", str(bad))
    assert code == 2 and "error" in err


def test_weights_json_float_coefficient(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1.5" + ",0" * 19 + "]")
    code, out, err = run(capsys, "weights", "--q", "3", "--coeffs", str(bad))
    assert (code, out) == (2, "") and "1.5 is not an integer" in err


def test_weights_csv_coefficient_with_underscore(tmp_path, capsys):
    """1_0 is not read as coefficient 10 (exit status 2)."""
    bad = tmp_path / "bad.txt"
    bad.write_text("1_0" + ",0" * 19)
    code, out, err = run(capsys, "weights", "--q", "49", "--coeffs", str(bad))
    assert (code, out) == (2, "") and "'1_0' is not a decimal integer" in err


def test_weight_dist_csv(tmp_path, capsys):
    out_path = tmp_path / "wd.csv"
    code, _, _ = run(capsys, "weight-dist", "--q", "2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "weight,count"
    table = {int(w): int(c) for w, c in (line.split(",") for line in lines[1:])}
    assert sum(table.values()) == 2**14 and table[0] == 1 and table[8] == 345


def test_weight_dist_failing_macwilliams_writes_no_csv(monkeypatch, tmp_path, capsys):
    """A distribution whose dual is not a code (one word moved from weight 8
    to 9) is a failed check: exit 1, an error and no CSV, on stdout or --out."""
    inner = codes.weight_distribution

    def moved(*args, **kwargs):
        dist = inner(*args, **kwargs)
        return {**dist, 8: dist[8] - 1, 9: 1}

    monkeypatch.setattr(codes, "weight_distribution", moved)
    out_path = tmp_path / "wd.csv"
    for argv in (["weight-dist", "--q", "2"], ["weight-dist", "--q", "2", "--out", str(out_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and "MacWilliams" in err
    assert not out_path.exists()


def test_weight_dist_bad_out_fails_before_the_split(monkeypatch, tmp_path, capsys):
    """--out is opened before the split, so a path in a missing directory
    exits 2 without a scan."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the split ran before --out was opened")

    monkeypatch.setattr(codes, "_exhaustive_scan", forbidden)
    code, out, err = run(capsys, "weight-dist", "--q", "2", "--out", str(tmp_path / "missing" / "wd.csv"))
    assert (code, out) == (2, "") and "No such file or directory" in err
    assert not (tmp_path / "missing").exists()


def test_weight_dist_refused_by_the_budget_keeps_an_existing_out_file(tmp_path, capsys):
    """--out is opened before the split without truncating it, so a budget
    refusal (exit 2) leaves the file's bytes as they were."""
    out_path = tmp_path / "old.csv"
    out_path.write_bytes(b"precious\n")
    code, out, err = run(capsys, "weight-dist", "--q", "7", "--out", str(out_path))
    assert (code, out) == (2, "") and "budget 100000000" in err
    assert out_path.read_bytes() == b"precious\n"


def test_weight_dist_failing_macwilliams_keeps_an_existing_out_file(monkeypatch, tmp_path, capsys):
    """A failed MacWilliams check (exit 1) writes no CSV and leaves an existing
    --out file's bytes as they were; a passing run then replaces them whole."""
    def failing(*args):
        raise ValueError("the weight distribution fails the MacWilliams identity")

    out_path = tmp_path / "old.csv"
    old = "".join(f"{i}\n" for i in range(1000)).encode()  # longer than the CSV
    out_path.write_bytes(old)
    with monkeypatch.context() as m:
        m.setattr(codes, "macwilliams", failing)
        code, out, err = run(capsys, "weight-dist", "--q", "2", "--out", str(out_path))
    assert (code, out) == (1, "") and "MacWilliams" in err
    assert out_path.read_bytes() == old
    assert run(capsys, "weight-dist", "--q", "2", "--out", str(out_path))[0] == 0
    assert out_path.read_bytes() == (ROOT / "tests" / "golden" / "weight-dist-q2.csv").read_bytes()


def test_budget_help_names_the_default(capsys):
    for command in ("distance", "weight-dist", "verify"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "family split (default 10^8)" in " ".join(capsys.readouterr().out.split())
    assert codes.DEFAULT_BUDGET == 10**8


def test_verify_q2_exit_and_report(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2")
    assert code == 0
    assert "n=30 k=14 d=8" in out
    assert "FAIL" not in out


def test_verify_heavier_witness_exits_1_with_the_report(monkeypatch, capsys):
    """A witness heavier than the counted distance is a verification failure:
    exit 1 and every check listed, the failing one marked."""
    from ograss.grassmann import MinorFunction

    heavier = MinorFunction.from_map(field(2), {(1, 2, 3): 1, (4, 5, 6): 1})
    monkeypatch.setattr(codes, "min_weight_witness", lambda f: heavier)
    code, out, err = run(capsys, "verify", "--q", "2")
    assert code == 1 and err == ""
    assert "n=30 k=14 d=8" in out and "13/15 checks passed" in out
    assert "FAIL witness weight: expected 8, got 16" in out
    assert "PASS exact minimum distance: expected 8, got 8" in out


def test_outputs_byte_identical(monkeypatch, capsys):
    """distance gives the same bytes on one CPU and in a pool on two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _, out1, _ = run(capsys, "distance", "--q", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(codes, "_POOL_BLOCKS", 1)
    _, out2, _ = run(capsys, "distance", "--q", "2")
    assert out1 == out2
    _, p1, _ = run(capsys, "points", "--q", "3")
    _, p2, _ = run(capsys, "points", "--q", "3")
    assert p1 == p2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["distance", "--q", "1"],
    ["points", "--q", "0"],
    ["verify", "--q", "1"],
    ["verify", "--q", "2", "--budget", "-1"],
    ["distance", "--q", "2", "--budget", "-1"],
    ["weight-dist", "--q", "2", "--budget", "-1"],
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distance", "verify"])
def test_threads_is_no_option(capsys, command):
    """The scan's worker count comes from the CPUs the process may use, so --threads is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--q", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def _exit_code(argv):
    """main's return code, or the status of the usage error that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("value", ["1_1", "+1", "\u0663", "-1", ""],
                         ids=["underscore", "plus", "arabic-indic", "minus", "empty"])
@pytest.mark.parametrize("argv", [
    ["points", "--format", "txt", "--q", "{}"],
    ["distance", "--q", "2", "--budget", "{}"],
    ["points", "--q", "9", "--poly", "2,{},1"],
], ids=["q", "budget", "poly"])
def test_numeric_arguments_are_ascii_decimal_digits(capsys, argv, value):
    """int() would read --q 1_1 as 11 and write the q = 11 points; every numeric argument is a usage error instead."""
    assert _exit_code([a.format(value) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{value!r} is not a decimal integer" in err


def _reference_txt(q, matrix):
    """The txt formatter genmat used before its byte table: str() per entry."""
    strs = [str(i) for i in range(q)]
    return "\n".join(" ".join(map(strs.__getitem__, row.tolist())) for row in matrix) + "\n"


def _reference_json(q, matrix):
    payload = {"q": q, "n": matrix.shape[1], "colsets": ["".join(map(str, A)) for A in COLUMN_SETS],
               "rows": matrix.tolist()}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _random_matrices(q):
    rng = np.random.default_rng(q)
    yield rng.integers(0, q, (20, 37))
    yield rng.integers(0, q, (1, 1))  # one row and one column
    yield rng.integers(0, q, (1, 41))  # one row
    yield rng.integers(0, q, (5, 1))  # one column
    yield np.full((2, 3), q - 1)  # the widest entry only: no pad
    yield np.zeros((2, 3), dtype=int)


WRITER_QS = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49]


@pytest.mark.parametrize("q", WRITER_QS)
def test_genmat_writer_matches_str_formatter(monkeypatch, tmp_path, capsysbinary, q):
    """Both formats, on stdout and with --out, on random matrices whose entries
    mix one and two digits wherever q > 10: digit fields of width 1 and 2 in
    records of 2, 3, 9 and 10 bytes."""
    f = field(q)
    out_path = tmp_path / "genmat"
    for matrix in _random_matrices(q):
        G = generator.GeneratorMatrix(field=f, matrix=matrix.astype(f.np_tables()[0].dtype))
        monkeypatch.setattr(generator, "build_generator", lambda _f, G=G: G)
        for fmt, reference in (("txt", _reference_txt), ("json", _reference_json)):
            expected = reference(q, matrix).encode()
            assert main(["genmat", "--q", str(q), "--format", fmt]) == 0
            assert capsysbinary.readouterr().out == expected
            assert main(["genmat", "--q", str(q), "--format", fmt, "--out", str(out_path)]) == 0
            assert capsysbinary.readouterr().out == b""
            assert out_path.read_bytes() == expected


@pytest.mark.parametrize("block", [1, 50])
@pytest.mark.parametrize("q", WRITER_QS)
def test_genmat_writer_small_blocks_match_str_formatter(monkeypatch, tmp_path, capsysbinary, q, block):
    """The same with blocks of one record and of a few records: rows of many
    blocks with a short last one."""
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
    test_genmat_writer_matches_str_formatter(monkeypatch, tmp_path, capsysbinary, q)


@pytest.mark.parametrize("fmt, reference", [("txt", _reference_txt), ("json", _reference_json)],
                         ids=["txt", "json"])
def test_genmat_write_phase_memory(monkeypatch, fmt, reference):
    """The q = 49 write phase holds one block at a time: under 3 MB traced
    (the bound was fixed before measuring; each row as three row-sized arrays
    made 9.3 MB for json).  A chunk that aliased the reused buffer would
    repeat in the listed chunks."""
    G = generator.build_generator(field(49))
    monkeypatch.setattr(generator, "build_generator", lambda _f: G)
    argv = ["genmat", "--q", "49", "--format", fmt, "--out", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    chunks = []
    monkeypatch.setattr(cli, "_emit", lambda it, out: chunks.extend(it))
    assert main(argv) == 0
    assert b"".join(chunks) == reference(49, G.matrix).encode()


def test_template_items():
    """Literals and fields alternate; a field marker -1 - k stands for column k."""
    assert cli._template_items('[-1, 7, -12]\n') == [b"[", 0, b", 7, ", 11, b"]\n"]
    assert cli._template_items("-3-1") == [b"", 2, b"", 0, b""]
    assert cli._template_items("cell 456 params -\n") == [b"cell 456 params -\n"]


def _point_rows(f):
    """(pivots, params, rows) of every point in the frozen order, as lists read off the cell arrays."""
    for pivots in CELL_ORDER:
        mats = cell_matrices(f, pivots).transpose(2, 0, 1).tolist()
        for params, rows in zip(cell_params(f.q, pivots).tolist(), mats):
            yield pivots, params, rows


def _reference_points(f, fmt):
    """The points formatter before the record writer: Python lists, then one
    json.dumps or str() joins."""
    def cell(pivots):
        return "".join(map(str, pivots))

    if fmt == "json":
        payload = {"q": f.q, "n": point_count(f.q),
                   "points": [{"cell": cell(pivots), "params": params, "rows": rows}
                              for pivots, params, rows in _point_rows(f)]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    strs = [str(i) for i in range(f.q)]
    blocks = []
    for pivots, params, rows in _point_rows(f):
        head = f"cell {cell(pivots)} params {','.join(map(strs.__getitem__, params)) or '-'}"
        blocks.append("\n".join([head] + [" ".join(map(strs.__getitem__, r)) for r in rows]))
    return "\n\n".join(blocks) + "\n"


@pytest.mark.parametrize("block", [1, 300, cli._BLOCK_BYTES])
@pytest.mark.parametrize("q, poly", [(2, None), (3, None), (4, None), (5, None), (7, None), (8, None),
                                     (9, None), (11, None), (16, None), (8, "1,0,1,1")])
def test_points_writer_matches_reference(monkeypatch, tmp_path, capsysbinary, q, poly, block):
    """Both formats, on stdout and with --out, against the list-and-dumps
    formatter, which holds the arity-0 cells ("params": [] and params -).
    Blocks of one point, of a few points and the default."""
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
    argv = ["points", "--q", str(q)] + (["--poly", poly] if poly else [])
    f = field(q, tuple(map(int, poly.split(","))) if poly else None)
    out_path = tmp_path / "points"
    for fmt, arity0 in (("txt", b"params -"), ("json", b'"params": []')):
        expected = _reference_points(f, fmt).encode()
        assert arity0 in expected
        assert main([*argv, "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == expected
        assert main([*argv, "--format", fmt, "--out", str(out_path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out_path.read_bytes() == expected


def test_entry_freezes_once_after_main(monkeypatch, capsys):
    """The process entry loads cli with the collector off, freezes what the
    load left and turns the collector on, restores the default SIGPIPE action,
    runs main, freezes once more, then exits with main's code."""
    from ograss import __main__ as process

    calls = []
    inner = cli.main

    def recording(argv=None):
        code = inner(argv)
        calls.append(("main", code))
        return code

    monkeypatch.setattr(cli, "main", recording)
    for name in ("disable", "freeze", "enable"):
        monkeypatch.setattr(gc, name, lambda name=name: calls.append(name))
    monkeypatch.setattr(signal, "signal", lambda *handler: calls.append(handler))
    for argv, code in ((["distance", "--q", "2"], 0), (["points", "--q", "6"], 2)):
        calls.clear()
        with pytest.raises(SystemExit) as exc:
            process.entry(argv)
        assert exc.value.code == code
        assert calls == ["disable", "freeze", "enable", (signal.SIGPIPE, signal.SIG_DFL), ("main", code), "freeze"]
    assert "prime power" in capsys.readouterr().err


def _module_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _module_run(argv):
    """python -m ograss with these arguments in a fresh interpreter: its stdout bytes (exit status 0)."""
    res = subprocess.run([sys.executable, "-m", "ograss", *argv], capture_output=True, env=_module_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_module_entry_subprocess():
    """python -m ograss runs through the entry and writes the golden bytes."""
    assert _module_run(["distance", "--q", "2"]) == (ROOT / "tests" / "golden" / "distance-q2.json").read_bytes()


def test_closed_stdout_ends_the_process_quietly():
    """A reader that closes the pipe after one byte ends genmat --q 49 (12 MB
    of text) by SIGPIPE, as it ends cat: nothing on stderr, and not the
    usage-error status 2."""
    with subprocess.Popen([sys.executable, "-m", "ograss", "genmat", "--q", "49"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env()) as proc:
        try:
            assert len(proc.stdout.read(1)) == 1
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


#: argv and golden file (None: compare with main in process) of one run of every command
FRESH_RUNS = {
    "points-json": (["points", "--q", "3"], None),
    "points-txt": (["points", "--q", "3", "--format", "txt"], None),
    "genmat-txt": (["genmat", "--q", "3"], None),
    "genmat-json": (["genmat", "--q", "3", "--format", "json"], None),
    "distance": (["distance", "--q", "3"], "distance-q3.json"),
    "weights-csv": (["weights", "--q", "3", "--coeffs", "witness.txt"], None),
    "weights-json": (["weights", "--q", "3", "--coeffs", "witness.json"], None),
    "weight-dist": (["weight-dist", "--q", "2"], "weight-dist-q2.csv"),
    "verify": (["verify", "--q", "3", "--budget", "1000"], "verify-q3-budget1000.txt"),
}


@pytest.mark.parametrize("name", FRESH_RUNS)
def test_command_in_fresh_process(name, tmp_path, capsysbinary):
    """Every command runs from a fresh process, which loads only the modules
    the command imports: a missing import shows here, never in process, where
    the test session has loaded every module.  The witness files hold the
    236 + 456 witness of q = 3 in both coefficient forms."""
    argv, golden = FRESH_RUNS[name]
    fn = min_weight_witness(field(3))
    (tmp_path / "witness.txt").write_text(",".join(map(str, fn.coeffs)))
    (tmp_path / "witness.json").write_text(json.dumps(list(fn.coeffs)))
    argv = [str(tmp_path / a) if a.startswith("witness.") else a for a in argv]
    out = _module_run(argv)
    if golden:
        assert out == (ROOT / "tests" / "golden" / golden).read_bytes()
    else:
        assert main(argv) == 0
        assert out == capsysbinary.readouterr().out
