"""The benchmark's workloads: the ograss command each one runs and the checks on its output.

No input is random.  The q of a workload fixes its whole input; the seed
only picks the defining polynomial of an extension field (seed 0 keeps the
default Conway polynomial) and the columns that the genmat check recomputes.
The checks read what the command printed or wrote and recompute, where it
is cheap, what the output claims (a witness's weight, sampled columns).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product

import numpy as np

SAMPLE_COLUMNS = 512


def min_distance(q: int) -> int:
    """The paper's minimum distance: q^3 - q^2 for odd q, q^3 for even q."""
    return q**3 - q**2 if q % 2 else q**3


def code_length(q: int) -> int:
    return 2 * (q**3 + q**2 + q + 1)


def monic_irreducibles(p: int, e: int) -> list[tuple[int, ...]]:
    """Every monic irreducible polynomial of degree e over F_p, coefficients low to high."""
    from ograss.gf import is_irreducible

    return [low + (1,) for low in product(range(p), repeat=e) if is_irreducible(p, low + (1,))]


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    command: str

    def poly(self, seed: int) -> tuple[int, ...] | None:
        """Defining polynomial for this seed; None means the package default."""
        from ograss.gf import factor_prime_power

        p, e = factor_prime_power(self.q)
        if e == 1 or seed == 0:
            return None
        return random.Random(seed).choice(monic_irreducibles(p, e))

    def argv(self, seed: int, out_path: str) -> list[str]:
        args = [self.command, "--q", str(self.q)]
        poly = self.poly(seed)
        if poly is not None:
            args += ["--poly", ",".join(map(str, poly))]
        if self.command == "genmat":
            args += ["--out", out_path]
        return args

    def check(self, seed: int, returncode: int, stdout: str, out_path: str) -> list[str]:
        """Problems found in one run's output; empty when the output is correct."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            return CHECKS[self.command](self, seed, stdout, out_path)
        except Exception as exc:  # a malformed output is a failed check, not a crash
            return [f"output check raised {type(exc).__name__}: {exc}"]


def _check_distance(wl: Workload, seed: int, stdout: str, out_path: str) -> list[str]:
    from ograss import codes
    from ograss.gf import field
    from ograss.grassmann import MinorFunction

    res = json.loads(stdout)
    d = min_distance(wl.q)
    problems = []
    if res.get("exact") is not True or res.get("d") != d:
        problems.append(f"expected exact d={d}, got d={res.get('d')} exact={res.get('exact')}")
    coeffs = tuple(res["witness_coeffs"])
    got = codes.weight(MinorFunction(field(wl.q, wl.poly(seed)), coeffs)).total
    if got != d:
        problems.append(f"witness {coeffs} has weight {got}, not {d}")
    return problems


_VERIFY_HEAD = re.compile(r"^polar orthogonal Grassmann code over GF\((\d+)\): n=(\d+) k=(\d+) d(<?=)(\d+)")


def _check_verify(wl: Workload, seed: int, stdout: str, out_path: str) -> list[str]:
    lines = stdout.rstrip("\n").split("\n")
    problems = []
    m = _VERIFY_HEAD.match(lines[0])
    k = 14 if wl.q % 2 == 0 else 20
    want = (str(wl.q), str(code_length(wl.q)), str(k), str(min_distance(wl.q)))
    if m is None or (m[1], m[2], m[3], m[5]) != want:
        problems.append(f"header {lines[0]!r} does not read GF({want[0]}) n={want[1]} k={want[2]} d={want[3]}")
    checks = lines[1:-1]
    failed = [ln for ln in checks if not ln.startswith("PASS ")]
    if not checks or failed:
        problems.append(f"{len(failed)} of {len(checks)} check lines are not PASS: {failed[:3]}")
    if lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"summary line {lines[-1]!r}")
    return problems


def column_label(q: int, col: int) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """(pivots, params) of a codeword coordinate, from the frozen point order."""
    from ograss.polar import CELL_ARITY, cell_slices

    for pivots, start, stop in cell_slices(q):
        if start <= col < stop:
            j = col - start
            params = []
            for _ in range(CELL_ARITY[pivots]):
                params.append(j % q)
                j //= q
            return pivots, tuple(reversed(params))
    raise IndexError(col)


def read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [np.fromstring(line, dtype=np.int64, sep=" ") for line in fh]
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"ragged matrix: row lengths {sorted({len(r) for r in rows})}")
    return np.stack(rows)


def _check_genmat(wl: Workload, seed: int, stdout: str, out_path: str) -> list[str]:
    from ograss.gf import field
    from ograss.grassmann import COLUMN_SETS, minor
    from ograss.polar import build_cell

    q = wl.q
    n = code_length(q)
    mat = read_matrix(out_path)
    if mat.shape != (len(COLUMN_SETS), n):
        return [f"matrix is {mat.shape[0]} x {mat.shape[1]}, expected 20 x {n}"]
    problems = []
    if mat.min() < 0 or mat.max() >= q:
        problems.append(f"entries outside [0, {q}): min {mat.min()}, max {mat.max()}")
    f = field(q, wl.poly(seed))
    cols = sorted(random.Random(seed).sample(range(n), min(n, SAMPLE_COLUMNS)))
    bad = [c for c in cols
           if tuple(mat[:, c]) != tuple(minor(build_cell(f, *column_label(q, c)), A) for A in COLUMN_SETS)]
    if bad:
        problems.append(f"{len(bad)} of {len(cols)} sampled columns differ from the direct minors, first {bad[0]}")
    # minors 236 + 456: GF(p^e) addition is digitwise mod p whatever the polynomial
    p, e = f.p, f.e
    a, b = mat[COLUMN_SETS.index((2, 3, 6))], mat[COLUMN_SETS.index((4, 5, 6))]
    zero = np.ones(n, dtype=bool)
    for _ in range(e):
        zero &= (a % p + b % p) % p == 0
        a, b = a // p, b // p
    w = int(n - zero.sum())
    if w != q**3 - q**2:
        problems.append(f"the 236+456 witness from the file has weight {w}, not {q**3 - q**2}")
    return problems


CHECKS = {"distance": _check_distance, "verify": _check_verify, "genmat": _check_genmat}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("distance-q3", 3, "distance"),
        Workload("verify-q8", 8, "verify"),
        Workload("genmat-q49", 49, "genmat"),
    )
}
