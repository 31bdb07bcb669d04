"""The linear code of minor evaluations on the point enumeration.

The generator matrix has one row per column triple (lexicographic order)
and one column per point (frozen cell order), entry = that minor on that
point's representative.  Codewords are the row-space vectors; the
dimension is always computed by elimination, never assumed.

The matrix comes from ``generator.build_generator`` (re-exported here
with ``GeneratorMatrix``), which evaluates each minor through the pivot
expansion on the cells' open parameter grids.  The direct 3x3
determinant of each column triple stays as its oracle: ``verify``
evaluates it on the dense cell arrays (``cell_matrices``) and compares
the two on every point and every column set.  Every two-operand table
lookup in this module (``_np_add`` in extension fields, ``_codewords``,
``_combine``) is one ``gf.gather`` from a flattened (q, q) table.

One kernel, the full scan ``_exhaustive_scan``, enumerates codewords.
Every nonzero multiple of a codeword has its weight, so it weighs only
the messages whose first nonzero coefficient is 1, one per scalar
class, scales the histogram by q-1 and keeps the lexicographically
least minimum-weight message, which is always weighed.  The basis splits
into a head of floor(k/2) rows and a tail of the rest, and each half's
codewords are built once, in lexicographic message order, and packed
as bit planes (``_pack``), the tail's negated.  One XOR of packed head
codewords against a slice of the tail table, the OR of the planes and
a popcount weigh a whole block of messages (a + b is nonzero exactly
where a != -b, so the sum is never formed and one kernel serves every
field), and no XOR exceeds _BLOCK_BYTES.  The blocks come in message
order; with several threads they are dealt round-robin to a pool, and
the merge (histograms summed, minimum over (weight, block)) does not
depend on the thread count.

The dimension is 14 in even characteristic (reflected-complement minors
coincide on the point set) but the full 20 for odd q.  The exact
distance has one path at every q: the two families of generators of
Q+(5,q) (``polar.family_mask``), the paper's cells in two classes: K_S,
the codewords that vanish off family S, and C_S, the projection of the
code on S.  A codeword nonzero on both families weighs at least
d(C_A) + d(C_B), so once that sum reaches min(d(K_A), d(K_B)), that is
the distance (``_split_distance``).  For odd q, C is the direct sum of
K_A and K_B (10 + 10 rows), and only the kernels are scanned: 2 * 3^10
evaluations at q = 3.  For even q, K_S has 4 rows and C_S 10: 2 080
evaluations at q = 2, against the 2^14 of the whole code.  The budget
only refuses a split that costs more; the full scan of the whole code
serves ``weight_distribution`` alone.

The known minimum-weight codewords: for even q the single minor on
columns 456 (weight q^3, all of it on cell P456); for odd q the
combination of minors 236 and 456 whose pivot-cell values cancel at
a5 = +-1 (weight q^3 - q^2, split (q-2)*q^2 on P456 plus q^2 on P236).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .generator import GeneratorMatrix, _det_tables, _np_det, build_generator
from .gf import GF, gather, row_reduce
from .grassmann import AMBIENT, COLUMN_SETS, ELL, MinorFunction, reduced_minor_indices, reflected_complement
from .polar import CELL_ORDER, brute_force_points, cell_matrices, cell_slices, family_mask, point_count, swap34_map

DEFAULT_BUDGET = 10**8
_BLOCK_BYTES = 1 << 20


class BudgetExceeded(RuntimeError):
    """The exhaustive scan would need more codeword evaluations than allowed."""


def _direct_minors(f: GF, mats: np.ndarray) -> np.ndarray:
    """The 20 minors of every representative in a (3, 6, count) array, each the
    determinant of its full 3x3 column triple: the oracle of the pivot expansion."""
    tables = _det_tables(f)
    return np.array([_np_det(tables, mats[:, [a - 1 for a in A]]) for A in COLUMN_SETS])


# ---------------------------------------------------------------------------
# vectorized field ops on integer-encoded arrays
# ---------------------------------------------------------------------------

def _np_add(f: GF, x, y):
    """x + y on arrays in the unsigned table dtype.

    For prime p the sum s < 2p fits the dtype, and s - p wraps above s
    exactly when s < p, so the minimum of the two is the reduced sum.
    """
    if f.p == 2:
        return np.bitwise_xor(x, y)
    if f.e == 1:
        s = x + y
        np.minimum(s, s - f.p, out=s)
        return s
    return gather(f.np_tables()[0], x, y)


def codeword(fn: MinorFunction, G: GeneratorMatrix | None = None) -> np.ndarray:
    """Evaluation vector of fn over the frozen point order."""
    if G is None:
        G = build_generator(fn.field)
    if fn.field != G.field:
        raise ValueError("coefficient vector and generator matrix use different fields")
    return _combine(fn.field, fn.coeffs, G.matrix)


def _combine(f: GF, coeffs, rows) -> np.ndarray:
    """sum_i coeffs[i] * rows[i] over GF(q), for a 2-D array (or nested sequence) of rows."""
    terms = gather(f.np_tables()[1], np.asarray(coeffs)[:, None], np.asarray(rows))
    out = terms[0]
    for term in terms[1:]:
        out = _np_add(f, out, term)
    return out


# ---------------------------------------------------------------------------
# rank and reduced basis
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reduced_basis(G: GeneratorMatrix) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Row-reduce [G | I]; returns (basis rows, their expressions in the 20 original rows).

    Cached per generator, which hashes by identity; the basis is read-only
    because every caller shares it."""
    n, nrows = G.n, G.matrix.shape[0]
    aug = np.hstack([G.matrix, np.eye(nrows, dtype=G.matrix.dtype)])
    reduced, pivots = row_reduce(G.field, aug, range(n))
    k = len(pivots)
    basis = reduced[:k, :n]
    basis.setflags(write=False)
    return basis, tuple(map(tuple, reduced[:k, n:].tolist()))


def rank_dimension(G: GeneratorMatrix) -> int:
    """Code dimension k = rank of the generator matrix over GF(q)."""
    return len(_reduced_basis(G)[1])


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass
class WeightReport:
    total: int
    per_cell: dict[tuple[int, int, int], int]


def weight(fn: MinorFunction) -> WeightReport:
    """Hamming weight of the codeword of fn, broken down by pivot cell."""
    G = build_generator(fn.field)
    cw = codeword(fn, G)
    per_cell = {}
    for pivots, start, stop in cell_slices(fn.field.q):
        per_cell[pivots] = int(np.count_nonzero(cw[start:stop]))
    return WeightReport(total=int(np.count_nonzero(cw)), per_cell=per_cell)


def min_weight_witness(f: GF) -> MinorFunction:
    """A codeword of the minimum weight: q^3 - q^2 for odd q, q^3 for even q."""
    if f.q % 2 == 0:
        return MinorFunction.single(f, (4, 5, 6))
    # minor 456 is -1 on each P456 representative, so a +1 coefficient next
    # to minor 236 (= a5^2 there) zeroes the cell value exactly at a5 = +-1
    return MinorFunction.from_map(f, {(2, 3, 6): 1, (4, 5, 6): 1})


# ---------------------------------------------------------------------------
# exhaustive codeword scan
# ---------------------------------------------------------------------------

def _exhaustive_scan(f: GF, basis: np.ndarray, threads: int = 1) -> tuple[int, tuple[int, ...], np.ndarray]:
    """Minimum nonzero weight, its lex-least message vector, and the full histogram.

    The first floor(k/2) rows are the head and the rest the tail; each
    half's codewords are built once (``_codewords``) and packed, the
    tail's negated.  Every nonzero multiple of a codeword has its weight,
    so one message per scalar class is weighed, the one whose first
    nonzero coefficient is 1, which is also the lex-least of its class.
    ``_blocks`` lists them in lexicographic order as (head, tail) slices,
    each block one ``_weights`` XOR of at most _BLOCK_BYTES, so the first
    minimum met is the lex-least minimum-weight message.  The histogram is
    scaled by q-1 and counts the zero message once.  With more than one
    thread and more than one block of work, the blocks are dealt
    round-robin to ``threads`` workers; the merge (histograms summed,
    minimum over (weight, block)) does not depend on the thread count.
    """
    k, n = basis.shape
    if k == 0:
        raise ValueError("cannot scan a zero-dimensional code")
    q, h = f.q, k // 2
    planes = (q - 1).bit_length()
    heads = _pack(_codewords(f, basis[:h]), planes)
    tails = _pack(f.np_tables()[2][_codewords(f, basis[h:])], planes)
    cap = max(1, _BLOCK_BYTES // _packed_row_bytes(q, n))
    blocks = list(enumerate(_blocks(q, h, k - h, cap)))

    def scan(work):
        hist, best = np.zeros(n + 1, dtype=np.int64), (n + 1,)
        for i, (hs, ts) in work:
            weights = _weights(heads[:, :, hs, None], tails[:, :, None, ts])
            hist += np.bincount(weights.reshape(-1), minlength=n + 1)
            head, tail = divmod(int(weights.argmin()), weights.shape[1])
            best = min(best, (int(weights[head, tail]), i, (hs.start + head) * q ** (k - h) + ts.start + tail))
        return hist, best

    if threads > 1 and (q**k - 1) // (q - 1) > cap:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; only a scan above one block uses it

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(scan, (blocks[i::threads] for i in range(threads))))
    else:
        results = [scan(blocks)]
    hist = sum(hist for hist, _ in results) * (q - 1)
    hist[0] += 1
    best_w, _, m = min(best for _, best in results)
    return best_w, tuple(m // q**i % q for i in range(k - 1, -1, -1)), hist


def _message_to_function(f: GF, msg: tuple[int, ...], exprs) -> MinorFunction:
    return MinorFunction(f, tuple(_combine(f, msg, exprs).tolist()))


# ---------------------------------------------------------------------------
# the scan kernel
# ---------------------------------------------------------------------------

def _codewords(f: GF, rows: np.ndarray) -> np.ndarray:
    """(q^m, n): the codeword of every message on the m rows, in lexicographic
    message order (the first coefficient most significant)."""
    n = rows.shape[1]
    words = np.zeros((1, n), dtype=rows.dtype)
    for row in rows:
        words = _np_add(f, words[:, None], gather(f.np_tables()[1], np.arange(f.q)[:, None], row)).reshape(-1, n)
    return words


def _blocks(q: int, h: int, t: int, cap: int):
    """(head slice, tail slice) blocks of at most cap pairs over the messages
    on h head and t tail rows whose first nonzero coefficient is 1, in
    lexicographic message order.

    In lexicographic order the messages of m digits whose first nonzero
    digit is 1 are the index runs [q^e, 2q^e), e < m.  So the zero head
    meets each such run of tails, then each such run of heads meets all
    q^t tails.  A block holds as many whole head rows as fit in cap, or
    one head row and a run of its tails."""
    rects = [(0, 1, q**e, 2 * q**e) for e in range(t)] + [(q**e, 2 * q**e, 0, q**t) for e in range(h)]
    for h0, h1, t0, t1 in rects:
        per, step = max(1, cap // (t1 - t0)), min(cap, t1 - t0)
        for a in range(h0, h1, per):
            for b in range(t0, t1, step):
                yield slice(a, min(a + per, h1)), slice(b, min(b + step, t1))


def _packed_row_bytes(q: int, n: int) -> int:
    """Bytes of one codeword of length n over GF(q) in ``_pack`` form."""
    return (q - 1).bit_length() * -(-n // 64) * 8


def _pack(x: np.ndarray, planes: int) -> np.ndarray:
    """The bit planes of the encodings x (*rows, n), each packed over n: (planes, words, *rows) uint64.

    Plane j holds bit j of every entry, position i in bit i % 64 of word
    i // 64, and positions past n are 0 in every plane, so two packed
    codewords are equal exactly where every plane of their XOR is 0.
    """
    *rows, n = x.shape
    words = -(-n // 64)
    padded = np.zeros((*rows, 64 * words), dtype=x.dtype)
    padded[..., :n] = x
    bits = padded & (1 << np.arange(planes, dtype=x.dtype)).reshape(-1, *[1] * x.ndim)
    packed = np.packbits(bits, bitorder="little").view(np.uint64).reshape(planes, *rows, words)
    return np.ascontiguousarray(packed.transpose(0, x.ndim, *range(1, x.ndim)))


def _weights(a: np.ndarray, neg_b: np.ndarray) -> np.ndarray:
    """Hamming weights of a + b, given a and -b in ``_pack`` form, broadcast like their XOR.

    a + b is nonzero exactly where a != -b, that is where some plane of
    a XOR -b has a 1, so no sum is formed: the weight is the popcount of
    the OR of the planes, summed over the words in the smallest unsigned
    type that holds the packed length.  The same test serves every field.
    """
    x = a ^ neg_b
    diff = x[0]
    for plane in x[1:]:
        diff |= plane
    counts = np.bitwise_count(diff)
    return counts.sum(axis=0, dtype=np.min_scalar_type(64 * len(counts)))


class Part(NamedTuple):
    """One scanned part of the family split: a kernel "KA", "KB" or a
    projection "CA", "CB"."""

    name: str
    dimension: int
    distance: int
    evaluations: int
    seconds: float


def _scan_part(f: GF, name: str, rows: np.ndarray, threads: int) -> tuple[Part, tuple[int, ...]]:
    """The ``Part`` record of the full scan of rows, and its lex-least minimum-weight message."""
    start = time.perf_counter()
    d, msg, _ = _exhaustive_scan(f, rows, threads=threads)
    return Part(name, len(rows), d, f.q ** len(rows), time.perf_counter() - start), msg


def _split_distance(f: GF, basis: np.ndarray, mask: np.ndarray, budget: int, threads: int = 1):
    """Exact minimum weight of the row space of basis through the coordinate split ``mask``.

    Returns (distance, message in basis coordinates, the scanned parts).
    For each side S, one ``row_reduce`` of [basis | I_k] pivots on the
    other side's columns: the rows past the rank vanish there and, taken
    on S, are a basis of K_S; the rows up to the rank, on the other side,
    are a basis of its projection C_other.  K_A and K_B are scanned, and
    C_S too when its rank exceeds dim K_S (else C_S is K_S on S); an empty
    kernel holds no word.  A word nonzero on both sides weighs at least
    d(C_A) + d(C_B), so d = min(d(K_A), d(K_B)) once that sum reaches it,
    and a split whose bound does not close raises RuntimeError.  The
    message is the least one of the first kernel of weight d.  Raises
    BudgetExceeded before any elimination when q^floor(k/2) + q^ceil(k/2)
    exceeds the budget (no split of k >= 2 rows costs less: rank C_A +
    rank C_B >= k, and a side of positive rank scans at least q^rank C_S
    words), and before any scan when the exact sum of q^dimension over the
    parts does.
    """
    k, n = basis.shape
    q = f.q
    floor = q ** (k // 2) + q ** (k - k // 2)
    if floor > budget:
        raise BudgetExceeded(
            f"the family split needs at least {floor} codeword evaluations "
            f"(budget {budget}); use method='witness' for the known upper bound")
    aug = np.hstack([basis, np.eye(k, dtype=basis.dtype)])
    kernels, projections = {}, {}
    for side, other, on in (("A", "B", mask), ("B", "A", ~mask)):
        reduced, pivots = row_reduce(f, aug, np.flatnonzero(~on))
        r = len(pivots)
        kernels[side] = reduced[r:, :n][:, on], reduced[r:, n:]
        projections[other] = reduced[:r, :n][:, ~on]
    parts = []
    for s in "AB":
        kernel, projection = kernels[s][0], projections[s]
        if len(kernel):
            parts.append((f"K{s}", kernel))
        if len(projection) > len(kernel):
            parts.append((f"C{s}", projection))
    cost = sum(q ** len(rows) for _, rows in parts)
    if cost > budget:
        raise BudgetExceeded(
            f"the family split needs {cost} codeword evaluations "
            f"(budget {budget}); use method='witness' for the known upper bound")
    scanned = [_scan_part(f, name, rows, threads) for name, rows in parts]
    dist = {part.name: part.distance for part, _ in scanned}
    d, side = min(((dist[f"K{s}"], s) for s in "AB" if f"K{s}" in dist), default=(n + 1, None))
    # d(C_S): scanned, else that of K_S, else C_S = {0} and no word is nonzero on both sides
    cross = sum(dist.get(f"C{s}", dist.get(f"K{s}", n + 1)) for s in "AB")
    if cross < d:
        least = f"the least kernel weight {d}" if side else "every kernel weight (both kernels are empty)"
        raise RuntimeError(f"the family split does not certify the distance: a word nonzero on "
                           f"both sides may weigh {cross}, below {least}")
    msg = next(msg for part, msg in scanned if part.name == f"K{side}")
    msg = _combine(f, msg, kernels[side][1])
    return d, tuple(msg.tolist()), tuple(part for part, _ in scanned)


@dataclass
class DistanceResult:
    """``evaluations`` counts the codewords whose weight was established:
    the sum of q^dimension over ``parts``, the kernels and projections
    that the family split scanned, and 1 in witness mode, where ``parts``
    is empty."""

    q: int
    n: int
    dimension: int
    distance: int
    witness: MinorFunction
    exact: bool
    method: str
    evaluations: int
    parts: tuple[Part, ...] = ()


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def minimum_distance(f: GF, method: str = "exhaustive", budget: int = DEFAULT_BUDGET,
                     threads: int = 1) -> DistanceResult:
    """Minimum Hamming weight of a nonzero codeword.

    ``exhaustive`` computes the exact distance at every q by the family
    split (``_split_distance``), which scans the kernels and projections of
    the two families of generators; the budget only refuses a split that
    costs more.  Its witness is ``min_weight_witness`` when that has the
    distance's weight, else the split's kernel message.  ``witness`` only
    evaluates the known minimum-weight codeword and reports its weight, an
    upper bound on the distance.
    """
    _check_threads(threads)
    G = build_generator(f)
    if method == "witness":
        wit = min_weight_witness(f)
        rep = weight(wit)
        return DistanceResult(q=f.q, n=G.n, dimension=rank_dimension(G), distance=rep.total,
                              witness=wit, exact=False, method="witness", evaluations=1)
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}; expected 'exhaustive' or 'witness'")
    basis, exprs = _reduced_basis(G)
    best_w, msg, parts = _split_distance(f, basis, family_mask(f.q), budget, threads)
    wit = min_weight_witness(f)
    if weight(wit).total != best_w:
        wit = _message_to_function(f, msg, exprs)
    return DistanceResult(q=f.q, n=G.n, dimension=len(exprs), distance=best_w, witness=wit, exact=True,
                          method="exhaustive", evaluations=sum(p.evaluations for p in parts), parts=parts)


def weight_distribution(f: GF, budget: int = DEFAULT_BUDGET, threads: int = 1) -> dict[int, int]:
    """weight -> number of codewords, over all q^k codewords (zero included)."""
    _check_threads(threads)
    basis, _ = _reduced_basis(build_generator(f))
    k = len(basis)
    total = f.q**k
    if total > budget:
        raise BudgetExceeded(
            f"full weight distribution needs {f.q}^{k} = {total} codeword evaluations, over the "
            f"budget of {budget}; raise the budget to force it")
    _, _, hist = _exhaustive_scan(f, basis, threads=threads)
    return {int(w): int(c) for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass
class VerificationReport:
    q: int
    n: int
    dimension: int
    distance: int
    distance_exact: bool
    checks: list[Check] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        d = f"d={self.distance}" if self.distance_exact else f"d<={self.distance} (upper bound)"
        out = [f"polar orthogonal Grassmann code over GF({self.q}): n={self.n} k={self.dimension} {d}"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            out.append(f"{tag} {c.name}: expected {c.expected}, got {c.actual}")
        good = sum(1 for c in self.checks if c.passed)
        out.append(f"{good}/{len(self.checks)} checks passed")
        return out


def verify(f: GF, budget: int = DEFAULT_BUDGET, threads: int = 1) -> VerificationReport:
    """Run every checkable structural claim for this q and report pass/fail."""
    from .forms import totally_singular_mask  # only verify checks the forms

    _check_threads(threads)
    q = f.q
    checks: list[Check] = []

    def add_check(name, expected, actual):
        checks.append(Check(name, expected, actual, expected == actual))

    # every point check reads the eight cell arrays, (3, 6, n) once joined
    cells = [cell_matrices(f, pivots) for pivots in CELL_ORDER]
    mats = np.concatenate(cells, axis=2)
    n = mats.shape[2]
    add_check("point count", point_count(q), n)
    add_check("cell sizes", (q**3, q**3, q**2, q**2, q, q, 1, 1), tuple(c.shape[2] for c in cells))
    # a row's pivot is its last nonzero column; columns c and 5 - c (0-based) are mirrored
    lead = AMBIENT - 1 - np.argmax(mats[:, ::-1] != 0, axis=1)
    add_check("pivot sets avoid mirrored column pairs", True, not np.any(lead[:, None] + lead == AMBIENT - 1))
    # reduced form: pivots strictly decrease down the rows, and block[r, s] (row r on row s's pivot) is the identity
    block = np.take_along_axis(mats, np.broadcast_to(lead, (ELL, *lead.shape)), axis=1)
    add_check("representatives in right-to-left reduced form", True,
              bool(np.all(lead[:-1] > lead[1:]) and np.all(block == np.eye(ELL, dtype=mats.dtype)[:, :, None])))
    add_check("points totally singular", True, bool(totally_singular_mask(f, mats).all()))
    flat = mats.reshape(-1, n)
    # sorted, equal columns are adjacent (np.unique would import numpy.ma, about 40 ms)
    cols = flat[:, np.lexsort(flat)]
    add_check("representatives pairwise distinct", n,
              1 + int(np.count_nonzero(np.any(cols[:, 1:] != cols[:, :-1], axis=0))))
    if q <= 3:
        scan = frozenset(sum(rows, ()) for rows in brute_force_points(f))
        add_check("cell enumeration equals reduced-form scan", True, frozenset(map(tuple, flat.T.tolist())) == scan)
    # swapping columns 3 and 4 of point j gives point perm[j]
    add_check("column 3/4 swap pairs the cells bijectively", True,
              np.array_equal(mats[:, [0, 1, 3, 2, 4, 5]], mats[:, :, swap34_map(f)]))
    # the generator is built through the pivot expansion; the direct minors are its oracle
    G = build_generator(f)
    direct = _direct_minors(f, mats)
    add_check("pivot expansion equals direct minor", 0, int(np.count_nonzero(direct != G.matrix)))
    add_check("reduced index transpose duality", True,
              all(reduced_minor_indices(A, I)[0] == reduced_minor_indices(reflected_complement(A), I)[1]
                  for A in COLUMN_SETS for I in CELL_ORDER))
    k = rank_dimension(G)
    if q % 2 == 0:
        bad = sum(1 for A in COLUMN_SETS
                  if not np.array_equal(G.row(A), G.row(reflected_complement(A))))
        add_check("generator rows repeat on reflected complements", 0, bad)
    wit = min_weight_witness(f)
    rep = weight(wit)
    expected_d = q**3 - q**2 if q % 2 else q**3
    add_check("witness weight", expected_d, rep.total)
    profile = ((q - 2) * q**2, 0, 0, q**2, 0, 0, 0, 0) if q % 2 else (q**3, 0, 0, 0, 0, 0, 0, 0)
    add_check("witness cell profile", profile, tuple(rep.per_cell[piv] for piv in CELL_ORDER))
    try:
        res = minimum_distance(f, budget=budget, threads=threads)
        add_check("exact minimum distance", expected_d, res.distance)
        if q == 2:
            add_check("code parameters [n,k,d]", (30, 14, 8), (G.n, k, res.distance))
        distance, exact = res.distance, True
    except BudgetExceeded:
        add_check("witness weight matches theoretical distance (upper bound only)",
                  expected_d, rep.total)
        distance, exact = rep.total, False
    return VerificationReport(q=q, n=G.n, dimension=k, distance=distance,
                              distance_exact=exact, checks=checks)
