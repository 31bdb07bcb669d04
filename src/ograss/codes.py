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

One kernel, the full scan ``_exhaustive_scan``, enumerates codewords
and counts their weights.  The basis splits into a head, whose table
holds the zero word and one codeword per scalar class of head messages
(every nonzero multiple of a codeword has its weight), and a tail, whose
table holds every tail message's codeword, negated, both packed as bit
planes (``_pack``).  One XOR of packed head codewords against a slice of
the tail table, the OR of the planes and a popcount weigh a whole block
of messages (a + b is nonzero exactly where a != -b, so the sum is never
formed and one kernel serves every field), and no XOR exceeds
_BLOCK_BYTES.  Each head row is a coset class of the span of the tail,
and each block bins into its head rows of one histogram, which a scan of
_POOL_BLOCKS blocks or more shares between one thread per CPU.

The dimension is 14 in even characteristic (reflected-complement minors
coincide on the point set) but the full 20 for odd q.  The weight
distribution, and the exact distance read off it, have one path at every
q: the two families of generators of Q+(5,q) (``polar.family_mask``),
the paper's cells in two classes.  K_S holds the codewords that vanish
off family S, and T is a complement of K_A + K_B, so every codeword is
t + k_A + k_B in one way, and its weight is that of t_A + k_A on A plus
that of t_B + k_B on B.  Each side scans its projection [T; K_S] once,
binned by coset of K_S, and the cosets' histograms are convolved pairwise
(``_split``): 2 * q^10 evaluations at every q, against the q^k of the
whole code.  T is empty for odd q, where C = K_A + K_B, and has 6 rows
for even q.  The budget only refuses a split that costs more; the full
scan of the whole code is the tests' oracle.  ``macwilliams`` checks a
weight distribution by the low weights of its dual.

The known minimum-weight codewords: for even q the single minor on
columns 456 (weight q^3, all of it on cell P456); for odd q the
combination of minors 236 and 456 whose pivot-cell values cancel at
a5 = +-1 (weight q^3 - q^2, split (q-2)*q^2 on P456 plus q^2 on P236).
"""

from __future__ import annotations

import functools
import os
import threading
import time

import numpy as np

from .generator import GeneratorMatrix, _det_tables, _np_det, build_generator
from .gf import GF, gather, row_reduce
from .grassmann import AMBIENT, COLUMN_SETS, ELL, MinorFunction, expansion_plan, reflected_complement
from .polar import CELL_ORDER, brute_force_points, cell_matrices, cell_slices, family_mask, point_count, swap34_map

DEFAULT_BUDGET = 10**8
_BLOCK_BYTES = 1 << 20
# the fewest blocks that a full scan shares out to a thread pool, below which the pool costs what it
# gains: on 2 cores the split takes 13.5 ms pooled against 11.4 inline at q = 4 (11 blocks a side),
# 65 against 63 ms at q = 5 (196), and 1.9 against 2.6 s at q = 7 (8 406; in process, medians of 20)
_POOL_BLOCKS = 1024


class BudgetExceeded(RuntimeError):
    """The exhaustive scan would need more codeword evaluations than allowed."""


class WitnessMismatch(RuntimeError):
    """The known minimum-weight codeword weighs args[0], not args[1], the distance that the split counted."""

    def __str__(self):
        return "the known minimum-weight codeword weighs {}, not the distance {}".format(*self.args)


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


def codeword(fn: MinorFunction, G: GeneratorMatrix) -> np.ndarray:
    """Evaluation vector of fn over the frozen point order."""
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
def _reduced_basis(G: GeneratorMatrix) -> np.ndarray:
    """The generator row-reduced to a basis of the code, one row per dimension.

    Cached per generator, which hashes by identity; the basis is read-only
    because every caller shares it."""
    reduced, pivots = row_reduce(G.field, G.matrix, range(G.n))
    basis = reduced[:len(pivots)]
    basis.setflags(write=False)
    return basis


def rank_dimension(G: GeneratorMatrix) -> int:
    """Code dimension k = rank of the generator matrix over GF(q)."""
    return len(_reduced_basis(G))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class WeightReport:
    """The Hamming weight of a codeword, and its weight on each pivot cell."""

    __slots__ = ("total", "per_cell")

    def __init__(self, total: int, per_cell: dict[tuple[int, int, int], int]) -> None:
        self.total, self.per_cell = total, per_cell


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

def _exhaustive_scan(f: GF, basis: np.ndarray, cosets: int = 0) -> np.ndarray:
    """The weight histograms of the row space of basis, one per coset class: (classes, n + 1).

    The rows past the first ``cosets`` span a subspace K, and a coset is
    the words of one message on the first rows plus K.  Row 0 is K itself,
    the zero word included, and row i > 0 the coset of the i-th message on
    the first rows whose first nonzero coefficient is 1, in lexicographic
    order: the cosets of the other nonzero messages are multiples of these
    and have their weights.  With no cosets, row 0 is the whole row space.

    The head is the first ``cosets`` rows, or floor(k/2) with none, and
    the tail the rest.  Head row i is the codeword of class i
    (``_class_words``), the tail table every tail message's codeword,
    negated, both packed.  The blocks cut every head row against every
    tail, in order, into (head, tail) slices: as many whole head rows as
    fit in one ``_weights`` XOR of at most _BLOCK_BYTES, or one head row
    and a run of its tails, binned into its head rows.  With at least
    _POOL_BLOCKS blocks and more than one CPU that the process may use
    (its affinity mask, or ``os.cpu_count()`` where the platform has none),
    the blocks are dealt round-robin to one worker thread per CPU, which
    add to the one histogram under a lock.  With no cosets, the
    other rows fold into row 0 with their q-1 multiples.
    """
    k, n = basis.shape
    q, h = f.q, cosets or k // 2
    planes = (q - 1).bit_length()
    heads = np.concatenate([_pack(run, planes) for run in _class_words(f, basis[:h])], axis=-1)
    tails = _pack(f.np_tables()[2][_codewords(f, basis[h:])], planes)
    cap = max(1, _BLOCK_BYTES // max(1, _packed_row_bytes(q, n)))
    n_heads, n_tails = heads.shape[-1], tails.shape[-1]
    per, step = max(1, cap // n_tails), min(cap, n_tails)  # a slice past the end stops at it
    blocks = [(slice(a, a + per), slice(b, b + step)) for a in range(0, n_heads, per) for b in range(0, n_tails, step)]
    hist = np.zeros((n_heads, n + 1), dtype=np.min_scalar_type(q ** (k - h)))
    lock = threading.Lock()

    def scan(work):
        for hs, ts in work:
            weights = _weights(heads[:, :, hs, None], tails[:, :, None, ts])
            m = len(weights)
            ids = weights + np.arange(0, m * (n + 1), n + 1)[:, None]
            counts = np.bincount(ids.reshape(-1), minlength=m * (n + 1)).reshape(m, n + 1)
            with lock:
                hist[hs] += counts.astype(hist.dtype)

    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if workers > 1 and len(blocks) >= _POOL_BLOCKS:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; only a pooled scan uses it

        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(scan, (blocks[i::workers] for i in range(workers))))
    else:
        scan(blocks)
    if not cosets:
        hist = ((q - 1) * hist[1:].sum(axis=0, dtype=np.min_scalar_type(q**k)) + hist[0])[None]
    return hist


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


def _class_words(f: GF, rows: np.ndarray):
    """The codewords of the zero message and of every message on the h rows
    whose first nonzero coefficient is 1, in lexicographic message order:
    1 + (q^h - 1)/(q - 1) words, yielded in runs.

    In lexicographic order such messages are the index runs [q^e, 2q^e),
    e < h: a 1 on row h-1-e and any message on the e rows after it, whose
    codewords are the first q^e of the last h-1 rows' (``_codewords``)."""
    h = len(rows)
    suffix = _codewords(f, rows[1:])
    yield suffix[:1]
    for e in range(h):
        yield _np_add(f, suffix[:f.q**e], rows[h - 1 - e])


def _packed_row_bytes(q: int, n: int) -> int:
    """Bytes of one codeword of length n over GF(q) in ``_pack`` form."""
    return (q - 1).bit_length() * -(-n // 64) * 8


def _pack(x: np.ndarray, planes: int) -> np.ndarray:
    """The bit planes of the encodings x (*rows, n), each packed over n: (planes, words, *rows) uint64.

    Plane j holds bit j of every entry, position i in bit i % 64 of word
    i // 64, and positions past n are 0 in every plane, so two packed
    codewords are equal exactly where every plane of their XOR is 0.  The
    planes are packed one at a time: one masked copy of x is alive at once.
    """
    *rows, n = x.shape
    words = -(-n // 64)
    padded = np.zeros((*rows, 64 * words), dtype=x.dtype)
    padded[..., :n] = x
    out = np.empty((planes, words, *rows), dtype=np.uint64)
    for j in range(planes):
        out[j] = np.moveaxis(np.packbits(padded & (1 << j), axis=-1, bitorder="little").view(np.uint64), -1, 0)
    return out


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


class Part:
    """The scan of one side of the family split, "CA" or "CB": the projection
    C_S of the code on family S, of q^dimension evaluations."""

    __slots__ = ("name", "dimension", "evaluations", "seconds")

    def __init__(self, name: str, dimension: int, evaluations: int, seconds: float) -> None:
        self.name, self.dimension, self.evaluations, self.seconds = name, dimension, evaluations, seconds


def _split(f: GF, basis: np.ndarray, mask: np.ndarray, budget: int) -> tuple[np.ndarray, tuple[Part, Part]]:
    """The weight distribution of the row space of basis through the coordinate split ``mask``.

    Returns (the number of codewords of each weight 0..n, the two scanned
    parts).  For each side S, one ``row_reduce`` of [basis | I_k] pivots on
    the other side's columns: the rows past the rank vanish there, and are
    a basis of K_S, the codewords that vanish off S, with their messages.
    The basis rows at the non-pivot positions of one ``row_reduce`` of the
    stacked kernel messages span T, a complement of K_A + K_B, so every
    codeword is t + k_A + k_B in one way, and reads t_S + k_S on side S.
    Side S scans the rows [T; K_S] on S, a basis of the projection C_S,
    once (``_exhaustive_scan``, binned by coset of K_S), and the weight
    distribution is the sum over t of the convolutions hist(t_A + K_A) *
    hist(t_B + K_B): the nonzero multiples of t share one pair, and equal
    pairs are convolved once.  Side A's cosets are grouped by equal
    histogram and one row of each group kept, so side A's per-coset array
    is freed before side B's scan.  At odd q, T is empty.  Raises
    BudgetExceeded before any elimination when q^floor(k/2) + q^ceil(k/2)
    exceeds the budget (no split of k rows costs less: rank C_A + rank C_B
    >= k), and before any scan when the exact sum of q^rank C_S does.
    """
    k, n = basis.shape
    q = f.q

    def guard(cost, least=""):
        if cost > budget:
            raise BudgetExceeded(f"the family split needs {least}{cost} codeword evaluations (budget {budget})")

    guard(q ** (k // 2) + q ** (k - k // 2), "at least ")
    aug = np.hstack([basis, np.eye(k, dtype=basis.dtype)])
    kernels = [reduced[len(pivots):] for reduced, pivots in (row_reduce(f, aug, np.flatnonzero(~on))
                                                             for on in (mask, ~mask))]
    T = np.delete(basis, list(row_reduce(f, np.vstack(kernels)[:, n:], range(k))[1]), axis=0)
    sides = [np.vstack([T, kernel[:, :n]])[:, on] for kernel, on in zip(kernels, (mask, ~mask))]
    guard(sum(q ** len(rows) for rows in sides))
    parts = []

    def scan(name, rows):
        start = time.perf_counter()
        hist = _exhaustive_scan(f, rows, cosets=len(T))
        parts.append(Part(name, len(rows), q ** len(rows), time.perf_counter() - start))
        return hist

    # side A's cosets by class, each named by its first coset of equal histogram: one row per class is kept
    hist = scan("CA", sides[0])
    firsts = {}
    classes = [firsts.setdefault(row.tobytes(), c) for c, row in enumerate(hist)]
    rows_a = {c: hist[c].copy() for c in firsts.values()}
    del hist
    pairs = {}
    for c, (a, b) in enumerate(zip(classes, scan("CB", sides[1]))):
        pairs.setdefault((a, b.tobytes()), [a, b, 0])[2] += q - 1 if c else 1
    # in Python integers: the counts sum to q^k, past int64 from q = 9 on
    return (sum(m * np.convolve(rows_a[a].astype(object), b.astype(object)) for a, b, m in pairs.values()),
            tuple(parts))


class DistanceResult:
    """``evaluations`` counts the codewords whose weight was established:
    the sum of q^dimension over ``parts``, the two sides that the family
    split scanned, and 1 in witness mode, where ``parts`` is empty."""

    __slots__ = ("q", "n", "dimension", "distance", "witness", "exact", "method", "evaluations", "parts")

    def __init__(self, q: int, n: int, dimension: int, distance: int, witness: MinorFunction, exact: bool,
                 method: str, evaluations: int, parts: tuple[Part, ...] = ()) -> None:
        self.q, self.n, self.dimension, self.distance, self.witness = q, n, dimension, distance, witness
        self.exact, self.method, self.evaluations, self.parts = exact, method, evaluations, parts


def minimum_distance(f: GF, method: str = "exhaustive", budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Minimum Hamming weight of a nonzero codeword.

    ``exhaustive`` reads the exact distance, at every q, off the weight
    distribution of the family split (``_split``); the budget only refuses
    a split that costs more.  Its witness is ``min_weight_witness``, and a
    witness of another weight raises WitnessMismatch.  ``witness`` only
    evaluates the known minimum-weight codeword and reports its weight, an
    upper bound on the distance.
    """
    G = build_generator(f)
    if method == "witness":
        wit = min_weight_witness(f)
        return DistanceResult(q=f.q, n=G.n, dimension=rank_dimension(G), distance=weight(wit).total,
                              witness=wit, exact=False, method="witness", evaluations=1)
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}; expected 'exhaustive' or 'witness'")
    basis = _reduced_basis(G)
    try:
        hist, parts = _split(f, basis, family_mask(f.q), budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc}; use method='witness' for the distance's known upper bound") from None
    d = int(np.flatnonzero(hist[1:])[0]) + 1
    wit = min_weight_witness(f)
    w = weight(wit).total
    if w != d:
        raise WitnessMismatch(w, d)
    return DistanceResult(q=f.q, n=G.n, dimension=len(basis), distance=d, witness=wit, exact=True,
                          method="exhaustive", evaluations=sum(p.evaluations for p in parts), parts=parts)


def weight_distribution(f: GF, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """weight -> number of codewords, over all q^k codewords (zero included),
    by the family split (``_split``) under the same budget as the distance."""
    hist, _ = _split(f, _reduced_basis(build_generator(f)), family_mask(f.q), budget)
    return {w: int(c) for w, c in enumerate(hist) if c}


def macwilliams(q: int, n: int, dist: dict[int, int]) -> list[int]:
    """B_0..B_4, the low weights of the dual of a code of length n over GF(q) with weight distribution dist.

    The MacWilliams identity in exact integers: |C| B_j = sum_w A_w K_j(w),
    with the Krawtchouk polynomial K_j(w) = sum_s (-1)^s (q-1)^(j-s) C(w, s)
    C(n-w, j-s) (MacWilliams and Sloane, The Theory of Error-Correcting
    Codes, ch. 5).  Raises ValueError unless every B_j is a nonnegative
    integer, B_0 = 1 and B_1 = B_2 = B_3 = 0.
    """
    from math import comb

    size, out = sum(dist.values()), []
    for j in range(5):
        total = sum(a * sum((-1) ** s * (q - 1) ** (j - s) * comb(w, s) * comb(n - w, j - s) for s in range(j + 1))
                    for w, a in dist.items())
        if total % size or total < 0 or (j < 4 and total != (j == 0) * size):
            raise ValueError(f"the weight distribution fails the MacWilliams identity: "
                             f"its dual would have B_{j} = {total}/{size}")
        out.append(total // size)
    return out


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

class Check:
    """One line of the verification report: a named claim, its expected and actual values."""

    __slots__ = ("name", "expected", "actual", "passed")

    def __init__(self, name: str, expected: object, actual: object, passed: bool) -> None:
        self.name, self.expected, self.actual, self.passed = name, expected, actual, passed


class VerificationReport:
    """The code's parameters and every ``Check`` that ``verify`` ran, in order."""

    __slots__ = ("q", "n", "dimension", "distance", "distance_exact", "checks")

    def __init__(self, q: int, n: int, dimension: int, distance: int, distance_exact: bool,
                 checks: list[Check]) -> None:
        self.q, self.n, self.dimension, self.distance = q, n, dimension, distance
        self.distance_exact, self.checks = distance_exact, checks

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


def verify(f: GF, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run every checkable structural claim for this q and report pass/fail."""
    from .forms import totally_singular_mask  # only verify checks the forms

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
    # per cell, A's block transposed in the skew block (pivot columns to None) is its reflected complement's
    dual = True
    for I in CELL_ORDER:
        skew = {c: s for s, c in enumerate(c for c in range(AMBIENT) if c + 1 not in I)}
        blocks = {A: tuple(tuple((r, skew.get(c)) for r, c in row) for row in block)
                  for A, (block, _) in zip(COLUMN_SETS, expansion_plan(I))}
        dual &= all(tuple(tuple((s, r) for r, s in col) for col in zip(*blocks[A])) == blocks[reflected_complement(A)]
                    for A in COLUMN_SETS)
    add_check("reduced index transpose duality", True, dual)
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
        distance, exact = minimum_distance(f, budget=budget).distance, True
    except WitnessMismatch as exc:  # the witness check above, or the distance check below, fails
        distance, exact = exc.args[1], True
    except BudgetExceeded:
        distance, exact = rep.total, False
    add_check("exact minimum distance" if exact else "witness weight matches theoretical distance (upper bound only)",
              expected_d, distance)
    if exact and q == 2:
        add_check("code parameters [n,k,d]", (30, 14, 8), (G.n, k, distance))
    return VerificationReport(q=q, n=G.n, dimension=k, distance=distance,
                              distance_exact=exact, checks=checks)
