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
lookup in this module (``_np_add`` in extension fields, ``_scaled_rows``,
``_combine``) is one ``gf.gather`` from a flattened (q, q) table.

One kernel, ``_round_weights``, enumerates codewords for both the full
scan and the information-set search described below: one round weighs
every message of one weight w on a set of rows.  Every nonzero multiple
of a codeword has its weight, so a round weighs only the messages whose
first coefficient is 1, one per scalar class.  The full scan of all q^k
codewords of a reduced basis runs the rounds w = 1..k, scales the
histogram by q-1 and keeps the lexicographically least minimum-weight
message, which has first coefficient 1 and so is always weighed.  With
several threads the rounds go to a pool, largest first, and the merge
(histograms summed, minimum over (weight, message)) does not depend on
the thread count or the completion order.

The dimension is 14 in even characteristic (reflected-complement minors
coincide on the point set) but the full 20 for odd q, where q^k dwarfs
any evaluation budget.  Minimum distance stays exactly computable there
through disjoint information sets: once every message of weight <= w has
been enumerated against each round's systematic generator, any remaining
codeword has weight at least sum_i max(0, w + 1 - deficit_i), and the
search stops as soon as that bound meets the best weight found.  Each
round splits every support of weight w into a prefix and a suffix of L
rows, and keeps a packed, negated table of the codewords on every
L-subset of rows (``_pack``).  The prefixes that end at one row s all
meet the same run of suffixes, the L-subsets after s, so one XOR of their
packed codewords against that run, the OR of the planes and a popcount
weigh all of those supports at once (a + b is nonzero exactly where
a != -b, so the sum is never formed and one kernel serves every field;
L = 3 for q = 3 and 2 for q = 4).  The prefixes are built straight from
the rows, sorted by last row, with one add per position, in chunks of at
most _BLOCK_BYTES.  Leaves come out grouped by s, not in the order of the
messages, so each leaf is reduced to its least weight and the rank of its
first message of that weight, and the search keeps the least (weight, w,
set, rank): the message that comes first in the frozen order.  For q = 3
the bound passes the witness weight 18 at w = 6 after 9 192 624
evaluations (messages whose weight is established; 4 596 312 weights
computed), about 70 ms of work on a 2-core machine.

The known minimum-weight codewords: for even q the single minor on
columns 456 (weight q^3, all of it on cell P456); for odd q the
combination of minors 236 and 456 whose pivot-cell values cancel at
a5 = +-1 (weight q^3 - q^2, split (q-2)*q^2 on P456 plus q^2 on P236).
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .generator import GeneratorMatrix, _det_tables, _np_det, build_generator
from .gf import GF, gather, row_reduce
from .grassmann import AMBIENT, COLUMN_SETS, ELL, MinorFunction, reduced_minor_indices, reflected_complement
from .polar import CELL_ORDER, brute_force_points, cell_matrices, cell_slices, point_count, swap34_map

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


def _scaled_rows(f: GF, rows: np.ndarray) -> np.ndarray:
    """(k, q-1, n): the q-1 nonzero multiples of each of the k rows, coefficient 1 first."""
    return gather(f.np_tables()[1], np.arange(1, f.q)[:, None], rows[:, None, :])


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

    Runs the rounds w = 1..k of ``_round_weights`` on the basis rows, one
    message per scalar class, and scales the histogram by q-1.  The
    lex-least member of a scalar class has first coefficient 1, so the
    lex-least minimum-weight message is among those weighed.  The suffix
    tables are built once, before the rounds, which only read them, so the
    threads share them.  A round weighs C(k, w) * (q-1)^(w-1) messages;
    with one thread every round runs in the calling thread.  With more, a
    round whose packed codewords fit in _BLOCK_BYTES, about one leaf, still
    runs there, where a worker would only add overhead, and the others run
    on ``threads`` workers, the costliest first (no pool when there are
    none).  The merge is independent of completion order.
    """
    k, n = basis.shape
    if k == 0:
        raise ValueError("cannot scan a zero-dimensional code")
    q = f.q
    rows_scaled = _scaled_rows(f, basis)
    tables = _suffix_tables(f, rows_scaled, _BLOCK_BYTES)

    def scan_round(w):
        hist = np.zeros(n + 1, dtype=np.int64)
        least, hits = n + 1, []
        for prefixes, suffixes, weights in _round_weights(f, rows_scaled, w, tables, _BLOCK_BYTES):
            hist += np.bincount(weights, minlength=n + 1)
            wmin = int(weights.min())
            if wmin < least:
                least, hits = wmin, []
            if wmin == least:
                hits.append(_leaf_messages(q, w, prefixes, suffixes, np.flatnonzero(weights == wmin)))
        supports, coeffs = (np.concatenate(parts) for parts in zip(*hits))
        msgs = np.zeros((len(coeffs), k), dtype=np.int64)
        np.put_along_axis(msgs, supports, coeffs, axis=1)
        return hist, (least, tuple(msgs[np.lexsort(msgs.T[::-1])[0]].tolist()))

    work = {w: comb(k, w) * (q - 1) ** (w - 1) * _packed_row_bytes(q, n) for w in range(1, k + 1)}
    rounds = sorted(work, key=work.get, reverse=True)
    pooled = [w for w in rounds if threads > 1 and work[w] > _BLOCK_BYTES]
    results = [scan_round(w) for w in rounds if w not in pooled]
    if pooled:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; only a round above one leaf uses it

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results += ex.map(scan_round, pooled)
    hist = sum(h for h, _ in results) * (q - 1)
    hist[0] = 1
    best_w, best_msg = min(b for _, b in results)
    return best_w, best_msg, hist


def _message_to_function(f: GF, msg: tuple[int, ...], exprs) -> MinorFunction:
    return MinorFunction(f, tuple(_combine(f, msg, exprs).tolist()))


# ---------------------------------------------------------------------------
# exact distance via disjoint information sets
# ---------------------------------------------------------------------------

def _information_sets(f: GF, basis: np.ndarray):
    """Greedy disjoint information sets of the row space of basis.

    Each round row-reduces the full basis against the still-unused
    columns; the pivot columns found become that round's information set
    and the reduced k rows its systematic generator.  Entries are
    (pivot columns, systematic rows, expressions in basis coordinates,
    rank).  Rounds may be rank deficient: rows past the rank vanish on
    every unused column.  Once every message of weight <= w has been
    enumerated against each round's generator, ``_bound_table`` bounds the
    weight of any remaining codeword.
    """
    k, n = basis.shape
    aug = np.hstack([basis, np.eye(k, dtype=basis.dtype)])
    unused = np.ones(n, dtype=bool)
    sets = []
    while unused.any():
        reduced, pivots = row_reduce(f, aug, np.flatnonzero(unused))
        if not pivots:
            break
        unused[list(pivots)] = False
        exprs = tuple(map(tuple, reduced[:, n:].tolist()))
        sets.append((pivots, reduced[:, :n], exprs, len(pivots)))
    return sets


def _messages_up_to(k: int, q: int, w: int) -> int:
    """Number of messages of weight 1..w in GF(q)^k: one round's evaluations up to weight w."""
    return sum(comb(k, v) * (q - 1) ** v for v in range(1, w + 1))


def _bound_table(k: int, ranks: list[int]) -> np.ndarray:
    """bound[s, w] = sum_{i <= s} max(0, w + 1 - (k - ranks[i])), w = 0..k: a
    lower bound on the weight of every codeword not yet seen once all messages
    of weight <= w have been enumerated on the first s + 1 sets.  Non-decreasing in w."""
    return np.cumsum(np.maximum(0, np.arange(k + 1) + 1 - k + np.asarray(ranks)[:, None]), axis=0)


def _search_cost_floor(q: int, k: int, n: int, d_up: int) -> int:
    """A lower bound on the search's projected cost, known before any information set is built.

    It is the projection of the best sets n columns allow: k columns each,
    the rest in one.  g(r) = max(0, w + 1 - k + r) is convex and non-decreasing,
    so no ranks with sum <= n and entries <= k give a larger bound (majorization).
    """
    return _projected_cost(q, k, [k] * (n // k) + ([n % k] if n % k else []), d_up)[0]


def _projected_cost(q: int, k: int, ranks: list[int], d_up: int) -> tuple[int, int]:
    """(cost, size) of the cheapest prefix of the information sets with these ranks.

    Enumerating a prefix of the sets is enough for the bound; a prefix
    stops at the first weight where its bound meets the starting upper
    bound d_up (or at k).
    """
    stops = np.count_nonzero(_bound_table(k, ranks)[:, :k] < d_up, axis=1)
    up_to = [_messages_up_to(k, q, w) for w in range(k + 1)]
    return min((size * up_to[w], size) for size, w in enumerate(stops.tolist(), 1))


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


def _prefix_groups(f: GF, rows_scaled: np.ndarray, depth: int, L: int, cap: int):
    """Every support prefix of ``depth`` >= 1 rows that leaves L later rows, with
    its packed codewords, gathered by its last row s: (s, prefixes, packed
    block (planes, words, prefixes, (q-1)^(depth-1))), at most
    max(1, cap // C(k-s-1, L)) prefixes at a time.

    The prefixes are the ``depth``-subsets of the first k - L rows, sorted
    stably by last row, so those of one last row stay lexicographic.  Their
    codewords, first coefficient 1 and the first position most significant,
    are built from the rows with one add per position, in chunks of at most
    _BLOCK_BYTES in the element domain (at least one prefix), each packed once.
    """
    k, units, n = rows_scaled.shape
    prefixes = np.array(list(combinations(range(k - L), depth)), dtype=np.intp)
    prefixes = prefixes[np.argsort(prefixes[:, -1], kind="stable")]
    chunk = max(1, _BLOCK_BYTES // (units ** (depth - 1) * n * rows_scaled.itemsize))
    planes = (f.q - 1).bit_length()
    for i in range(0, len(prefixes), chunk):
        part = prefixes[i:i + chunk]
        block = rows_scaled[part[:, 0], :1]
        for col in part.T[1:]:
            block = _np_add(f, block[:, :, None], rows_scaled[col][:, None]).reshape(len(part), -1, n)
        packed = _pack(block, planes)
        last, j = part[:, -1].tolist(), 0
        while j < len(part):
            s = last[j]
            end = min(bisect_right(last, s, j), j + max(1, cap // comb(k - s - 1, L)))
            yield s, part[j:end], packed[:, :, j:end]
            j = end


def _suffix_tables(f: GF, rows_scaled: np.ndarray, share: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(packed negated codewords, subsets) on the j-subsets of rows, for j = 1..L.

    L is the largest length such that each table 2..L is no larger than
    the largest round on the rows (round v weighs C(k, v) * (q-1)^(v-1)
    codewords) and, in ``_pack`` form, fits in ``share`` bytes.  Level j
    lists the (C(k, j), j) subsets in lexicographic order, each with all
    (q-1)^j coefficient vectors, the first position most significant; its
    codewords are (planes, words, C(k, j), (q-1)^j).  The j-subsets that
    start at row i are i followed by the last C(k-i-1, j-1) subsets of
    level j-1, so each level takes one add per row from the one before and
    is packed block by block; -(a + b) = -a + -b, so the negated rows
    build it directly.
    """
    k, units, n = rows_scaled.shape
    cap = min(share // _packed_row_bytes(f.q, n),
              max(comb(k, v) * units ** (v - 1) for v in range(1, k + 1)))
    planes = (f.q - 1).bit_length()
    neg_rows = f.np_tables()[2][rows_scaled]
    blocks, subsets, tables = [neg_rows], np.arange(k)[:, None], []
    for j in range(1, k + 1):
        if j > 1:
            starts = [len(subsets) - comb(k - i - 1, j - 1) for i in range(k)]
            blocks = (_np_add(f, row[None, :, None, :], prev[s:, None]).reshape(-1, units**j, n)
                      for row, s in zip(neg_rows, starts))
            subsets = np.concatenate([np.column_stack((np.full(len(subsets) - s, i), subsets[s:]))
                                      for i, s in enumerate(starts)])
        last = j == k or comb(k, j + 1) * units ** (j + 1) > cap
        if not last:
            prev = np.concatenate(list(blocks))
            blocks = [prev]
        tables.append((np.concatenate([_pack(block, planes) for block in blocks], axis=2), subsets))
        if last:
            return tables


def _round_weights(f: GF, rows_scaled: np.ndarray, w: int, tables, share: int):
    """Weights of every message of weight w <= k on k rows whose first coefficient is 1.

    Every nonzero multiple of a message has its weight, so the normal
    form c1^-1 * m of each message m (c1 its first coefficient) stands for
    its q-1 multiples, and a message's rank (its support, then its
    coefficients, in lexicographic order) is never below its normal form's.

    ``rows_scaled[j]`` holds the q-1 nonzero multiples of row j, and
    ``tables`` are its ``_suffix_tables``.  With L = min(w, len(tables))
    each support splits into a prefix of w-L rows, the first with
    coefficient 1 only, and a suffix from the level-L table.  The suffixes
    that extend a prefix ending at row s are the contiguous run of
    L-subsets starting after s, so a leaf weighs the packed blocks of
    several prefixes that end at s against a slice of that run in one
    broadcast ``_weights``, the longer operand along the contiguous inner
    axis.  ``_prefix_groups`` builds the prefixes and their codewords from
    the rows; when w = L the prefix is empty and the table's coefficient-1
    slice is weighed.  A leaf holds at most max(1, max(share, _BLOCK_BYTES
    / 2) // (bytes of (q-1)^(w-1) packed codewords)) (prefix, suffix)
    pairs, each pair with every coefficient of both.  The tables of all information
    sets live through a search and split _BLOCK_BYTES into shares, while a
    leaf lives for one call, so it may take half the budget: that weighs
    the q = 3 and 4 searches and the q = 8 half as fast as the whole budget
    and adds half as much to the peak memory.

    Yields (prefixes, suffixes, weights) per leaf, in no particular order:
    the prefixes an array of supports, the suffixes a slice of the (C(k, L),
    L) subsets array, and the weights laid out as (prefix, suffix, prefix
    coefficients, suffix coefficients), in rank order within the leaf;
    ``_leaf_messages`` decodes leaf indices.
    """
    k, units, n = rows_scaled.shape
    L = min(w, len(tables))
    depth = w - L
    table, subsets = tables[L - 1]
    cap = max(1, max(share, _BLOCK_BYTES // 2) // (_packed_row_bytes(f.q, n) * units ** (w - 1)))
    if depth == 0:
        groups = [(-1, np.empty((1, 0), dtype=subsets.dtype), np.zeros((*table.shape[:2], 1, 1), dtype=table.dtype))]
        table = table[..., :units ** (L - 1)]
    else:
        groups = _prefix_groups(f, rows_scaled, depth, L, cap)
    units_l = table.shape[3]
    flat = table.reshape(*table.shape[:2], -1)
    for s, prefixes, block in groups:
        count, units_d = block.shape[2:]
        rows = block.reshape(*block.shape[:2], -1)
        a = len(subsets) - comb(k - s - 1, L)
        step = min(cap, len(subsets) - a)
        for b in range(a, len(subsets), step):
            run = flat[:, :, b * units_l:(b + step) * units_l]
            suffixes = subsets[b:b + step]
            if rows.shape[2] > run.shape[2]:
                weights = _weights(run[..., None], rows[:, :, None])
                weights = weights.reshape(len(suffixes), units_l, count, units_d).transpose(2, 0, 3, 1)
            else:
                weights = _weights(rows[..., None], run[:, :, None])
                weights = weights.reshape(count, units_d, len(suffixes), units_l).transpose(0, 2, 1, 3)
            yield prefixes, suffixes, weights.reshape(-1)


def _coefficients(idx, w: int, units: int) -> np.ndarray:
    """(len(idx), w): the coefficients 1..q-1 of the messages idx on a support
    of w rows, idx counting their (q-1)^w vectors with the first position most significant."""
    return np.asarray(idx)[:, None] // units ** np.arange(w - 1, -1, -1) % units + 1


def _leaf_messages(q: int, w: int, prefixes, suffixes, idx):
    """(supports, coefficients), each (len(idx), w), of the entries idx of a
    ``_round_weights`` leaf of weight w.

    Entry i of a leaf with P prefixes and S suffixes is the pair (prefix
    i // ((q-1)^(w-1) * S), suffix i // (q-1)^(w-1) % S), with coefficient
    vector i % (q-1)^(w-1) in ``_coefficients`` order; the first
    coefficient is always 1."""
    pair, rest = np.divmod(np.asarray(idx), (q - 1) ** (w - 1))
    p, s = np.divmod(pair, len(suffixes))
    return np.hstack([prefixes[p], suffixes[s]]), _coefficients(rest, w, q - 1)


class SearchRound(NamedTuple):
    """One round of the information-set search: every message of weight w on each set."""

    w: int
    lower_bound: int
    best: int
    evaluations: int
    seconds: float


def _bounded_search(f: GF, basis: np.ndarray, d_up: int, budget: int):
    """Exact minimum weight by message-weight-ordered enumeration.

    Returns (distance, message in basis coordinates or None if the
    initial upper bound was never beaten, the rounds as ``SearchRound``
    records).  Round w weighs, set by set, every message of weight w
    whose first coefficient is 1 through ``_round_weights``.  The
    frozen order of the messages is (w, set, support, coefficients),
    supports and coefficients lexicographic; the leaves come in another
    order, so each is reduced to its least weight and the support and
    coefficients of its first entry of that weight (its entries are in
    frozen order), and the search keeps the least (weight, w, set index,
    support, coefficients).  Only a leaf that ties the best weight in the
    round and set where that weight was found can move the witness, so
    it is the first message in frozen order that beats d_up.  Each
    weight computed stands for the q-1 multiples of its message, so a
    round's ``evaluations`` counts messages whose weight the search
    established: (sets searched) * C(k, w) * (q-1)^w.  Each set's suffix
    tables are built once, before round 1, in an equal share of
    _BLOCK_BYTES.  The search ends at w = k at the latest: the first set
    has full rank, so its rounds 1..k have weighed every codeword.
    Raises BudgetExceeded before round 1 when the projected cost exceeds
    the budget, and before the information sets are built when even the
    floor of ``_search_cost_floor`` does.  The projection counts every
    round up to the weight where the bound meets the starting upper bound:
    the exact cost when that upper bound is the distance, more than the
    cost otherwise.  The greedy sets come out with non-increasing ranks
    (each round reduces on a subset of the previous round's unused
    columns), so their prefixes are the cheapest choices of a given size.
    """
    k, n = basis.shape
    q = f.q
    floor = _search_cost_floor(q, k, n, d_up)
    if floor > budget:
        raise BudgetExceeded(
            f"the information-set search needs at least {floor} codeword evaluations "
            f"(budget {budget}); use method='witness' for the known upper bound")
    sets = _information_sets(f, basis)
    ranks = [r for _, _, _, r in sets]
    best_cost, best_size = _projected_cost(q, k, ranks, d_up)
    if best_cost > budget:
        raise BudgetExceeded(
            f"the search over {best_size} information sets needs {best_cost} codeword "
            f"evaluations (budget {budget}); use method='witness' for the known upper bound")
    sets = sets[:best_size]
    bound = _bound_table(k, ranks)[best_size - 1].tolist()
    share = _BLOCK_BYTES // len(sets)
    scaled = [_scaled_rows(f, sys_rows) for _, sys_rows, _, _ in sets]
    tables = [_suffix_tables(f, rows_scaled, share) for rows_scaled in scaled]
    best = (d_up,)  # then (weight, w, set index, support, coefficients)
    rounds = []
    w = 0
    while w < k and bound[w] < best[0]:
        w += 1
        start, evals = time.perf_counter(), 0
        for i, (rows_scaled, set_tables) in enumerate(zip(scaled, tables)):
            for prefixes, suffixes, weights in _round_weights(f, rows_scaled, w, set_tables, share):
                evals += len(weights) * (q - 1)
                least = int(weights.min())
                if least < best[0] or (least == best[0] and best[1:3] == (w, i)):
                    supports, coeffs = _leaf_messages(q, w, prefixes, suffixes, [int(weights.argmin())])
                    best = min(best, (least, w, i, tuple(supports[0].tolist()), tuple(coeffs[0].tolist())))
        rounds.append(SearchRound(w, bound[w], best[0], evals, time.perf_counter() - start))
    if len(best) == 1:
        return d_up, None, tuple(rounds)
    least, _, i, support, coeffs = best
    exprs = sets[i][2]
    return least, tuple(_combine(f, coeffs, [exprs[r] for r in support]).tolist()), tuple(rounds)


@dataclass
class DistanceResult:
    """``evaluations`` counts the messages whose weight was established:
    q^k for the full scan, 1 in witness mode, and in the information-set
    search every message of each round, though the search computes one
    weight per scalar class.  ``rounds`` records that search, round by
    round; it is empty when all q^k codewords were scanned or in witness
    mode."""

    q: int
    n: int
    dimension: int
    distance: int
    witness: MinorFunction
    exact: bool
    method: str
    evaluations: int
    rounds: tuple[SearchRound, ...] = ()


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def minimum_distance(f: GF, method: str = "exhaustive", budget: int = DEFAULT_BUDGET,
                     threads: int = 1) -> DistanceResult:
    """Minimum Hamming weight of a nonzero codeword.

    ``exhaustive`` computes the exact distance: all q^k codewords are
    enumerated when that count fits the budget, otherwise the search runs
    in message-weight order over disjoint information sets until its
    lower bound certifies the best weight found (still exact, far fewer
    evaluations).  ``witness`` only evaluates the known minimum-weight
    codeword and reports its weight, an upper bound on the distance.
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
    k = len(exprs)
    total = f.q**k
    if total <= budget:
        best_w, best_msg, _ = _exhaustive_scan(f, basis, threads=threads)
        wit = _message_to_function(f, best_msg, exprs)
        return DistanceResult(q=f.q, n=G.n, dimension=k, distance=best_w, witness=wit,
                              exact=True, method="exhaustive", evaluations=total)
    start = min_weight_witness(f)
    best_w, best_msg, rounds = _bounded_search(f, basis, weight(start).total, budget)
    wit = start if best_msg is None else _message_to_function(f, best_msg, exprs)
    return DistanceResult(q=f.q, n=G.n, dimension=k, distance=best_w, witness=wit,
                          exact=True, method="exhaustive",
                          evaluations=sum(r.evaluations for r in rounds), rounds=rounds)


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
