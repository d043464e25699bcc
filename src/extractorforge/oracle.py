"""Exact brute-force verification of extraction and condensing claims.

Everything here enumerates; nothing samples silently.  Distributions hold
integer weights over one common denominator, results come back as exact
``Fraction`` values, and every enumeration is bounded by an explicit budget
that raises :class:`BudgetExceededError` instead of degrading.

Side information is classical throughout: a joint table Pr[x, s] stands in
for an encoding of the source, and the optimal guessing strategy is the
pointwise maximum over x for each s.

Distributions are rows (key, integer weight).  A :class:`JointTable` is
three narrow arrays of its rows: x values, symbol indices and integer
weights.  Every aggregation over a table, a marginal, a guessing
probability, a per-symbol weight, is one :func:`_sums` of its weights by
a dense index, added or maxed; :func:`lemma_suites` takes such sums over
the stacked rows of a whole batch of tables at once.

Every exact distance, of a source, a batch of flat sources, a side table
or the lemma suite's convexity probe, goes through :func:`_distances`, the
one entry to the distance engine: it alone reads the seed support, charges
the budget and forms each ``Fraction``, and its callers only build rows.

Sources stay plain integers end to end.  A :class:`FlatSource` holds its
values as ints, :func:`sample_flat_sources` draws a call's sources in one
array pass, :func:`extractor_distance` reads any source as integer rows,
:func:`extractor_distances` counts a batch of flat sources in one pass of
the distance engine, and :func:`image_counts` counts the condenser's
images one seed's row at a time.  BitStrings are only the outcomes that
distributions are given or give back, and the inputs of a map called one
pair at a time, in :func:`_pattern_outputs` alone.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cmp_to_key, partial
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bits import BitString
from .detrand import CounterRng, sample_distinct_rows, stream_words
from .errors import BudgetExceededError
from .toeplitz import ToeplitzExtractor, ToeplitzSpec

DEFAULT_ENUM_BUDGET = 1 << 26

_SUM_TOLERANCE_BITS = 40

# Pairs counted per block of seed patterns; bounds the scratch arrays.
_BLOCK_PAIRS = 1 << 16
# Int64 transform entries, one per (symbol, x in {0,1}^n), the spectral
# path may hold (32 MB); it declines larger sources.
_SPECTRAL_ENTRIES = 1 << 22
# (pattern, symbol, output) cells per block of the spectral path: 128 KB
# per int32 scratch array of the block, 256 KB per int64 one.
_SPECTRAL_BLOCK_CELLS = 1 << 15
# Estimated costs in ns, measured on a 2-vCPU x86_64 host (Toeplitz and
# Trevisan instances with n = 4 .. 16, m = 1 .. 6): the table path's per
# counted (pattern, row) pair and per (pattern, symbol, output) cell; the
# spectral path's per transform entry and stage, per cell and pass (m
# butterflies and about four more), and per call.
_PAIR_NS = 5
_ENTRY_NS = 3
_CELL_PASS_NS = 1.25
_SPECTRAL_CALL_NS = 20_000
# (seed, x) pairs per block of image_counts: 128 KB per int64 scratch array.
_IMAGE_BLOCK_PAIRS = 1 << 14
# Cells a block may address directly, one int64 sum each (2 MB), past its
# pair count; blocks with more cells label the observed ones instead.
_ADDRESSED_CELLS = 1 << 18

_SOURCE_STREAM_KEY = 0xF1A75EED
_TABLE_STREAM_KEY = 0x70B1E5


def _common_weights(probs: Mapping) -> tuple[dict, int]:
    """Integer weights of ``probs`` over the least common denominator."""
    for p in probs.values():
        if not isinstance(p, (Fraction, int, float)):
            raise TypeError(f"probability of type {type(p).__name__} not supported")
    converted = {o: Fraction(p) for o, p in probs.items()}
    total = math.lcm(*(p.denominator for p in converted.values()))
    return {o: p.numerator * (total // p.denominator) for o, p in converted.items()}, total


def _sums(index: np.ndarray, weights: np.ndarray, count: int, combine=np.add) -> np.ndarray:
    """The weights combined per index in [0, ``count``), added or maxed:
    int64, exact while the weights' sum fits, or Python ints for an object
    array of weights."""
    out = np.zeros(count, dtype=object if weights.dtype == object else np.int64)
    # int64 weights: a uint64 operand would send the sums through float64
    combine.at(out, index, weights.astype(out.dtype, copy=False))
    return out


def _distinct_sums(keys: np.ndarray, weights: np.ndarray) -> tuple[list, list[int]]:
    """The distinct keys in first-seen order and the summed weight of each."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order].tolist(), _sums(inverse, weights, len(distinct))[order].tolist()


def _check_total(weight_sum: int, total: int, what: str) -> None:
    if total <= 0 or abs(weight_sum - total) << _SUM_TOLERANCE_BITS > total:
        raise ValueError(f"{what} sum to {Fraction(weight_sum, max(total, 1))}, not 1")


class FiniteDistribution:
    """A probability distribution over an explicitly enumerated domain,
    held as integer weights over one common denominator."""

    def __init__(self, probs: Mapping[Hashable, Fraction | int | float]):
        self._set_weights(*_common_weights(probs))

    @classmethod
    def _from_weights(cls, weights: dict, total: int) -> "FiniteDistribution":
        dist = cls.__new__(cls)
        dist._set_weights(weights, total)
        return dist

    def _set_weights(self, weights: dict, total: int) -> None:
        if weights and min(weights.values()) < 0:
            o = next(o for o, w in weights.items() if w < 0)
            raise ValueError(
                f"negative probability {Fraction(weights[o], total)} for outcome {o!r}"
            )
        _check_total(sum(weights.values()), total, "probabilities")
        self._weights, self._total = weights, total

    @classmethod
    def uniform(cls, outcomes: Iterable[Hashable]) -> "FiniteDistribution":
        outcomes = list(outcomes)
        if not outcomes:
            raise ValueError("uniform distribution needs a nonempty domain")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("repeated outcomes")
        return cls._from_weights(dict.fromkeys(outcomes, 1), len(outcomes))

    @classmethod
    def from_counts(
        cls, counts: Mapping[Hashable, int], total: int | None = None
    ) -> "FiniteDistribution":
        weights = {o: c for o, c in counts.items() if c}
        if total is None:
            total = sum(weights.values())
        return cls._from_weights(weights, total)

    def items(self) -> list[tuple[Hashable, Fraction]]:
        return [(o, Fraction(w, self._total)) for o, w in self._weights.items()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return stat_distance(self, other) == 0

    def __len__(self) -> int:
        return len(self._weights)

    def __repr__(self) -> str:
        return f"FiniteDistribution(<{len(self._weights)} outcomes>)"


@dataclass(frozen=True)
class FlatSource:
    """Uniform distribution over 2^k distinct n-bit values, held as plain
    ints in draw order: sources compare equal and hash by (n, values).
    ``support`` gives the values as BitStrings, built on each access."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not values:
            raise ValueError("empty support")
        if len(set(values)) != len(values):
            raise ValueError("repeated support elements")
        if len(values) & (len(values) - 1):
            raise ValueError(f"support size {len(values)} is not a power of two")
        if min(values) < 0 or max(values) >> self.n:
            raise ValueError(f"support element outside [0, 2^{self.n})")

    @classmethod
    def from_ints(cls, n: int, values: Iterable[int]) -> "FlatSource":
        return cls(n, tuple(map(operator.index, values)))

    @property
    def support(self) -> tuple[BitString, ...]:
        return tuple(BitString(v, self.n) for v in self.values)


def sample_flat_sources(
    n: int, k: int, count: int, seed: int = 1
) -> list[FlatSource]:
    """Deterministic pseudorandom flat sources: ``count`` supports of size
    2^k drawn without replacement from {0,1}^n.  Source i is the stream
    (seed, n, k, i); up to n = 64 every stream is one row of a single
    :func:`sample_distinct_rows` call."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"cannot place 2^{k} distinct values in {n} bits")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    stream = CounterRng(_SOURCE_STREAM_KEY, seed, n, k)
    if n > 64:
        rows = [stream.derive(index).sample_distinct(1 << k, 1 << n) for index in range(count)]
    else:
        bases = stream.derive_bases(np.arange(count))
        rows = sample_distinct_rows(bases, 1 << k, 1 << n)[0].tolist()
    return [FlatSource(n, tuple(row)) for row in rows]


class JointTable:
    """Finite joint distribution Pr[x, s] of an n-bit source and classical
    side information over one common denominator, held as three arrays of
    its nonzero rows in order: the x values, each row's symbol as an index
    into ``_symbols``, the distinct symbols in first-seen order, and the
    integer weights, each array in the narrowest dtype that holds it (see
    :func:`_narrow`).  Weights whose sum passes int64 are Python ints, so
    that every sum of them taken in int64 is exact."""

    __slots__ = ("n", "_total", "_xs", "_symbol_ids", "_symbols", "_weights")

    def __init__(self, n: int, probs: Mapping[tuple[BitString, Hashable], Fraction]):
        for x, _ in probs:
            if not isinstance(x, BitString) or len(x) != n:
                raise ValueError(f"source outcome {x!r} is not an {n}-bit string")
        weights, total = _common_weights(probs)
        if weights and min(weights.values()) < 0:
            raise ValueError("negative probability")
        kept = {key: w for key, w in weights.items() if w}
        values = list(kept.values())
        weight_sum = sum(values)
        _check_total(weight_sum, total, "joint probabilities")
        index_of: dict = {}
        ids = [index_of.setdefault(s, len(index_of)) for _, s in kept]
        self._set_arrays(
            n, _narrow([x.to_int() for x, _ in kept]), _narrow(ids), tuple(index_of),
            _narrow(values) if weight_sum < 1 << 63 else np.array(values, object), total,
        )

    def _set_arrays(self, n, xs, symbol_ids, symbols, weights, total) -> None:
        self.n, self._total, self._symbols = n, total, symbols
        self._xs, self._symbol_ids, self._weights = xs, symbol_ids, weights

    def items(self) -> list[tuple[tuple[BitString, Hashable], Fraction]]:
        n, total, symbols = self.n, self._total, self._symbols
        rows = zip(self._xs.tolist(), self._symbol_ids.tolist(), self._weights.tolist())
        return [((BitString(x, n), symbols[i]), Fraction(w, total)) for x, i, w in rows]

    def x_marginal(self) -> FiniteDistribution:
        xs, sums = _distinct_sums(self._xs, self._weights)
        return FiniteDistribution._from_weights(
            {BitString(x, self.n): w for x, w in zip(xs, sums)}, self._total
        )

    def guessing_probability(self) -> Fraction:
        """Optimal probability of guessing x from s: sum_s max_x Pr[x, s]."""
        best = _sums(self._symbol_ids, self._weights, len(self._symbols), np.maximum)
        return Fraction(sum(best.tolist()), self._total)


def stat_distance(a: FiniteDistribution, b: FiniteDistribution) -> Fraction:
    """Variational distance (1/2) sum |a - b| over the union of supports."""
    wa, wb = a._weights, b._weights
    total = sum(
        abs(wa.get(k, 0) * b._total - wb.get(k, 0) * a._total)
        for k in wa.keys() | wb.keys()
    )
    return Fraction(total, 2 * a._total * b._total)


def distance_to_min_entropy(counts: np.ndarray, kappa: int) -> Fraction:
    """Exact distance of the distribution counts / N, N their sum, to the
    nearest distribution with min-entropy >= kappa.

    ``counts`` is an array of nonnegative integers in any integer dtype,
    such as the narrow unsigned counts of :func:`image_counts`.  The
    distance is the probability mass over the 2^-kappa cap; the nearest
    capped distribution moves exactly that mass onto fresh outcomes.
    kappa must be an integer so the cap is an exact rational.  A count c
    exceeds it when c > floor(N / 2^kappa), by (c 2^kappa - N) / (N 2^kappa).
    """
    kappa = _as_integer(kappa, "kappa")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    counts = np.asarray(counts)
    total = int(counts.sum())
    if not total:
        raise ValueError("counts must have a positive sum")
    heavy = counts[counts > total >> kappa]
    return Fraction((int(heavy.sum()) << kappa) - len(heavy) * total, total << kappa)


def _as_integer(value, name: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer for exact arithmetic, got {value!r}")


def extractor_distance(
    extractor,
    source,
    side: JointTable | None = None,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Fraction:
    """Exact distance of (seed, output[, side]) from (uniform[, side marginal]).

    ``source``, a FlatSource or a FiniteDistribution over BitStrings, is
    read as integer rows.  A flat source without a side table is one
    source of :func:`extractor_distances`.  Otherwise the side table, or
    the source as one symbol, is one run of :func:`_distances`, charged
    the source's support.  Since the distance with side information is
    sum_s Pr[s] d_s, d_s that of X | S = s, side symbols that are the flat
    pieces of a mixture give the weighted sum of their distances (the probe
    of :func:`lemma_suite`).
    """
    n = extractor.input_bits
    if isinstance(source, FlatSource):
        if side is None:
            return extractor_distances(extractor, [source], budget=budget)[0]
        if source.n != n:
            raise ValueError(f"source element of length {source.n}, extractor wants {n}")
        weights, total = dict.fromkeys(source.values, 1), len(source.values)
    elif isinstance(source, FiniteDistribution):
        if not all(isinstance(x, BitString) for x in source._weights):
            raise TypeError("source outcomes must be BitString values")
        kept = {x: w for x, w in source._weights.items() if w}
        for x in kept:
            if len(x) != n:
                raise ValueError(f"source element of length {len(x)}, extractor wants {n}")
        weights, total = {x.to_int(): w for x, w in kept.items()}, source._total
    else:
        raise TypeError(f"unsupported source type {type(source).__name__}")
    if side is None:  # the source as one symbol
        row_xs, row_weights = list(weights), list(weights.values())
        symbols, targets = np.zeros(len(row_xs), np.int64), [sum(row_weights)]
    else:  # the same x-marginal: w_side(x) N = w(x) N_side on the same support
        xs, sums = _distinct_sums(side._xs, side._weights)
        scaled = {x: w * side._total for x, w in weights.items()}
        if side.n != n or dict(zip(xs, (w * total for w in sums))) != scaled:
            raise ValueError("side table's x-marginal differs from the source")
        row_xs, symbols = side._xs.tolist(), side._symbol_ids.astype(np.int64)
        row_weights, total = side._weights.tolist(), side._total
        targets = _sums(side._symbol_ids, side._weights, len(side._symbols)).tolist()
    row_weights = None if all(w == 1 for w in row_weights) else row_weights
    runs = [(len(targets), len(weights), total)]
    return _distances(extractor, [(row_xs, symbols, row_weights, targets, runs)], budget)[0]


def extractor_distances(
    extractor, sources: Sequence[FlatSource], *, budget: int = DEFAULT_ENUM_BUDGET
) -> list[Fraction]:
    """Exact distance of (seed, output) from uniform for each flat source,
    one Fraction per source, in one count with the sources as symbols.

    The table protocol: ``extractor`` exposes input_bits, seed_bits,
    output_bits and extract(x, y), and may declare ``seed_support``, the
    ascending seed positions the output can depend on.  Seeds are enumerated
    as patterns over it, pattern bit k being seed bit seed_support[k], which
    is exact because the other seed bits multiply both sides equally.
    Outputs come from ``extract_table(state, patterns)``, packed into ints
    with shape (len(patterns), len(xs)), state = ``prepare_batch(xs)`` for
    the distinct source values xs as ints, where both methods exist,
    m <= 62 and prepare_batch does not decline by returning None; else from
    one ``extract`` call per (x, seed pattern).

    Each source is one run of :func:`_distances`: one symbol, every value
    of it a row of weight 1, so W = N = |support|.

    An extractor that is GF(2)-linear in x for each fixed seed may also
    expose ``linear_rows(patterns)``: an (m, len(patterns)) int64 array of
    x-masks r_i(y), output bit i of seed pattern y being the parity of
    r_i(y) & x, or None to decline.  Then the cells come from each source's
    Walsh-Hadamard spectrum instead of from the pairs (see
    :func:`_spectral_overlap`): the rows and their 2^m masks are built
    once per block for every source, and the source size drops out of the
    cost.  That spectral path is taken when all of these hold, else the
    table or per-pair path: 2^m times the total weight is below 2^62, so
    every value is an exact int64; the S 2^n transform entries, S symbols,
    are at most ``_SPECTRAL_ENTRIES``; its estimated time is below the table
    path's; and linear_rows does not decline.  Sources are counted in
    chunks of at most ``_SPECTRAL_ENTRIES`` >> n, so that a chunk is never
    refused the spectral path for its size where its sources alone would
    take it, and the spectral estimate, which pays its per-call cost once
    per chunk, only favours it more.  Either path gives the same exact
    distances.  ``budget`` is charged per source, as one
    :func:`extractor_distance` call per source would be.
    """
    n = extractor.input_bits
    for source in sources:
        if not isinstance(source, FlatSource):
            raise TypeError(f"unsupported source type {type(source).__name__}")
        if source.n != n:
            raise ValueError(f"source of {source.n} bits, extractor wants {n}")
    chunks, size = [], max(1, _SPECTRAL_ENTRIES >> n)
    for start in range(0, len(sources), size):
        sizes = [len(source.values) for source in sources[start : start + size]]
        row_xs = [x for source in sources[start : start + size] for x in source.values]
        symbols = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        runs = [(s + 1, w, w) for s, w in enumerate(sizes)]  # each source a run
        chunks.append((row_xs, symbols, None, sizes, runs))
    return _distances(extractor, chunks, budget)


def _distances(extractor, chunks, budget) -> list[Fraction]:
    """The exact distance of each run of symbols of every chunk, in order.

    A chunk is (row_xs, symbols, weights, targets, runs): rows (row_xs[r],
    symbols[r], weights[r]) over a denominator N, weights None for all
    ones, ``targets`` each symbol's weight W_s, and ``runs`` one
    (end, support, N) per run, its symbols those from the previous run's
    end to ``end``, ``support`` the distinct x values of its rows.  With c
    the weight in a (pattern, symbol, output) cell, a run as a side table
    of its own puts c / (N #patterns) on the cell and the uniform law
    W_s / (N 2^m #patterns), so it is at distance (W 2^m #patterns -
    overlap) / (N 2^m #patterns), W its symbols' weight and overlap the sum
    of min(c 2^m, W_s) over their cells; cells with c = 0 add nothing.
    Each chunk is one count, a pass over every symbol per block of patterns,
    on the paths :func:`extractor_distances` describes.  ``budget`` is
    charged each run's support times the patterns, every run checked before
    any pair is counted.
    """
    # the declared seed positions, ascending and inside the seed; else every one
    t, m = extractor.seed_bits, extractor.output_bits
    positions = tuple(getattr(extractor, "seed_support", range(t)))
    inside = not positions or (positions[0] >= 0 and positions[-1] < t)
    if list(positions) != sorted(set(positions)) or not inside:
        raise ValueError("bad seed_support declaration")
    ny = 1 << len(positions)
    for *_, runs in chunks:
        for _, support, _ in runs:
            if support * ny > budget:
                raise BudgetExceededError(support * ny, budget, "extractor distance enumeration")
    out = []
    for row_xs, symbols, weights, targets, runs in chunks:
        mass = len(row_xs) if weights is None else sum(weights)
        # a block has at most max(_BLOCK_PAIRS, rows) pairs, so as many nonzero terms
        dtype = _sum_dtype(max(targets), 1 << m, max(_BLOCK_PAIRS, len(row_xs)))
        weights = None if weights is None else np.array(weights, dtype=dtype)
        caps = np.array(targets, dtype=dtype)
        overlaps = None
        if hasattr(extractor, "linear_rows"):
            overlaps = _spectral_overlap(extractor, ny, row_xs, symbols, weights, caps, mass)
        if overlaps is None:
            overlaps = _table_overlap(extractor, positions, row_xs, symbols, weights, caps, dtype)
        start = 0
        for end, _, total in runs:
            scaled = sum(targets[start:end]) << m
            out.append(Fraction(scaled * ny - sum(overlaps[start:end]), (total << m) * ny))
            start = end
    return out


def _table_overlap(extractor, positions, row_xs, symbols, weights, targets, dtype) -> list[int]:
    """Per symbol, the sum of min(c 2^m, W_s) over the cells from the output
    of every (seed pattern, row) pair, ``row_xs`` each row's x value, the
    outputs read by :func:`_pattern_outputs`."""
    values = list(dict.fromkeys(row_xs))
    column_of = {v: i for i, v in enumerate(values)}
    columns = np.array([column_of[x] for x in row_xs], dtype=np.int64)
    m = extractor.output_bits
    outputs = _pattern_outputs(extractor, "extract_table", extractor.extract, values,
                               extractor.input_bits, positions, extractor.seed_bits, wide=m > 62)
    ny = 1 << len(positions)
    overlap = [0] * len(targets)
    block = max(1, min(ny, _BLOCK_PAIRS // len(row_xs)))
    for start in range(0, ny, block):
        out = outputs(np.arange(start, min(start + block, ny), dtype=np.int64))
        block_overlap = _cell_overlap(out.take(columns, axis=1), symbols, weights, targets,
                                      1 << m, dtype)
        overlap = list(map(operator.add, overlap, block_overlap.tolist()))
    return overlap


def _pattern_outputs(fn, table: str, call, xs: list[int], n: int, positions, t: int,
                     wide: bool = False):
    """The outputs of a map for a block of seed patterns, pattern bit k
    seed bit positions[k], as a function of the patterns (an int64 array)
    giving an int array of shape (len(patterns), len(xs)), xs n-bit ints.
    From ``getattr(fn, table)(fn.prepare_batch(xs), patterns)`` where fn
    has both methods, its outputs fit in 62 bits (not ``wide``) and
    prepare_batch does not decline by returning None; else by one ``call``
    on t-bit seeds per pair, the only place the enumerators build
    BitStrings, into an object array if ``wide``."""
    if not wide and hasattr(fn, table) and hasattr(fn, "prepare_batch"):
        state = fn.prepare_batch(xs)
        if state is not None:
            return partial(getattr(fn, table), state)
    inputs = [BitString(x, n) for x in xs]

    def per_pair(patterns):
        seeds = (sum(((p >> k) & 1) << pos for k, pos in enumerate(positions))
                 for p in patterns.tolist())
        rows = [[call(x, BitString(y, t)).to_int() for x in inputs] for y in seeds]
        return np.array(rows, dtype=object if wide else None)

    return per_pair


def _spectral_overlap(extractor, ny, row_xs, symbols, weights, targets, mass) -> list[int] | None:
    """Per symbol, the sum of min(c 2^m, W_s) over every (pattern, symbol,
    output) cell from the sources' Walsh-Hadamard spectra, or None to
    decline (see :func:`extractor_distances` for when).

    For a seed pattern y, output bit i is the parity of r_i(y) & x, r_i(y)
    from ``extractor.linear_rows``.  With F_s(v) = sum_x w_s(x) (-1)^(v.x)
    the transform of symbol s's weights and v_u the XOR of the rows r_i
    with u_i = 1,

        2^m c(y, s, z) = sum_x w_s(x) sum_u (-1)^(u.(E(x, y) + z))
                       = sum_u (-1)^(u.z) F_s(v_u(y)),

    so each pattern's cells are the m-bit transform of F_s gathered at its
    2^m masks: no (pattern, x) pair is enumerated, and one block's rows and
    masks serve every symbol.  Every partial sum is at most 2^m times the
    total weight in size.
    """
    n, m, symbol_count = extractor.input_bits, extractor.output_bits, len(targets)
    entries = symbol_count << n
    if mass << m >= 1 << 62 or entries > _SPECTRAL_ENTRIES:
        return None
    cells = ny * symbol_count << m
    spectral_ns = _ENTRY_NS * entries * n + _CELL_PASS_NS * cells * (m + 4) + _SPECTRAL_CALL_NS
    if spectral_ns >= _PAIR_NS * (ny * len(row_xs) + cells):
        return None
    block = max(1, min(ny, (_SPECTRAL_BLOCK_CELLS >> m) // symbol_count))
    row_blocks = (
        extractor.linear_rows(np.arange(start, min(start + block, ny), dtype=np.int64))
        for start in range(0, ny, block)
    )
    first = next(row_blocks)
    if first is None:
        return None
    # Every transform value and cell is at most 2^m times the mass in size:
    # int32 below 2^31, its block sums taken in int64 by numpy; else int64,
    # its block sums in int64 or, past it, as exact ints.
    narrow = mass << m < 1 << 31
    exact = np.int32 if narrow else _sum_dtype(mass, 1 << m, block * symbol_count << m)
    # assignment suffices: a side table has one row per (x, symbol)
    spectra = np.zeros((symbol_count, 1 << n, 1), dtype=np.int32 if narrow else np.int64)
    spectra[symbols, row_xs, 0] = 1 if weights is None else weights
    spectra = _walsh_hadamard(spectra)[:, :, 0]
    cell_targets = targets.astype(exact)[:, None, None]
    overlap = [0] * symbol_count
    for rows in itertools.chain([first], row_blocks):
        masks = np.zeros((1 << m, rows.shape[1]), dtype=np.int64)
        for i, row in enumerate(rows):  # v_u for u < 2^(i+1)
            np.bitwise_xor(masks[: 1 << i], row, out=masks[1 << i : 2 << i])
        cells = spectra.take(masks, axis=1)  # F_s(v_u), shape (S, 2^m, patterns)
        scaled = _walsh_hadamard(cells).astype(exact, copy=False)  # 2^m c(y, s, z)
        overlap = list(map(operator.add, overlap, _overlap(scaled, cell_targets).tolist()))
    return overlap


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform over axis 1 of a C-ordered
    int32 or int64 array of shape (S, 2^k, r), in place: a[s, v] becomes
    sum_x (-1)^(popcount(v & x)) a[s, x], exact while the sums fit."""
    symbol_count, size, rest = a.shape
    half = 1
    while half < size:
        pairs = a.reshape(symbol_count, size // (2 * half), 2, half * rest)
        low, high = pairs[:, :, 0], pairs[:, :, 1]
        diff = low - high
        low += high
        high[...] = diff
        half *= 2
    return a


def _cell_overlap(out, symbols, weights, targets, scale, dtype) -> np.ndarray:
    """Per symbol, the sum of min(c 2^m, W_s) over the (pattern, symbol,
    output) cells of a block, in one counting pass for every symbol.

    ``out`` holds one output per (pattern, row), ``symbols`` and ``weights``
    each row's symbol index and weight (None for all ones), and ``targets``
    each symbol's weight W_s.  c is the exact weight in the cell, so cells
    with c = 0 add 0 and only observed cells matter.
    """
    patterns, symbol_count = out.shape[0], len(targets)
    # cells are numbered by (symbol, pattern) group, then output: each
    # symbol's cells form one run, so its target applies to a long row
    groups = patterns * symbol_count
    pattern_group = np.arange(patterns, dtype=np.int64)[:, None]
    addressable = groups * scale <= max(out.size, _ADDRESSED_CELLS)
    if addressable:
        keys = np.add(out, pattern_group * scale, dtype=np.int64)
        if symbol_count > 1:  # one symbol adds only zeros; skip that pass
            keys += symbols * (patterns * scale)
        cells = groups * scale
    else:
        # Too many cells to address: label the observed ones densely.
        values, labels = np.unique(out, return_inverse=True)
        keys = labels.reshape(out.shape) + (pattern_group + symbols * patterns) * len(values)
        used, keys = np.unique(keys, return_inverse=True)
        cells = len(used)
    index = keys.ravel()
    if weights is None:
        sums = np.bincount(index, minlength=cells).astype(dtype, copy=False)
    else:
        sums = np.zeros(cells, dtype=dtype)
        np.add.at(sums, index, np.broadcast_to(weights, out.shape).ravel())
    sums *= scale
    if addressable:
        return _overlap(sums.reshape(symbol_count, patterns * scale), targets[:, None])
    # the observed cells ascend by symbol, and every symbol has some
    cell_symbols = used // len(values) // patterns
    terms = np.minimum(sums, targets[cell_symbols], out=sums)
    return np.add.reduceat(terms, np.searchsorted(cell_symbols, np.arange(symbol_count)))


def _sum_dtype(total: int, scale: int, terms: int):
    """int64 if ``terms`` nonzero cells of :func:`_overlap`, their values
    c 2^m and their sum, fit exactly in it, else object.  With ``total``
    at least every symbol's weight W_s, c 2^m <= W_s 2^m and each term
    min(c 2^m, W_s) <= W_s, so int64 holds them while total (2^m + 1)
    terms stays below 2^62."""
    return np.int64 if total * (scale + 1) * terms < 1 << 62 else object


def _overlap(scaled, cell_targets) -> np.ndarray:
    """Per symbol, axis 0 of ``scaled``, the sum of min(c 2^m, W_s) over its
    cells, ``scaled`` holding each cell's c 2^m, c its weight, and
    ``cell_targets`` (broadcast against it) its symbol's weight W_s.  A cell
    with c = 0 adds 0, so dense and observed-only counts give the same sum.
    Computed in ``scaled``'s own storage, which it overwrites."""
    return np.minimum(scaled, cell_targets, out=scaled).sum(axis=tuple(range(1, scaled.ndim)))


def image_counts(
    cprime,
    source: FlatSource,
    seed_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> np.ndarray:
    """How often each image of the strong-form map occurs over support x
    seeds, one entry per distinct image in ascending image order: an
    unsigned integer array summing to the pair count.

    ``cprime`` maps (x: BitString, y: BitString) to a BitString.  It may
    also expose the table protocol of the extractors:
    ``image_table(state, seeds)``, the images (any integer encoding) of
    every (seed, x) with shape (len(seeds), len(xs)), state =
    ``prepare_batch(xs)`` for the support xs as ints, None to decline.
    Else each image is ``cprime``'s, one call per pair.

    Images are counted per block of seeds, each seed's row sorted.  If the
    sorted rows, read in seed order, strictly ascend, no image occurs in
    two rows, so each block's run lengths of equal images are the exact
    counts on their own.  That holds whenever the seed lies above every
    other bit of the encoding, as in the strong form, whose images under
    different seeds never collide; a block holds ``_IMAGE_BLOCK_PAIRS``
    pairs, and each block's counts are kept in the narrowest unsigned
    dtype that holds them.  For any other encoding the first row that does
    not start above the one before it ends sends the count to one sort of
    the whole table, as exact.

    A map that declares ``input_bits`` or ``seed_bits`` takes only sources
    and seeds of those lengths: ValueError otherwise.
    """
    n = getattr(cprime, "input_bits", source.n)
    t = getattr(cprime, "seed_bits", seed_bits)
    if (source.n, seed_bits) != (n, t):
        raise ValueError(
            f"source of {source.n} bits and {seed_bits} seed bits, map wants {n} and {t}"
        )
    xs = source.values
    ny = 1 << seed_bits
    pairs = len(xs) * ny
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "injectivity enumeration")

    table = _pattern_outputs(cprime, "image_table", cprime, list(xs), source.n,
                             range(seed_bits), seed_bits)
    pieces, top = [], None  # the counts so far, and the largest image counted
    block = max(1, min(ny, _IMAGE_BLOCK_PAIRS // len(xs)))
    for start in range(0, ny, block):
        part = table(np.arange(start, min(start + block, ny), dtype=np.int64))
        part.sort(axis=1)
        # sorted rows strictly ascend in seed order iff each row starts above the last one's end
        if (part[1:, 0] <= part[:-1, -1]).any() or (top is not None and part[0, 0] <= top):
            return np.unique(table(np.arange(ny, dtype=np.int64)).ravel(), return_counts=True)[1]
        flat = part.ravel()
        pieces.append(_narrow(np.diff(np.flatnonzero(
            np.concatenate(([True], flat[1:] != flat[:-1], [True]))))))
        top = flat[-1]
    return np.concatenate(pieces)


def _narrow(values) -> np.ndarray:
    """Nonnegative integers, a nonempty list or array of them, in the
    narrowest unsigned dtype that holds them: an object array of ints past
    64 bits."""
    top = int(values.max()) if isinstance(values, np.ndarray) else max(values)
    return np.array(values, dtype=np.min_scalar_type(top))


def unique_fraction(counts: np.ndarray) -> Fraction:
    """Fraction of pairs whose image no other pair shares, from image counts."""
    total = int(counts.sum())
    if not total:
        raise ValueError("counts must have a positive sum")
    return Fraction(int((counts == 1).sum()), total)


def injective_fraction(
    cprime,
    source: FlatSource,
    seed_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Fraction:
    """Fraction of (x, y) pairs whose image under the strong-form map has a
    unique preimage in support x seeds; arguments as for :func:`image_counts`."""
    return unique_fraction(image_counts(cprime, source, seed_bits, budget=budget))


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    lhs: Fraction
    rhs: Fraction
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "slack": str(self.slack),
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class LemmaSuiteReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "allPassed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _flat_levels(
    outcome_weights: Iterable[tuple[Hashable, int]],
) -> tuple[list[Hashable], list[tuple[int, int]]]:
    """Outcomes by decreasing integer weight, ties kept in the given order,
    and the nonzero levels (i, w_i - w_(i+1)) of their flat decomposition:
    level i puts w_i - w_(i+1) on each of the top-i outcomes."""
    ordered = sorted(outcome_weights, key=lambda ow: -ow[1])
    weights = [w for _, w in ordered] + [0]
    levels = [(i, weights[i - 1] - weights[i]) for i in range(1, len(weights))]
    return [o for o, _ in ordered], [(i, step) for i, step in levels if step]


def lemma_suite(
    table: JointTable,
    prefix_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> LemmaSuiteReport:
    """Exact checks of the entropy bookkeeping facts for classical side
    information, with x split as (prefix, suffix) at ``prefix_bits``: the
    one-table call of :func:`lemma_suites`."""
    return next(lemma_suites([table], [prefix_bits], budget=budget))


def lemma_suites(
    tables: Sequence[JointTable],
    prefix_bits: Sequence[int],
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[LemmaSuiteReport]:
    """The lemma suite of each table at its prefix length, yielded table by
    table, from one batch of all the tables' stacked rows (see
    :func:`_stacked_sums`).

    Every inequality is between exact rationals in the guessing-probability
    domain, and a check passes when lhs <= rhs; a ``Fraction`` is formed
    only for a value a check reports.  The bad-prefix check scans a table's
    thresholds v in descending order, comparing by cross-multiplied ints,
    and reports the first v with the largest lhs, or the first at which the
    bound fails.  Each table's convexity probe is one engine count of its
    x-marginal (symbol 0) and flat pieces (symbols 1, 2, ...), which gives
    sum_i weight_i d(piece_i) exactly; it is charged its support times the
    probe's seed patterns before any of its pairs is counted.
    """
    tables, prefix_bits = list(tables), list(prefix_bits)
    for table, prefix in zip(tables, prefix_bits, strict=True):
        if table.n < 1:
            raise ValueError(
                f"lemma suite needs a source of at least 1 bit, got a {table.n}-bit table"
            )
        if not 0 <= prefix <= table.n:
            raise ValueError(f"prefix length {prefix} outside [0, {table.n}]")
    sums = _stacked_sums(tables, prefix_bits)
    for table, prefix, (guess, peak, guess_prefix, prefixes, mixture) in zip(
        tables, prefix_bits, sums
    ):
        total, suffix_bits = table._total, table.n - prefix
        # Bounded storage: side information over an alphabet of size A cannot
        # raise the guessing probability by more than a factor A.
        alphabet_size = len(table._symbols)
        storage = LemmaCheck("storage_bound", Fraction(guess, total),
                             Fraction(alphabet_size * peak, total),
                             f"alphabet size {alphabet_size}")
        # Cutting the suffix costs at most 2^suffix in guessing probability:
        # sum_s max_x1 Pr[x1, s], Pr[x1, s] summed over the suffixes.
        suffix_cut = LemmaCheck("suffix_cut", Fraction(guess_prefix, total),
                                Fraction(guess << suffix_bits, total),
                                f"suffix of {suffix_bits} bits")
        # Mass of prefixes whose conditional guessing probability is at least v
        # is bounded by 2^prefix * guess_full / v, for every threshold v.
        bad_prefix = _bad_prefix_check(prefixes, guess << prefix, total)
        convexity = _convexity_probe(table.n, mixture, total, budget)
        yield LemmaSuiteReport((storage, suffix_cut, bad_prefix, convexity))


def _stacked_sums(tables: list[JointTable], prefix_bits: list[int]) -> Iterator[tuple]:
    """Per table, in order, from the stacked rows of all of them:
    sum_s max_x w(x, s), max_x w(x), sum_s max_x1 w(x1, s), the
    (sum_s max_x2 w(x1, x2, s), w(x1)) of each prefix x1, and the (x, w(x))
    of its x-marginal, w(x1, s) and w(x1) being the weights summed over the
    suffixes x2 and the symbols s.  Each is one sum or maximum of the
    weights by a group index: (table, symbol), (table, x), (table, prefix,
    symbol) or (table, prefix)."""
    count = len(tables)
    # The stacked rows: each row's table, x, symbol and weight, and its
    # (table, symbol) pair, symbol indices being dense per table.  The group
    # keys ((table << top) | x or its prefix) * width + symbol are below
    # count * width << top, in the narrowest unsigned dtype that holds them.
    top = max(table.n for table in tables)
    symbol_counts = [len(table._symbols) for table in tables]
    width = max(symbol_counts)
    key_dtype = np.min_scalar_type(count * width << top)
    row_table = np.repeat(_narrow(range(count)), [len(table._xs) for table in tables])
    xs = np.concatenate([table._xs for table in tables])
    symbol_ids = np.concatenate([table._symbol_ids for table in tables])
    weights = np.concatenate([table._weights for table in tables])
    table_keys = row_table.astype(key_dtype) << top
    masks = np.array([(1 << prefix) - 1 for prefix in prefix_bits], dtype=key_dtype)
    pair_table = np.repeat(np.arange(count), symbol_counts)
    pairs = _narrow(np.cumsum([0, *symbol_counts]))[row_table] + symbol_ids

    def per_table(pair_values):  # sum over each table's symbols
        return _sums(pair_table, pair_values, count).tolist()

    def ends(group_table):  # where each table's groups end
        return np.cumsum(np.bincount(group_table, minlength=count)).tolist()

    guess = per_table(_sums(pairs, weights, len(pair_table), np.maximum))
    first, inverse = np.unique(table_keys | xs, return_index=True, return_inverse=True)[1:]
    marginal = _sums(inverse, weights, len(first))
    peak = _sums(row_table[first], marginal, count, np.maximum).tolist()
    marginal_xs, marginal_ends = xs[first], ends(row_table[first])
    cell_keys = (table_keys | (xs & masks[row_table])) * width + symbol_ids
    first, inverse = np.unique(cell_keys, return_index=True, return_inverse=True)[1:]
    joint = _sums(inverse, weights, len(first))
    best = _sums(inverse, weights, len(first), np.maximum)
    guess_prefix = per_table(_sums(pairs[first], joint, len(pair_table), np.maximum))
    first_prefix, inverse = np.unique(
        cell_keys[first] // width, return_index=True, return_inverse=True
    )[1:]
    prefix_best = _sums(inverse, best, len(first_prefix))
    prefix_mass = _sums(inverse, joint, len(first_prefix))
    prefix_ends = ends(row_table[first[first_prefix]])
    for i in range(count):
        prefixes = slice(prefix_ends[i - 1] if i else 0, prefix_ends[i])
        mixture = slice(marginal_ends[i - 1] if i else 0, marginal_ends[i])
        yield (
            guess[i], peak[i], guess_prefix[i],
            list(zip(prefix_best[prefixes].tolist(), prefix_mass[prefixes].tolist())),
            list(zip(marginal_xs[mixture].tolist(), marginal[mixture].tolist())),
        )


def _bad_prefix_check(prefixes, rhs_scaled: int, total: int) -> LemmaCheck:
    """The bad-prefix check from each prefix's (sum_s max_x2 weight, mass),
    its conditional guessing probability v being their ratio, and from the
    bound's rhs times N.  At threshold v, lhs = v M(v) / N, M(v) the mass
    of the prefixes at or above v, so lhs > rhs iff v M(v) > rhs N, and
    the lhs of two thresholds compare as their v M(v)."""
    # each v in lowest terms (numerator, denominator), with its prefixes' mass
    mass_at: dict = {}
    for best, mass in prefixes:
        common = math.gcd(best, mass)
        key = best // common, mass // common
        mass_at[key] = mass_at.get(key, 0) + mass
    # descending v: u before w when u0 w1 > w0 u1
    thresholds = sorted(mass_at, key=cmp_to_key(lambda u, w: w[0] * u[1] - u[0] * w[1]))
    worst = None  # (numerator and denominator of v, v M(v) times the denominator, verdict)
    bad_mass = 0
    for num, den in thresholds:
        bad_mass += mass_at[num, den]
        scaled = bad_mass * num
        if scaled > rhs_scaled * den:
            worst = num, den, scaled, "violated at"
            break
        if worst is None or scaled * worst[1] > worst[2] * den:  # the first v keeps ties
            worst = num, den, scaled, "tightest threshold"
    num, den, scaled, verdict = worst
    return LemmaCheck("bad_prefix_mass", Fraction(scaled, den * total),
                      Fraction(rhs_scaled, total), f"{verdict} v={Fraction(num, den)}")


def _convexity_probe(n: int, mixture: list[tuple[int, int]], total: int, budget) -> LemmaCheck:
    """Convexity: extraction distance of a mixture of uniform pieces is at
    most the weighted sum of the pieces' distances, from one engine count
    of the (x, weight) rows of the n-bit mixture over ``total``."""
    m = max(1, min(2, n - 1))
    # Symbol 0 is the mixture and symbol k its k-th flat piece, the top-i
    # outcomes at w_i - w_(i+1) each: as one side table the pieces are at
    # sum_k Pr[S = k] d_k.  A level that splits tied outcomes has weight 0,
    # so ties need no order.
    outcomes, levels = _flat_levels(mixture)
    row_xs, weights = [x for x, _ in mixture], [w for _, w in mixture]
    targets = [sum(weights), *(i * step for i, step in levels)]
    for i, step in levels:
        row_xs += outcomes[:i]
        weights += [step] * i
    sizes = [len(mixture), *(i for i, _ in levels)]
    symbols = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    runs = [(1, len(mixture), total), (len(sizes), len(mixture), total)]
    chunk = row_xs, symbols, weights, targets, runs
    lhs, rhs = _distances(ToeplitzExtractor(ToeplitzSpec(n, m)), [chunk], budget)
    return LemmaCheck("mixture_convexity", lhs, rhs, f"toeplitz probe n={n} m={m}")


def sample_joint_tables(
    n: int, alphabet_size: int, indices: Sequence[int], seed: int = 1
) -> list[JointTable]:
    """Deterministic pseudorandom joint tables over {0,1}^n x alphabet, one
    per non-negative index, drawn in one array pass.  Table i reads the
    stream (seed, n, alphabet_size, indices[i]): the weight of (x, s) is
    its word x * alphabet_size + s masked to 16 bits, and a table whose
    words all mask to 0 is the single row (0, 0) of weight 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if alphabet_size < 1:
        raise ValueError(f"alphabet_size must be >= 1, got {alphabet_size}")
    if min(indices, default=0) < 0:
        raise ValueError(f"indices must be >= 0, got {min(indices)}")
    bases = CounterRng(_TABLE_STREAM_KEY, seed, n, alphabet_size).derive_bases(indices)
    # word i & 0xFFFF is the i-th below(2^16) draw: a power of two rejects no word
    words = stream_words(bases, np.zeros(len(bases), np.int64), alphabet_size << n)
    words &= 0xFFFF
    draws = words.astype(np.uint16)
    draws[~draws.any(axis=1), 0] = 1
    tables = []
    for row in draws:
        cells = np.flatnonzero(row)
        xs, symbols = np.divmod(cells, alphabet_size)
        seen = tuple(dict.fromkeys(symbols.tolist()))  # the symbols in first-seen order
        position = np.zeros(alphabet_size, dtype=np.int64)
        position[list(seen)] = np.arange(len(seen))
        table = JointTable.__new__(JointTable)
        table._set_arrays(
            n, _narrow(xs), _narrow(position[symbols]), seen, _narrow(row[cells]), int(row.sum())
        )
        tables.append(table)
    return tables
