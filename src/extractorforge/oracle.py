"""Exact brute-force verification of extraction and condensing claims.

Everything here enumerates; nothing samples silently.  Distributions hold
integer weights over one common denominator, results come back as exact
``Fraction`` values, and every enumeration is bounded by an explicit budget
that raises :class:`BudgetExceededError` instead of degrading.

Side information is classical throughout: a joint table Pr[x, s] stands in
for an encoding of the source, and the optimal guessing strategy is the
pointwise maximum over x for each s.

Distributions and tables are rows (key, integer weight).  Every
aggregation over them, a marginal, a guessing probability, a per-symbol
weight, is one :func:`_group` of such rows by a key, summed or maxed, in
the order the keys are first seen.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from .bits import BitString
from .detrand import CounterRng
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
# per int64 scratch array of the block.
_SPECTRAL_BLOCK_CELLS = 1 << 14
# Estimated costs in ns, measured on a 2-vCPU x86_64 host (Toeplitz and
# Trevisan instances with n = 4 .. 16, m = 1 .. 6): the table path's per
# counted (pattern, row) pair and per (pattern, symbol, output) cell; the
# spectral path's per transform entry and stage, per cell and pass (m
# butterflies and about four more), and per call.
_PAIR_NS = 5
_ENTRY_NS = 3
_CELL_PASS_NS = 1.25
_SPECTRAL_CALL_NS = 20_000
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


def _group(keys: Iterable[Hashable], weights: Iterable[int], combine=operator.add) -> dict:
    """The combined weight of each distinct key, in first-seen order."""
    out: dict = {}
    for key, w in zip(keys, weights):
        prev = out.get(key)
        out[key] = w if prev is None else combine(prev, w)
    return out


def _larger(a: int, b: int) -> int:  # a third of the builtin max's call cost
    return a if a >= b else b


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

    @property
    def max_prob(self) -> Fraction:
        if not self._weights:
            raise ValueError("empty distribution")
        return Fraction(max(self._weights.values()), self._total)

    def map(self, fn: Callable[[Hashable], Hashable]) -> "FiniteDistribution":
        out = _group(map(fn, self._weights), self._weights.values())
        return FiniteDistribution._from_weights(out, self._total)

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
    """Uniform distribution over a support of exactly 2^k bit strings."""

    n: int
    support: tuple[BitString, ...]

    def __post_init__(self):
        if not self.support:
            raise ValueError("empty support")
        if len(set(self.support)) != len(self.support):
            raise ValueError("repeated support elements")
        if len(self.support) & (len(self.support) - 1):
            raise ValueError(
                f"support size {len(self.support)} is not a power of two"
            )
        for x in self.support:
            if len(x) != self.n:
                raise ValueError(f"support element of length {len(x)}, want {self.n}")

    @classmethod
    def from_ints(cls, n: int, values: Iterable[int]) -> "FlatSource":
        return cls(n, tuple(BitString(v, n) for v in values))

    def distribution(self) -> FiniteDistribution:
        return FiniteDistribution.uniform(self.support)


def sample_flat_sources(
    n: int, k: int, count: int, seed: int = 1
) -> list[FlatSource]:
    """Deterministic pseudorandom flat sources: ``count`` supports of size
    2^k drawn without replacement from {0,1}^n."""
    if k > n:
        raise ValueError(f"cannot place 2^{k} distinct values in {n} bits")
    out = []
    for index in range(count):
        rng = CounterRng(_SOURCE_STREAM_KEY, seed, n, k, index)
        values = rng.sample_distinct(1 << k, 1 << n)
        out.append(FlatSource.from_ints(n, values))
    return out


class JointTable:
    """Finite joint distribution Pr[x, s] of an n-bit source and classical
    side information, held as rows (x value, symbol, integer weight) over one
    common denominator."""

    def __init__(self, n: int, probs: Mapping[tuple[BitString, Hashable], Fraction]):
        for x, _ in probs:
            if not isinstance(x, BitString) or len(x) != n:
                raise ValueError(f"source outcome {x!r} is not an {n}-bit string")
        weights, total = _common_weights(probs)
        if weights and min(weights.values()) < 0:
            raise ValueError("negative probability")
        self._set_rows(n, {(x.to_int(), s): w for (x, s), w in weights.items()}, total)

    @classmethod
    def _from_rows(cls, n: int, rows: Mapping[tuple[int, Hashable], int], total: int):
        table = cls.__new__(cls)
        table._set_rows(n, rows, total)
        return table

    def _set_rows(self, n: int, rows: Mapping[tuple[int, Hashable], int], total: int):
        kept = [(key, w) for key, w in rows.items() if w]
        self.n = n
        self._xs = [x for (x, _), _ in kept]
        self._symbols = [s for (_, s), _ in kept]
        self._weights = [w for _, w in kept]
        self._total = total
        _check_total(sum(self._weights), total, "joint probabilities")

    def items(self) -> list[tuple[tuple[BitString, Hashable], Fraction]]:
        n, total, rows = self.n, self._total, zip(self._xs, self._symbols, self._weights)
        return [((BitString(x, n), s), Fraction(w, total)) for x, s, w in rows]

    def x_marginal(self) -> FiniteDistribution:
        out = _group(self._xs, self._weights)
        return FiniteDistribution._from_weights(
            {BitString(x, self.n): w for x, w in out.items()}, self._total
        )

    def guessing_probability(self) -> Fraction:
        """Optimal probability of guessing x from s: sum_s max_x Pr[x, s]."""
        best = _group(self._symbols, self._weights, _larger)
        return Fraction(sum(best.values()), self._total)

    def prefix_marginal(self, prefix_bits: int) -> "JointTable":
        """Joint table of (x prefix, s) after dropping the suffix."""
        mask = (1 << prefix_bits) - 1
        keys = zip([x & mask for x in self._xs], self._symbols)
        return JointTable._from_rows(prefix_bits, _group(keys, self._weights), self._total)


def min_entropy(dist: FiniteDistribution) -> float:
    """Min-entropy in bits: -log2 of the largest outcome probability."""
    return -math.log2(dist.max_prob)


def cond_min_entropy_classical(table: JointTable) -> float:
    """Conditional min-entropy in bits for classical side information."""
    return -math.log2(table.guessing_probability())


def stat_distance(a: FiniteDistribution, b: FiniteDistribution) -> Fraction:
    """Variational distance (1/2) sum |a - b| over the union of supports."""
    wa, wb = a._weights, b._weights
    total = sum(
        abs(wa.get(k, 0) * b._total - wb.get(k, 0) * a._total)
        for k in wa.keys() | wb.keys()
    )
    return Fraction(total, 2 * a._total * b._total)


def distance_to_min_entropy(dist: FiniteDistribution | np.ndarray, kappa: int) -> Fraction:
    """Exact distance to the nearest distribution with min-entropy >= kappa.

    ``dist`` is a FiniteDistribution or an array of nonnegative integer
    weights over their sum, such as the counts of :func:`image_counts`.
    Equals the probability mass exceeding the 2^-kappa cap; the nearest
    capped distribution moves exactly that mass onto fresh outcomes.
    kappa must be an integer so the cap is an exact rational.  A weight w
    over N exceeds it when w > floor(N / 2^kappa), by (w 2^kappa - N) / (N 2^kappa).
    """
    kappa = _as_integer(kappa, "kappa")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if isinstance(dist, FiniteDistribution):
        weights = np.array(list(dist._weights.values()), dtype=object)
        total = dist._total
    else:
        weights = np.asarray(dist)
        total = int(weights.sum())
    heavy = weights[weights > total >> kappa]
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

    The table protocol: ``extractor`` exposes input_bits, seed_bits,
    output_bits and extract(x, y), and may declare ``seed_support``, the
    ascending seed positions the output can depend on.  Seeds are enumerated
    as patterns over it, pattern bit k being seed bit seed_support[k], which
    is exact because the other seed bits multiply both sides equally.
    Outputs come from ``extract_table(state, patterns)``, packed into ints
    with shape (len(patterns), len(xs)), state = ``prepare_batch(xs)`` for
    the source values xs as ints, where both methods exist, m <= 62 and
    prepare_batch does not decline by returning None; else from one
    ``extract`` call per (x, seed pattern).

    The side table, or the source as a one-symbol side table, becomes rows
    (x, symbol, integer weight) over one denominator N.  With c the weight in
    a (pattern, symbol, output) cell and W_s the symbol's weight, the
    distance is sum |c 2^m - W_s| / (2 N 2^m #patterns); unobserved cells
    add W_s each.  Each block of patterns is counted in one pass over all
    symbols, cells keyed by (pattern, symbol, output).  Since the distance
    with side information is sum_s Pr[s] d_s, d_s that of X | S = s, a side
    table whose symbols are the pieces of a mixture yields the weighted sum
    of the pieces' distances in one call (see :func:`lemma_suite`).

    An extractor that is GF(2)-linear in x for each fixed seed may also
    expose ``linear_rows(patterns)``: an (m, len(patterns)) int64 array of
    x-masks r_i(y), output bit i of seed pattern y being the parity of
    r_i(y) & x, or None to decline.  Then the cells come from the source's
    Walsh-Hadamard spectrum instead of from the pairs (see
    :func:`_spectral_deviation`), and the source size drops out of the cost.
    That spectral path is taken when all of these hold, else the table or
    per-pair path: 2^m times the total weight is below 2^62, so every value
    is an exact int64; the S 2^n transform entries, S symbols, are at most
    ``_SPECTRAL_ENTRIES``; its estimated time is below the table path's;
    and linear_rows does not decline.  Either path costs ``budget`` the
    same pairs, checked before any is counted, and gives the same exact
    distance.
    """
    n = extractor.input_bits
    t = extractor.seed_bits
    m = extractor.output_bits
    if isinstance(source, FlatSource):
        source = source.distribution()
    if not isinstance(source, FiniteDistribution):
        raise TypeError(f"unsupported source type {type(source).__name__}")
    if not all(isinstance(x, BitString) for x in source._weights):
        raise TypeError("source outcomes must be BitString values")
    xs = [x for x, w in source._weights.items() if w]
    for x in xs:
        if len(x) != n:
            raise ValueError(f"source element of length {len(x)}, extractor wants {n}")
    if side is None:  # the source as a side table with one symbol
        one_symbol = {(x.to_int(), 0): w for x, w in source._weights.items() if w}
        side = JointTable._from_rows(n, one_symbol, source._total)
    elif side.n != n or not _marginal_matches(side, source, xs):
        raise ValueError("side table's x-marginal differs from the source")

    positions = tuple(getattr(extractor, "seed_support", range(t)))
    if list(positions) != sorted(set(positions)) or (positions and positions[-1] >= t):
        raise ValueError("bad seed_support declaration")
    ny = 1 << len(positions)
    pairs = len(xs) * ny
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "extractor distance enumeration")

    # one row (symbol index, weight) per row of the side table
    total, rows, scale = side._total, len(side._xs), 1 << m
    targets = _group(side._symbols, side._weights)
    index_of = {s: i for i, s in enumerate(targets)}
    symbols = np.array([index_of[s] for s in side._symbols], dtype=np.int64)
    # a block has at most max(_BLOCK_PAIRS, rows) pairs, so as many nonzero terms
    dtype = _sum_dtype(total, scale, max(_BLOCK_PAIRS, rows))
    weights = None if all(w == 1 for w in side._weights) else np.array(side._weights, dtype=dtype)
    targets = np.array(list(targets.values()), dtype=dtype)
    mass = sum(side._weights)

    deviation = None
    if hasattr(extractor, "linear_rows"):
        deviation = _spectral_deviation(extractor, ny, side._xs, symbols, weights, targets, mass)
    if deviation is None:
        deviation = _table_deviation(
            extractor, positions, xs, side._xs, symbols, weights, targets, dtype
        )
    return Fraction(deviation + (mass << m) * ny, 2 * (total << m) * ny)


def _table_deviation(extractor, positions, xs, row_xs, symbols, weights, targets, dtype) -> int:
    """Sum of |c 2^m - W_s| - W_s over the cells from the output of every
    (seed pattern, row) pair, ``row_xs`` each row's x value: outputs from
    the extractor's table where it has one, else per pair."""
    t, m = extractor.seed_bits, extractor.output_bits
    ny = 1 << len(positions)
    values = [x.to_int() for x in xs]
    column_of = {v: i for i, v in enumerate(values)}
    columns = np.array([column_of[x] for x in row_xs], dtype=np.int64)
    tabled = m <= 62 and all(
        hasattr(extractor, name) for name in ("prepare_batch", "extract_table")
    )
    state = extractor.prepare_batch(values) if tabled else None
    tabled = state is not None
    deviation = 0
    block = max(1, min(ny, _BLOCK_PAIRS // len(row_xs)))
    for start in range(0, ny, block):
        patterns = np.arange(start, min(start + block, ny), dtype=np.int64)
        if tabled:
            out = np.asarray(extractor.extract_table(state, patterns))
        else:
            seeds = [
                BitString(sum(((p >> k) & 1) << pos for k, pos in enumerate(positions)), t)
                for p in patterns.tolist()
            ]
            out = np.array(
                [[extractor.extract(x, y).to_int() for x in xs] for y in seeds],
                dtype=np.int64 if m <= 62 else object,
            )
        part = out.take(columns, axis=1)
        deviation += _cell_deviation(part, symbols, weights, targets, 1 << m, dtype)
    return deviation


def _spectral_deviation(extractor, ny, row_xs, symbols, weights, targets, mass) -> int | None:
    """Sum of |c 2^m - W_s| - W_s over every (pattern, symbol, output) cell
    from the source's Walsh-Hadamard spectrum, or None to decline (see
    :func:`extractor_distance` for when).

    For a seed pattern y, output bit i is the parity of r_i(y) & x, r_i(y)
    from ``extractor.linear_rows``.  With F_s(v) = sum_x w_s(x) (-1)^(v.x)
    the transform of symbol s's weights and v_u the XOR of the rows r_i
    with u_i = 1,

        2^m c(y, s, z) = sum_x w_s(x) sum_u (-1)^(u.(E(x, y) + z))
                       = sum_u (-1)^(u.z) F_s(v_u(y)),

    so each pattern's cells are the m-bit transform of F_s gathered at its
    2^m masks: no (pattern, x) pair is enumerated.  Every partial sum is at
    most 2^m times the total weight in size.
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
    # assignment suffices: a side table has one row per (x, symbol)
    spectra = np.zeros((symbol_count, 1 << n, 1), dtype=np.int64)
    spectra[symbols, row_xs, 0] = 1 if weights is None else weights
    spectra = _walsh_hadamard(spectra)[:, :, 0]
    # a block's cells sum to 2^m times its patterns' weight: int64 or exact
    exact = _sum_dtype(mass, 1 << m, block * symbol_count << m)
    cell_targets = targets.astype(exact)[:, None, None]
    deviation = 0
    for rows in itertools.chain([first], row_blocks):
        masks = np.zeros((1 << m, rows.shape[1]), dtype=np.int64)
        for i, row in enumerate(rows):  # v_u for u < 2^(i+1)
            np.bitwise_xor(masks[: 1 << i], row, out=masks[1 << i : 2 << i])
        cells = np.empty((symbol_count,) + masks.shape, dtype=np.int64)
        for spectrum, out in zip(spectra, cells):
            spectrum.take(masks, out=out)  # F_s(v_u)
        scaled = _walsh_hadamard(cells).astype(exact, copy=False)  # 2^m c(y, s, z)
        deviation += _deviation(scaled, cell_targets)
    return deviation


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform over axis 1 of a C-ordered
    int64 array of shape (S, 2^k, r), in place: a[s, v] becomes
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


def _marginal_matches(side: JointTable, source: FiniteDistribution, xs) -> bool:
    """Whether the side table's x-marginal equals the source: the same
    support ``xs`` and w_side(x) N_source = w_source(x) N_side on it, with
    the side weights summed per x value."""
    marginal = _group(side._xs, side._weights)
    return len(marginal) == len(xs) and all(
        marginal.get(x.to_int(), 0) * source._total == source._weights[x] * side._total
        for x in xs
    )


def _cell_deviation(out, symbols, weights, targets, scale, dtype) -> int:
    """Sum of |c 2^m - W_s| - W_s over the (pattern, symbol, output) cells of
    a block, in one counting pass for every symbol.

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
    if addressable:
        sums = sums.reshape(symbol_count, patterns * scale)
        cell_targets = targets[:, None]
    else:
        cell_targets = targets[used // len(values) // patterns]
    sums *= scale
    return _deviation(sums, cell_targets)


def _sum_dtype(total: int, scale: int, terms: int):
    """int64 if ``terms`` nonzero cell terms of :func:`_deviation` sum
    exactly in it, else object.  Each term lies in [-W_s, c 2^m] with
    c <= N, so int64 holds the sum while N (2^m + 1) terms stays below 2^62."""
    return np.int64 if total * (scale + 1) * terms < 1 << 62 else object


def _deviation(scaled, cell_targets) -> int:
    """Sum of |c 2^m - W_s| - W_s over cells, ``scaled`` holding each
    cell's c 2^m, c its weight, and ``cell_targets`` (broadcast against it)
    its symbol's weight W_s.  A cell with c = 0 adds 0, so dense and
    observed-only counts give the same sum.  Summed as
    c 2^m - 2 min(c 2^m, W_s), the same term for c 2^m and W_s >= 0, in
    ``scaled``'s own storage, which it overwrites."""
    return int(scaled.sum()) - 2 * int(np.minimum(scaled, cell_targets, out=scaled).sum())


def image_counts(
    cprime,
    source: FlatSource,
    seed_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> np.ndarray:
    """How often each image of the strong-form map occurs over support x
    seeds, one entry per distinct image (an int64 array summing to the
    pair count).

    ``cprime`` maps (x: BitString, y: BitString) to a BitString.  Images are
    counted from one array of shape (support, 2^seed_bits), which the map is
    asked for as ``cprime.image_table(xs)``, xs the support as ints (any
    integer encoding of images; None declines), else from ``cprime`` per pair.
    """
    nx = len(source.support)
    ny = 1 << seed_bits
    pairs = nx * ny
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "injectivity enumeration")

    table = None
    if hasattr(cprime, "image_table"):
        table = cprime.image_table([x.to_int() for x in source.support])
    if table is None:
        table = np.array(
            [
                [cprime(x, BitString(y, seed_bits)).to_int() for y in range(ny)]
                for x in source.support
            ]
        )
    return np.unique(table.ravel(), return_counts=True)[1]


def unique_fraction(counts: np.ndarray) -> Fraction:
    """Fraction of pairs whose image no other pair shares, from image counts."""
    return Fraction(int((counts == 1).sum()), int(counts.sum()))


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


def flat_decomposition(
    dist: FiniteDistribution,
) -> list[tuple[Fraction, tuple[Hashable, ...]]]:
    """Write a distribution as a convex combination of uniform distributions.

    Outcomes sorted by decreasing probability, ties by repr; level i
    contributes weight i * (p_i - p_(i+1)) on the top-i outcomes.  Weights
    are exact and sum to one.
    """
    by_repr = sorted(dist._weights.items(), key=lambda ow: repr(ow[0]))
    outcomes, levels = _flat_levels(by_repr)
    return [(Fraction(i * step, dist._total), tuple(outcomes[:i])) for i, step in levels]


def lemma_suite(
    table: JointTable,
    prefix_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> LemmaSuiteReport:
    """Exact checks of the entropy bookkeeping facts for classical side
    information, with x split as (prefix, suffix) at ``prefix_bits``.

    All inequalities are evaluated in the guessing-probability domain, where
    every quantity is an exact rational, and a check passes when lhs <= rhs.
    The bad-prefix check takes the thresholds v in one descending pass with
    a running mass of the prefixes at or above v, and reports the first v
    with the largest lhs, or the first v at which the bound fails.  The
    convexity probe costs two :func:`extractor_distance` calls: one on the
    mixture and one on the side table whose symbols are its flat pieces,
    which gives sum_i weight_i d(piece_i) exactly.
    """
    n = table.n
    if n < 1:
        raise ValueError(f"lemma suite needs a source of at least 1 bit, got a {n}-bit table")
    if not 0 <= prefix_bits <= n:
        raise ValueError(f"prefix length {prefix_bits} outside [0, {n}]")
    suffix_bits = n - prefix_bits
    guess_full = table.guessing_probability()
    mixture = table.x_marginal()

    # Bounded storage: side information over an alphabet of size A cannot
    # raise the guessing probability by more than a factor A.
    alphabet_size = len(set(table._symbols))
    rhs = alphabet_size * mixture.max_prob
    storage = LemmaCheck("storage_bound", guess_full, rhs, f"alphabet size {alphabet_size}")

    # Cutting the suffix costs at most 2^suffix in guessing probability.
    guess_prefix = table.prefix_marginal(prefix_bits).guessing_probability()
    rhs = (1 << suffix_bits) * guess_full
    suffix_cut = LemmaCheck("suffix_cut", guess_prefix, rhs, f"suffix of {suffix_bits} bits")

    # Mass of prefixes whose conditional guessing probability is at least v
    # is bounded by 2^prefix * guess_full / v, for every threshold v.
    prefix_mask = (1 << prefix_bits) - 1
    prefixes = [x & prefix_mask for x in table._xs]
    prefix_mass = _group(prefixes, table._weights)
    cond_best = _group(zip(prefixes, table._symbols), table._weights, _larger)
    best_mass = _group((x1 for x1, _ in cond_best), cond_best.values())
    # sum_s max_x2 Pr[x1, x2, s] over Pr[x1]: the guessing probability
    # conditioned on X1 = x1, and the mass of the prefixes at each value.
    cond_guess = [Fraction(w, prefix_mass[x1]) for x1, w in best_mass.items()]
    mass_at = _group(cond_guess, (prefix_mass[x1] for x1 in best_mass))
    rhs = (1 << prefix_bits) * guess_full
    worst = None  # set on the first pass: a JointTable always has a positive row
    bad_mass = 0
    for v in sorted(mass_at, reverse=True):
        bad_mass += mass_at[v]
        lhs = Fraction(bad_mass, table._total) * v
        if lhs > rhs:
            worst = LemmaCheck("bad_prefix_mass", lhs, rhs, f"violated at v={v}")
            break
        if worst is None or lhs > worst.lhs:
            worst = LemmaCheck("bad_prefix_mass", lhs, rhs, f"tightest threshold v={v}")

    # Convexity: extraction distance of a mixture of uniform pieces is at
    # most the weighted sum of the pieces' distances.
    m = max(1, min(2, n - 1))
    ext = ToeplitzExtractor(ToeplitzSpec(n, m))
    # The flat pieces become the symbols of one side table: symbol i holds
    # the top-i outcomes, each with weight w_i - w_(i+1), so that
    # d(Y, E(X, Y), S) = sum_i Pr[S = i] d_i is the weighted sum of the
    # pieces' distances, counted in one engine call.
    lhs_total = extractor_distance(ext, mixture, budget=budget)
    # A level that splits tied outcomes has weight 0, so ties need no order.
    outcomes, levels = _flat_levels((x.to_int(), w) for x, w in mixture._weights.items())
    pieces = JointTable._from_rows(
        n,
        {
            (x, symbol): step
            for symbol, (i, step) in enumerate(levels)
            for x in outcomes[:i]
        },
        mixture._total,
    )
    rhs_total = extractor_distance(ext, mixture, side=pieces, budget=budget)
    convexity = LemmaCheck(
        "mixture_convexity", lhs_total, rhs_total, f"toeplitz probe n={n} m={m}"
    )
    return LemmaSuiteReport((storage, suffix_cut, worst, convexity))


def sample_joint_table(
    n: int, alphabet_size: int, seed: int = 1, index: int = 0
) -> JointTable:
    """Deterministic pseudorandom joint table over {0,1}^n x alphabet."""
    rng = CounterRng(_TABLE_STREAM_KEY, seed, n, alphabet_size, index)
    # word i & 0xFFFF is the i-th below(2^16) draw: a power of two rejects no word
    draws = (rng.next_words((1 << n) * alphabet_size) & 0xFFFF).tolist()
    cells = ((x, s) for x in range(1 << n) for s in range(alphabet_size))
    weights = dict(zip(cells, draws))
    if not any(weights.values()):
        weights[(0, 0)] = 1
    return JointTable._from_rows(n, weights, sum(weights.values()))
