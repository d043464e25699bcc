"""Exact brute-force verification of extraction and condensing claims.

Everything here enumerates; nothing samples silently.  Distributions hold
integer weights over one common denominator, results come back as exact
``Fraction`` values, and every enumeration is bounded by an explicit budget
that raises :class:`BudgetExceededError` instead of degrading.

Side information is classical throughout: a joint table Pr[x, s] stands in
for an encoding of the source, and the optimal guessing strategy is the
pointwise maximum over x for each s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .bits import BitString
from .detrand import CounterRng
from .errors import BudgetExceededError

DEFAULT_ENUM_BUDGET = 1 << 26

_SUM_TOLERANCE_BITS = 40

# Pairs counted per block of seed patterns; bounds the scratch arrays.
_BLOCK_PAIRS = 1 << 16

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
    def point_mass(cls, outcome: Hashable) -> "FiniteDistribution":
        return cls._from_weights({outcome: 1}, 1)

    @classmethod
    def from_counts(
        cls, counts: Mapping[Hashable, int], total: int | None = None
    ) -> "FiniteDistribution":
        weights = {o: c for o, c in counts.items() if c}
        if total is None:
            total = sum(weights.values())
        return cls._from_weights(weights, total)

    def prob(self, outcome: Hashable) -> Fraction:
        return Fraction(self._weights.get(outcome, 0), self._total)

    def items(self) -> list[tuple[Hashable, Fraction]]:
        return [(o, Fraction(w, self._total)) for o, w in self._weights.items()]

    def support(self) -> list[Hashable]:
        return [o for o, w in self._weights.items() if w > 0]

    @property
    def max_prob(self) -> Fraction:
        if not self._weights:
            raise ValueError("empty distribution")
        return Fraction(max(self._weights.values()), self._total)

    def map(self, fn: Callable[[Hashable], Hashable]) -> "FiniteDistribution":
        out: dict[Hashable, int] = {}
        for o, w in self._weights.items():
            key = fn(o)
            out[key] = out.get(key, 0) + w
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

    @property
    def entropy_bits(self) -> int:
        return (len(self.support) - 1).bit_length()

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
        out: dict[int, int] = {}
        for x, w in zip(self._xs, self._weights):
            out[x] = out.get(x, 0) + w
        return FiniteDistribution._from_weights(
            {BitString(x, self.n): w for x, w in out.items()}, self._total
        )

    def alphabet(self) -> list[Hashable]:
        return sorted(set(self._symbols), key=repr)

    def guessing_probability(self) -> Fraction:
        """Optimal probability of guessing x from s: sum_s max_x Pr[x, s]."""
        best: dict[Hashable, int] = {}
        for s, w in zip(self._symbols, self._weights):
            if w > best.get(s, 0):
                best[s] = w
        return Fraction(sum(best.values()), self._total)

    def prefix_marginal(self, prefix_bits: int) -> "JointTable":
        """Joint table of (x prefix, s) after dropping the suffix."""
        mask = (1 << prefix_bits) - 1
        out: dict[tuple[int, Hashable], int] = {}
        for x, s, w in zip(self._xs, self._symbols, self._weights):
            key = (x & mask, s)
            out[key] = out.get(key, 0) + w
        return JointTable._from_rows(prefix_bits, out, self._total)


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


def _scatter(pattern: int, positions: Sequence[int]) -> int:
    y = 0
    for k, pos in enumerate(positions):
        y |= ((pattern >> k) & 1) << pos
    return y


def extractor_distance(
    extractor,
    source,
    side: JointTable | None = None,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Fraction:
    """Exact distance of (seed, output[, side]) from (uniform[, side marginal]).

    ``extractor`` must expose input_bits, seed_bits, output_bits and
    extract(x, y).  If it declares ``seed_support`` (positions the output can
    depend on), enumeration runs over patterns of those positions only, which
    is exact because the other seed bits multiply both sides equally.

    One engine counts every case.  The source, or the side table if given,
    becomes rows (x, side symbol, integer weight) over one denominator N;
    without a side table every row carries the one symbol, with W = N.
    Outputs come from prepare_batch/extract_table where the extractor has
    them, m <= 62 and prepare_batch does not decline by returning None, else
    from one ``extract`` call per (x, seed pattern).
    With c the weight in a (pattern, symbol, output) cell and W_s the
    symbol's weight, the distance is
    sum |c 2^m - W_s| / (2 N 2^m #patterns); unobserved cells add W_s each.
    Each block of patterns is counted in one pass over all symbols, cells
    keyed by (pattern, symbol, output).  Since the distance with side
    information is sum_s Pr[s] d_s, d_s that of X | S = s, a side table
    whose symbols are the pieces of a mixture yields the weighted sum of the
    pieces' distances in one call (see :func:`lemma_suite`).
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
    if side is not None and (side.n != n or not _marginal_matches(side, source, xs)):
        raise ValueError("side table's x-marginal differs from the source")

    positions = tuple(sorted(getattr(extractor, "seed_support", range(t))))
    if len(set(positions)) != len(positions) or (positions and positions[-1] >= t):
        raise ValueError("bad seed_support declaration")
    ny = 1 << len(positions)
    pairs = len(xs) * ny
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "extractor distance enumeration")

    if side is None:
        total, columns = source._total, None
        symbols = [0] * len(xs)
        weights = [source._weights[x] for x in xs]
        targets = [total]
    else:
        total = side._total
        column_of = {x.to_int(): i for i, x in enumerate(xs)}
        columns = np.array([column_of[x] for x in side._xs], dtype=np.int64)
        index_of: dict[Hashable, int] = {}
        symbols = [index_of.setdefault(s, len(index_of)) for s in side._symbols]
        weights = side._weights
        targets = [0] * len(index_of)
        for s, w in zip(symbols, weights):
            targets[s] += w
    rows = len(weights)
    scale = 1 << m
    # Each cell term below lies in [-W_s, c 2^m] with c <= N, and a block has
    # at most max(_BLOCK_PAIRS, rows) pairs and cells: int64 holds a block's
    # sum while N (2^m + 1) times that stays below 2^62.
    dtype = np.int64 if total * (scale + 1) * max(_BLOCK_PAIRS, rows) < 1 << 62 else object
    symbols = np.array(symbols, dtype=np.int64)
    weights = None if all(w == 1 for w in weights) else np.array(weights, dtype=dtype)
    targets = np.array(targets, dtype=dtype)

    tabled = m <= 62 and all(
        hasattr(extractor, name) for name in ("prepare_batch", "extract_table")
    )
    state = extractor.prepare_batch([x.to_int() for x in xs]) if tabled else None
    tabled = state is not None
    block = max(1, min(ny, _BLOCK_PAIRS // rows))
    deviation = 0
    for start in range(0, ny, block):
        patterns = np.arange(start, min(start + block, ny), dtype=np.int64)
        if tabled:
            out = np.asarray(extractor.extract_table(state, patterns, positions))
        else:
            seeds = [BitString(_scatter(int(p), positions), t) for p in patterns]
            out = np.array(
                [[extractor.extract(x, y).to_int() for x in xs] for y in seeds],
                dtype=np.int64 if m <= 62 else object,
            )
        part = out if columns is None else out.take(columns, axis=1)
        deviation += _cell_deviation(part, symbols, weights, targets, scale, dtype)
    return Fraction(deviation + (total << m) * ny, 2 * (total << m) * ny)


def _marginal_matches(side: JointTable, source: FiniteDistribution, xs) -> bool:
    """Whether the side table's x-marginal equals the source: the same
    support ``xs`` and w_side(x) N_source = w_source(x) N_side on it, with
    the side weights summed per x value."""
    marginal: dict[int, int] = {}
    for x, w in zip(side._xs, side._weights):
        marginal[x] = marginal.get(x, 0) + w
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
    # cells are numbered by (pattern, symbol) group, then output
    groups = patterns * symbol_count
    first_group = np.arange(0, groups, symbol_count, dtype=np.int64)[:, None]
    addressable = groups * scale <= max(out.size, _BLOCK_PAIRS)
    if addressable:
        keys = np.add(out, first_group * scale, dtype=np.int64)
        if symbol_count > 1:  # one symbol adds only zeros; skip that pass
            keys += symbols * scale
        cells = groups * scale
    else:
        # Too many cells to address: label the observed ones densely.
        values, labels = np.unique(out, return_inverse=True)
        keys = labels.reshape(out.shape) + (first_group + symbols) * len(values)
        used, keys = np.unique(keys, return_inverse=True)
        cells = len(used)
    index = keys.ravel()
    if weights is None:
        sums = np.bincount(index, minlength=cells).astype(dtype, copy=False)
    else:
        sums = np.zeros(cells, dtype=dtype)
        np.add.at(sums, index, np.broadcast_to(weights, out.shape).ravel())
    if addressable:
        sums = sums.reshape(patterns, symbol_count, scale)
        cell_targets = targets[:, None]
    else:
        cell_targets = targets[(used // len(values)) % symbol_count]
    return int((np.abs(sums * scale - cell_targets) - cell_targets).sum())


def image_counts(
    cprime,
    source: FlatSource,
    seed_bits: int,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
    image_table: np.ndarray | None = None,
) -> np.ndarray:
    """How often each image of the strong-form map occurs over support x
    seeds, one entry per distinct image (an int64 array summing to the
    pair count).

    ``cprime`` maps (x: BitString, y: BitString) to a BitString.  Images are
    counted from one array of shape (support, 2^seed_bits): the optional
    precomputed ``image_table`` (any integer encoding of images), which a
    deterministic spot check confirms against ``cprime`` before it is
    trusted, or else the images of ``cprime`` at every pair.
    """
    nx = len(source.support)
    ny = 1 << seed_bits
    pairs = nx * ny
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "injectivity enumeration")

    if image_table is None:
        table = np.array(
            [
                [cprime(x, BitString(y, seed_bits)).to_int() for y in range(ny)]
                for x in source.support
            ]
        )
    else:
        table = np.asarray(image_table)
        if table.shape != (nx, ny):
            raise ValueError(f"image table shape {table.shape}, want {(nx, ny)}")
        rng = CounterRng(_TABLE_STREAM_KEY, nx, ny)
        for _ in range(min(32, pairs)):
            i = rng.below(nx)
            y = rng.below(ny)
            img = cprime(source.support[i], BitString(y, seed_bits)).to_int()
            if int(table[i, y]) != img:
                raise ValueError("image table disagrees with the map")
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
    image_table: np.ndarray | None = None,
) -> Fraction:
    """Fraction of (x, y) pairs whose image under the strong-form map has a
    unique preimage in support x seeds; arguments as for :func:`image_counts`."""
    return unique_fraction(
        image_counts(cprime, source, seed_bits, budget=budget, image_table=image_table)
    )


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    lhs: Fraction
    rhs: Fraction
    passed: bool
    note: str = ""

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
    every quantity is an exact rational.  The convexity probe costs two
    :func:`extractor_distance` calls: one on the mixture and one on the
    side table whose symbols are its flat pieces, which gives
    sum_i weight_i d(piece_i) exactly.
    """
    if not 0 <= prefix_bits <= table.n:
        raise ValueError(f"prefix length {prefix_bits} outside [0, {table.n}]")
    suffix_bits = table.n - prefix_bits
    checks: list[LemmaCheck] = []

    guess_full = table.guessing_probability()
    x_marginal = table.x_marginal()

    # Bounded storage: side information over an alphabet of size A cannot
    # raise the guessing probability by more than a factor A.
    alphabet_size = len(table.alphabet())
    checks.append(
        LemmaCheck(
            name="storage_bound",
            lhs=guess_full,
            rhs=alphabet_size * x_marginal.max_prob,
            passed=guess_full <= alphabet_size * x_marginal.max_prob,
            note=f"alphabet size {alphabet_size}",
        )
    )

    # Cutting the suffix costs at most 2^suffix in guessing probability.
    prefix_table = table.prefix_marginal(prefix_bits)
    guess_prefix = prefix_table.guessing_probability()
    checks.append(
        LemmaCheck(
            name="suffix_cut",
            lhs=guess_prefix,
            rhs=(1 << suffix_bits) * guess_full,
            passed=guess_prefix <= (1 << suffix_bits) * guess_full,
            note=f"suffix of {suffix_bits} bits",
        )
    )

    # Mass of prefixes whose conditional guessing probability is at least v
    # is bounded by 2^prefix * guess_full / v, for every threshold v.
    prefix_mask = (1 << prefix_bits) - 1
    prefix_mass: dict[int, int] = {}
    cond_best: dict[tuple[int, Hashable], int] = {}
    for x, s, w in zip(table._xs, table._symbols, table._weights):
        x1 = x & prefix_mask
        prefix_mass[x1] = prefix_mass.get(x1, 0) + w
        key = (x1, s)
        if w > cond_best.get(key, 0):
            cond_best[key] = w
    best_mass: dict[int, int] = {}
    for (x1, _), w in cond_best.items():
        best_mass[x1] = best_mass.get(x1, 0) + w
    # sum_s max_x2 Pr[x1, x2, s] over Pr[x1]: the guessing probability
    # conditioned on X1 = x1.
    cond_guess = {x1: Fraction(w, prefix_mass[x1]) for x1, w in best_mass.items()}
    worst = None
    for v in sorted(set(cond_guess.values()), reverse=True):
        bad_mass = Fraction(
            sum(prefix_mass[x1] for x1, g in cond_guess.items() if g >= v),
            table._total,
        )
        lhs = bad_mass * v
        rhs = (1 << prefix_bits) * guess_full
        if worst is None or rhs - lhs < worst.rhs - worst.lhs:
            worst = LemmaCheck(
                name="bad_prefix_mass",
                lhs=lhs,
                rhs=rhs,
                passed=lhs <= rhs,
                note=f"tightest threshold v={v}",
            )
        if lhs > rhs:
            worst = LemmaCheck("bad_prefix_mass", lhs, rhs, False, f"violated at v={v}")
            break
    if worst is None:
        worst = LemmaCheck("bad_prefix_mass", Fraction(0), Fraction(0), True, "empty")
    checks.append(worst)

    # Convexity: extraction distance of a mixture of uniform pieces is at
    # most the weighted sum of the pieces' distances.
    from .toeplitz import ToeplitzExtractor, ToeplitzSpec

    n = table.n
    m = max(1, min(2, n - 1)) if n > 1 else 1
    ext = ToeplitzExtractor(ToeplitzSpec(n, m))
    # The flat pieces become the symbols of one side table: symbol i holds
    # the top-i outcomes, each with weight w_i - w_(i+1), so that
    # d(Y, E(X, Y), S) = sum_i Pr[S = i] d_i is the weighted sum of the
    # pieces' distances, counted in one engine call.
    mixture = x_marginal
    lhs_total = extractor_distance(ext, mixture, budget=budget)
    # A level that splits tied outcomes has weight 0, so ties need no order.
    outcomes, levels = _flat_levels(mixture._weights.items())
    pieces = JointTable._from_rows(
        n,
        {
            (x.to_int(), symbol): step
            for symbol, (i, step) in enumerate(levels)
            for x in outcomes[:i]
        },
        mixture._total,
    )
    rhs_total = extractor_distance(ext, mixture, side=pieces, budget=budget)
    checks.append(
        LemmaCheck(
            name="mixture_convexity",
            lhs=lhs_total,
            rhs=rhs_total,
            passed=lhs_total <= rhs_total,
            note=f"toeplitz probe n={n} m={m}",
        )
    )

    return LemmaSuiteReport(tuple(checks))


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
