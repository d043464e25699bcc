"""Deterministic counter-based pseudorandom values.

All internal randomness (greedy design candidates, sampled flat sources,
random verification instances) flows through :class:`CounterRng`, which is a
stateless-in-principle counter construction over the SplitMix64 finalizer.
The same key always yields the same stream, on every platform and run.

The array functions below compute the same streams for many keys at once,
word for word: word i of a stream is the same 64-bit value whether it comes
from :meth:`CounterRng.next_u64` or from :func:`stream_words`, and
:func:`sample_distinct_rows` consumes words exactly as repeated
:meth:`CounterRng.below` calls do (a word rejected by ``below``'s limit is
used up and yields no value), so each row equals the scalar draw.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Words one row reads per pass of ``sample_distinct_rows``; a row drawing
# most of [0, n) needs ~n ln n words, and this bounds the memory they hold.
_MAX_BLOCK_WORDS = 1 << 18


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer applied to a 64-bit word."""
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every word of a uint64 array of rank >= 1.

    Array arithmetic wraps modulo 2^64, which is the finalizer's own
    arithmetic; numpy *scalars* would warn on the same overflow, so a
    0-d input is refused rather than silently promoted.
    """
    z = np.asarray(x, dtype=np.uint64)
    if z.ndim == 0:
        raise ValueError("splitmix64_array needs an array of rank >= 1")
    z = z + _GOLDEN
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def stream_words(bases: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Words starts[r] .. starts[r] + width - 1 of the stream with base
    bases[r], one row per stream: shape (len(bases), width), uint64."""
    counters = np.asarray(starts).astype(np.uint64)[:, None] + np.arange(width, dtype=np.uint64)
    counters *= _GOLDEN
    counters ^= np.asarray(bases, dtype=np.uint64)[:, None]
    return splitmix64_array(counters)


def _below_words(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(value, accepted) of each word read as one ``below(n)`` draw, n <= 2^64;
    the values overwrite ``words``."""
    if n & (n - 1) == 0:
        words &= n - 1
        return words, np.ones(words.shape, dtype=bool)
    accepted = words < (1 << 64) - (1 << 64) % n
    words %= n
    return words, accepted


def _first_block_width(count: int, n: int) -> int:
    """Words that ``count`` distinct draws from [0, n) take on average, with
    some margin: about n ln(n / (n - count)) ``below`` calls, n (ln n + 1)
    for the whole range, each costing 2^64 / limit words for the rejections."""
    if count < n:
        draws = -n * math.log1p(-count / n)
    else:
        draws = n * (math.log(n) + 1)
    acceptance = 1 - ((1 << 64) % n) / (1 << 64)
    return int(1.1 * draws / acceptance) + 16


def _distinct_positions(drawn: np.ndarray, accepted: np.ndarray, n: int) -> np.ndarray:
    """Per row, in ascending order, the positions of the accepted draws whose
    value no earlier accepted draw of the row holds, padded with the row
    width."""
    width = drawn.shape[1]
    pos_bits = (width - 1).bit_length()
    if n.bit_length() + pos_bits > 64:
        # rank the draws instead: equal values get equal ranks, each below
        # drawn.size, which then stands in for n
        n = drawn.size
        drawn = np.unique(drawn, return_inverse=True)[1].reshape(drawn.shape).astype(np.uint64)
    # key = value, position: a rejected draw reads n, past every accepted
    # value, and sorting a row puts equal values in draw order
    keys = np.where(accepted, drawn, n)
    keys <<= pos_bits
    keys |= np.arange(width, dtype=np.uint64)
    keys.sort(axis=1)
    values = keys >> pos_bits
    new = values < n
    new[:, 1:] &= values[:, 1:] != values[:, :-1]
    keys &= (1 << pos_bits) - 1
    keys[~new] = width
    keys.sort(axis=1)
    return keys.view(np.int64)


def sample_distinct_rows(
    bases: np.ndarray, count: int, n: int, starts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For each stream, the first ``count`` distinct ``below(n)`` draws from
    word starts[r] on, in draw order; n <= 2^64.

    Returns (values, ends): a (rows, count) uint64 array, and per row the
    counter just past the last word consumed, which is where the scalar
    :meth:`CounterRng.sample_distinct` leaves its stream.  Rows read blocks
    of at most max(``_MAX_BLOCK_WORDS``, count) words; a row that falls
    short reads the next block, checked against the values it already holds.
    """
    if n > 1 << 64:
        raise ValueError(f"sample_distinct_rows needs n <= 2^64, got {n}")
    if count > n:
        raise ValueError(f"cannot draw {count} distinct values from [0, {n})")
    bases = np.asarray(bases, dtype=np.uint64)
    ends = np.zeros(len(bases), np.int64) if starts is None else np.array(starts, np.int64)
    values = np.zeros((len(bases), count), dtype=np.uint64)
    found = np.zeros(len(bases), dtype=np.int64)
    # at least ``count`` words, so that a first block can hold them all
    width = min(_first_block_width(count, n), max(_MAX_BLOCK_WORDS, count))
    pending = np.arange(len(bases)) if count else np.arange(0)
    held = 0
    while pending.size:
        drawn, accepted = _below_words(stream_words(bases[pending], ends[pending], width), n)
        if held:
            # the values found so far go first, as draws made before the block
            drawn = np.concatenate([values[pending], drawn], axis=1)
            accepted = np.concatenate([np.arange(count) < found[pending, None], accepted], axis=1)
        positions = _distinct_positions(drawn, accepted, n)[:, :count]
        # past its last distinct value a short row holds leftovers, never read
        picks = np.minimum(positions, held + width - 1)
        values[pending] = drawn[np.arange(len(pending))[:, None], picks]
        found[pending] = (positions < held + width).sum(axis=1)
        done = positions[:, -1] < held + width
        ends[pending] += np.where(done, positions[:, -1] - held + 1, width)
        pending = pending[~done]
        held = count
    return values, ends


class CounterRng:
    """Deterministic stream of 64-bit words derived from an integer key path.

    The key path is folded into a 64-bit base; word i of the stream is
    splitmix64(base XOR i * GOLDEN).  ``derive`` extends the key path, which
    gives independent-looking substreams without shared state.
    """

    def __init__(self, *key: int):
        base = 0
        for part in key:
            base = splitmix64(base ^ (part & _MASK64))
        self._base = base
        self._counter = 0

    def derive(self, *extra: int) -> "CounterRng":
        child = CounterRng.__new__(CounterRng)
        base = self._base
        for part in extra:
            base = splitmix64(base ^ (part & _MASK64))
        child._base = base
        child._counter = 0
        return child

    def derive_bases(self, *extra) -> np.ndarray:
        """Bases of ``derive(*extra)`` for every broadcast combination of the
        non-negative integers and integer arrays in ``extra``, as a uint64
        array of rank >= 1."""
        bases = np.array([self._base], np.uint64)
        for part in extra:
            bases = splitmix64_array(bases ^ np.asarray(part, dtype=np.uint64))
        return bases

    def _row(self) -> tuple[np.ndarray, np.ndarray]:
        """(bases, starts) of this stream as one array row."""
        return np.array([self._base], np.uint64), np.array([self._counter], np.int64)

    def next_u64(self) -> int:
        value = splitmix64(self._base ^ ((self._counter * _GOLDEN) & _MASK64))
        self._counter += 1
        return value

    def next_words(self, count: int) -> np.ndarray:
        """The next ``count`` words as a uint64 array, the same as ``count``
        calls of :meth:`next_u64`."""
        words = stream_words(*self._row(), count)[0]
        self._counter += count
        return words

    def below(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection over as many 64-bit words as
        n needs, lowest first; unbiased and deterministic."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        span = 1 << 64
        while span < n:
            span <<= 64
        limit = span - span % n
        while True:
            v, drawn = self.next_u64(), 1 << 64
            while drawn < span:
                v |= self.next_u64() * drawn
                drawn <<= 64
            if v < limit:
                return v % n

    def sample_distinct(self, count: int, n: int) -> tuple[int, ...]:
        """``count`` distinct values from [0, n), the first in draw order of
        repeated :meth:`below` calls; one :func:`sample_distinct_rows` row
        for n <= 2^64."""
        if count > n:
            raise ValueError(f"cannot draw {count} distinct values from [0, {n})")
        if n <= 1 << 64:
            bases, starts = self._row()
            values, ends = sample_distinct_rows(bases, count, n, starts)
            self._counter = int(ends[0])
            return tuple(values[0].tolist())
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.below(n)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return tuple(out)
