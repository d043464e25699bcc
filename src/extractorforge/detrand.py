"""Deterministic counter-based pseudorandom values.

All internal randomness (greedy design candidates, sampled flat sources,
random verification instances) flows through :class:`CounterRng`, which is a
stateless-in-principle counter construction over the SplitMix64 finalizer.
The same key always yields the same stream, on every platform and run.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer applied to a 64-bit word."""
    x &= _MASK64
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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

    def next_u64(self) -> int:
        value = splitmix64(self._base ^ ((self._counter * _GOLDEN) & _MASK64))
        self._counter += 1
        return value

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
        """``count`` distinct values from [0, n), in draw order."""
        if count > n:
            raise ValueError(f"cannot draw {count} distinct values from [0, {n})")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.below(n)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return tuple(out)
