"""Toeplitz-matrix hashing, the pairwise-independent baseline extractor.

The seed of length n + m - 1 lists the diagonals of an m x n binary Toeplitz
matrix T with T[i][j] = seed[i - j + n - 1]; the output is T x over GF(2).
The family is XOR-universal (T d is uniform for every fixed nonzero d), which
is exactly what the leftover-hash bound needs.

Bit n - 1 - j of rev_n(x), x with its n bits reversed, is x_j, so output
bit i is the parity of (seed >> i) & rev_n(x): each source is reversed once,
and no row of T is ever built.

Every spec, built or read from JSON, is checked against 1 <= m <= n.  The
extractor reads every seed bit, so it declares no seed support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BitString
from .errors import check_rules


@dataclass(frozen=True)
class ToeplitzSpec:
    input_bits: int
    output_bits: int

    def __post_init__(self):
        m, n = self.output_bits, self.input_bits
        check_rules((1 <= m <= n, f"need 1 <= output bits <= input bits, got {m} and {n}",
                     "1 <= m <= n"))

    @property
    def seed_bits(self) -> int:
        return self.input_bits + self.output_bits - 1


# each byte value with its eight bits in reverse order
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _reverse(values: np.ndarray, bits: int) -> np.ndarray:
    """rev_bits(v) for every v below 2^bits of an int64 array: its bytes
    reversed bit by bit through the table, then as a whole, then shifted
    down to ``bits`` bits."""
    octets = np.ascontiguousarray(values, dtype=np.int64).view(np.uint8)
    flipped = _REVERSED_BYTES.take(octets).view(np.uint64).byteswap()
    return (flipped >> np.uint64(64 - bits)).astype(np.int64)


def toeplitz_extract(spec: ToeplitzSpec, x: BitString, seed: BitString) -> BitString:
    if len(x) != spec.input_bits:
        raise ValueError(f"input is {len(x)} bits, spec wants {spec.input_bits}")
    if len(seed) != spec.seed_bits:
        raise ValueError(f"seed is {len(seed)} bits, spec wants {spec.seed_bits}")
    reversed_x = int(f"{x.to_int():0{spec.input_bits}b}"[::-1], 2)
    yv = seed.to_int()
    out = 0
    for i in range(spec.output_bits):
        out |= (((yv >> i) & reversed_x).bit_count() & 1) << i
    return BitString(out, spec.output_bits)


class ToeplitzExtractor:
    """Extractor adapter over a ToeplitzSpec, with a vectorized batch path
    and the x-masks of the oracle's spectral path."""

    def __init__(self, spec: ToeplitzSpec):
        self.spec = spec
        self.input_bits = spec.input_bits
        self.seed_bits = spec.seed_bits
        self.output_bits = spec.output_bits

    def extract(self, x: BitString, y: BitString) -> BitString:
        return toeplitz_extract(self.spec, x, y)

    def prepare_batch(self, xs: Sequence[int]):
        return _reverse(np.asarray(list(xs), dtype=np.int64), self.input_bits)

    def extract_table(self, state, patterns: np.ndarray) -> np.ndarray:
        """Outputs for every (seed, x) pair; shape (len(patterns), len(xs)).

        The seed support covers every position, so patterns are full seeds;
        outputs are packed into int64, so m must be at most 62.
        """
        if self.output_bits > 62:
            raise ValueError(f"{self.output_bits} output bits do not fit the int64 table")
        reversed_xs = state
        dtype = np.uint8 if self.output_bits <= 8 else np.int64
        out = np.zeros((len(patterns), len(reversed_xs)), dtype=dtype)
        seeds = np.asarray(patterns, dtype=np.int64)
        for i in range(self.output_bits):
            # bitwise_count gives uint8; a multiply, not a shift: numpy shifts
            # uint8 several times slower
            out |= (np.bitwise_count((seeds >> i)[:, None] & reversed_xs) & 1) * dtype(1 << i)
        return out

    def linear_rows(self, patterns: np.ndarray) -> np.ndarray:
        """x-masks, shape (m, len(patterns)): output bit i of seed y is the
        parity of rev_n((y >> i) mod 2^n) & x.  Bit n - 1 - j of that mask
        is seed bit i + j, which is bit (m - 1 - i) + (n - 1 - j) of the
        seed reversed over its n + m - 1 bits, so one reversal serves every
        row."""
        n, m = self.input_bits, self.output_bits
        reversed_seeds = _reverse(patterns, self.seed_bits)
        low = (1 << n) - 1
        return np.stack([(reversed_seeds >> (m - 1 - i)) & low for i in range(m)])
