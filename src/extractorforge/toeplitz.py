"""Toeplitz-matrix hashing, the pairwise-independent baseline extractor.

The seed of length n + m - 1 lists the diagonals of an m x n binary Toeplitz
matrix T with T[i][j] = seed[i - j + n - 1]; the output is T x over GF(2).
The family is XOR-universal (T d is uniform for every fixed nonzero d), which
is exactly what the leftover-hash bound needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BitString


@dataclass(frozen=True)
class ToeplitzSpec:
    input_bits: int
    output_bits: int

    def __post_init__(self):
        if self.output_bits < 1 or self.output_bits > self.input_bits:
            raise ValueError(
                f"need 1 <= output bits <= input bits, got "
                f"{self.output_bits} and {self.input_bits}"
            )

    @property
    def seed_bits(self) -> int:
        return self.input_bits + self.output_bits - 1


def _row_masks(spec: ToeplitzSpec, seed_value):
    """Row i of T as an n-bit mask with bit j = T[i][j] = seed[i - j + n - 1],
    for one integer seed or elementwise for an int64 array of seeds."""
    n, m = spec.input_bits, spec.output_bits
    total = spec.seed_bits
    reversed_seed = 0
    for p in range(total):
        reversed_seed |= ((seed_value >> (total - 1 - p)) & 1) << p
    mask = (1 << n) - 1
    return [(reversed_seed >> (m - 1 - i)) & mask for i in range(m)]


def toeplitz_extract(spec: ToeplitzSpec, x: BitString, seed: BitString) -> BitString:
    if len(x) != spec.input_bits:
        raise ValueError(f"input is {len(x)} bits, spec wants {spec.input_bits}")
    if len(seed) != spec.seed_bits:
        raise ValueError(f"seed is {len(seed)} bits, spec wants {spec.seed_bits}")
    xv = x.to_int()
    out = 0
    for i, row in enumerate(_row_masks(spec, seed.to_int())):
        out |= ((row & xv).bit_count() & 1) << i
    return BitString(out, spec.output_bits)


class ToeplitzExtractor:
    """Extractor adapter over a ToeplitzSpec, with a vectorized batch path."""

    def __init__(self, spec: ToeplitzSpec):
        self.spec = spec
        self.input_bits = spec.input_bits
        self.seed_bits = spec.seed_bits
        self.output_bits = spec.output_bits
        self.seed_support = tuple(range(spec.seed_bits))

    def extract(self, x: BitString, y: BitString) -> BitString:
        return toeplitz_extract(self.spec, x, y)

    def prepare_batch(self, xs: Sequence[int]):
        return np.asarray(list(xs), dtype=np.int64)

    def extract_table(self, state, patterns: np.ndarray) -> np.ndarray:
        """Outputs for every (seed, x) pair; shape (len(patterns), len(xs)).

        The seed support covers every position, so patterns are full seeds;
        outputs are packed into int64, so m must be at most 62.
        """
        if self.output_bits > 62:
            raise ValueError(f"{self.output_bits} output bits do not fit the int64 table")
        xs = state
        dtype = np.uint8 if self.output_bits <= 8 else np.int64
        out = np.zeros((len(patterns), len(xs)), dtype=dtype)
        rows = _row_masks(self.spec, np.asarray(patterns, dtype=np.int64))
        for i, row in enumerate(rows):
            # bitwise_count gives uint8; a multiply, not a shift: numpy shifts
            # uint8 several times slower
            out |= (np.bitwise_count(row[:, None] & xs) & 1) * dtype(1 << i)
        return out
