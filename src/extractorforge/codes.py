"""Binary code with random access to single codeword bits.

The code is a Reed-Solomon code over GF(2^w) concatenated with the Hadamard
code.  A message of n_tilde symbols (w bits each, symbol i in message bits
[i*w, (i+1)*w), least-significant bit first) is a polynomial p of degree
below n_tilde.  Codeword bit indices have 2w bits and parse as (alpha, z)
with alpha in the high word; the bit value is the GF(2) inner product of
p(alpha) and the mask z.

Bit positions are computed on demand in O(n_tilde) field operations, which
is what makes the code usable as the inner code of a seed-restricted
extractor.  Each reader below makes one :func:`gf2.split_symbols` and one
:func:`gf2.horner` call for all its messages.  :func:`encode_bits` reads
one position of each message, or many of one message; :func:`encode_bit`
is its one-index call on a ``BitString``.  :func:`evaluate_messages` reads
2^w values p_x(alpha) a message, where its codeword has 2^(2w) bits.  Only
:func:`encode_all_positions` materializes whole codewords.

Every code, built or read from JSON, is checked on construction against
1 <= w <= 32 and 1 <= n_tilde <= 2^w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bits import BitString
from .errors import check_rules
from .gf2 import MAX_FIELD_WIDTH, horner, split_symbols


@dataclass(frozen=True)
class CodeSpec:
    field_width: int
    message_symbols: int

    def __post_init__(self):
        w, symbols = self.field_width, self.message_symbols
        check_rules(
            (1 <= w <= MAX_FIELD_WIDTH, f"field width must be in [1, {MAX_FIELD_WIDTH}], got {w}",
             f"1 <= w <= {MAX_FIELD_WIDTH}"),
            # symbols <= 2^w without building 2^w
            (1 <= symbols and (symbols - 1).bit_length() <= w,
             f"message symbols must be in [1, 2^{w}], got {symbols}", "1 <= n_tilde <= 2^w"),
        )

    @property
    def message_bits(self) -> int:
        return self.message_symbols * self.field_width

    @property
    def index_bits(self) -> int:
        return 2 * self.field_width

    @property
    def codeword_bits(self) -> int:
        return 1 << self.index_bits


def encode_bits(spec: CodeSpec, xs: Sequence[int], indices: Sequence[int]) -> np.ndarray:
    """Codeword bits as a uint8 array: entry r is the bit of message xs[r]
    at indices[r], or of the single message xs[0] at every index.

    The messages, ints below 2^message_bits, are split into symbols once and
    evaluated by one :func:`horner` call, each row at its own alpha, where
    the index is alpha * 2^w + z; the bit is the parity of p_x(alpha) AND
    z.  Raises ValueError if len(xs) is neither 1 nor len(indices), if a
    message does not fit, or if an index lies outside [0, 2^(2w)).
    """
    if len(xs) not in (1, len(indices)):
        raise ValueError(f"{len(xs)} messages for {len(indices)} indices: want one, or one each")
    w, size = spec.field_width, spec.codeword_bits
    coeffs = split_symbols(xs, w, spec.message_symbols)
    if indices and (min(indices) < 0 or max(indices) >= size):
        bad = next(index for index in indices if not 0 <= index < size)
        raise ValueError(f"index {bad} outside [0, {size})")
    # uint64: at w = 32 an index reaches 2^64 - 1
    index = np.array(indices, dtype=np.uint64)
    evals = horner(coeffs, (index >> w)[:, None], w)[:, 0]
    z = (index & ((1 << w) - 1)).astype(evals.dtype)
    return np.bitwise_count(evals & z) & 1


def encode_bit(spec: CodeSpec, x: BitString, index: int) -> int:
    """Codeword bit at ``index`` for message ``x`` of ``message_bits``."""
    if len(x) != spec.message_bits:
        raise ValueError(f"message is {len(x)} bits, spec wants {spec.message_bits}")
    return int(encode_bits(spec, [x.to_int()], [index])[0])


def code_distance(spec: CodeSpec) -> Fraction:
    """Designed relative distance: (1 - (n_tilde - 1)/2^w) / 2."""
    return (1 - Fraction(spec.message_symbols - 1, 1 << spec.field_width)) / 2


def evaluate_messages(spec: CodeSpec, xs: Sequence[int]) -> np.ndarray:
    """Polynomial evaluations p_x(alpha) for every message and every alpha.

    Returns an array of shape (len(xs), 2^w) of field elements.
    """
    w = spec.field_width
    return horner(split_symbols(xs, w, spec.message_symbols), np.arange(1 << w), w)


def encode_all_positions(spec: CodeSpec, xs: Sequence[int]) -> np.ndarray:
    """Full codewords, shape (len(xs), 2^(2w)) of 0/1 bytes.

    Position alpha * 2^w + z holds the parity of p_x(alpha) AND z, exactly
    as :func:`encode_bits` computes it at one index.
    """
    q = 1 << spec.field_width
    evals = evaluate_messages(spec, xs)
    out = np.bitwise_count(evals[:, :, None] & np.arange(q, dtype=evals.dtype))
    out &= 1
    return out.reshape(len(evals), q * q)
