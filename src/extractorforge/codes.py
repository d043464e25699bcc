"""Binary code with random access to single codeword bits.

The code is a Reed-Solomon code over GF(2^w) concatenated with the Hadamard
code.  A message of n_tilde symbols (w bits each, symbol i in message bits
[i*w, (i+1)*w), least-significant bit first) is a polynomial p of degree
below n_tilde.  Codeword bit indices have 2w bits and parse as (alpha, z)
with alpha in the high word; the bit value is the GF(2) inner product of
p(alpha) and the mask z.

Bit positions are computed on demand in O(n_tilde) field operations, which
is what makes the code usable as the inner code of a seed-restricted
extractor.  :func:`encode_bits` reads many positions of one int message,
split into symbols once, and :func:`encode_bit` is its one-index call on a
``BitString``.  Many messages are read through :func:`evaluate_messages`:
2^w values p_x(alpha) a message, where its codeword has 2^(2w) bits.  Only
:func:`encode_all_positions` materializes whole codewords.

Every code, built or read from JSON, is checked on construction against
1 <= w <= 32 and 1 <= n_tilde <= 2^w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .bits import BitString
from .errors import check_rules
from .gf2 import MAX_FIELD_WIDTH, get_field, horner, split_symbols


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


def encode_bits(spec: CodeSpec, x: int, indices: Iterable[int]) -> int:
    """Codeword bits of message ``x``, an int below 2^message_bits, at
    ``indices``, packed: bit k of the result is the bit at the k-th index.

    x is split into field symbols once, and the field looked up once, for
    all indices; each index alpha * 2^w + z then costs one Horner
    evaluation, and its bit is the parity of p_x(alpha) AND z.  Raises
    ValueError if x does not fit or an index lies outside [0, 2^(2w)).
    """
    w, size = spec.field_width, spec.codeword_bits
    coeffs = split_symbols(x, w, spec.message_symbols)
    evaluate = get_field(w).eval_poly
    out = 0
    for k, index in enumerate(indices):
        if not 0 <= index < size:
            raise ValueError(f"index {index} outside [0, {size})")
        # p_x(alpha) < 2^w, so AND with the index is AND with z
        out |= ((evaluate(coeffs, index >> w) & index).bit_count() & 1) << k
    return out


def encode_bit(spec: CodeSpec, x: BitString, index: int) -> int:
    """Codeword bit at ``index`` for message ``x`` of ``message_bits``."""
    if len(x) != spec.message_bits:
        raise ValueError(f"message is {len(x)} bits, spec wants {spec.message_bits}")
    return encode_bits(spec, x.to_int(), (index,))


def code_distance(spec: CodeSpec) -> Fraction:
    """Designed relative distance: (1 - (n_tilde - 1)/2^w) / 2."""
    return (1 - Fraction(spec.message_symbols - 1, 1 << spec.field_width)) / 2


def evaluate_messages(spec: CodeSpec, xs: Sequence[int]) -> np.ndarray:
    """Polynomial evaluations p_x(alpha) for every message and every alpha.

    Returns an array of shape (len(xs), 2^w) of field elements.
    """
    w, k = spec.field_width, spec.message_symbols
    coeffs = np.array([split_symbols(x, w, k) for x in xs], dtype=np.intp)
    return horner(coeffs.reshape(-1, k), np.arange(1 << w), w)


def encode_all_positions(spec: CodeSpec, xs: Sequence[int]) -> np.ndarray:
    """Full codewords, shape (len(xs), 2^(2w)) of 0/1 bytes.

    Position alpha * 2^w + z holds the parity of p_x(alpha) AND z, exactly
    as :func:`encode_bits` computes it one index at a time.
    """
    q = 1 << spec.field_width
    symbol = np.min_scalar_type(q - 1)
    evals = evaluate_messages(spec, xs).astype(symbol)
    out = np.bitwise_count(evals[:, :, None] & np.arange(q, dtype=symbol))
    out &= 1
    return out.reshape(len(evals), q * q)
