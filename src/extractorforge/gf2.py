"""GF(2) polynomial arithmetic and the binary extension fields GF(2^w).

Polynomials over GF(2) are nonnegative integers whose binary digits are the
coefficients: bit i is the coefficient of z^i.  Field elements of GF(2^w)
are integers below 2^w, reduced modulo the canonical irreducible polynomial
returned by :func:`field_modulus`.

The modulus for each width is not taken from a table; it is found by a
deterministic scan (smallest polynomial with constant term 1 that passes a
gcd-based irreducibility test), so any independent implementation of the
same rule lands on the same field.

This module alone decides how the fields are represented.  Up to width 16
each field builds, once, exp/log tables over its smallest generator (the
first g >= 2 of order 2^w - 1) by doubling runs of powers with the
table-free shift-and-xor product.  They are held once, as read-only arrays
(elements in the field's ``dtype``, uint8 or uint16, logs in int32) that
the array kernel (:func:`mul_arrays`, and :func:`horner`, the one
polynomial evaluation) gathers from with ``take`` and the scalar methods
index.  Wider fields use shift-and-xor on intp throughout.  An integer
holds symbols of w bits lowest first, symbol i in bits [i w, (i + 1) w);
:func:`split_symbols` is the one place that reads them, many ints at once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

MAX_FIELD_WIDTH = 32

# Widths up to this hold exp/log tables, built once per field with zero
# folded in: log 0 = 2(q - 1) and exp is 0 from index 2(q - 1) on, so
# exp[log a + log b] is the product a b for every pair, zero included.
# Wider fields multiply by shift-and-xor and invert a as a^(q - 2).
_TABLE_WIDTH_LIMIT = 16


def gf2x_degree(a: int) -> int:
    """Degree of a GF(2) polynomial; -1 for the zero polynomial."""
    return a.bit_length() - 1


def gf2x_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def gf2x_mod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = gf2x_degree(b)
    while (shift := gf2x_degree(a) - db) >= 0:
        a ^= b << shift
    return a


def gf2x_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2x_mod(a, b)
    return a


def _gf2x_mulmod(a: int, b: int, m: int) -> int:
    return gf2x_mod(gf2x_mul(a, b), m)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def gf2x_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial.

    f of degree r is irreducible iff z^(2^r) = z (mod f) and, for every
    prime p dividing r, gcd(z^(2^(r/p)) - z, f) is constant.
    """
    r = gf2x_degree(f)
    if r < 1:
        return False
    z = 0b10
    # power = z^(2^k) mod f, advanced by repeated squaring
    power = gf2x_mod(z, f)
    checkpoints = {r // p for p in _prime_factors(r)}
    for k in range(1, r + 1):
        power = _gf2x_mulmod(power, power, f)
        if k in checkpoints:
            if gf2x_degree(gf2x_gcd(power ^ gf2x_mod(z, f), f)) > 0:
                return False
    return power == gf2x_mod(z, f)


@lru_cache(maxsize=None)
def field_modulus(width: int) -> int:
    """Canonical irreducible degree-``width`` polynomial over GF(2).

    Returns the smallest (as a (width+1)-bit integer) irreducible polynomial
    with nonzero constant term.  Deterministic by construction.
    """
    if width < 1 or width > MAX_FIELD_WIDTH:
        raise ValueError(f"field width must be in [1, {MAX_FIELD_WIDTH}], got {width}")
    candidate = (1 << width) | 1
    while candidate < (1 << (width + 1)):
        if gf2x_irreducible(candidate):
            return candidate
        candidate += 2
    raise AssertionError(f"no irreducible polynomial of degree {width}")


def _shift_xor_mul(a: np.ndarray, b: np.ndarray, width: int, modulus: int) -> np.ndarray:
    """Elementwise products modulo ``modulus`` with no tables, broadcasting
    a against b: one shift-and-xor pass per bit of b."""
    a, b = (v.copy() for v in np.broadcast_arrays(a, b))
    out = np.zeros_like(a)
    for _ in range(width):
        out ^= a * (b & 1)
        b >>= 1
        a <<= 1
        a ^= (a >> width) * modulus
    return out


def split_symbols(values: Sequence[int], width: int, count: int) -> np.ndarray:
    """Entry [r, i], in the narrowest unsigned type, is symbol i of
    values[r], bits [i w, (i + 1) w), read for ints of any width from their
    little-endian bytes.  Raises ValueError naming the first value that
    does not fit in ``count`` symbols."""
    bits = width * count
    if values and (min(values) < 0 or max(values) >> bits):
        bad = next(v for v in values if v < 0 or v >> bits)
        raise ValueError(f"{bad} does not fit in {count} symbols of {width} bits")
    size = -(-bits // 8)
    raw = np.fromiter(map(int.to_bytes, values, repeat(size), repeat("little")), f"S{size}")
    planes = np.unpackbits(raw.view(np.uint8).reshape(-1, size), axis=1, count=bits,
                           bitorder="little")
    weights = (1 << np.arange(width)).astype(np.min_scalar_type((1 << width) - 1))
    return planes.reshape(-1, count, width) @ weights


class GF2Field:
    """Arithmetic in GF(2^w) on plain integers below 2^w."""

    def __init__(self, width: int):
        self.width = width
        self.modulus = field_modulus(width)
        self.order = 1 << width
        # The exp/log tables, read by the array kernel and the scalar
        # methods alike; None above the table limit, where the kernel holds
        # elements as intp.
        self.exp_array = self.log_array = None
        self.dtype = np.intp
        if width <= _TABLE_WIDTH_LIMIT:
            self._build_tables()

    def _mul_raw(self, a: int, b: int) -> int:
        return _gf2x_mulmod(a, b, self.modulus)

    def _generator(self) -> int:
        """Smallest g >= 2 of multiplicative order q - 1; 1 in GF(2).  Runs
        before the tables exist, so its powers use shift-and-xor."""
        size = self.order - 1
        factors = _prime_factors(size)
        for g in range(2, self.order):
            if all(self.pow(g, size // p) != 1 for p in factors):
                return g
        return 1

    def _build_tables(self):
        size = self.order - 1
        # g^0 .. g^(2^j - 1), doubled with g^(2^j) until every power is in
        powers = np.ones(1, dtype=np.intp)
        step = self._generator()
        while len(powers) < size:
            shifted = _shift_xor_mul(powers, np.intp(step), self.width, self.modulus)
            powers = np.concatenate([powers, shifted])
            step = _gf2x_mulmod(step, step, self.modulus)
        exp = np.zeros(4 * size + 1, dtype=np.intp)
        exp[:size] = exp[size : 2 * size] = powers[:size]
        log = np.empty(self.order, dtype=np.intp)
        log[exp[:size]] = np.arange(size)
        log[0] = 2 * size
        # elements in the narrowest unsigned type, logs (below 2^18) in int32
        self.dtype = np.min_scalar_type(size)
        exp, log = exp.astype(self.dtype), log.astype(np.int32)
        # Shared by every caller of the cached field.
        exp.flags.writeable = log.flags.writeable = False
        self.exp_array, self.log_array = exp, log

    def check(self, a: int) -> int:
        if a < 0 or a >= self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.width})")
        return a

    def mul(self, a: int, b: int) -> int:
        if self.exp_array is None:
            return self._mul_raw(a, b)
        return int(self.exp_array[self.log_array[a] + self.log_array[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^w)")
        if self.exp_array is None:
            return self.pow(a, self.order - 2)
        return int(self.exp_array[self.order - 1 - self.log_array[a]])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


@lru_cache(maxsize=None)
def get_field(width: int) -> GF2Field:
    return GF2Field(width)


def mul_arrays(a, b, width: int) -> np.ndarray:
    """Elementwise product in GF(2^w) of integer arrays, with broadcasting,
    in the field's ``dtype``.

    Widths up to 16 gather from the field's exp/log tables with ``take``:
    logs in int32, products in uint8 or uint16.  Larger widths run
    shift-and-xor over all elements at once, one pass per bit of b.
    """
    field = get_field(width)
    if field.exp_array is None:
        a = np.asarray(a, dtype=np.intp)
        return _shift_xor_mul(a, np.asarray(b, dtype=np.intp), width, field.modulus)
    log = field.log_array
    return field.exp_array.take(log.take(a) + log.take(b))


def horner(coeffs, points, width: int) -> np.ndarray:
    """Evaluate many polynomials over GF(2^w) at many points, in the field's
    ``dtype``: the package's one polynomial evaluation.

    Row r of ``coeffs`` holds the coefficients of p_r, lowest degree first.
    Entry [r, j] of the result is p_r(points[j]) for points shared by every
    row, shape (P,), and entry [r, 0] is p_r(points[r]) for one a row, (R, 1).
    """
    dtype = get_field(width).dtype
    coeffs = np.asarray(coeffs).astype(dtype, copy=False)
    points = np.asarray(points).astype(dtype, copy=False)
    # the leading column meets the points in the first product, by broadcasting
    acc = coeffs[:, -1:]
    if coeffs.shape[1] == 1:
        return np.broadcast_to(acc, np.broadcast_shapes(acc.shape, points.shape)).copy()
    for d in range(coeffs.shape[1] - 2, -1, -1):
        acc = mul_arrays(acc, points, width)
        acc ^= coeffs[:, d : d + 1]
    return acc
