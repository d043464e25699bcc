"""Reference recomputation of benchmark outputs, outside any timed region.

Built on the independent implementations in ``tests/helpers.py``:
``ref_field_mul`` Horner evaluation for codeword bits and condenser
evaluations, ``ref_poly_pow_mod`` for condenser residues, explicit Toeplitz
matrices, and ``ref_joint_seed_output_distance`` for exact distances.  Only
the resolved specs (design sets, field sizes, the modulus E) come from the
package; every output bit is recomputed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from helpers import (
    ref_field_mul,
    ref_joint_seed_output_distance,
    ref_matrix_vector,
    ref_poly_pow_mod,
    ref_toeplitz_matrix,
    trial_division_irreducible,
)

from extractorforge.bits import BitString


@lru_cache(maxsize=None)
def field_modulus(width: int) -> int:
    """Smallest irreducible degree-``width`` polynomial with constant term 1."""
    candidate = (1 << width) | 1
    while not trial_division_irreducible(candidate):
        candidate += 2
    return candidate


def _symbols(value: int, width: int, count: int) -> list[int]:
    return [(value >> (i * width)) & ((1 << width) - 1) for i in range(count)]


def _horner(coeffs: list[int], point: int, width: int) -> int:
    modulus = field_modulus(width)
    acc = 0
    for c in reversed(coeffs):
        acc = ref_field_mul(acc, point, width, modulus) ^ c
    return acc


def trevisan(spec, x: int, y: int) -> int:
    """Output of the design extractor ``spec`` on integers x and y."""
    w = spec.code.field_width
    coeffs = _symbols(x, w, spec.code.message_symbols)
    out = 0
    for i in range(spec.m):
        index = 0
        for k, pos in enumerate(spec.design.sets[i]):
            index |= ((y >> pos) & 1) << k
        alpha, z = index >> w, index & ((1 << w) - 1)
        bit = bin(_horner(coeffs, alpha, w) & z).count("1") % 2
        out |= bit << i
    return out


def condense(spec, x: int, y: int) -> int:
    """GUV output f^(h^i)(y) mod E, i = 0 .. m' - 1, without the seed."""
    w = spec.field_width
    modulus = list(spec.modulus.coeffs)
    residue = ref_poly_pow_mod(_symbols(x, w, spec.message_symbols), 1, modulus, w)
    value = 0
    for i in range(spec.output_symbols):
        if i:
            residue = ref_poly_pow_mod(residue, spec.power, modulus, w)
        value |= _horner(residue, y, w) << (i * w)
    return value


def chain(condenser, e1, e2, x: int, y: int) -> int:
    """EC(x, y1 || y2) = E1(x1, E2(x2, y2)) with x1 || x2 = C(x, y1) || y1."""
    d = condenser.field_width
    y1, y2 = y & ((1 << d) - 1), y >> d
    strong = condense(condenser, x, y1) | (y1 << (condenser.output_symbols * d))
    half = e1.n
    x1, x2 = strong & ((1 << half) - 1), strong >> half
    return trevisan(e1, x1, trevisan(e2, x2, y2))


def toeplitz_distance(spec, support: list[int]) -> Fraction:
    """Exact distance of (Y, T_Y x) for x uniform on ``support``."""
    n, m, t = spec.input_bits, spec.output_bits, spec.seed_bits
    rows: dict[int, list[list[int]]] = {}

    def extract(x: int, y: BitString) -> BitString:
        key = y.to_int()
        if key not in rows:
            rows[key] = ref_toeplitz_matrix(list(y.bits()), n, m)
        return BitString.from_bits(ref_matrix_vector(rows[key], _bits(x, n)))

    return ref_joint_seed_output_distance(extract, n, t, m, support)


def trevisan_distance(spec, seed_support: tuple[int, ...], support: list[int]) -> Fraction:
    """Exact distance of (Y, E(x, Y)) over the seed positions the output
    reads; the remaining seed bits scale both sides equally."""

    def extract(x: int, pattern: BitString) -> BitString:
        y = 0
        for k, pos in enumerate(seed_support):
            y |= pattern[k] << pos
        return BitString(trevisan(spec, x, y), spec.m)

    return ref_joint_seed_output_distance(
        extract, spec.n, len(seed_support), spec.m, support
    )


def side_distance(distance, pieces: list[list[int]]) -> Fraction:
    """Distance with side information S uniform over ``pieces`` and X | S = s
    flat on piece s: the weighted sum of the per-piece distances."""
    return sum((distance(piece) for piece in pieces), Fraction(0)) / len(pieces)


def _bits(value: int, length: int) -> list[int]:
    return [(value >> i) & 1 for i in range(length)]
