"""Polynomials with coefficients in GF(2^w).

Coefficients are stored lowest degree first as plain integers below 2^w.
Construction normalizes away trailing zero coefficients, so the leading
coefficient of a nonzero polynomial is always nonzero.  The degree of the
zero polynomial is reported as -1 (standing in for negative infinity).

Arithmetic runs on one row-batched kernel over :func:`gf2.mul_arrays`,
:func:`_mul_mod_rows`, each row reduced modulo its own monic modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import FieldMismatchError
from .gf2 import _prime_factors, get_field, mul_arrays


@dataclass(frozen=True)
class FieldPoly:
    """A coefficient record over GF(2^w); evaluate it with
    ``get_field(w).eval_poly(p.coeffs, x)``."""

    coeffs: tuple[int, ...]
    width: int

    def __post_init__(self):
        field = get_field(self.width)
        for c in self.coeffs:
            field.check(c)
        trimmed = self.coeffs
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"FieldPoly({list(self.coeffs)}, width={self.width})"


def _reduce(wide: np.ndarray, low, width: int) -> np.ndarray:
    """Rows of r or more coefficients reduced in place modulo monic moduli of
    degree r: each Z^top, top >= r, becomes Z^(top - r) times the low part."""
    r = np.shape(low)[-1]
    for top in range(wide.shape[1] - 1, r - 1, -1):
        wide[:, top - r : top] ^= mul_arrays(wide[:, top : top + 1], low, width)
    return wide[:, :r]


def _mul_mod_rows(a: np.ndarray, b: np.ndarray, low, width: int) -> np.ndarray:
    """Row-wise a b, for rows of degree below r, reduced modulo the monic
    moduli Z^r + sum low[i, j] Z^j: low is (rows, r), or (r,) when shared.
    Squaring is a call with b = a."""
    r = a.shape[1]
    terms = mul_arrays(a[:, :, None], b[:, None, :], width)
    wide = np.zeros((len(terms), 2 * r - 1), dtype=np.intp)
    for i in range(r):
        wide[:, i : i + r] ^= terms[:, i]
    return _reduce(wide, low, width)


def pow_mod_rows(rows: np.ndarray, e: int, low, width: int) -> np.ndarray:
    """Row-wise rows^e for e >= 1, by left-to-right square and multiply on
    :func:`_mul_mod_rows`; a power of two costs only its squarings."""
    result = rows
    for bit in bin(e)[3:]:
        result = _mul_mod_rows(result, result, low, width)
        if bit == "1":
            result = _mul_mod_rows(result, rows, low, width)
    return result


def _degrees(rows: np.ndarray) -> np.ndarray:
    nonzero = rows != 0
    top = rows.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), top, -1)


def _gcd_is_constant(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """Per row, whether gcd(a, b) is a nonzero constant (a, b not both 0), by
    Euclid with no field inverse: for deg a <= deg b, b becomes
    lead(a) b + lead(b) Z^s a with s = deg b - deg a, which cancels the
    leading term of b and changes the gcd only by a unit factor."""
    while True:
        da, db = _degrees(a), _degrees(b)
        if not ((da >= 0) & (db >= 0)).any():
            return np.maximum(da, db) == 0
        swap = (da > db)[:, None]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.minimum(da, db)[:, None], np.maximum(da, db)[:, None]
        # a is zero above deg a, so rolling it up by s columns gives Z^s a
        shifted = np.take_along_axis(a, (np.arange(a.shape[1]) - (db - da)) % a.shape[1], 1)
        lead_a, lead_b = np.take_along_axis(a, da, 1), np.take_along_axis(b, db, 1)
        b = np.where(da >= 0, mul_arrays(lead_a, b, width) ^ mul_arrays(lead_b, shifted, width), b)


def irreducible_rows(low, width: int) -> np.ndarray:
    """Rabin test, one candidate p = Z^r + sum low[i, j] Z^j per row: p is
    irreducible over GF(q), q = 2^w, iff Z^(q^r) = Z (mod p) and
    gcd(Z^(q^(r/t)) - Z, p) is constant for every prime t dividing r.  Each
    Z^(q^k) is w squarings of the last; rows failing a gcd check drop out."""
    low = np.asarray(low, dtype=np.intp)
    n, r = low.shape
    z = _reduce(np.eye(1, r + 1, 1, dtype=np.intp).repeat(n, axis=0), low, width)
    checkpoints = {r // t for t in _prime_factors(r)}
    alive, power = np.arange(n), z
    for k in range(1, r + 1):
        power = pow_mod_rows(power, 1 << width, low, width)
        if k in checkpoints:
            monic = np.pad(low, ((0, 0), (0, 1)), constant_values=1)
            keep = _gcd_is_constant(np.pad(power ^ z, ((0, 0), (0, 1))), monic, width)
            alive, power, z, low = (v[keep] for v in (alive, power, z, low))
    return np.isin(np.arange(n), alive[(power == z).all(axis=1)])


def _monic_low(p: FieldPoly) -> np.ndarray:
    return mul_arrays(p.coeffs[:-1], get_field(p.width).inv(p.coeffs[-1]), p.width)


def poly_irreducible(p: FieldPoly) -> bool:
    """Whether p is irreducible: one row of :func:`irreducible_rows`, p made monic."""
    return p.degree >= 1 and bool(irreducible_rows(_monic_low(p)[None], p.width)[0])


def poly_pow_mod(f: FieldPoly, e: int, modulus: FieldPoly) -> FieldPoly:
    """f^e reduced modulo an irreducible polynomial, by square and multiply."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    if f.width != modulus.width:
        raise FieldMismatchError("f and modulus live over different fields")
    if not poly_irreducible(modulus):
        raise ValueError("modulus is reducible or degenerate")
    if e == 0:
        return FieldPoly((1,), f.width)
    low = _monic_low(modulus)
    wide = np.array([f.coeffs + (0,) * modulus.degree], dtype=np.intp)
    row = pow_mod_rows(_reduce(wide, low, f.width), e, low, f.width)
    return FieldPoly(tuple(row[0].tolist()), f.width)


def find_irreducible(width: int, degree: int) -> FieldPoly:
    """Smallest monic irreducible polynomial of the given degree over GF(2^w).

    Monic candidates Z^degree + sum(c_i Z^i) are scanned in the order given
    by reading (c_0, ..., c_(degree-1)) as base-2^w digits of a counter, so
    the result is the same in every implementation of this rule.  Blocks of
    16, then 4 times more up to 2^14, go through :func:`irreducible_rows`.
    With q = 2^w and r = degree, two leading ranges hold only reducible
    candidates and are skipped:

    (a) r >= 2 and gcd(r, q - 1) = 1: counters below q, the Z^r + c.  Then
        d -> d^r permutes GF(q), so c = d^r and Z^r + c has the root d.
        This covers r = 2^j, and r = 3 at odd w.
    (b) r = 4 and w even: counters below q^2, the Z^4 + c1 Z + c0 (a fourth
        power if c1 = 0).  Roots of p differ by roots gamma of Z^4 + c1 Z,
        gamma^3 = c1, and 3 | q - 1 puts gamma in GF(q) or GF(q^3).  For a
        root b of an irreducible p, gamma = b^q - b is also in GF(q^4), so
        in GF(q), and b^(q^2) = b: Frobenius has order 2 on roots, not 4.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    q = 1 << width
    start = 0
    if degree >= 2 and gcd(degree, q - 1) == 1:
        start = q
    if degree == 4 and width % 2 == 0:
        start = q * q
    size = 16
    while start < q**degree:
        counters = np.arange(start, min(start + size, q**degree), dtype=np.int64)
        low = np.empty((len(counters), degree), dtype=np.intp)
        for i in range(degree):
            low[:, i], counters = counters & (q - 1), counters >> width
        hits = np.flatnonzero(irreducible_rows(low, width))
        if len(hits):
            return FieldPoly(tuple(low[hits[0]].tolist()) + (1,), width)
        start, size = start + len(low), min(4 * size, 1 << 14)
    raise AssertionError(f"no irreducible of degree {degree} over GF(2^{width})")
