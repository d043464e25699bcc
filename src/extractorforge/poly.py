"""Polynomials with coefficients in GF(2^w).

Coefficients are stored lowest degree first as plain integers below 2^w.
Construction normalizes away trailing zero coefficients, so the leading
coefficient of a nonzero polynomial is always nonzero.  The degree of the
zero polynomial is reported as -1 (standing in for negative infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import FieldMismatchError
from .gf2 import FieldElement, get_field, split_symbols, _prime_factors


@dataclass(frozen=True)
class FieldPoly:
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

    @classmethod
    def zero(cls, width: int) -> "FieldPoly":
        return cls((), width)

    @classmethod
    def one(cls, width: int) -> "FieldPoly":
        return cls((1,), width)

    @classmethod
    def identity(cls, width: int) -> "FieldPoly":
        """The polynomial Z."""
        return cls((0, 1), width)

    @classmethod
    def constant(cls, c: int, width: int) -> "FieldPoly":
        return cls((c,), width)

    @classmethod
    def from_field_elements(cls, elems: Sequence[FieldElement]) -> "FieldPoly":
        if not elems:
            raise ValueError("empty coefficient list; use FieldPoly.zero(width)")
        width = elems[0].width
        for e in elems:
            if e.width != width:
                raise FieldMismatchError("mixed widths in coefficient list")
        return cls(tuple(e.value for e in elems), width)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_width(self, other: "FieldPoly"):
        if self.width != other.width:
            raise FieldMismatchError(
                f"cannot mix polynomials over GF(2^{self.width}) and GF(2^{other.width})"
            )

    def __add__(self, other: "FieldPoly") -> "FieldPoly":
        self._check_width(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return FieldPoly(tuple(out), self.width)

    __sub__ = __add__

    def __mul__(self, other: "FieldPoly") -> "FieldPoly":
        self._check_width(other)
        if self.is_zero() or other.is_zero():
            return FieldPoly.zero(self.width)
        field = get_field(self.width)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= field.mul(a, b)
        return FieldPoly(tuple(out), self.width)

    def scale(self, c: int) -> "FieldPoly":
        field = get_field(self.width)
        return FieldPoly(tuple(field.mul(c, a) for a in self.coeffs), self.width)

    def divmod(self, other: "FieldPoly") -> tuple["FieldPoly", "FieldPoly"]:
        self._check_width(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        field = get_field(self.width)
        lead_inv = field.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return FieldPoly.zero(self.width), self
        quot = [0] * (dq + 1)
        for shift in range(dq, -1, -1):
            top = rem[shift + other.degree]
            if top == 0:
                continue
            factor = field.mul(top, lead_inv)
            quot[shift] = factor
            for j, b in enumerate(other.coeffs):
                if b:
                    rem[shift + j] ^= field.mul(factor, b)
        return FieldPoly(tuple(quot), self.width), FieldPoly(tuple(rem), self.width)

    def __mod__(self, other: "FieldPoly") -> "FieldPoly":
        return self.divmod(other)[1]

    def monic(self) -> "FieldPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(get_field(self.width).inv(lead))

    def gcd(self, other: "FieldPoly") -> "FieldPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval_int(self, alpha: int) -> int:
        """Horner evaluation at a raw field element."""
        field = get_field(self.width)
        return field.eval_poly(self.coeffs, field.check(alpha))

    def __repr__(self) -> str:
        return f"FieldPoly({list(self.coeffs)}, width={self.width})"


def poly_eval(p: FieldPoly, alpha: FieldElement) -> FieldElement:
    """Evaluate p at alpha; widths must match."""
    if p.width != alpha.width:
        raise FieldMismatchError(
            f"polynomial over GF(2^{p.width}) evaluated at GF(2^{alpha.width}) point"
        )
    return FieldElement(p.eval_int(alpha.value), p.width)


def _pow_mod_unchecked(f: FieldPoly, e: int, modulus: FieldPoly) -> FieldPoly:
    result = FieldPoly.one(f.width)
    base = f % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def poly_irreducible(p: FieldPoly) -> bool:
    """Rabin test over GF(2^w): p of degree r is irreducible iff
    Z^(q^r) = Z (mod p) and gcd(Z^(q^(r/t)) - Z, p) is constant for every
    prime t dividing r, where q = 2^w.
    """
    r = p.degree
    if r < 1:
        return False
    p = p.monic()
    z = FieldPoly.identity(p.width) % p
    q = 1 << p.width
    checkpoints = {r // t for t in _prime_factors(r)}
    power = z
    for k in range(1, r + 1):
        power = _pow_mod_unchecked(power, q, p)
        if k in checkpoints:
            if (power + z).gcd(p).degree > 0:
                return False
    return power == z


@lru_cache(maxsize=256)
def _irreducibility_cached(coeffs: tuple[int, ...], width: int) -> bool:
    return poly_irreducible(FieldPoly(coeffs, width))


def poly_pow_mod(f: FieldPoly, e: int, modulus: FieldPoly) -> FieldPoly:
    """f^e reduced modulo an irreducible polynomial, by square and multiply."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    if f.width != modulus.width:
        raise FieldMismatchError("f and modulus live over different fields")
    if not _irreducibility_cached(modulus.coeffs, modulus.width):
        raise ValueError("modulus is reducible or degenerate")
    return _pow_mod_unchecked(f, e, modulus)


def find_irreducible(width: int, degree: int) -> FieldPoly:
    """Smallest monic irreducible polynomial of the given degree over GF(2^w).

    Monic candidates Z^degree + sum(c_i Z^i) are scanned in the order given
    by reading (c_0, ..., c_(degree-1)) as base-2^w digits of a counter, so
    the result is the same in every implementation of this rule.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    for counter in range(1 << (width * degree)):
        candidate = FieldPoly(tuple(split_symbols(counter, width, degree)) + (1,), width)
        if poly_irreducible(candidate):
            return candidate
    raise AssertionError(f"no irreducible of degree {degree} over GF(2^{width})")
