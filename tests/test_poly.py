from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from extractorforge.errors import FieldMismatchError
from extractorforge.gf2 import field_modulus, get_field
from extractorforge.poly import (
    FieldPoly,
    find_irreducible,
    irreducible_rows,
    poly_irreducible,
    poly_pow_mod,
)

from helpers import (
    ref_field_mul,
    ref_poly_divmod,
    ref_poly_irreducible,
    ref_poly_mul,
    ref_poly_pow_mod,
)


def test_normalization_and_degree():
    assert FieldPoly((1, 2, 0, 0), 3).coeffs == (1, 2)
    assert FieldPoly((1, 2), 3).degree == 1
    assert FieldPoly((0, 0), 3).coeffs == ()
    assert FieldPoly((), 3).degree == -1
    with pytest.raises(ValueError):
        FieldPoly((8,), 3)


def test_eval_constant_and_identity():
    field = get_field(3)
    for a in range(8):
        assert field.eval_poly((0b101,), a) == 0b101
        assert field.eval_poly((0, 1), a) == a


def test_eval_derived_example():
    # Z^2 + 0b011 at alpha = 0b010 over GF(2^3)
    assert get_field(3).eval_poly((0b011, 0, 1), 0b010) == 0b111


def _ref_mod(coeffs, modulus: FieldPoly) -> FieldPoly:
    """coeffs reduced modulo ``modulus`` by the reference long division."""
    _, rem = ref_poly_divmod(list(coeffs), list(modulus.coeffs), modulus.width)
    return FieldPoly(tuple(rem), modulus.width)


def _irreducible_quadratic_gf4():
    # Z^2 + Z + z is irreducible over GF(4); z*z + z = 1, (z+1)^2 + (z+1) = 1
    return FieldPoly((0b10, 1, 1), 2)


def test_pow_mod_trivial_cases():
    e_mod = _irreducible_quadratic_gf4()
    f = FieldPoly((0b11, 0b01), 2)
    assert poly_pow_mod(f, 0, e_mod) == FieldPoly((1,), 2)
    assert poly_pow_mod(f, 1, e_mod) == _ref_mod(f.coeffs, e_mod)


def test_pow_mod_small_case_vs_long_division():
    e_mod = _irreducible_quadratic_gf4()
    got = poly_pow_mod(FieldPoly((0, 1), 2), 3, e_mod)
    expect = ref_poly_pow_mod([0, 1], 3, [0b10, 1, 1], 2)
    assert list(got.coeffs) == expect


def test_pow_mod_rejects_reducible_modulus():
    # Z^2 + 1 = (Z + 1)^2 over GF(4)
    with pytest.raises(ValueError):
        poly_pow_mod(FieldPoly((0, 1), 2), 3, FieldPoly((1, 0, 1), 2))
    with pytest.raises(ValueError):
        poly_pow_mod(FieldPoly((0, 1), 2), -1, _irreducible_quadratic_gf4())


def test_pow_mod_width_mismatch():
    with pytest.raises(FieldMismatchError):
        poly_pow_mod(FieldPoly((0, 1), 3), 3, _irreducible_quadratic_gf4())


def test_pow_mod_matches_naive_on_random_instances():
    from extractorforge.detrand import CounterRng

    rng = CounterRng(0xABCD)
    for _ in range(100):
        width = 2 + rng.below(3)
        q = 1 << width
        degree = 2 + rng.below(2)
        # a monic modulus scaled by a nonzero constant, and f of any degree
        # up to twice the modulus's
        lead = 1 + rng.below(q - 1)
        monic = find_irreducible(width, degree).coeffs
        modulus = FieldPoly(tuple(get_field(width).mul(lead, c) for c in monic), width)
        f = FieldPoly(tuple(rng.below(q) for _ in range(rng.below(2 * degree + 2))), width)
        e = rng.below(30)
        got = poly_pow_mod(f, e, modulus)
        expect = ref_poly_pow_mod(list(f.coeffs), e, list(modulus.coeffs), width)
        assert list(got.coeffs) == expect


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20), st.data())
def test_pow_mod_exponent_additivity(e1, e2, data):
    width = data.draw(st.integers(2, 4))
    q = 1 << width
    modulus = find_irreducible(width, 2)
    f = FieldPoly(tuple(data.draw(st.integers(0, q - 1)) for _ in range(2)), width)
    lhs = poly_pow_mod(f, e1 + e2, modulus)
    product = ref_poly_mul(
        list(poly_pow_mod(f, e1, modulus).coeffs),
        list(poly_pow_mod(f, e2, modulus).coeffs),
        width,
    )
    assert lhs == _ref_mod(product, modulus)


def test_irreducibility_matches_root_and_factor_scan_gf4():
    # degree-2 polynomials over GF(4): irreducible iff no root in GF(4)
    field = get_field(2)
    for c0 in range(4):
        for c1 in range(4):
            p = FieldPoly((c0, c1, 1), 2)
            has_root = any(field.eval_poly(p.coeffs, a) == 0 for a in range(4))
            assert poly_irreducible(p) == (not has_root)


def test_find_irreducible_deterministic_and_valid():
    first = find_irreducible(2, 2)
    assert first == find_irreducible(2, 2)
    assert poly_irreducible(first)
    # linear monic polynomials are irreducible; the scan returns Z itself
    assert find_irreducible(3, 1) == FieldPoly((0, 1), 3)


def _candidate(counter: int, width: int, degree: int) -> list[int]:
    """Monic candidate number ``counter`` of the search order, lowest
    coefficient first."""
    mask = (1 << width) - 1
    return [(counter >> (i * width)) & mask for i in range(degree)] + [1]


@pytest.mark.parametrize(
    "width, degree",
    [(w, r) for w in range(1, 13) for r in range(1, 13) if w * r <= 12],
)
def test_find_irreducible_is_smallest_reference_irreducible(width, degree):
    counter = 0
    while not ref_poly_irreducible(_candidate(counter, width, degree), width):
        counter += 1
    assert list(find_irreducible(width, degree).coeffs) == _candidate(counter, width, degree)


@pytest.mark.parametrize(
    "width, degree",
    [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (2, 6)]
    + [(3, 2), (3, 3), (3, 4)],
)
def test_irreducible_rows_matches_reference_on_every_candidate(width, degree):
    # (1, 6) and (2, 6): r = 6 has two prime factors, so two gcd checks
    candidates = [_candidate(c, width, degree) for c in range(1 << (width * degree))]
    got = irreducible_rows([c[:-1] for c in candidates], width)
    assert got.tolist() == [ref_poly_irreducible(c, width) for c in candidates]


@pytest.mark.parametrize(
    "width, degree", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (3, 3), (1, 4), (3, 4)]
)
def test_skip_rule_a_candidates_have_a_factor(width, degree):
    # gcd(r, q - 1) = 1: every Z^r + c with c < q is reducible
    q = 1 << width
    assert gcd(degree, q - 1) == 1
    assert not any(ref_poly_irreducible(_candidate(c, width, degree), width) for c in range(q))


@pytest.mark.parametrize("width", [2, 4])
def test_skip_rule_b_candidates_have_a_factor(width):
    # r = 4, w even: every Z^4 + c1 Z + c0 is reducible
    q = 1 << width
    assert not any(ref_poly_irreducible(_candidate(c, width, 4), width) for c in range(q * q))


def test_skip_rule_b_does_not_hold_at_odd_width():
    irreducible = [c for c in range(64) if ref_poly_irreducible(_candidate(c, 3, 4), 3)]
    assert len(irreducible) == 28


def _ref_trace(c: int, width: int) -> int:
    """Absolute trace c + c^2 + ... + c^(2^(w-1)), with reference products."""
    modulus = field_modulus(width)
    total, power = 0, c
    for _ in range(width):
        total ^= power
        power = ref_field_mul(power, power, width, modulus)
    return total


@settings(max_examples=20, deadline=None)
@given(st.integers(17, 20), st.data())
def test_irreducible_rows_quadratics_above_table_width(width, data):
    # Z^2 + b Z + u b^2 with b != 0 is b^2 (U^2 + U + u) at Z = b U, so it is
    # irreducible iff Tr(u) = 1; Z^2 + u is a square.  Widths above 16 run
    # mul_arrays without tables.
    q = 1 << width
    modulus = field_modulus(width)
    draws = data.draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), min_size=1, max_size=8)
    )
    low, expect = [], []
    for b, u in draws:
        b2 = ref_field_mul(b, b, width, modulus)
        low.append([ref_field_mul(u, b2, width, modulus) if b else u, b])
        expect.append(b != 0 and _ref_trace(u, width) == 1)
    assert irreducible_rows(low, width).tolist() == expect


def test_find_irreducible_needs_a_positive_degree():
    with pytest.raises(ValueError, match="^degree must be >= 1, got 0$"):
        find_irreducible(3, 0)
