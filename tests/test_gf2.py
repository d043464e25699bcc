import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extractorforge.detrand import CounterRng
from extractorforge.gf2 import (
    field_modulus,
    get_field,
    gf2x_irreducible,
    gf2x_mod,
    horner,
    mul_arrays,
    split_symbols,
)

from helpers import ref_field_mul, ref_horner, trial_division_irreducible


def test_modulus_small_widths_frozen():
    assert field_modulus(1) == 0b11
    assert field_modulus(2) == 0b111
    assert field_modulus(3) == 0b1011


@pytest.mark.parametrize("width", range(1, 13))
def test_modulus_is_smallest_irreducible(width):
    chosen = field_modulus(width)
    # independent check: trial division finds no factor of degree <= w/2
    assert trial_division_irreducible(chosen)
    # nothing smaller with a constant term passes
    for candidate in range((1 << width) | 1, chosen, 2):
        assert not trial_division_irreducible(candidate)


@pytest.mark.parametrize("width", range(1, 10))
def test_rabin_agrees_with_trial_division(width):
    for f in range(1 << width, 1 << (width + 1)):
        assert gf2x_irreducible(f) == trial_division_irreducible(f)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_field_axioms_exhaustive(width):
    field = get_field(width)
    order = field.order
    elements = range(order)
    for a in elements:
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
        for b in elements:
            ab = field.mul(a, b)
            assert ab == field.mul(b, a)
            for c in elements:
                assert field.mul(ab, c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8])
def test_inverse_and_element_order(width):
    field = get_field(width)
    for a in range(1, field.order):
        assert field.mul(a, field.inv(a)) == 1
        # order of every nonzero element divides 2^w - 1
        assert field.pow(a, field.order - 1) == 1
    with pytest.raises(ValueError):
        field.pow(1, -1)


@settings(max_examples=200)
@given(st.integers(5, 8), st.data())
def test_axioms_randomized_wider(width, data):
    field = get_field(width)
    a = data.draw(st.integers(0, field.order - 1))
    b = data.draw(st.integers(0, field.order - 1))
    c = data.draw(st.integers(0, field.order - 1))
    assert field.mul(a, b) == field.mul(b, a)
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


def test_tableless_path_matches_tables():
    small = get_field(9)
    # force the shift-and-xor path and compare
    for a in (0, 1, 57, 300, 511):
        for b in (0, 1, 19, 444, 511):
            assert small._mul_raw(a, b) == small.mul(a, b)
    for a in (1, 57, 300, 511):
        assert small.mul(a, small.inv(a)) == 1


@pytest.mark.parametrize("width", range(9, 17))
def test_scalar_mul_and_inv_match_reference(width):
    field = get_field(width)
    modulus = field_modulus(width)
    rng = CounterRng(0x5CA1, width)
    top = (1 << width) - 1
    pairs = [(0, 0), (0, top), (1, top), (top, top)]
    pairs += [(rng.below(1 << width), rng.below(1 << width)) for _ in range(200)]
    for a, b in pairs:
        assert field.mul(a, b) == ref_field_mul(a, b, width, modulus)
        if a:
            assert ref_field_mul(a, field.inv(a), width, modulus) == 1


@pytest.mark.parametrize("width", [17, 20, 24, 32])
def test_tableless_inverse_matches_reference(width):
    # above the table limit the inverse is a^(2^w - 2)
    field = get_field(width)
    modulus = field_modulus(width)
    rng = CounterRng(0x1E7, width)
    top = (1 << width) - 1
    for a in [1, 2, top] + [1 + rng.below(top) for _ in range(20)]:
        assert ref_field_mul(a, field.inv(a), width, modulus) == 1


def _ref_is_generator(g, width, modulus):
    # g generates iff g^((q-1)/p) != 1 for every prime p dividing q - 1
    size = (1 << width) - 1
    primes = [p for p in range(2, size + 1) if size % p == 0 and all(p % d for d in range(2, p))]
    return all(_ref_pow(g, size // p, width, modulus) != 1 for p in primes)


def _ref_pow(a, e, width, modulus):
    # square and multiply over ref_field_mul
    result = 1
    for bit in bin(e)[2:]:
        result = ref_field_mul(result, result, width, modulus)
        if bit == "1":
            result = ref_field_mul(result, a, width, modulus)
    return result


@pytest.mark.parametrize("width", range(1, 17))
def test_tables_are_powers_of_smallest_generator(width):
    field = get_field(width)
    modulus = field_modulus(width)
    size = field.order - 1
    exp, log = field.exp_array, field.log_array
    g = int(exp[1 % size])
    assert g == next((h for h in range(2, field.order) if _ref_is_generator(h, width, modulus)), 1)
    # the powers of g, twice over, then zeros; log inverts them
    rng = CounterRng(0x9E7, width)
    for i in [0, size - 1] + [rng.below(size) for _ in range(50)]:
        assert int(exp[i]) == _ref_pow(g, i, width, modulus)
    assert sorted(exp[:size].tolist()) == list(range(1, field.order))
    assert exp[size : 2 * size].tolist() == exp[:size].tolist()
    assert len(exp) == 4 * size + 1 and not exp[2 * size :].any()
    assert log[exp[:size]].tolist() == list(range(size)) and log[0] == 2 * size
    # held once, read-only, and read by the scalar methods too
    assert not exp.flags.writeable and not log.flags.writeable
    assert field.inv(g) == int(exp[size - 1]) and field.mul(g, int(exp[size - 1])) == 1


@pytest.mark.parametrize("width", [1, 2, 5, 8, 9, 14, 16, 17, 20])
def test_eval_poly_matches_reference(width):
    # one point per row, shape (R, 1): polynomial r at points[r]
    rng = CounterRng(0xE7A1, width)
    for size in (1, 2, 4, 7):  # size 1 is a one-coefficient row, n_tilde = 1
        rows = [[rng.below(1 << width) for _ in range(size)] for _ in range(6)]
        points = [0, 1, (1 << width) - 1] + [rng.below(1 << width) for _ in range(3)]
        got = horner(np.array(rows), np.array(points)[:, None], width)
        assert got.shape == (6, 1)
        assert got[:, 0].tolist() == [ref_horner(c, x, width) for c, x in zip(rows, points)]
        # a single row broadcasts against every point
        one = horner(np.array(rows[:1]), np.array(points)[:, None], width)
        assert one[:, 0].tolist() == [ref_horner(rows[0], x, width) for x in points]


# every value past 64 bits, and the word-size edges 1, 8, 9, 16, 17, 31 and 32
@pytest.mark.parametrize(
    "width, count",
    [(1, 70), (5, 14), (8, 9), (9, 8), (14, 6), (16, 5), (17, 4), (31, 3), (32, 3)],
)
def test_split_symbols_round_trips_wide_values(width, count):
    rng = CounterRng(0x5B17, width)
    top = (1 << (width * count)) - 1
    # below() draws at most 64 bits, so wide values are built from 32-bit parts
    drawn = [sum(rng.below(1 << 32) << (32 * i) for i in range(3)) & top for _ in range(20)]
    values = [0, 1, top, (1 << 64) & top, ((1 << 69) | 5) & top] + drawn
    symbols = split_symbols(values, width, count)
    assert symbols.shape == (len(values), count)
    assert symbols.dtype == np.min_scalar_type((1 << width) - 1)
    assert [sum(s << (i * width) for i, s in enumerate(row)) for row in symbols.tolist()] == values
    mask = (1 << width) - 1
    assert symbols.tolist() == [[(v >> (i * width)) & mask for i in range(count)] for v in values]
    assert split_symbols([], width, count).shape == (0, count)
    # the error names the first value that does not fit
    for bad in (-1, top + 1):
        with pytest.raises(ValueError, match=f"^{bad} does not fit in {count} symbols of {width} bits$"):
            split_symbols([top, bad, -2, top + 2], width, count)


@pytest.mark.parametrize("width", [1, 2, 3, 8, 9, 16, 17, 20])
def test_mul_arrays_matches_reference(width):
    # widths up to 16 take the exp/log tables, wider ones shift-and-xor
    rng = CounterRng(0xA11A, width)
    top = (1 << width) - 1
    a = [0, 0, 1, top] + [rng.below(1 << width) for _ in range(60)]
    b = [0, top, 1, top] + [rng.below(1 << width) for _ in range(60)]
    got = mul_arrays(np.array(a), np.array(b), width)
    modulus = field_modulus(width)
    assert got.tolist() == [ref_field_mul(x, y, width, modulus) for x, y in zip(a, b)]
    # broadcasting: one column times one row
    grid = mul_arrays(np.array(a[:8])[:, None], np.array(b[:5]), width)
    assert grid.tolist() == [[get_field(width).mul(x, y) for y in b[:5]] for x in a[:8]]


@pytest.mark.parametrize("width", [1, 4, 9, 16, 17])
def test_horner_matches_scalar_evaluation(width):
    rng = CounterRng(0x4042, width)
    for degree in (1, 2, 4):
        rows = [[rng.below(1 << width) for _ in range(degree)] for _ in range(5)]
        rows.append([0] * degree)
        points = [0, 1, (1 << width) - 1] + [rng.below(1 << width) for _ in range(20)]
        got = horner(np.array(rows), np.array(points), width)
        assert got.shape == (len(rows), len(points))
        for r, coeffs in enumerate(rows):
            assert got[r].tolist() == [ref_horner(coeffs, p, width) for p in points]


def test_gf_mul_spec_values():
    field = get_field(3)
    assert field.mul(0b010, 0b100) == 0b011
    assert field.mul(0b010, 1) == 0b010
    assert field.mul(0b010, 0) == 0


def test_gf_inv_spec_values():
    field = get_field(3)
    assert field.inv(1) == 1
    assert field.inv(0b010) == 0b101
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_element_value_range_enforced():
    with pytest.raises(ValueError):
        get_field(3).check(8)
    with pytest.raises(ValueError):
        field_modulus(0)
    with pytest.raises(ValueError):
        field_modulus(33)


def test_gf2x_mod_by_the_zero_polynomial():
    assert gf2x_mod(5, 3) == 0  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        gf2x_mod(5, 0)
