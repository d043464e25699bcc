import pytest
from hypothesis import given, strategies as st

from extractorforge.bits import BitString


def test_construction_and_length():
    b = BitString(0b1011, 4)
    assert len(b) == 4
    assert b.to_int() == 0b1011
    assert b.bits() == (1, 1, 0, 1)


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 4)
    with pytest.raises(ValueError):
        BitString(0, -1)


def test_indexing_bounds_are_errors():
    b = BitString(0b101, 3)
    assert b[0] == 1 and b[1] == 0 and b[2] == 1
    with pytest.raises(IndexError):
        b[3]
    with pytest.raises(IndexError):
        b[-1]


def test_concatenation_order_and_length():
    a = BitString.from_bits([1, 0])
    b = BitString.from_bits([1, 1, 0])
    joined = a + b
    assert len(joined) == 5
    assert joined.bits() == (1, 0, 1, 1, 0)


def test_slicing_preserves_range():
    b = BitString.from_bits([1, 0, 1, 1, 0, 1])
    assert b[1:4].bits() == (0, 1, 1)
    assert b[4:].bits() == (0, 1)
    assert len(b[2:2]) == 0
    with pytest.raises(ValueError):
        b[::2]


def test_xor_requires_equal_length():
    assert (BitString(0b101, 3) ^ BitString(0b011, 3)).to_int() == 0b110
    with pytest.raises(ValueError):
        BitString(0b1, 1) ^ BitString(0b11, 2)


def test_bytes_roundtrip_lsb_first():
    # bit 0 is the least-significant bit of byte 0
    b = BitString.from_bytes(bytes([0b00000001, 0b10000000]))
    assert b[0] == 1
    assert b[15] == 1
    assert sum(b.bits()) == 2
    assert b.to_bytes() == bytes([1, 0b10000000])


def test_from_bytes_with_length():
    b = BitString.from_bytes(bytes([0xFF]), 3)
    assert b.bits() == (1, 1, 1)
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\x00", 9)
    with pytest.raises(ValueError, match="^negative length -1$"):
        BitString.from_bytes(b"ab", -1)


def test_from_bits_rejects_a_value_that_is_not_a_bit():
    with pytest.raises(ValueError, match="^bit value 2 is not 0 or 1$"):
        BitString.from_bits([0, 2])


def test_immutability_and_hash():
    b = BitString(5, 3)
    with pytest.raises(AttributeError):
        b._value = 1
    assert b == BitString(5, 3)
    assert hash(b) == hash(BitString(5, 3))
    assert b != BitString(5, 4)


@given(st.lists(st.integers(0, 1), max_size=64))
def test_bits_roundtrip(bits):
    b = BitString.from_bits(bits)
    assert list(b.bits()) == bits
    assert BitString.from_bytes(b.to_bytes(), len(b)) == b


@given(st.lists(st.integers(0, 1), max_size=32), st.lists(st.integers(0, 1), max_size=32))
def test_concat_length_additive(xs, ys):
    a, b = BitString.from_bits(xs), BitString.from_bits(ys)
    assert len(a + b) == len(a) + len(b)
    assert (a + b).bits() == a.bits() + b.bits()
