from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extractorforge.bits import BitString
from extractorforge.codes import (
    CodeSpec,
    code_distance,
    encode_all_positions,
    encode_bit,
    encode_bits,
    evaluate_messages,
)
from extractorforge.detrand import CounterRng

from helpers import ref_code_bit, ref_codeword


def test_spec_validation():
    spec = CodeSpec(2, 2)
    assert spec.index_bits == 4
    assert spec.codeword_bits == 16
    assert spec.message_bits == 4
    with pytest.raises(ValueError):
        CodeSpec(2, 5)  # more symbols than field elements
    with pytest.raises(ValueError):
        CodeSpec(0, 1)


def test_zero_mask_and_zero_message():
    spec = CodeSpec(3, 4)
    x = BitString(0b101101010110, 12)
    for alpha in range(8):
        assert encode_bit(spec, x, alpha << 3) == 0  # z = 0
    zero = BitString.zeros(12)
    for idx in range(64):
        assert encode_bit(spec, zero, idx) == 0


def test_encode_matches_reference_table():
    spec = CodeSpec(2, 2)
    for x in (0b1101, 0b0001, 0b1111, 0b1010):
        expect = ref_codeword(2, 2, x)
        got = [encode_bit(spec, BitString(x, 4), idx) for idx in range(16)]
        assert got == expect


def test_index_bounds():
    spec = CodeSpec(2, 2)
    with pytest.raises(ValueError):
        encode_bit(spec, BitString(0, 4), 16)
    with pytest.raises(ValueError):
        encode_bit(spec, BitString(0, 3), 0)


@pytest.mark.parametrize("w, symbols", [(1, 2), (3, 4), (9, 2), (11, 2), (17, 3)])
def test_multi_index_kernel_matches_encode_bit(w, symbols):
    # w = 17: a field without tables, 3 symbols a message
    spec = CodeSpec(w, symbols)
    rng = CounterRng(0xB175, w, symbols)
    for _ in range(4):
        x = BitString(rng.below(1 << spec.message_bits), spec.message_bits)
        indices = [0, spec.codeword_bits - 1] + [rng.below(spec.codeword_bits) for _ in range(60)]
        expected = [encode_bit(spec, x, idx) for idx in indices]
        got = encode_bits(spec, [x.to_int()], indices)
        assert got.dtype == np.uint8 and got.tolist() == expected
        assert expected == [ref_code_bit(w, symbols, x.to_int(), idx) for idx in indices]
    assert encode_bits(spec, [x.to_int()], []).tolist() == []


def test_multi_index_kernel_checks_message_and_indices():
    spec = CodeSpec(2, 2)
    for bad in (16, -1):  # a message of 5 bits, and a negative one
        with pytest.raises(ValueError, match=f"{bad} does not fit in 2 symbols of 2 bits"):
            encode_bits(spec, [bad], [0, 1])
        with pytest.raises(ValueError, match=f"{bad} does not fit in 2 symbols of 2 bits"):
            encode_bits(spec, [3, bad], [0, 1])
    for bad in (16, -1):
        with pytest.raises(ValueError, match=rf"index {bad} outside \[0, 16\)"):
            encode_bits(spec, [0b1011], [3, bad])
        with pytest.raises(ValueError, match=rf"index {bad} outside \[0, 16\)"):
            encode_bits(spec, [0b1011, 1], [3, bad])


@pytest.mark.parametrize("w, symbols", [(1, 1), (2, 4), (4, 3), (16, 1), (17, 2), (32, 2)])
def test_encode_bits_in_both_modes_matches_reference(w, symbols):
    # (w, 1): one-coefficient messages; w = 32: 64-bit indices, where an
    # index at or past 2^63 would overflow an int64
    spec = CodeSpec(w, symbols)
    rng = CounterRng(0xE2B, w, symbols)
    top = spec.codeword_bits - 1
    indices = [0, top, top >> 1, (top >> 1) + 1, top - 1]
    indices += [rng.below(spec.codeword_bits) for _ in range(27)]
    if w == 32:
        indices += [(1 << 63) | rng.below(1 << 63) for _ in range(8)]
    xs = [0, (1 << spec.message_bits) - 1]
    xs += [rng.below(1 << spec.message_bits) for _ in range(len(indices) - 2)]
    # one message per index
    got = encode_bits(spec, xs, indices)
    assert got.dtype == np.uint8 and got.shape == (len(indices),)
    assert got.tolist() == [ref_code_bit(w, symbols, x, i) for x, i in zip(xs, indices)]
    # a single message at every index
    for x in xs[:3]:
        got = encode_bits(spec, [x], indices)
        assert got.tolist() == [ref_code_bit(w, symbols, x, i) for i in indices]


@pytest.mark.parametrize("messages, indices", [(2, 3), (3, 1), (0, 2), (2, 0)])
def test_encode_bits_wants_one_message_or_one_per_index(messages, indices):
    spec = CodeSpec(3, 2)
    with pytest.raises(ValueError, match=f"^{messages} messages for {indices} indices: "
                                         "want one, or one each$"):
        encode_bits(spec, [5] * messages, [9] * indices)


def test_code_distance_values():
    assert code_distance(CodeSpec(3, 1)) == Fraction(1, 2)
    assert code_distance(CodeSpec(2, 2)) == Fraction(3, 8)


def test_distance_exhaustive_small():
    # all pairwise distances of the w=2, n~=2 code meet the designed bound
    spec = CodeSpec(2, 2)
    words = [
        [encode_bit(spec, BitString(x, 4), i) for i in range(16)] for x in range(16)
    ]
    bound = code_distance(spec) * 16
    for i in range(16):
        for j in range(i):
            hamming = sum(a != b for a, b in zip(words[i], words[j]))
            assert hamming >= bound


@settings(max_examples=200)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(0, 63))
def test_linearity(a, b, idx):
    spec = CodeSpec(3, 4)
    lhs = encode_bit(spec, BitString(a ^ b, 12), idx)
    rhs = encode_bit(spec, BitString(a, 12), idx) ^ encode_bit(spec, BitString(b, 12), idx)
    assert lhs == rhs


def test_batch_encoder_matches_scalar():
    spec = CodeSpec(3, 3)
    xs = [0, 1, 0b101010101, 0b111111111, 137]
    table = encode_all_positions(spec, xs)
    assert table.shape == (5, 64)
    for row, x in enumerate(xs):
        for idx in range(64):
            assert table[row, idx] == encode_bit(spec, BitString(x, 9), idx)


def test_batch_encoder_matches_scalar_width_9():
    # wider than a byte: the codeword table gathers from 16-bit symbols
    spec = CodeSpec(9, 2)
    rng = CounterRng(0xC9)
    xs = [0, (1 << 18) - 1] + [rng.below(1 << 18) for _ in range(3)]
    evals = evaluate_messages(spec, xs)
    assert evals.shape == (5, 512)
    table = encode_all_positions(spec, xs[:2])
    assert table.shape == (2, 1 << 18)
    for row, x in enumerate(xs):
        message = BitString(x, 18)
        for _ in range(200):
            idx = rng.below(1 << 18)
            bit = encode_bit(spec, message, idx)
            assert (int(evals[row, idx >> 9]) & idx & 511).bit_count() % 2 == bit
            if row < 2:
                assert table[row, idx] == bit


def test_hadamard_page_weight():
    # nonzero symbols contribute exactly half their page, zero symbols none
    for w in (1, 2, 3):
        q = 1 << w
        for e in range(q):
            weight = sum(bin(e & z).count("1") % 2 for z in range(q))
            assert weight == (q // 2 if e else 0)


def test_batch_rejects_out_of_range_messages():
    spec = CodeSpec(2, 2)
    with pytest.raises(ValueError):
        encode_all_positions(spec, [16])
