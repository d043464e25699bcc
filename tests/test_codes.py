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

from helpers import ref_codeword


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
    # w = 17 takes eval_poly's branch without tables
    spec = CodeSpec(w, symbols)
    rng = CounterRng(0xB175, w, symbols)
    for _ in range(4):
        x = BitString(rng.below(1 << spec.message_bits), spec.message_bits)
        indices = [0, spec.codeword_bits - 1] + [rng.below(spec.codeword_bits) for _ in range(60)]
        expected = sum(encode_bit(spec, x, idx) << k for k, idx in enumerate(indices))
        assert encode_bits(spec, x.to_int(), indices) == expected
        assert encode_bits(spec, x.to_int(), iter(indices)) == expected
    assert encode_bits(spec, x.to_int(), ()) == 0


def test_multi_index_kernel_checks_message_and_indices():
    spec = CodeSpec(2, 2)
    for bad in (16, -1):  # a message of 5 bits, and a negative one
        with pytest.raises(ValueError, match=f"{bad} does not fit in 2 symbols of 2 bits"):
            encode_bits(spec, bad, [0, 1])
    for bad in (16, -1):
        with pytest.raises(ValueError, match=rf"index {bad} outside \[0, 16\)"):
            encode_bits(spec, 0b1011, [3, bad])


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
