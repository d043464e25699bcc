from fractions import Fraction

import numpy as np
import pytest

from extractorforge.bits import BitString
from extractorforge.codes import CodeSpec, encode_bit
from extractorforge.designs import build_greedy_weak_design, restrict_seed
from extractorforge.detrand import CounterRng
from extractorforge.errors import InfeasibleParameterError
from extractorforge.oracle import extractor_distance, sample_flat_sources
from extractorforge.trevisan import (
    ExtractorSpec,
    TrevisanExtractor,
    build_trevisan,
    custom_spec,
    trevisan_extract,
)


def test_build_resolves_consistent_dimensions():
    spec = build_trevisan("thm42", 8, 4, Fraction(1, 8))
    assert spec.design.set_size == spec.code.index_bits
    assert spec.design.universe_size == spec.t
    assert spec.design.num_sets >= spec.m
    assert spec.code.message_bits >= spec.n
    # thm42 seeds are a perfect square of the field size
    q = 1 << max(1, (spec.design.set_size - 1).bit_length())
    assert spec.t == q * q


def test_build_thm43_uses_weak_design():
    spec = build_trevisan("thm43", 8, 4, Fraction(1, 8))
    assert spec.design.kind == "weak"
    assert spec.design.certified_overlap <= 2


def test_build_single_output_bit():
    spec = build_trevisan("thm42", 8, 1, Fraction(1, 4))
    assert spec.m == 1
    assert spec.design.num_sets == 1


def test_build_deterministic():
    a = build_trevisan("thm43", 12, 2, Fraction(1, 4))
    b = build_trevisan("thm43", 12, 2, Fraction(1, 4))
    assert a == b


def test_build_rejects_bad_epsilon():
    with pytest.raises(InfeasibleParameterError):
        build_trevisan("thm42", 8, 1, Fraction(3, 2))
    with pytest.raises(InfeasibleParameterError):
        build_trevisan("thm42", 8, 1 << 40, Fraction(1, 4))


def test_zero_source_extracts_zero():
    spec = build_trevisan("thm42", 8, 2, Fraction(1, 4))
    zero = BitString.zeros(8)
    rng = CounterRng(0x7E57)
    for _ in range(20):
        y = BitString(rng.below(1 << spec.t) if spec.t < 63 else 0, spec.t)
        assert trevisan_extract(spec, zero, y) == BitString.zeros(2)


def test_single_bit_is_the_selected_code_bit():
    spec = build_trevisan("thm43", 8, 1, Fraction(1, 4))
    rng = CounterRng(0x51B1)
    for _ in range(20):
        x = BitString(rng.below(1 << 8), 8)
        y = BitString(rng.below(1 << spec.t), spec.t)
        padded = x + BitString.zeros(spec.code.message_bits - 8)
        index = restrict_seed(y, spec.design.sets[0])
        assert trevisan_extract(spec, x, y)[0] == encode_bit(spec.code, padded, index)


def test_transcript_n8_m2():
    # replay the construction step by step with independent pieces
    spec = build_trevisan("thm43", 8, 2, Fraction(1, 4))
    x = BitString(0b10110101, 8)
    y = BitString(0xABCDEF % (1 << spec.t), spec.t)
    out = trevisan_extract(spec, x, y)
    padded_value = x.to_int()  # zero padding leaves the integer unchanged
    padded = BitString(padded_value, spec.code.message_bits)
    for i in range(2):
        positions = spec.design.sets[i]
        index = sum(y[p] << k for k, p in enumerate(positions))
        assert out[i] == encode_bit(spec.code, padded, index)


def test_output_bit_ignores_seed_outside_its_set():
    spec = build_trevisan("thm43", 8, 2, Fraction(1, 4))
    rng = CounterRng(0xF11F)
    x = BitString(0b01011100, 8)
    for _ in range(30):
        y_val = rng.below(1 << spec.t)
        y = BitString(y_val, spec.t)
        base = trevisan_extract(spec, x, y)
        for i in range(2):
            outside = [p for p in range(spec.t) if p not in spec.design.sets[i]]
            flip_at = outside[rng.below(len(outside))]
            flipped = y ^ BitString(1 << flip_at, spec.t)
            assert trevisan_extract(spec, x, flipped)[i] == base[i]


def test_linear_in_source():
    spec = build_trevisan("thm42", 8, 2, Fraction(1, 4))
    rng = CounterRng(0x11AE)
    for _ in range(50):
        a = BitString(rng.below(256), 8)
        b = BitString(rng.below(256), 8)
        y = BitString(rng.below(1 << spec.t), spec.t)
        lhs = trevisan_extract(spec, a ^ b, y)
        rhs = trevisan_extract(spec, a, y) ^ trevisan_extract(spec, b, y)
        assert lhs == rhs


def test_length_checks():
    spec = build_trevisan("thm42", 8, 1, Fraction(1, 4))
    with pytest.raises(ValueError):
        trevisan_extract(spec, BitString(0, 7), BitString(0, spec.t))
    with pytest.raises(ValueError):
        trevisan_extract(spec, BitString(0, 8), BitString(0, spec.t - 1))


def test_spec_wiring_validated():
    good = build_trevisan("thm42", 8, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        ExtractorSpec(
            n=good.n,
            t=good.t + 1,
            m=good.m,
            design=good.design,
            code=good.code,
            preset="custom",
            epsilon_target=good.epsilon_target,
        )
    with pytest.raises(ValueError):
        ExtractorSpec(
            n=good.n,
            t=good.t,
            m=good.design.num_sets + 1,
            design=good.design,
            code=good.code,
            preset="custom",
            epsilon_target=good.epsilon_target,
        )


def test_batch_table_matches_scalar_extract():
    spec = build_trevisan("thm43", 8, 2, Fraction(1, 4))
    ext = TrevisanExtractor(spec)
    xs = [0, 1, 77, 200, 255]
    state = ext.prepare_batch(xs)
    patterns = np.arange(33, dtype=np.int64)
    table = ext.extract_table(state, patterns, ext.seed_support)
    for row, pattern in enumerate(patterns):
        y_val = 0
        for bit, pos in enumerate(ext.seed_support):
            y_val |= ((int(pattern) >> bit) & 1) << pos
        y = BitString(y_val, spec.t)
        for col, x in enumerate(xs):
            assert table[row, col] == ext.extract(BitString(x, 8), y).to_int()


def test_desk_scale_distance_within_target_custom_t16():
    # n=12, t=16, m=2 with an explicit width-3 code and weak design
    code = CodeSpec(3, 4)
    design = build_greedy_weak_design(2, 6, 2, 16)
    assert design.universe_size == 16
    spec = custom_spec(12, code, design, 2, Fraction(1, 4))
    ext = TrevisanExtractor(spec)
    for source in sample_flat_sources(12, 9, 15, seed=21):
        assert extractor_distance(ext, source) <= spec.epsilon_target


def test_desk_scale_distance_within_target_presets():
    for preset in ("thm42", "thm43"):
        spec = build_trevisan(preset, 12, 1, Fraction(1, 4))
        ext = TrevisanExtractor(spec)
        for source in sample_flat_sources(12, 9, 10, seed=22):
            assert extractor_distance(ext, source) <= spec.epsilon_target


def test_batch_table_rejects_outputs_wider_than_int64():
    spec = build_trevisan("thm42", 4, 63, Fraction(1, 2))
    ext = TrevisanExtractor(spec)
    state = ext.prepare_batch([0, 1])
    with pytest.raises(ValueError):
        ext.extract_table(state, np.arange(2, dtype=np.int64), ext.seed_support)
