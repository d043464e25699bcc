import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extractorforge.bits import BitString
from extractorforge.oracle import FlatSource, extractor_distance, sample_flat_sources
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec, toeplitz_extract

from helpers import ref_joint_seed_output_distance, ref_matrix_vector, ref_toeplitz_matrix


def test_spec_validation():
    assert ToeplitzSpec(5, 3).seed_bits == 7
    with pytest.raises(ValueError):
        ToeplitzSpec(3, 4)
    with pytest.raises(ValueError):
        ToeplitzSpec(3, 0)


def test_zero_input_maps_to_zero():
    spec = ToeplitzSpec(6, 3)
    for seed in (0, 17, 255):
        out = toeplitz_extract(spec, BitString.zeros(6), BitString(seed, 8))
        assert out == BitString.zeros(3)


def test_one_by_one_is_and():
    spec = ToeplitzSpec(1, 1)
    for seed in (0, 1):
        for x in (0, 1):
            out = toeplitz_extract(spec, BitString(x, 1), BitString(seed, 1))
            assert out.to_int() == seed & x


def test_matches_explicit_matrix_product():
    spec = ToeplitzSpec(3, 2)
    for seed in range(16):
        seed_bits = [(seed >> i) & 1 for i in range(4)]
        matrix = ref_toeplitz_matrix(seed_bits, 3, 2)
        for x in range(8):
            x_bits = [(x >> i) & 1 for i in range(3)]
            expect = ref_matrix_vector(matrix, x_bits)
            got = toeplitz_extract(spec, BitString(x, 3), BitString(seed, 4))
            assert list(got.bits()) == expect


def test_length_checks():
    spec = ToeplitzSpec(3, 2)
    with pytest.raises(ValueError):
        toeplitz_extract(spec, BitString(0, 2), BitString(0, 4))
    with pytest.raises(ValueError):
        toeplitz_extract(spec, BitString(0, 3), BitString(0, 3))


@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 2)])
def test_xor_universality_exact(n, m):
    # for every nonzero difference d, T*d is exactly uniform over seeds
    spec = ToeplitzSpec(n, m)
    seeds = 1 << spec.seed_bits
    for d in range(1, 1 << n):
        counts = {}
        for seed in range(seeds):
            out = toeplitz_extract(spec, BitString(d, n), BitString(seed, spec.seed_bits))
            counts[out.to_int()] = counts.get(out.to_int(), 0) + 1
        assert set(counts.values()) == {seeds >> m}


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3)])
def test_collision_probability_exactly_two_to_minus_m(n, m):
    spec = ToeplitzSpec(n, m)
    seeds = 1 << spec.seed_bits
    for x1, x2 in [(0b0011, 0b0101), (0b0001, 0b1000), (0b0111, 0b0110)]:
        collisions = 0
        for seed in range(seeds):
            y = BitString(seed, spec.seed_bits)
            a = toeplitz_extract(spec, BitString(x1, n), y)
            b = toeplitz_extract(spec, BitString(x2, n), y)
            collisions += a == b
        assert Fraction(collisions, seeds) == Fraction(1, 1 << m)


def test_leftover_hash_small_preview():
    # small version of the calibration: n=8, k=5, m=2, bound 2^-(k-m)/2
    spec = ToeplitzSpec(8, 2)
    ext = ToeplitzExtractor(spec)
    bound = Fraction(1, 2 ** ((5 - 2) // 2))
    for source in sample_flat_sources(8, 5, 25, seed=5):
        assert extractor_distance(ext, source) <= bound


def test_batch_path_matches_scalar():
    import numpy as np

    spec = ToeplitzSpec(6, 3)
    ext = ToeplitzExtractor(spec)
    xs = [0, 5, 9, 63, 32]
    state = ext.prepare_batch(xs)
    patterns = np.arange(19, dtype=np.int64)
    table = ext.extract_table(state, patterns)
    for row, seed in enumerate(patterns):
        for col, x in enumerate(xs):
            expect = ext.extract(BitString(x, 6), BitString(int(seed), spec.seed_bits))
            assert table[row, col] == expect.to_int()


def test_batch_path_keeps_outputs_wider_than_a_byte():
    spec = ToeplitzSpec(10, 10)
    ext = ToeplitzExtractor(spec)
    xs = [1, 513, 1023]
    state = ext.prepare_batch(xs)
    patterns = np.array([0, 1, 1 << 18, (1 << 19) - 1], dtype=np.int64)
    table = ext.extract_table(state, patterns)
    for row, seed in enumerate(patterns):
        for col, x in enumerate(xs):
            expect = ext.extract(BitString(x, 10), BitString(int(seed), spec.seed_bits))
            assert table[row, col] == expect.to_int()


def test_batch_state_does_not_grow_with_the_input_width():
    # at n = 24 a table over all 2^24 inputs would take tens of MB
    ext = ToeplitzExtractor(ToeplitzSpec(24, 1))
    tracemalloc.start()
    try:
        state = ext.prepare_batch([5, (1 << 24) - 3])
        ext.extract_table(state, np.arange(1024, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("support", [(9,), (9, 16000)])
def test_few_strings_over_many_seeds(support):
    # one block holds every seed, with more cells than pairs
    spec = ToeplitzSpec(14, 2)
    ext = ToeplitzExtractor(spec)
    source = FlatSource.from_ints(14, support)
    expect = ref_joint_seed_output_distance(ext.extract, 14, spec.seed_bits, 2, source.support)
    assert extractor_distance(ext, source) == expect


@pytest.mark.parametrize("n, m", [(1, 1), (9, 3), (17, 8), (40, 9), (62, 1)])
def test_both_paths_match_the_explicit_matrix_at_any_width(n, m):
    # the inputs are bit-reversed across byte boundaries and any shift down
    spec = ToeplitzSpec(n, m)
    ext = ToeplitzExtractor(spec)
    xs = sorted({0, 1, (1 << n) - 1, 0x5A5A5A5A5A5A5A5A % (1 << n), 1 << (n - 1)})
    seeds = [0, 1, (1 << spec.seed_bits) - 1, 0x123456789ABCDEF % (1 << spec.seed_bits)]
    table = ext.extract_table(ext.prepare_batch(xs), np.array(seeds, dtype=np.int64))
    for row, seed in enumerate(seeds):
        matrix = ref_toeplitz_matrix([(seed >> i) & 1 for i in range(spec.seed_bits)], n, m)
        for col, x in enumerate(xs):
            expect = ref_matrix_vector(matrix, [(x >> j) & 1 for j in range(n)])
            got = toeplitz_extract(spec, BitString(x, n), BitString(seed, spec.seed_bits))
            assert list(got.bits()) == expect
            assert table[row, col] == got.to_int()


def test_batch_table_rejects_outputs_wider_than_int64():
    ext = ToeplitzExtractor(ToeplitzSpec(63, 63))
    state = ext.prepare_batch([0, 1])
    with pytest.raises(ValueError, match="^63 output bits do not fit the int64 table$"):
        ext.extract_table(state, np.arange(2, dtype=np.int64))
