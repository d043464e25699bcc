import numpy as np
import pytest

from extractorforge import detrand
from extractorforge.detrand import (
    CounterRng,
    sample_distinct_rows,
    splitmix64,
    splitmix64_array,
    stream_words,
)

from helpers import ref_sample_distinct


def test_below_pinned_draws():
    # Every sampled source, greedy design and --test-seed stream depends on
    # these draws staying the same.
    rng = CounterRng(0xD37, 5)
    got = [rng.below(n) for n in (1, 2, 6, 1000, 1 << 63, (1 << 64) - 59, 1 << 64)]
    assert got == [
        0,
        0,
        3,
        835,
        2868259607057725982,
        17013706013988909959,
        13391270457049076872,
    ]
    rng = CounterRng(7)
    assert rng.sample_distinct(5, 100) == (21, 18, 47, 69, 16)
    assert rng.derive(3).below(1 << 40) == 391882657553


def test_below_beyond_one_word():
    # 2^70 divides 2^128, so the first two-word draw is always accepted
    words = CounterRng(0xB16)
    low, high = words.next_u64(), words.next_u64()
    assert CounterRng(0xB16).below(1 << 70) == (low | high << 64) % (1 << 70)
    rng = CounterRng(0xB17)
    n = (3 << 64) + 1
    draws = [rng.below(n) for _ in range(20)]
    assert all(0 <= v < n for v in draws)
    assert max(draws) >= 1 << 64


def test_below_rejects_empty_range():
    with pytest.raises(ValueError):
        CounterRng(1).below(0)


def _streams(n, rows):
    """Streams keyed by n and row, each advanced by ``row`` words so that
    rows start mid-stream."""
    rngs = [CounterRng(0x5D, n, row) for row in range(rows)]
    for row, rng in enumerate(rngs):
        for _ in range(row):
            rng.next_u64()
    bases = np.array([rng._base for rng in rngs], dtype=np.uint64)
    starts = np.arange(rows)
    return rngs, bases, starts


def test_batched_words_equal_the_scalar_stream():
    rngs, bases, starts = _streams(1 << 20, 5)
    words = stream_words(bases, starts, 9)
    assert words.dtype == np.uint64
    assert words.tolist() == [[rng.next_u64() for _ in range(9)] for rng in rngs]
    parent = CounterRng(0xA5, 3)
    trials = np.arange(4)
    assert parent.derive_bases(7, trials).tolist() == [
        parent.derive(7, trial)._base for trial in trials.tolist()
    ]


def _assert_rows_match_scalar(n, count, rows=6):
    rngs, bases, starts = _streams(n, rows)
    values, ends = sample_distinct_rows(bases, count, n, starts)
    assert values.shape == (rows, count)
    for rng, row, end in zip(rngs, values.tolist(), ends.tolist()):
        assert tuple(row) == ref_sample_distinct(rng, count, n)
        assert end == rng._counter  # the same words consumed
    return ends - starts


@pytest.mark.parametrize("n", [88, 176, 352, 704, (1 << 63) + 1, (1 << 64) - 59, 1 << 64])
@pytest.mark.parametrize("count", [0, 1, 21, 64])
def test_batched_sample_distinct_equals_scalar(n, count):
    # 2^63 + 1 rejects almost half of all words, 2^64 - 59 needs the modulus
    _assert_rows_match_scalar(n, count)


@pytest.mark.parametrize("n", [1, 2, 7, 88])
def test_batched_sample_distinct_whole_range(n):
    _assert_rows_match_scalar(n, n)


def test_batched_sample_distinct_later_blocks(monkeypatch):
    # a first block of exactly ``count`` words is short whenever a draw repeats
    monkeypatch.setattr(detrand, "_first_block_width", lambda count, n: count)
    consumed = _assert_rows_match_scalar(88, 21, rows=12)
    assert (consumed > 21).any()
    consumed = _assert_rows_match_scalar((1 << 63) + 1, 5, rows=12)
    assert (consumed > 5).any()
    # the whole range in blocks of 88 words takes three or more per row
    consumed = _assert_rows_match_scalar(88, 88, rows=4)
    assert (consumed > 2 * 88).all()


def test_batched_sample_distinct_caps_its_blocks(monkeypatch):
    monkeypatch.setattr(detrand, "_MAX_BLOCK_WORDS", 32)
    _assert_rows_match_scalar(704, 21)
    _assert_rows_match_scalar(176, 100, rows=3)


def test_sample_distinct_beyond_64_bits_is_scalar():
    n = (3 << 64) + 1
    assert CounterRng(0xB18).sample_distinct(6, n) == ref_sample_distinct(CounterRng(0xB18), 6, n)
    with pytest.raises(ValueError):
        sample_distinct_rows(np.zeros(1, dtype=np.uint64), 1, n)


def test_sample_distinct_leaves_the_stream_where_below_does():
    rng, ref = CounterRng(0x7C), CounterRng(0x7C)
    assert rng.sample_distinct(40, 50) == ref_sample_distinct(ref, 40, 50)
    assert rng.below(1000) == ref.below(1000)
    with pytest.raises(ValueError):
        rng.sample_distinct(51, 50)


def test_splitmix64_array_refuses_a_0d_array():
    # numpy scalars would warn on the finalizer's wrapping arithmetic
    assert splitmix64_array(np.array([5], np.uint64)).tolist() == [splitmix64(5)]
    with pytest.raises(ValueError, match=r"^splitmix64_array needs an array of rank >= 1$"):
        splitmix64_array(np.array(5, np.uint64))


def test_batched_sample_distinct_refuses_more_values_than_the_range():
    with pytest.raises(ValueError, match=r"^cannot draw 5 distinct values from \[0, 4\)$"):
        sample_distinct_rows(np.zeros(2, dtype=np.uint64), 5, 4)
