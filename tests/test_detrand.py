import pytest

from extractorforge.detrand import CounterRng


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
