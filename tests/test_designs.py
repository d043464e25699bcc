import json
import tracemalloc
from fractions import Fraction

import pytest

from extractorforge import designs
from extractorforge.bits import BitString
from extractorforge.designs import (
    Design,
    _design_stats,
    build_greedy_weak_design,
    build_poly_design,
    restrict_seed,
    restrict_sets,
    verify_design,
)
from extractorforge.detrand import CounterRng
from extractorforge.errors import InfeasibleParameterError
from extractorforge.serialize import spec_digest, spec_from_json, spec_to_json
from extractorforge.trevisan import build_trevisan, custom_spec

from helpers import ref_design_stats, ref_greedy_weak_design, ref_horner


def _pairwise_overlaps(design):
    out = []
    for i in range(design.num_sets):
        for j in range(i):
            out.append(len(set(design.sets[i]) & set(design.sets[j])))
    return out


def test_poly_design_degree_zero_is_disjoint():
    # all sets fit in one field: constant polynomials, pairwise disjoint
    d = build_poly_design(4, 4)
    assert all(ov == 0 for ov in _pairwise_overlaps(d))
    assert d.certified_overlap == 0


def test_poly_design_q4_c2_overlap_at_most_one():
    d = build_poly_design(16, 4)
    assert d.universe_size == 16
    assert max(_pairwise_overlaps(d)) <= 1
    assert verify_design(d).valid


def test_poly_design_set_sizes_exact():
    for m, l in [(1, 1), (5, 3), (16, 4), (30, 7)]:
        d = build_poly_design(m, l)
        assert all(len(s) == l for s in d.sets)
        assert d.num_sets == m


def test_poly_design_deterministic():
    assert build_poly_design(16, 4) == build_poly_design(16, 4)


def test_greedy_single_set():
    d = build_greedy_weak_design(1, 4)
    assert d.num_sets == 1
    assert d.certified_overlap == 0
    assert verify_design(d).valid


def test_disjoint_sets_meet_rho_one_bound():
    # disjoint families satisfy the weak bound with rho = 1: every term is 2^0
    sets = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(4))
    d = Design(16, 4, "weak", sets, Fraction(3, 3))
    report = verify_design(d)
    assert report.valid
    assert report.max_weak_sum_ratio <= 1


def test_greedy_rho_one_within_bound():
    d = build_greedy_weak_design(4, 4, rho=1)
    assert d.universe_size == 32  # one doubling from 4l = 16
    assert d.certified_overlap <= 1
    assert verify_design(d).valid


def test_greedy_weak_bound_certified():
    d = build_greedy_weak_design(8, 4, rho=2)
    assert d.certified_overlap <= 2
    report = verify_design(d)
    assert report.valid
    assert report.max_weak_sum_ratio == d.certified_overlap


def test_greedy_deterministic():
    a = build_greedy_weak_design(8, 4, rho=2)
    b = build_greedy_weak_design(8, 4, rho=2)
    assert a == b


def test_verify_disjoint_and_duplicate_sets():
    disjoint = Design(8, 2, "standard", ((0, 1), (2, 3), (4, 5)), Fraction(0))
    assert verify_design(disjoint).max_overlap == 0
    dup = Design(8, 2, "standard", ((0, 1), (0, 1)), Fraction(2))
    report = verify_design(dup)
    assert report.valid
    assert report.max_overlap == 2  # equal sets overlap in every element


def test_verify_flags_wrong_certification_and_malformed_sets():
    wrong = Design(8, 2, "standard", ((0, 1), (1, 2)), Fraction(0))
    report = verify_design(wrong)
    assert not report.valid
    assert "recomputed" in report.reason

    # a malformed family is no Design at all, so verify_design never sees one
    with pytest.raises(InfeasibleParameterError, match=r"^set 0 leaves the universe \[0, 4\)$"):
        Design(4, 2, "standard", ((0, 7),), Fraction(0))
    with pytest.raises(InfeasibleParameterError, match="^set 0 is not sorted$"):
        Design(8, 2, "standard", ((3, 1),), Fraction(0))


def test_restrict_seed_examples():
    assert restrict_seed(BitString.zeros(8), (1, 4, 6)) == 0
    assert restrict_seed(BitString.ones(8), (0, 3, 5)) == 7
    # y = ...1010 (bits 1 and 3 set), S = {0, 1, 2}
    assert restrict_seed(BitString(0b1010, 4), (0, 1, 2)) == 0b010
    assert restrict_seed(BitString(0b1010, 4), ()) == 0


def test_restrict_seed_errors():
    # read position by position: an out-of-order position raises ValueError
    # unless a position before it already lies past the seed
    y = BitString(0b1010, 4)
    for positions, error in (
        ((2, 1), ValueError),
        ((0, 5), IndexError),
        ((0, 5, 3), IndexError),
        ((1, 1), ValueError),
        ((-1, 2), ValueError),
        ((4,), IndexError),
    ):
        with pytest.raises(error):
            restrict_seed(y, positions)


def test_restrict_seed_reads_seeds_past_64_bits():
    # the chain's seed: condenser seed plus E2's, 718 bits
    rng = CounterRng(0x5EED, 718)
    for _ in range(8):
        y = BitString(rng.below(1 << 718), 718)
        bits = y.bits()
        positions = sorted(set(rng.sample_distinct(40, 718)) | {0, 717})
        expected = sum(bits[pos] << k for k, pos in enumerate(positions))
        assert restrict_seed(y, positions) == expected


def test_restrict_sets_reads_each_set_as_restrict_seed_does():
    # the benchmark's E2 design over its 704-bit seed, and an empty set
    design = build_greedy_weak_design(256, 22, 2)
    sets = design.sets + ((),)
    rng = CounterRng(0x5E75, design.universe_size)
    for _ in range(4):
        y = BitString(rng.below(1 << design.universe_size), design.universe_size)
        assert list(restrict_sets(y.to_int(), sets)) == [restrict_seed(y, s) for s in sets]


def test_restrict_seed_ignores_outside_bits():
    positions = (1, 3)
    base = BitString(0b0101, 4)
    value = restrict_seed(base, positions)
    for flip in (0, 2):
        flipped = base ^ BitString(1 << flip, 4)
        assert restrict_seed(flipped, positions) == value


def test_design_json_roundtrip():
    # a design has no type tag of its own; it travels inside an extractor spec
    for d in (build_poly_design(16, 4), build_greedy_weak_design(8, 4, 2)):
        spec = custom_spec(8, d, Fraction(1, 4))
        data = json.loads(spec_to_json(spec))["design"]
        assert set(data) == {"t", "l", "kind", "sets", "certifiedOverlap"}
        assert spec_from_json(spec_to_json(spec)).design == d


@pytest.mark.parametrize("num_sets, set_size", [(16, 4), (64, 8), (11, 14), (300, 9)])
def test_poly_design_matches_horner_reference(num_sets, set_size):
    # set p is {b q + p(b)}, p's coefficients the base-q digits of p
    q_width = max(1, (set_size - 1).bit_length())
    q = 1 << q_width
    c = 1
    while q**c < num_sets:
        c += 1
    expected = []
    for index in range(num_sets):
        digits = [(index // q**i) % q for i in range(c)]
        expected.append(tuple(b * q + ref_horner(digits, b, q_width) for b in range(set_size)))
    assert build_poly_design(num_sets, set_size).sets == tuple(expected)


@pytest.mark.parametrize(
    "num_sets, set_size, rho",
    [
        (256, 22, 2),  # thm43's design at m = 256: 88, 176 and 352 fail
        (64, 8, 1),  # rho = 1, five doublings
        (40, 6, 1),  # doubles from 24 to 384
        (100, 10, Fraction(3, 2)),
        (300, 9, 2),
        (8, 4, 2),
        (1, 4, 2),
        (3, 62, 2),  # weak sums past int64 are Python ints
    ],
)
def test_greedy_matches_one_candidate_at_a_time(num_sets, set_size, rho):
    d = build_greedy_weak_design(num_sets, set_size, rho)
    assert (d.universe_size, d.sets, d.certified_overlap) == ref_greedy_weak_design(
        num_sets, set_size, rho
    )


def test_thm43_spec_digest_pinned():
    spec = build_trevisan("thm43", 21, 256, Fraction(1, 4))
    assert spec.design.universe_size == 704
    assert spec_digest(spec) == (
        "adb513b44d6a6a185efbbc9f728103dcf7b3fb2ac0457cff82535b33ee093f09"
    )


def _wide_families():
    """(kind, universe, sets) with set sizes 46 to 62, where a weak sum can
    pass 2^53 or 2^63.  In the first three the last set meets the first in
    l - 2 elements and the second in none: its weak sum is 2^(l - 2) + 1."""
    families = []
    for size in (48, 56, 62):
        first = tuple(range(size))
        second = tuple(range(size, 2 * size))
        last = tuple(range(2, size)) + (2 * size, 2 * size + 1)
        families.append(("weak", 2 * size + 2, (first, second, last)))
    # three equal sets: the last weak sum is 2^63, past int64
    families.append(("weak", 62, (tuple(range(62)),) * 3))
    greedy = build_greedy_weak_design(3, 62, 2)
    families.append(("weak", greedy.universe_size, greedy.sets))
    families.append(("standard", 96, (tuple(range(46)), tuple(range(46, 92)), tuple(range(20, 66)))))
    return families


@pytest.mark.parametrize("kind, universe, sets", _wide_families())
def test_verify_wide_designs_against_bitmask_reference(kind, universe, sets):
    max_overlap, max_ratio = ref_design_stats(sets)
    certified = Fraction(max_overlap) if kind == "standard" else max_ratio
    report = verify_design(Design(universe, len(sets[0]), kind, sets, certified))
    assert report.valid
    assert (report.max_overlap, report.max_weak_sum_ratio) == (max_overlap, max_ratio)
    # one unit off in the last place of the weak sum, which float64 drops
    # past 2^53, must be reported
    wrong = certified - Fraction(1, len(sets) - 1)
    report = verify_design(Design(universe, len(sets[0]), kind, sets, wrong))
    assert not report.valid
    assert "recomputed" in report.reason


@pytest.mark.parametrize("tile", [1, 2, 7, 512])
def test_design_stats_tiles_match_the_bitmask_reference(monkeypatch, tile):
    monkeypatch.setattr(designs, "_STATS_TILE", tile)
    families = [
        build_poly_design(300, 9).sets,
        build_greedy_weak_design(100, 10, Fraction(3, 2)).sets,
        *(sets for _, _, sets in _wide_families()),
    ]
    for sets in families:
        assert _design_stats(sets) == ref_design_stats(sets)


def test_design_stats_scratch_is_bounded():
    # 4,000 sets: the whole 4,000 x 4,000 overlap matrix and its weak-sum
    # terms peaked at ~418 MB (tracemalloc), and E1's 25,000 sets at
    # n = 100,000 were killed for memory
    sets = build_poly_design(4000, 36).sets
    tracemalloc.start()
    try:
        stats = _design_stats(sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == (1, Fraction(6231, 3999))  # as the untiled computation gave
    assert peak < 32 << 20


def test_greedy_design_runs_out_of_universe_doublings(monkeypatch):
    # eight disjoint 4-sets (rho = 1) need a universe of 32, one doubling
    # past the first universe of 4 l = 16
    monkeypatch.setattr(designs, "_GREEDY_MAX_DOUBLINGS", 1)
    with pytest.raises(InfeasibleParameterError) as exc:
        build_greedy_weak_design(8, 4, rho=1)
    assert str(exc.value) == "no weak design found for m=8, l=4, rho=1 within 1 universe doublings"
    assert exc.value.constraint == "weak design trial budget"
    monkeypatch.setattr(designs, "_GREEDY_MAX_DOUBLINGS", 2)
    assert build_greedy_weak_design(8, 4, rho=1).universe_size == 32
