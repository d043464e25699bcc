import json
from fractions import Fraction

import pytest

from extractorforge.bits import BitString
from extractorforge.codes import CodeSpec
from extractorforge.designs import (
    Design,
    build_greedy_weak_design,
    build_poly_design,
    restrict_seed,
    verify_design,
)
from extractorforge.serialize import spec_digest, spec_from_json, spec_to_json
from extractorforge.trevisan import build_trevisan, custom_spec

from helpers import ref_greedy_weak_design, ref_horner


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
    d = build_greedy_weak_design(4, 4, rho=1, t_initial=32)
    assert d.certified_overlap <= 1
    assert verify_design(d).valid


def test_greedy_weak_bound_certified():
    d = build_greedy_weak_design(8, 4, rho=2, t_initial=16)
    assert d.certified_overlap <= 2
    report = verify_design(d)
    assert report.valid
    assert report.max_weak_sum_ratio == d.certified_overlap


def test_greedy_deterministic():
    a = build_greedy_weak_design(8, 4, rho=2, t_initial=16)
    b = build_greedy_weak_design(8, 4, rho=2, t_initial=16)
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

    out_of_universe = Design(4, 2, "standard", ((0, 7),), Fraction(0))
    assert not verify_design(out_of_universe).valid
    unsorted_set = Design(8, 2, "standard", ((3, 1),), Fraction(0))
    assert not verify_design(unsorted_set).valid


def test_restrict_seed_examples():
    assert restrict_seed(BitString.zeros(8), (1, 4, 6)) == 0
    assert restrict_seed(BitString.ones(8), (0, 3, 5)) == 7
    # y = ...1010 (bits 1 and 3 set), S = {0, 1, 2}
    assert restrict_seed(BitString(0b1010, 4), (0, 1, 2)) == 0b010


def test_restrict_seed_errors():
    y = BitString(0b1010, 4)
    with pytest.raises(IndexError):
        restrict_seed(y, (0, 5))
    with pytest.raises(ValueError):
        restrict_seed(y, (2, 1))


def test_restrict_seed_ignores_outside_bits():
    positions = (1, 3)
    base = BitString(0b0101, 4)
    value = restrict_seed(base, positions)
    for flip in (0, 2):
        flipped = base ^ BitString(1 << flip, 4)
        assert restrict_seed(flipped, positions) == value


def test_design_json_roundtrip():
    # a design has no type tag of its own; it travels inside an extractor spec
    for d in (build_poly_design(16, 4), build_greedy_weak_design(8, 4, 2, 16)):
        spec = custom_spec(8, CodeSpec(2, 4), d, d.num_sets, Fraction(1, 4))
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
    "num_sets, set_size, rho, t_initial",
    [
        (256, 22, 2, 88),  # thm43's design at m = 256: 88, 176 and 352 fail
        (64, 8, 1, None),  # rho = 1, five doublings
        (40, 6, 1, 8),
        (100, 10, Fraction(3, 2), None),
        (300, 9, 2, None),
        (8, 4, 2, 16),
        (1, 4, 2, None),
        (3, 62, 2, None),  # weak sums past int64 are Python ints
    ],
)
def test_greedy_matches_one_candidate_at_a_time(num_sets, set_size, rho, t_initial):
    d = build_greedy_weak_design(num_sets, set_size, rho, t_initial)
    assert (d.universe_size, d.sets, d.certified_overlap) == ref_greedy_weak_design(
        num_sets, set_size, rho, t_initial
    )


def test_thm43_spec_digest_pinned():
    spec = build_trevisan("thm43", 21, 256, Fraction(1, 4))
    assert spec.design.universe_size == 704
    assert spec_digest(spec) == (
        "adb513b44d6a6a185efbbc9f728103dcf7b3fb2ac0457cff82535b33ee093f09"
    )
