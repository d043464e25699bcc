import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from extractorforge import oracle
from extractorforge.bits import BitString
from extractorforge.detrand import CounterRng
from extractorforge.errors import BudgetExceededError
from extractorforge.oracle import (
    FiniteDistribution,
    FlatSource,
    JointTable,
    LemmaSuiteReport,
    distance_to_min_entropy,
    extractor_distance,
    extractor_distances,
    injective_fraction,
    lemma_suite,
    lemma_suites,
    sample_flat_sources,
    sample_joint_tables,
    stat_distance,
)
from extractorforge.designs import Design
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec
from extractorforge.trevisan import TrevisanExtractor, custom_spec

from helpers import (
    grid_min_distance_to_capped,
    ref_flat_decomposition,
    ref_joint_seed_output_distance,
    ref_lemma_checks,
    ref_side_distance,
    ref_sample_distinct,
)


def _uniform(n):
    return FiniteDistribution.uniform(range(n))


@st.composite
def weighted_side_tables(draw):
    """Small joint tables with arbitrary integer weights per (x, s)."""
    n = draw(st.integers(2, 3))
    symbols = draw(st.integers(1, 3))
    cells = (1 << n) * symbols
    weights = draw(
        st.lists(st.integers(0, 6), min_size=cells, max_size=cells).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    return JointTable(
        n,
        {
            (BitString(i // symbols, n), i % symbols): Fraction(w, total)
            for i, w in enumerate(weights)
            if w
        },
    )


def _odd_multiplier(n, m):
    """An extractor with only extract: x * (2y + 1) >> 1, truncated to m bits."""
    return _FnExtractor(
        n, 3, m, lambda x, y: BitString((x.to_int() * (2 * y.to_int() + 1) >> 1) % (1 << m), m)
    )


def _trevisan(n, m):
    """A Trevisan evaluator, which offers cell counts, over a width-2 code
    and the first m of two disjoint 4-bit design sets of an 8-bit seed."""
    design = Design(8, 4, "standard", ((0, 1, 2, 3), (4, 5, 6, 7))[:m], Fraction(4))
    return TrevisanExtractor(custom_spec(n, design, Fraction(1, 4)))


small_dists = st.lists(
    st.integers(0, 8), min_size=2, max_size=5
).filter(lambda w: sum(w) > 0).map(
    lambda w: FiniteDistribution(
        {i: Fraction(v, sum(w)) for i, v in enumerate(w) if v}
    )
)


class TestStatDistance:
    def test_identical_is_zero(self):
        assert stat_distance(_uniform(4), _uniform(4)) == 0

    def test_disjoint_supports_is_one(self):
        a = FiniteDistribution.uniform(["a", "b"])
        b = FiniteDistribution.uniform(["c", "d"])
        assert stat_distance(a, b) == 1

    def test_uniform_vs_point_mass(self):
        a = FiniteDistribution.uniform(["00", "01", "10", "11"])
        b = FiniteDistribution({"00": 1})
        assert stat_distance(a, b) == Fraction(3, 4)

    @settings(max_examples=60)
    @given(small_dists, small_dists, small_dists)
    def test_metric_properties(self, a, b, c):
        assert stat_distance(a, b) == stat_distance(b, a)
        assert stat_distance(a, b) >= 0
        assert stat_distance(a, c) <= stat_distance(a, b) + stat_distance(b, c)

    @settings(max_examples=60)
    @given(small_dists, small_dists)
    def test_data_processing_never_increases(self, a, b):
        # deterministic coarse graining of outcomes
        def parity(dist):
            coarse = {}
            for o, p in dist.items():
                coarse[o % 2] = coarse.get(o % 2, Fraction(0)) + p
            return FiniteDistribution(coarse)

        assert stat_distance(parity(a), parity(b)) <= stat_distance(a, b)


class TestCondMinEntropy:
    # classical conditional min-entropy is -log2 of the guessing probability
    def test_independent_side_info(self):
        n = 2
        probs = {}
        for x in range(4):
            for s in range(2):
                probs[(BitString(x, n), s)] = Fraction(1, 8)
        table = JointTable(n, probs)
        assert table.guessing_probability() == max(p for _, p in table.x_marginal().items())

    def test_full_copy(self):
        n = 2
        table = JointTable(
            n, {(BitString(x, n), x): Fraction(1, 4) for x in range(4)}
        )
        assert table.guessing_probability() == 1

    def test_first_bit_leak(self):
        n = 2
        table = JointTable(
            n, {(BitString(x, n), x & 1): Fraction(1, 4) for x in range(4)}
        )
        assert table.guessing_probability() == Fraction(1, 2)

    def test_side_info_never_hurts_adversary(self):
        for i in range(25):
            table = sample_joint_tables(3, 3, [i], seed=7)[0]
            best = max(p for _, p in table.x_marginal().items())
            assert table.guessing_probability() >= best


class TestDistanceToMinEntropy:
    # counts over their sum, as image_counts gives them
    def test_uniform_already_capped(self):
        assert distance_to_min_entropy(np.ones(8, dtype=np.int64), 3) == 0

    def test_point_mass_kappa_one(self):
        assert distance_to_min_entropy(np.array([1]), 1) == Fraction(1, 2)

    def test_matches_grid_search_tiny(self):
        probs = [Fraction(5, 8), Fraction(2, 8), Fraction(1, 8)]
        got = distance_to_min_entropy(np.array([5, 2, 1]), 1)
        best = grid_min_distance_to_capped(probs, 1, steps=8)
        assert got == best

    @pytest.mark.parametrize("weights", [(2, 2, 1), (3, 1, 1)])
    def test_non_dyadic_weights_near_the_cap(self, weights):
        probs = [Fraction(w, 5) for w in weights]
        got = distance_to_min_entropy(np.array(weights), 1)
        assert got == grid_min_distance_to_capped(probs, 1, steps=10)

    def test_monotone_in_kappa(self):
        counts = np.array([4, 3, 1])
        values = [distance_to_min_entropy(counts, k) for k in range(5)]
        assert values == sorted(values)

    def test_non_integer_kappa_rejected(self):
        with pytest.raises(ValueError):
            distance_to_min_entropy(np.ones(4, dtype=np.int64), 1.5)

    def test_narrow_counts_sum_past_their_dtype(self):
        # image_counts keeps each count in the narrowest unsigned dtype, so
        # the sum and the cap outgrow it
        counts = [200, 90, 17, 3, 3, 1, 1, 1]
        narrow = np.array(counts, dtype=np.uint8)
        assert sum(counts) > np.iinfo(narrow.dtype).max
        for kappa in range(5):
            expect = sum(max(Fraction(c, sum(counts)) - Fraction(1, 1 << kappa), 0) for c in counts)
            got = distance_to_min_entropy(narrow, kappa)
            assert got == distance_to_min_entropy(np.array(counts, dtype=np.int64), kappa) == expect


class _FnExtractor:
    """Wrap a plain function as an extractor adapter for oracle tests."""

    def __init__(self, n, t, m, fn):
        self.input_bits, self.seed_bits, self.output_bits = n, t, m
        self._fn = fn

    def extract(self, x, y):
        return self._fn(x, y)


class TestExtractorDistance:
    def test_seed_support_must_be_ascending_and_inside_the_seed(self):
        # pattern bit k is seed bit seed_support[k], so the order is the protocol's
        src = FlatSource.from_ints(3, range(8))
        for support in ((1, 0), (0, 0), (0, 2), (-1, 0)):
            ext = _FnExtractor(3, 2, 1, lambda x, y: BitString(y[0], 1))
            ext.seed_support = support
            with pytest.raises(ValueError, match="seed_support"):
                extractor_distance(ext, src)

    def test_constant_extractor_distance_half(self):
        ext = _FnExtractor(3, 2, 1, lambda x, y: BitString(0, 1))
        src = FlatSource.from_ints(3, range(8))
        assert extractor_distance(ext, src) == Fraction(1, 2)

    def test_seed_echo_distance_half(self):
        ext = _FnExtractor(3, 2, 1, lambda x, y: BitString(y[0], 1))
        src = FlatSource.from_ints(3, range(8))
        assert extractor_distance(ext, src) == Fraction(1, 2)

    def test_toeplitz_on_full_uniform_input(self):
        # Not exactly zero: rank-deficient seeds (the all-zero seed among
        # them) leave the output short of uniform.  The exact value equals
        # sum over seeds of (1 - 2^(rank - m)) / 2^t.
        spec = ToeplitzSpec(4, 2)
        ext = ToeplitzExtractor(spec)
        src = FlatSource.from_ints(4, range(16))
        got = extractor_distance(ext, src)

        from helpers import ref_toeplitz_matrix

        total = Fraction(0)
        seeds = 1 << spec.seed_bits
        for seed in range(seeds):
            bits = [(seed >> i) & 1 for i in range(spec.seed_bits)]
            matrix = ref_toeplitz_matrix(bits, 4, 2)
            rows = {tuple(r) for r in matrix} - {(0, 0, 0, 0)}
            rank = 0
            basis = []
            for row in matrix:
                v = sum(b << i for i, b in enumerate(row))
                for bvec in basis:
                    v = min(v, v ^ bvec)
                if v:
                    basis.append(v)
                    rank += 1
            total += 1 - Fraction(1, 1 << (2 - rank))
        expect = total / seeds
        assert got == expect
        assert got > 0

    def test_matches_independent_enumeration(self):
        spec = ToeplitzSpec(4, 2)
        ext = ToeplitzExtractor(spec)
        src = FlatSource.from_ints(4, (1, 3, 7, 9, 11, 2, 5, 14))
        got = extractor_distance(ext, src)
        expect = ref_joint_seed_output_distance(
            lambda x, y: ext.extract(x, y),
            len(src.support),
            spec.seed_bits,
            2,
            src.support,
        )
        assert got == expect

    def test_independent_side_info_changes_nothing(self):
        spec = ToeplitzSpec(3, 1)
        ext = ToeplitzExtractor(spec)
        values = (0, 3, 5, 6)
        src = FlatSource.from_ints(3, values)
        probs = {}
        for v in values:
            for s in range(2):
                probs[(BitString(v, 3), s)] = Fraction(1, 8)
        table = JointTable(3, probs)
        assert extractor_distance(ext, src, side=table) == extractor_distance(ext, src)

    def test_side_marginal_mismatch_rejected(self):
        spec = ToeplitzSpec(3, 1)
        ext = ToeplitzExtractor(spec)
        src = FlatSource.from_ints(3, (0, 1))
        table = JointTable(3, {(BitString(5, 3), 0): Fraction(1)})
        with pytest.raises(ValueError):
            extractor_distance(ext, src, side=table)

    @pytest.mark.parametrize(
        "n, probs, matches",
        [
            # the source's marginal (1/2 each) over denominators 4 and 6
            (3, {(1, "a"): Fraction(1, 4), (1, "b"): Fraction(1, 4), (6, "a"): Fraction(1, 2)}, True),
            (3, {(1, "a"): Fraction(1, 6), (1, "b"): Fraction(1, 3), (6, "b"): Fraction(1, 2)}, True),
            # same support, other weights
            (3, {(1, "a"): Fraction(1, 3), (6, "a"): Fraction(2, 3)}, False),
            # a support point missing, or one added
            (3, {(1, "a"): Fraction(1)}, False),
            (3, {(1, "a"): Fraction(1, 3), (6, "a"): Fraction(1, 3), (7, "a"): Fraction(1, 3)}, False),
            # the same values as 4-bit strings
            (4, {(1, "a"): Fraction(1, 2), (6, "a"): Fraction(1, 2)}, False),
        ],
    )
    def test_side_marginal_compared_by_weight(self, n, probs, matches):
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        src = FlatSource.from_ints(3, (1, 6))
        joint = {(BitString(x, n), s): p for (x, s), p in probs.items()}
        table = JointTable(n, joint)
        if matches:
            expect = ref_side_distance(ext.extract, ext.seed_bits, 1, joint)
            assert extractor_distance(ext, src, side=table) == expect
        else:
            with pytest.raises(ValueError):
                extractor_distance(ext, src, side=table)

    def test_budget_enforced(self):
        ext = _FnExtractor(4, 8, 1, lambda x, y: BitString(0, 1))
        src = FlatSource.from_ints(4, range(16))
        with pytest.raises(BudgetExceededError):
            extractor_distance(ext, src, budget=100)

    def test_side_budget_is_the_distinct_values_times_the_seed_patterns(self):
        # x = 1 under two symbols: three rows, two distinct x values, and the
        # charge counts the values, not the rows
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        src = FlatSource.from_ints(3, (1, 6))
        joint = {
            (BitString(1, 3), "a"): Fraction(1, 4),
            (BitString(1, 3), "b"): Fraction(1, 4),
            (BitString(6, 3), "a"): Fraction(1, 2),
        }
        table = JointTable(3, joint)
        pairs = 2 << ext.seed_bits
        with pytest.raises(BudgetExceededError) as caught:
            extractor_distance(ext, src, side=table, budget=pairs - 1)
        assert str(caught.value) == (
            f"extractor distance enumeration needs {pairs} items, "
            f"exceeding the budget of {pairs - 1}"
        )
        expect = ref_side_distance(ext.extract, ext.seed_bits, 1, joint)
        assert extractor_distance(ext, src, side=table, budget=pairs) == expect

    def test_scalar_and_table_paths_agree(self):
        spec = ToeplitzSpec(5, 2)
        fast = ToeplitzExtractor(spec)
        slow = _FnExtractor(5, spec.seed_bits, 2, fast.extract)
        src = FlatSource.from_ints(5, (0, 1, 2, 3, 8, 9, 21, 30))
        assert extractor_distance(fast, src) == extractor_distance(slow, src)


class TestWeightedAndSideDistance:
    @settings(max_examples=40, deadline=None)
    @given(weighted_side_tables(), st.integers(1, 2), st.booleans())
    def test_matches_reference(self, table, m, use_side):
        n = table.n
        source = table.x_marginal()
        if use_side:
            joint, side = dict(table.items()), table
        else:
            joint, side = {(x, 0): p for x, p in source.items()}, None
        evaluators = ToeplitzExtractor(ToeplitzSpec(n, m)), _odd_multiplier(n, m), _trevisan(n, m)
        for ext in evaluators:
            expect = ref_side_distance(ext.extract, ext.seed_bits, m, joint)
            assert extractor_distance(ext, source, side=side) == expect

    @pytest.mark.parametrize("m", [40, 70])
    def test_wide_output_closed_forms(self, m):
        k = 3
        src = sample_flat_sources(6, k, 1, seed=4)[0]
        injective = _FnExtractor(6, 2, m, lambda x, y: BitString(x.to_int() << 2 | y.to_int(), m))
        constant = _FnExtractor(6, 2, m, lambda x, y: BitString(0, m))
        assert extractor_distance(injective, src) == 1 - Fraction(1 << k, 1 << m)
        assert extractor_distance(constant, src) == 1 - Fraction(1, 1 << m)

    def test_float_source_with_large_denominator(self):
        third = 1 / 3
        probs = {BitString(1, 3): third, BitString(2, 3): third, BitString(6, 3): 1 - 2 * third}
        source = FiniteDistribution(probs)
        assert sum(p for _, p in source.items()) == 1
        assert max(p.denominator for _, p in source.items()) >= 1 << 53
        table = JointTable(3, {(x, s): p / 2 for x, p in probs.items() for s in (0, 1)})
        evaluators = ToeplitzExtractor(ToeplitzSpec(3, 2)), _odd_multiplier(3, 2), _trevisan(3, 2)
        for ext in evaluators:
            plain = {(x, 0): p for x, p in probs.items()}
            assert extractor_distance(ext, source) == ref_side_distance(
                ext.extract, ext.seed_bits, 2, plain
            )
            assert extractor_distance(ext, source, side=table) == ref_side_distance(
                ext.extract, ext.seed_bits, 2, dict(table.items())
            )

    def test_mass_short_of_one_is_measured_against_its_own_targets(self):
        # float probabilities summing to 1 - 2^-55, inside the accepted tolerance:
        # every cell's target, observed or not, is the mass the table holds
        probs = {BitString(1, 3): 0.1, BitString(2, 3): 0.2, BitString(6, 3): 0.7}
        source = FiniteDistribution(probs)
        assert sum(p for _, p in source.items()) == 1 - Fraction(1, 1 << 55)
        joint = {(x, 0): Fraction(p) for x, p in probs.items()}
        one_symbol = JointTable(3, joint)
        evaluators = ToeplitzExtractor(ToeplitzSpec(3, 2)), _odd_multiplier(3, 2), _trevisan(3, 2)
        for ext in evaluators:
            want = ref_side_distance(ext.extract, ext.seed_bits, 2, joint)
            assert extractor_distance(ext, source) == want
            assert extractor_distance(ext, source, side=one_symbol) == want

    # unit weights take bincount, small weights add.at, and weights over a
    # denominator near 2^57 the Python-integer (object) counts
    @pytest.mark.parametrize(
        "weight",
        [lambda x, s: 1, lambda x, s: (3 * x + 5 * s) % 7, lambda x, s: 10**15 + 7 * x + s],
        ids=["unit", "small", "object-dtype"],
    )
    def test_many_symbols_one_pass(self, weight):
        table = _many_symbol_table(4, 9, weight)
        joint = dict(table.items())
        if weight(1, 1) > 1 << 40:
            assert max(p.denominator for p in joint.values()) >= 1 << 56
        evaluators = ToeplitzExtractor(ToeplitzSpec(4, 2)), _odd_multiplier(4, 2), _trevisan(4, 2)
        for ext in evaluators:
            expect = ref_side_distance(ext.extract, ext.seed_bits, 2, joint)
            assert extractor_distance(ext, table.x_marginal(), side=table) == expect

    def test_many_symbols_dense_labels(self):
        # 4 seeds x 8 symbols x 2^12 outputs is more than 2^16 cells, so the
        # engine labels the observed cells instead of addressing them all
        m = 12
        ext = _FnExtractor(
            4, 2, m, lambda x, y: BitString(x.to_int() >> 1 | y.to_int() << 10, m)
        )
        table = _many_symbol_table(4, 8, lambda x, s: (x + 2 * s) % 5 + s)
        expect = ref_side_distance(ext.extract, 2, m, dict(table.items()))
        assert extractor_distance(ext, table.x_marginal(), side=table) == expect


def _many_symbol_table(n, symbols, weight):
    """Joint table Pr[x, s] proportional to weight(x, s)."""
    rows = {(BitString(x, n), s): weight(x, s) for x in range(1 << n) for s in range(symbols)}
    total = sum(rows.values())
    return JointTable(n, {key: Fraction(w, total) for key, w in rows.items() if w})


class TestInjectiveFraction:
    def test_injective_map_scores_one(self):
        src = FlatSource.from_ints(3, range(8))
        assert injective_fraction(lambda x, y: x + y, src, 2) == 1

    def test_images_wider_than_int64(self):
        src = FlatSource.from_ints(3, range(8))
        wide = lambda x, y: BitString((x.to_int() << 2 | y.to_int()) << 70, 80)
        seed_blind = lambda x, y: BitString(x.to_int() << 70 | 1, 80)
        assert injective_fraction(wide, src, 2) == 1
        assert injective_fraction(seed_blind, src, 2) == 0

    def test_constant_map_scores_zero(self):
        src = FlatSource.from_ints(3, range(8))
        assert injective_fraction(lambda x, y: BitString(0, 5), src, 2) == 0

    def test_budget(self):
        src = FlatSource.from_ints(3, range(8))
        with pytest.raises(BudgetExceededError):
            injective_fraction(lambda x, y: x + y, src, 2, budget=8)


class TestFlatDecomposition:
    @settings(max_examples=40)
    @given(small_dists)
    def test_reconstructs_distribution(self, dist):
        pieces = ref_flat_decomposition(dist)
        total = sum((w for w, _ in pieces), Fraction(0))
        assert total == 1
        rebuilt = {}
        for weight, outcomes in pieces:
            share = weight / len(outcomes)
            for o in outcomes:
                rebuilt[o] = rebuilt.get(o, Fraction(0)) + share
        assert FiniteDistribution(rebuilt) == dist


def _uniform_side_table(n, side_fn):
    p = Fraction(1, 1 << n)
    return JointTable(n, {(BitString(x, n), side_fn(x)): p for x in range(1 << n)})


_TIED = (2, 2, 2, 1, 1, 3, 3, 2)


def _large_denominator_table():
    """A 3-bit table on two symbols whose weights are over 3^45, past 2^64:
    no weight but the last is a multiple of 3, so no probability reduces."""
    weights = [3**k + 1 for k in range(28, 43)]
    weights.append(3**45 - sum(weights))
    return JointTable(
        3,
        {(BitString(i // 2, 3), i % 2): Fraction(w, 3**45) for i, w in enumerate(weights)},
    )


_CONVEXITY_TABLES = {
    **{
        f"sampled-n{n}-a{a}-seed{seed}": sample_joint_tables(n, a, [seed], seed=seed)[0]
        for n, a in ((4, 4), (3, 2), (5, 3), (2, 5))
        for seed in (1, 2)
    },
    "tied-weights": JointTable(
        3,
        {(BitString(x, 3), x % 2): Fraction(w, sum(_TIED)) for x, w in enumerate(_TIED)},
    ),
    "large-denominator": _large_denominator_table(),
    # the adversarial tables of ``verify lemmas``
    "independent-side": _uniform_side_table(3, lambda x: 0),
    "full-copy": _uniform_side_table(3, lambda x: x),
    "one-bit-leak": _uniform_side_table(3, lambda x: x & 1),
}


class TestMixtureConvexity:
    @pytest.mark.parametrize("table", _CONVEXITY_TABLES.values(), ids=list(_CONVEXITY_TABLES))
    def test_rhs_is_the_weighted_sum_over_flat_pieces(self, table):
        n = table.n
        m = max(1, min(2, n - 1)) if n > 1 else 1
        report = lemma_suite(table, max(1, n // 2))
        check = next(c for c in report.checks if c.name == "mixture_convexity")
        assert check.note == f"toeplitz probe n={n} m={m}"
        ext = ToeplitzExtractor(ToeplitzSpec(n, m))
        mixture = table.x_marginal()
        assert check.lhs == extractor_distance(ext, mixture)
        pieces = ref_flat_decomposition(mixture)
        assert check.rhs == sum(
            (w * extractor_distance(ext, FiniteDistribution.uniform(piece)) for w, piece in pieces),
            Fraction(0),
        )
        assert check.passed

    def test_tied_weights_skip_splitting_levels(self):
        mixture = _CONVEXITY_TABLES["tied-weights"].x_marginal()
        sizes = [len(piece) for _, piece in ref_flat_decomposition(mixture)]
        # weights 3, 3, 2, 2, 2, 2, 1, 1: levels end only where a weight drops
        assert sizes == [2, 6, 8]


def _probe_extractor(n):
    """The convexity probe's Toeplitz evaluator for an n-bit table."""
    return ToeplitzExtractor(ToeplitzSpec(n, max(1, min(2, n - 1))))


class TestConvexityProbe:
    @settings(max_examples=40, deadline=None)
    @given(weighted_side_tables())
    @example(_large_denominator_table())
    def test_matches_the_reference(self, table):
        n = table.n
        ext = _probe_extractor(n)
        t, m = ext.seed_bits, ext.output_bits
        check = lemma_suite(table, max(1, n // 2)).checks[3]
        mixture = {}
        for (x, _), p in table.items():
            mixture[x] = mixture.get(x, Fraction(0)) + p
        assert check.lhs == ref_side_distance(
            ext.extract, t, m, {(x, 0): p for x, p in mixture.items()}
        )
        # piece i: the top-i outcomes, each at w_i - w_(i+1); a level that
        # splits tied outcomes is empty, so the order among ties is free
        ordered = sorted(mixture.items(), key=lambda xp: -xp[1])
        probs = [p for _, p in ordered] + [Fraction(0)]
        pieces = {
            (x, i): probs[i - 1] - probs[i]
            for i in range(1, len(ordered) + 1)
            if probs[i - 1] != probs[i]
            for x, _ in ordered[:i]
        }
        assert check.rhs == ref_side_distance(ext.extract, t, m, pieces)

    @pytest.mark.parametrize("table", _CONVEXITY_TABLES.values(), ids=list(_CONVEXITY_TABLES))
    def test_one_engine_count_per_table(self, table, monkeypatch):
        calls = []
        engine = oracle._distances

        def counted(*args):
            calls.append(args)
            return engine(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("extractor_distance called inside lemma_suite")

        monkeypatch.setattr(oracle, "_distances", counted)
        monkeypatch.setattr(oracle, "extractor_distance", forbidden)
        lemma_suite(table, max(1, table.n // 2))
        assert len(calls) == 1 and len(calls[0][1]) == 1  # one call of one chunk

    @pytest.mark.parametrize("table", _CONVEXITY_TABLES.values(), ids=list(_CONVEXITY_TABLES))
    def test_budget_is_the_support_times_the_seed_patterns(self, table):
        support = len({x for (x, _), _ in table.items()})
        pairs = support << _probe_extractor(table.n).seed_bits
        prefix_bits = max(1, table.n // 2)
        message = (
            f"extractor distance enumeration needs {pairs} items, "
            f"exceeding the budget of {pairs - 1}"
        )
        with pytest.raises(BudgetExceededError) as caught:
            lemma_suite(table, prefix_bits, budget=pairs - 1)
        assert str(caught.value) == message
        assert lemma_suite(table, prefix_bits, budget=pairs).all_passed


class TestLemmaSuite:
    def test_independent_side_info(self):
        table = _uniform_side_table(4, lambda x: 0)
        report = lemma_suite(table, 2)
        assert report.all_passed

    def test_full_copy_tight_for_storage(self):
        table = _uniform_side_table(3, lambda x: x)
        report = lemma_suite(table, 1)
        assert report.all_passed
        storage = next(c for c in report.checks if c.name == "storage_bound")
        # full copy achieves equality: guessing succeeds with probability 1
        assert storage.lhs == storage.rhs == 1

    def test_one_bit_leak(self):
        table = _uniform_side_table(4, lambda x: x & 1)
        assert lemma_suite(table, 2).all_passed

    def test_random_tables(self):
        for i in range(30):
            table = sample_joint_tables(4, 3, [i], seed=11)[0]
            report = lemma_suite(table, 2)
            assert report.all_passed, report.to_json_dict()

    def test_report_shape(self):
        report = lemma_suite(_uniform_side_table(3, lambda x: x >> 2), 1)
        names = [c.name for c in report.checks]
        assert names == [
            "storage_bound",
            "suffix_cut",
            "bad_prefix_mass",
            "mixture_convexity",
        ]
        data = report.to_json_dict()
        assert data["allPassed"] is True
        assert all({"name", "lhs", "rhs", "slack", "passed"} <= set(c) for c in data["checks"])

    @pytest.mark.parametrize("table", _CONVEXITY_TABLES.values(), ids=list(_CONVEXITY_TABLES))
    def test_first_three_checks_match_the_reference(self, table):
        _assert_checks_match_the_reference(table)

    @settings(max_examples=40, deadline=None)
    @given(weighted_side_tables())
    def test_weighted_tables_match_the_reference(self, table):
        _assert_checks_match_the_reference(table)

    def test_bad_prefix_tie_keeps_the_larger_threshold(self):
        # thresholds 1 and 1/2 both give lhs 1/2; the scan reports the first, v = 1
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        probs = {BitString(0, 2): half, BitString(1, 2): quarter, BitString(3, 2): quarter}
        table = JointTable(2, {(x, 0): p for x, p in probs.items()})
        check = lemma_suite(table, 1).checks[2]
        assert (check.lhs, check.note) == (half, "tightest threshold v=1")
        _assert_checks_match_the_reference(table)

    def test_zero_bit_table_rejected(self):
        with pytest.raises(ValueError, match="0-bit table"):
            lemma_suite(sample_joint_tables(0, 3, [0])[0], 0)

    @pytest.mark.parametrize("prefix_bits", [-1, 5])
    def test_prefix_outside_the_source_rejected(self, prefix_bits):
        tables = [sample_joint_tables(4, 2, [0])[0], sample_joint_tables(4, 2, [1])[0]]
        with pytest.raises(ValueError, match=rf"^prefix length {prefix_bits} outside \[0, 4\]$"):
            next(lemma_suites(tables, [2, prefix_bits]))

    def test_one_batch_gives_each_table_its_own_report(self):
        # tables of 1 to 5 bits, one to eight symbols and weights past int64,
        # stacked at their own prefix lengths in one batch
        tables = [*_CONVEXITY_TABLES.values(), _uniform_side_table(1, lambda x: x)]
        prefixes = [i % (table.n + 1) for i, table in enumerate(tables)]
        batch = list(lemma_suites(tables, prefixes))
        assert batch == [lemma_suite(table, p) for table, p in zip(tables, prefixes)]
        for table, prefix_bits, report in zip(tables, prefixes, batch):
            got = [(c.name, c.lhs, c.rhs, c.note) for c in report.checks[:3]]
            assert got == ref_lemma_checks(table, prefix_bits)


def _assert_checks_match_the_reference(table):
    for prefix_bits in range(table.n + 1):
        checks = lemma_suite(table, prefix_bits).checks[:3]
        got = [(c.name, c.lhs, c.rhs, c.note) for c in checks]
        assert got == ref_lemma_checks(table, prefix_bits), prefix_bits


def _lemma_battery():
    """(table, prefix length) pairs: sampled tables at n <= 6 and uniform
    tables under identity, constant, low-bit and shift side maps, each at
    every prefix length."""
    tables = [
        sample_joint_tables(n, a, [seed], seed=seed)[0]
        for n in range(1, 7)
        for a in (1, 2, 4)
        for seed in (1, 2)
    ]
    side_maps = (lambda x: x, lambda x: 0, lambda x: x & 1, lambda x: x >> 1)
    tables += [_uniform_side_table(n, side) for n in range(1, 6) for side in side_maps]
    return [(table, prefix_bits) for table in tables for prefix_bits in range(table.n + 1)]


def test_lemma_reports_digest_pinned():
    # Any change in a lemma report's numbers, notes or verdicts moves this digest.
    digest = hashlib.sha256()
    for table, prefix_bits in _lemma_battery():
        report = lemma_suite(table, prefix_bits).to_json_dict()
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "e2b75513eec4b028b5cc18dd538a3b7687440e404b1c9d193072a06445c77715"
    )


class TestSampling:
    def test_flat_sources_deterministic_and_distinct(self):
        a = sample_flat_sources(6, 3, 5, seed=9)
        b = sample_flat_sources(6, 3, 5, seed=9)
        assert a == b
        assert len({s.support for s in a}) == 5
        for s in a:
            assert len(s.support) == 8

    # n = 70: past 64 bits the sources are drawn one stream at a time
    @pytest.mark.parametrize("n, k, seed", [(6, 3, 9), (12, 9, 21), (10, 10, 2), (70, 3, 4)])
    def test_flat_sources_are_the_scalar_draws(self, n, k, seed):
        for index, source in enumerate(sample_flat_sources(n, k, 3, seed=seed)):
            rng = CounterRng(oracle._SOURCE_STREAM_KEY, seed, n, k, index)
            expected = ref_sample_distinct(rng, 1 << k, 1 << n)
            assert tuple(x.to_int() for x in source.support) == expected

    @pytest.mark.parametrize("n, a, seed, index", [(4, 4, 1, 0), (3, 2, 5, 7), (0, 3, 2, 1)])
    def test_joint_table_weights_are_the_scalar_draws(self, n, a, seed, index):
        rng = CounterRng(oracle._TABLE_STREAM_KEY, seed, n, a, index)
        weights = {(x, s): rng.below(1 << 16) for x in range(1 << n) for s in range(a)}
        total = sum(weights.values())
        expected = [((BitString(x, n), s), Fraction(w, total)) for (x, s), w in weights.items() if w]
        assert sample_joint_tables(n, a, [index], seed=seed)[0].items() == expected

    @pytest.mark.parametrize("n, a, seed", [(4, 4, 1), (3, 2, 5), (0, 3, 2), (0, 1, 1)])
    def test_joint_table_batch_is_the_one_table_draws(self, n, a, seed):
        # index 86475 of (0, 1, seed 1) draws a zero word: the single row (0, 0)
        indices = [0, 7, 86475, 3, 7]
        for index, table in zip(indices, sample_joint_tables(n, a, indices, seed=seed)):
            assert table.items() == sample_joint_tables(n, a, [index], seed=seed)[0].items()

    def test_sampled_table_holds_the_rows_as_the_constructor_does(self):
        # index 132397 of (1, 2, seed 1) draws 0 for (x, s) = (0, 0), so
        # symbol 1 is seen first
        table = sample_joint_tables(1, 2, [132397], seed=1)[0]
        built = JointTable(1, dict(table.items()))
        assert table._symbols == built._symbols == (1, 0)
        for name in ("_xs", "_symbol_ids", "_weights"):
            got, want = getattr(table, name), getattr(built, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_all_zero_draw_is_the_single_row_zero(self):
        rng = CounterRng(oracle._TABLE_STREAM_KEY, 1, 0, 1, 86475)
        assert rng.below(1 << 16) == 0
        table = sample_joint_tables(0, 1, [86475], seed=1)[0]
        assert table.items() == [((BitString(0, 0), 0), Fraction(1))]
        assert sample_joint_tables(0, 1, [5, 86475], seed=1)[1].items() == table.items()

    @pytest.mark.parametrize(
        "draw, name",
        [
            (lambda: sample_joint_tables(3, 0, [0]), "alphabet_size"),
            (lambda: sample_joint_tables(2, -1, []), "alphabet_size"),
            (lambda: sample_joint_tables(-1, 2, []), "n"),
            (lambda: sample_joint_tables(-1, 2, [0]), "n"),
            (lambda: sample_flat_sources(4, -1, 2), "k"),
            (lambda: sample_flat_sources(-1, -2, 2), "n"),
            (lambda: sample_flat_sources(4, 2, -1), "count"),
            (lambda: sample_flat_sources(70, 2, -1), "count"),
            (lambda: sample_joint_tables(3, 2, [0, -1]), "indices"),
            (lambda: sample_joint_tables(3, 2, np.array([3, -2])), "indices"),
        ],
    )
    def test_sampler_arguments_checked(self, draw, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            draw()

    def test_flat_source_validation(self):
        with pytest.raises(ValueError):
            FlatSource.from_ints(3, [1, 2, 3])  # size not a power of two
        with pytest.raises(ValueError):
            FlatSource.from_ints(3, [1, 1])
        for values in ([0, 8], [-1, 2]):  # outside 3 bits
            with pytest.raises(ValueError, match="outside"):
                FlatSource.from_ints(3, values)
        with pytest.raises(TypeError):
            FlatSource.from_ints(3, [1.0, 2.0])

    def test_flat_source_holds_ints_in_draw_order(self):
        source = FlatSource.from_ints(4, (9, 2, 15, 0))
        assert source.values == (9, 2, 15, 0)
        assert source.support == tuple(BitString(v, 4) for v in (9, 2, 15, 0))
        again = FlatSource(4, (9, 2, 15, 0))
        assert source == again and hash(source) == hash(again)
        assert source != FlatSource(4, (2, 9, 15, 0)) and source != FlatSource(5, source.values)


class TestJointTableArrays:
    def test_x_values_past_64_bits(self):
        rows = {
            (2**69 + 5, "a"): Fraction(1, 3),
            (3, "b"): Fraction(1, 6),
            (2**64, "a"): Fraction(1, 8),
            (2**69 + 5, "b"): Fraction(1, 8),
            (2**70 - 1, "c"): Fraction(1, 4),
        }
        probs = {(BitString(x, 70), s): p for (x, s), p in rows.items()}
        table = JointTable(70, probs)
        assert table._xs.dtype == object
        assert table.items() == list(probs.items())
        marginal, best = {}, {}
        for (x, s), p in probs.items():
            marginal[x] = marginal.get(x, 0) + p
            best[s] = max(best.get(s, 0), p)
        assert table.x_marginal().items() == list(marginal.items())
        assert table.guessing_probability() == sum(best.values())

    def test_weights_past_int64_are_python_ints(self):
        table = _CONVEXITY_TABLES["large-denominator"]
        assert table._weights.dtype == object and table._total == 3**45
        assert sum(p for _, p in table.items()) == 1
        # each weight fits 64 bits, their sum 3 * 2^62 does not fit int64
        total = 3 << 62
        probs = {(BitString(0, 1), 0): Fraction((1 << 62) + 1, total),
                 (BitString(0, 1), 1): Fraction((1 << 63) - 1, total)}
        table = JointTable(1, probs)
        assert table._weights.dtype == object and table._total == total
        assert table.x_marginal().items() == [(BitString(0, 1), Fraction(1))]
        assert table.guessing_probability() == 1

    def test_side_table_footprint(self):
        # verify_side's Trevisan side table: 4 pieces of 2^7 values at n = 24.
        # The sizes of the table's own row stores, not a process-wide figure,
        # so a tracer in the same process does not count; its 512 rows as
        # int64 arrays or as Python lists would hold ~12 KB
        pieces = sample_flat_sources(24, 7, 4, seed=1)
        weight = Fraction(1, 4 << 7)
        probs = {(x, s): weight for s, piece in enumerate(pieces) for x in piece.support}
        table = JointTable(24, probs)
        stores = (table._xs, table._symbol_ids, table._weights, table._symbols)
        assert len(table.items()) == 512
        assert sum(map(sys.getsizeof, stores)) <= 6 << 10


class TestEntryChecks:
    """The argument checks at the oracle's entry points."""

    def test_extractor_distance_rejects_other_source_types(self):
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        for source in ([BitString(0, 3)], {BitString(0, 3): 1}, None):
            with pytest.raises(TypeError, match=f"^unsupported source type "
                               f"{type(source).__name__}$"):
                extractor_distance(ext, source)

    def test_extractor_distance_wants_bitstring_outcomes(self):
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        # a zero-weight outcome of another type is rejected too
        for probs in ({0: Fraction(1, 2), 1: Fraction(1, 2)},
                      {BitString(0, 3): 1, "x": 0}):
            with pytest.raises(TypeError, match="^source outcomes must be BitString values$"):
                extractor_distance(ext, FiniteDistribution(probs))

    def test_extractor_distance_checks_the_source_length(self):
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        short = FiniteDistribution.uniform([BitString(0, 2), BitString(1, 2)])
        with pytest.raises(ValueError, match="^source element of length 2, extractor wants 3$"):
            extractor_distance(ext, short)
        # an outcome of weight 0 is not part of the source
        padded = FiniteDistribution({BitString(0, 3): 1, BitString(1, 2): 0})
        assert extractor_distance(ext, padded) == extractor_distance(
            ext, FiniteDistribution.uniform([BitString(0, 3)]))
        # a flat source given with a side table, checked before the table
        source = FlatSource.from_ints(4, (1, 6))
        table = JointTable(4, {(x, 0): Fraction(1, 2) for x in source.support})
        with pytest.raises(ValueError, match="^source element of length 4, extractor wants 3$"):
            extractor_distance(ext, source, side=table)

    def test_outputs_past_62_bits_are_read_per_pair(self):
        # 63 copies of the code bit x z, z seed bit 0, of one 1-bit source:
        # its int64 table would raise, so each (x, seed) pair is extracted.
        # Seeds with z = 0 put both values on one output and the others on
        # two, so the distance is 1 - (2^-63 + 2 2^-63) / 2.
        design = Design(2, 2, "standard", ((0, 1),) * 63, 2)
        ext = TrevisanExtractor(custom_spec(1, design, Fraction(1, 2)))
        source = FlatSource.from_ints(1, (0, 1))
        assert extractor_distance(ext, source) == 1 - Fraction(3, 1 << 64)
        uniform = FiniteDistribution.uniform(source.support)
        assert extractor_distance(ext, uniform) == 1 - Fraction(3, 1 << 64)

    def test_extractor_distances_checks_every_source(self):
        ext = ToeplitzExtractor(ToeplitzSpec(3, 1))
        good = FlatSource.from_ints(3, (1, 6))
        with pytest.raises(TypeError, match="^unsupported source type FiniteDistribution$"):
            extractor_distances(ext, [good, FiniteDistribution.uniform(good.support)])
        with pytest.raises(ValueError, match="^source of 4 bits, extractor wants 3$"):
            extractor_distances(ext, [good, FlatSource.from_ints(4, (1, 6))])

    def test_joint_table_checks_its_keys_and_weights(self):
        for key in ((BitString(1, 2), 0), (1, 0), ("001", 0)):
            with pytest.raises(ValueError, match="is not an 3-bit string$"):
                JointTable(3, {key: Fraction(1)})
        negative = {(BitString(0, 3), 0): Fraction(3, 2), (BitString(1, 3), 0): Fraction(-1, 2)}
        with pytest.raises(ValueError, match="^negative probability$"):
            JointTable(3, negative)
        with pytest.raises(ValueError, match="^joint probabilities sum to 1/2, not 1$"):
            JointTable(3, {(BitString(0, 3), 0): Fraction(1, 2)})

    def test_finite_distribution_checks_its_probabilities(self):
        with pytest.raises(TypeError, match="^probability of type str not supported$"):
            FiniteDistribution({"a": "1/2", "b": Fraction(1, 2)})
        with pytest.raises(ValueError, match="^negative probability -1/2 for outcome 'b'$"):
            FiniteDistribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
        with pytest.raises(ValueError, match="^probabilities sum to 3/4, not 1$"):
            FiniteDistribution({"a": Fraction(1, 2), "b": Fraction(1, 4)})
        with pytest.raises(ValueError, match="^uniform distribution needs a nonempty domain$"):
            FiniteDistribution.uniform([])
        with pytest.raises(ValueError, match="^repeated outcomes$"):
            FiniteDistribution.uniform(["a", "b", "a"])

    def test_flat_source_needs_a_support(self):
        with pytest.raises(ValueError, match="^empty support$"):
            FlatSource(3, ())

    def test_flat_sources_fit_their_width(self):
        with pytest.raises(ValueError, match=r"^cannot place 2\^3 distinct values in 2 bits$"):
            sample_flat_sources(2, 3, 1)

    def test_kappa_is_a_nonnegative_integer(self):
        counts = np.array([4, 3, 1])
        with pytest.raises(ValueError, match="^kappa must be >= 0, got -1$"):
            distance_to_min_entropy(counts, -1)
        expect = distance_to_min_entropy(counts, 2)
        assert distance_to_min_entropy(counts, Fraction(2)) == expect
        assert distance_to_min_entropy(counts, 2.0) == expect
        with pytest.raises(ValueError, match="kappa must be an integer"):
            distance_to_min_entropy(counts, Fraction(3, 2))


class TestInputChecks:
    def test_flat_source_width_is_nonnegative(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            FlatSource(-1, (0,))
        assert FlatSource(0, (0,)).support == (BitString(0, 0),)

    @pytest.mark.parametrize("counts", [np.array([], dtype=np.int64), np.zeros(3, np.uint8)])
    def test_counts_without_pairs_are_rejected(self, counts):
        with pytest.raises(ValueError, match="^counts must have a positive sum$"):
            distance_to_min_entropy(counts, 1)
        with pytest.raises(ValueError, match="^counts must have a positive sum$"):
            oracle.unique_fraction(counts)


def test_bad_prefix_check_reports_the_first_violated_threshold():
    # prefixes (sum_s max_x2 weight, mass) over N = 8: v = 3/4 on mass 4 and
    # v = 1/2 on mass 4, so v M(v) / N is 3/8 at v = 3/4 and 1/2 at v = 1/2;
    # an rhs of 3/8 holds at the first threshold and fails at the second
    prefixes = [(3, 4), (2, 4)]
    check = oracle._bad_prefix_check(prefixes, 3, 8)
    assert (check.lhs, check.rhs, check.note) == (Fraction(1, 2), Fraction(3, 8),
                                                  "violated at v=1/2")
    assert not check.passed and check.slack == Fraction(-1, 8)
    # at an rhs of 1/2 both hold, and v = 1/2, the larger lhs, is reported
    check = oracle._bad_prefix_check(prefixes, 4, 8)
    assert (check.lhs, check.note, check.passed) == (Fraction(1, 2), "tightest threshold v=1/2",
                                                     True)
    # below the tightest threshold the first one already fails
    check = oracle._bad_prefix_check(prefixes, 2, 8)
    assert (check.lhs, check.rhs, check.note) == (Fraction(3, 8), Fraction(1, 4),
                                                  "violated at v=3/4")
    report = LemmaSuiteReport((check,))
    assert report.to_json_dict()["allPassed"] is False
