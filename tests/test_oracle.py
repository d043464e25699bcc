from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from extractorforge import oracle
from extractorforge.bits import BitString
from extractorforge.detrand import CounterRng
from extractorforge.errors import BudgetExceededError
from extractorforge.oracle import (
    FiniteDistribution,
    FlatSource,
    JointTable,
    cond_min_entropy_classical,
    distance_to_min_entropy,
    extractor_distance,
    flat_decomposition,
    injective_fraction,
    lemma_suite,
    min_entropy,
    sample_flat_sources,
    sample_joint_table,
    stat_distance,
)
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec

from helpers import (
    grid_min_distance_to_capped,
    ref_joint_seed_output_distance,
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
        b = FiniteDistribution.point_mass("00")
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
        before = stat_distance(a, b)
        after = stat_distance(a.map(lambda o: o % 2), b.map(lambda o: o % 2))
        assert after <= before


class TestMinEntropy:
    def test_uniform(self):
        assert min_entropy(_uniform(8)) == 3

    def test_point_mass(self):
        assert min_entropy(FiniteDistribution.point_mass("x")) == 0

    def test_half_quarter_quarter(self):
        d = FiniteDistribution({0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
        assert min_entropy(d) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_entropy(FiniteDistribution({}))


class TestCondMinEntropy:
    def test_independent_side_info(self):
        n = 2
        probs = {}
        for x in range(4):
            for s in range(2):
                probs[(BitString(x, n), s)] = Fraction(1, 8)
        table = JointTable(n, probs)
        assert cond_min_entropy_classical(table) == min_entropy(table.x_marginal())

    def test_full_copy(self):
        n = 2
        table = JointTable(
            n, {(BitString(x, n), x): Fraction(1, 4) for x in range(4)}
        )
        assert cond_min_entropy_classical(table) == 0

    def test_first_bit_leak(self):
        n = 2
        table = JointTable(
            n, {(BitString(x, n), x & 1): Fraction(1, 4) for x in range(4)}
        )
        assert table.guessing_probability() == Fraction(1, 2)
        assert cond_min_entropy_classical(table) == 1

    def test_side_info_never_hurts_adversary(self):
        for i in range(25):
            table = sample_joint_table(3, 3, seed=7, index=i)
            assert table.guessing_probability() >= table.x_marginal().max_prob


class TestDistanceToMinEntropy:
    def test_uniform_already_capped(self):
        assert distance_to_min_entropy(_uniform(8), 3) == 0

    def test_point_mass_kappa_one(self):
        assert distance_to_min_entropy(FiniteDistribution.point_mass(0), 1) == Fraction(1, 2)

    def test_matches_grid_search_tiny(self):
        probs = [Fraction(5, 8), Fraction(2, 8), Fraction(1, 8)]
        d = FiniteDistribution({i: p for i, p in enumerate(probs)})
        got = distance_to_min_entropy(d, 1)
        best = grid_min_distance_to_capped(probs, 1, steps=8)
        assert got == best

    @pytest.mark.parametrize("weights", [(2, 2, 1), (3, 1, 1)])
    def test_non_dyadic_weights_near_the_cap(self, weights):
        probs = [Fraction(w, 5) for w in weights]
        d = FiniteDistribution(dict(enumerate(probs)))
        assert distance_to_min_entropy(d, 1) == grid_min_distance_to_capped(probs, 1, steps=10)

    def test_monotone_in_kappa(self):
        d = FiniteDistribution({0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)})
        values = [distance_to_min_entropy(d, k) for k in range(5)]
        assert values == sorted(values)

    def test_non_integer_kappa_rejected(self):
        with pytest.raises(ValueError):
            distance_to_min_entropy(_uniform(4), 1.5)


class _FnExtractor:
    """Wrap a plain function as an extractor adapter for oracle tests."""

    def __init__(self, n, t, m, fn):
        self.input_bits, self.seed_bits, self.output_bits = n, t, m
        self._fn = fn

    def extract(self, x, y):
        return self._fn(x, y)


class TestExtractorDistance:
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
        for ext in (ToeplitzExtractor(ToeplitzSpec(n, m)), _odd_multiplier(n, m)):
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
        for ext in (ToeplitzExtractor(ToeplitzSpec(3, 2)), _odd_multiplier(3, 2)):
            plain = {(x, 0): p for x, p in probs.items()}
            assert extractor_distance(ext, source) == ref_side_distance(
                ext.extract, ext.seed_bits, 2, plain
            )
            assert extractor_distance(ext, source, side=table) == ref_side_distance(
                ext.extract, ext.seed_bits, 2, dict(table.items())
            )

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
        for ext in (ToeplitzExtractor(ToeplitzSpec(4, 2)), _odd_multiplier(4, 2)):
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
        pieces = flat_decomposition(dist)
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

_CONVEXITY_TABLES = {
    **{
        f"sampled-n{n}-a{a}-seed{seed}": sample_joint_table(n, a, seed=seed, index=seed)
        for n, a in ((4, 4), (3, 2), (5, 3), (2, 5))
        for seed in (1, 2)
    },
    "tied-weights": JointTable(
        3,
        {(BitString(x, 3), x % 2): Fraction(w, sum(_TIED)) for x, w in enumerate(_TIED)},
    ),
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
        pieces = flat_decomposition(mixture)
        assert check.rhs == sum(
            (w * extractor_distance(ext, FiniteDistribution.uniform(piece)) for w, piece in pieces),
            Fraction(0),
        )
        assert check.passed

    def test_tied_weights_skip_splitting_levels(self):
        mixture = _CONVEXITY_TABLES["tied-weights"].x_marginal()
        sizes = [len(piece) for _, piece in flat_decomposition(mixture)]
        # weights 3, 3, 2, 2, 2, 2, 1, 1: levels end only where a weight drops
        assert sizes == [2, 6, 8]


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
            table = sample_joint_table(4, 3, seed=11, index=i)
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


class TestSampling:
    def test_flat_sources_deterministic_and_distinct(self):
        a = sample_flat_sources(6, 3, 5, seed=9)
        b = sample_flat_sources(6, 3, 5, seed=9)
        assert a == b
        assert len({s.support for s in a}) == 5
        for s in a:
            assert len(s.support) == 8
            assert s.entropy_bits == 3

    @pytest.mark.parametrize("n, k, seed", [(6, 3, 9), (12, 9, 21), (10, 10, 2)])
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
        assert sample_joint_table(n, a, seed=seed, index=index).items() == expected

    def test_flat_source_validation(self):
        with pytest.raises(ValueError):
            FlatSource.from_ints(3, [1, 2, 3])  # size not a power of two
        with pytest.raises(ValueError):
            FlatSource.from_ints(3, [1, 1])
