"""The oracle's spectral path: cell weights from the source's Walsh-Hadamard
spectrum and the extractor's linear rows, against the table path, the
per-pair path and the independent reference; and flat sources counted in
one batch, each source a symbol."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extractorforge.bits import BitString
from extractorforge.designs import Design
from extractorforge.detrand import CounterRng
from extractorforge import oracle
from extractorforge.errors import BudgetExceededError
from extractorforge.oracle import (
    FiniteDistribution,
    JointTable,
    _walsh_hadamard,
    extractor_distance,
    extractor_distances,
    sample_flat_sources,
)
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec
from extractorforge.trevisan import TrevisanExtractor, build_trevisan, custom_spec

from helpers import (
    ref_joint_seed_output_distance,
    ref_matrix_vector,
    ref_side_distance,
    ref_toeplitz_matrix,
    ref_trevisan_extract,
)


class _TableOnly:
    """The extractor without its linear rows: the oracle counts the pairs of
    its output table."""

    def __init__(self, ext):
        self.input_bits, self.seed_bits = ext.input_bits, ext.seed_bits
        self.output_bits, self.extract = ext.output_bits, ext.extract
        if hasattr(ext, "seed_support"):  # Toeplitz declares none: it reads every seed bit
            self.seed_support = ext.seed_support
        self.prepare_batch, self.extract_table = ext.prepare_batch, ext.extract_table


class _ExtractOnly(_TableOnly):
    """The extractor with extract alone: one call per (x, seed pattern)."""

    def __init__(self, ext):
        super().__init__(ext)
        del self.prepare_batch, self.extract_table


def _spied(ext):
    """``ext`` with linear_rows counting its calls."""
    calls = []
    rows = ext.linear_rows

    def spy(patterns):
        calls.append(len(patterns))
        return rows(patterns)

    ext.linear_rows = spy
    return ext, calls


def _side_table(n, symbols, seed, strings=10):
    """A joint table over seeded strings and ``symbols`` symbols with
    weights in [0, 5], some (x, s) rows absent, and symbols of unequal
    weight."""
    rng = CounterRng(0x5EC7, n, symbols, seed)
    xs = rng.sample_distinct(min(strings, 1 << n), 1 << n)
    rows = {(x, s): rng.below(6) * (s + 1) for x in xs for s in range(symbols)}
    for x in xs:  # every string keeps some weight
        rows[x, 0] += 1
    total = sum(rows.values())
    return JointTable(
        n, {(BitString(x, n), s): Fraction(w, total) for (x, s), w in rows.items() if w}
    )


def _all_paths(ext, table, reference):
    """The distance of ``table`` by every path, the spectral one forced, and
    by the reference; each must agree."""
    source = table.x_marginal()
    spied, calls = _spied(ext)
    got = extractor_distance(spied, source, side=table)
    assert calls, "the spectral path was not taken"
    assert got == extractor_distance(_TableOnly(ext), source, side=table)
    assert got == extractor_distance(_ExtractOnly(ext), source, side=table)
    assert got == ref_side_distance(reference, ext.seed_bits, ext.output_bits, dict(table.items()))
    return got


def test_walsh_hadamard_is_the_definition():
    rng = np.random.default_rng(7)
    a = rng.integers(-50, 50, size=(3, 8, 2)).astype(np.int64)
    expect = np.zeros_like(a)
    for v, x in itertools.product(range(8), repeat=2):
        expect[:, v] += (-1) ** bin(v & x).count("1") * a[:, x]
    assert (_walsh_hadamard(a.copy()) == expect).all()


@pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (6, 2), (9, 4), (40, 9), (62, 1)])
def test_toeplitz_rows_give_every_output_bit(n, m):
    spec = ToeplitzSpec(n, m)
    ext = ToeplitzExtractor(spec)
    seeds = [0, 1, (1 << spec.seed_bits) - 1, 0x123456789ABCDEF % (1 << spec.seed_bits)]
    rows = ext.linear_rows(np.array(seeds, dtype=np.int64))
    assert rows.shape == (m, len(seeds))
    for x in sorted({0, 1, (1 << n) - 1, 0x5A5A5A5A5A5A5A5A % (1 << n)}):
        for col, seed in enumerate(seeds):
            matrix = ref_toeplitz_matrix([(seed >> i) & 1 for i in range(spec.seed_bits)], n, m)
            expect = ref_matrix_vector(matrix, [(x >> j) & 1 for j in range(n)])
            assert [(int(r) & x).bit_count() & 1 for r in rows[:, col]] == expect


def _custom_trevisan(n, m, t, seed):
    """A width-2 code under m seeded 4-subsets of a t-point universe, so
    sets overlap at random positions."""
    rng = CounterRng(0xDE5, n, m, t, seed)
    sets = tuple(tuple(sorted(rng.sample_distinct(4, t))) for _ in range(m))
    design = Design(t, 4, "standard", sets, Fraction(4))
    return custom_spec(n, design, Fraction(1, 4))


_CUSTOM = [(n, m, t, seed) for m in (1, 2, 3) for n, t, seed in ((5, 6, 1), (6, 7, 2), (8, 8, 3))]


@pytest.mark.parametrize("n, m, t, seed", _CUSTOM)
def test_trevisan_rows_give_every_output_bit(n, m, t, seed):
    spec = _custom_trevisan(n, m, t, seed)
    ext = TrevisanExtractor(spec)
    support = ext.seed_support
    patterns = np.arange(1 << len(support), dtype=np.int64)
    rows = ext.linear_rows(patterns)
    for x in range(1 << n):
        for p in patterns.tolist():
            y = sum(((p >> k) & 1) << pos for k, pos in enumerate(support))
            out = ref_trevisan_extract(spec, x, y)
            assert [(int(r) & x).bit_count() & 1 for r in rows[:, p]] == [
                (out >> i) & 1 for i in range(m)
            ]


@pytest.mark.parametrize("n, m, t, seed", _CUSTOM)
@pytest.mark.parametrize("symbols", [1, 3])
def test_custom_trevisan_paths_agree(n, m, t, seed, symbols, spectral_always):
    spec = _custom_trevisan(n, m, t, seed)
    reference = lambda x, y: BitString(ref_trevisan_extract(spec, x.to_int(), y.to_int()), m)
    _all_paths(TrevisanExtractor(spec), _side_table(n, symbols, seed), reference)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("symbols", [1, 2, 4])
def test_toeplitz_paths_agree_up_to_m_equal_n(n, symbols, spectral_always):
    for m in range(1, n + 1):
        ext = ToeplitzExtractor(ToeplitzSpec(n, m))
        _all_paths(ext, _side_table(n, symbols, seed=n * m), ext.extract)


def test_chosen_path_agrees_on_the_benchmark_toeplitz_checks():
    # verify_flat's ToeplitzSpec(10, 2) on a flat source of 2^6 strings and
    # verify_side's ToeplitzSpec(7, 3) with four flat pieces: both spectral
    for spec, k, symbols in ((ToeplitzSpec(10, 2), 6, 1), (ToeplitzSpec(7, 3), 6, 4)):
        ext, calls = _spied(ToeplitzExtractor(spec))
        pieces = sample_flat_sources(spec.input_bits, k, symbols, seed=11)
        weight = Fraction(1, symbols << k)
        table = JointTable(
            spec.input_bits,
            {(x, s): weight for s, piece in enumerate(pieces) for x in piece.support},
        )
        source = table.x_marginal()
        got = extractor_distance(ext, source, side=table)
        assert calls
        assert got == extractor_distance(_TableOnly(ext), source, side=table)


@pytest.mark.parametrize("bits, spectral", [(59, True), (60, False)])
@pytest.mark.parametrize("make", ["toeplitz", "trevisan"])
def test_int64_bound(bits, spectral, make, spectral_always):
    # m = 2: the path is taken while 2^m times the total weight, here
    # 2^(bits + 2), is below 2^62, and block sums past int64 are exact
    if make == "toeplitz":
        ext = ToeplitzExtractor(ToeplitzSpec(6, 2))
        reference = ext.extract
    else:
        spec = _custom_trevisan(6, 2, 7, 2)
        ext = TrevisanExtractor(spec)
        reference = lambda x, y: BitString(ref_trevisan_extract(spec, x.to_int(), y.to_int()), 2)
    d = 1 << bits
    probs = {BitString(1, 6): Fraction(d // 3, d), BitString(22, 6): Fraction(d // 7, d)}
    probs[BitString(45, 6)] = 1 - sum(probs.values())
    spied, calls = _spied(ext)
    got = extractor_distance(spied, FiniteDistribution(probs))
    assert bool(calls) == spectral
    joint = {(x, 0): p for x, p in probs.items()}
    assert got == ref_side_distance(reference, ext.seed_bits, 2, joint)


def test_wide_codes_decline_and_are_counted_by_pairs(spectral_always):
    # w = 9: 2^18 codeword positions, more masks than linear_rows tabulates
    spec = build_trevisan("thm42", 6, 1, Fraction(1, 256))
    assert spec.code.field_width == 9
    ext = TrevisanExtractor(spec)
    assert ext.linear_rows(np.arange(4, dtype=np.int64)) is None
    source = sample_flat_sources(6, 0, 1, seed=2)[0]
    got = extractor_distance(ext, source)
    assert got == extractor_distance(_TableOnly(ext), source)


def test_side_transforms_past_the_entry_limit_decline(spectral_always):
    # verify_side's thm42(24, 1) with its 4-symbol side table: 4 x 2^24
    # transform entries would take 512 MB, so the pairs are counted, in a
    # few MB of scratch
    ext, calls = _spied(TrevisanExtractor(build_trevisan("thm42", 24, 1, Fraction(1, 4))))
    pieces = sample_flat_sources(24, 7, 4, seed=5)
    weight = Fraction(1, 4 << 7)
    table = JointTable(24, {(x, s): weight for s, p in enumerate(pieces) for x in p.support})
    source = table.x_marginal()
    tracemalloc.start()
    try:
        got = extractor_distance(ext, source, side=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < 4 << 20
    assert got == extractor_distance(_TableOnly(ext), source, side=table)


def _batch_cases():
    """(extractor, reference extract) pairs: Toeplitz, and custom Trevisan
    specs whose seeded sets overlap."""
    toeplitz = ToeplitzExtractor(ToeplitzSpec(6, 2))
    yield toeplitz, toeplitz.extract
    for n, m, t, seed in ((6, 2, 7, 2), (5, 3, 6, 1), (8, 3, 8, 3)):
        spec = _custom_trevisan(n, m, t, seed)
        assert len({p for s in spec.design.sets for p in s}) < 4 * m  # the sets overlap
        yield TrevisanExtractor(spec), (
            lambda x, y, spec=spec:
            BitString(ref_trevisan_extract(spec, x.to_int(), y.to_int()), spec.m)
        )


@pytest.mark.parametrize(
    "case", range(4), ids=["toeplitz", "trevisan-m2", "trevisan-m3", "trevisan-n8"]
)
def test_batch_matches_each_source_and_the_reference(case):
    ext, reference = list(_batch_cases())[case]
    n, t, m = ext.input_bits, ext.seed_bits, ext.output_bits
    sources = sample_flat_sources(n, 3, 4, seed=case) + sample_flat_sources(n, 1, 2, seed=case)
    got = extractor_distances(ext, sources)
    assert got == [extractor_distance(ext, source) for source in sources]
    # the side-table route, the table and per-pair paths, and the reference
    uniform = FiniteDistribution.uniform
    assert got == [extractor_distance(ext, uniform(source.support)) for source in sources]
    assert got == extractor_distances(_TableOnly(ext), sources)
    assert got == extractor_distances(_ExtractOnly(ext), sources)
    assert got == [
        ref_joint_seed_output_distance(reference, n, t, m, source.support) for source in sources
    ]


def test_batch_forced_spectral_matches_the_reference(spectral_always):
    for ext, reference in _batch_cases():
        spied, calls = _spied(ext)
        sources = sample_flat_sources(ext.input_bits, 2, 3, seed=5)
        got = extractor_distances(spied, sources)
        assert calls, "the spectral path was not taken"
        assert got == [
            ref_joint_seed_output_distance(reference, ext.input_bits, ext.seed_bits,
                                           ext.output_bits, source.support)
            for source in sources
        ]


def test_batch_chunks_at_the_entry_limit_keep_the_spectral_path(monkeypatch):
    # three transforms of 2^8 entries fit: seven sources go in chunks of 3,
    # 3 and 1, each spectral as its sources alone; one chunk of 7 would
    # exceed the limit and count the pairs
    monkeypatch.setattr(oracle, "_SPECTRAL_ENTRIES", 3 << 8)
    spec = ToeplitzSpec(8, 2)
    sources = sample_flat_sources(8, 5, 7, seed=4)
    alone = []
    for source in sources:
        ext, calls = _spied(ToeplitzExtractor(spec))
        alone.append(extractor_distance(ext, source))
        assert sum(calls) == 1 << spec.seed_bits
    ext, calls = _spied(ToeplitzExtractor(spec))
    assert extractor_distances(ext, sources) == alone
    assert sum(calls) == 3 << spec.seed_bits  # every seed pattern once per chunk


def test_batch_budget_is_charged_per_source():
    ext = ToeplitzExtractor(ToeplitzSpec(6, 2))
    sources = sample_flat_sources(6, 2, 2, seed=1) + sample_flat_sources(6, 3, 1, seed=2)
    pairs = 8 << ext.seed_bits  # the largest source's
    with pytest.raises(BudgetExceededError) as batch:
        extractor_distances(ext, sources, budget=pairs - 1)
    # the error a FiniteDistribution of that source raises, as before
    with pytest.raises(BudgetExceededError) as alone:
        extractor_distance(ext, FiniteDistribution.uniform(sources[2].support), budget=pairs - 1)
    assert str(batch.value) == str(alone.value)
    assert "needs 1024 items, exceeding the budget of 1023" in str(alone.value)
    got = extractor_distances(ext, sources, budget=pairs)
    uniform = FiniteDistribution.uniform
    assert got == [extractor_distance(ext, uniform(source.support)) for source in sources]


def test_batch_budget_is_checked_before_any_chunk_is_counted(monkeypatch):
    # one source a chunk: the three sources of 2^2 values fit the budget,
    # the last one of 2^3 does not, and no chunk is counted before it raises
    monkeypatch.setattr(oracle, "_SPECTRAL_ENTRIES", 1 << 8)
    def counted(*args):
        raise AssertionError("a chunk was counted before every source was charged")

    for name in ("_spectral_overlap", "_table_overlap"):
        monkeypatch.setattr(oracle, name, counted)
    ext = ToeplitzExtractor(ToeplitzSpec(8, 2))
    sources = sample_flat_sources(8, 2, 3, seed=1) + sample_flat_sources(8, 3, 1, seed=2)
    pairs = 8 << ext.seed_bits
    with pytest.raises(BudgetExceededError, match=f"needs {pairs} items, exceeding the budget "
                       f"of {pairs - 1}$"):
        extractor_distances(ext, sources, budget=pairs - 1)


def test_toeplitz_check_builds_rows_once_per_block():
    # verify_flat's Toeplitz check: ToeplitzSpec(10, 2) on 8 flat sources of
    # 2^6 strings; each block's rows and masks serve every source
    spec = ToeplitzSpec(10, 2)
    ext, calls = _spied(ToeplitzExtractor(spec))
    sources = sample_flat_sources(10, 6, 8, seed=1)
    got = extractor_distances(ext, sources)
    assert sum(calls) == 1 << spec.seed_bits
    assert got == [extractor_distance(_TableOnly(ToeplitzExtractor(spec)), source)
                   for source in sources]
