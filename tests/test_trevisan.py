import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from extractorforge import oracle
from extractorforge.bits import BitString
from extractorforge.codes import CodeSpec, encode_bit
from extractorforge.designs import (
    Design,
    build_greedy_weak_design,
    build_poly_design,
    restrict_seed,
)
from extractorforge.detrand import CounterRng
from extractorforge.errors import InfeasibleParameterError
from extractorforge.oracle import (
    FiniteDistribution,
    FlatSource,
    JointTable,
    extractor_distance,
    extractor_distances,
    sample_flat_sources,
)
from extractorforge.serialize import spec_from_json, spec_to_json
from extractorforge.trevisan import (
    ExtractorSpec,
    TrevisanExtractor,
    build_trevisan,
    custom_spec,
    trevisan_extract,
)

from helpers import ref_side_distance, ref_trevisan_extract


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


@pytest.mark.parametrize("preset, m", [("thm42", 11), ("thm43", 256)])
def test_benchmark_stages_match_reference(preset, m):
    # the two Trevisan stages of the benchmark's extract_stream chain
    spec = build_trevisan(preset, 21, m, Fraction(1, 4))
    rng = CounterRng(0x7E5E, spec.n, spec.t)
    for _ in range(64):
        x, y = rng.below(1 << spec.n), rng.below(1 << spec.t)
        out = trevisan_extract(spec, BitString(x, spec.n), BitString(y, spec.t))
        assert out.to_int() == ref_trevisan_extract(spec, x, y)


@pytest.mark.parametrize(
    "spec",
    [
        # w = 17: eval_poly's branch without tables, 3 symbols for 40 bits
        custom_spec(40, build_poly_design(3, 34), Fraction(1, 4)),
        # w = 4: 10 source bits padded with 2 zeros to 3 symbols
        custom_spec(10, build_greedy_weak_design(5, 8, 2), Fraction(1, 4)),
    ],
    ids=["w17", "padded"],
)
def test_custom_specs_match_reference(spec):
    assert spec.code.message_bits > spec.n
    rng = CounterRng(0xC057, spec.n, spec.t)
    for _ in range(32):
        x, y = rng.below(1 << spec.n), rng.below(1 << spec.t)
        out = trevisan_extract(spec, BitString(x, spec.n), BitString(y, spec.t))
        assert out.to_int() == ref_trevisan_extract(spec, x, y)


def test_benchmark_stage_length_checks():
    spec = build_trevisan("thm43", 21, 256, Fraction(1, 4))
    x, y = BitString(0, spec.n), BitString(0, spec.t)
    with pytest.raises(ValueError, match=f"seed is {spec.t - 1} bits, spec wants {spec.t}"):
        trevisan_extract(spec, x, BitString(0, spec.t - 1))
    with pytest.raises(ValueError, match=f"seed is {spec.t + 1} bits, spec wants {spec.t}"):
        trevisan_extract(spec, x, BitString(0, spec.t + 1))
    with pytest.raises(ValueError, match=f"source is 22 bits, spec wants {spec.n}"):
        trevisan_extract(spec, BitString(0, 22), y)
    with pytest.raises(ValueError, match=f"source is 20 bits, spec wants {spec.n}"):
        trevisan_extract(spec, BitString(0, 20), y)


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
    data = json.loads(spec_to_json(good))
    data["t"] += 1
    with pytest.raises(ValueError, match=f"t is {good.t + 1} but the spec gives {good.t}"):
        spec_from_json(json.dumps(data))
    # m and the code are the design's: a file must state them as it gives them
    for key, value in (("m", good.m + 1), ("code", {"messageSymbols": 3, "w": 4})):
        data = json.loads(spec_to_json(good))
        data[key] = value
        with pytest.raises(ValueError, match=f"^{key} is "):
            spec_from_json(json.dumps(data))
    # an odd set size cannot index a code of 2w bits
    with pytest.raises(InfeasibleParameterError, match="design set size 5 is odd"):
        ExtractorSpec(n=good.n, design=build_poly_design(2, 5), preset="custom",
                      epsilon_target=good.epsilon_target)


@pytest.mark.parametrize("n", [0, -1])
def test_spec_needs_an_input_bit(n):
    good = build_trevisan("thm42", 8, 2, Fraction(1, 4))
    with pytest.raises(ValueError, match="at least one input bit"):
        dataclasses.replace(good, n=n)


def _wide_code_spec():
    # w = 9: one 18-position design set, a codeword table wider than a byte
    return custom_spec(9, build_poly_design(1, 18), Fraction(1, 4))


def test_batch_table_matches_scalar_extract():
    for spec in (
        build_trevisan("thm43", 8, 2, Fraction(1, 4)),
        # m > 8: outputs packed into int64; 24 support positions
        custom_spec(12, build_greedy_weak_design(10, 6, 2), Fraction(1, 4)),
        _wide_code_spec(),
    ):
        _check_batch_table(spec)


def _check_batch_table(spec):
    ext = TrevisanExtractor(spec)
    s = len(ext.seed_support)
    rng = CounterRng(0xBA7C, s)
    xs = [0, 1, (1 << spec.n) - 1] + [rng.below(1 << spec.n) for _ in range(3)]
    state = ext.prepare_batch(xs)
    # every pattern byte position, not just the low byte
    patterns = np.array(
        list(range(33)) + [(1 << s) - 1] + [rng.below(1 << s) for _ in range(60)],
        dtype=np.int64,
    )
    table = ext.extract_table(state, patterns)
    assert table.shape == (len(patterns), len(xs))
    for row, pattern in enumerate(patterns):
        y_val = 0
        for bit, pos in enumerate(ext.seed_support):
            y_val |= ((int(pattern) >> bit) & 1) << pos
        y = BitString(y_val, spec.t)
        for col, x in enumerate(xs):
            assert table[row, col] == ext.extract(BitString(x, spec.n), y).to_int()


def test_wide_code_distance_matches_closed_form():
    # One symbol, so output bit <x, z> with z uniform over the seed patterns:
    # the distance is sum_z |sum_x (-1)^<x, z>| / (2 |S| 2^9).
    ext = TrevisanExtractor(_wide_code_spec())
    for source in sample_flat_sources(9, 3, 4, seed=9):
        xs = [x.to_int() for x in source.support]
        bias = sum(abs(sum(1 - 2 * ((x & z).bit_count() & 1) for x in xs)) for z in range(512))
        assert extractor_distance(ext, source) == Fraction(bias, 2 * len(xs) * 512)


def test_batch_path_declined_above_width_16():
    spec = custom_spec(17, build_poly_design(1, 34), Fraction(1, 4))
    assert TrevisanExtractor(spec).prepare_batch([0, 1]) is None


def test_desk_scale_distance_within_target_custom_t24():
    # n=12, t=24, m=2 with an explicit width-3 code and weak design; the
    # worst of the 15 sources is 79393/524288
    design = build_greedy_weak_design(2, 6, 2)
    assert design.universe_size == 24
    spec = custom_spec(12, design, Fraction(1, 4))
    assert spec.code == CodeSpec(3, 4)
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
        ext.extract_table(state, np.arange(2, dtype=np.int64))


class _ExtractOnly:
    """The extractor without its table methods: the oracle calls extract
    once per (x, seed pattern)."""

    def __init__(self, ext):
        self.input_bits, self.seed_bits = ext.input_bits, ext.seed_bits
        self.output_bits, self.seed_support = ext.output_bits, ext.seed_support
        self.extract = ext.extract


def test_table_path_on_sources_of_70_bits():
    # 14 symbols of 5 bits: messages wider than int64
    ext = TrevisanExtractor(build_trevisan("thm42", 70, 1, Fraction(1, 4)))
    source = FlatSource.from_ints(70, [1, 2**69 | 5])
    assert extractor_distance(ext, source) == extractor_distance(_ExtractOnly(ext), source)
    assert extractor_distance(ext, source) == Fraction(33, 128)


def test_batch_on_sources_of_70_bits():
    # the 70-bit source above with another of four strings, in one batch
    ext = TrevisanExtractor(build_trevisan("thm42", 70, 1, Fraction(1, 4)))
    sources = [FlatSource.from_ints(70, [1, 2**69 | 5]),
               FlatSource.from_ints(70, [2**69 | 5, 7, 2**68, 3])]
    got = extractor_distances(ext, sources)
    assert got[0] == Fraction(33, 128)
    assert got == [extractor_distance(_ExtractOnly(ext), source) for source in sources]
    uniform = FiniteDistribution.uniform
    assert got == [extractor_distance(ext, uniform(source.support)) for source in sources]


class _TableOnly(_ExtractOnly):
    """The extractor without its linear rows: the oracle counts every pair
    of its output table."""

    def __init__(self, ext):
        super().__init__(ext)
        self.prepare_batch, self.extract_table = ext.prepare_batch, ext.extract_table


def _spied(ext):
    """``ext`` with linear_rows recording, per call, whether it declined; no
    call means the oracle's cost or size rule declined first."""
    declined = []
    rows = ext.linear_rows

    def spy(patterns):
        result = rows(patterns)
        declined.append(result is None)
        return result

    ext.linear_rows = spy
    return ext, declined


def _explicit_spec(n, w, sets, t):
    """A custom spec over a width-w code whose design is ``sets`` as given."""
    design = Design(t, 2 * w, "standard", tuple(sets), Fraction(2 * w))
    return custom_spec(n, design, Fraction(1, 4))


# t <= 9 seed bits: every path, the reference too, enumerates every seed.
_SMALL_SPECS = {
    "m1": _explicit_spec(6, 2, [(1, 2, 4, 6)], 7),
    "m2-disjoint": _explicit_spec(6, 2, [(0, 1, 2, 3), (4, 5, 6, 7)], 8),
    # S_2 shares index bits 0 and 1 with S_1; bits 2 and 3 are new
    "m2-overlap": _explicit_spec(6, 2, [(0, 1, 2, 3), (1, 3, 4, 5)], 6),
    # S_3 shares position 0 with S_1 and 4 with S_2, at index bits 0 and 1
    "m3-overlap": _explicit_spec(5, 2, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 4, 6, 7)], 8),
    # S_3 shares position 8 with S_2 at index bit 3, its highest
    "m3-shared-high": _explicit_spec(5, 2, [(0, 1, 2, 3), (2, 3, 4, 8), (5, 6, 7, 8)], 9),
}


def _reference(spec):
    """Trevisan's extractor by the definition, as an extract function."""
    return lambda x, y: BitString(ref_trevisan_extract(spec, x.to_int(), y.to_int()), spec.m)


def _side_table(n, symbols, seed):
    """A joint table over 12 seeded strings and ``symbols`` symbols with
    weights in [0, 6], so some (x, s) rows are absent."""
    rng = CounterRng(0x51DE, n, symbols, seed)
    xs = rng.sample_distinct(12, 1 << n)
    rows = {(x, s): rng.below(7) for x in xs for s in range(symbols)}
    for x in xs:  # every string keeps some weight
        rows[x, 0] += 1
    total = sum(rows.values())
    return JointTable(
        n, {(BitString(x, n), s): Fraction(w, total) for (x, s), w in rows.items() if w}
    )


@pytest.mark.parametrize("name", _SMALL_SPECS)
@pytest.mark.parametrize("symbols", [1, 3])
@pytest.mark.parametrize("use_side", [False, True], ids=["source", "side"])
def test_product_table_and_pair_paths_agree(name, symbols, use_side, monkeypatch):
    """The spectral path, which counts cells by Hadamard products (the
    n-bit transform of each symbol's weights, then the m-bit one at the
    row masks), agrees with the table, per-pair and reference distances."""
    spec = _SMALL_SPECS[name]
    table = _side_table(spec.n, symbols, seed=len(name))
    source = table.x_marginal()
    side = table if use_side else None
    joint = dict(table.items()) if use_side else {(x, 0): p for x, p in source.items()}
    expect = ref_side_distance(_reference(spec), spec.t, spec.m, joint)
    assert extractor_distance(TrevisanExtractor(spec), source, side=side) == expect
    assert extractor_distance(_TableOnly(TrevisanExtractor(spec)), source, side=side) == expect
    assert extractor_distance(_ExtractOnly(TrevisanExtractor(spec)), source, side=side) == expect
    monkeypatch.setattr(oracle, "_SPECTRAL_CALL_NS", 0)
    monkeypatch.setattr(oracle, "_PAIR_NS", 1 << 40)
    ext, declined = _spied(TrevisanExtractor(spec))
    assert extractor_distance(ext, source, side=side) == expect
    assert declined and not any(declined)


def test_product_path_on_the_benchmark_instances():
    # thm43(12, 2): m = 2 over disjoint sets, a flat source of 2^9 strings:
    # the spectral path
    ext, declined = _spied(TrevisanExtractor(build_trevisan("thm43", 12, 2, Fraction(1, 4))))
    source = sample_flat_sources(12, 9, 1, seed=3)[0]
    assert extractor_distance(ext, source) == extractor_distance(_TableOnly(ext), source)
    assert declined == [False] * 8  # 2^16 patterns, 2^13 per block
    # thm42(24, 1): m = 1, and X flat on a piece of 2^7 strings given each
    # of 4 symbols, here of unequal weights: 4 x 2^24 transform entries
    # exceed the spectral path's limit, so the pairs are counted
    ext2, declined2 = _spied(TrevisanExtractor(build_trevisan("thm42", 24, 1, Fraction(1, 4))))
    pieces = sample_flat_sources(24, 7, 4, seed=8)
    weights = {(x, s): Fraction(s + 1, 10 << 7) for s, p in enumerate(pieces) for x in p.support}
    table = JointTable(24, weights)
    source = table.x_marginal()
    got = extractor_distance(ext2, source, side=table)
    assert declined2 == []
    assert got == extractor_distance(_ExtractOnly(ext2), source, side=table)


def test_product_path_below_2_53_with_python_int_weights(spectral_always):
    # a denominator of 2^50 makes the oracle hold weights as Python ints,
    # and a block's int64 sums could overflow: the spectral path sums its
    # blocks exactly
    spec = _SMALL_SPECS["m2-disjoint"]
    d = 1 << 50
    probs = {BitString(1, 6): Fraction(d // 3, d), BitString(22, 6): Fraction(d // 5, d)}
    probs[BitString(45, 6)] = 1 - sum(probs.values())
    source = FiniteDistribution(probs)
    ext, declined = _spied(TrevisanExtractor(spec))
    got = extractor_distance(ext, source)
    assert declined and not any(declined)
    assert got == extractor_distance(_TableOnly(ext), source)
    joint = {(x, 0): p for x, p in probs.items()}
    assert got == ref_side_distance(_reference(spec), spec.t, spec.m, joint)


def test_product_declines_weights_past_float64(spectral_always):
    # m = 2 and a denominator of 2^60, past float64's 2^53: 2^m times the
    # total weight reaches 2^62, past which int64 sums may overflow, so the
    # pairs are counted
    spec = _SMALL_SPECS["m2-overlap"]
    d = 1 << 60
    probs = {BitString(1, 6): Fraction(d // 3, d), BitString(22, 6): Fraction(d // 7, d)}
    probs[BitString(45, 6)] = 1 - sum(probs.values())
    source = FiniteDistribution(probs)
    ext, declined = _spied(TrevisanExtractor(spec))
    got = extractor_distance(ext, source)
    assert declined == []
    joint = {(x, 0): p for x, p in probs.items()}
    assert got == ref_side_distance(_reference(spec), spec.t, spec.m, joint)


_EIGHT_POSITIONS_IN_SIX_SETS = [
    (0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)
]


@pytest.mark.parametrize(
    "spec",
    [
        # S_3 inside S_1 and S_2: 2^6 patterns of 4 strings
        _explicit_spec(5, 2, [(0, 1, 2, 3), (2, 3, 4, 5), (0, 1, 4, 5)], 6),
        # m = 7: 2^7 cells per pattern against 4 pairs
        _explicit_spec(8, 2, _EIGHT_POSITIONS_IN_SIX_SETS + [(8, 9, 10, 11)], 12),
        # n = 16: a transform of 2^16 entries for 4 strings
        _explicit_spec(16, 4, [tuple(range(8)), (0, 1, 2, 3, 4, 5, 8, 9)], 10),
    ],
    ids=["no-new-positions", "m7", "six-shared"],
)
def test_product_declines_where_pairs_cost_less(spec, monkeypatch):
    ext, declined = _spied(TrevisanExtractor(spec))
    source = sample_flat_sources(spec.n, 2, 1, seed=6)[0]
    got = extractor_distance(ext, source)
    assert declined == []
    assert got == extractor_distance(_ExtractOnly(ext), source)
    monkeypatch.setattr(oracle, "_SPECTRAL_CALL_NS", 0)
    monkeypatch.setattr(oracle, "_PAIR_NS", 1 << 40)
    assert extractor_distance(ext, source) == got
    assert declined and not any(declined)
