from fractions import Fraction

import pytest

from extractorforge.bits import BitString
from extractorforge.compose import (
    BlockSpec,
    block_compose,
    build_high_entropy_extractor,
    build_pipeline,
    condense_extract,
)
from extractorforge.detrand import CounterRng
from extractorforge.errors import InfeasibleParameterError
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec
from extractorforge.trevisan import TrevisanExtractor, build_trevisan

from helpers import ref_guv_condense, ref_trevisan_extract

QUARTER = Fraction(1, 4)


def _ref_block(spec, x: int, y: int) -> int:
    """E1(x1, E2(x2, y)), x1 the low half of x."""
    half = spec.n // 2
    inner_seed = ref_trevisan_extract(spec.e2, x >> half, y)
    return ref_trevisan_extract(spec.e1, x & ((1 << half) - 1), inner_seed)


def _seeded_pairs(key, n, t, count):
    rng = CounterRng(key, n, t)
    return [(rng.below(1 << n), rng.below(1 << t)) for _ in range(count)]


@pytest.mark.parametrize("n, b", [(12, 1), (24, 3)])
def test_block_compose_matches_reference_chain(n, b):
    spec = build_high_entropy_extractor(n, b, QUARTER)
    ext = block_compose(TrevisanExtractor(spec.e1), TrevisanExtractor(spec.e2))
    for x, y in _seeded_pairs(0xB10C, n, spec.seed_bits, 4):
        out = ext.extract(BitString(x, n), BitString(y, spec.seed_bits))
        assert out.to_int() == _ref_block(spec, x, y)


@pytest.mark.parametrize(
    "n, k, pad",
    [
        (16, 8, 1),  # w = 11, n_tilde = 2: 33 condensed bits, padded to 34
        (36, 12, 0),  # w = 16, n_tilde = 3: 48 condensed bits
    ],
)
def test_condense_extract_matches_reference_chain(n, k, pad):
    spec = build_pipeline(n, k, 0, QUARTER)
    cond = spec.condenser
    ext = condense_extract(cond, spec.extractor.extractor())
    d, strong_bits = cond.seed_bits, cond.output_bits + cond.seed_bits
    assert ext.pad == pad == spec.extractor.n - strong_bits
    assert any("padded" in note for note in spec.rounding) == bool(pad)
    for x, y in _seeded_pairs(0xC0E7, n, spec.seed_bits, 3):
        y1, y2 = y & ((1 << d) - 1), y >> d
        # the parity pad is a zero bit above the condensed string
        condensed = ref_guv_condense(cond, x, y1) | y1 << cond.output_bits
        out = ext.extract(BitString(x, n), BitString(y, spec.seed_bits))
        assert out.to_int() == _ref_block(spec.extractor, condensed, y2)


def test_block_compose_rejects_unequal_halves():
    with pytest.raises(InfeasibleParameterError, match="halves differ"):
        block_compose(ToeplitzExtractor(ToeplitzSpec(8, 2)), ToeplitzExtractor(ToeplitzSpec(9, 9)))


def test_block_compose_rejects_e2_output_other_than_e1_seed():
    # E1 = Toeplitz(8, 2) wants a 9-bit seed
    with pytest.raises(InfeasibleParameterError, match="E2 outputs 8 bits"):
        block_compose(ToeplitzExtractor(ToeplitzSpec(8, 2)), ToeplitzExtractor(ToeplitzSpec(8, 8)))


def test_block_spec_checks_its_halves_as_its_composite_does():
    spec = build_high_entropy_extractor(16, 1, QUARTER)
    seven = build_trevisan("thm43", 7, spec.e1.t, QUARTER)
    for make in (BlockSpec, lambda b, e1, e2: block_compose(
            TrevisanExtractor(e1), TrevisanExtractor(e2))):
        with pytest.raises(InfeasibleParameterError,
                           match="halves differ: E1 reads 8 bits, E2 reads 7") as exc:
            make(spec.b, spec.e1, seven)
        assert exc.value.constraint == "equal halves"


@pytest.mark.parametrize(
    "n, k, extractor_bits",
    [
        (16, 8, 33),  # 33 strong bits: the extractor must read 34
        (16, 8, 35),
        (36, 12, 49),  # 48 strong bits: no parity pad
    ],
)
def test_condense_extract_reads_the_strong_output_rounded_up_to_even(n, k, extractor_bits):
    spec = build_pipeline(n, k, 0, QUARTER)
    strong_bits = spec.condenser.output_bits + spec.condenser.seed_bits
    with pytest.raises(
        InfeasibleParameterError,
        match=f"the extractor reads {extractor_bits} bits, not the condenser's "
              f"{strong_bits} rounded up to even",
    ):
        condense_extract(spec.condenser, ToeplitzExtractor(ToeplitzSpec(extractor_bits, 2)))


def test_condense_extract_seed_support_follows_the_condenser_seed():
    spec = build_pipeline(16, 8, 0, QUARTER)
    d = spec.condenser.seed_bits
    inner = spec.extractor.extractor()
    ext = condense_extract(spec.condenser, inner)
    assert ext.seed_support == tuple(range(d)) + tuple(d + p for p in inner.seed_support)
    assert inner.seed_support == TrevisanExtractor(spec.extractor.e2).seed_support
    assert ext.seed_bits == d + spec.extractor.seed_bits


@pytest.mark.parametrize("n", [12, 16, 24, 32, 40])
@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [QUARTER, Fraction(1, 2)])
def test_high_entropy_specs_compose(n, b, epsilon):
    spec = build_high_entropy_extractor(n, b, epsilon)
    half = n // 2
    assert spec.e1.n == spec.e2.n == half
    assert spec.e2.m == spec.e1.t
    ext = spec.extractor()
    assert (ext.input_bits, ext.seed_bits, ext.output_bits) == (n, spec.seed_bits, spec.output_bits)


@pytest.mark.parametrize(
    "n, k, beta, epsilon",
    [
        (8, 2, 0, Fraction(1, 8)),
        (16, 8, 0, QUARTER),
        (24, 8, QUARTER, QUARTER),
        (36, 12, 0, QUARTER),
        (40, 10, 0, QUARTER),
    ],
)
def test_pipeline_specs_compose(n, k, beta, epsilon):
    spec = build_pipeline(n, k, beta, epsilon)
    strong_bits = spec.condenser.output_bits + spec.condenser.seed_bits
    assert spec.extractor.n - strong_bits in (0, 1)
    pipeline = spec.pipeline()
    assert pipeline.pad == spec.extractor.n - strong_bits
    assert (pipeline.input_bits, pipeline.seed_bits, pipeline.output_bits) == (
        n,
        spec.seed_bits,
        spec.output_bits,
    )


@pytest.mark.parametrize(
    "n, k, beta, rounding",
    [
        (16, 8, 0, ("padded extractor input from 33 to 34 bits",)),
        (16, 8, Fraction(1, 3), ("rounded storage bound b = beta*k = 8/3 up to 3",)),
        (24, 8, QUARTER, ()),
    ],
)
def test_pipeline_rounding_notes(n, k, beta, rounding):
    # the notes the builder wrote at resolution, now read from the parts
    assert build_pipeline(n, k, beta, QUARTER).rounding == rounding


def test_high_entropy_extractor_rejects_a_negative_storage_bound():
    # b < 0 would publish E1 for more entropy than a half holds
    with pytest.raises(InfeasibleParameterError, match="b must be >= 0, got -3"):
        build_high_entropy_extractor(16, -3, QUARTER)


def test_block_compose_checks_the_input_length():
    spec = build_high_entropy_extractor(12, 1, QUARTER)
    ext = block_compose(TrevisanExtractor(spec.e1), TrevisanExtractor(spec.e2))
    y = BitString(0, spec.seed_bits)
    for width in (11, 13):
        with pytest.raises(ValueError, match=f"^input is {width} bits, want 12$"):
            ext.extract(BitString(0, width), y)


def test_condense_extract_checks_the_seed_length():
    spec = build_pipeline(16, 8, 0, QUARTER)
    ext = spec.pipeline()
    x = BitString(0, 16)
    for width in (ext.seed_bits - 1, ext.seed_bits + 1):
        with pytest.raises(ValueError, match=f"^seed is {width} bits, want {ext.seed_bits}$"):
            ext.extract(x, BitString(0, width))
