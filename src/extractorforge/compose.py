"""Extractor compositions: block composition and condense-then-extract.

Block composition splits the source in half and uses the second half,
extracted with the outer seed, as the seed for extracting the first half.
Condense-then-extract first condenses the source (keeping the condenser
seed alongside the condensed string) and then extracts from the result.
Both are pure wiring; every output bit is fixed by the component specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import BitString
from .condenser import CondenserSpec, _ceil_log2, build_condenser, strong_form
from .errors import check_rules
from .trevisan import (
    PRESET_THM42,
    PRESET_THM43,
    ExtractorSpec,
    TrevisanExtractor,
    _check_trevisan_inputs,
    build_trevisan,
)


def _check_halves(e1_input: int, e2_input: int, e2_output: int, e1_seed: int) -> None:
    """The rules a block spec and its composite share."""
    check_rules(
        (e1_input == e2_input, f"halves differ: E1 reads {e1_input} bits, E2 reads {e2_input}",
         "equal halves"),
        (e2_output == e1_seed, f"E2 outputs {e2_output} bits but E1 wants a {e1_seed}-bit seed",
         "E2 output length = E1 seed length"),
    )


def _check_condensed_input(strong_bits: int, extractor_bits: int) -> None:
    """The rule a pipeline spec and its composite share."""
    check_rules((
        extractor_bits == strong_bits + strong_bits % 2,
        f"the extractor reads {extractor_bits} bits, not the condenser's "
        f"{strong_bits} rounded up to even",
        "extractor input = condensed length (+ parity pad)",
    ))


def _check_storage_bound(half: int, b: int, epsilon: Fraction) -> int:
    """The rules the block builder and every block spec share.  Returns
    the most bits E1 may output, ceil((n/2 - b) / 2)."""
    inner_entropy = half - b - _ceil_log2(1 / epsilon)
    check_rules(
        (b >= 0, f"the storage bound b must be >= 0, got {b}", "b >= 0"),
        (inner_entropy > 0, f"b={b} leaves no entropy margin: n/2 - b - log2(1/eps) = "
         f"{inner_entropy} <= 0", "b < n/2 - log2(1/eps)"),
    )
    return -(-(half - b) // 2)


def _check_beta(beta: Fraction) -> None:
    """The rule the pipeline builder and every pipeline spec share."""
    check_rules((0 <= beta < Fraction(1, 2), f"beta = 1/2 - alpha = {beta} is outside [0, 1/2)",
                 "beta < 1/2"))


class BlockComposedExtractor:
    """E(x, y) = E1(x1, E2(x2, y)) with x split into equal halves."""

    def __init__(self, e1, e2):
        _check_halves(e1.input_bits, e2.input_bits, e2.output_bits, e1.seed_bits)
        self.e1 = e1
        self.e2 = e2
        self.input_bits = e1.input_bits + e2.input_bits
        self.seed_bits = e2.seed_bits
        self.output_bits = e1.output_bits
        support = getattr(e2, "seed_support", None)
        if support is not None:
            self.seed_support = tuple(support)

    def extract(self, x: BitString, y: BitString) -> BitString:
        if len(x) != self.input_bits:
            raise ValueError(f"input is {len(x)} bits, want {self.input_bits}")
        half = self.e1.input_bits
        x1, x2 = x[0:half], x[half:]
        inner_seed = self.e2.extract(x2, y)
        return self.e1.extract(x1, inner_seed)


def block_compose(e1, e2) -> BlockComposedExtractor:
    return BlockComposedExtractor(e1, e2)


class CondenseExtractExtractor:
    """EC(x, (y1, y2)) = E(C(x, y1) || y1, y2).

    The combined seed is y1 || y2.  The extractor reads the strong-form
    output rounded up to even: when that output is odd, a zero bit is
    appended before extraction (parity padding from the builder).
    """

    def __init__(self, condenser: CondenserSpec, extractor):
        strong_bits = condenser.output_bits + condenser.seed_bits
        _check_condensed_input(strong_bits, extractor.input_bits)
        self.condenser = condenser
        self.extractor = extractor
        self.pad = strong_bits % 2
        self.input_bits = condenser.n
        self.seed_bits = condenser.seed_bits + extractor.seed_bits
        self.output_bits = extractor.output_bits
        support = getattr(extractor, "seed_support", None)
        if support is not None:
            d = condenser.seed_bits
            self.seed_support = tuple(range(d)) + tuple(d + p for p in support)

    def extract(self, x: BitString, y: BitString) -> BitString:
        if len(y) != self.seed_bits:
            raise ValueError(f"seed is {len(y)} bits, want {self.seed_bits}")
        d = self.condenser.seed_bits
        condensed = strong_form(self.condenser, x, y[0:d])
        if self.pad:
            condensed = condensed + BitString.zeros(self.pad)
        return self.extractor.extract(condensed, y[d:])


def condense_extract(condenser: CondenserSpec, extractor) -> CondenseExtractExtractor:
    return CondenseExtractExtractor(condenser, extractor)


@dataclass(frozen=True)
class BlockSpec:
    """Resolved two-extractor composition for the high-entropy regime.

    From n and the storage bound b: E1 extracts m1 = ceil((n/2 - b) / 2)
    bits from the first half at entropy n/2 - b; E2 feeds E1's seed by
    extracting from the second half at entropy n/2 - b - log2(1/eps).
    The composed error budget is eps + eps1 + eps2 with equal splits.
    Stored: b, E1 and E2.  Derived: n is the sum of the halves and eps is
    E1's target.  Checked on load, as the composite checks its parts: E1
    and E2 read equal halves, E2 outputs E1's seed, and E2's target is
    E1's, since eps and the error budget read E1's alone; then the
    builder's storage-bound rules, b >= 0 and n/2 - b - log2(1/eps) > 0,
    and E1 outputs m1 <= ceil((n/2 - b) / 2) bits.
    """

    b: int
    e1: ExtractorSpec
    e2: ExtractorSpec

    def __post_init__(self):
        eps1, eps2 = self.e1.epsilon_target, self.e2.epsilon_target
        _check_halves(self.e1.n, self.e2.n, self.e2.m, self.e1.t)
        check_rules((eps2 == eps1, f"E2's epsilon target {eps2} is not E1's {eps1}",
                     "E2 epsilon = E1 epsilon"))
        m1 = _check_storage_bound(self.e1.n, self.b, eps1)
        check_rules((self.e1.m <= m1, f"E1 outputs {self.e1.m} bits, more than "
                     f"ceil((n/2 - b)/2) = {m1}", "m1 <= ceil((n/2 - b)/2)"))

    @property
    def n(self) -> int:
        return self.e1.n + self.e2.n

    @property
    def epsilon(self) -> Fraction:
        return self.e1.epsilon_target

    @property
    def error_budget(self) -> Fraction:
        return 3 * self.epsilon

    @property
    def seed_bits(self) -> int:
        return self.e2.t

    @property
    def output_bits(self) -> int:
        return self.e1.m

    def extractor(self) -> BlockComposedExtractor:
        return block_compose(TrevisanExtractor(self.e1), TrevisanExtractor(self.e2))


def build_high_entropy_extractor(
    n: int, b: int, epsilon: Fraction | float
) -> BlockSpec:
    """Composed extractor for sources missing at most b bits of entropy."""
    epsilon = Fraction(epsilon)
    check_rules((n >= 2 and n % 2 == 0, f"n must be even and >= 2, got {n}",
                 "even source length"))
    half = n // 2
    # E1 and E2 each read a half at eps
    _check_trevisan_inputs(half, epsilon)
    m1 = _check_storage_bound(half, b, epsilon)
    e1 = build_trevisan(PRESET_THM42, half, m1, epsilon)
    e2 = build_trevisan(PRESET_THM43, half, e1.t, epsilon)
    return BlockSpec(b=b, e1=e1, e2=e2)


@dataclass(frozen=True)
class PipelineSpec:
    """Condense-then-extract pipeline: a condenser and a block extractor.

    Stored: the two parts.  Derived: n, k, alpha and eps are the condenser's;
    beta = 1/2 - alpha, as the builder sets alpha = 1/2 - beta, and zeta is
    fixed by formula from beta; ``rounding`` notes the parity pad and the
    rounding of b = beta k.  The parts must agree: 0 <= beta <
    1/2, b = ceil(beta k), and the block reads the condenser's strong output
    rounded up to even.  The total error is the condenser's 2 * eps plus the
    composed extractor's 3 * eps.
    """

    condenser: CondenserSpec
    extractor: BlockSpec

    def __post_init__(self):
        _check_beta(self.beta)
        b = math.ceil(self.beta * self.k)
        check_rules((self.extractor.b == b, f"b is {self.extractor.b} but ceil(beta*k) is {b}",
                     "b = ceil(beta k)"))
        _check_condensed_input(self._strong_bits, self.extractor.n)

    @property
    def beta(self) -> Fraction:
        return Fraction(1, 2) - self.alpha

    @property
    def _strong_bits(self) -> int:
        return self.condenser.output_bits + self.condenser.seed_bits

    @property
    def rounding(self) -> tuple[str, ...]:
        notes = []
        if self.extractor.n != self._strong_bits:
            notes.append(
                f"padded extractor input from {self._strong_bits} to {self.extractor.n} bits"
            )
        if self.extractor.b != self.beta * self.k:
            notes.append(
                f"rounded storage bound b = beta*k = {self.beta * self.k} up to {self.extractor.b}"
            )
        return tuple(notes)

    @property
    def n(self) -> int:
        return self.condenser.n

    @property
    def k(self) -> int:
        return self.condenser.k

    @property
    def alpha(self) -> Fraction:
        return self.condenser.alpha

    @property
    def epsilon(self) -> Fraction:
        return self.condenser.epsilon

    @property
    def zeta(self) -> Fraction:
        """zeta = (1/2)(1 - 1/(2(1 - beta))), which makes the paper's
        alpha = 2(1 - beta)(1 - zeta) - 1 equal 1/2 - beta."""
        return Fraction(1, 2) * (1 - 1 / (2 * (1 - self.beta)))

    @property
    def error_budget(self) -> Fraction:
        return 5 * self.epsilon

    @property
    def seed_bits(self) -> int:
        return self.condenser.seed_bits + self.extractor.seed_bits

    @property
    def output_bits(self) -> int:
        return self.extractor.output_bits

    def pipeline(self) -> CondenseExtractExtractor:
        return condense_extract(self.condenser, self.extractor.extractor())


def build_pipeline(
    n: int, k: int, beta: Fraction | float, epsilon: Fraction | float
) -> PipelineSpec:
    """Resolve the full condense-then-extract pipeline for (n, k, beta, eps)."""
    beta = Fraction(beta)
    epsilon = Fraction(epsilon)
    _check_beta(beta)
    condenser = build_condenser(n, k, epsilon, Fraction(1, 2) - beta)
    strong_bits = condenser.output_bits + condenser.seed_bits
    extractor = build_high_entropy_extractor(
        strong_bits + strong_bits % 2, math.ceil(beta * k), epsilon
    )
    return PipelineSpec(condenser, extractor)
