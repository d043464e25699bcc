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
from .errors import InfeasibleParameterError
from .trevisan import (
    PRESET_THM42,
    PRESET_THM43,
    ExtractorSpec,
    TrevisanExtractor,
    build_trevisan,
)


class BlockComposedExtractor:
    """E(x, y) = E1(x1, E2(x2, y)) with x split into equal halves."""

    def __init__(self, e1, e2):
        if e1.input_bits != e2.input_bits:
            raise InfeasibleParameterError(
                f"halves differ: E1 reads {e1.input_bits} bits, "
                f"E2 reads {e2.input_bits}",
                constraint="equal halves",
            )
        if e2.output_bits != e1.seed_bits:
            raise InfeasibleParameterError(
                f"E2 outputs {e2.output_bits} bits but E1 wants a "
                f"{e1.seed_bits}-bit seed",
                constraint="E2 output length = E1 seed length",
            )
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

    The combined seed is y1 || y2.  If the extractor's input is one bit
    longer than the strong-form output (parity padding from the builder),
    a zero bit is appended before extraction.
    """

    def __init__(self, condenser: CondenserSpec, extractor):
        strong_bits = condenser.output_bits + condenser.seed_bits
        pad = extractor.input_bits - strong_bits
        if pad not in (0, 1):
            raise InfeasibleParameterError(
                f"extractor reads {extractor.input_bits} bits but the "
                f"condensed string is {strong_bits} bits",
                constraint="extractor input = condensed length (+ parity pad)",
            )
        self.condenser = condenser
        self.extractor = extractor
        self.pad = pad
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
    E1's target.
    """

    b: int
    e1: ExtractorSpec
    e2: ExtractorSpec

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
    def input_bits(self) -> int:
        return self.n

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
    if n < 2 or n % 2:
        raise InfeasibleParameterError(
            f"n must be even and >= 2, got {n}", constraint="even source length"
        )
    if not 0 < epsilon < 1:
        raise InfeasibleParameterError(
            f"epsilon must be in (0, 1), got {epsilon}", constraint="0 < epsilon < 1"
        )
    if b < 0:
        raise InfeasibleParameterError(
            f"the storage bound b must be >= 0, got {b}", constraint="b >= 0"
        )
    half = n // 2
    log_eps_inv = _ceil_log2(1 / epsilon)
    inner_entropy = half - b - log_eps_inv
    if inner_entropy <= 0:
        raise InfeasibleParameterError(
            f"b={b} leaves no entropy margin: n/2 - b - log2(1/eps) = "
            f"{inner_entropy} <= 0",
            constraint="b < n/2 - log2(1/eps)",
        )
    m1 = -(-(half - b) // 2)
    e1 = build_trevisan(PRESET_THM42, half, m1, epsilon)
    e2 = build_trevisan(PRESET_THM43, half, e1.t, epsilon)
    return BlockSpec(b=b, e1=e1, e2=e2)


@dataclass(frozen=True)
class PipelineSpec:
    """Condense-then-extract pipeline: a condenser and a block extractor.

    Stored: the two parts.  Derived: n, k, alpha and eps are the condenser's;
    beta = 1/2 - alpha inverts the builder's alpha = 2(1 - beta)(1 - zeta) - 1,
    where zeta is fixed by formula from beta; ``rounding`` notes the parity
    pad and the rounding of b = beta k.  The parts must agree: 0 <= beta <
    1/2, b = ceil(beta k), and the block reads the condenser's strong output
    rounded up to even.  The total error is the condenser's 2 * eps plus the
    composed extractor's 3 * eps.
    """

    condenser: CondenserSpec
    extractor: BlockSpec

    def __post_init__(self):
        if not 0 <= self.beta < Fraction(1, 2):
            raise ValueError(f"beta = 1/2 - alpha = {self.beta} is outside [0, 1/2)")
        b, strong_bits = math.ceil(self.beta * self.k), self._strong_bits
        if self.extractor.b != b:
            raise ValueError(f"b is {self.extractor.b} but ceil(beta*k) is {b}")
        if self.extractor.n != strong_bits + strong_bits % 2:
            raise ValueError(
                f"the extractor reads {self.extractor.n} bits, not the condenser's "
                f"{strong_bits} rounded up to even"
            )

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
        return default_zeta(self.beta)

    @property
    def error_budget(self) -> Fraction:
        return 5 * self.epsilon

    @property
    def input_bits(self) -> int:
        return self.n

    @property
    def seed_bits(self) -> int:
        return self.condenser.seed_bits + self.extractor.seed_bits

    @property
    def output_bits(self) -> int:
        return self.extractor.output_bits

    def pipeline(self) -> CondenseExtractExtractor:
        return condense_extract(self.condenser, self.extractor.extractor())


def default_zeta(beta: Fraction) -> Fraction:
    """zeta = (1/2)(1 - 1/(2(1 - beta))), which makes alpha = 1/2 - beta."""
    return Fraction(1, 2) * (1 - 1 / (2 * (1 - beta)))


def build_pipeline(
    n: int, k: int, beta: Fraction | float, epsilon: Fraction | float
) -> PipelineSpec:
    """Resolve the full condense-then-extract pipeline for (n, k, beta, eps)."""
    beta = Fraction(beta)
    epsilon = Fraction(epsilon)
    if not 0 <= beta < Fraction(1, 2):
        raise InfeasibleParameterError(
            f"beta must satisfy 0 <= beta < 1/2, got {beta}",
            constraint="beta < 1/2",
        )
    alpha = 2 * (1 - beta) * (1 - default_zeta(beta)) - 1
    condenser = build_condenser(n, k, epsilon, alpha)
    strong_bits = condenser.output_bits + condenser.seed_bits
    extractor = build_high_entropy_extractor(
        strong_bits + strong_bits % 2, math.ceil(beta * k), epsilon
    )
    return PipelineSpec(condenser, extractor)
