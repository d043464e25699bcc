"""Trevisan's extractor: design-restricted seed bits select code positions.

Output bit i is one bit of the concatenated-code encoding of the source,
at the position read from the seed through design set S_i.  Two presets are
provided: ``thm42`` backs the designs with the polynomial construction
(quadratic seed), ``thm43`` with the greedy weak design (shorter seed).

Parameter resolution is explicit rather than asymptotic.  The field width w
is the smallest width such that the padded source fits (ceil(n/w) <= 2^w)
and 2^w >= 2 * m / epsilon.  The second constraint keeps the structural bias
of the code page small at desk scale: a uniformly chosen codeword position
masks the symbol with z = 0 with probability 2^-w, and such positions carry
a constant bit, so their total contribution to the joint distance stays
below m * 2^-(w+1) <= epsilon / 4.  The acceptance suite checks the
resulting epsilon target empirically on sampled flat sources instead of
trusting any asymptotic constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bits import BitString
from .codes import CodeSpec, encode_all_positions, encode_bit
from .designs import Design, build_greedy_weak_design, build_poly_design, restrict_seed
from .errors import InfeasibleParameterError

PRESET_THM42 = "thm42"
PRESET_THM43 = "thm43"
PRESET_CUSTOM = "custom"

_WEAK_DESIGN_RHO = 2
_MAX_FIELD_WIDTH = 24


@dataclass(frozen=True)
class ExtractorSpec:
    """Fully resolved parameter bundle; spec plus (x, y) fixes every bit."""

    n: int
    t: int
    m: int
    design: Design
    code: CodeSpec
    preset: str
    epsilon_target: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon_target", Fraction(self.epsilon_target))
        if self.m < 1:
            raise ValueError("need at least one output bit")
        if self.design.set_size != self.code.index_bits:
            raise ValueError(
                f"design set size {self.design.set_size} does not match "
                f"code index width {self.code.index_bits}"
            )
        if self.design.universe_size != self.t:
            raise ValueError("design universe must equal the seed length")
        if self.design.num_sets < self.m:
            raise ValueError(
                f"design has {self.design.num_sets} sets, need {self.m}"
            )
        if self.code.message_bits < self.n:
            raise ValueError("code message is shorter than the source")

    def to_json_dict(self) -> dict:
        return {
            "type": "trevisan",
            "n": self.n,
            "t": self.t,
            "m": self.m,
            "preset": self.preset,
            "epsilonTarget": [
                self.epsilon_target.numerator,
                self.epsilon_target.denominator,
            ],
            "code": self.code.to_json_dict(),
            "design": self.design.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtractorSpec":
        return cls(
            n=data["n"],
            t=data["t"],
            m=data["m"],
            design=Design.from_json_dict(data["design"]),
            code=CodeSpec.from_json_dict(data["code"]),
            preset=data["preset"],
            epsilon_target=Fraction(*data["epsilonTarget"]),
        )


def _resolve_field_width(n: int, m: int, epsilon: Fraction) -> int:
    for w in range(2, _MAX_FIELD_WIDTH + 1):
        fits = -(-n // w) <= 1 << w
        strong_enough = Fraction(2 * m, 1 << w) <= epsilon
        if fits and strong_enough:
            return w
    raise InfeasibleParameterError(
        f"no field width up to {_MAX_FIELD_WIDTH} supports n={n}, m={m}, "
        f"epsilon={epsilon}",
        constraint="2^w >= max(n/w, 2m/epsilon)",
    )


def build_trevisan(preset: str, n: int, m: int, epsilon: Fraction | float) -> ExtractorSpec:
    """Resolve a full extractor spec from (preset, n, m, epsilon).

    Deterministic: identical inputs give bit-identical specs.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise InfeasibleParameterError(
            f"epsilon must be in (0, 1), got {epsilon}", constraint="0 < epsilon < 1"
        )
    if m < 1 or n < 1:
        raise InfeasibleParameterError(
            "need n >= 1 and m >= 1", constraint="positive dimensions"
        )
    w = _resolve_field_width(n, m, epsilon)
    code = CodeSpec(field_width=w, message_symbols=-(-n // w))
    set_size = code.index_bits
    if preset == PRESET_THM42:
        design = build_poly_design(m, set_size)
    elif preset == PRESET_THM43:
        design = build_greedy_weak_design(
            m, set_size, rho=_WEAK_DESIGN_RHO, t_initial=4 * set_size
        )
    else:
        raise ValueError(f"unknown preset {preset!r}; use custom_spec for custom designs")
    return ExtractorSpec(
        n=n,
        t=design.universe_size,
        m=m,
        design=design,
        code=code,
        preset=preset,
        epsilon_target=epsilon,
    )


def custom_spec(
    n: int, code: CodeSpec, design: Design, m: int, epsilon_target: Fraction
) -> ExtractorSpec:
    """Assemble a spec from explicit parts; dimension checks still apply."""
    return ExtractorSpec(
        n=n,
        t=design.universe_size,
        m=m,
        design=design,
        code=code,
        preset=PRESET_CUSTOM,
        epsilon_target=Fraction(epsilon_target),
    )


def _pad(spec: ExtractorSpec, x: BitString) -> BitString:
    if len(x) != spec.n:
        raise ValueError(f"source is {len(x)} bits, spec wants {spec.n}")
    extra = spec.code.message_bits - spec.n
    return x + BitString.zeros(extra) if extra else x


def trevisan_extract(spec: ExtractorSpec, x: BitString, y: BitString) -> BitString:
    if len(y) != spec.t:
        raise ValueError(f"seed is {len(y)} bits, spec wants {spec.t}")
    message = _pad(spec, x)
    out = 0
    for i in range(spec.m):
        index = restrict_seed(y, spec.design.sets[i])
        out |= encode_bit(spec.code, message, index) << i
    return BitString(out, spec.m)


class TrevisanExtractor:
    """Extractor adapter with a vectorized batch path over codeword tables."""

    def __init__(self, spec: ExtractorSpec):
        self.spec = spec
        self.input_bits = spec.n
        self.seed_bits = spec.t
        self.output_bits = spec.m
        support: set[int] = set()
        for i in range(spec.m):
            support.update(spec.design.sets[i])
        self.seed_support = tuple(sorted(support))

    def extract(self, x: BitString, y: BitString) -> BitString:
        return trevisan_extract(self.spec, x, y)

    def prepare_batch(self, xs: Sequence[int]):
        # zero padding to the code's message length leaves the integers unchanged
        codewords = encode_all_positions(self.spec.code, list(xs))
        return np.ascontiguousarray(codewords.T)

    def extract_table(self, state, patterns: np.ndarray, positions) -> np.ndarray:
        """Outputs for scattered seeds; shape (len(patterns), len(xs)), packed
        into int64, so m must be at most 62."""
        spec = self.spec
        if spec.m > 62:
            raise ValueError(f"{spec.m} output bits do not fit the int64 table")
        by_position = state  # (codeword bits, messages)
        pos_index = {p: k for k, p in enumerate(positions)}
        dtype = np.uint8 if spec.m <= 8 else np.int64
        out = np.zeros((len(patterns), by_position.shape[1]), dtype=dtype)
        patterns = np.asarray(patterns, dtype=np.int64)
        for i in range(spec.m):
            j = np.zeros(len(patterns), dtype=np.int64)
            for bit, pos in enumerate(spec.design.sets[i]):
                j |= ((patterns >> pos_index[pos]) & 1) << bit
            out |= by_position[j].astype(dtype) << dtype(i)
        return out
