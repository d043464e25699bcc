"""Trevisan's extractor: design-restricted seed bits select code positions.

Output bit i is one bit of the concatenated-code encoding of the source,
at the position read from the seed through design set S_i.  Two presets are
provided: ``thm42`` backs the designs with the polynomial construction
(quadratic seed), ``thm43`` with the greedy weak design (shorter seed).

Parameter resolution is explicit rather than asymptotic.  The field width w
is the smallest width up to 24 such that the padded source fits
(ceil(n/w) <= 2^w) and 2^w >= 2 * m / epsilon.  The second constraint keeps
the structural bias of the code page small at desk scale: a uniformly
chosen codeword position masks the symbol with z = 0 with probability
2^-w, and such positions carry a constant bit, so their total contribution
to the joint distance stays below m * 2^-(w+1) <= epsilon / 4.  The
acceptance suite checks the resulting epsilon target empirically on sampled
flat sources instead of trusting any asymptotic constant.

A spec stores n, its design, its preset and epsilon; the design fixes the
rest.  There is one output bit per design set, so m is the set count, and
the set size l is the code's index length 2w, so the code is
CodeSpec(l/2, ceil(n/(l/2))).  Every spec, built here or read from JSON,
is checked against 0 < epsilon < 1, n >= 1, a known preset and an even l;
its design and derived code check their own rules, and a ``thm42`` or
``thm43`` spec is checked against the width rules above too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .bits import BitString
from .codes import CodeSpec, encode_all_positions, encode_bits, evaluate_messages
from .designs import Design, build_greedy_weak_design, build_poly_design, restrict_sets
from .errors import InfeasibleParameterError, check_rules

PRESET_THM42 = "thm42"
PRESET_THM43 = "thm43"
PRESET_CUSTOM = "custom"

_WEAK_DESIGN_RHO = 2
_MAX_FIELD_WIDTH = 24
# Widest code whose position masks linear_rows tabulates: 2^16 int64 masks.
_MASK_WIDTH_LIMIT = 8


@dataclass(frozen=True)
class ExtractorSpec:
    """Fully resolved parameter bundle; spec plus (x, y) fixes every bit.

    Stored: n, the design, the preset and epsilon.  Derived: m is the
    design's set count, t its universe, and the code CodeSpec(l/2,
    ceil(n/(l/2))), built once here.  Checked: 0 < epsilon < 1, n >= 1, a
    known preset, an even l, the code's own rules and, for a preset spec,
    the width rules.
    """

    n: int
    design: Design
    preset: str
    epsilon_target: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon_target", Fraction(self.epsilon_target))
        _check_trevisan_inputs(self.n, self.epsilon_target)
        size = self.design.set_size
        check_rules(
            (self.preset in (PRESET_THM42, PRESET_THM43, PRESET_CUSTOM),
             f"unknown preset {self.preset!r}", "known preset"),
            (size % 2 == 0, f"design set size {size} is odd, but a code index is 2w bits",
             "l = 2w"),
        )
        w = size // 2
        # ceil(n/w) symbols: more would be zero coefficients, which cost every code bit
        object.__setattr__(self, "_code", CodeSpec(w, -(-self.n // w)))
        if self.preset != PRESET_CUSTOM:
            violated = _violated_width(self.n, self.m, self.epsilon_target, w)
            check_rules((violated is None, f"field width {w} breaks {violated}", violated))

    @property
    def m(self) -> int:  # one output bit per design set
        return self.design.num_sets

    @property
    def code(self) -> CodeSpec:
        return self._code

    @property
    def t(self) -> int:  # the seed length
        return self.design.universe_size


def _check_trevisan_inputs(n: int, epsilon: Fraction, m: int = 1) -> None:
    """The input rules, which the builders and every spec, built or read,
    check; a spec's m is its design's set count, which the design checks."""
    check_rules(
        (0 < epsilon < 1, f"epsilon must be in (0, 1), got {epsilon}", "0 < epsilon < 1"),
        (n >= 1 and m >= 1, "need at least one input bit and one output bit",
         "positive dimensions"),
    )


def _violated_width(n: int, m: int, epsilon: Fraction, w: int) -> str | None:
    """The first documented width rule that w breaks for (n, m, eps), or
    None; the builder's search and every preset spec, built or read, check
    the same ones."""
    if w > _MAX_FIELD_WIDTH:
        return f"w <= {_MAX_FIELD_WIDTH}"
    if -(-n // w) > 1 << w:
        return "ceil(n/w) <= 2^w"
    if 2 * m > epsilon * (1 << w):
        return "2m <= eps * 2^w"
    return None


def _resolve_field_width(n: int, m: int, epsilon: Fraction) -> int:
    for w in range(2, _MAX_FIELD_WIDTH + 1):
        if _violated_width(n, m, epsilon, w) is None:
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
    check_rules((preset in (PRESET_THM42, PRESET_THM43),
                 f"unknown preset {preset!r}; use custom_spec for custom designs",
                 "thm42 or thm43 preset"))
    _check_trevisan_inputs(n, epsilon, m)
    set_size = 2 * _resolve_field_width(n, m, epsilon)
    design = (build_poly_design(m, set_size) if preset == PRESET_THM42
              else build_greedy_weak_design(m, set_size, rho=_WEAK_DESIGN_RHO))
    return ExtractorSpec(n=n, design=design, preset=preset, epsilon_target=epsilon)


def custom_spec(n: int, design: Design, epsilon_target: Fraction) -> ExtractorSpec:
    """Assemble a spec from an explicit design; dimension checks still apply."""
    return ExtractorSpec(n=n, design=design, preset=PRESET_CUSTOM, epsilon_target=epsilon_target)


def trevisan_extract(spec: ExtractorSpec, x: BitString, y: BitString) -> BitString:
    """Output bit i is the code bit of x at the index that y's bits on
    design set S_i give.

    One pass per extraction: x and y are checked against n and t and read
    as ints once, y by :func:`restrict_sets` into the m indices, and x by
    one :func:`encode_bits` call at all of them (zero padding to the code's
    message length leaves the int as it is), whose bit array is packed into
    the output.  The positions are not checked here: the spec's ``Design``
    checked them on construction.
    """
    if len(y) != spec.t:
        raise ValueError(f"seed is {len(y)} bits, spec wants {spec.t}")
    if len(x) != spec.n:
        raise ValueError(f"source is {len(x)} bits, spec wants {spec.n}")
    indices = list(restrict_sets(y.to_int(), spec.design.sets))
    bits = encode_bits(spec.code, [x.to_int()], indices)
    return BitString.from_bytes(np.packbits(bits, bitorder="little").tobytes(), spec.m)


class TrevisanExtractor:
    """Extractor adapter with a vectorized batch path over the messages'
    evaluations p_x(alpha) and the x-masks of the oracle's spectral path."""

    def __init__(self, spec: ExtractorSpec):
        self.spec = spec
        self.input_bits = spec.n
        self.seed_bits = spec.t
        self.output_bits = spec.m
        self.seed_support = tuple(sorted({p for s in spec.design.sets for p in s}))

    def extract(self, x: BitString, y: BitString) -> BitString:
        return trevisan_extract(self.spec, x, y)

    def prepare_batch(self, xs: Sequence[int]) -> np.ndarray:
        """Evaluation table (2^w, messages): entry [alpha, j] is p_x(alpha) for
        x = xs[j], 2^w field elements a message whose codeword has 2^(2w) bits."""
        # zero padding to the code's message length leaves the integers unchanged
        return np.ascontiguousarray(evaluate_messages(self.spec.code, list(xs)).T)

    @cached_property
    def _index_table(self) -> np.ndarray:
        """Codeword index contributions of the seed support to every output
        bit (see :func:`_index_tables`).  Built on first use."""
        return _index_tables(self.seed_support, self.spec.design.sets)

    def extract_table(self, state, patterns: np.ndarray) -> np.ndarray:
        """Outputs for the seeds whose bit seed_support[k] is pattern bit k;
        shape (len(patterns), len(xs)), packed into int64, so m must be at
        most 62.  Bit i is the parity of p_x(alpha) & z at set i's (alpha, z)."""
        spec = self.spec
        if spec.m > 62:
            raise ValueError(f"{spec.m} output bits do not fit the int64 table")
        evals, w = state, spec.code.field_width  # (2^w, messages)
        index = _codeword_indices(self._index_table, np.asarray(patterns, dtype=np.int64))
        z = (index & ((1 << w) - 1)).astype(evals.dtype)  # index = alpha * 2^w + z
        alpha = np.right_shift(index, w, out=index)  # the index is not read again
        dtype = np.uint8 if spec.m <= 8 else np.int64
        out = np.zeros((index.shape[1], evals.shape[1]), dtype=dtype)
        for i in range(spec.m):
            bits = np.bitwise_count(evals.take(alpha[i], axis=0) & z[i, :, None]) & 1
            # a multiply, not a shift: numpy shifts uint8 several times slower
            out |= bits * dtype(1 << i)
        return out

    @cached_property
    def _position_masks(self) -> np.ndarray:
        """x-mask of every codeword position: bit j is the codeword bit of
        the j-th unit message, so by the code's linearity the bit of x is
        the parity of the mask & x.  Built on first use."""
        units = encode_all_positions(self.spec.code, [1 << j for j in range(self.spec.n)])
        masks = np.zeros(self.spec.code.codeword_bits, dtype=np.int64)
        for j, bits in enumerate(units):
            masks |= bits.astype(np.int64) << j
        return masks

    def linear_rows(self, patterns: np.ndarray) -> np.ndarray | None:
        """x-masks, shape (m, len(patterns)): output bit i of the seeds whose
        bit seed_support[k] is pattern bit k is the parity of its mask & x.
        None, which sends the oracle to the table path, for sources wider
        than 62 bits or codes with more than 2^16 positions."""
        if self.spec.n > 62 or self.spec.code.field_width > _MASK_WIDTH_LIMIT:
            return None
        index = _codeword_indices(self._index_table, np.asarray(patterns, dtype=np.int64))
        return self._position_masks.take(index)


def _index_tables(positions: Sequence[int], sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Codeword index contributions, shape (chunks, len(sets), 256): entry
    [c, i, v] is the part of set i's codeword index read from pattern bits
    8c .. 8c + 7 when they hold v, pattern bit k being seed bit
    positions[k].  At least one chunk, so that an empty ``positions``
    contributes index 0."""
    pos_index = {p: k for k, p in enumerate(positions)}
    byte = np.arange(256, dtype=np.int64)
    table = np.zeros((max(1, -(-len(positions) // 8)), len(sets), 256), dtype=np.int64)
    for i, s in enumerate(sets):
        for bit, pos in enumerate(s):
            if pos in pos_index:
                chunk, shift = divmod(pos_index[pos], 8)
                table[chunk, i] |= ((byte >> shift) & 1) << bit
    return table


def _codeword_indices(table: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """Codeword indices, shape (sets, len(patterns)), from :func:`_index_tables`."""
    # take, not [:, index]: numpy's take gathers along axis 1 several times faster
    index = table[0].take(patterns & 255, axis=1)
    for chunk in range(1, len(table)):
        index |= table[chunk].take((patterns >> (8 * chunk)) & 255, axis=1)
    return index
