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
from functools import cached_property
from typing import Sequence

import numpy as np

from .bits import BitString
from .codes import CodeSpec, encode_all_positions, encode_bit
from .designs import Design, build_greedy_weak_design, build_poly_design, restrict_seed
from .errors import InfeasibleParameterError
from .oracle import _BLOCK_PAIRS

PRESET_THM42 = "thm42"
PRESET_THM43 = "thm43"
PRESET_CUSTOM = "custom"

_WEAK_DESIGN_RHO = 2
_MAX_FIELD_WIDTH = 24
# Widest code the batch path tabulates: at w = 17 one codeword has 2^34 bits.
_BATCH_WIDTH_LIMIT = 16


@dataclass(frozen=True)
class ExtractorSpec:
    """Fully resolved parameter bundle; spec plus (x, y) fixes every bit."""

    n: int
    m: int
    design: Design
    code: CodeSpec
    preset: str
    epsilon_target: Fraction

    def __post_init__(self):
        if self.preset not in (PRESET_THM42, PRESET_THM43, PRESET_CUSTOM):
            raise ValueError(f"unknown preset {self.preset!r}")
        object.__setattr__(self, "epsilon_target", Fraction(self.epsilon_target))
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one input bit and one output bit")
        if self.design.set_size != self.code.index_bits:
            raise ValueError(
                f"design set size {self.design.set_size} does not match "
                f"code index width {self.code.index_bits}"
            )
        if self.design.num_sets < self.m:
            raise ValueError(
                f"design has {self.design.num_sets} sets, need {self.m}"
            )
        if self.code.message_bits < self.n:
            raise ValueError("code message is shorter than the source")

    @property
    def t(self) -> int:  # the seed length
        return self.design.universe_size


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
        design = build_greedy_weak_design(m, set_size, rho=_WEAK_DESIGN_RHO)
    else:
        raise ValueError(f"unknown preset {preset!r}; use custom_spec for custom designs")
    return ExtractorSpec(
        n=n,
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
        """Codeword table (codeword bits, messages); None, which sends the
        oracle to the per-pair path, for codes wider than 16 bits."""
        if self.spec.code.field_width > _BATCH_WIDTH_LIMIT:
            return None
        # zero padding to the code's message length leaves the integers unchanged
        codewords = encode_all_positions(self.spec.code, list(xs))
        return np.ascontiguousarray(codewords.T)

    @cached_property
    def _index_table(self) -> np.ndarray:
        """Codeword index contributions of the seed support to every output
        bit (see :func:`_index_tables`).  Built on first use."""
        return _index_tables(self.seed_support, self.spec.design.sets[: self.spec.m])

    def extract_table(self, state, patterns: np.ndarray) -> np.ndarray:
        """Outputs for the seeds whose bit seed_support[k] is pattern bit k;
        shape (len(patterns), len(xs)), packed into int64, so m must be at
        most 62."""
        spec = self.spec
        if spec.m > 62:
            raise ValueError(f"{spec.m} output bits do not fit the int64 table")
        by_position = state  # (codeword bits, messages)
        index = _codeword_indices(self._index_table, np.asarray(patterns, dtype=np.int64))
        dtype = np.uint8 if spec.m <= 8 else np.int64
        out = by_position[index[0]].astype(dtype, copy=False)
        for i in range(1, spec.m):
            # a multiply, not a shift: numpy shifts uint8 several times slower
            out |= by_position[index[i]] * dtype(1 << i)
        return out

    @cached_property
    def _product_plan(self) -> "_ProductPlan":
        return _ProductPlan(self.spec.design.sets[: self.spec.m])

    def cell_counts(self, state, weights: np.ndarray):
        """Exact weight of every (pattern, symbol, output) cell, or None to
        decline.

        ``weights`` has shape (symbols, len(xs)): the integer weight of each
        (symbol, x) row, x in the order ``prepare_batch`` got.  Output bit
        m - 1 reads only the codeword column at y|S_m, so with the first
        m - 1 bits z' fixed by the seed bits in S_1 .. S_(m-1), a cell's
        weight c(z', 1) is a sum over x of weight times codeword bit: one
        float64 matrix product gives it for every completion of S_m's new
        seed bits at once, and c(z', 0) is the row's weight minus c(z', 1).

        Declines when the total weight reaches 2^53, past which float64
        sums are no longer exact, and when the products' estimated time
        (:meth:`_ProductPlan.cost_ns`) is not below that of the table path,
        which counts every (pattern, row) pair.  Otherwise returns an
        iterator of int64 arrays of shape (k, symbols, cells), axis 1 the
        symbol, that together hold each cell once.
        """
        if int(weights.sum()) >= 1 << 53:
            return None
        # the table path's time, its blocks sized as extractor_distance does
        rows, patterns = np.count_nonzero(weights), 1 << len(self.seed_support)
        blocks = -(-patterns // max(1, min(patterns, _BLOCK_PAIRS // rows)))
        plan = self._product_plan
        if plan.cost_ns(*weights.shape) >= _PAIR_NS * rows * patterns + _BLOCK_NS * blocks:
            return None
        return plan.counts(state, weights.astype(np.float64))


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
    index = table[0][:, patterns & 255]
    for chunk in range(1, len(table)):
        index |= table[chunk][:, (patterns >> (8 * chunk)) & 255]
    return index


# Float64 entries per operand of one product block (512 KB), which bounds
# the product path's scratch to a few MB whatever the code width.
_PRODUCT_ENTRIES = 1 << 16
# Costs in ns, measured on a 2-vCPU x86_64 host (thm43(12, 2, 1/4) and
# custom width-4 designs): the table path's per counted (pattern, row)
# pair; the product path's per float64 multiply-add, per entry of its left
# operand (built once per partial pattern) and per entry of its right
# operand (built once per run of partial patterns); and either path's per
# block.  Work per (pattern, symbol, output) cell is left out: both do it.
_PAIR_NS = 3.6
_MAC_NS = 0.03
_LEFT_NS = 2.5
_RIGHT_NS = 1.3
_BLOCK_NS = 60_000


class _ProductPlan:
    """Seed positions of the product path for the design sets S_1 .. S_m.

    A partial pattern sets the positions of S_1 .. S_(m-1): those outside
    S_m (``rest``) in its low bits, those S_m shares (``shared``) in its
    high ones, so that each run of partial patterns with the same high bits
    fixes the same part of output m - 1's codeword index.  ``fresh`` holds
    S_m's other positions, F, whose 2^|F| completions are the product's
    columns.
    """

    def __init__(self, sets: Sequence[Sequence[int]]):
        *first, last = sets
        earlier = set().union(*first)
        self.shared = [p for p in last if p in earlier]
        self.rest = sorted(earlier.difference(last))
        self.fresh = [p for p in last if p not in earlier]
        self.early_table = _index_tables(self.rest + self.shared, first)
        self.shared_table = _index_tables(self.shared, [last])
        self.fresh_table = _index_tables(self.fresh, [last])
        self.row_values = 1 << len(first)  # values of z'

    def _blocks(self, symbols: int, nx: int) -> tuple[int, int]:
        """Partial patterns and completions per block: each operand and the
        product hold at most max(_PRODUCT_ENTRIES, symbols 2^(m-1) nx)
        entries."""
        block_f = max(1, min(1 << len(self.fresh), _PRODUCT_ENTRIES // nx))
        rows = symbols * self.row_values * max(nx, block_f)
        return max(1, min(1 << len(self.rest), _PRODUCT_ENTRIES // rows)), block_f

    def cost_ns(self, symbols: int, nx: int) -> float:
        """Estimated time of :meth:`counts` for ``symbols`` x ``nx`` weights."""
        block_r, block_f = self._blocks(symbols, nx)
        completions = 1 << len(self.fresh)
        runs = (1 << len(self.shared)) * -(-(1 << len(self.rest)) // block_r)
        left = (symbols * self.row_values * nx) << (len(self.rest) + len(self.shared))
        return (
            left * (_LEFT_NS + _MAC_NS * completions)
            + runs * nx * completions * _RIGHT_NS
            + runs * -(-completions // block_f) * _BLOCK_NS
        )

    def counts(self, state: np.ndarray, weights: np.ndarray):
        """Count blocks for :meth:`TrevisanExtractor.cell_counts`; ``weights``
        as there, in float64."""
        nx = state.shape[1]
        symbols, values = len(weights), self.row_values
        block_r, block_f = self._blocks(symbols, nx)
        rest_count, completions = 1 << len(self.rest), 1 << len(self.fresh)
        z_values = np.arange(values, dtype=np.min_scalar_type(values - 1))[:, None]
        for h in range(1 << len(self.shared)):
            base = int(_codeword_indices(self.shared_table, np.array([h]))[0, 0])
            for r in range(0, rest_count, block_r):
                partial = np.arange(r, min(r + block_r, rest_count), dtype=np.int64)
                early = _codeword_indices(self.early_table, partial | h << len(self.rest))
                z = np.zeros((len(partial), nx), dtype=z_values.dtype)
                for i, index in enumerate(early):
                    z |= state[index] * z_values.dtype.type(1 << i)
                # (partial, symbol, z', x): x's weight in the row of its z'
                left = (z[:, None, None, :] == z_values) * weights[:, None, :]
                marginal = left.sum(axis=3).astype(np.int64)[..., None]
                left = left.reshape(-1, nx)
                shape = (len(partial), symbols, -1)
                for f in range(0, completions, block_f):
                    columns = np.arange(f, min(f + block_f, completions), dtype=np.int64)
                    index = base | _codeword_indices(self.fresh_table, columns)[0]
                    # (x, completion): x's codeword bit at output m - 1's index
                    right = state[index].T.astype(np.float64)
                    ones = (left @ right).astype(np.int64).reshape(marginal.shape[:3] + (-1,))
                    yield (marginal - ones).reshape(shape)  # c(z', 0)
                    yield ones.reshape(shape)  # c(z', 1)
