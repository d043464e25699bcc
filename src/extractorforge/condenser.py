"""Strong lossless condenser built from iterated polynomial powering.

The source is read as a polynomial f of degree below n_tilde over GF(2^w).
A seed y in GF(2^w) maps to the output symbols f^(h^i)(y) mod E for
i = 0 .. m' - 1, where h is a power of two and E, monic irreducible of
degree n_tilde, is checked by :class:`CondenserSpec` (built or read from
JSON).  The strong form appends the seed.

Parameter resolution, smallest field width w such that

  * the source fits: n_tilde = ceil(n / w) <= 2^w,
  * h = 2^ceil(log2(max(2, 2 n_tilde / eps))) and
    w >= ceil(log2(n_tilde * h^2 / eps)),
  * (2^k - 1) * (n_tilde - 1) <= eps * 2^w,
  * m' = min(ceil((k + 2 ceil(log2(1/eps))) / w) + 1, n_tilde) gives
    m' * w <= (1 + alpha) * k + w.

k <= m' * w needs no check of its own: n_tilde = 1 puts the whole source,
and so k, in one w-bit symbol, and n_tilde >= 2 makes the third inequality
force 2^k - 1 < 2^w.  Every spec, built here or read from JSON, is checked
against these inequalities, with 0 < k <= n, alpha > 0 and 0 < eps < 1.

The third inequality is what makes the unique-neighbor check a theorem at
desk scale rather than an empirical hope: two distinct source polynomials
already agree on coordinate i = 0 for at most n_tilde - 1 seeds, so a union
bound over the support caps the colliding fraction of (x, y) pairs by
(2^k - 1)(n_tilde - 1) / 2^w <= eps, for every support of size 2^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString
from .errors import InfeasibleParameterError, check_rules
from .gf2 import horner, split_symbols
from .poly import FieldPoly, find_irreducible, poly_irreducible, pow_mod_rows

_MAX_SEED_WIDTH = 24


@dataclass(frozen=True)
class CondenserSpec:
    """A resolved condenser.  Stored: n, k, eps, alpha, h, m' and E.
    Derived: the field width w is E's field and the message symbol count
    n_tilde is E's degree."""

    n: int
    k: int
    epsilon: Fraction
    alpha: Fraction
    power: int
    output_symbols: int
    modulus: FieldPoly

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        _check_condenser_inputs(self.n, self.k, self.epsilon, self.alpha)
        check_rules(
            (self.power >= 2 and self.power & (self.power - 1) == 0,
             f"power must be a power of two >= 2, got {self.power}", "h a power of two >= 2"),
            (1 <= self.output_symbols <= self.message_symbols,
             "output symbols must be in [1, message symbols]", "1 <= m' <= n_tilde"),
            (self.n <= self.message_symbols * self.field_width,
             f"a {self.n}-bit source does not fit in {self.message_symbols} "
             f"symbols of {self.field_width} bits", "n <= n_tilde * w"),
        )
        # apart, so that E is tested only once the counts above hold
        check_rules((self.modulus.coeffs[-1] == 1 and poly_irreducible(self.modulus),
                     "modulus E must be monic and irreducible over GF(2^w)", "E monic irreducible"))
        violated = _violated_constraint(
            self.k, self.epsilon, self.alpha, self.field_width, self.message_symbols,
            self.power, self.output_symbols,
        )
        check_rules((violated is None, f"condenser parameters break {violated}", violated))

    @property
    def field_width(self) -> int:
        return self.modulus.width

    @property
    def message_symbols(self) -> int:
        return self.modulus.degree

    @property
    def seed_bits(self) -> int:
        return self.field_width

    @property
    def output_bits(self) -> int:
        return self.output_symbols * self.field_width


def _ceil_log2(value: Fraction) -> int:
    """ceil(log2(value)) for value > 0, which every caller's rules ensure."""
    bits = 0
    while (1 << bits) < value:
        bits += 1
    return bits


def _check_condenser_inputs(n: int, k: int, epsilon: Fraction, alpha: Fraction) -> None:
    """The input rules, which the builder and every spec, built or read, check."""
    check_rules(
        (0 < k <= n, f"need 0 < k <= n, got k={k}, n={n}", "0 < k <= n"),
        (alpha > 0, f"alpha must be positive, got {alpha}", "alpha > 0"),
        (0 < epsilon < 1, f"epsilon must be in (0, 1), got {epsilon}", "0 < epsilon < 1"),
    )


def _violated_constraint(
    k: int, epsilon: Fraction, alpha: Fraction, w: int, n_tilde: int, h: int, m_out: int
) -> str | None:
    """The first of the documented inequalities on (w, h, m') that these
    values break, or None; the builder and every spec, built or read, check
    the same ones."""
    if w < _ceil_log2(Fraction(n_tilde * h * h) / epsilon):
        return "w >= log2(n_tilde * h^2 / eps)"
    if ((1 << k) - 1) * (n_tilde - 1) > epsilon * (1 << w):
        return "(2^k - 1)(n_tilde - 1) <= eps * 2^w"
    if m_out * w > (1 + alpha) * k + w:
        return "m' * w <= (1 + alpha) k + w"
    return None


def build_condenser(
    n: int, k: int, epsilon: Fraction | float, alpha: Fraction | float
) -> CondenserSpec:
    """Smallest-seed spec satisfying the documented inequalities."""
    epsilon = Fraction(epsilon)
    alpha = Fraction(alpha)
    _check_condenser_inputs(n, k, epsilon, alpha)
    log_eps_inv = _ceil_log2(1 / epsilon)
    last_failure = "no width fits the source"
    for w in range(2, _MAX_SEED_WIDTH + 1):
        n_tilde = -(-n // w)
        if n_tilde > 1 << w:
            continue
        h = 1 << _ceil_log2(max(Fraction(2), Fraction(2 * n_tilde) / epsilon))
        m_out = min(-(-(k + 2 * log_eps_inv) // w) + 1, n_tilde)
        violated = _violated_constraint(k, epsilon, alpha, w, n_tilde, h, m_out)
        if violated:
            last_failure = violated
            continue
        return CondenserSpec(
            n=n,
            k=k,
            epsilon=epsilon,
            alpha=alpha,
            power=h,
            output_symbols=m_out,
            modulus=find_irreducible(w, n_tilde),
        )
    raise InfeasibleParameterError(
        f"no feasible condenser for n={n}, k={k}, eps={epsilon}, alpha={alpha}; "
        f"last violated constraint: {last_failure}",
        constraint=last_failure,
    )


def _residue_rows(spec: CondenserSpec, xs: list[int]):
    """For i = 0 .. m' - 1, the rows f^(h^i) mod E of every source in xs,
    lowest degree first; each power is log2(h) squarings of the last."""
    w = spec.field_width
    low = np.array(spec.modulus.coeffs[:-1], dtype=np.intp)
    rows = split_symbols(xs, w, spec.message_symbols)
    for i in range(spec.output_symbols):
        if i:
            rows = pow_mod_rows(rows, spec.power, low, w)
        yield rows


def guv_condense(spec: CondenserSpec, x: BitString, y: BitString) -> BitString:
    """Output symbols f^(h^i)(y), concatenated least-significant-symbol first:
    one :func:`horner` call evaluates the m' residue rows of x at y."""
    if len(y) != spec.seed_bits:
        raise ValueError(f"seed is {len(y)} bits, spec wants {spec.seed_bits}")
    if len(x) != spec.n:
        raise ValueError(f"source is {len(x)} bits, spec wants {spec.n}")
    w = spec.field_width
    rows = np.concatenate(list(_residue_rows(spec, [x.to_int()])))
    symbols = horner(rows, [y.to_int()], w)[:, 0].tolist()
    return BitString(sum(s << (i * w) for i, s in enumerate(symbols)), spec.output_bits)


def strong_form(spec: CondenserSpec, x: BitString, y: BitString) -> BitString:
    """Condensed output with the seed appended."""
    return guv_condense(spec, x, y) + y


class StrongCondenserMap:
    """Callable (x, y) -> C(x, y) || y, with the seed-major image table of
    :func:`oracle.image_counts`."""

    def __init__(self, spec: CondenserSpec):
        self.spec = spec
        self.input_bits = spec.n
        self.seed_bits = spec.seed_bits
        self.output_bits = spec.output_bits + spec.seed_bits

    def __call__(self, x: BitString, y: BitString) -> BitString:
        return strong_form(self.spec, x, y)

    def prepare_batch(self, xs: list[int]) -> list[np.ndarray] | None:
        """The residue rows f^(h^i) mod E of every source in xs, one
        (len(xs), n_tilde) array per output symbol, for :meth:`image_table`.
        None, which sends :func:`oracle.image_counts` to the per-pair path,
        when the packed image does not fit in a signed 64-bit integer."""
        if self.output_bits > 62:
            return None
        return list(_residue_rows(self.spec, xs))

    def image_table(self, state: list[np.ndarray], seeds: np.ndarray) -> np.ndarray:
        """Packed strong-form images for every (seed, x), seed-major: shape
        (len(seeds), len(xs)) int64, xs the sources of
        ``state = prepare_batch(xs)``.

        Entry [j, i] equals strong_form(spec, x_i, seeds[j]).to_int(), so
        the seed fills the bits above the condensed output and the images
        of two seeds never collide.  Each output symbol is one kernel call
        over every (source, seed) pair; the symbols are joined source-major
        in int32 where the condensed output fits, and the seed is added in
        the one pass that turns the table seed-major.
        """
        spec = self.spec
        w = spec.field_width
        ys = np.asarray(seeds, dtype=np.int64)
        dtype = np.int32 if spec.output_bits < 32 else np.int64
        condensed = np.zeros((len(state[0]), len(ys)), dtype)
        for i, rows in enumerate(state):
            condensed |= np.left_shift(horner(rows, ys, w), i * w, dtype=condensed.dtype)
        return np.bitwise_or(condensed.T, (ys << spec.output_bits)[:, None], order="C")
