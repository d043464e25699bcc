"""Set families that drive seed restriction in the design-based extractor.

Two constructions are provided.  The polynomial design evaluates low-degree
polynomials over a small binary field and guarantees pairwise overlaps of at
most degree-bound minus one.  The greedy weak design accepts candidate sets
only while the weak-design sum stays within its bound, so the returned
family satisfies the bound by construction; ``verify_design`` recertifies
either kind from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bits import BitString
from .detrand import CounterRng
from .errors import InfeasibleParameterError
from .gf2 import horner, split_symbols

STANDARD = "standard"
WEAK = "weak"

# Fixed key for the greedy candidate stream; changing it changes every weak
# design, so treat it as part of the construction's definition.
_GREEDY_STREAM_KEY = 0x57EACDE5

_GREEDY_TRIALS_PER_SET = 256
_GREEDY_MAX_DOUBLINGS = 16


@dataclass(frozen=True)
class Design:
    """A family of equal-size subsets of [0, universe_size).

    ``certified_overlap`` stores the statistic the construction promises:
    the maximum pairwise intersection size for a standard design, or the
    maximum over i of sum(2^|S_i intersect S_j|, j < i) / (m - 1) for a weak
    design.  ``verify_design`` recomputes it independently.
    """

    universe_size: int
    set_size: int
    kind: str
    sets: tuple[tuple[int, ...], ...]
    certified_overlap: Fraction

    def __post_init__(self):
        if self.kind not in (STANDARD, WEAK):
            raise ValueError(f"unknown design kind {self.kind!r}")
        object.__setattr__(self, "certified_overlap", Fraction(self.certified_overlap))

    @property
    def num_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class DesignReport:
    max_overlap: int
    max_weak_sum_ratio: Fraction
    valid: bool
    reason: str | None = None


def _sets_well_formed(universe_size, set_size, sets) -> str | None:
    for idx, s in enumerate(sets):
        if len(s) != set_size:
            return f"set {idx} has {len(s)} elements, expected {set_size}"
        if len(set(s)) != len(s):
            return f"set {idx} has repeated elements"
        if list(s) != sorted(s):
            return f"set {idx} is not sorted"
        if s and (s[0] < 0 or s[-1] >= universe_size):
            return f"set {idx} leaves the universe [0, {universe_size})"
    return None


def _design_stats(sets, universe_size) -> tuple[int, Fraction]:
    """Exhaustive (max pairwise overlap, max weak-sum ratio) for a family.

    Uses an incidence-matrix product, which is exact for the integer counts
    involved; integers stay far below 2^53 so the float path is lossless.
    """
    m = len(sets)
    if m <= 1:
        return 0, Fraction(0)
    set_size = len(sets[0])
    # The float path is used only while every intermediate integer is
    # exactly representable in float64.
    if universe_size > 0 and (m - 1) * (1 << min(set_size, 60)) < 2**53:
        incidence = np.zeros((m, universe_size), dtype=np.float32)
        for i, s in enumerate(sets):
            incidence[i, list(s)] = 1.0
        overlaps = np.rint(incidence @ incidence.T).astype(np.int64)
        off_diag = overlaps[~np.eye(m, dtype=bool)]
        max_overlap = int(off_diag.max()) if off_diag.size else 0
        powers = np.exp2(overlaps.astype(np.float64))
        weak_sums = np.tril(powers, k=-1).sum(axis=1)
        max_weak = int(np.rint(weak_sums.max()))
    else:
        masks = [_mask(s) for s in sets]
        max_overlap = 0
        max_weak = 0
        for i in range(1, m):
            mi = masks[i]
            weak_sum = 0
            for j in range(i):
                ov = (mi & masks[j]).bit_count()
                if ov > max_overlap:
                    max_overlap = ov
                weak_sum += 1 << ov
            if weak_sum > max_weak:
                max_weak = weak_sum
    return max_overlap, Fraction(max_weak, m - 1)


def verify_design(design: Design) -> DesignReport:
    """Recompute overlap statistics exhaustively and compare with the
    certified values.  O(m^2 * l); never trusts the construction."""
    reason = _sets_well_formed(design.universe_size, design.set_size, design.sets)
    if reason is not None:
        return DesignReport(0, Fraction(0), False, reason)

    max_overlap, max_ratio = _design_stats(design.sets, design.universe_size)
    expected = Fraction(max_overlap) if design.kind == STANDARD else max_ratio
    if expected != design.certified_overlap:
        return DesignReport(
            max_overlap,
            max_ratio,
            False,
            f"certified overlap {design.certified_overlap} but recomputed {expected}",
        )
    return DesignReport(max_overlap, max_ratio, True)


def build_poly_design(num_sets: int, set_size: int) -> Design:
    """Standard design from graphs of low-degree polynomials over GF(q).

    q is the smallest power of two with q >= set_size and c the smallest
    degree bound with q^c >= num_sets.  Set p is the graph of the polynomial
    whose coefficients are the base-q digits of p, restricted to the first
    set_size evaluation points; the pair (b, p(b)) is encoded as b*q + p(b).
    Distinct polynomials of degree < c agree on at most c-1 points, so
    pairwise overlaps are at most c-1.
    """
    if num_sets < 1 or set_size < 1:
        raise ValueError("need num_sets >= 1 and set_size >= 1")
    q_width = max(1, (set_size - 1).bit_length())
    q = 1 << q_width
    c = 1
    while q**c < num_sets:
        c += 1
    coeffs = np.array([split_symbols(index, q_width, c) for index in range(num_sets)])
    points = np.arange(set_size)
    # b q + p(b) rises with b, so each row is already sorted
    members = points * q + horner(coeffs, points, q_width)
    sets = [tuple(row) for row in members.tolist()]

    max_overlap, _ = _design_stats(sets, q * q)
    design = Design(
        universe_size=q * q,
        set_size=set_size,
        kind=STANDARD,
        sets=tuple(sets),
        certified_overlap=Fraction(max_overlap),
    )
    report = verify_design(design)
    if not report.valid:
        raise AssertionError(f"polynomial design failed self-check: {report.reason}")
    return design


def _mask(s: Sequence[int]) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def build_greedy_weak_design(
    num_sets: int,
    set_size: int,
    rho: Fraction | int = 2,
    t_initial: int | None = None,
) -> Design:
    """Weak design by greedy acceptance over a deterministic candidate stream.

    Candidate sets are drawn from the counter-based stream keyed by the
    universe size, the set index, and the trial number.  A candidate is kept
    only if sum(2^|S_i intersect S_j|, j < i) <= rho * (num_sets - 1); if no
    candidate passes within the trial budget the universe doubles and the
    construction restarts.  The returned design therefore satisfies the weak
    bound by construction, and is recertified before being returned.
    """
    rho = Fraction(rho)
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    if num_sets < 1 or set_size < 1:
        raise ValueError("need num_sets >= 1 and set_size >= 1")
    t = t_initial if t_initial is not None else 4 * set_size
    if t < set_size:
        raise ValueError(f"universe {t} smaller than set size {set_size}")
    bound = rho * (num_sets - 1)

    for _ in range(_GREEDY_MAX_DOUBLINGS):
        sets: list[tuple[int, ...]] = []
        masks: list[int] = []
        max_ratio = Fraction(0)
        ok = True
        for i in range(num_sets):
            accepted = None
            for trial in range(_GREEDY_TRIALS_PER_SET):
                rng = CounterRng(_GREEDY_STREAM_KEY, t, i, trial)
                candidate = tuple(sorted(rng.sample_distinct(set_size, t)))
                cmask = _mask(candidate)
                weak_sum = sum(1 << (cmask & m).bit_count() for m in masks)
                if Fraction(weak_sum) <= bound:
                    accepted = (candidate, cmask, weak_sum)
                    break
            if accepted is None:
                ok = False
                break
            candidate, cmask, weak_sum = accepted
            sets.append(candidate)
            masks.append(cmask)
            if num_sets > 1:
                ratio = Fraction(weak_sum, num_sets - 1)
                if ratio > max_ratio:
                    max_ratio = ratio
        if ok:
            design = Design(
                universe_size=t,
                set_size=set_size,
                kind=WEAK,
                sets=tuple(sets),
                certified_overlap=max_ratio,
            )
            report = verify_design(design)
            if not report.valid:
                raise AssertionError(
                    f"greedy weak design failed self-check: {report.reason}"
                )
            return design
        t *= 2
    raise InfeasibleParameterError(
        f"no weak design found for m={num_sets}, l={set_size}, rho={rho} "
        f"within {_GREEDY_MAX_DOUBLINGS} universe doublings",
        constraint="weak design trial budget",
    )


def restrict_seed(y: BitString, positions: Sequence[int]) -> int:
    """Read the bits of y at the given positions (ascending) into an integer,
    first position into bit 0."""
    value = 0
    last = -1
    for k, pos in enumerate(positions):
        if pos <= last:
            raise ValueError("positions must be strictly ascending")
        last = pos
        value |= y[pos] << k
    return value
