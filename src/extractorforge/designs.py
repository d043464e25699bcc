"""Set families that drive seed restriction in the design-based extractor.

Two constructions are provided.  The polynomial design evaluates low-degree
polynomials over a small binary field and guarantees pairwise overlaps of at
most degree-bound minus one.  The greedy weak design accepts candidate sets
only while the weak-design sum stays within its bound, so the returned
family satisfies the bound by construction; ``verify_design`` recertifies
either kind from scratch.

Every design, built or read from JSON, must have m >= 1 sets of l >= 1
sorted, distinct elements of [0, t) and a known kind; the builders check m,
l and the kind by the same rule function before they search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bits import BitString
from .detrand import CounterRng, sample_distinct_rows
from .errors import InfeasibleParameterError, check_rules
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
        object.__setattr__(self, "certified_overlap", Fraction(self.certified_overlap))
        _check_design(self.num_sets, self.set_size, self.kind, self.universe_size, self.sets)

    @property
    def num_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class DesignReport:
    max_overlap: int
    max_weak_sum_ratio: Fraction
    valid: bool
    reason: str | None = None


def _check_design(num_sets: int, set_size: int, kind: str, universe_size: int = 0,
                  sets=()) -> None:
    """The design rules, which the builders check before searching and
    every design, built or read, on construction."""
    check_rules(
        (num_sets >= 1 and set_size >= 1, "need num_sets >= 1 and set_size >= 1",
         "m >= 1 and l >= 1"),
        (kind in (STANDARD, WEAK), f"unknown design kind {kind!r}", "standard or weak kind"),
    )
    for idx, s in enumerate(sets):
        check_rules(
            (len(s) == set_size, f"set {idx} has {len(s)} elements, expected {set_size}",
             "|S_i| = l"),
            (len(set(s)) == len(s), f"set {idx} has repeated elements", "distinct elements"),
            (list(s) == sorted(s), f"set {idx} is not sorted", "sorted sets"),
            (not s or 0 <= s[0] and s[-1] < universe_size,
             f"set {idx} leaves the universe [0, {universe_size})", "S_i in [0, t)"),
        )


def _exact_powers(num_sets: int, set_size: int) -> np.ndarray:
    """2^k for k = 0 .. set_size, exact for every weak sum of num_sets sets:
    such a sum is an integer of at most (num_sets - 1) 2^set_size, so int64
    while that stays below 2^63, and Python ints past it."""
    most = (num_sets - 1) << set_size
    return np.array(
        [1 << k for k in range(set_size + 1)], dtype=np.int64 if most < 1 << 63 else object
    )


# Sets per side of one tile of _design_stats: a tile's scratch is two
# incidence blocks of _STATS_TILE x (elements held) float32 and a few
# _STATS_TILE^2 arrays, whatever the set count.
_STATS_TILE = 512


def _design_stats(sets) -> tuple[int, Fraction]:
    """Exhaustive (max pairwise overlap, max weak-sum ratio) for a family
    of equal-size sets.

    Overlaps come from products of incidence rows over the elements the
    sets hold (not the whole universe, which a spec may state as 2^40), one
    tile of sets i against sets j <= i at a time, and float32 holds them
    exactly: every partial sum is an integer of at most the set size, far
    below 2^24.  Weak sums add exact powers 2^overlap over j < i.
    """
    m = len(sets)
    if m <= 1:
        return 0, Fraction(0)
    elements, columns = np.unique(np.array(sets), return_inverse=True)
    columns = columns.reshape(m, -1)
    powers = _exact_powers(m, columns.shape[1])

    def incidence(start):
        block = columns[start : start + _STATS_TILE]
        rows = np.zeros((len(block), len(elements)), dtype=np.float32)
        rows[np.arange(len(block))[:, None], block] = 1.0
        return rows

    max_overlap, max_sum = 0, 0
    for i in range(0, m, _STATS_TILE):
        rows, weak_sums = incidence(i), 0
        for j in range(0, i + 1, _STATS_TILE):
            overlaps = np.rint(rows @ incidence(j).T).astype(np.int64)
            below = np.tri(*overlaps.shape, k=-1, dtype=bool) if j == i else True
            max_overlap = max(max_overlap, int(np.where(below, overlaps, 0).max()))
            weak_sums = weak_sums + np.where(below, powers[overlaps], 0).sum(axis=1)
        max_sum = max(max_sum, int(weak_sums.max()))
    return max_overlap, Fraction(max_sum, m - 1)


def verify_design(design: Design) -> DesignReport:
    """Recompute overlap statistics exhaustively and compare with the
    certified values.  O(m^2 * l); never trusts the construction."""
    max_overlap, max_ratio = _design_stats(design.sets)
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
    _check_design(num_sets, set_size, STANDARD)
    q_width = max(1, (set_size - 1).bit_length())
    q = 1 << q_width
    c = 1
    while q**c < num_sets:
        c += 1
    coeffs = split_symbols(range(num_sets), q_width, c)
    points = np.arange(set_size)
    # b q + p(b) rises with b, so each row is already sorted
    members = points * q + horner(coeffs, points, q_width)
    sets = [tuple(row) for row in members.tolist()]

    max_overlap, _ = _design_stats(sets)
    return Design(
        universe_size=q * q,
        set_size=set_size,
        kind=STANDARD,
        sets=tuple(sets),
        certified_overlap=Fraction(max_overlap),
    )


def build_greedy_weak_design(num_sets: int, set_size: int, rho: Fraction | int = 2) -> Design:
    """Weak design by greedy acceptance over a deterministic candidate stream.

    Candidate sets are drawn from the counter-based stream keyed by the
    universe size, the set index, and the trial number.  Set i keeps its
    first candidate, in trial order, with weak sum
    sum(2^|S_i intersect S_j|, j < i) <= rho * (num_sets - 1); if no
    candidate passes within the trial budget the universe, which starts at
    4 * set_size, doubles and the construction restarts.  The returned
    design therefore satisfies the weak bound by construction, and is
    recertified before being returned.

    The candidates are those of the scalar stream, word for word (see
    :mod:`detrand`), and the acceptance rule is unchanged, so every design
    and the final universe size t, which the same failures decide, are those
    of a loop that draws and scores one candidate at a time.  Only the
    order of draws differs: trial 0 of every set is drawn in one block per
    universe, and later trials in growing chunks only for sets whose earlier
    trials fail.  Every candidate is scored the same way, by one gather over
    the incidence of the sets accepted so far; weak sums are integers
    compared with floor(rho * (num_sets - 1)).
    """
    rho = Fraction(rho)
    check_rules((rho >= 1, f"rho must be >= 1, got {rho}", "rho >= 1"))
    _check_design(num_sets, set_size, WEAK)
    t = 4 * set_size
    # a weak sum is an integer of at most (num_sets - 1) 2^set_size, so
    # capping floor(rho (num_sets - 1)) there leaves every comparison as it is
    most = (num_sets - 1) << set_size
    bound = min(rho.numerator * (num_sets - 1) // rho.denominator, most)
    powers = _exact_powers(num_sets, set_size)

    for _ in range(_GREEDY_MAX_DOUBLINGS):
        found = _greedy_sets(num_sets, set_size, t, bound, powers)
        if found is not None:
            sets, max_sum = found
            design = Design(
                universe_size=t,
                set_size=set_size,
                kind=WEAK,
                sets=tuple(map(tuple, sets.tolist())),
                certified_overlap=Fraction(max_sum, max(num_sets - 1, 1)),
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


def _greedy_sets(num_sets, set_size, t, bound, powers) -> tuple[np.ndarray, int] | None:
    """The greedy sets in universe t as a (num_sets, set_size) array, with
    their largest weak sum; None if some set exhausts its trials.  Trials
    after trial 0 are drawn in chunks of 8, 32, 128, ... up to the budget."""
    stream = CounterRng(_GREEDY_STREAM_KEY, t)
    # row i holds set i's trial-0 candidate until set i is chosen
    sets = _candidates(stream.derive_bases(np.arange(num_sets), 0), set_size, t)
    # [e, j] is 1 if element e lies in accepted set j, in a type that holds any overlap
    accepted = np.zeros((t, num_sets), dtype=np.min_scalar_type(set_size))
    max_sum = 0
    for i in range(num_sets):
        candidates, trial, chunk = sets[i : i + 1], 1, 8
        while True:
            overlaps = accepted[candidates, :i].sum(axis=1, dtype=accepted.dtype)
            weak_sums = powers[overlaps].sum(axis=1)
            first = int((weak_sums <= bound).argmax())  # 0 if none passes
            if weak_sums[first] <= bound:
                break
            if trial >= _GREEDY_TRIALS_PER_SET:
                return None
            trials = np.arange(trial, min(trial + chunk, _GREEDY_TRIALS_PER_SET))
            candidates = _candidates(stream.derive_bases(i, trials), set_size, t)
            trial += chunk
            chunk *= 4
        sets[i] = candidates[first]
        accepted[sets[i], i] = 1
        max_sum = max(max_sum, int(weak_sums[first]))
    return sets, max_sum


def _candidates(bases: np.ndarray, set_size: int, t: int) -> np.ndarray:
    """Sorted candidate sets, one row per candidate stream."""
    values, _ = sample_distinct_rows(bases, set_size, t)
    return np.sort(values.astype(np.int64), axis=1)


def restrict_sets(seed: int, sets: Iterable[Sequence[int]]) -> Iterator[int]:
    """For each set of positions, the bits of the int ``seed`` there read
    into an integer, first position into bit 0, each shifted out of it.

    The positions are not checked: they must be nonnegative plain ints, as
    every ``Design``'s are, which the design checks on construction;
    :func:`restrict_seed` checks one set's against its seed's length.
    """
    for positions in sets:
        value = 0
        for k, pos in enumerate(positions):
            value |= ((seed >> pos) & 1) << k
        yield value


def restrict_seed(y: BitString, positions: Sequence[int]) -> int:
    """Read the bits of y at the given positions (ascending) into an integer,
    first position into bit 0.

    Raises ``ValueError`` if the positions are not strictly ascending (so
    also if the first is negative) and ``IndexError`` if one lies at or past
    ``len(y)``, whichever a reader going position by position meets first:
    the check stops at the first position out of order, and the positions
    before it ascend, so one check of the last of them finds any that lies
    past the seed.  Then the bits are read by :func:`restrict_sets`."""
    positions = tuple(positions)  # read twice: checked, then gathered
    last = -1
    ascending = True
    for pos in positions:
        if pos <= last:
            ascending = False
            break
        last = pos
    if last >= len(y):
        raise IndexError(f"bit index {last} out of range [0, {len(y)})")
    if not ascending:
        raise ValueError("positions must be strictly ascending")
    return next(restrict_sets(y.to_int(), (positions,)))
