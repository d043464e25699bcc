"""Independent reference implementations used as test oracles.

Everything here is deliberately written differently from the package code:
list-based polynomial arithmetic, trial-division irreducibility, explicit
matrices.  Tests compare package results against these.
"""

import itertools
from fractions import Fraction

from extractorforge import designs
from extractorforge.bits import BitString
from extractorforge.detrand import CounterRng
from extractorforge.gf2 import field_modulus, get_field


def ref_gf2x_mul(a: int, b: int) -> int:
    """Product of GF(2) polynomials via explicit exponent sets."""
    result = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            for j in range(b.bit_length()):
                if (b >> j) & 1:
                    result ^= 1 << (i + j)
    return result


def ref_gf2x_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def trial_division_irreducible(f: int) -> bool:
    """Irreducibility by scanning all candidate divisors of degree <= deg/2."""
    degree = f.bit_length() - 1
    if degree < 1:
        return False
    for d in range(2, 1 << (degree // 2 + 1)):
        if d.bit_length() - 1 < 1:
            continue
        if ref_gf2x_mod(f, d) == 0:
            return False
    return True


def ref_field_mul(a: int, b: int, width: int, modulus: int) -> int:
    return ref_gf2x_mod(ref_gf2x_mul(a, b), modulus)


def ref_horner(coeffs: list[int], x: int, width: int) -> int:
    """p(x) over GF(2^w) for coefficients lowest degree first, with every
    product taken by :func:`ref_field_mul`."""
    modulus = field_modulus(width)
    acc = 0
    for c in reversed(coeffs):
        acc = ref_field_mul(acc, x, width, modulus) ^ c
    return acc


def ref_code_bit(width: int, symbols: int, x: int, index: int) -> int:
    """Bit ``index`` = alpha * 2^w + z of message x's codeword: the parity
    of p_x(alpha) AND z, with p_x(alpha) by :func:`ref_horner`."""
    q = 1 << width
    coeffs = [(x >> (i * width)) % q for i in range(symbols)]
    return bin(ref_horner(coeffs, index >> width, width) & index % q).count("1") % 2


def ref_poly_divmod(num: list[int], den: list[int], width: int):
    """Long division of coefficient lists (lowest degree first) over GF(2^w)."""
    field = get_field(width)

    def deg(p):
        d = len(p) - 1
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    num = list(num)
    dn, dd = deg(num), deg(den)
    if dd < 0:
        raise ZeroDivisionError
    quot = [0] * (max(dn - dd + 1, 1))
    inv_lead = field.inv(den[dd])
    while deg(num) >= dd:
        dn = deg(num)
        factor = field.mul(num[dn], inv_lead)
        shift = dn - dd
        quot[shift] = factor
        for i in range(dd + 1):
            num[shift + i] ^= field.mul(factor, den[i])
    return quot, num


def ref_poly_mul(p: list[int], q: list[int], width: int) -> list[int]:
    """Schoolbook product of coefficient lists over GF(2^w)."""
    field = get_field(width)
    out = [0] * (len(p) + len(q) - 1 if p and q else 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= field.mul(a, b)
    return out


def ref_poly_pow_mod(f: list[int], e: int, modulus: list[int], width: int) -> list[int]:
    """f^e mod modulus by plain repeated multiplication (no squaring trick)."""
    result = [1]
    _, result = ref_poly_divmod(result, modulus, width)
    for _ in range(e):
        result = ref_poly_mul(result, f, width)
        _, result = ref_poly_divmod(result, modulus, width)
    # strip trailing zeros for comparison
    while len(result) > 0 and result[-1] == 0:
        result.pop()
    return result


def ref_poly_irreducible(coeffs: list[int], width: int) -> bool:
    """Irreducibility over GF(2^w) of the polynomial with these coefficients
    (lowest degree first) by trial division by every monic polynomial of
    degree 1 .. deg/2."""
    degree = max((i for i, c in enumerate(coeffs) if c), default=-1)
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for low in itertools.product(range(1 << width), repeat=d):
            _, rem = ref_poly_divmod(coeffs, list(low) + [1], width)
            if not any(rem):
                return False
    return True


def ref_codeword(width: int, symbols: int, x: int) -> list[int]:
    """Full concatenated codeword for message x, one bit per index."""
    field = get_field(width)
    q = 1 << width
    coeffs = [(x >> (i * width)) & (q - 1) for i in range(symbols)]
    bits = []
    for alpha in range(q):
        value = 0
        for c in reversed(coeffs):
            value = field.mul(value, alpha) ^ c
        for z in range(q):
            bits.append(bin(value & z).count("1") % 2)
    return bits


def ref_toeplitz_matrix(seed_bits: list[int], n: int, m: int) -> list[list[int]]:
    return [[seed_bits[i - j + n - 1] for j in range(n)] for i in range(m)]


def ref_matrix_vector(matrix: list[list[int]], x_bits: list[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x_bits)) % 2 for row in matrix]


def ref_joint_seed_output_distance(extract, n_support, t, m, support):
    """Exact distance of (Y, E(X, Y)) from uniform by direct enumeration,
    written independently of the oracle module."""
    counts = {}
    for x in support:
        for y in range(1 << t):
            e = extract(x, BitString(y, t)).to_int()
            counts[(y, e)] = counts.get((y, e), 0) + 1
    total_pairs = len(support) * (1 << t)
    uniform = Fraction(1, (1 << t) * (1 << m))
    dist = Fraction(0)
    for y in range(1 << t):
        for e in range(1 << m):
            p = Fraction(counts.get((y, e), 0), total_pairs)
            dist += abs(p - uniform)
    return dist / 2


def grid_min_distance_to_capped(probs: list[Fraction], kappa: int, steps: int):
    """Brute-force minimum distance from ``probs`` to any distribution with
    min-entropy >= kappa, over a simplex grid with the given resolution.

    The candidate domain is the original outcomes plus enough fresh outcomes
    to hold the displaced mass.  Exhaustive over compositions of ``steps``.
    """
    cap = Fraction(1, 1 << kappa)
    extra = max(0, (1 << kappa) - len(probs))
    domain = len(probs) + extra
    best = None

    def compositions(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in compositions(remaining - first, slots - 1):
                yield (first,) + rest

    for combo in compositions(steps, domain):
        candidate = [Fraction(c, steps) for c in combo]
        if any(p > cap for p in candidate):
            continue
        dist = (
            sum(
                abs(candidate[i] - (probs[i] if i < len(probs) else Fraction(0)))
                for i in range(domain)
            )
            / 2
        )
        if best is None or dist < best:
            best = dist
    return best


def ref_flat_decomposition(dist) -> list[tuple[Fraction, tuple]]:
    """A distribution as a convex combination of uniform distributions:
    outcomes by decreasing probability, ties by repr, level i weighing
    i * (p_i - p_(i+1)) on the top-i outcomes, and levels of weight 0 left
    out.  The weights are exact and sum to one."""
    ordered = sorted(dist.items(), key=lambda op: (-op[1], repr(op[0])))
    probs = [p for _, p in ordered] + [Fraction(0)]
    return [
        (i * (probs[i - 1] - probs[i]), tuple(o for o, _ in ordered[:i]))
        for i in range(1, len(ordered) + 1)
        if probs[i - 1] != probs[i]
    ]


def ref_side_distance(extract, t, m, joint):
    """Exact distance of (Y, E(X, Y), S) from (uniform, uniform, S) for a
    joint distribution given as {(x, s): probability}, by direct enumeration
    of every seed, output and symbol; written independently of the oracle
    module.  A source without side information is a joint table with one
    symbol."""
    side = {}
    for (_, s), p in joint.items():
        side[s] = side.get(s, Fraction(0)) + Fraction(p)
    probs = {}
    for (x, s), p in joint.items():
        for y in range(1 << t):
            e = extract(x, BitString(y, t)).to_int()
            key = (y, e, s)
            probs[key] = probs.get(key, Fraction(0)) + Fraction(p) / (1 << t)
    cell = Fraction(1, (1 << t) * (1 << m))
    dist = Fraction(0)
    for y in range(1 << t):
        for e in range(1 << m):
            for s, ps in side.items():
                dist += abs(probs.get((y, e, s), Fraction(0)) - ps * cell)
    return dist / 2


def ref_sample_distinct(rng: CounterRng, count: int, n: int) -> tuple[int, ...]:
    """``count`` distinct values from [0, n) in draw order, one scalar
    ``below`` call at a time."""
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        v = rng.below(n)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def _ref_mask(s) -> int:
    m = 0
    for v in s:
        m |= 1 << v
    return m


def ref_design_stats(sets) -> tuple[int, Fraction]:
    """(max pairwise overlap, max over i of sum(2^|S_i & S_j|, j < i) / (m - 1))
    by bitmask intersection, one pair at a time, in Python ints."""
    masks = [_ref_mask(s) for s in sets]
    max_overlap, max_weak = 0, 0
    for i in range(1, len(masks)):
        overlaps = [(masks[i] & masks[j]).bit_count() for j in range(i)]
        max_overlap = max(max_overlap, *overlaps)
        max_weak = max(max_weak, sum(1 << ov for ov in overlaps))
    return max_overlap, Fraction(max_weak, max(len(masks) - 1, 1))


def ref_trevisan_extract(spec, x: int, y: int) -> int:
    """Trevisan output by the definition, one bit at a time: bit i is the
    parity of p_x(alpha) AND z, where the seed bits at design set i, read
    low bit first, give the index alpha * 2^w + z, and p_x(alpha) is taken
    by :func:`ref_horner`."""
    w = spec.code.field_width
    coeffs = [(x >> (i * w)) & ((1 << w) - 1) for i in range(spec.code.message_symbols)]
    out = 0
    for i in range(spec.m):
        index = sum(((y >> pos) & 1) << k for k, pos in enumerate(spec.design.sets[i]))
        alpha, z = index >> w, index & ((1 << w) - 1)
        out |= (bin(ref_horner(coeffs, alpha, w) & z).count("1") & 1) << i
    return out


def ref_guv_condense(spec, x: int, y: int) -> int:
    """Condenser output symbols f^(h^i) mod E at y, by plain repeated
    multiplication and :func:`ref_horner`, lowest symbol first."""
    w = spec.field_width
    coeffs = [(x >> (i * w)) & ((1 << w) - 1) for i in range(spec.message_symbols)]
    out = 0
    for i in range(spec.output_symbols):
        residue = ref_poly_pow_mod(coeffs, spec.power**i, list(spec.modulus.coeffs), w)
        out |= ref_horner(residue, y, w) << (i * w)
    return out


def ref_greedy_weak_design(num_sets, set_size, rho=2):
    """(universe size, sets, certified ratio) of the greedy weak design,
    drawing and scoring one candidate at a time with exact Fractions."""
    rho = Fraction(rho)
    t = 4 * set_size
    bound = rho * (num_sets - 1)
    for _ in range(designs._GREEDY_MAX_DOUBLINGS):
        sets, masks = [], []
        max_ratio = Fraction(0)
        ok = True
        for i in range(num_sets):
            accepted = None
            for trial in range(designs._GREEDY_TRIALS_PER_SET):
                rng = CounterRng(designs._GREEDY_STREAM_KEY, t, i, trial)
                candidate = tuple(sorted(ref_sample_distinct(rng, set_size, t)))
                cmask = _ref_mask(candidate)
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
                max_ratio = max(max_ratio, Fraction(weak_sum, num_sets - 1))
        if ok:
            return t, tuple(sets), max_ratio
        t *= 2
    raise ValueError("no weak design within the doubling budget")


def ref_lemma_checks(table, prefix_bits):
    """(name, lhs, rhs, note) of the storage-bound, suffix-cut and
    bad-prefix-mass checks of ``lemma_suite``, by brute force over every
    (x, s) of ``table.items()``; the prefix is the low ``prefix_bits`` bits
    of x.  The bad-prefix check reports the largest threshold v at which
    v Pr[g(X1) >= v] > rhs if there is one, else the threshold with the
    largest lhs (the larger v on ties)."""
    n = table.n
    joint = dict(table.items())
    symbols = {s for (_, s), p in joint.items() if p}
    suffix_bits = n - prefix_bits

    def prob(x, s):
        return joint.get((BitString(x, n), s), Fraction(0))

    def completions(x1):
        return [x1 | x2 << prefix_bits for x2 in range(1 << suffix_bits)]

    guess_full = sum(max(prob(x, s) for x in range(1 << n)) for s in symbols)
    max_x = max(sum(prob(x, s) for s in symbols) for x in range(1 << n))
    guess_prefix = sum(
        max(sum(prob(x, s) for x in completions(x1)) for x1 in range(1 << prefix_bits))
        for s in symbols
    )
    rhs = (1 << prefix_bits) * guess_full
    masses, guesses = [], []
    for x1 in range(1 << prefix_bits):
        mass = sum(prob(x, s) for x in completions(x1) for s in symbols)
        if mass:
            best = sum(max(prob(x, s) for x in completions(x1)) for s in symbols)
            masses.append(mass)
            guesses.append(best / mass)
    candidates = [
        (v * sum(mass for mass, g in zip(masses, guesses) if g >= v), v) for v in set(guesses)
    ]
    violated = [(lhs, v) for lhs, v in candidates if lhs > rhs]
    if violated:
        lhs, v = max(violated, key=lambda c: c[1])
        bad = ("bad_prefix_mass", lhs, rhs, f"violated at v={v}")
    else:
        lhs, v = max(candidates)
        bad = ("bad_prefix_mass", lhs, rhs, f"tightest threshold v={v}")
    return [
        ("storage_bound", guess_full, len(symbols) * max_x, f"alphabet size {len(symbols)}"),
        (
            "suffix_cut",
            guess_prefix,
            (1 << suffix_bits) * guess_full,
            f"suffix of {suffix_bits} bits",
        ),
        bad,
    ]
