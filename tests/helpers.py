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


def ref_greedy_weak_design(num_sets, set_size, rho=2, t_initial=None):
    """(universe size, sets, certified ratio) of the greedy weak design,
    drawing and scoring one candidate at a time with exact Fractions."""
    rho = Fraction(rho)
    t = t_initial if t_initial is not None else 4 * set_size
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
