import dataclasses
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from extractorforge import oracle
from extractorforge.bits import BitString
from extractorforge.condenser import (
    CondenserSpec,
    StrongCondenserMap,
    _residue_rows,
    build_condenser,
    guv_condense,
    strong_form,
)
from extractorforge.detrand import CounterRng
from extractorforge.errors import InfeasibleParameterError
from extractorforge.gf2 import get_field
from extractorforge.oracle import image_counts, injective_fraction, sample_flat_sources
from extractorforge.poly import FieldPoly, find_irreducible
from extractorforge.serialize import spec_digest, spec_from_json, spec_to_json

from helpers import ref_horner, ref_poly_pow_mod


def _manual_spec():
    # w=4, n_tilde=2, h=2, m'=2: small enough to trace by hand, and w is the
    # least that log2(n_tilde h^2 / eps) = 4 allows
    return CondenserSpec(
        n=6,
        k=3,
        epsilon=Fraction(1, 2),
        alpha=Fraction(4),
        power=2,
        output_symbols=2,
        modulus=find_irreducible(4, 2),
    )


def test_constant_message_ignores_seed():
    spec = _manual_spec()
    x = BitString(0b000101, 6)  # only the low symbol is nonzero
    outputs = {guv_condense(spec, x, BitString(y, 4)).to_int() for y in range(16)}
    assert len(outputs) == 1


def test_single_symbol_output_is_one_evaluation():
    spec = CondenserSpec(
        n=6,
        k=2,
        epsilon=Fraction(1, 2),
        alpha=Fraction(4),
        power=2,
        output_symbols=1,
        modulus=find_irreducible(4, 2),
    )
    x = BitString(0b110101, 6)
    for y in range(16):
        out = guv_condense(spec, x, BitString(y, 4))
        assert out.to_int() == ref_horner([0b0101, 0b11], y, 4)


def test_small_instance_matches_naive_powering():
    spec = _manual_spec()
    rng = CounterRng(0x6D4)
    for _ in range(20):
        xv = rng.below(64)
        yv = rng.below(16)
        x = BitString(xv, 6)
        out = guv_condense(spec, x, BitString(yv, 4))
        coeffs = [xv & 15, xv >> 4]
        expected = 0
        for i in range(2):
            power = ref_poly_pow_mod(coeffs, 2**i, list(spec.modulus.coeffs), 4)
            from extractorforge.gf2 import get_field

            field = get_field(4)
            acc = 0
            for c in reversed(power if power else [0]):
                acc = field.mul(acc, yv) ^ c
            expected |= acc << (4 * i)
        assert out.to_int() == expected


def test_residue_rows_chain():
    spec = _manual_spec()
    rows = list(_residue_rows(spec, [0b110101]))
    assert len(rows) == 2
    expect = ref_poly_pow_mod([0b0101, 0b11], 2, list(spec.modulus.coeffs), 4)
    assert rows[1][0].tolist() == expect + [0] * (2 - len(expect))


def test_condense_rejects_wrong_lengths():
    spec = _manual_spec()
    with pytest.raises(ValueError, match="source"):
        guv_condense(spec, BitString(0, 5), BitString(0, 4))
    with pytest.raises(ValueError, match="seed"):
        guv_condense(spec, BitString(0, 6), BitString(0, 3))


def test_strong_form_appends_seed():
    spec = _manual_spec()
    x = BitString(0b011011, 6)
    y = BitString(0b0101, 4)
    sf = strong_form(spec, x, y)
    assert len(sf) == spec.output_bits + spec.seed_bits
    assert sf[spec.output_bits :] == y
    assert sf[0 : spec.output_bits] == guv_condense(spec, x, y)


def test_build_full_entropy_becomes_passthrough():
    spec = build_condenser(10, 10, Fraction(1, 4), Fraction(1, 2))
    assert spec.message_symbols == 1
    assert spec.output_symbols == 1
    assert spec.output_bits == 10
    # single-symbol messages are constants: the output is the input
    for xv in (0, 5, 1023):
        x = BitString(xv, 10)
        for yv in (0, 9):
            assert guv_condense(spec, x, BitString(yv, spec.seed_bits)).to_int() == xv
    cmap = StrongCondenserMap(spec)
    src = sample_flat_sources(10, 4, 1, seed=3)[0]
    assert injective_fraction(cmap, src, spec.seed_bits) == 1


def test_build_desk_scale_instance():
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    assert spec.output_bits <= (1 + spec.alpha) * spec.k + spec.seed_bits
    assert spec.output_bits >= spec.k
    # documented collision budget: support * (n_tilde - 1) <= eps * field
    assert ((1 << spec.k) - 1) * (spec.message_symbols - 1) <= spec.epsilon * (
        1 << spec.field_width
    )


def test_build_epsilon_monotonicity():
    widths = []
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        widths.append(build_condenser(12, 6, eps, 1).field_width)
    assert widths == sorted(widths)


def test_build_rejects_impossible_alpha():
    # n too long for a passthrough width, and alpha too small for the
    # two-symbol output budget
    with pytest.raises(InfeasibleParameterError) as exc:
        build_condenser(40, 8, Fraction(1, 4), Fraction(1, 1000))
    assert "m' * w <= (1 + alpha) k + w" in exc.value.constraint
    # the same shape succeeds once alpha gives the output room
    assert build_condenser(40, 8, Fraction(1, 4), 1).output_bits >= 8


def test_build_validations():
    with pytest.raises(InfeasibleParameterError):
        build_condenser(8, 0, Fraction(1, 4), 1)
    with pytest.raises(InfeasibleParameterError):
        build_condenser(8, 9, Fraction(1, 4), 1)
    with pytest.raises(InfeasibleParameterError):
        build_condenser(8, 4, Fraction(2), 1)


def test_build_deterministic():
    assert build_condenser(12, 6, Fraction(1, 4), 1) == build_condenser(
        12, 6, Fraction(1, 4), 1
    )


def test_image_table_matches_strong_form():
    for args, sources, seeds in (
        ((12, 6, Fraction(1, 4), 1), 3, None),
        # w = 14, n_tilde = 3, m' = 2: squarings modulo E of degree 3
        ((40, 10, Fraction(1, 4), Fraction(1, 2)), 1, None),
        # w = 14, n_tilde = 4: E from the search past the skipped counters
        ((48, 10, Fraction(1, 4), Fraction(1, 2)), 2, 64),
    ):
        _check_image_table(args, sources, seeds)


def _check_image_table(args, sources, seeds):
    """image_table against strong_form on every seed, or on ``seeds``
    seeded ones."""
    spec = build_condenser(*args)
    cmap = StrongCondenserMap(spec)
    rng = CounterRng(0x1A81E, spec.n)
    xs = [0] + [rng.below(1 << spec.n) for _ in range(sources)]
    ys = range(1 << spec.seed_bits)
    if seeds is not None:
        ys = [rng.below(1 << spec.seed_bits) for _ in range(seeds)]
    table = cmap.image_table(cmap.prepare_batch(xs), np.array(ys))
    assert table.shape == (len(ys), len(xs))
    for row, yv in enumerate(ys):
        for col, xv in enumerate(xs):
            expect = strong_form(spec, BitString(xv, spec.n), BitString(yv, spec.seed_bits))
            assert int(table[row, col]) == expect.to_int()


def test_guv_condense_matches_reference_at_degree_four():
    spec = build_condenser(48, 10, Fraction(1, 4), Fraction(1, 2))
    assert (spec.field_width, spec.message_symbols, spec.output_symbols) == (14, 4, 2)
    w, modulus = spec.field_width, list(spec.modulus.coeffs)
    rng = CounterRng(0x48A)
    for _ in range(6):
        xv, yv = rng.below(1 << spec.n), rng.below(1 << w)
        coeffs = [(xv >> (i * w)) & ((1 << w) - 1) for i in range(spec.message_symbols)]
        expected = 0
        for i in range(spec.output_symbols):
            residue = ref_poly_pow_mod(coeffs, spec.power**i, modulus, w)
            expected |= ref_horner(residue, yv, w) << (i * w)
        assert guv_condense(spec, BitString(xv, spec.n), BitString(yv, w)).to_int() == expected


def test_image_table_above_table_width():
    # w = 17: no exp/log tables for the field
    spec = build_condenser(17, 4, Fraction(1, 32), 1)
    assert spec.field_width == 17
    cmap = StrongCondenserMap(spec)
    rng = CounterRng(0x17)
    xs = [0, (1 << 17) - 1] + [rng.below(1 << 17) for _ in range(4)]
    ys = [0, 1, (1 << 17) - 1] + [rng.below(1 << 17) for _ in range(30)]
    table = cmap.image_table(cmap.prepare_batch(xs), np.array(ys))
    assert table.shape == (len(ys), len(xs))
    for row, yv in enumerate(ys):
        for col, xv in enumerate(xs):
            expect = strong_form(spec, BitString(xv, 17), BitString(yv, 17))
            assert int(table[row, col]) == expect.to_int()


def test_injectivity_on_sampled_sources():
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    cmap = StrongCondenserMap(spec)
    for source in sample_flat_sources(12, 6, 5, seed=8):
        assert injective_fraction(cmap, source, spec.seed_bits) >= 1 - spec.epsilon


def test_image_counts_asks_the_map_for_its_table():
    # w = 11: 2^11 seeds per point; the lambda has no image_table, so it is
    # counted one pair at a time
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    assert spec.field_width == 11
    cmap = StrongCondenserMap(spec)
    per_pair = lambda x, y: cmap(x, y)
    for k, seed in ((1, 4), (2, 5)):
        source = sample_flat_sources(12, k, 1, seed=seed)[0]
        assert np.array_equal(
            image_counts(cmap, source, spec.seed_bits),
            image_counts(per_pair, source, spec.seed_bits),
        )
        assert injective_fraction(cmap, source, spec.seed_bits) == injective_fraction(
            per_pair, source, spec.seed_bits
        )


@pytest.mark.parametrize(
    "n, seed_bits",
    [(14, 11), (12, 12), (12, 10)],
    ids=["long-source", "long-seed", "short-seed"],
)
def test_image_counts_refuses_lengths_the_map_does_not_take(n, seed_bits):
    # the map declares 12 input bits and 11 seed bits; a plain callable,
    # which declares neither, is counted at any lengths (TestInjectiveFraction)
    cmap = StrongCondenserMap(build_condenser(12, 6, Fraction(1, 4), 1))
    source = sample_flat_sources(n, 3, 1, seed=n)[0]
    message = f"source of {n} bits and {seed_bits} seed bits, map wants 12 and 11"
    with pytest.raises(ValueError, match=f"^{message}$"):
        image_counts(cmap, source, seed_bits)


def _per_pair_map(spec):
    """The strong form one pair at a time, by the scalar field methods, from
    residues taken once per source by the reference powering; it offers no
    image table, so image_counts calls it per pair."""
    w, field = spec.field_width, get_field(spec.field_width)
    modulus = list(spec.modulus.coeffs)

    @functools.cache
    def residues(xv):
        coeffs = [(xv >> (i * w)) & ((1 << w) - 1) for i in range(spec.message_symbols)]
        return [ref_poly_pow_mod(coeffs, spec.power**i, modulus, w)
                for i in range(spec.output_symbols)]

    def image(x, y):
        yv = y.to_int()
        value = sum(field.eval_poly(r, yv) << (i * w) for i, r in enumerate(residues(x.to_int())))
        return BitString(value | yv << spec.output_bits, spec.output_bits + w)

    return image


def _global_counts(cmap, xs):
    """Image counts by one sort of the whole table."""
    table = cmap.image_table(cmap.prepare_batch(xs), np.arange(1 << cmap.seed_bits))
    return np.unique(table, return_counts=True)[1]


@pytest.mark.parametrize(
    "args, values",
    [
        # n_tilde = 2, 3 and 4 (w = 11, 14, 14), on sources of 4, 2 and 2 values
        ((12, 6, Fraction(1, 4), 1), 4),
        ((40, 10, Fraction(1, 4), Fraction(1, 2)), 2),
        ((48, 10, Fraction(1, 4), Fraction(1, 2)), 2),
    ],
    ids=["n_tilde-2", "n_tilde-3", "n_tilde-4"],
)
def test_per_seed_counts_match_the_per_pair_count(args, values):
    spec = build_condenser(*args)
    assert spec.message_symbols == {12: 2, 40: 3, 48: 4}[spec.n]
    source = sample_flat_sources(spec.n, values.bit_length() - 1, 1, seed=spec.n)[0]
    counts = image_counts(StrongCondenserMap(spec), source, spec.seed_bits)
    per_pair = image_counts(_per_pair_map(spec), source, spec.seed_bits)
    assert counts.tolist() == per_pair.tolist()
    assert counts.tolist() == _global_counts(StrongCondenserMap(spec), source.values).tolist()
    assert counts.sum() == values << spec.seed_bits


def test_per_seed_counts_above_table_width():
    # w = 17: no exp/log tables; n_tilde = 1, so horner takes its constant path
    spec = build_condenser(17, 4, Fraction(1, 32), 1)
    assert spec.field_width == 17
    cmap = StrongCondenserMap(spec)
    source = sample_flat_sources(17, 1, 1, seed=17)[0]
    counts = image_counts(cmap, source, spec.seed_bits)
    assert counts.tolist() == _global_counts(cmap, source.values).tolist()
    assert counts.tolist() == image_counts(_per_pair_map(spec), source, spec.seed_bits).tolist()


class _Repacked:
    """The strong form's images under another integer encoding,
    ``pack(condensed, seed)``, recording the seeds of every table asked for."""

    def __init__(self, spec, pack):
        self.strong, self.pack, self.asked = StrongCondenserMap(spec), pack, []
        self.mask = (1 << spec.output_bits) - 1

    def prepare_batch(self, xs):
        return self.strong.prepare_batch(xs)

    def image_table(self, state, seeds):
        self.asked.append(len(seeds))
        table = self.strong.image_table(state, seeds)
        return self.pack(table & self.mask, np.asarray(seeds, dtype=np.int64)[:, None])


@pytest.mark.parametrize(
    "pack, falls_back",
    [
        # the seed below the condensed output: seeds' rows interleave
        (lambda c, y: c << 11 | y, True),
        # the seed dropped: images of different seeds collide
        (lambda c, y: c + 0 * y, True),
        # three condensed bits under the seed: collisions inside each seed's row
        (lambda c, y: y << 3 | c & 7, False),
        # one image for every pair: rows that do not strictly ascend
        (lambda c, y: 0 * c + 0 * y, True),
        # one image per seed, strictly ascending inside each block of 2^14
        # pairs (2^10 seeds), but the first seed of the second block has the
        # last seed's image of the first
        (lambda c, y: 0 * c + y - (y >= oracle._IMAGE_BLOCK_PAIRS >> 4), True),
    ],
    ids=["seed-low", "seed-dropped", "truncated", "constant", "block-edge"],
)
def test_counts_are_exact_for_any_encoding(pack, falls_back):
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    source = sample_flat_sources(12, 4, 1, seed=7)[0]
    cmap = _Repacked(spec, pack)
    counts = image_counts(cmap, source, spec.seed_bits)
    whole = cmap.image_table(cmap.prepare_batch(list(source.values)), np.arange(1 << 11))
    assert counts.tolist() == np.unique(whole, return_counts=True)[1].tolist()
    # the fallback asks once more, for every seed at once
    assert (cmap.asked[-2] == 1 << 11) == falls_back
    if not falls_back:
        assert counts.dtype.kind == "u"
        assert counts.max() >= 2


def test_image_counts_scratch_stays_small():
    # verify_flat's instance: 2^6 strings x 2^11 seeds; one sort of the
    # whole int64 table held about 6 MB
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    cmap = StrongCondenserMap(spec)
    source = sample_flat_sources(12, 6, 1, seed=1)[0]
    image_counts(cmap, source, spec.seed_bits)  # the field's tables, built once
    tracemalloc.start()
    try:
        counts = image_counts(cmap, source, spec.seed_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert counts.sum() == 1 << 17


def test_image_table_declines_images_wider_than_int64():
    # 2 output symbols and the seed at w = 21: 63 bits
    spec = CondenserSpec(
        n=42,
        k=10,
        epsilon=Fraction(1, 4),
        alpha=Fraction(2),
        power=2,
        output_symbols=2,
        modulus=find_irreducible(21, 2),
    )
    assert StrongCondenserMap(spec).prepare_batch([0, 1]) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        CondenserSpec(
            n=6,
            k=3,
            epsilon=Fraction(1, 2),
            alpha=Fraction(4),
            power=3,  # not a power of two
            output_symbols=2,
            modulus=find_irreducible(3, 2),
        )
    with pytest.raises(ValueError):
        CondenserSpec(
            n=6,
            k=3,
            epsilon=Fraction(1, 2),
            alpha=Fraction(4),
            power=2,
            output_symbols=3,  # more outputs than message symbols
            modulus=find_irreducible(3, 2),
        )
    # E must be monic and irreducible over its field
    for modulus in (
        FieldPoly((1, 0, 1), 3),  # (Z + 1)^2
        FieldPoly((2, 2, 2), 3),  # not monic
    ):
        with pytest.raises(ValueError, match="monic and irreducible"):
            CondenserSpec(
                n=6,
                k=3,
                epsilon=Fraction(1, 2),
                alpha=Fraction(4),
                power=2,
                output_symbols=2,
                modulus=modulus,
            )
    # w and n_tilde are E's: over GF(4) a 6-bit source no longer fits
    with pytest.raises(ValueError, match="a 6-bit source does not fit in 2 symbols of 2 bits"):
        dataclasses.replace(_manual_spec(), modulus=find_irreducible(2, 2))


def test_output_length_bound_admits_equality():
    # m' w = 22 = (1 + 5/6) 6 + 11, which m' * w <= (1 + alpha) k + w allows
    spec = dataclasses.replace(build_condenser(12, 6, Fraction(1, 4), 1), alpha=Fraction(5, 6))
    assert spec.output_symbols * spec.field_width == (1 + spec.alpha) * spec.k + spec.field_width


@pytest.mark.parametrize("n, k", [(6, 0), (6, -1), (6, 7), (0, 3), (-1, 3)])
def test_spec_needs_entropy_within_the_source(n, k):
    # the builder's 0 < k <= n holds for a spec read from a file too
    with pytest.raises(ValueError, match="need 0 < k <= n"):
        dataclasses.replace(_manual_spec(), n=n, k=k)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 16)])
@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_every_built_spec_loads_unchanged(eps, alpha):
    # the inequalities a spec checks on load are the ones its builder resolved
    for n, k in [(6, 3), (10, 10), (12, 6), (16, 4), (20, 7), (24, 8), (40, 10)]:
        try:
            spec = build_condenser(n, k, eps, alpha)
        except InfeasibleParameterError:
            continue
        assert spec_from_json(spec_to_json(spec)) == spec


def test_pinned_condensers_load_with_their_digests():
    # the benchmark's pinned instances
    for args, digest in [
        ((12, 6, Fraction(1, 4), 1),
         "6414c04bc6da496fc69380834a2361e4fc7c7e642194780ff70536b74a22764d"),
        ((40, 10, Fraction(1, 4), Fraction(1, 2)),
         "2b166aec7e93004d2fe166bfb87841dcaf9d68b071e0dbc2f30b798b1cd8fd22"),
    ]:
        spec = spec_from_json(spec_to_json(build_condenser(*args)))
        assert spec_digest(spec) == digest
