"""The package functions the traced run wraps, and its per-layer metrics.

Layers are the package modules.  ``bits`` and ``detrand`` are utilities
whose time is charged to their callers.  Every figure is reported as one
traced set-up plus one average operation of the traced loop, so a count
that does not depend on the input (such as ``codes.encode_bit.calls`` on
extract_stream) repeats exactly from run to run while the program is
unchanged, and one that does varies only with the operations sampled.
"""

from __future__ import annotations

from extractorforge import (
    cli,
    codes,
    compose,
    condenser,
    designs,
    gf2,
    oracle,
    poly,
    serialize,
    toeplitz,
    trevisan,
)


# Counters see the call's arguments; every caller passes these positionally.
def _pairs(tracer, args, kwargs) -> None:
    """Pairs the oracle enumerates: source support x 2^|seed support|."""
    extractor, source = args[0], args[1]
    if isinstance(source, oracle.FlatSource):
        support = len(source.support)
    else:
        support = sum(1 for _, p in source.items() if p)
    seeds = len(getattr(extractor, "seed_support", range(extractor.seed_bits)))
    tracer.add("oracle.extractor_distance.pairs", support << seeds)


def _outcomes(tracer, args, kwargs) -> None:
    # args[0] is the class: from_counts is a classmethod.
    tracer.add("oracle.FiniteDistribution.from_counts.outcomes", len(args[1]))


# (metric prefix, owner, attribute, counter); methods are given by class.
SPANS = [
    ("poly.poly_pow_mod", poly, "poly_pow_mod", None),
    ("poly.find_irreducible", poly, "find_irreducible", None),
    ("codes.encode_bit", codes, "encode_bit", None),
    ("codes.encode_all_positions", codes, "encode_all_positions", None),
    ("designs.build_greedy_weak_design", designs, "build_greedy_weak_design", None),
    ("designs.build_poly_design", designs, "build_poly_design", None),
    ("designs.restrict_seed", designs, "restrict_seed", None),
    ("trevisan.trevisan_extract", trevisan, "trevisan_extract", None),
    ("trevisan.TrevisanExtractor.extract_table", trevisan.TrevisanExtractor, "extract_table", None),
    ("toeplitz.toeplitz_extract", toeplitz, "toeplitz_extract", None),
    ("toeplitz.ToeplitzExtractor.extract_table", toeplitz.ToeplitzExtractor, "extract_table", None),
    ("condenser.guv_condense", condenser, "guv_condense", None),
    ("condenser.StrongCondenserMap.image_table", condenser.StrongCondenserMap, "image_table", None),
    # Wiring only: slicing, padding and seed splitting of both compositions.
    ("compose.extract", compose.BlockComposedExtractor, "extract", None),
    ("compose.extract", compose.CondenseExtractExtractor, "extract", None),
    ("oracle.extractor_distance", oracle, "extractor_distance", _pairs),
    ("oracle.FiniteDistribution.from_counts", oracle.FiniteDistribution, "from_counts", _outcomes),
    ("oracle.distance_to_min_entropy", oracle, "distance_to_min_entropy", None),
    ("oracle.injective_fraction", oracle, "injective_fraction", None),
    ("oracle.sample_flat_sources", oracle, "sample_flat_sources", None),
    ("oracle.lemma_suite", oracle, "lemma_suite", None),
    ("serialize.spec_from_json", serialize, "spec_from_json", None),
    ("cli.main", cli, "main", None),
]

# Cached; only the first call per width (the cold table build) gets a span,
# later calls are counted.
FIRST_CALL_SPANS = [("gf2.get_field", gf2, "get_field")]

# Called per Horner step; counted without a span to keep the overhead down,
# so its time stays in its callers' self time.
COUNTED = [("gf2.GF2Field.mul", gf2.GF2Field, "mul")]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in FIRST_CALL_SPANS + SPANS))

# name -> (unit, better)
METRICS = {
    **{f"{name}.calls": ("calls", "lower") for name, *_ in COUNTED},
    **{
        f"{name}.{suffix}": unit
        for name in SPAN_NAMES
        for suffix, unit in (("calls", ("calls", "lower")), ("self_s", ("s", "lower")))
    },
    "oracle.extractor_distance.pairs": ("pairs", "lower"),
    "oracle.pairs_per_s": ("pairs/s", "higher"),
    "oracle.FiniteDistribution.from_counts.outcomes": ("outcomes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def install(tracer) -> None:
    """Register every wrapper; ``tracer.enable()`` applies them."""
    for name, module, attr in FIRST_CALL_SPANS:
        tracer.wrap_function(module, attr, name, first_call_only=True)
    for name, owner, attr, counter in SPANS:
        if isinstance(owner, type):
            tracer.wrap_method(owner, attr, name, counter)
        else:
            tracer.wrap_function(owner, attr, name, counter)
    for name, cls, attr in COUNTED:
        tracer.wrap_method(cls, attr, name, count_only=True)


def metrics(tracer, ops: int, traced_s_per_op: float, untraced_s_per_op: float) -> dict:
    spans, counts = tracer.per_operation(ops)
    values = {}
    for name in SPAN_NAMES:
        calls, self_s = spans.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for key in ("gf2.GF2Field.mul.calls", "oracle.extractor_distance.pairs",
                "oracle.FiniteDistribution.from_counts.outcomes"):
        values[key] = counts.get(key, 0)
    busy = tracer.inclusive("loop", "oracle.extractor_distance")
    pairs = tracer.counts["loop"].get("oracle.extractor_distance.pairs", 0)
    values["oracle.pairs_per_s"] = pairs / busy if busy else 0.0
    values["trace.overhead_frac"] = traced_s_per_op / untraced_s_per_op - 1
    values["trace.overhead_ms"] = (traced_s_per_op - untraced_s_per_op) * 1e3
    return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
