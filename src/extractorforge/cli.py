"""Command-line front end.

Three commands:

* ``params``  resolves and serializes a spec from high-level parameters,
* ``extract`` runs a serialized spec over a raw input file,
* ``verify``  runs exact verification suites against a target.

Each verify target is one ``_TARGETS`` row: the generator of its checks and
its spec rule (the spec types it accepts, whether ``--spec`` is required,
and the message for any other spec), which ``cmd_verify`` alone applies.
The ``pipeline`` target takes a pipeline spec or the block composite that
``params --mode qproof`` writes: it recertifies both designs.

Exit codes are a stable contract: 0 pass, 1 verification failure, 2 usage
error (also an output file that cannot be written, or a --budget below 1),
3 infeasible parameters, 4 inconclusive (budget exhausted), and for
``extract`` specifically 5 short input, 6 seed mismatch, 7 unreadable spec.

Extraction seeds are never generated silently: pass --seed/--seed-file, or
opt in to system entropy with --seed-system, which is echoed in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
import time
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

from .bits import BitString
from .codes import CodeSpec, code_distance, encode_all_positions, encode_bits
from .compose import BlockSpec, PipelineSpec, build_high_entropy_extractor, build_pipeline
from .condenser import CondenserSpec, StrongCondenserMap, guv_condense
from .detrand import CounterRng
from .designs import build_greedy_weak_design, build_poly_design, verify_design
from .errors import BudgetExceededError, InfeasibleParameterError
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    JointTable,
    distance_to_min_entropy,
    extractor_distances,
    image_counts,
    lemma_suites,
    sample_flat_sources,
    sample_joint_tables,
    unique_fraction,
)
from .serialize import spec_digest, spec_from_json, spec_to_json
from .toeplitz import ToeplitzExtractor, ToeplitzSpec
from .trevisan import ExtractorSpec, TrevisanExtractor

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_SHORT_INPUT = 5
EXIT_SEED_MISMATCH = 6
EXIT_BAD_SPEC = 7

DEFAULT_TEST_SEED = 1

MAX_MEM_ENV = "EXTRACTORFORGE_MAX_MEM"


class _Exit(Exception):
    """Ends a command: ``main`` prints the message to stderr and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Exit(EXIT_USAGE, f"usage error: {option} expects a fraction, got {text!r}") from None


def _bad_spec(reason) -> _Exit:
    return _Exit(EXIT_BAD_SPEC, f"unreadable spec: {reason}")


def _seed_problem(reason) -> _Exit:
    return _Exit(EXIT_SEED_MISMATCH, f"seed problem: {reason}")


# Peak bytes of memory per enumerated pair, by verify target, as measured
# with tracemalloc on one source at a budget of exactly its pairs:
# ``condenser`` 5.5, 2.1 and 2.0 on build_condenser(12, 6, 1/4, 1),
# (17, 4, 1/32, 1) and (20, 4, 1/64, 1), for image_counts' per-seed count
# of the strong form (its narrow counts, about one byte a distinct image,
# and ~0.3 MB of block scratch, which dominates the smallest source).  The
# whole-table sort it falls back to for images that are not seed-major
# needs ~43, but the CLI builds only StrongCondenserMap, whose images are.
# ``extractor`` at most 3.0 (the Trevisan codeword table; scratch arrays
# are bounded per block) on ToeplitzSpec(10, 2) and a w = 9 Trevisan spec
# at 2^20 and 2^24 pairs.
# Toeplitz keeps no table over its 2^n inputs (ToeplitzSpec(20, 2) on two
# strings: 0.8).  A block's scratch reaches ~6 MB, so a source of fewer
# than ~2^21 pairs can peak above 4 bytes a pair.  ``code`` charges every
# (message, position) pair of its exhaustive distance check, at most 4.4
# bytes each (the codeword table and the message list; CodeSpec(3, 4) and
# CodeSpec(3, 6)).  The other targets enumerate at most a few thousand pairs
# per call.
_BYTES_PER_PAIR = {"condenser": 6, "extractor": 4}
_DEFAULT_BYTES_PER_PAIR = 16


def _effective_budget(budget: int, target: str) -> int:
    if budget < 1:
        raise _Exit(EXIT_USAGE, f"usage error: --budget must be at least 1, got {budget}")
    mem = os.environ.get(MAX_MEM_ENV)
    if mem:
        if not mem.isdecimal():
            raise _Exit(EXIT_USAGE, f"usage error: {MAX_MEM_ENV} expects a byte count, got {mem!r}")
        per_pair = _BYTES_PER_PAIR.get(target, _DEFAULT_BYTES_PER_PAIR)
        budget = min(budget, max(1, int(mem) // per_pair))
    return budget


def _write(path: str, data: bytes) -> None:
    """The one writer of output files: params --out, extract --out, --report."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot write output: {exc}") from None


def _write_report(report: dict, path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        _write(path, (text + "\n").encode())
    else:
        print(text)


_EVALUATORS = {
    ExtractorSpec: TrevisanExtractor,
    ToeplitzSpec: ToeplitzExtractor,
    BlockSpec: BlockSpec.extractor,
    PipelineSpec: PipelineSpec.pipeline,
}


def make_evaluator(spec):
    """Extractor adapter for any serialized spec type."""
    if isinstance(spec, CondenserSpec):  # C(x, y) without the seed, unlike StrongCondenserMap
        return SimpleNamespace(input_bits=spec.n, seed_bits=spec.seed_bits,
                               output_bits=spec.output_bits, extract=partial(guv_condense, spec))
    return _EVALUATORS[type(spec)](spec)


def cmd_params(args) -> int:
    epsilon = _parse_fraction(args.eps, "--eps")
    report_lines = []
    try:
        if args.mode == "flat":
            if args.beta is None or args.k is None:
                raise _Exit(EXIT_USAGE, "flat mode needs --k and --beta")
            beta = _parse_fraction(args.beta, "--beta")
            spec = build_pipeline(args.n, args.k, beta, epsilon)
            report_lines.append(
                f"pipeline for n={args.n} k={args.k} beta={beta} eps={epsilon}"
            )
            report_lines.append(
                f"zeta={spec.zeta} alpha={spec.alpha} (alpha = 2(1-beta)(1-zeta)-1)"
            )
            report_lines.append(f"storage bound beta*k = {beta * args.k}")
            report_lines.append(
                f"condenser: seed {spec.condenser.seed_bits} bits, output "
                f"{spec.condenser.output_bits} bits"
            )
            report_lines.extend(f"rounding: {r}" for r in spec.rounding)
            kb = float(args.k) ** float(beta) if beta > 0 else 1.0
            if float(epsilon) < 2.0 ** (-kb):
                report_lines.append(
                    "note: eps below 2^(-k^beta); outside the stated regime, "
                    "reported but not enforced at desk scale"
                )
            report_lines.append(f"total error budget: {spec.error_budget} (= 5 eps)")
        else:  # qproof
            if args.b is None:
                raise _Exit(EXIT_USAGE, "qproof mode needs --b")
            spec = build_high_entropy_extractor(args.n, args.b, epsilon)
            report_lines.append(
                f"two-block extractor for n={args.n} b={args.b} eps={epsilon}"
            )
            report_lines.append(
                f"inner entropy k = n/2 - b - log2(1/eps) = "
                f"{args.n // 2 - args.b} - log2(1/eps)"
            )
            report_lines.append(f"total error budget: {spec.error_budget} (= 3 eps)")
    except InfeasibleParameterError as exc:
        raise _Exit(EXIT_INFEASIBLE, f"infeasible parameters: {exc} [{exc.constraint}]") from None

    text = spec_to_json(spec)
    digest = spec_digest(spec)
    report_lines.append(f"seed bits: {spec.seed_bits}  output bits: {spec.output_bits}")
    report_lines.append(f"spec digest: sha256:{digest}")
    if args.out:
        _write(args.out, (text + "\n").encode())
    else:
        print(text)
    print("\n".join(report_lines), file=sys.stdout if args.out else sys.stderr)
    if args.report:
        _write_report(
            {
                "command": "params",
                "mode": args.mode,
                "specDigest": digest,
                "notes": report_lines,
            },
            args.report,
        )
    return EXIT_PASS


def _load_spec(path: str):
    try:
        with open(path) as fh:
            return spec_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise _bad_spec(exc) from None


def _resolve_seed(args, needed_bits: int) -> tuple[BitString, str]:
    if sum(1 for value in (args.seed, args.seed_file, args.seed_system) if value) != 1:
        raise _seed_problem("exactly one of --seed, --seed-file, --seed-system required")
    if args.seed:
        try:
            data = bytes.fromhex(args.seed)
        except ValueError as exc:
            raise _seed_problem(f"bad hex seed: {exc}") from None
        provenance = "hex literal"
    elif args.seed_file:
        try:
            with open(args.seed_file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise _seed_problem(exc) from None
        provenance = f"file {args.seed_file}"
    else:
        data = secrets.token_bytes((needed_bits + 7) // 8)
        provenance = f"system entropy (logged): {data.hex()}"
        print(f"seed drawn from system entropy: {data.hex()}", file=sys.stderr)
    if 8 * len(data) < needed_bits:
        raise _seed_problem(f"seed provides {8 * len(data)} bits, spec needs {needed_bits}")
    return BitString.from_bytes(data, needed_bits), provenance


def cmd_extract(args) -> int:
    spec = _load_spec(args.spec)
    evaluator = make_evaluator(spec)

    try:
        with open(args.infile, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _Exit(EXIT_SHORT_INPUT, f"cannot read input: {exc}") from None
    if 8 * len(data) < evaluator.input_bits:
        raise _Exit(
            EXIT_SHORT_INPUT, f"input holds {8 * len(data)} bits, spec needs {evaluator.input_bits}"
        )
    x = BitString.from_bytes(data, evaluator.input_bits)
    seed, provenance = _resolve_seed(args, evaluator.seed_bits)

    start = time.perf_counter()
    out = evaluator.extract(x, seed)
    elapsed = time.perf_counter() - start
    out_bytes = out.to_bytes()
    _write(args.out, out_bytes)

    report = {
        "command": "extract",
        "specType": type(spec).__name__,
        "specDigest": spec_digest(spec),
        "inputSha256": hashlib.sha256(data).hexdigest(),
        "outputSha256": hashlib.sha256(out_bytes).hexdigest(),
        "inputBits": evaluator.input_bits,
        "seedBits": evaluator.seed_bits,
        "outputBits": evaluator.output_bits,
        "seedSource": provenance,
        "elapsedSeconds": elapsed,
        "inputFileBytes": len(data),
        "throughputBitsPerSecond": (
            evaluator.input_bits / elapsed if elapsed > 0 else None
        ),
    }
    _write_report(report, args.report)
    return EXIT_PASS


def _check(name, passed, **detail) -> dict:
    """One entry of a verify report: the only place one is built."""
    return {"name": name, "passed": passed, "detail": detail}


def _design_checks(designs):
    for name, design in designs:
        report = verify_design(design)
        yield _check(f"design recertification: {name}", report.valid,
                     maxOverlap=report.max_overlap,
                     maxWeakSumRatio=str(report.max_weak_sum_ratio), reason=report.reason)


def _verify_design_target(spec, budget, test_seed):
    if spec is not None:
        designs = [("spec design", spec.design)]
    else:
        designs = [
            ("poly m=16 l=4", build_poly_design(16, 4)),
            ("poly m=64 l=8", build_poly_design(64, 8)),
            ("greedy m=16 l=6", build_greedy_weak_design(16, 6, 2)),
        ]
    yield from _design_checks(designs)


def _verify_code_target(spec, budget, test_seed):
    code = CodeSpec(3, 4) if spec is None else spec.code
    rng = CounterRng(0xC0DE, test_seed, code.field_width, code.message_symbols)
    trials = min(2000, max(100, budget // 1000))
    bad = 0
    for _ in range(trials):
        a = rng.below(1 << code.message_bits)
        b = rng.below(1 << code.message_bits)
        idx = rng.below(code.codeword_bits)
        lhs, ra, rb = (encode_bits(code, v, (idx,)) for v in (a ^ b, a, b))
        bad += lhs != ra ^ rb
    yield _check(f"code linearity on {trials} random pairs", bad == 0, violations=bad)
    if code.field_width <= 4:
        # every (message, position) pair of the code
        pairs_log2 = code.index_bits + code.message_bits
        if pairs_log2 >= budget.bit_length():
            raise BudgetExceededError(1, budget, "code verification", pairs_log2)
        table = encode_all_positions(code, list(range(1 << code.message_bits)))
        weights = table[1:].sum(axis=1)
        min_rel = Fraction(int(weights.min()), code.codeword_bits)
        bound = code_distance(code)
        yield _check("exhaustive minimum distance vs designed bound", min_rel >= bound,
                     minimum=str(min_rel), bound=str(bound))


def _flat_sources(n, k, seed_bits, budget, test_seed, label):
    """Up to 50 flat k-sources on n bits, as many as the budget covers at
    2^(seed_bits + k) pairs each, drawn in one call as plain-int
    ``FlatSource`` values; BudgetExceededError, without building that
    power, if one does not fit."""
    if seed_bits + k >= budget.bit_length():
        raise BudgetExceededError(1, budget, label, seed_bits + k)
    return sample_flat_sources(n, k, min(50, budget >> (seed_bits + k)), seed=test_seed)


def _verify_extractor_target(spec, budget, test_seed):
    ext = make_evaluator(spec)
    if isinstance(spec, ExtractorSpec):
        k = max(1, spec.n - 3)
        bound = spec.epsilon_target
        seed_bits = len(ext.seed_support)
    else:
        k = min(spec.input_bits - 1, spec.output_bits + 4)
        # the leftover-hash bound says nothing once k < m: cap it at 1
        bound = Fraction(1, 1 << max(0, (k - spec.output_bits) // 2))
        seed_bits = spec.seed_bits  # Toeplitz reads every seed bit
    sources = _flat_sources(ext.input_bits, k, seed_bits, budget, test_seed,
                            "extractor verification")
    worst = max([Fraction(0), *extractor_distances(ext, sources, budget=budget)])
    yield _check(f"extraction distance on {len(sources)} flat sources (k={k})", worst <= bound,
                 worstDistance=str(worst), bound=str(bound))


def _verify_condenser_target(spec, budget, test_seed):
    cmap = StrongCondenserMap(spec)
    sources = _flat_sources(spec.n, spec.k, spec.seed_bits, budget, test_seed,
                            "condenser verification")
    worst_inj = Fraction(1)
    worst_dist = Fraction(0)
    for source in sources:
        counts = image_counts(cmap, source, spec.seed_bits, budget=budget)
        worst_inj = min(worst_inj, unique_fraction(counts))
        worst_dist = max(worst_dist, distance_to_min_entropy(counts, spec.seed_bits + spec.k))
    yield _check(f"unique-preimage fraction on {len(sources)} flat sources",
                 worst_inj >= 1 - spec.epsilon,
                 worst=str(worst_inj), bound=f">= {1 - spec.epsilon}")
    yield _check("distance to seed+k min-entropy", worst_dist <= spec.epsilon,
                 worst=str(worst_dist), bound=f"<= {spec.epsilon}")


def _verify_lemmas_target(spec, budget, test_seed):
    # one batch: 200 sampled tables, drawn in one stream pass, then the
    # adversarial ones: independent side, full copy, one-bit leak
    n = 3
    tables = sample_joint_tables(4, 4, range(200), seed=test_seed) + [
        JointTable(n, {(BitString(x, n), side(x)): Fraction(1, 1 << n) for x in range(1 << n)})
        for side in (lambda x: 0, lambda x: x, lambda x: x & 1)
    ]
    reports = lemma_suites(tables, [max(1, table.n // 2) for table in tables], budget=budget)
    passed = [report.all_passed for report in reports]
    failures = passed.count(False)
    yield _check(
        f"entropy lemma suite on {len(passed)} joint tables", failures == 0, failures=failures
    )


def _verify_pipeline_target(spec, budget, test_seed):
    blocks = spec.extractor if isinstance(spec, PipelineSpec) else spec
    yield from _design_checks([("e1 design", blocks.e1.design), ("e2 design", blocks.e2.design)])


# verify target -> (checks(spec, budget, test_seed), the spec types it
# accepts, whether it needs --spec, the message for a spec of another type)
_TARGETS = {
    "design": (_verify_design_target, ExtractorSpec, False,
               "design verification expects an extractor spec"),
    "code": (_verify_code_target, ExtractorSpec, False,
             "code verification expects an extractor spec"),
    "extractor": (_verify_extractor_target, (ExtractorSpec, ToeplitzSpec), True,
                  "extractor verification expects a trevisan or toeplitz spec"),
    "condenser": (_verify_condenser_target, CondenserSpec, True,
                  "condenser verification expects a condenser spec"),
    "lemmas": (_verify_lemmas_target, (), False, "lemma verification takes no spec"),
    "pipeline": (_verify_pipeline_target, (PipelineSpec, BlockSpec), True,
                 "pipeline verification expects a pipeline or block spec"),
}


def cmd_verify(args) -> int:
    budget = _effective_budget(args.budget, args.target)
    spec = _load_spec(args.spec) if args.spec else None
    target_checks, spec_types, needs_spec, wrong_spec = _TARGETS[args.target]
    if spec is None and needs_spec:
        raise _bad_spec(f"{args.target} verification needs --spec")
    if spec is not None and not isinstance(spec, spec_types):
        raise _bad_spec(wrong_spec)
    try:
        checks = list(target_checks(spec, budget, args.test_seed))
    except BudgetExceededError as exc:
        _write_report(
            {
                "command": "verify",
                "target": args.target,
                "inconclusive": str(exc),
                "budget": budget,
                "testSeed": args.test_seed,
            },
            args.report,
        )
        raise _Exit(EXIT_INCONCLUSIVE, f"inconclusive: {exc}") from None

    all_passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "target": args.target,
        "allPassed": all_passed,
        "budget": budget,
        "testSeed": args.test_seed,
        "specDigest": spec_digest(spec) if spec is not None else None,
        "checks": checks,
    }
    _write_report(report, args.report)
    return EXIT_PASS if all_passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extractorforge",
        description="randomness extraction toolkit with exact verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="resolve and serialize a spec")
    p.add_argument("--mode", required=True, choices=["flat", "qproof"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--beta")
    p.add_argument("--b", type=int)
    p.add_argument("--eps", required=True)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_params)

    e = sub.add_parser("extract", help="run a spec over a raw input file")
    e.add_argument("--spec", required=True)
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--seed")
    e.add_argument("--seed-file")
    e.add_argument("--seed-system", action="store_true")
    e.add_argument("--out", required=True)
    e.add_argument("--report")
    e.set_defaults(func=cmd_extract)

    v = sub.add_parser("verify", help="run exact verification suites")
    v.add_argument("target", choices=list(_TARGETS))
    v.add_argument("--spec")
    v.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    v.add_argument("--test-seed", type=int, dest="test_seed", default=DEFAULT_TEST_SEED)
    v.add_argument("--report")
    v.set_defaults(func=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
