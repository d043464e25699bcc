"""Command-line front end.

Three commands:

* ``params``  resolves and serializes a spec from high-level parameters,
* ``extract`` runs a serialized spec over a raw input file,
* ``verify``  runs exact verification suites against a target.

Exit codes are a stable contract: 0 pass, 1 verification failure, 2 usage
error, 3 infeasible parameters, 4 inconclusive (budget exhausted), and for
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

from .bits import BitString
from .codes import CodeSpec, code_distance, encode_all_positions, encode_bit
from .compose import BlockSpec, PipelineSpec, build_high_entropy_extractor, build_pipeline
from .condenser import CondenserSpec, StrongCondenserMap, guv_condense
from .detrand import CounterRng
from .designs import build_greedy_weak_design, build_poly_design, verify_design
from .errors import BudgetExceededError, InfeasibleParameterError
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    JointTable,
    distance_to_min_entropy,
    extractor_distance,
    image_counts,
    lemma_suite,
    sample_flat_sources,
    sample_joint_table,
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


class _UsageError(Exception):
    pass


def _parse_fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"{option} expects a fraction, got {text!r}") from None


# Peak bytes of memory per enumerated pair, by verify target, as measured
# with tracemalloc on one source at a budget of exactly its pairs:
# ``condenser`` 41-43 (the int64 image table plus np.unique's sorted copy,
# distinct values, run starts and counts) on build_condenser(12, 6, 1/4, 1)
# and build_condenser(17, 4, 1/32, 1); ``extractor`` at most 3.0 (the
# Trevisan codeword table; scratch arrays are bounded per block) on
# ToeplitzSpec(10, 2) and a w = 9 Trevisan spec at 2^20 and 2^24 pairs.
# The other targets enumerate at most a few thousand pairs per call.
_BYTES_PER_PAIR = {"condenser": 48, "extractor": 4}
_DEFAULT_BYTES_PER_PAIR = 16


def _effective_budget(requested: int | None, target: str) -> int:
    budget = requested if requested is not None else DEFAULT_ENUM_BUDGET
    mem = os.environ.get(MAX_MEM_ENV)
    if mem:
        if not mem.isdecimal():
            raise _UsageError(f"{MAX_MEM_ENV} expects a byte count, got {mem!r}")
        per_pair = _BYTES_PER_PAIR.get(target, _DEFAULT_BYTES_PER_PAIR)
        budget = min(budget, max(1, int(mem) // per_pair))
    return budget


def _write_report(report: dict, path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def make_evaluator(spec):
    """Extractor adapter for any serialized spec type."""
    if isinstance(spec, ExtractorSpec):
        return TrevisanExtractor(spec)
    if isinstance(spec, ToeplitzSpec):
        return ToeplitzExtractor(spec)
    if isinstance(spec, BlockSpec):
        return spec.extractor()
    if isinstance(spec, PipelineSpec):
        return spec.pipeline()
    if isinstance(spec, CondenserSpec):
        return _CondenserEvaluator(spec)
    raise ValueError(f"no evaluator for {type(spec).__name__}")


class _CondenserEvaluator:
    """Treats a condenser as a length-preserving map for file processing."""

    def __init__(self, spec: CondenserSpec):
        self.spec = spec
        self.input_bits = spec.n
        self.seed_bits = spec.seed_bits
        self.output_bits = spec.output_bits

    def extract(self, x: BitString, y: BitString) -> BitString:
        return guv_condense(self.spec, x, y)


def cmd_params(args) -> int:
    epsilon = _parse_fraction(args.eps, "--eps")
    report_lines = []
    try:
        if args.mode in ("flat", "storage"):
            if args.beta is None or args.k is None:
                print("flat/storage modes need --k and --beta", file=sys.stderr)
                return EXIT_USAGE
            beta = _parse_fraction(args.beta, "--beta")
            spec = build_pipeline(args.n, args.k, beta, epsilon)
            report_lines.append(
                f"pipeline for n={args.n} k={args.k} beta={beta} eps={epsilon}"
            )
            report_lines.append(
                f"zeta={spec.zeta} alpha={spec.alpha} (alpha = 2(1-beta)(1-zeta)-1)"
            )
            if args.mode == "storage":
                bexact = beta * args.k
                report_lines.append(f"storage bound beta*k = {bexact}")
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
        elif args.mode == "qproof":
            if args.b is None:
                print("qproof mode needs --b", file=sys.stderr)
                return EXIT_USAGE
            spec = build_high_entropy_extractor(args.n, args.b, epsilon)
            report_lines.append(
                f"two-block extractor for n={args.n} b={args.b} eps={epsilon}"
            )
            report_lines.append(
                f"inner entropy k = n/2 - b - log2(1/eps) = "
                f"{args.n // 2 - args.b} - log2(1/eps)"
            )
            report_lines.append(f"total error budget: {spec.error_budget} (= 3 eps)")
        else:
            print(f"unknown mode {args.mode}", file=sys.stderr)
            return EXIT_USAGE
    except InfeasibleParameterError as exc:
        print(f"infeasible parameters: {exc} [{exc.constraint}]", file=sys.stderr)
        return EXIT_INFEASIBLE

    text = spec_to_json(spec)
    digest = spec_digest(spec)
    report_lines.append(f"seed bits: {spec.seed_bits}  output bits: {spec.output_bits}")
    report_lines.append(f"spec digest: sha256:{digest}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        for line in report_lines:
            print(line)
    else:
        print(text)
        for line in report_lines:
            print(line, file=sys.stderr)
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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _BadSpec(str(exc)) from exc


class _BadSpec(Exception):
    pass


def _resolve_seed(args, needed_bits: int) -> tuple[BitString, str]:
    chosen = [
        name
        for name, value in (
            ("--seed", args.seed),
            ("--seed-file", args.seed_file),
            ("--seed-system", args.seed_system),
        )
        if value
    ]
    if len(chosen) != 1:
        raise _SeedProblem("exactly one of --seed, --seed-file, --seed-system required")
    if args.seed:
        try:
            data = bytes.fromhex(args.seed)
        except ValueError as exc:
            raise _SeedProblem(f"bad hex seed: {exc}") from exc
        provenance = "hex literal"
    elif args.seed_file:
        try:
            with open(args.seed_file, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise _SeedProblem(str(exc)) from exc
        provenance = f"file {args.seed_file}"
    else:
        data = secrets.token_bytes((needed_bits + 7) // 8)
        provenance = f"system entropy (logged): {data.hex()}"
        print(f"seed drawn from system entropy: {data.hex()}", file=sys.stderr)
    if 8 * len(data) < needed_bits:
        raise _SeedProblem(
            f"seed provides {8 * len(data)} bits, spec needs {needed_bits}"
        )
    return BitString.from_bytes(data, needed_bits), provenance


class _SeedProblem(Exception):
    pass


def cmd_extract(args) -> int:
    try:
        spec = _load_spec(args.spec)
        evaluator = make_evaluator(spec)
    except (_BadSpec, ValueError) as exc:
        print(f"unreadable spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC

    try:
        with open(args.infile, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SHORT_INPUT
    if 8 * len(data) < evaluator.input_bits:
        print(
            f"input holds {8 * len(data)} bits, spec needs {evaluator.input_bits}",
            file=sys.stderr,
        )
        return EXIT_SHORT_INPUT
    x = BitString.from_bytes(data, evaluator.input_bits)

    try:
        seed, provenance = _resolve_seed(args, evaluator.seed_bits)
    except _SeedProblem as exc:
        print(f"seed problem: {exc}", file=sys.stderr)
        return EXIT_SEED_MISMATCH

    start = time.perf_counter()
    out = evaluator.extract(x, seed)
    elapsed = time.perf_counter() - start
    out_bytes = out.to_bytes()
    with open(args.out, "wb") as fh:
        fh.write(out_bytes)

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


def _verify_design_target(spec, budget, checks):
    if spec is not None:
        if not isinstance(spec, ExtractorSpec):
            raise _BadSpec("design verification expects an extractor spec")
        designs = [("spec design", spec.design)]
    else:
        designs = [
            ("poly m=16 l=4", build_poly_design(16, 4)),
            ("poly m=64 l=8", build_poly_design(64, 8)),
            ("greedy m=16 l=6", build_greedy_weak_design(16, 6, 2)),
        ]
    _recertify_designs(designs, checks)


def _recertify_designs(designs, checks):
    for name, design in designs:
        report = verify_design(design)
        checks.append(
            {
                "name": f"design recertification: {name}",
                "passed": report.valid,
                "detail": {
                    "maxOverlap": report.max_overlap,
                    "maxWeakSumRatio": str(report.max_weak_sum_ratio),
                    "reason": report.reason,
                },
            }
        )


def _verify_code_target(spec, budget, checks):
    if spec is None:
        code = CodeSpec(3, 4)
    elif isinstance(spec, ExtractorSpec):
        code = spec.code
    else:
        raise _BadSpec("code verification expects an extractor spec")
    rng = CounterRng(0xC0DE, code.field_width, code.message_symbols)
    trials = min(2000, max(100, budget // 1000))
    bad = 0
    for _ in range(trials):
        a = rng.below(1 << code.message_bits)
        b = rng.below(1 << code.message_bits)
        idx = rng.below(code.codeword_bits)
        lhs = encode_bit(code, BitString(a ^ b, code.message_bits), idx)
        rhs = encode_bit(code, BitString(a, code.message_bits), idx) ^ encode_bit(
            code, BitString(b, code.message_bits), idx
        )
        bad += lhs != rhs
    checks.append(
        {
            "name": f"code linearity on {trials} random pairs",
            "passed": bad == 0,
            "detail": {"violations": bad},
        }
    )
    if code.field_width <= 4:
        table = encode_all_positions(code, list(range(1 << code.message_bits)))
        weights = table[1:].sum(axis=1)
        min_rel = Fraction(int(weights.min()), code.codeword_bits)
        bound = code_distance(code)
        checks.append(
            {
                "name": "exhaustive minimum distance vs designed bound",
                "passed": min_rel >= bound,
                "detail": {"minimum": str(min_rel), "bound": str(bound)},
            }
        )


def _verify_extractor_target(spec, budget, test_seed, checks):
    if isinstance(spec, ExtractorSpec):
        ext = TrevisanExtractor(spec)
        k = max(1, min(spec.n - 1, spec.n - 3))
        bound = spec.epsilon_target
    elif isinstance(spec, ToeplitzSpec):
        ext = ToeplitzExtractor(spec)
        k = min(spec.input_bits - 1, spec.output_bits + 4)
        bound = Fraction(1, 1 << ((k - spec.output_bits) // 2))
    else:
        raise _BadSpec("extractor verification expects a trevisan or toeplitz spec")
    pairs = (1 << len(ext.seed_support)) * (1 << k)
    count = min(50, max(1, budget // max(pairs, 1)))
    if count < 1 or pairs > budget:
        raise BudgetExceededError(pairs, budget, "extractor verification")
    sources = sample_flat_sources(ext.input_bits, k, count, seed=test_seed)
    worst = Fraction(0)
    for source in sources:
        worst = max(worst, extractor_distance(ext, source, budget=budget))
    checks.append(
        {
            "name": f"extraction distance on {count} flat sources (k={k})",
            "passed": worst <= bound,
            "detail": {"worstDistance": str(worst), "bound": str(bound)},
        }
    )


def _verify_condenser_target(spec, budget, test_seed, checks):
    if not isinstance(spec, CondenserSpec):
        raise _BadSpec("condenser verification expects a condenser spec")
    cmap = StrongCondenserMap(spec)
    pairs = (1 << spec.k) * (1 << spec.seed_bits)
    count = min(50, max(1, budget // max(pairs, 1)))
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, "condenser verification")
    sources = sample_flat_sources(spec.n, spec.k, count, seed=test_seed)
    worst_inj = Fraction(1)
    worst_dist = Fraction(0)
    for source in sources:
        xs = [x.to_int() for x in source.support]
        counts = image_counts(
            cmap, source, spec.seed_bits, budget=budget, image_table=cmap.image_table(xs)
        )
        worst_inj = min(worst_inj, unique_fraction(counts))
        worst_dist = max(
            worst_dist, distance_to_min_entropy(counts, spec.seed_bits + spec.k)
        )
    checks.append(
        {
            "name": f"unique-preimage fraction on {count} flat sources",
            "passed": worst_inj >= 1 - spec.epsilon,
            "detail": {"worst": str(worst_inj), "bound": f">= {1 - spec.epsilon}"},
        }
    )
    checks.append(
        {
            "name": "distance to seed+k min-entropy",
            "passed": worst_dist <= spec.epsilon,
            "detail": {"worst": str(worst_dist), "bound": f"<= {spec.epsilon}"},
        }
    )


def _verify_lemmas_target(budget, test_seed, checks):
    tables = [sample_joint_table(4, 4, seed=test_seed, index=i) for i in range(200)]
    # adversarial cases: independent side, full copy, one-bit leak
    n = 3
    uniform = Fraction(1, 1 << n)
    for side in (lambda x: 0, lambda x: x, lambda x: x & 1):
        tables.append(
            JointTable(n, {(BitString(x, n), side(x)): uniform for x in range(1 << n)})
        )
    failures = 0
    for i, table in enumerate(tables):
        report = lemma_suite(table, max(1, table.n // 2), budget=budget)
        if not report.all_passed:
            failures += 1
    checks.append(
        {
            "name": f"entropy lemma suite on {len(tables)} joint tables",
            "passed": failures == 0,
            "detail": {"failures": failures},
        }
    )


def _verify_pipeline_target(spec, checks):
    if not isinstance(spec, PipelineSpec):
        raise _BadSpec("pipeline verification expects a pipeline spec")
    blocks = spec.extractor
    _recertify_designs([("e1 design", blocks.e1.design), ("e2 design", blocks.e2.design)], checks)
    digest = spec_digest(spec)
    try:
        rebuilt = spec_digest(build_pipeline(spec.n, spec.k, spec.beta, spec.epsilon))
    except InfeasibleParameterError as exc:
        rebuilt = f"infeasible: {exc}"
    checks.append(
        {
            "name": "pipeline rebuild digest determinism",
            "passed": rebuilt == digest,
            "detail": {"digest": digest, "rebuilt": rebuilt},
        }
    )


def cmd_verify(args) -> int:
    budget = _effective_budget(args.budget, args.target)
    test_seed = args.test_seed if args.test_seed is not None else DEFAULT_TEST_SEED
    checks: list[dict] = []
    spec = None
    try:
        if args.spec:
            spec = _load_spec(args.spec)
        if args.target == "design":
            _verify_design_target(spec, budget, checks)
        elif args.target == "code":
            _verify_code_target(spec, budget, checks)
        elif args.target == "extractor":
            if spec is None:
                raise _BadSpec("extractor verification needs --spec")
            _verify_extractor_target(spec, budget, test_seed, checks)
        elif args.target == "condenser":
            if spec is None:
                raise _BadSpec("condenser verification needs --spec")
            _verify_condenser_target(spec, budget, test_seed, checks)
        elif args.target == "lemmas":
            _verify_lemmas_target(budget, test_seed, checks)
        elif args.target == "pipeline":
            if spec is None:
                raise _BadSpec("pipeline verification needs --spec")
            _verify_pipeline_target(spec, checks)
        else:
            print(f"unknown target {args.target}", file=sys.stderr)
            return EXIT_USAGE
    except _BadSpec as exc:
        print(f"unreadable spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        _write_report(
            {
                "command": "verify",
                "target": args.target,
                "inconclusive": str(exc),
                "budget": budget,
                "testSeed": test_seed,
            },
            args.report,
        )
        return EXIT_INCONCLUSIVE

    all_passed = all(c["passed"] for c in checks)
    report = {
        "command": "verify",
        "target": args.target,
        "allPassed": all_passed,
        "budget": budget,
        "testSeed": test_seed,
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
    p.add_argument("--mode", required=True, choices=["flat", "storage", "qproof"])
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
    v.add_argument(
        "target",
        choices=["design", "code", "extractor", "condenser", "lemmas", "pipeline"],
    )
    v.add_argument("--spec")
    v.add_argument("--budget", type=int)
    v.add_argument("--test-seed", type=int, dest="test_seed")
    v.add_argument("--report")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
