"""Pinned instances, operations and output checks of the benchmark workloads.

Each workload object is created for one run and used in four steps:

* ``setup()`` resolves every pinned spec through the public component
  builders, checks each spec digest against the value recorded at the
  commit that defined the benchmark, and builds the evaluators;
* ``inputs(seed)`` yields the inputs of successive operations, made from
  the workload seed only (the program never sees the seed itself);
* ``run(args)`` is one timed operation;
* ``check(seed, records)`` checks verdicts and recomputes outputs with the
  references after timing, and returns the indices of operations that
  fail; ``check_outputs`` adds the comparison with the recorded outputs of
  the calibrated seed.

The specs are resolved from the component builders, not from
``build_pipeline`` or ``build_high_entropy_extractor``, so that a change to
those builders' feasibility rules does not change what is measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import extractorforge as ef
from extractorforge import cli, oracle
from extractorforge.toeplitz import ToeplitzExtractor, ToeplitzSpec
from extractorforge.trevisan import TrevisanExtractor

from paths import OUT, check_imported

check_imported(ef)

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The seed whose outputs were recorded in golden.json; other seeds are
# checked against the references only.
CALIBRATED_SEED = 1

# sha256 of the canonical spec JSON of every pinned instance.
DIGESTS = {
    "extract_stream": {
        "condenser": "2b166aec7e93004d2fe166bfb87841dcaf9d68b071e0dbc2f30b798b1cd8fd22",
        "e1": "c53f1220b5d0c6d73d4677b06964ede28e480ec6b307f66f4a7a61a2ec79ef14",
        "e2": "adb513b44d6a6a185efbbc9f728103dcf7b3fb2ac0457cff82535b33ee093f09",
    },
    "verify_flat": {
        "condenser": "6414c04bc6da496fc69380834a2361e4fc7c7e642194780ff70536b74a22764d",
        "trevisan": "ec44e8aba610544f055f039801660de652e434c7d50f087ed8cee205163fd1ef",
        "toeplitz": "f91fe1ec1c4cc38cb600b12e4e1de8460a36fa0ed261ffc188d71e5f3e765425",
    },
    "verify_side": {
        "toeplitz": "eea06f16f182941a81e4d12a225970d9ecdf84a12cda3267da61620609acc3d9",
        "trevisan": "afaafe304cb29a2cebb3a7316714587021a5c2019e4f869ecd23bf1d8b7c72dd",
    },
}


class DigestMismatch(RuntimeError):
    pass


def load_golden(workload: str, seed: int) -> list | None:
    """Output summaries recorded for ``workload``, or None for an
    uncalibrated seed."""
    if seed != CALIBRATED_SEED:
        return None
    return json.loads(GOLDEN_PATH.read_text())[workload]["outputs"]


def job_seed(seed: int, index: int) -> int:
    """``--test-seed`` of verification job ``index`` under workload ``seed``."""
    return ((seed & 0xFFFFFFFF) << 20) | index


def _check_digests(workload: str, specs: dict) -> dict:
    found = {name: ef.spec_digest(spec) for name, spec in specs.items()}
    expected = DIGESTS[workload]
    if found != expected:
        raise DigestMismatch(f"{workload}: spec digests {found} differ from {expected}")
    return found


def _cli(argv: list[str]) -> tuple[int, dict | None]:
    """Run one in-process CLI command; (exit code, parsed JSON report)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    text = out.getvalue()
    return rc, json.loads(text) if text.strip() else None


def summarize(rc: int, report: dict | None) -> list:
    """Exit code plus, per check, the verdict and its headline value (the
    worst distance, worst injective fraction or failure count)."""
    if report is None:
        return [rc, None]
    checks = []
    for check in report.get("checks", []):
        detail = check.get("detail", {})
        value = next(
            (detail[k] for k in ("worst", "worstDistance", "failures") if k in detail),
            None,
        )
        checks.append([check.get("passed"), value])
    return [rc, report.get("allPassed"), checks]


def check_outputs(workload, seed: int, records: list) -> tuple[set, dict]:
    """Indices of failed operations, and notes, from every output check:
    the recorded outputs at the calibrated seed, then the workload's own
    verdict and reference checks."""
    recorded = load_golden(workload.name, seed) or []
    failed = {
        i for i, (_, result) in enumerate(records[: len(recorded)])
        if result is None or workload.summary(result) != recorded[i]
    }
    more, notes = workload.check(seed, records)
    notes["goldenCompared"] = min(len(recorded), len(records))
    return failed | more, notes


def _condenser_params(spec) -> dict:
    return {"n": spec.n, "k": spec.k, "eps": str(spec.epsilon), "alpha": str(spec.alpha),
            "seedBits": spec.seed_bits, "outputBits": spec.output_bits}


def _trevisan_params(spec) -> dict:
    return {"preset": spec.preset, "n": spec.n, "m": spec.m, "eps": str(spec.epsilon_target),
            "seedBits": spec.t, "toeplitzSeedBits": spec.n + spec.m - 1}


def _toeplitz_params(spec) -> dict:
    return {"n": spec.input_bits, "m": spec.output_bits, "seedBits": spec.seed_bits}


def _verdict_ok(rc: int, report: dict | None) -> bool:
    return rc == cli.EXIT_PASS and report is not None and report.get("allPassed") is True


class ExtractStream:
    """Seeded random (x, y) pairs through the paper's short-seed chain."""

    name = "extract_stream"

    # Outputs compared with the independent reference: the first few
    # operations plus a seeded sample of the rest.
    REFERENCE_HEAD = 16
    REFERENCE_SAMPLE = 16

    def setup(self) -> None:
        quarter = Fraction(1, 4)
        self.condenser = ef.build_condenser(40, 10, quarter, Fraction(1, 2))
        self.e1 = ef.build_trevisan("thm42", 21, 11, quarter)
        self.e2 = ef.build_trevisan("thm43", 21, 256, quarter)
        self.digests = _check_digests(
            self.name, {"condenser": self.condenser, "e1": self.e1, "e2": self.e2}
        )
        self.chain = ef.condense_extract(
            self.condenser,
            ef.block_compose(TrevisanExtractor(self.e1), TrevisanExtractor(self.e2)),
        )

    def instance(self) -> dict:
        chain = self.chain
        return {
            "chain": "condense_extract(condenser, block_compose(e1, e2))",
            "condenser": _condenser_params(self.condenser),
            "e1": _trevisan_params(self.e1),
            "e2": _trevisan_params(self.e2),
            "inputBits": chain.input_bits,
            "seedBits": chain.seed_bits,
            "outputBits": chain.output_bits,
            "toeplitzSeedBits": chain.input_bits + chain.output_bits - 1,
            "specDigests": self.digests,
        }

    def inputs(self, seed: int):
        rng = random.Random(seed)
        n, t = self.chain.input_bits, self.chain.seed_bits
        while True:
            yield rng.getrandbits(n), rng.getrandbits(t)

    def run(self, args) -> int:
        x, y = args
        chain = self.chain
        return chain.extract(
            ef.BitString(x, chain.input_bits), ef.BitString(y, chain.seed_bits)
        ).to_int()

    @staticmethod
    def summary(result: int) -> int:
        return result

    def check(self, seed: int, records: list) -> tuple[set, dict]:
        import reference

        failed = set()
        head = list(range(min(self.REFERENCE_HEAD, len(records))))
        rest = range(len(head), len(records))
        sample = random.Random(seed ^ 0x5EED).sample(rest, min(self.REFERENCE_SAMPLE, len(rest)))
        for i in head + sorted(sample):
            (x, y), out = records[i]
            if out != reference.chain(self.condenser, self.e1, self.e2, x, y):
                failed.add(i)
        return failed, {"referenceCompared": len(head) + len(sample)}


class VerifyFlat:
    """Each job runs three in-process ``verify`` commands on uniform flat
    sources: the oracle's table path and the condenser bookkeeping."""

    name = "verify_flat"

    CONDENSER_SOURCES = 2
    TREVISAN_BUDGET = 1 << 26
    TOEPLITZ_BUDGET = 1 << 20

    def setup(self) -> None:
        quarter = Fraction(1, 4)
        self.specs = {
            "condenser": ef.build_condenser(12, 6, quarter, 1),
            "trevisan": ef.build_trevisan("thm43", 12, 2, quarter),
            "toeplitz": ToeplitzSpec(10, 2),
        }
        self.digests = _check_digests(self.name, self.specs)
        # For the reference cross-check; the CLI builds its own evaluators.
        self.toeplitz = ToeplitzExtractor(self.specs["toeplitz"])
        # The CLI reads specs from files.
        spec_dir = OUT / "specs"
        spec_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, spec in self.specs.items():
            path = spec_dir / f"{self.name}-{name}.json"
            path.write_text(ef.spec_to_json(spec) + "\n")
            self.paths[name] = str(path)

    @property
    def condenser_budget(self) -> int:
        spec = self.specs["condenser"]
        return self.CONDENSER_SOURCES << (spec.k + spec.seed_bits)

    def instance(self) -> dict:
        return {
            "condenser": {**_condenser_params(self.specs["condenser"]),
                          "budget": self.condenser_budget},
            "trevisan": {**_trevisan_params(self.specs["trevisan"]),
                         "seedSupport": len(TrevisanExtractor(self.specs["trevisan"]).seed_support),
                         "budget": self.TREVISAN_BUDGET},
            "toeplitz": {**_toeplitz_params(self.specs["toeplitz"]),
                         "budget": self.TOEPLITZ_BUDGET},
            "specDigests": self.digests,
        }

    def inputs(self, seed: int):
        index = 0
        while True:
            yield job_seed(seed, index)
            index += 1

    def run(self, test_seed: int) -> list:
        ts = str(test_seed)
        return [
            _cli(["verify", "condenser", "--spec", self.paths["condenser"],
                  "--budget", str(self.condenser_budget), "--test-seed", ts]),
            _cli(["verify", "extractor", "--spec", self.paths["trevisan"],
                  "--budget", str(self.TREVISAN_BUDGET), "--test-seed", ts]),
            _cli(["verify", "extractor", "--spec", self.paths["toeplitz"],
                  "--budget", str(self.TOEPLITZ_BUDGET), "--test-seed", ts]),
        ]

    @staticmethod
    def summary(result: list) -> list:
        return [summarize(*command) for command in result]

    def check(self, seed: int, records: list) -> tuple[set, dict]:
        failed = {
            i for i, (_, result) in enumerate(records)
            if result is None or not all(_verdict_ok(rc, rep) for rc, rep in result)
        }
        notes = {}
        if records and 0 not in failed:
            ok, notes["referenceCrossCheck"] = self._cross_check(*records[0])
            if not ok:
                failed.add(0)
        return failed, notes

    def _cross_check(self, test_seed: int, result: list) -> tuple[bool, dict]:
        """Job's Toeplitz verification against the reference: source 0's
        exact distance, from the oracle and from ``ref_joint_seed_output_distance``,
        must agree and must not exceed the job's reported worst distance."""
        import reference

        spec = self.specs["toeplitz"]
        k = min(spec.input_bits - 1, spec.output_bits + 4)
        source = oracle.sample_flat_sources(spec.input_bits, k, 1, seed=test_seed)[0]
        by_oracle = oracle.extractor_distance(self.toeplitz, source)
        by_reference = reference.toeplitz_distance(spec, [x.to_int() for x in source.support])
        reported = Fraction(result[2][1]["checks"][0]["detail"]["worstDistance"])
        ok = by_oracle == by_reference <= reported
        return ok, {"source0": str(by_reference), "reportedWorst": str(reported)}


class VerifySide:
    """Each job runs ``verify lemmas`` and two side-information distances:
    the oracle's non-uniform scalar path."""

    name = "verify_side"

    SYMBOLS = 4
    TOEPLITZ_PIECE_BITS = 6
    TREVISAN_PIECE_BITS = 7

    def setup(self) -> None:
        self.specs = {
            "toeplitz": ToeplitzSpec(7, 3),
            "trevisan": ef.build_trevisan("thm42", 24, 1, Fraction(1, 4)),
        }
        self.digests = _check_digests(self.name, self.specs)
        self.evaluators = {
            "toeplitz": ToeplitzExtractor(self.specs["toeplitz"]),
            "trevisan": TrevisanExtractor(self.specs["trevisan"]),
        }

    def instance(self) -> dict:
        side = {"sideSymbols": self.SYMBOLS}
        return {
            "lemmas": {"tables": 203},
            "toeplitz": {**_toeplitz_params(self.specs["toeplitz"]), **side,
                         "pieceBits": self.TOEPLITZ_PIECE_BITS},
            "trevisan": {**_trevisan_params(self.specs["trevisan"]), **side,
                         "seedSupport": len(self.evaluators["trevisan"].seed_support),
                         "pieceBits": self.TREVISAN_PIECE_BITS},
            "specDigests": self.digests,
        }

    def _side(self, n: int, piece_bits: int, test_seed: int):
        """Side information S uniform on SYMBOLS values, X | S = s flat on a
        seeded piece of 2^piece_bits strings."""
        pieces = oracle.sample_flat_sources(n, piece_bits, self.SYMBOLS, seed=test_seed)
        weight = Fraction(1, self.SYMBOLS << piece_bits)
        table = oracle.JointTable(
            n, {(x, s): weight for s, piece in enumerate(pieces) for x in piece.support}
        )
        return table, [[x.to_int() for x in piece.support] for piece in pieces]

    def inputs(self, seed: int):
        index = 0
        while True:
            ts = job_seed(seed, index)
            toep = self._side(self.specs["toeplitz"].input_bits, self.TOEPLITZ_PIECE_BITS, ts)
            trev = self._side(self.specs["trevisan"].n, self.TREVISAN_PIECE_BITS, ts)
            yield ts, toep, trev
            index += 1

    def run(self, args) -> list:
        ts, (toep_table, _), (trev_table, _) = args
        lemmas = _cli(["verify", "lemmas", "--test-seed", str(ts)])
        d_toep = oracle.extractor_distance(
            self.evaluators["toeplitz"], toep_table.x_marginal(), side=toep_table
        )
        d_trev = oracle.extractor_distance(
            self.evaluators["trevisan"], trev_table.x_marginal(), side=trev_table
        )
        return [lemmas, d_toep, d_trev]

    def check(self, seed: int, records: list) -> tuple[set, dict]:
        failed = {
            i for i, (_, result) in enumerate(records)
            if result is None or not _verdict_ok(*result[0])
            or not all(0 <= d <= 1 for d in result[1:])
        }
        notes = {}
        if records and 0 not in failed:
            ok, notes["referenceCrossCheck"] = self._cross_check(*records[0])
            if not ok:
                failed.add(0)
        return failed, notes

    @staticmethod
    def summary(result: list) -> list:
        lemmas, d_toep, d_trev = result
        return [summarize(*lemmas), str(d_toep), str(d_trev)]

    def _cross_check(self, args, result) -> tuple[bool, dict]:
        """Both side distances of the job against the reference: the
        per-symbol sum of ``ref_joint_seed_output_distance``."""
        import reference

        _, (_, toep_pieces), (_, trev_pieces) = args
        spec = self.specs["trevisan"]
        support = self.evaluators["trevisan"].seed_support
        toep = reference.side_distance(
            lambda piece: reference.toeplitz_distance(self.specs["toeplitz"], piece), toep_pieces
        )
        trev = reference.side_distance(
            lambda piece: reference.trevisan_distance(spec, support, piece), trev_pieces
        )
        ok = result[1] == toep and result[2] == trev
        return ok, {"toeplitz": str(toep), "trevisan": str(trev)}


WORKLOADS = {cls.name: cls for cls in (ExtractStream, VerifyFlat, VerifySide)}
