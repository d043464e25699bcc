import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from extractorforge import cli, oracle, serialize
from extractorforge.bits import BitString
from extractorforge.codes import encode_bits
from extractorforge.compose import BlockSpec, build_high_entropy_extractor, build_pipeline
from extractorforge.condenser import StrongCondenserMap, build_condenser, guv_condense
from extractorforge.designs import Design, build_poly_design
from extractorforge.errors import InfeasibleParameterError
from extractorforge.serialize import spec_to_json
from extractorforge.toeplitz import ToeplitzSpec
from extractorforge.trevisan import build_trevisan, custom_spec

from test_serialize import NON_CANONICAL_EDITS, PINNED


def _run(capsys, argv):
    """One in-process command: (exit code, JSON report or None, stderr)."""
    rc = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return rc, report, captured.err


def _spec_file(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(spec_to_json(spec) + "\n")
    return str(path)


@pytest.fixture
def condenser_spec():
    return build_condenser(12, 6, Fraction(1, 4), 1)


# Exact reports of these specs; any oracle change must reproduce them.
@pytest.mark.parametrize(
    "test_seed, injective, distance",
    [(1, "32767/32768", "1/65536"), (5, "65535/65536", "1/131072")],
)
def test_verify_condenser_report(capsys, tmp_path, condenser_spec, test_seed, injective, distance):
    path = _spec_file(tmp_path, "condenser", condenser_spec)
    budget = 2 << (condenser_spec.k + condenser_spec.seed_bits)
    rc, report, _ = _run(
        capsys,
        ["verify", "condenser", "--spec", path, "--budget", str(budget),
         "--test-seed", str(test_seed)],
    )
    assert rc == cli.EXIT_PASS
    assert report["allPassed"] is True
    assert report["specDigest"] == (
        "6414c04bc6da496fc69380834a2361e4fc7c7e642194780ff70536b74a22764d"
    )
    assert report["checks"] == [
        {
            "name": "unique-preimage fraction on 2 flat sources",
            "passed": True,
            "detail": {"worst": injective, "bound": ">= 3/4"},
        },
        {
            "name": "distance to seed+k min-entropy",
            "passed": True,
            "detail": {"worst": distance, "bound": "<= 1/4"},
        },
    ]


@pytest.mark.parametrize("test_seed, worst", [(1, "5549/65536"), (5, "11115/131072")])
def test_verify_toeplitz_extractor_report(capsys, tmp_path, test_seed, worst):
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    rc, report, _ = _run(
        capsys,
        ["verify", "extractor", "--spec", path, "--budget", str(1 << 20),
         "--test-seed", str(test_seed)],
    )
    assert rc == cli.EXIT_PASS
    assert report["checks"] == [
        {
            "name": "extraction distance on 8 flat sources (k=6)",
            "passed": True,
            "detail": {"worstDistance": worst, "bound": "1/4"},
        }
    ]


@pytest.mark.parametrize(
    "target, spec, budget, name",
    [
        # w = 9 code: 2^6 source points x 2^18 seed patterns, one source
        ("extractor",
         custom_spec(9, build_poly_design(1, 18), Fraction(1, 4)),
         1 << 24, "extraction distance on 1 flat sources (k=6)"),
        # w = 17 condenser: 2^4 source points x 2^17 seeds, one source
        ("condenser", build_condenser(17, 4, Fraction(1, 32), 1), 1 << 21,
         "unique-preimage fraction on 1 flat sources"),
    ],
    ids=["trevisan-w9", "condenser-w17"],
)
def test_verify_wide_fields_report(capsys, tmp_path, target, spec, budget, name):
    path = _spec_file(tmp_path, target, spec)
    rc, report, _ = _run(capsys, ["verify", target, "--spec", path, "--budget", str(budget)])
    assert rc in (cli.EXIT_PASS, cli.EXIT_FAIL)
    assert report["allPassed"] is (rc == cli.EXIT_PASS)
    assert report["checks"][0]["name"] == name


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--mode", "qproof", "--n", "32", "--b", "4", "--eps", "abc"],
        ["params", "--mode", "qproof", "--n", "32", "--b", "4", "--eps", "1/0"],
        ["params", "--mode", "flat", "--n", "32", "--k", "8", "--beta", "abc",
         "--eps", "1/4"],
    ],
)
def test_unparsable_fraction_is_a_usage_error(capsys, argv):
    rc, report, err = _run(capsys, argv)
    assert rc == cli.EXIT_USAGE
    assert report is None
    assert len(err.strip().splitlines()) == 1


def test_bad_memory_limit_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.MAX_MEM_ENV, "lots")
    rc, report, err = _run(capsys, ["verify", "lemmas"])
    assert rc == cli.EXIT_USAGE
    assert report is None
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("eps", ["0", "-1/4", "1", "3/2"])
def test_epsilon_outside_unit_interval_is_infeasible(capsys, eps):
    rc, _, err = _run(
        capsys, ["params", "--mode", "qproof", "--n", "32", "--b", "4", f"--eps={eps}"]
    )
    assert rc == cli.EXIT_INFEASIBLE
    assert "0 < epsilon < 1" in err


def test_budget_too_small_is_inconclusive(capsys, tmp_path, condenser_spec):
    path = _spec_file(tmp_path, "condenser", condenser_spec)
    rc, report, _ = _run(capsys, ["verify", "condenser", "--spec", path, "--budget", "10"])
    assert rc == cli.EXIT_INCONCLUSIVE
    assert report["budget"] == 10
    assert "inconclusive" in report


def test_failed_recertification_exits_one(capsys, tmp_path):
    data = json.loads(spec_to_json(build_trevisan("thm42", 8, 2, Fraction(1, 4))))
    data["design"]["certifiedOverlap"] = 99
    path = tmp_path / "trevisan.json"
    path.write_text(json.dumps(data) + "\n")
    rc, report, _ = _run(capsys, ["verify", "design", "--spec", str(path)])
    assert rc == cli.EXIT_FAIL
    assert report["allPassed"] is False
    [check] = report["checks"]
    assert check["name"] == "design recertification: spec design"
    assert check["passed"] is False
    assert check["detail"]["reason"] == "certified overlap 99 but recomputed 0"


@pytest.mark.parametrize("target", ["design", "code"])
def test_design_and_code_targets_reject_a_toeplitz_spec(capsys, tmp_path, target):
    # a Toeplitz spec has neither a design nor a code to check
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    rc, report, err = _run(capsys, ["verify", target, "--spec", path])
    assert rc == cli.EXIT_BAD_SPEC
    assert report is None
    assert err == f"unreadable spec: {target} verification expects an extractor spec\n"


def test_unreadable_spec(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = _run(capsys, ["verify", "extractor", "--spec", str(path)])
    assert rc == cli.EXIT_BAD_SPEC
    assert err.startswith("unreadable spec")


@pytest.mark.parametrize(
    "modulus",
    [[1, 0, 1], [2, 2, 2], [1, 1, 1, 0]],
    ids=["reducible", "not-monic", "trailing-zero"],
)
@pytest.mark.parametrize("command", ["extract", "verify"])
def test_bad_condenser_modulus_is_a_bad_spec(capsys, tmp_path, condenser_spec, modulus, command):
    # E = Z^2 + 1 = (Z + 1)^2, or 2 Z^2 + 2 Z + 2, over GF(2^11); or the
    # spec's own E = Z^2 + Z + 1 with a zero stated above its leading 1,
    # which must not load as, and publish the digest of, the unedited file
    data = json.loads(spec_to_json(condenser_spec))
    data["modulusE"] = modulus
    path = tmp_path / "condenser.json"
    path.write_text(json.dumps(data) + "\n")
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5\x3c")
    argv = {
        "extract": ["extract", "--spec", str(path), "--in", str(infile),
                    "--out", str(tmp_path / "out.bin"), "--seed", "0fa5"],
        "verify": ["verify", "condenser", "--spec", str(path)],
    }[command]
    rc, report, err = _run(capsys, argv)
    assert rc == cli.EXIT_BAD_SPEC
    assert report is None
    assert err.startswith("unreadable spec") and "monic and irreducible" in err


@pytest.mark.parametrize("name", NON_CANONICAL_EDITS)
def test_non_canonical_spec_is_a_bad_spec(capsys, tmp_path, name):
    tag, edit, message = NON_CANONICAL_EDITS[name]
    data = json.loads(spec_to_json(PINNED[tag][0]()))
    edit(data)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data) + "\n")
    target = {"guv": "condenser", "trevisan": "extractor"}[tag]
    rc, report, err = _run(capsys, ["verify", target, "--spec", str(path)])
    assert (rc, report) == (cli.EXIT_BAD_SPEC, None)
    assert err.startswith("unreadable spec") and message in err


def test_memory_limit_charges_condenser_pairs(capsys, monkeypatch, tmp_path):
    # 2^4 points x 2^20 seeds: 2^24 pairs fit 64 MB at 2 bytes a pair, but
    # the condenser check is charged 6
    spec = build_condenser(20, 4, Fraction(1, 64), 1)
    assert spec.k + spec.seed_bits == 24
    path = _spec_file(tmp_path, "condenser", spec)

    def enumerated(*args):
        raise AssertionError("image table built")

    monkeypatch.setattr(StrongCondenserMap, "image_table", enumerated)
    monkeypatch.setenv(cli.MAX_MEM_ENV, str(64 << 20))
    rc, report, _ = _run(capsys, ["verify", "condenser", "--spec", path])
    assert rc == cli.EXIT_INCONCLUSIVE
    assert report["budget"] < 1 << 24


def test_memory_limit_admits_a_condenser_check_that_fits(capsys, monkeypatch, tmp_path):
    # 2^6 points x 2^11 seeds: 2^17 pairs, refused under 1 MB at 48 bytes a
    # pair; at 6 the check runs one source and peaks below the limit
    spec = build_condenser(12, 6, Fraction(1, 4), 1)
    assert spec.k + spec.seed_bits == 17
    path = _spec_file(tmp_path, "condenser", spec)
    monkeypatch.setenv(cli.MAX_MEM_ENV, str(1 << 20))
    tracemalloc.start()
    try:
        rc, report, _ = _run(capsys, ["verify", "condenser", "--spec", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_PASS
    assert report["checks"][0]["name"] == "unique-preimage fraction on 1 flat sources"
    assert peak < 1 << 20


@pytest.fixture
def extract_args(tmp_path):
    """extract on ToeplitzSpec(10, 2): 10 input bits, 11 seed bits."""
    spec = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5\x3c")
    return ["extract", "--spec", spec, "--in", str(infile), "--out", str(tmp_path / "out.bin")]


def test_extract_passes(capsys, extract_args):
    rc, report, _ = _run(capsys, extract_args + ["--seed", "0fa5"])
    assert rc == cli.EXIT_PASS
    assert (report["inputBits"], report["seedBits"], report["outputBits"]) == (10, 11, 2)


def test_consecutive_commands_parse_independently(capsys, tmp_path, extract_args):
    # one parser serves every call of main: no option of one call may leak
    # into the next
    assert cli._parser() is cli._parser()
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    rc, report, _ = _run(capsys, ["verify", "extractor", "--spec", path, "--budget",
                                  str(1 << 20), "--test-seed", "5"])
    assert (rc, report["budget"], report["testSeed"]) == (cli.EXIT_PASS, 1 << 20, 5)
    rc, report, _ = _run(capsys, ["verify", "lemmas"])
    assert rc == cli.EXIT_PASS
    assert (report["target"], report["budget"]) == ("lemmas", cli.DEFAULT_ENUM_BUDGET)
    assert (report["testSeed"], report["specDigest"]) == (cli.DEFAULT_TEST_SEED, None)
    rc, report, _ = _run(capsys, extract_args + ["--seed", "0fa5"])
    assert (rc, report["command"], report["seedSource"]) == (cli.EXIT_PASS, "extract", "hex literal")
    rc, report, err = _run(capsys, extract_args)  # no seed option this time
    assert (rc, report) == (cli.EXIT_SEED_MISMATCH, None)
    assert "exactly one of --seed, --seed-file, --seed-system required" in err


def test_extract_short_input(capsys, tmp_path, extract_args):
    (tmp_path / "input.bin").write_bytes(b"\xa5")
    rc, report, err = _run(capsys, extract_args + ["--seed", "0fa5"])
    assert rc == cli.EXIT_SHORT_INPUT
    assert report is None
    assert "input holds 8 bits, spec needs 10" in err


def test_extract_missing_input(capsys, tmp_path, extract_args):
    (tmp_path / "input.bin").unlink()
    rc, report, err = _run(capsys, extract_args + ["--seed", "0fa5"])
    assert rc == cli.EXIT_SHORT_INPUT
    assert report is None
    assert err.startswith("cannot read input")


def test_extract_seed_file_too_short(capsys, tmp_path, extract_args):
    seed_file = tmp_path / "seed.bin"
    seed_file.write_bytes(b"\x0f")
    rc, report, err = _run(capsys, extract_args + ["--seed-file", str(seed_file)])
    assert rc == cli.EXIT_SEED_MISMATCH
    assert report is None
    assert "seed provides 8 bits, spec needs 11" in err
    assert not (tmp_path / "out.bin").exists()


@pytest.fixture(scope="module")
def pipeline_spec():
    return build_pipeline(24, 8, Fraction(1, 4), Fraction(1, 4))


def _set_paths(edits):
    """An edit that sets the value at each JSON path of ``edits``."""
    def edit(data):
        for (*parents, key), value in edits.items():
            target_object = data
            for parent in parents:
                target_object = target_object[parent]
            target_object[key] = value

    return edit


def _edited_spec_file(tmp_path, spec, edit):
    data = json.loads(spec_to_json(spec))
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def test_verify_pipeline_passes(capsys, tmp_path, pipeline_spec):
    path = _spec_file(tmp_path, "pipeline", pipeline_spec)
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", path])
    assert rc == cli.EXIT_PASS
    assert report["specDigest"] == (
        "939ea1c9da7f1132fa43fec721cf1a255ae2d16e5efe2e8a079da21ceaf6d94e"
    )
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("design recertification: e1 design", True),
        ("design recertification: e2 design", True),
    ]


def test_verify_pipeline_false_design_overlap_fails(capsys, tmp_path, pipeline_spec):
    def edit(data):
        data["extractor"]["e1"]["design"]["certifiedOverlap"] = 99

    path = _edited_spec_file(tmp_path, pipeline_spec, edit)
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", path])
    assert rc == cli.EXIT_FAIL
    e1, e2 = report["checks"]
    assert e1["passed"] is False
    assert e1["detail"]["reason"] == "certified overlap 99 but recomputed 0"
    assert e2["passed"] is True


@pytest.mark.parametrize(
    "n, b, digest",
    [(16, 1, "4a012380bfa4731f35a03b3802940cbe2b4caa0377ae604067f32e03dde45d32"),
     (42, 2, "4f35f21f976aaa65657da1c90fd5e1b3b88f92433357442d03a510dc094b1a9c")],
)
def test_verify_pipeline_passes_on_a_block_spec(capsys, tmp_path, n, b, digest):
    path = tmp_path / "block.json"
    params = ["params", "--mode", "qproof", "--n", str(n), "--b", str(b), "--eps", "1/4"]
    assert cli.main(params + ["--out", str(path)]) == cli.EXIT_PASS
    capsys.readouterr()
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", str(path)])
    assert rc == cli.EXIT_PASS
    assert report["specDigest"] == digest
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("design recertification: e1 design", True),
        ("design recertification: e2 design", True),
    ]


def test_verify_pipeline_passes_on_a_hand_built_block(capsys, tmp_path):
    # the builder's E1 and b with a thm42 E2 in place of its thm43 one: no
    # builder makes this block, and every rule it must meet holds
    built = build_high_entropy_extractor(64, 8, Fraction(1, 4))
    e2 = build_trevisan("thm42", 32, built.e1.t, Fraction(1, 4))
    path = _spec_file(tmp_path, "block", BlockSpec(built.b, built.e1, e2))
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", path])
    assert rc == cli.EXIT_PASS
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("design recertification: e1 design", True),
        ("design recertification: e2 design", True),
    ]


_FALSE_NUMBERS = {"errorBudget": [1, 1000], "seedBits": 40, "outputBits": 99}


@pytest.mark.parametrize(
    "keys",
    [(), *((key,) for key in _FALSE_NUMBERS), tuple(_FALSE_NUMBERS)],
    ids=lambda keys: "+".join(keys) or "honest",
)
@pytest.mark.parametrize("command", ["extract", "verify"])
def test_pipeline_must_agree_with_its_stated_numbers(capsys, tmp_path, pipeline_spec, command, keys):
    path = _edited_spec_file(
        tmp_path, pipeline_spec, lambda data: data.update({k: _FALSE_NUMBERS[k] for k in keys})
    )
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5\x3c\x0f")
    argv = {
        "extract": ["extract", "--spec", path, "--in", str(infile),
                    "--out", str(tmp_path / "out.bin"),
                    "--seed", "5a" * -(-pipeline_spec.seed_bits // 8)],
        "verify": ["verify", "pipeline", "--spec", path],
    }[command]
    rc, report, err = _run(capsys, argv)
    if not keys:
        assert rc == cli.EXIT_PASS
        return
    assert rc == cli.EXIT_BAD_SPEC
    assert report is None
    assert err.startswith(f"unreadable spec: {keys[0]} is ")


_DERIVED_SPECS = {
    # name -> (spec, the verify target that loads it)
    "pipeline": (build_pipeline(24, 8, Fraction(1, 4), Fraction(1, 4)), "pipeline"),
    "block": (build_high_entropy_extractor(42, 2, Fraction(1, 4)), "pipeline"),
    "trevisan": (build_trevisan("thm43", 12, 2, Fraction(1, 4)), "extractor"),
    "condenser": (build_condenser(12, 6, Fraction(1, 4), 1), "condenser"),
}

# a stated entry's write -> a value of the same kind other than the one given
_CONTRADICT = {
    serialize._same: lambda value: value + 1,
    serialize._pair: lambda pair: [pair[0] + pair[1], pair[1]],
    list: lambda notes: notes + ["edited"],
    serialize._encode: lambda code: {**code, "messageSymbols": code["messageSymbols"] + 1},
}


def _stated_paths(spec, path=()):
    """(JSON path, write) of every stated key of a spec and of its nested specs."""
    for key, attr, (write, read) in serialize._CODEC[type(spec)][1]:
        if read is None:
            yield path + (key,), write
        elif write is serialize._encode:
            yield from _stated_paths(getattr(spec, attr), path + (key,))


def _stated_cases():
    """One case per stated key: its value replaced by one the parts contradict."""
    for name, (spec, _) in _DERIVED_SPECS.items():
        data = json.loads(spec_to_json(spec))
        for path, write in _stated_paths(spec):
            target = data
            for key in path:
                target = target[key]
            value = _CONTRADICT[write](target)
            # w is also the field modulusE is read over, so it always agrees
            # with the spec: an edit reads another condenser, which E's
            # irreducibility, the fit of the source or the pipeline rejects
            message = "" if path[-1] == "w" else f"{path[-1]} is {value!r} but the spec gives "
            yield pytest.param(name, {path: value}, message, id=f"{name}-{'.'.join(path)}")


@pytest.mark.parametrize(
    "name, edits, message",
    [
        *_stated_cases(),
        pytest.param("pipeline", {("k",): 0}, "k is 0 but the spec gives ", id="pipeline-k0"),
        pytest.param("pipeline", {("n",): 500, ("k",): 3}, "n is 500 but the spec gives ",
                     id="pipeline-n+k"),
        # beta = 1/2 fixes zeta = 0, but the condenser's alpha fixes beta
        pytest.param("pipeline", {("beta",): [1, 2], ("zeta",): [0, 1]},
                     "beta is [1, 2] but the spec gives [1, 4]", id="pipeline-beta-half"),
        pytest.param("pipeline", {("extractor", "b"): 1}, "b is 1 but ceil(beta*k) is 2",
                     id="pipeline-extractor.b"),
        # the block's own rule holds first: E1's 11 bits break ceil((24 - 5) / 2)
        pytest.param("pipeline", {("extractor", "b"): 5},
                     "E1 outputs 11 bits, more than ceil((n/2 - b)/2) = 10",
                     id="pipeline-extractor.b-m1"),
        pytest.param("pipeline", {("condenser", "alpha"): [1, 1]},
                     "beta = 1/2 - alpha = -1/2 is outside [0, 1/2)", id="pipeline-condenser.alpha"),
        pytest.param("pipeline",
                     {("extractor", "e1", "n"): 23, ("extractor", "e2", "n"): 23,
                      ("extractor", "n"): 46},
                     "the extractor reads 46 bits, not the condenser's 48 rounded up to even",
                     id="pipeline-extractor.n-halves"),
        pytest.param("condenser", {("w",): 5},
                     "a 12-bit source does not fit in 2 symbols of 5 bits", id="condenser-w5"),
        pytest.param("condenser", {("n",): 40},
                     "a 40-bit source does not fit in 2 symbols of 11 bits", id="condenser-n40"),
    ],
)
def test_number_the_parts_fix_must_agree(capsys, tmp_path, name, edits, message):
    # every stated number is read from the parts, and the parts must agree
    # with each other; a file that states otherwise is unreadable
    spec, target = _DERIVED_SPECS[name]
    path = _edited_spec_file(tmp_path, spec, _set_paths(edits))
    infile = tmp_path / "input.bin"
    infile.write_bytes(bytes(range(64)))
    seed = "5a" * -(-cli.make_evaluator(spec).seed_bits // 8)
    for argv in (
        ["extract", "--spec", path, "--in", str(infile), "--out", str(tmp_path / "out.bin"),
         "--seed", seed],
        ["verify", target, "--spec", path, "--budget", "1000000"],
    ):
        rc, report, err = _run(capsys, argv)
        assert (rc, report) == (cli.EXIT_BAD_SPEC, None)
        assert err.startswith(f"unreadable spec: {message}")


def _wide_code_file(tmp_path):
    """A custom Trevisan spec over CodeSpec(40, 1), wider than any field
    the program builds, with a design that fits it (80-element sets)."""
    design = build_poly_design(1, 80)
    data = {
        "type": "trevisan", "preset": "custom", "n": 40, "m": 1, "t": design.universe_size,
        "epsilonTarget": [1, 4], "code": {"w": 40, "messageSymbols": 1},
        "design": {"t": design.universe_size, "l": design.set_size, "kind": design.kind,
                   "sets": [list(s) for s in design.sets], "certifiedOverlap": 0},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["extract", "verify-code"])
def test_code_wider_than_any_field_is_an_unreadable_spec(capsys, tmp_path, command):
    path = _wide_code_file(tmp_path)
    infile = tmp_path / "input.bin"
    infile.write_bytes(bytes(range(8)))
    argv = {
        "extract": ["extract", "--spec", path, "--in", str(infile),
                    "--out", str(tmp_path / "out.bin"), "--seed", "5a"],
        "verify-code": ["verify", "code", "--spec", path],
    }[command]
    rc, report, err = _run(capsys, argv)
    assert (rc, report) == (cli.EXIT_BAD_SPEC, None)
    assert err == "unreadable spec: field width must be in [1, 32], got 40\n"


def test_verify_code_draws_its_pairs_from_the_test_seed(capsys, monkeypatch):
    calls = []

    def spy(code, x, indices):
        calls.append((x, tuple(indices)))
        return encode_bits(code, x, indices)

    monkeypatch.setattr(cli, "encode_bits", spy)
    drawn = {}
    for test_seed in (1, 7, 1):
        calls.clear()
        rc, report, _ = _run(capsys, ["verify", "code", "--test-seed", str(test_seed)])
        assert rc == cli.EXIT_PASS and report["testSeed"] == test_seed
        assert calls
        drawn.setdefault(test_seed, list(calls))
        assert calls == drawn[test_seed]  # the same seed replays the same pairs
    assert drawn[1] != drawn[7]


@pytest.mark.parametrize("preset", [None, [1, 2], 0])
def test_unknown_trevisan_preset_is_an_unreadable_spec(capsys, tmp_path, preset):
    spec = build_trevisan("thm43", 12, 2, Fraction(1, 4))
    path = _edited_spec_file(tmp_path, spec, lambda data: data.update(preset=preset))
    rc, report, err = _run(capsys, ["verify", "extractor", "--spec", path])
    assert (rc, report) == (cli.EXIT_BAD_SPEC, None)
    assert err.startswith("unreadable spec: unknown preset")


@pytest.mark.parametrize("budget, rc", [([3, 4], cli.EXIT_PASS), ([1, 1000], cli.EXIT_BAD_SPEC)])
def test_extract_block_spec_must_agree_with_its_error_budget(capsys, tmp_path, budget, rc):
    spec_path = tmp_path / "block.json"
    params = ["params", "--mode", "qproof", "--n", "16", "--b", "1", "--eps", "1/4"]
    assert cli.main(params + ["--out", str(spec_path)]) == cli.EXIT_PASS
    capsys.readouterr()
    data = json.loads(spec_path.read_text())
    assert data["errorBudget"] == [3, 4]
    data["errorBudget"] = budget
    spec_path.write_text(json.dumps(data) + "\n")
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5\x3c")
    seed = "5a" * -(-data["e2"]["t"] // 8)
    argv = ["extract", "--spec", str(spec_path), "--in", str(infile),
            "--out", str(tmp_path / "out.bin"), "--seed", seed]
    assert _run(capsys, argv)[0] == rc


def test_lemmas_target_rejects_a_spec(capsys, tmp_path):
    # the lemma suite draws its own tables; a spec would be reported but unused
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    rc, report, err = _run(capsys, ["verify", "lemmas", "--spec", path])
    assert rc == cli.EXIT_BAD_SPEC
    assert report is None
    assert err == "unreadable spec: lemma verification takes no spec\n"
    rc, report, _ = _run(capsys, ["verify", "lemmas"])
    assert rc == cli.EXIT_PASS
    assert report["allPassed"] is True and report["specDigest"] is None


def test_lemmas_budget_is_charged_per_convexity_probe(capsys):
    # each 4-bit table's probe enumerates 16 values x 2^5 Toeplitz(4, 2)
    # seeds = 512 pairs; the budget covers them all or the run stops
    rc, report, err = _run(capsys, ["verify", "lemmas", "--budget", "511"])
    message = "extractor distance enumeration needs 512 items, exceeding the budget of 511"
    assert rc == cli.EXIT_INCONCLUSIVE
    assert err == f"inconclusive: {message}\n"
    assert (report["inconclusive"], report["budget"]) == (message, 511)
    rc, report, _ = _run(capsys, ["verify", "lemmas", "--budget", "512"])
    assert rc == cli.EXIT_PASS
    assert report["checks"][0]["name"] == "entropy lemma suite on 203 joint tables"


@pytest.mark.parametrize(
    "budget, count", [(50 << 17, 50), ((51 << 17) - 1, 50), ((50 << 17) - 1, 49)]
)
def test_verify_samples_at_most_fifty_sources(capsys, tmp_path, budget, count):
    # ToeplitzSpec(10, 2) at k = 6: 2^6 source points x 2^11 seeds per source
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(10, 2))
    rc, report, _ = _run(capsys, ["verify", "extractor", "--spec", path, "--budget", str(budget)])
    assert rc == cli.EXIT_PASS
    assert report["checks"][0]["name"] == f"extraction distance on {count} flat sources (k=6)"


@pytest.mark.parametrize("n", [4, 1])
def test_verify_toeplitz_with_output_as_wide_as_input(capsys, tmp_path, n):
    # k = min(n - 1, m + 4) < m: the leftover-hash bound says nothing, so it is 1
    path = _spec_file(tmp_path, "toeplitz", ToeplitzSpec(n, n))
    rc, report, _ = _run(capsys, ["verify", "extractor", "--spec", path])
    assert rc == cli.EXIT_PASS
    assert report["checks"][0]["detail"]["bound"] == "1"


def test_params_rejects_a_negative_storage_bound(capsys):
    rc, report, err = _run(
        capsys, ["params", "--mode", "qproof", "--n", "16", "--b", "-3", "--eps", "1/4"]
    )
    assert rc == cli.EXIT_INFEASIBLE
    assert report is None
    assert err == "infeasible parameters: the storage bound b must be >= 0, got -3 [b >= 0]\n"


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_is_a_usage_error(capsys, budget):
    rc, report, err = _run(capsys, ["verify", "lemmas", "--budget", budget])
    assert rc == cli.EXIT_USAGE
    assert report is None
    assert err == f"usage error: --budget must be at least 1, got {budget}\n"


_QPROOF = ["params", "--mode", "qproof", "--n", "16", "--b", "1", "--eps", "1/4"]


@pytest.mark.parametrize(
    "option", ["params --out", "params --report", "extract --out", "extract --report",
               "verify --report", "inconclusive verify --report"]
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, extract_args, condenser_spec, option):
    missing = str(tmp_path / "no-such-dir" / "file")
    argv = {
        "params --out": _QPROOF + ["--out", missing],
        # with --out, the notes go to stdout and stderr holds the error alone
        "params --report": _QPROOF + ["--out", str(tmp_path / "spec.json"), "--report", missing],
        "extract --out": extract_args[:-1] + [missing, "--seed", "0fa5"],
        "extract --report": extract_args + ["--seed", "0fa5", "--report", missing],
        "verify --report": ["verify", "design", "--report", missing],
        "inconclusive verify --report": [
            "verify", "condenser", "--spec", _spec_file(tmp_path, "condenser", condenser_spec),
            "--budget", "10", "--report", missing,
        ],
    }[option]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("cannot write output: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", list(cli._TARGETS))
def test_zero_denominator_is_a_bad_spec(capsys, tmp_path, target):
    spec = build_trevisan("thm42", 8, 2, Fraction(1, 4))
    path = _edited_spec_file(tmp_path, spec, lambda data: data.update(epsilonTarget=[1, 0]))
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5")
    for argv in (["verify", target, "--spec", path],
                 ["extract", "--spec", path, "--in", str(infile),
                  "--out", str(tmp_path / "out.bin"), "--seed", "5a" * spec.t]):
        rc, report, err = _run(capsys, argv)
        assert rc == cli.EXIT_BAD_SPEC
        assert report is None
        assert err.startswith("unreadable spec: ") and err.count("\n") == 1


def test_flat_mode_reports_the_storage_bound(capsys):
    flat = ["params", "--mode", "flat", "--n", "24", "--k", "8", "--beta", "1/3", "--eps", "1/4"]
    assert cli.main(flat) == cli.EXIT_PASS
    notes = capsys.readouterr().err.splitlines()
    assert notes[:3] == [
        "pipeline for n=24 k=8 beta=1/3 eps=1/4",
        "zeta=1/8 alpha=1/6 (alpha = 2(1-beta)(1-zeta)-1)",
        "storage bound beta*k = 8/3",
    ]
    rc, report, err = _run(capsys, flat[:5] + flat[7:])
    assert (rc, report, err) == (cli.EXIT_USAGE, None, "flat mode needs --k and --beta\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["params", "--mode", "storage"] + flat[3:])
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice: 'storage'" in capsys.readouterr().err


def test_flat_mode_notes_an_eps_below_the_stated_regime(capsys):
    # 2^(-8^(1/4)) is about 0.31 > 1/4; at beta = 1/3 it is exactly 1/4
    note = ("note: eps below 2^(-k^beta); outside the stated regime, "
            "reported but not enforced at desk scale")
    for beta, noted in (("1/4", True), ("1/3", False)):
        flat = ["params", "--mode", "flat", "--n", "24", "--k", "8", "--beta", beta, "--eps", "1/4"]
        assert cli.main(flat) == cli.EXIT_PASS
        assert (note in capsys.readouterr().err.splitlines()) == noted


def test_extract_seed_system_logs_the_drawn_seed(capsys, monkeypatch, extract_args):
    asked = []

    def token_bytes(count):
        asked.append(count)
        return bytes.fromhex("0fa5")

    monkeypatch.setattr(cli.secrets, "token_bytes", token_bytes)
    rc, report, err = _run(capsys, extract_args + ["--seed-system"])
    assert (rc, asked) == (cli.EXIT_PASS, [2])  # 11 seed bits in two bytes
    assert report["seedSource"] == "system entropy (logged): 0fa5"
    assert err == "seed drawn from system entropy: 0fa5\n"
    # the logged seed, given as a hex literal, replays the extraction
    rc, replay, _ = _run(capsys, extract_args + ["--seed", "0fa5"])
    assert (rc, replay["outputSha256"]) == (cli.EXIT_PASS, report["outputSha256"])


def test_extract_condenser_writes_the_condensed_source(capsys, tmp_path, condenser_spec):
    path = _spec_file(tmp_path, "condenser", condenser_spec)
    infile = tmp_path / "input.bin"
    infile.write_bytes(b"\xa5\x3c")
    out = tmp_path / "out.bin"
    rc, report, _ = _run(capsys, ["extract", "--spec", path, "--in", str(infile),
                                  "--out", str(out), "--seed", "0fa5"])
    assert rc == cli.EXIT_PASS
    x = BitString.from_bytes(b"\xa5\x3c", condenser_spec.n)
    y = BitString.from_bytes(b"\x0f\xa5", condenser_spec.seed_bits)
    # C(x, y) alone: the seed is not appended as in the strong form
    assert out.read_bytes() == guv_condense(condenser_spec, x, y).to_bytes()
    assert (report["inputBits"], report["seedBits"], report["outputBits"]) == (
        condenser_spec.n, condenser_spec.seed_bits, condenser_spec.output_bits
    )


_MALFORMED_VALUES = [0, -1, 1.5, "x", None, [], [1, 0], True, 10**30]


def _leaves(data, path=()):
    """Paths to every value in the JSON objects of a spec, nested objects aside."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


@pytest.mark.parametrize(
    "spec, target",
    [
        (build_trevisan("thm42", 8, 2, Fraction(1, 4)), "extractor"),
        (ToeplitzSpec(10, 2), "extractor"),
        (build_condenser(12, 6, Fraction(1, 4), 1), "condenser"),
        (build_high_entropy_extractor(16, 1, Fraction(1, 4)), "design"),
    ],
    ids=["trevisan", "toeplitz", "condenser", "block"],
)
def test_malformed_spec_exits_with_a_code(capsys, tmp_path, spec, target):
    # every value of every key set to each malformed value, one at a time
    base = spec_to_json(spec)
    path = tmp_path / "spec.json"
    infile = tmp_path / "input.bin"
    infile.write_bytes(bytes(range(64)))
    commands = [
        ["verify", "design", "--spec", str(path)],
        ["extract", "--spec", str(path), "--in", str(infile),
         "--out", str(tmp_path / "out.bin"), "--seed", "a5" * 128],
    ]
    if target != "design":
        commands.append(["verify", target, "--spec", str(path), "--budget", "1"])
    exit_codes = {cli.EXIT_PASS, cli.EXIT_FAIL, cli.EXIT_INCONCLUSIVE, cli.EXIT_SHORT_INPUT,
                  cli.EXIT_SEED_MISMATCH, cli.EXIT_BAD_SPEC}
    for *parents, key in _leaves(json.loads(base)):
        for value in _MALFORMED_VALUES:
            data = json.loads(base)
            target_object = data
            for name in parents:
                target_object = target_object[name]
            target_object[key] = value
            path.write_text(json.dumps(data))
            for argv in commands:
                assert cli.main(argv) in exit_codes, (parents, key, value, argv[:2])
    capsys.readouterr()


@pytest.mark.parametrize("eps, rc", [("1/4", cli.EXIT_PASS), ("abc", cli.EXIT_USAGE)])
def test_module_entry_point_exits_with_the_code_of_main(capsys, eps, rc):
    argv = ["params", "--mode", "qproof", "--n", "16", "--b", "1", "--eps", eps]
    assert cli.main(argv) == rc
    capsys.readouterr()
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "extractorforge.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == rc
    assert "Traceback" not in proc.stderr


_THM42_8 = build_trevisan("thm42", 8, 2, Fraction(1, 4))
_CONDENSER = build_condenser(12, 6, Fraction(1, 4), 1)


# sha256 of each report's canonical JSON (sorted keys); any change to the
# verify layer must reproduce every report byte for byte.
@pytest.mark.parametrize(
    "target, spec, budget, rc, digest",
    [
        ("design", None, None, cli.EXIT_PASS,
         "fe810727fbaad96fd0d271f4f18cbf577db55143fdbf7d56333c62a0e08c3c37"),
        ("design", _THM42_8, None, cli.EXIT_PASS,
         "7ddab4ae4bc644d876ad37f26f656b8a0ea194cef1b37f6efe42c3da145fb1aa"),
        ("code", None, None, cli.EXIT_PASS,
         "ed6c224e566d8d629aee3af68d059ed374177f6a1a05ab750ddd596b74b16e6a"),
        ("code", _THM42_8, None, cli.EXIT_PASS,
         "7cce2c1b62d07219f1287c0c3d7701c3cc60d0b0189306ea98f487f9cb6c2098"),
        ("extractor", _THM42_8, 1 << 22, cli.EXIT_PASS,
         "76cd626edef48529622b2580d9a0b86394a7dc67b8e89f56973b014834ce05f3"),
        ("extractor", ToeplitzSpec(10, 2), 1 << 20, cli.EXIT_PASS,
         "2e6a948efe4415394205381358a50904071639db18fdfaac7c63c2920488cc2b"),
        ("condenser", _CONDENSER, 2 << (_CONDENSER.k + _CONDENSER.seed_bits), cli.EXIT_PASS,
         "aa0c12e9f91d05f2092d705ee6978e5df6a0d06923c52c71f3698833bda4da05"),
        ("condenser", _CONDENSER, 10, cli.EXIT_INCONCLUSIVE,
         "535f825326690ceefff4e947ba1acc696e62ae94688f6a73947771515ceda267"),
        ("lemmas", None, None, cli.EXIT_PASS,
         "e1380fb292d6f782506b712ec54d85bcc5ccc5c9e6a4cb8e0fd879e5ddb8c999"),
        ("pipeline", build_pipeline(24, 8, Fraction(1, 4), Fraction(1, 4)), None, cli.EXIT_PASS,
         "44445a3dec209a6d23f862d3204f17e9e21f03cefa0850f734da81e91523f68e"),
        ("pipeline", build_high_entropy_extractor(16, 1, Fraction(1, 4)), None, cli.EXIT_PASS,
         "e04221da28e2bfd331a6cce429591e47f85ba9c74e5f445ee7930a83ec2feb31"),
    ],
    ids=["design", "design-spec", "code", "code-spec", "extractor-trevisan",
         "extractor-toeplitz", "condenser", "condenser-inconclusive", "lemmas", "pipeline",
         "pipeline-block"],
)
def test_verify_report_bytes(capsys, tmp_path, target, spec, budget, rc, digest):
    argv = ["verify", target]
    if spec is not None:
        argv += ["--spec", _spec_file(tmp_path, target, spec)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    got_rc, report, err = _run(capsys, argv)
    assert got_rc == rc
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
    assert err == (f"inconclusive: {report['inconclusive']}\n" if "inconclusive" in report else "")


@pytest.mark.parametrize(
    "target, spec, message",
    [
        ("design", ToeplitzSpec(10, 2), "design verification expects an extractor spec"),
        ("code", ToeplitzSpec(10, 2), "code verification expects an extractor spec"),
        ("extractor", None, "extractor verification needs --spec"),
        ("extractor", _CONDENSER, "extractor verification expects a trevisan or toeplitz spec"),
        ("condenser", None, "condenser verification needs --spec"),
        ("condenser", ToeplitzSpec(10, 2), "condenser verification expects a condenser spec"),
        ("lemmas", ToeplitzSpec(10, 2), "lemma verification takes no spec"),
        ("pipeline", None, "pipeline verification needs --spec"),
        ("pipeline", _THM42_8, "pipeline verification expects a pipeline or block spec"),
    ],
)
def test_verify_rejection_messages(capsys, tmp_path, target, spec, message):
    argv = ["verify", target]
    if spec is not None:
        argv += ["--spec", _spec_file(tmp_path, target, spec)]
    rc, report, err = _run(capsys, argv)
    assert (rc, report, err) == (cli.EXIT_BAD_SPEC, None, f"unreadable spec: {message}\n")


def test_a_spec_missing_a_read_key_names_it(capsys, tmp_path):
    path = tmp_path / "toeplitz.json"
    path.write_text('{"type": "toeplitz", "m": 2}\n')
    rc, report, err = _run(capsys, ["verify", "extractor", "--spec", str(path)])
    assert (rc, report) == (cli.EXIT_BAD_SPEC, None)
    assert err == "unreadable spec: n is missing: spec is not in its canonical form at 'n'\n"


@pytest.mark.parametrize(
    "n, budget, pairs",
    [(18, "1000", "16777216"), (24, None, "1073741824"), (64, None, "2^72")],
    ids=["w3-k6", "w3-k8", "w4-k16"],
)
def test_exhaustive_code_distance_is_charged_to_the_budget(capsys, tmp_path, n, budget, pairs):
    # 2^message_bits messages x codeword_bits positions: 2^24, 2^30 and 2^72
    # pairs, none of which the budget covers; a count past 64 bits is
    # reported as its power of two
    spec = build_trevisan("thm42", n, 1, Fraction(1, 4))
    argv = ["verify", "code", "--spec", _spec_file(tmp_path, "trevisan", spec)]
    rc, report, err = _run(capsys, argv + (["--budget", budget] if budget else []))
    assert rc == cli.EXIT_INCONCLUSIVE
    assert report["inconclusive"] == (
        f"code verification needs {pairs} items, exceeding the budget of {report['budget']}"
    )
    assert err == f"inconclusive: {report['inconclusive']}\n"


@pytest.mark.parametrize(
    "budget, rc", [(1 << 18, cli.EXIT_PASS), ((1 << 18) - 1, cli.EXIT_INCONCLUSIVE)]
)
def test_default_code_is_enumerated_exactly_at_its_pair_count(capsys, budget, rc):
    # CodeSpec(3, 4): 2^12 messages x 64 positions
    assert _run(capsys, ["verify", "code", "--budget", str(budget)])[0] == rc


@pytest.mark.parametrize("width", [31, 40])
def test_wide_stated_universe_keeps_the_design_certificate(capsys, tmp_path, width):
    # only the elements the sets hold count, so a spec that states a 2^31- or
    # 2^40-point universe (its seed length) certifies as the 64-point one does
    spec = build_trevisan("thm42", 12, 2, Fraction(1, 4))
    rc, plain, _ = _run(capsys, ["verify", "design", "--spec", _spec_file(tmp_path, "plain", spec)])
    assert rc == cli.EXIT_PASS

    def widen(data):
        data["t"] = data["design"]["t"] = 1 << width

    path = _edited_spec_file(tmp_path, spec, widen)
    rc, wide, err = _run(capsys, ["verify", "design", "--spec", path])
    assert (rc, err) == (cli.EXIT_PASS, "")
    assert wide["specDigest"] != plain["specDigest"]
    [check] = wide["checks"]
    assert check == plain["checks"][0]
    assert (check["detail"]["maxOverlap"], check["detail"]["maxWeakSumRatio"]) == (0, "1")


# build_condenser(12, 6, 1/4, 1) resolves w = 11, n_tilde = 2, h = 16 and
# m' = 2; each edit breaks one inequality its builder resolved
@pytest.mark.parametrize(
    "key, value, broken",
    [
        ("alpha", [1, 1000], "m' * w <= (1 + alpha) k + w"),  # 22 > 17.006
        ("h", 32, "w >= log2(n_tilde * h^2 / eps)"),  # log2(2 32^2 4) = 13 > 11
        ("k", 10, "(2^k - 1)(n_tilde - 1) <= eps * 2^w"),  # 1023 > 512
        ("epsilon", [1, 1], "epsilon must be in (0, 1)"),
        ("epsilon", [0, 1], "epsilon must be in (0, 1)"),
        ("alpha", [0, 1], "alpha must be positive"),
        ("alpha", [-1, 2], "alpha must be positive"),
    ],
)
def test_condenser_inequalities_are_checked_on_load(capsys, tmp_path, key, value, broken):
    path = _edited_spec_file(tmp_path, _CONDENSER, lambda data: data.update({key: value}))
    _assert_unreadable_everywhere(capsys, tmp_path, path, broken)


def _assert_unreadable_everywhere(capsys, tmp_path, path, broken):
    """extract and every verify target exit 7 on the file, naming the rule."""
    infile = tmp_path / "input.bin"
    infile.write_bytes(bytes(range(64)))
    commands = [["extract", "--spec", path, "--in", str(infile),
                 "--out", str(tmp_path / "out.bin"), "--seed", "5a" * 128]]
    commands += [["verify", target, "--spec", path] for target in cli._TARGETS]
    for argv in commands:
        rc, report, err = _run(capsys, argv)
        assert (rc, report) == (cli.EXIT_BAD_SPEC, None), argv
        assert err.startswith("unreadable spec: ") and broken in err, argv


_THM43_12 = build_trevisan("thm43", 12, 2, Fraction(1, 4))  # w = 4
_BLOCK_16 = build_high_entropy_extractor(16, 1, Fraction(1, 4))  # E1 t = 256, E2 w = 11
# a thm42 file over GF(2^25): every rule but the width bound holds
_THM42_W25 = custom_spec(12, build_poly_design(1, 50), Fraction(1, 4))
# _THM43_12's sets, ((5, 6, 8, 14, 16, 21, 23, 27), (0, 1, 10, 17, 19, 25, 26, 31)), t = 32
_SETS_12 = [list(s) for s in _THM43_12.design.sets]
# all but the last of E2's 256 sets: an E2 of 255 output bits
_E2_SETS_255 = [list(s) for s in _BLOCK_16.e2.design.sets[:255]]


# One case per rule of each family that a spec file can break, on top of
# the condenser's inequalities above and the pipeline's rules in
# test_number_the_parts_fix_must_agree.  A Trevisan file cannot break
# ceil(n/w) <= 2^w, since its code holds at most 2^w symbols.
@pytest.mark.parametrize(
    "spec, edits, broken",
    [
        pytest.param(_CONDENSER, {("k",): 0}, "need 0 < k <= n, got k=0, n=12", id="condenser-k"),
        pytest.param(_THM43_12, {("epsilonTarget",): [5, 1]}, "epsilon must be in (0, 1), got 5",
                     id="trevisan-epsilon"),
        pytest.param(_THM43_12, {("n",): 0}, "need at least one input bit and one output bit",
                     id="trevisan-n"),
        pytest.param(_THM43_12, {("m",): 0}, "m is 0 but the spec gives 2", id="trevisan-m"),
        pytest.param(_THM43_12, {("epsilonTarget",): [1, 1000]},
                     "field width 4 breaks 2m <= eps * 2^w", id="trevisan-width-epsilon"),
        pytest.param(_THM42_W25, {("preset",): "thm42"}, "field width 25 breaks w <= 24",
                     id="trevisan-width-bound"),
        pytest.param(_BLOCK_16, {("e2", "n"): 7, ("n",): 15},
                     "halves differ: E1 reads 8 bits, E2 reads 7", id="block-halves"),
        pytest.param(_BLOCK_16, {("e2", "m"): 255, ("e2", "design", "sets"): _E2_SETS_255},
                     "E2 outputs 255 bits but E1 wants a 256-bit seed", id="block-e2.m"),
        pytest.param(_BLOCK_16, {("e2", "epsilonTarget"): [1, 2]},
                     "E2's epsilon target 1/2 is not E1's 1/4", id="block-e2.epsilon"),
        pytest.param(_BLOCK_16, {("b",): -1}, "the storage bound b must be >= 0, got -1",
                     id="block-b-negative"),
        pytest.param(_BLOCK_16, {("b",): 7},
                     "b=7 leaves no entropy margin: n/2 - b - log2(1/eps) = -1 <= 0",
                     id="block-b-margin"),
        pytest.param(_BLOCK_16, {("e2", "epsilonTarget"): [1, 1000]},
                     "field width 11 breaks 2m <= eps * 2^w", id="block-e2.epsilon-width"),
        pytest.param(_THM43_12, {("design", "sets"): [_SETS_12[0][::-1], _SETS_12[1]]},
                     "set 0 is not sorted", id="design-unsorted"),
        pytest.param(_THM43_12, {("design", "sets"): [_SETS_12[0], [0, 0] + _SETS_12[1][2:]]},
                     "set 1 has repeated elements", id="design-repeated"),
        pytest.param(_THM43_12, {("design", "sets"): [_SETS_12[0][:-1], _SETS_12[1]]},
                     "set 0 has 7 elements, expected 8", id="design-size"),
        pytest.param(_THM43_12, {("design", "sets"): [_SETS_12[0], _SETS_12[1][:-1] + [32]]},
                     "set 1 leaves the universe [0, 32)", id="design-universe"),
        pytest.param(_THM43_12, {("design", "kind"): "strong"}, "unknown design kind 'strong'",
                     id="design-kind"),
        pytest.param(ToeplitzSpec(10, 2), {("m",): 0},
                     "need 1 <= output bits <= input bits, got 0 and 10", id="toeplitz-m0"),
        pytest.param(ToeplitzSpec(10, 2), {("m",): 11},
                     "need 1 <= output bits <= input bits, got 11 and 10", id="toeplitz-m>n"),
        pytest.param(_THM43_12, {("code", "messageSymbols"): 4},
                     "code is {'messageSymbols': 4, 'w': 4} but the spec gives ",
                     id="trevisan-symbols-above"),
        pytest.param(_THM43_12, {("code", "messageSymbols"): 2},
                     "code is {'messageSymbols': 2, 'w': 4} but the spec gives ",
                     id="trevisan-symbols-below"),
        pytest.param(_CONDENSER, {("modulusE",): [1, 1, True]},
                     "modulusE must be a list of integers", id="condenser-modulus-bool"),
        pytest.param(_CONDENSER, {("modulusE",): [1, 1, 3.0]},
                     "modulusE must be a list of integers", id="condenser-modulus-float"),
    ],
)
def test_every_rule_is_checked_on_load(capsys, tmp_path, spec, edits, broken):
    path = _edited_spec_file(tmp_path, spec, _set_paths(edits))
    _assert_unreadable_everywhere(capsys, tmp_path, path, broken)


def _large_toeplitz_file(tmp_path, n):
    path = tmp_path / "toeplitz.json"
    path.write_text(json.dumps({"type": "toeplitz", "n": n, "m": 2}))
    return str(path)


def test_large_stated_sizes_exit_with_a_code(capsys, tmp_path):
    infile = tmp_path / "input.bin"
    infile.write_bytes(bytes(range(64)))

    def extract(path):
        return _run(capsys, ["extract", "--spec", path, "--in", str(infile),
                             "--out", str(tmp_path / "out.bin"), "--seed", "5a" * 8])

    huge = _large_toeplitz_file(tmp_path, 10**30)
    assert extract(huge)[0] == cli.EXIT_SHORT_INPUT
    rc, report, err = _run(capsys, ["verify", "extractor", "--spec", huge, "--budget", "1"])
    assert rc == cli.EXIT_INCONCLUSIVE
    # 2^(10^30 + 1) seeds x 2^6 source strings
    assert report["inconclusive"] == (
        f"extractor verification needs 2^{10**30 + 7} items, exceeding the budget of 1"
    )

    # a 44-bit seed support over k = 19997, and 2,000 disjoint sets: 2^16,000
    # seeds over k = 5; the counts have over 6,000 and 4,800 decimal digits
    disjoint = Design(16000, 8, "standard",
                      tuple(tuple(range(8 * i, 8 * i + 8)) for i in range(2000)), Fraction(0))
    for spec, exponent in ((build_trevisan("thm42", 20000, 2, Fraction(1, 4)), 20041),
                           (custom_spec(8, disjoint, Fraction(1, 4)), 16005)):
        argv = ["verify", "extractor", "--spec", _spec_file(tmp_path, "large", spec)]
        rc, report, err = _run(capsys, argv)
        assert rc == cli.EXIT_INCONCLUSIVE
        assert report["inconclusive"] == (f"extractor verification needs 2^{exponent} items, "
                                          f"exceeding the budget of {report['budget']}")
        assert err == f"inconclusive: {report['inconclusive']}\n"

    # last, since a seed support built as a tuple of 10^9 ints would take
    # tens of GB: a stated n is not built into anything before the input is
    # found short
    tracemalloc.start()
    try:
        rc, _, err = extract(_large_toeplitz_file(tmp_path, 10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, err) == (cli.EXIT_SHORT_INPUT, "input holds 512 bits, spec needs 1000000000\n")
    assert peak < 5 << 20


def _flat(n, k, beta, eps):
    return ["params", "--mode", "flat", "--n", str(n), "--k", str(k), "--beta", beta,
            "--eps", eps]


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


# One case per rule of each builder: the message and constraint it raises,
# and params' report of them wherever the CLI reaches the rule.  Each
# condenser case resolves alpha = 1/2 - beta = 1/2, as params does at beta 0.
@pytest.mark.parametrize(
    "build, args, message, constraint, argv",
    [
        pytest.param(build_condenser, (12, 0, _QUARTER, _HALF), "need 0 < k <= n, got k=0, n=12",
                     "0 < k <= n", _flat(12, 0, "0", "1/4"), id="condenser-k"),
        pytest.param(build_condenser, (12, 6, _QUARTER, 0), "alpha must be positive, got 0",
                     "alpha > 0", None, id="condenser-alpha"),
        pytest.param(build_condenser, (12, 6, 1, _HALF), "epsilon must be in (0, 1), got 1",
                     "0 < epsilon < 1", _flat(12, 6, "0", "1"), id="condenser-epsilon"),
        # the search could not even start: log2(1/eps) needs eps > 0
        pytest.param(build_condenser, (12, 6, 0, _HALF), "epsilon must be in (0, 1), got 0",
                     "0 < epsilon < 1", _flat(12, 6, "0", "0"), id="condenser-epsilon0"),
        pytest.param(build_condenser, (1000, 4, _QUARTER, _HALF),
                     "no feasible condenser for n=1000, k=4, eps=1/4, alpha=1/2; last violated "
                     "constraint: w >= log2(n_tilde * h^2 / eps)",
                     "w >= log2(n_tilde * h^2 / eps)", _flat(1000, 4, "0", "1/4"),
                     id="condenser-field"),
        pytest.param(build_condenser, (40, 23, _QUARTER, _HALF),
                     "no feasible condenser for n=40, k=23, eps=1/4, alpha=1/2; last violated "
                     "constraint: (2^k - 1)(n_tilde - 1) <= eps * 2^w",
                     "(2^k - 1)(n_tilde - 1) <= eps * 2^w", _flat(40, 23, "0", "1/4"),
                     id="condenser-union"),
        pytest.param(build_condenser, (40, 8, _QUARTER, Fraction(1, 1000)),
                     "no feasible condenser for n=40, k=8, eps=1/4, alpha=1/1000; last violated "
                     "constraint: m' * w <= (1 + alpha) k + w",
                     "m' * w <= (1 + alpha) k + w", _flat(40, 8, "499/1000", "1/4"),
                     id="condenser-output"),
        pytest.param(build_trevisan, ("thm43", 8, 2, 5), "epsilon must be in (0, 1), got 5",
                     "0 < epsilon < 1",
                     ["params", "--mode", "qproof", "--n", "16", "--b", "1", "--eps", "5"],
                     id="trevisan-epsilon"),
        pytest.param(build_trevisan, ("thm43", 0, 2, _QUARTER),
                     "need at least one input bit and one output bit", "positive dimensions", None,
                     id="trevisan-dimensions"),
        pytest.param(build_trevisan, ("thm42", 8, 1 << 40, _QUARTER),
                     "no field width up to 24 supports n=8, m=1099511627776, epsilon=1/4",
                     "2^w >= max(n/w, 2m/epsilon)", None, id="trevisan-width"),
        pytest.param(build_pipeline, (24, 8, _HALF, _QUARTER),
                     "beta = 1/2 - alpha = 1/2 is outside [0, 1/2)", "beta < 1/2",
                     _flat(24, 8, "1/2", "1/4"), id="pipeline-beta"),
    ],
)
def test_every_builder_rule_raises_its_constraint(capsys, build, args, message, constraint, argv):
    with pytest.raises(InfeasibleParameterError) as exc:
        build(*args)
    assert (str(exc.value), exc.value.constraint) == (message, constraint)
    if argv is not None:
        rc, report, err = _run(capsys, argv)
        assert (rc, report) == (cli.EXIT_INFEASIBLE, None)
        assert err == f"infeasible parameters: {message} [{constraint}]\n"


def test_a_failing_lemma_report_fails_the_target(capsys, monkeypatch):
    # the lemma facts hold on every table, so one report is made to fail
    failing = oracle.LemmaSuiteReport((oracle.LemmaCheck("forced", Fraction(1), Fraction(0)),))

    def one_fails(tables, prefix_bits, *, budget):
        reports = list(oracle.lemma_suites(tables, prefix_bits, budget=budget))
        return iter([failing, *reports[1:]])

    monkeypatch.setattr(cli, "lemma_suites", one_fails)
    rc, report, _ = _run(capsys, ["verify", "lemmas"])
    assert rc == cli.EXIT_FAIL
    assert report["allPassed"] is False
    check = report["checks"][0]
    assert (check["name"], check["passed"]) == ("entropy lemma suite on 203 joint tables", False)
    assert check["detail"] == {"failures": 1}


def test_bad_hex_seed_is_a_seed_problem(capsys, extract_args):
    rc, report, err = _run(capsys, extract_args + ["--seed", "0fz5"])
    assert (rc, report) == (cli.EXIT_SEED_MISMATCH, None)
    assert err.startswith("seed problem: bad hex seed: ")


def test_unreadable_seed_file_is_a_seed_problem(capsys, tmp_path, extract_args):
    missing = tmp_path / "no-such-seed.bin"
    rc, report, err = _run(capsys, extract_args + ["--seed-file", str(missing)])
    assert (rc, report) == (cli.EXIT_SEED_MISMATCH, None)
    assert err.startswith("seed problem: ") and "no-such-seed.bin" in err


def test_qproof_params_need_the_storage_bound(capsys):
    rc, report, err = _run(capsys, ["params", "--mode", "qproof", "--n", "16", "--eps", "1/4"])
    assert (rc, report) == (cli.EXIT_USAGE, None)
    assert err == "qproof mode needs --b\n"
