import json
from fractions import Fraction

import pytest

from extractorforge import cli
from extractorforge.codes import CodeSpec
from extractorforge.compose import build_pipeline
from extractorforge.condenser import StrongCondenserMap, build_condenser
from extractorforge.designs import build_poly_design
from extractorforge.serialize import spec_to_json
from extractorforge.toeplitz import ToeplitzSpec
from extractorforge.trevisan import build_trevisan, custom_spec


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
         custom_spec(9, CodeSpec(9, 1), build_poly_design(1, 18), 1, Fraction(1, 4)),
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


@pytest.mark.parametrize("modulus", [[1, 0, 1], [2, 2, 2]], ids=["reducible", "not-monic"])
@pytest.mark.parametrize("command", ["extract", "verify"])
def test_bad_condenser_modulus_is_a_bad_spec(capsys, tmp_path, condenser_spec, modulus, command):
    # E = Z^2 + 1 = (Z + 1)^2, or 2 Z^2 + 2 Z + 2, over GF(2^11)
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


def test_memory_limit_charges_condenser_pairs(capsys, monkeypatch, tmp_path):
    # 2^4 points x 2^20 seeds: 2^24 pairs fit 256 MB at 16 bytes a pair, but
    # the condenser check needs about 48
    spec = build_condenser(20, 4, Fraction(1, 64), 1)
    assert spec.k + spec.seed_bits == 24
    path = _spec_file(tmp_path, "condenser", spec)

    def enumerated(*args):
        raise AssertionError("image table built")

    monkeypatch.setattr(StrongCondenserMap, "image_table", enumerated)
    monkeypatch.setenv(cli.MAX_MEM_ENV, str(256 << 20))
    rc, report, _ = _run(capsys, ["verify", "condenser", "--spec", path])
    assert rc == cli.EXIT_INCONCLUSIVE
    assert report["budget"] < 1 << 24


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
        ("pipeline rebuild digest determinism", True),
    ]


def test_verify_pipeline_false_design_overlap_fails(capsys, tmp_path, pipeline_spec):
    def edit(data):
        data["extractor"]["e1"]["design"]["certifiedOverlap"] = 99

    path = _edited_spec_file(tmp_path, pipeline_spec, edit)
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", path])
    assert rc == cli.EXIT_FAIL
    e1, e2, rebuild = report["checks"]
    assert e1["passed"] is False
    assert e1["detail"]["reason"] == "certified overlap 99 but recomputed 0"
    assert e2["passed"] is True and rebuild["passed"] is False


def test_verify_pipeline_infeasible_parameters_fail_the_rebuild(capsys, tmp_path, pipeline_spec):
    def edit(data):
        data["k"] = 0

    path = _edited_spec_file(tmp_path, pipeline_spec, edit)
    rc, report, _ = _run(capsys, ["verify", "pipeline", "--spec", path])
    assert rc == cli.EXIT_FAIL
    rebuild = report["checks"][-1]
    assert rebuild["passed"] is False
    assert rebuild["detail"]["rebuilt"] == "infeasible: need 0 < k <= n, got k=0, n=24"


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
