import json
from fractions import Fraction

import pytest

from extractorforge import cli
from extractorforge.condenser import build_condenser
from extractorforge.serialize import spec_to_json
from extractorforge.toeplitz import ToeplitzSpec


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


def test_unreadable_spec(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = _run(capsys, ["verify", "extractor", "--spec", str(path)])
    assert rc == cli.EXIT_BAD_SPEC
    assert err.startswith("unreadable spec")
