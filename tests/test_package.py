from dataclasses import replace
from fractions import Fraction

import pytest

import extractorforge
from extractorforge.codes import CodeSpec
from extractorforge.compose import PipelineSpec, build_high_entropy_extractor, build_pipeline
from extractorforge.condenser import build_condenser
from extractorforge.designs import Design, build_greedy_weak_design, build_poly_design
from extractorforge.errors import InfeasibleParameterError
from extractorforge.poly import FieldPoly
from extractorforge.toeplitz import ToeplitzSpec
from extractorforge.trevisan import build_trevisan


def test_every_exported_name_resolves_once():
    names = extractorforge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(extractorforge, name) is not None


_QUARTER = Fraction(1, 4)
_THM43_12 = build_trevisan("thm43", 12, 2, _QUARTER)  # w = 4, 3 symbols, 2 sets
_CONDENSER = build_condenser(12, 6, _QUARTER, 1)  # w = 11, n_tilde = 2, h = 16, m' = 2
_PIPELINE = build_pipeline(24, 8, _QUARTER, _QUARTER)  # b = 2, a 48-bit block input
_BLOCK = _PIPELINE.extractor  # E1 reads 24 bits into a 256-bit seed


def _design(*sets, l=2, kind="standard"):
    return Design(8, l, kind, sets, Fraction(0))


# One violation of each rule of every spec type and of the design builders,
# with the constraint it names.
@pytest.mark.parametrize(
    "make, constraint",
    [
        pytest.param(lambda: _design(), "m >= 1 and l >= 1", id="design-no-sets"),
        pytest.param(lambda: _design((), l=0), "m >= 1 and l >= 1", id="design-set-size"),
        pytest.param(lambda: _design((0, 1), kind="strong"), "standard or weak kind",
                     id="design-kind"),
        pytest.param(lambda: _design((0, 1, 2)), "|S_i| = l", id="design-size"),
        pytest.param(lambda: _design((1, 1)), "distinct elements", id="design-repeated"),
        pytest.param(lambda: _design((3, 1)), "sorted sets", id="design-unsorted"),
        pytest.param(lambda: _design((0, 8)), "S_i in [0, t)", id="design-universe"),
        pytest.param(lambda: build_poly_design(0, 4), "m >= 1 and l >= 1", id="poly-design"),
        pytest.param(lambda: build_greedy_weak_design(4, 0), "m >= 1 and l >= 1",
                     id="greedy-design"),
        pytest.param(lambda: build_greedy_weak_design(4, 4, Fraction(1, 2)), "rho >= 1",
                     id="greedy-rho"),
        pytest.param(lambda: CodeSpec(33, 1), "1 <= w <= 32", id="code-width"),
        pytest.param(lambda: CodeSpec(2, 5), "1 <= n_tilde <= 2^w", id="code-symbols"),
        pytest.param(lambda: ToeplitzSpec(3, 4), "1 <= m <= n", id="toeplitz"),
        pytest.param(lambda: replace(_THM43_12, preset="thm44"), "known preset",
                     id="trevisan-preset"),
        pytest.param(lambda: build_trevisan("custom", 12, 2, _QUARTER), "thm42 or thm43 preset",
                     id="trevisan-build-preset"),
        pytest.param(lambda: replace(_THM43_12, epsilon_target=Fraction(5)), "0 < epsilon < 1",
                     id="trevisan-epsilon"),
        pytest.param(lambda: replace(_THM43_12, n=0), "positive dimensions",
                     id="trevisan-dimensions"),
        pytest.param(lambda: replace(_THM43_12, design=build_poly_design(2, 7)), "l = 2w",
                     id="trevisan-set-size"),
        pytest.param(lambda: replace(_THM43_12, epsilon_target=Fraction(1, 1000)),
                     "2m <= eps * 2^w", id="trevisan-width"),
        pytest.param(lambda: replace(_CONDENSER, k=0), "0 < k <= n", id="condenser-inputs"),
        pytest.param(lambda: replace(_CONDENSER, power=3), "h a power of two >= 2",
                     id="condenser-power"),
        pytest.param(lambda: replace(_CONDENSER, output_symbols=3), "1 <= m' <= n_tilde",
                     id="condenser-outputs"),
        pytest.param(lambda: replace(_CONDENSER, n=30), "n <= n_tilde * w", id="condenser-fit"),
        pytest.param(lambda: replace(_CONDENSER, modulus=FieldPoly((0, 0, 1), 11)),
                     "E monic irreducible", id="condenser-modulus"),
        pytest.param(lambda: replace(_CONDENSER, power=32), "w >= log2(n_tilde * h^2 / eps)",
                     id="condenser-inequality"),
        # m' w = 22 > (1 + 2/3) 6 + 11 = 21
        pytest.param(lambda: replace(_CONDENSER, alpha=Fraction(2, 3)),
                     "m' * w <= (1 + alpha) k + w", id="condenser-output-length"),
        pytest.param(lambda: replace(_BLOCK, e2=build_trevisan("thm43", 22, 256, _QUARTER)),
                     "equal halves", id="block-halves"),
        pytest.param(lambda: replace(_BLOCK, e2=_BLOCK.e1), "E2 output length = E1 seed length",
                     id="block-e2-output"),
        pytest.param(lambda: replace(_BLOCK, e2=replace(_BLOCK.e2, epsilon_target=Fraction(1, 2))),
                     "E2 epsilon = E1 epsilon", id="block-epsilon"),
        pytest.param(lambda: replace(_BLOCK, b=-1), "b >= 0", id="block-b"),
        pytest.param(lambda: replace(_BLOCK, b=22), "b < n/2 - log2(1/eps)", id="block-margin"),
        # E1 outputs 11 bits, and ceil((24 - 5) / 2) = 10
        pytest.param(lambda: replace(_BLOCK, b=5), "m1 <= ceil((n/2 - b)/2)", id="block-m1"),
        pytest.param(lambda: PipelineSpec(_CONDENSER, _BLOCK), "beta < 1/2", id="pipeline-beta"),
        pytest.param(lambda: replace(_PIPELINE, extractor=replace(_BLOCK, b=1)),
                     "b = ceil(beta k)", id="pipeline-b"),
        pytest.param(lambda: replace(_PIPELINE,
                                     extractor=build_high_entropy_extractor(16, 2, _QUARTER)),
                     "extractor input = condensed length (+ parity pad)", id="pipeline-input"),
    ],
)
def test_every_spec_rule_raises_a_named_constraint(make, constraint):
    with pytest.raises(InfeasibleParameterError) as exc:
        make()
    # a constraint of its own, not the message standing in for one
    assert exc.value.constraint == constraint != str(exc.value)
