"""Randomness extraction toolkit with exact desk-scale verification.

Bit strings, GF(2^w) arithmetic, combinatorial designs, a random-access
concatenated code, design-based and Toeplitz extractors, a strong lossless
condenser, their compositions, and a brute-force oracle that checks every
classically checkable property exactly.
"""

from .bits import BitString
from .codes import CodeSpec, code_distance, encode_bit
from .compose import (
    BlockSpec,
    PipelineSpec,
    block_compose,
    build_high_entropy_extractor,
    build_pipeline,
    condense_extract,
)
from .condenser import CondenserSpec, build_condenser, guv_condense, strong_form
from .designs import (
    Design,
    build_greedy_weak_design,
    build_poly_design,
    restrict_seed,
    verify_design,
)
from .errors import BudgetExceededError, FieldMismatchError, InfeasibleParameterError
from .gf2 import field_modulus
from .oracle import (
    FiniteDistribution,
    FlatSource,
    JointTable,
    distance_to_min_entropy,
    extractor_distance,
    extractor_distances,
    injective_fraction,
    lemma_suite,
    sample_flat_sources,
    stat_distance,
)
from .poly import FieldPoly, poly_pow_mod
from .serialize import spec_digest, spec_from_json, spec_to_json
from .toeplitz import ToeplitzSpec, toeplitz_extract
from .trevisan import ExtractorSpec, build_trevisan, custom_spec, trevisan_extract

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "BlockSpec",
    "BudgetExceededError",
    "CodeSpec",
    "CondenserSpec",
    "Design",
    "ExtractorSpec",
    "FieldMismatchError",
    "FieldPoly",
    "FiniteDistribution",
    "FlatSource",
    "InfeasibleParameterError",
    "JointTable",
    "PipelineSpec",
    "ToeplitzSpec",
    "block_compose",
    "build_condenser",
    "build_greedy_weak_design",
    "build_high_entropy_extractor",
    "build_pipeline",
    "build_poly_design",
    "build_trevisan",
    "code_distance",
    "condense_extract",
    "custom_spec",
    "distance_to_min_entropy",
    "encode_bit",
    "extractor_distance",
    "extractor_distances",
    "field_modulus",
    "guv_condense",
    "injective_fraction",
    "lemma_suite",
    "poly_pow_mod",
    "restrict_seed",
    "sample_flat_sources",
    "spec_digest",
    "spec_from_json",
    "spec_to_json",
    "stat_distance",
    "strong_form",
    "toeplitz_extract",
    "trevisan_extract",
    "verify_design",
]
