"""The mutation catalogue: small deliberate faults in ``src/``, each with the
tests that must catch it.  Data only; ``run_mutants.py`` applies each entry
to a copy of the checkout and fails if a mutant survives its tests, or if an
entry's old text does not occur exactly once in its file.

An entry names its ``file``, the ``old`` text, the ``new`` text that replaces
it, and the ``tests`` (pytest node ids) expected to fail on the mutant.  A
refactor that rewrites an entry's old text re-states the entry against the
new code; a mutant that survives is a gap in the tests, to be closed by a
test, never by deleting the entry.
"""

MUTANTS = [
    {
        # per-block counts are exact only if no image spans two blocks: the
        # block-edge map gives the first seed of a block the image of the
        # last seed of the block before
        "name": "image_counts: ascent across blocks not strict",
        "file": "src/extractorforge/oracle.py",
        "old": "(top is not None and part[0, 0] <= top)",
        "new": "(top is not None and part[0, 0] < top)",
        "tests": [
            "tests/test_condenser.py::test_counts_are_exact_for_any_encoding[block-edge]",
        ],
    },
    {
        "name": "CounterRng.sample_distinct: repeated values kept",
        "file": "src/extractorforge/detrand.py",
        "old": "            if v not in seen:\n",
        "new": "            if True:\n",
        "tests": [
            "tests/test_detrand.py::test_sample_distinct_leaves_the_stream_where_below_does",
        ],
    },
    {
        "name": "image_counts: lengths the map declares not checked",
        "file": "src/extractorforge/oracle.py",
        "old": "    if (source.n, seed_bits) != (n, t):\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_condenser.py::test_image_counts_refuses_lengths_the_map_does_not_take",
        ],
    },
    {
        "name": "encode_bits: alpha and z swapped",
        "file": "src/extractorforge/codes.py",
        "old": "horner(coeffs, (index >> w)[:, None], w)[:, 0]\n    z = (index & ((1 << w) - 1))",
        "new": "horner(coeffs, (index & ((1 << w) - 1))[:, None], w)[:, 0]\n    z = (index >> w)",
        "tests": [
            "tests/test_codes.py::test_zero_mask_and_zero_message",
            "tests/test_codes.py::test_encode_matches_reference_table",
        ],
    },
    {
        # a count of exactly the budget is allowed; one more item is not
        "name": "_distances: budget comparison off by one",
        "file": "src/extractorforge/oracle.py",
        "old": "if support * ny > budget:",
        "new": "if support * ny >= budget:",
        "tests": [
            "tests/test_spectral.py::test_batch_budget_is_charged_per_source",
        ],
    },
    {
        # epsilon stated as [2, 8] reads as 1/4, so only the comparison
        # with the canonical form refuses the file
        "name": "spec_from_json_dict: canonical-form comparison dropped",
        "file": "src/extractorforge/serialize.py",
        "old": "    if _dump(data) != _dump(canonical):\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_serialize.py::test_only_canonical_files_load[guv-epsilon]",
            "tests/test_serialize.py::test_only_canonical_files_load[guv-extra-key]",
        ],
    },
    {
        # the builder's E1 outputs exactly ceil((n/2 - b) / 2) bits
        "name": "BlockSpec: m1 bound strict",
        "file": "src/extractorforge/compose.py",
        "old": "self.e1.m <= m1",
        "new": "self.e1.m < m1",
        "tests": [
            "tests/test_compose.py::test_block_compose_matches_reference_chain[12-1]",
            "tests/test_serialize.py::test_builder_output_bytes_pinned[block-42-2]",
        ],
    },
    {
        "name": "_check_storage_bound: b >= 0 dropped",
        "file": "src/extractorforge/compose.py",
        "old": '        (b >= 0, f"the storage bound b must be >= 0, got {b}", "b >= 0"),\n',
        "new": "",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[block-b]",
            "tests/test_cli.py::test_every_rule_is_checked_on_load[block-b-negative]",
        ],
    },
    {
        # a set ending at t would index past the seed
        "name": "_check_design: universe bound not strict",
        "file": "src/extractorforge/designs.py",
        "old": "s[-1] < universe_size",
        "new": "s[-1] <= universe_size",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[design-universe]",
            "tests/test_cli.py::test_every_rule_is_checked_on_load[design-universe]",
        ],
    },
    {
        "name": "CodeSpec: 2^(w+1) message symbols allowed",
        "file": "src/extractorforge/codes.py",
        "old": "(symbols - 1).bit_length() <= w,",
        "new": "(symbols - 1).bit_length() <= w + 1,",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[code-symbols]",
        ],
    },
    {
        "name": "ToeplitzSpec: one output bit past the input allowed",
        "file": "src/extractorforge/toeplitz.py",
        "old": "(1 <= m <= n,",
        "new": "(1 <= m <= n + 1,",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[toeplitz]",
            "tests/test_cli.py::test_every_rule_is_checked_on_load[toeplitz-m>n]",
        ],
    },
    {
        # the builder takes the smallest w with 2m <= eps * 2^w, often at equality
        "name": "_violated_width: 2m = eps * 2^w refused",
        "file": "src/extractorforge/trevisan.py",
        "old": "if 2 * m > epsilon * (1 << w):",
        "new": "if 2 * m >= epsilon * (1 << w):",
        "tests": [
            "tests/test_serialize.py::test_builder_output_bytes_pinned[thm43-21-256]",
            "tests/test_serialize.py::test_canonical_bytes[trevisan]",
        ],
    },
    {
        "name": "_violated_constraint: m' * w = (1 + alpha) k + w refused",
        "file": "src/extractorforge/condenser.py",
        "old": "if m_out * w > (1 + alpha) * k + w:",
        "new": "if m_out * w >= (1 + alpha) * k + w:",
        "tests": [
            "tests/test_condenser.py::test_output_length_bound_admits_equality",
        ],
    },
    {
        # the top bit of z then never masks p_x(alpha)
        "name": "extract_table: z mask one bit narrow",
        "file": "src/extractorforge/trevisan.py",
        "old": "(index & ((1 << w) - 1))",
        "new": "(index & ((1 << (w - 1)) - 1))",
        "tests": [
            "tests/test_trevisan.py::test_batch_table_matches_scalar_extract",
        ],
    },
    {
        "name": "extract_table: alpha and z swapped",
        "file": "src/extractorforge/trevisan.py",
        "old": "evals.take(alpha[i], axis=0) & z[i, :, None]",
        "new": "evals.take(z[i], axis=0) & alpha[i, :, None]",
        "tests": [
            "tests/test_trevisan.py::test_batch_table_matches_scalar_extract",
        ],
    },
    {
        # the least weight belongs to the message whose polynomial has the most roots
        "name": "verify code: fewest roots read as the most",
        "file": "src/extractorforge/cli.py",
        "old": "roots.max()",
        "new": "roots.min()",
        "tests": [
            "tests/test_cli.py::test_verify_code_minimum_is_the_least_codeword_weight[3-4]",
            "tests/test_cli.py::test_verify_report_bytes[code]",
        ],
    },
    {
        "name": "_check_halves: a longer E1 half allowed",
        "file": "src/extractorforge/compose.py",
        "old": "(e1_input == e2_input,",
        "new": "(e1_input >= e2_input,",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[block-halves]",
        ],
    },
    {
        # a pipeline spec derives beta = 1/2 - alpha < 1/2; only the builder
        # takes beta as given
        "name": "_check_beta: beta = 1/2 allowed",
        "file": "src/extractorforge/compose.py",
        "old": "0 <= beta < Fraction(1, 2)",
        "new": "0 <= beta <= Fraction(1, 2)",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[pipeline-build-beta]",
        ],
    },
    {
        # an odd condensed length is padded by one bit to the extractor's even n
        "name": "_check_condensed_input: parity pad dropped",
        "file": "src/extractorforge/compose.py",
        "old": "extractor_bits == strong_bits + strong_bits % 2,",
        "new": "extractor_bits == strong_bits,",
        "tests": [
            "tests/test_compose.py::test_condense_extract_reads_the_strong_output_rounded_up_to_even[16-8-33]",
        ],
    },
    {
        # a full-entropy source is the builder's identity case
        "name": "_check_condenser_inputs: k = n refused",
        "file": "src/extractorforge/condenser.py",
        "old": "(0 < k <= n,",
        "new": "(0 < k < n,",
        "tests": [
            "tests/test_condenser.py::test_build_full_entropy_becomes_passthrough",
        ],
    },
    {
        "name": "_check_trevisan_inputs: epsilon = 1 allowed",
        "file": "src/extractorforge/trevisan.py",
        "old": "(0 < epsilon < 1,",
        "new": "(0 < epsilon <= 1,",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[trevisan-epsilon-1]",
        ],
    },
    {
        # 1 is a power of two, so the h >= 2 half of the rule alone refuses it
        "name": "CondenserSpec: power h = 1 allowed",
        "file": "src/extractorforge/condenser.py",
        "old": "(self.power >= 2 and",
        "new": "(self.power >= 1 and",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[condenser-power-1]",
        ],
    },
    {
        "name": "CondenserSpec: m' = n_tilde + 1 allowed",
        "file": "src/extractorforge/condenser.py",
        "old": "(1 <= self.output_symbols <= self.message_symbols,",
        "new": "(1 <= self.output_symbols <= self.message_symbols + 1,",
        "tests": [
            "tests/test_package.py::test_every_spec_rule_raises_a_named_constraint[condenser-outputs]",
        ],
    },
    {
        "name": "CondenserSpec: n = n_tilde * w refused",
        "file": "src/extractorforge/condenser.py",
        "old": "(self.n <= self.message_symbols * self.field_width,",
        "new": "(self.n < self.message_symbols * self.field_width,",
        "tests": [
            "tests/test_condenser.py::test_source_fit_admits_equality",
        ],
    },
    {
        # a value one byte wide but too many bits long would lose its top
        # bits, and a negative one would raise OverflowError, not ValueError
        "name": "split_symbols: fit check dropped",
        "file": "src/extractorforge/gf2.py",
        "old": "    if values and (min(values) < 0 or max(values) >> bits):\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_gf2.py::test_split_symbols_round_trips_wide_values[9-8]",
            "tests/test_codes.py::test_multi_index_kernel_checks_message_and_indices",
        ],
    },
    {
        "name": "split_symbols: symbol bit order reversed",
        "file": "src/extractorforge/gf2.py",
        "old": "(1 << np.arange(width))",
        "new": "(1 << np.arange(width)[::-1])",
        "tests": [
            "tests/test_gf2.py::test_split_symbols_round_trips_wide_values[9-8]",
        ],
    },
    {
        # a^-1 = g^(q - 1 - log a); one less is a^-1 / g
        "name": "GF2Field.inv: order - 2 - log a",
        "file": "src/extractorforge/gf2.py",
        "old": "self.exp_array[self.order - 1 - self.log_array[a]]",
        "new": "self.exp_array[self.order - 2 - self.log_array[a]]",
        "tests": [
            "tests/test_gf2.py::test_gf_inv_spec_values",
            "tests/test_gf2.py::test_inverse_and_element_order[3]",
        ],
    },
    {
        # three messages at one index would read three bits, one at a time
        "name": "encode_bits: one message or one per index not checked",
        "file": "src/extractorforge/codes.py",
        "old": "    if len(xs) not in (1, len(indices)):\n",
        "new": "    if False:\n",
        "tests": [
            "tests/test_codes.py::test_encode_bits_wants_one_message_or_one_per_index[3-1]",
        ],
    },
]
