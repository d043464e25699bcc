import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from extractorforge import serialize
from extractorforge.codes import CodeSpec
from extractorforge.compose import (
    BlockSpec,
    PipelineSpec,
    build_high_entropy_extractor,
    build_pipeline,
)
from extractorforge.condenser import CondenserSpec, build_condenser
from extractorforge.designs import Design, build_greedy_weak_design, build_poly_design
from extractorforge.poly import FieldPoly
from extractorforge.serialize import spec_digest, spec_from_json, spec_from_json_dict, spec_to_json
from extractorforge.toeplitz import ToeplitzSpec
from extractorforge.trevisan import ExtractorSpec, build_trevisan, custom_spec

QUARTER = Fraction(1, 4)

# sha256 of the canonical JSON of one spec of each type, as written before
# the format moved behind one codec; the first three are also pinned by the
# benchmark's workloads.
PINNED = {
    "guv": (
        lambda: build_condenser(12, 6, QUARTER, 1),
        "6414c04bc6da496fc69380834a2361e4fc7c7e642194780ff70536b74a22764d",
    ),
    "trevisan": (
        lambda: build_trevisan("thm43", 12, 2, QUARTER),
        "ec44e8aba610544f055f039801660de652e434c7d50f087ed8cee205163fd1ef",
    ),
    "toeplitz": (
        lambda: ToeplitzSpec(10, 2),
        "f91fe1ec1c4cc38cb600b12e4e1de8460a36fa0ed261ffc188d71e5f3e765425",
    ),
    "blockComposed": (
        lambda: build_high_entropy_extractor(16, 1, QUARTER),
        "4a012380bfa4731f35a03b3802940cbe2b4caa0377ae604067f32e03dde45d32",
    ),
    "pipeline": (
        lambda: build_pipeline(24, 8, QUARTER, QUARTER),
        "939ea1c9da7f1132fa43fec721cf1a255ae2d16e5efe2e8a079da21ceaf6d94e",
    ),
}

CANONICAL = {
    "guv": '{"alpha":[1,1],"epsilon":[1,4],"h":16,"k":6,"messageSymbols":2,'
    '"modulusE":[1,1,1],"n":12,"outputSymbols":2,"type":"guv","w":11}',
    "trevisan": '{"code":{"messageSymbols":3,"w":4},"design":{"certifiedOverlap":1,'
    '"kind":"weak","l":8,"sets":[[5,6,8,14,16,21,23,27],[0,1,10,17,19,25,26,31]],'
    '"t":32},"epsilonTarget":[1,4],"m":2,"n":12,"preset":"thm43","t":32,'
    '"type":"trevisan"}',
    "toeplitz": '{"m":2,"n":10,"type":"toeplitz"}',
}


# sha256 of the canonical JSON of builder outputs.  A pipeline's n, k,
# epsilon, alpha and zeta, a block composite's n and epsilon and a Trevisan
# spec's t are written from the spec's parts, and these files must keep
# their bytes, and so their digests.
BUILDER_DIGESTS = [
    (lambda: build_trevisan("thm42", 21, 11, QUARTER),
     "c53f1220b5d0c6d73d4677b06964ede28e480ec6b307f66f4a7a61a2ec79ef14"),
    (lambda: build_trevisan("thm43", 21, 256, QUARTER),
     "adb513b44d6a6a185efbbc9f728103dcf7b3fb2ac0457cff82535b33ee093f09"),
    (lambda: build_high_entropy_extractor(42, 2, QUARTER),
     "4f35f21f976aaa65657da1c90fd5e1b3b88f92433357442d03a510dc094b1a9c"),
    (lambda: build_high_entropy_extractor(64, 8, QUARTER),
     "027b0cc024bf73695a587e21dece6b9efe47dc8caefabfee52574ee003a12973"),
    (lambda: build_high_entropy_extractor(128, 16, Fraction(1, 16)),
     "32e60e9b764c04255e9ed3975e4e800c57306714672eba10c23ebe7c513f0532"),
    (lambda: build_pipeline(24, 8, QUARTER, QUARTER),
     "939ea1c9da7f1132fa43fec721cf1a255ae2d16e5efe2e8a079da21ceaf6d94e"),
    (lambda: build_pipeline(24, 8, 0, Fraction(1, 8)),
     "9fa381b2d066f9bef2bd3933dc7b780895e1d0356bfa63008d4be9e2d30944f3"),
]


@pytest.mark.parametrize(
    "build, digest",
    BUILDER_DIGESTS,
    ids=["thm42-21-11", "thm43-21-256", "block-42-2", "block-64-8", "block-128-16",
         "pipeline-24-8-quarter", "pipeline-24-8-zero"],
)
def test_builder_output_bytes_pinned(build, digest):
    spec = build()
    text = spec_to_json(spec)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert spec_from_json(text) == spec


# sha256 of the canonical JSON of custom specs, as written when a Trevisan
# spec stored m and its code: both are now written from the design.
CUSTOM_DIGESTS = [
    (lambda: custom_spec(9, build_poly_design(1, 18), QUARTER),
     "fc1cab4cce0c910edad8c3ba40d60e2bf5a15caa363eb62d46df9eb54cfb2cac"),
    (lambda: custom_spec(17, build_poly_design(1, 34), QUARTER),
     "ca125046a818ac4de77189e1e0955c93c1f2b7116ab708d05519e80f52a83d9d"),
    (lambda: custom_spec(12, build_greedy_weak_design(10, 6, 2), QUARTER),
     "692d5cc7068382af4bf80168c8a83a6de176bab3f831612c4096beb8d2e94266"),
]


@pytest.mark.parametrize("build, digest", CUSTOM_DIGESTS, ids=["w9", "w17", "greedy-10-6"])
def test_custom_spec_bytes_pinned(build, digest):
    test_builder_output_bytes_pinned(build, digest)


@pytest.fixture(scope="module")
def specs():
    return {tag: build() for tag, (build, _) in PINNED.items()}


@pytest.mark.parametrize("tag", PINNED)
def test_pinned_digest_round_trips(specs, tag):
    spec = specs[tag]
    text = spec_to_json(spec)
    assert json.loads(text)["type"] == tag
    assert spec_digest(spec) == hashlib.sha256(text.encode()).hexdigest() == PINNED[tag][1]
    back = spec_from_json(text)
    assert type(back) is type(spec) and back == spec
    assert spec_to_json(back) == text


@pytest.mark.parametrize("tag", CANONICAL)
def test_canonical_bytes(specs, tag):
    assert spec_to_json(specs[tag]) == CANONICAL[tag]


def test_format_quirks(specs):
    pipeline = specs["pipeline"]
    data = json.loads(spec_to_json(pipeline))
    designs = data["extractor"]["e1"]["design"], data["extractor"]["e2"]["design"]
    # an integral certified overlap is a bare int, any other Fraction a pair
    assert [d["certifiedOverlap"] for d in designs] == [0, [509, 255]]
    assert data["extractor"]["e1"]["epsilonTarget"] == [1, 4]
    assert data["errorBudget"] == [5, 4]
    assert (data["seedBits"], data["outputBits"]) == (pipeline.seed_bits, pipeline.output_bits)
    assert isinstance(data["rounding"], list)
    back = spec_from_json_dict(data)
    assert isinstance(back.rounding, tuple)
    assert all(isinstance(s, tuple) for s in back.extractor.e2.design.sets)
    assert back.condenser.modulus == FieldPoly(
        tuple(data["condenser"]["modulusE"]), data["condenser"]["w"]
    )


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 10, "m": 2}, "missing its type tag"),
        ({"type": "hadamard", "n": 10, "m": 2}, "unknown spec type 'hadamard'"),
        ([], "must be a JSON object"),
    ],
    ids=["missing", "unknown", "not-an-object"],
)
def test_tag_errors(data, message):
    with pytest.raises(ValueError, match=message):
        spec_from_json_dict(data)


def test_nested_spec_needs_its_own_tag(specs):
    data = json.loads(spec_to_json(specs["blockComposed"]))
    data["e1"]["type"] = "toeplitz"
    with pytest.raises(ValueError, match="ExtractorSpec wants type tag 'trevisan'"):
        spec_from_json_dict(data)


@pytest.mark.parametrize(
    "tag, path, value",
    [
        ("blockComposed", ("errorBudget",), [1, 1000]),
        ("pipeline", ("errorBudget",), [1, 1000]),
        ("pipeline", ("seedBits",), 40),
        ("pipeline", ("outputBits",), 99),
        ("pipeline", ("extractor", "errorBudget"), [3, 5]),
    ],
)
def test_stated_numbers_must_agree(specs, tag, path, value):
    data = json.loads(spec_to_json(specs[tag]))
    *parents, key = path
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    with pytest.raises(ValueError, match=f"^{key} is "):
        spec_from_json_dict(data)


@pytest.mark.parametrize(
    "key, retyped",
    [
        ("seedBits", float),
        ("outputBits", float),
        ("errorBudget", lambda pair: [float(v) for v in pair]),
    ],
)
def test_stated_numbers_pass_their_type_check(specs, key, retyped):
    # the true value as floats compares equal, so the canonical form's dump,
    # which writes 728.0 apart from 728, must catch it
    data = json.loads(spec_to_json(specs["pipeline"]))
    honest = data[key]
    data[key] = retyped(honest)
    assert data[key] == honest
    with pytest.raises(ValueError, match=f"^{key} is "):
        spec_from_json_dict(data)


@pytest.mark.parametrize("preset", [None, [1, 2], 0, "thm44"])
@pytest.mark.parametrize("path", [("extractor", "e1"), ("extractor", "e2")])
def test_trevisan_preset_must_be_known(specs, path, preset):
    data = json.loads(spec_to_json(specs["pipeline"]))
    target = data
    for name in path:
        target = target[name]
    target["preset"] = preset
    with pytest.raises(ValueError, match="^unknown preset"):
        spec_from_json_dict(data)


@pytest.mark.parametrize("cls", list(serialize._CODEC), ids=lambda cls: cls.__name__)
def test_codec_covers_every_field(cls):
    # a field without an entry would drop out of the JSON and the digest
    tag, entries = serialize._CODEC[cls]
    keys = [key for key, _, _ in entries]
    assert len(set(keys)) == len(keys) and "type" not in keys
    fields = {f.name for f in dataclasses.fields(cls)}
    assert {attr for _, attr, (_, read) in entries if read} == fields
    # stated numbers are derived properties, never fields
    for _, attr, (_, read) in entries:
        if read is None:
            assert isinstance(getattr(cls, attr), property)


@pytest.mark.parametrize("value", [1.5, "10", True, None, [10]])
@pytest.mark.parametrize(
    "tag, path",
    [("toeplitz", ("n",)), ("trevisan", ("code", "w")), ("guv", ("h",)), ("pipeline", ("k",)),
     ("guv", ("w",))],
)
def test_integer_keys_hold_integers(specs, tag, path, value):
    data = json.loads(spec_to_json(specs[tag]))
    *parents, key = path
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    # a stated key is checked by the canonical form, at the key or at the
    # untagged code that holds it; a read key by its read
    stated = {("trevisan", ("code", "w")): "^code is ", ("pipeline", ("k",)): "^k is "}
    with pytest.raises(ValueError, match=stated.get((tag, path), "expected an integer")):
        spec_from_json_dict(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda sets: sets[0].__setitem__(0, 1.0), "design sets must hold integers"),
        (lambda sets: sets[0].reverse(), "set 0 is not sorted"),
        (lambda sets: sets[1].__setitem__(-1, 10**6), r"set 1 leaves the universe \[0, 32\)"),
        (lambda sets: sets[1].pop(), "set 1 has 7 elements, expected 8"),
    ],
    ids=["float", "unsorted", "outside", "short"],
)
def test_design_sets_must_be_well_formed(specs, edit, message):
    data = json.loads(spec_to_json(specs["trevisan"]))
    edit(data["design"]["sets"])
    with pytest.raises(ValueError, match=message):
        spec_from_json_dict(data)


def _set(path, value):
    """An edit of the spec's JSON that sets the value at ``path``."""
    def edit(data):
        *parents, key = path
        for name in parents:
            data = data[name]
        data[key] = value
    return edit


# Edits of a pinned file that used to load as, and publish the digest of,
# the unedited spec, with what the load error names; a trailing zero in
# modulusE is caught by its own read.
NON_CANONICAL_EDITS = {
    "guv-modulusE": ("guv", _set(("modulusE",), [1, 1, 1, 0]), "monic and irreducible"),
    "guv-epsilon": ("guv", _set(("epsilon",), [2, 8]), "'epsilon'"),
    "guv-extra-key": ("guv", _set(("note",), "reviewed"), "'note'"),
    "trevisan-overlap-pair": ("trevisan", _set(("design", "certifiedOverlap"), [1, 1]),
                              "'design'"),
    "trevisan-epsilon": ("trevisan", _set(("epsilonTarget",), [3, 12]), "'epsilonTarget'"),
    "trevisan-design-extra-key": ("trevisan", _set(("design", "note"), 1), "'design'"),
}


@pytest.mark.parametrize("name", NON_CANONICAL_EDITS)
def test_only_canonical_files_load(specs, name):
    tag, edit, message = NON_CANONICAL_EDITS[name]
    data = json.loads(spec_to_json(specs[tag]))
    edit(data)
    with pytest.raises(ValueError, match=message):
        spec_from_json(json.dumps(data))


@pytest.mark.parametrize("tag", PINNED)
def test_canonical_value_loads_in_any_layout(specs, tag):
    # the rule compares JSON values: key order and whitespace are free
    text = spec_to_json(specs[tag])
    data = json.loads(text)
    relaid = json.dumps(dict(reversed(list(data.items()))), indent=2)
    assert relaid != text
    assert spec_to_json(spec_from_json(relaid)) == text


def _stated_cases():
    """(JSON path in the pipeline spec, edit) for every stated codec entry,
    at the first place the pipeline holds its class: another value of the
    same JSON type, the true value as floats for a number, and no value."""
    places = {PipelineSpec: (), CondenserSpec: ("condenser",), BlockSpec: ("extractor",),
              ExtractorSpec: ("extractor", "e1")}
    assert set(places) == {cls for cls, (_, fields) in serialize._CODEC.items()
                           if any(read is None for _, _, (_, read) in fields)}
    for cls, parents in places.items():
        for key, _, (write, read) in serialize._CODEC[cls][1]:
            if read is None:
                numeric = write in (serialize._same, serialize._pair)
                for edit in ("other", "float", "deleted") if numeric else ("other", "deleted"):
                    yield pytest.param(parents + (key,), edit, id=f"{cls.__name__}-{key}-{edit}")


def _other_value(value):
    """A value of the same JSON type as a stated one, other than it."""
    if type(value) is int:
        return value + 1
    if type(value) is dict:  # a code
        return {**value, "messageSymbols": value["messageSymbols"] + 1}
    if value and type(value[0]) is int:  # a Fraction
        return [value[0] + value[1], value[1]]
    return value + ["edited"]  # the rounding notes


@pytest.mark.parametrize("path, edit", list(_stated_cases()))
def test_every_stated_key_is_checked_by_the_canonical_form(specs, path, edit):
    # the one comparison with the canonical form rejects every file the
    # per-key type and value checks rejected, and names the key's path
    data = json.loads(spec_to_json(specs["pipeline"]))
    *parents, key = path
    target = data
    for name in parents:
        target = target[name]
    honest = target[key]
    if edit == "deleted":
        del target[key]
    elif edit == "other":
        target[key] = _other_value(honest)
    else:
        target[key] = float(honest) if type(honest) is int else [float(v) for v in honest]
        assert target[key] == honest
    with pytest.raises(ValueError) as raised:
        spec_from_json_dict(data)
    message = str(raised.value)
    if path == ("condenser", "w"):
        # w is read with modulusE, so its errors are the read's or the
        # condenser's rules'; the read names the key
        assert edit == "other" or message.startswith("expected an integer for w, got ")
        return
    assert message.endswith(f"spec is not in its canonical form at {'.'.join(path)!r}")
    given = "missing" if edit == "deleted" else repr(target[key])
    assert message.startswith(f"{key} is {given} but the spec gives ")


def test_keys_the_spec_lacks_are_named_by_their_paths(specs):
    data = json.loads(spec_to_json(specs["pipeline"]))
    data["extractor"]["e2"]["note"] = "reviewed"
    data["extractor"]["e2"]["aside"] = 1
    with pytest.raises(ValueError, match=r"^spec is not in its canonical form at "
                       r"'extractor\.e2\.aside', 'extractor\.e2\.note'$"):
        spec_from_json_dict(data)


# The first place of each class with read entries in a pipeline spec, and
# E1's and its design's inside a block spec.  A code is stated whole, so
# its entries are never read, and a Toeplitz spec has no place in either.
_READ_PLACES = {
    "pipeline": {PipelineSpec: (), CondenserSpec: ("condenser",), BlockSpec: ("extractor",),
                 ExtractorSpec: ("extractor", "e1"), Design: ("extractor", "e1", "design")},
    "blockComposed": {ExtractorSpec: ("e1",), Design: ("e1", "design")},
}


def _read_cases(keep=lambda read: True):
    """(spec tag, JSON path) for every read codec entry at its places."""
    for tag, places in _READ_PLACES.items():
        for cls, parents in places.items():
            for key, _, (_, read) in serialize._CODEC[cls][1]:
                if read is not None and keep(read):
                    path = parents + (key,)
                    yield pytest.param(tag, path, id=f"{tag}-{'.'.join(path)}")


def test_read_places_cover_every_read_entry():
    readers = {cls for cls, (_, fields) in serialize._CODEC.items()
               if any(read is not None for _, _, (_, read) in fields)}
    assert readers - set(_READ_PLACES["pipeline"]) == {ToeplitzSpec, CodeSpec}


def _edit_at(data, path):
    """The JSON object holding the last key of ``path``, and that key."""
    *parents, key = path
    for name in parents:
        data = data[name]
    return data, key


@pytest.mark.parametrize("tag, path", list(_read_cases()))
def test_a_missing_read_key_is_named_by_its_path(specs, tag, path):
    data = json.loads(spec_to_json(specs[tag]))
    target, key = _edit_at(data, path)
    del target[key]
    message = f"{key} is missing: spec is not in its canonical form at {'.'.join(path)!r}"
    with pytest.raises(ValueError) as raised:
        spec_from_json_dict(data)
    assert str(raised.value) == message


@pytest.mark.parametrize("tag, path", list(_read_cases(lambda read: read is serialize._read_int)))
def test_a_float_in_a_read_integer_key_is_named_by_its_path(specs, tag, path):
    data = json.loads(spec_to_json(specs[tag]))
    target, key = _edit_at(data, path)
    target[key] = float(target[key])
    with pytest.raises(ValueError) as raised:
        spec_from_json_dict(data)
    assert str(raised.value) == f"expected an integer, got {target[key]!r} at {'.'.join(path)!r}"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"type": "toeplitz", "m": 2}, "n is missing: spec is not in its canonical form at 'n'"),
        ({"type": "trevisan", "n": 4}, "preset is missing: spec is not in its canonical form "
                                       "at 'preset'"),
        ({"type": "guv", "n": 4}, "k is missing: spec is not in its canonical form at 'k'"),
        ({"type": "blockComposed", "b": 1, "e1": []},
         "ExtractorSpec must be a JSON object at 'e1'"),
    ],
    ids=["toeplitz", "trevisan", "guv", "e1-not-an-object"],
)
def test_hand_written_files_name_what_they_lack(data, message):
    with pytest.raises(ValueError) as raised:
        spec_from_json_dict(data)
    assert str(raised.value) == message
