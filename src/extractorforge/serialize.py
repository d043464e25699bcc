"""The JSON form of every spec, and content addressing by its sha256.

This module is the one owner of the spec format.  ``_CODEC`` holds one
entry per spec class: its type tag (None for the nested ``Design`` and
``CodeSpec``, which carry none) and, per JSON key, the attribute the key
holds and the (write, read) pair that converts its value.  Nested specs
recurse through the same entries.  ``spec_to_json`` fixes the byte-level
form (sorted keys, no whitespace), so equal specs give identical bytes and
therefore identical digests.

Quirks of the format, kept so that every digest stays what it was:

* a Fraction is written as ``[numerator, denominator]`` even when it is
  integral (``"alpha": [1, 1]``), except a design's ``certifiedOverlap``,
  which is a bare int when integral;
* ``modulusE`` is the list of E's coefficients, lowest degree first,
  ending in E's leading 1, and is read back as a ``FieldPoly`` over the
  field of the condenser's ``w``;
* ``sets`` and ``rounding`` are lists in JSON and tuples in Python;
* an integer key holds a JSON integer, a Fraction key a pair of them, and
  a design's ``sets`` and a condenser's ``modulusE`` integers, or the load
  fails with ``ValueError``: the codec checks only these types, and
  ``Design`` the rest of its sets, as every spec checks its own rules;
* a Trevisan spec's ``t``, ``m`` and ``code``, a condenser's ``w`` and
  ``messageSymbols``, a block composite's ``n``, ``epsilon`` and
  ``errorBudget``, and a pipeline's ``n``, ``k``, ``beta``, ``zeta``,
  ``alpha``, ``epsilon``, ``errorBudget``, ``seedBits``, ``outputBits``
  and ``rounding`` are stated, not read: the spec derives them from its
  parts, and an entry whose read is None is only written.  A condenser's
  ``w`` is also the field its ``modulusE`` is read over, so it always
  agrees with the spec;
* a read key a file lacks raises ``ValueError("{key} is missing: spec is
  not in its canonical form at {path!r}")``, and a read's own type error
  ends with `` at {path!r}``, ``path`` dotted as below (``'e1.n'`` inside
  a block spec);
* a file loads only in its canonical form: its JSON value, dumped as
  ``spec_to_json`` dumps, must equal ``spec_to_json`` of the spec it
  decodes to.  That one comparison checks every stated key (it tells 728
  from 728.0 and 1 from ``true``, and a missing key from a present one)
  and every read value the spec normalises (a Fraction not in lowest
  terms, an integral ``certifiedOverlap`` written as a pair), so no file
  loads as, and publishes the digest of, another.  Only when it fails are
  the keys walked, in codec order and down through the nested specs (the
  values with a type tag), and the first that differs raises
  ``ValueError("{key} is {stated!r} but the spec gives {canonical!r}: spec
  is not in its canonical form at {path!r}")``, ``path`` dotted as in
  ``'extractor.e1.t'``; a missing key is stated as ``missing``, and keys
  the spec does not have are named by their paths alone.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .codes import CodeSpec
from .compose import BlockSpec, PipelineSpec
from .condenser import CondenserSpec
from .designs import Design
from .poly import FieldPoly
from .toeplitz import ToeplitzSpec
from .trevisan import ExtractorSpec


def _same(value):
    return value


def _pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _read_int(raw, data, path, what="an integer") -> int:
    if type(raw) is not int:  # bool is an int subclass, and rejected too
        raise ValueError(f"expected {what}, got {raw!r} at {path!r}")
    return raw


def _read_sets(raw, data, path) -> tuple[tuple[int, ...], ...]:
    sets = tuple(tuple(s) for s in raw)
    if any(type(v) is not int for s in sets for v in s):
        raise ValueError(f"design sets must hold integers at {path!r}")
    return sets


def _read_pair(raw, data, path) -> Fraction:
    if type(raw) is not list or len(raw) != 2 or any(type(v) is not int for v in raw):
        raise ValueError(f"expected [numerator, denominator], got {raw!r} at {path!r}")
    return Fraction(*raw)


def _read_overlap(raw, data, path) -> Fraction:
    read = _read_pair if isinstance(raw, list) else _read_int
    return Fraction(read(raw, data, path))


def _read_modulus(raw, data, path) -> FieldPoly:
    if type(raw) is not list or any(type(v) is not int for v in raw):
        raise ValueError(f"modulusE must be a list of integers, got {raw!r} at {path!r}")
    # FieldPoly drops trailing zeros, so a file must state E's leading 1 last
    if not raw or raw[-1] != 1:
        raise ValueError(f"modulus E must be monic and irreducible over GF(2^w): "
                         f"modulusE {raw!r} does not end in its leading coefficient 1 "
                         f"at {path!r}")
    # w is stated, so a file may leave it out
    w_path = path.removesuffix("modulusE") + "w"
    return FieldPoly(tuple(raw), _read_int(data.get("w"), data, w_path, "an integer for w"))


def _encode(spec) -> dict:
    tag, fields = _CODEC[type(spec)]
    data = {} if tag is None else {"type": tag}
    for key, attr, (write, _) in fields:
        data[key] = write(getattr(spec, attr))
    return data


def _decode(cls, data, path=""):
    """The ``cls`` spec a JSON object holds, ``path`` the dotted prefix of
    its keys ('e1.' for a block spec's E1), which every read error names."""
    tag, fields = _CODEC[cls]
    at = f" at {path[:-1]!r}" if path else ""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object{at}")
    if tag is not None and data.get("type") != tag:
        raise ValueError(f"{cls.__name__} wants type tag {tag!r}, got {data.get('type')!r}{at}")
    values = {}
    for key, attr, (_, read) in fields:
        if read is None:
            continue
        if key not in data:
            raise ValueError(f"{key} is missing: spec is not in its canonical form "
                             f"at {path + key!r}")
        values[attr] = read(data[key], data, path + key)
    return cls(**values)


def _nested(cls):
    return (_encode, lambda raw, data, path: _decode(cls, raw, path + "."))


# (write, read) pairs; read gets the raw value, the enclosing JSON object
# and the value's dotted path.
_PLAIN = (_same, lambda raw, data, path: raw)
_INT = (_same, _read_int)
_FRACTION = (_pair, _read_pair)
_OVERLAP = (lambda value: int(value) if value.denominator == 1 else _pair(value), _read_overlap)
_SETS = (lambda sets: [list(s) for s in sets], _read_sets)
_MODULUS = (lambda e: list(e.coeffs), _read_modulus)
_STATED = (_same, None)
_STATED_FRACTION = (_pair, None)
_STATED_STRINGS = (list, None)
_STATED_CODE = (_encode, None)

# class -> (type tag, ((JSON key, attribute, (write, read)), ...))
_CODEC = {
    CodeSpec: (None, (
        ("w", "field_width", _INT),
        ("messageSymbols", "message_symbols", _INT),
    )),
    Design: (None, (
        ("t", "universe_size", _INT),
        ("l", "set_size", _INT),
        ("kind", "kind", _PLAIN),
        ("sets", "sets", _SETS),
        ("certifiedOverlap", "certified_overlap", _OVERLAP),
    )),
    ExtractorSpec: ("trevisan", (
        ("n", "n", _INT),
        ("t", "t", _STATED),
        ("m", "m", _STATED),
        ("preset", "preset", _PLAIN),
        ("epsilonTarget", "epsilon_target", _FRACTION),
        ("code", "code", _STATED_CODE),
        ("design", "design", _nested(Design)),
    )),
    ToeplitzSpec: ("toeplitz", (
        ("n", "input_bits", _INT),
        ("m", "output_bits", _INT),
    )),
    CondenserSpec: ("guv", (
        ("n", "n", _INT),
        ("k", "k", _INT),
        ("epsilon", "epsilon", _FRACTION),
        ("alpha", "alpha", _FRACTION),
        ("w", "field_width", _STATED),
        ("messageSymbols", "message_symbols", _STATED),
        ("h", "power", _INT),
        ("outputSymbols", "output_symbols", _INT),
        ("modulusE", "modulus", _MODULUS),
    )),
    BlockSpec: ("blockComposed", (
        ("n", "n", _STATED),
        ("b", "b", _INT),
        ("epsilon", "epsilon", _STATED_FRACTION),
        ("errorBudget", "error_budget", _STATED_FRACTION),
        ("e1", "e1", _nested(ExtractorSpec)),
        ("e2", "e2", _nested(ExtractorSpec)),
    )),
    PipelineSpec: ("pipeline", (
        ("n", "n", _STATED),
        ("k", "k", _STATED),
        ("beta", "beta", _STATED_FRACTION),
        ("zeta", "zeta", _STATED_FRACTION),
        ("alpha", "alpha", _STATED_FRACTION),
        ("epsilon", "epsilon", _STATED_FRACTION),
        ("errorBudget", "error_budget", _STATED_FRACTION),
        ("seedBits", "seed_bits", _STATED),
        ("outputBits", "output_bits", _STATED),
        ("condenser", "condenser", _nested(CondenserSpec)),
        ("extractor", "extractor", _nested(BlockSpec)),
        ("rounding", "rounding", _STATED_STRINGS),
    )),
}

_SPEC_TYPES = {tag: cls for cls, (tag, _) in _CODEC.items() if tag is not None}


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def spec_to_json(spec) -> str:
    return _dump(_encode(spec))


def spec_digest(spec) -> str:
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()


def spec_from_json_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    kind = data.get("type")
    if kind is None:
        raise ValueError("spec missing its type tag")
    cls = _SPEC_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown spec type {kind!r}")
    spec = _decode(cls, data)
    canonical = _encode(spec)
    if _dump(data) != _dump(canonical):
        raise ValueError(_first_difference(data, canonical, ""))
    return spec


def _first_difference(stated: dict, canonical: dict, path: str) -> str:
    """Where a JSON object that is not in its canonical form first departs
    from it: the first differing key in codec order, nested specs (values
    with a type tag) walked key by key, else the keys it has in excess."""
    for key, value in canonical.items():
        where = path + key
        if key in stated and _dump(stated[key]) == _dump(value):
            continue
        if isinstance(value, dict) and "type" in value:  # read, so present
            return _first_difference(stated[key], value, where + ".")
        given = repr(stated[key]) if key in stated else "missing"
        return (f"{key} is {given} but the spec gives {value!r}: "
                f"spec is not in its canonical form at {where!r}")
    extra = sorted(path + key for key in stated.keys() - canonical.keys())
    return f"spec is not in its canonical form at {', '.join(map(repr, extra))}"


def spec_from_json(text: str):
    return spec_from_json_dict(json.loads(text))
