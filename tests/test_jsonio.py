import json

import pytest

from linfty import fixtures
from linfty.jsonio import FormatError, digest, merge_bundles, parse_bundle, serialize_bundle
from linfty.structures import LinfAlgebra, LinfModule


def test_round_trip_all_fixtures():
    for name in fixtures.FIXTURES:
        bundle = fixtures.build(name)
        text = serialize_bundle(bundle)
        parsed = parse_bundle(text)
        assert parsed == bundle
        assert serialize_bundle(parsed) == text  # canonical and idempotent


def test_serialization_is_deterministic():
    a = serialize_bundle(fixtures.build("abelian-i2"))
    b = serialize_bundle(fixtures.build("abelian-i2"))
    assert a == b
    assert digest(a) == digest(b)


def test_zero_ops_are_not_serialized():
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    assert list(doc["structures"]["heisenberg"]["ops"]) == ["2"]
    assert doc["structures"]["subalgebra"]["ops"] == {}


def test_huge_max_arity_stores_nothing():
    # max_arity is only the truncation number: no map is built per arity
    doc = {"spaces": {"L": {"dims": {"0": 1}}},
           "structures": {"a": {"kind": "algebra", "max_arity": 10**6, "ops": {}, "space": "L"}}}
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    bundle = parse_bundle(text)
    assert bundle.structures["a"].ops == ()
    assert serialize_bundle(bundle) == text


def test_non_canonical_entries_warn_and_canonicalize():
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    ent = doc["structures"]["heisenberg"]["ops"]["2"]["entries"][0]
    ent["in"] = [[0, 1], [0, 0]]  # unsorted symmetric block
    bundle = parse_bundle(json.dumps(doc))
    assert any("canonicalized" in w for w in bundle.warnings)
    assert bundle.structures["heisenberg"] == \
        fixtures.build("heisenberg-adjoint").structures["heisenberg"]


def test_parse_error_cases():
    with pytest.raises(FormatError):
        parse_bundle("not json")
    with pytest.raises(FormatError):
        parse_bundle(json.dumps({"structures": {"a": {"kind": "nope", "max_arity": 2}}}))
    # dangling space reference
    with pytest.raises(FormatError):
        parse_bundle(json.dumps({"structures": {
            "a": {"kind": "algebra", "space": "missing", "max_arity": 2, "ops": {}}}}))
    # dangling structure reference
    with pytest.raises(FormatError):
        parse_bundle(json.dumps({
            "spaces": {"V": {"dims": {"0": 1}}},
            "structures": {"m": {"kind": "module", "algebra": "missing",
                                 "space": "V", "max_arity": 2, "ops": {}}}}))


def test_parse_rejects_wrong_output_degree():
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    ent = doc["structures"]["heisenberg"]["ops"]["2"]["entries"][0]
    ent["out"] = [[1, 0]]  # arity-2 bracket of degree-0 inputs must land in degree 0
    with pytest.raises(FormatError):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_mismatched_shift():
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    doc["structures"]["heisenberg"]["ops"]["2"]["shift"] = 1
    with pytest.raises(FormatError):
        parse_bundle(json.dumps(doc))


def test_merge_bundles():
    a = fixtures.build("heisenberg-adjoint")
    b = fixtures.build("abelian-i2")
    merged = merge_bundles([a, b])
    assert set(merged.structures) == set(a.structures) | set(b.structures)
    # identical duplicates are fine
    merge_bundles([a, fixtures.build("heisenberg-adjoint")])
    # conflicting content under one name is not
    conflict = fixtures.build("abelian-i2")
    conflict.structures["heisenberg"] = conflict.structures["M2"]
    with pytest.raises(FormatError):
        merge_bundles([a, conflict])


def test_provenance_preserved():
    bundle = fixtures.build("truncated-l3")
    text = serialize_bundle(bundle, provenance={"note": "test"})
    parsed = parse_bundle(text)
    assert parsed.provenance == {"note": "test"}


def test_of_kind():
    b = fixtures.build("functoriality-chain")
    assert set(b.of_kind(LinfModule)) == {"A", "B", "C"}
    assert set(b.of_kind(LinfAlgebra)) == {"chain_source", "chain_target"}
