import json
import random
import time

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as hst

from linfty import fixtures, jsonio
from linfty.gfa import GradedSpace, SymMultiMap
from linfty.jsonio import (MAX_INDEX, Bundle, FormatError, digest, merge_bundles, parse_bundle,
                           serialize_bundle)
from linfty.structures import LinfAlgebra, LinfModule, LinfMorphism
from helpers import (bundle_of, fails, kinds_on, parse_outcome, patch_mutant, random_map,
                     stored_maps, unchecked_faults)


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
    with pytest.raises(FormatError, match="^top level must be an object$"):
        parse_bundle("[]")
    with pytest.raises(FormatError, match="^space 'V': negative dimension$"):
        parse_bundle(json.dumps({"spaces": {"V": {"dims": {"0": -1}}}}))
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


@pytest.mark.parametrize("edit, where", [
    (lambda doc: doc["structures"]["heisenberg"]["ops"]["2"]["entries"][0].update(
        outs=[[0, 2]]), "entry"),
    (lambda doc: doc["spaces"]["L"].update(dimz={"0": 3}), "space 'L'"),
    (lambda doc: doc.update(structurez=doc.pop("structures")), "top level"),
], ids=["entry", "space", "top-level"])
def test_parse_rejects_unknown_fields(edit, where):
    # each was ignored once: the entry read as its "out" alone, the space
    # as its "dims", and a misspelled "structures" as an empty bundle
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    edit(doc)
    with pytest.raises(FormatError, match=f"{where}.*unknown field"):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_wrong_output_degree():
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    ent = doc["structures"]["heisenberg"]["ops"]["2"]["entries"][0]
    ent["out"] = [[1, 0]]  # arity-2 bracket of degree-0 inputs must land in degree 0
    with pytest.raises(FormatError):
        parse_bundle(json.dumps(doc))


@pytest.mark.parametrize("slot", ["in", "out"])
def test_parse_limits_basis_indices(slot):
    # in a space of dimension 10**30 an index just below MAX_INDEX is read
    # and one at it is refused, in the key as in the output
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    doc["spaces"]["L"]["dims"]["0"] = 10**30
    ent = doc["structures"]["heisenberg"]["ops"]["2"]["entries"][0]
    ent[slot][-1][1] = MAX_INDEX - 1
    bundle = parse_bundle(json.dumps(doc))
    assert parse_bundle(serialize_bundle(bundle)) == bundle
    ent[slot][-1][1] = MAX_INDEX
    with pytest.raises(FormatError, match=f"at or above the limit {MAX_INDEX}"):
        parse_bundle(json.dumps(doc))


@pytest.mark.parametrize("structure, ent, message", [
    ("heisenberg", {"in": [[0, -1], [0, 0]], "out": [[0, 2]]},
     r"basis element \(0, -1\) not in space of slot 0"),
    ("heisenberg", {"in": [[0, 0], [0, 3]], "out": [[0, 2]]},
     r"basis element \(0, 3\) not in space of slot 1"),
    ("adjoint", {"in": [[0, 0], [0, 3]], "out": [[0, 2]]},
     r"basis element \(0, 3\) not in space of slot 1"),
    ("heisenberg", {"in": [[0, 0], [0, 1]], "out": [[0, -1]]},
     r"output element \(0, -1\) outside the codomain"),
    ("heisenberg", {"in": [[0, 0], [0, 1]], "out": [[0, 3]]},
     r"output bits exceed codomain dimension for key \(\(0, 0\), \(0, 1\)\)"),
    ("heisenberg", {"in": [[0, 0], [0, 1]], "out": [[1, 0]]},
     r"output element \(1, 0\) has degree 1, expected 0"),
], ids=["in-negative", "in-outside-space", "module-slot-outside-space", "out-negative",
        "out-outside-codomain", "out-wrong-degree"])
def test_parse_names_each_bad_element(structure, ent, message):
    # each element is checked once, while the entries are read or in the
    # map's constructor, and the error names the map and the element
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    doc["structures"][structure]["ops"]["2"]["entries"] = [ent]
    with pytest.raises(FormatError, match=message) as exc:
        parse_bundle(json.dumps(doc))
    kind = "module" if structure == "adjoint" else "algebra"
    assert str(exc.value).startswith(f"{kind} {structure!r}[2]: ")


def test_parse_warns_once_per_canonicalized_input():
    # a key out of order, the same key again with a duplicated output, and
    # a canonical key with no output, which adds nothing and is not named
    doc = json.loads(serialize_bundle(fixtures.build("heisenberg-adjoint")))
    doc["structures"]["heisenberg"]["ops"]["2"]["entries"] = [
        {"in": [[0, 1], [0, 0]], "out": [[0, 2]]},
        {"in": [[0, 0], [0, 1]], "out": [[0, 2], [0, 2]]},
        {"in": [[0, 0], [0, 2]], "out": []}]
    bundle = parse_bundle(json.dumps(doc))
    where = "algebra 'heisenberg'[2]"
    assert bundle.warnings == [
        f"{where}: duplicate output element (0, 2) canonicalized",
        f"{where}: entry [(0, 1), (0, 0)] canonicalized on load",
        f"{where}: repeated multi-index [(0, 0), (0, 1)] merged on load"]
    assert bundle.structures["heisenberg"] == fixtures.build("heisenberg-adjoint").structures[
        "heisenberg"]
    # the fixture's own entries are canonical: no warning
    assert parse_bundle(serialize_bundle(fixtures.build("heisenberg-adjoint"))).warnings == []


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


def test_module_morphism_over_different_algebras_is_a_format_error():
    doc = json.loads(serialize_bundle(fixtures.build("functoriality-chain")))
    structures = doc["structures"]
    # B now lives over an algebra on another space than A's, so f: A -> B
    # joins modules over different algebras
    structures["other"] = dict(structures["chain_target"], space="chain_src_space")
    structures["B"]["algebra"] = "other"
    with pytest.raises(FormatError, match="same algebra"):
        parse_bundle(json.dumps(doc))


def test_parse_rejects_a_non_numeric_degree_key():
    doc = {"spaces": {"L": {"dims": {"x": 1}}}}
    with pytest.raises(FormatError, match="^space 'L': degree key 'x' is not an integer in "
                                          "canonical decimal$"):
        parse_bundle(json.dumps(doc))


def test_serializing_an_unnamed_reference_is_a_format_error():
    b = fixtures.build("heisenberg-adjoint")
    heis, adjoint = b.structures["heisenberg"], b.structures["adjoint"]
    with pytest.raises(FormatError,
                       match="^structure 'heisenberg': its space has no name in the bundle$"):
        serialize_bundle(Bundle(structures={"heisenberg": heis}))
    with pytest.raises(FormatError, match="^structure 'adjoint': cross-reference to a structure "
                                          "missing from the bundle$"):
        serialize_bundle(Bundle(spaces=b.spaces, structures={"adjoint": adjoint}))


def test_serializing_a_type_outside_the_table_is_a_format_error():
    bundle = fixtures.build("abelian-i2")
    bundle.structures["stray"] = object()
    with pytest.raises(FormatError, match="unserializable type object"):
        serialize_bundle(bundle)


def test_serialize_cost_follows_set_bits():
    # 50 one-bit outputs on a 32000-dimensional codomain: testing every
    # codomain index for every entry took 1.49 s
    V, W = GradedSpace({0: 50}), GradedSpace({0: 32000})
    src, tgt = LinfAlgebra.build(V, 2, {}), LinfAlgebra.build(W, 2, {})
    f1 = SymMultiMap(1, 0, V, W, [(((0, i),), 1 << (31999 - i)) for i in range(50)])
    bundle = Bundle({"V": V, "W": W},
                    {"s": src, "t": tgt, "f": LinfMorphism.build(src, tgt, 2, {1: f1})})
    start = time.perf_counter()
    text = serialize_bundle(bundle)
    elapsed = time.perf_counter() - start
    assert parse_bundle(text) == bundle
    assert elapsed < 0.25


_ADJOINT = serialize_bundle(fixtures.build("heisenberg-adjoint")).rstrip("\n")


@pytest.mark.parametrize("text, key", [
    # in the provenance, which the parser does not otherwise read
    (_ADJOINT[:-1] + ',"provenance":{"a":1,"a":2}}', "a"),
    # a repeated key is named before an unknown field or a JSON error that
    # comes later in the text: every object is checked on reading
    (_ADJOINT[:-1] + ',"provenance":{"c":1,"c":2},"extra":1}', "c"),
    (_ADJOINT[:-1] + ',"provenance":{"d":1,"d":2},"e":[}', "d"),
], ids=["provenance", "before-unknown-field", "before-json-error"])
def test_parse_names_a_repeated_key_wherever_it_is(text, key):
    with pytest.raises(FormatError, match=f"^duplicate key '{key}' in one object$"):
        parse_bundle(text)



def test_parse_refuses_a_byte_order_mark_as_json_loads_does():
    with pytest.raises(FormatError, match=r"^not valid JSON: Unexpected UTF-8 BOM \(decode using "
                                          r"utf-8-sig\): line 1 column 1 \(char 0\)$"):
        parse_bundle("\ufeff" + _ADJOINT)


# each entry of a drawn map is canonical or perturbed in one of these ways
_PERTURBATIONS = ("canonical", "unsorted", "repeated-key", "empty-out", "repeated-out",
                  "index-at-dim", "negative-index", "outside-codomain", "wrong-degree",
                  "index-at-limit")


def _perturbed(ent, how, slot_dims, cod, n_sym):
    """The entries standing for ent under one perturbation: slot_dims[p]
    is the dimension of slot p's space in a degree, cod the codomain."""
    ins, outs = ent["in"], ent["out"]
    if how == "unsorted":
        ins[:n_sym] = ins[:n_sym][::-1]
    elif how == "repeated-key":
        return [ent, json.loads(json.dumps(ent))]
    elif how == "empty-out":
        outs.clear()
    elif how == "repeated-out":
        outs.append(list(outs[0]))
    elif how == "index-at-dim":
        ins[-1][1] = slot_dims[len(ins) - 1](ins[-1][0])
    elif how == "negative-index":
        ins[0][1] = -1
    elif how == "outside-codomain":
        outs[0][1] = cod.dim(outs[0][0])
    elif how == "wrong-degree":
        outs[0][0] += 1
    elif how == "index-at-limit":
        ins[-1][1] = MAX_INDEX
    return [ent]


# graded spaces in each of the degrees -2..2, of dimension 1 or 2, so that
# every drawn map has entries
_FULL_DIMS = hst.lists(hst.integers(1, 2), min_size=5, max_size=5).map(
    lambda dims: dict(zip(range(-2, 3), dims)))


@settings(derandomize=True, max_examples=150, deadline=None, phases=(Phase.generate,),
          report_multiple_bugs=False)
@given(_FULL_DIMS, _FULL_DIMS, hst.integers(0, 3), hst.integers(1, 3),
       hst.dictionaries(hst.integers(0, 7), hst.sampled_from(_PERTURBATIONS), min_size=1,
                        max_size=2),
       hst.integers(0, 2 ** 32 - 1))
def one_pass_parse_matches_two_pass(L, M, kind, arity, perturbations, seed):
    """A map of each kind, entry j perturbed as perturbations[j] says and
    canonical if it says nothing, parses to equal structures, identical
    warnings in the same order, or an identical FormatError, one pass or
    two; every parsed map is as its constructor would store it, and a map
    of canonical entries alone parses to itself without a warning.  Most
    entries are canonical, so that no other entry hides a perturbed one's
    effect on the one-pass parse."""
    rng = random.Random(seed)
    L, M = GradedSpace(L), GradedSpace(M)
    cls, parts, (off, sym, cod, last) = kinds_on(L, M)[kind]
    m = random_map(rng, arity, arity + off, sym, cod, last, density=0.5)
    bundle = bundle_of(cls.build(*parts, 4, {arity: m}), L, M)
    doc = json.loads(serialize_bundle(bundle))
    table = doc["structures"]["s0"][cls._MAPS]
    mdoc = table.setdefault(str(arity), {"arity": arity, "shift": arity + off, "entries": []})
    n_sym = arity - (last is not None)
    slot_dims = [sym.dim] * n_sym + ([last.dim] if last is not None else [])
    mdoc["entries"] = [out for j, ent in enumerate(mdoc["entries"])
                       for out in _perturbed(ent, perturbations.get(j, "canonical"), slot_dims,
                                             cod, n_sym)]
    text = json.dumps(doc)
    outcome = parse_outcome(text)
    assert outcome == parse_outcome(text, two_pass=True)
    if outcome[0] == "ok":
        assert not unchecked_faults([m for st in outcome[1].values() for m in stored_maps(st)])
    if set(perturbations.values()) <= {"canonical"}:
        assert outcome == ("ok", bundle.structures, [])


def test_one_pass_parse_matches_the_two_pass_reference():
    one_pass_parse_matches_two_pass()


@pytest.mark.parametrize("edit", [
    (" or dim is sym_dim and b < prev", ""),
    ("not 0 <= i < dim(d, 0) or ", ""),
    (" and not bits >> cod_dim(degree, 0)", ""),
    ("canonical and len(table) == len(entries)", "canonical"),
    ("canonical = canonical and bits and ", "canonical = canonical and "),
], ids=["canonical-order", "slot-range", "codomain", "repeated-key", "zero-output"])
def test_one_pass_mutants_fail_the_two_pass_comparison(monkeypatch, edit):
    # the maps of the one-pass parse skip the constructor's checks: without
    # any one of its tests a parsed map differs from its two-pass parse
    patch_mutant(monkeypatch, jsonio, "_parse_map", edit)
    assert fails(one_pass_parse_matches_two_pass)
