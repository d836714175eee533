import json

import pytest

from linfty import fixtures, structures
from linfty.cli import _build_parser, main
from linfty.gfa import GradedSpace, SymMultiMap
from linfty.jsonio import KINDS, Bundle, digest, parse_bundle, serialize_bundle
from linfty.restrict import classical_restriction
from linfty.structures import LinfAlgebra, LinfModule, LinfMorphism


@pytest.fixture()
def fixture_dir(tmp_path):
    for name in fixtures.FIXTURES:
        (tmp_path / f"{name}.json").write_text(serialize_bundle(fixtures.build(name)))
    return tmp_path


def test_verify_ok(fixture_dir, capsys):
    rc = main(["verify", str(fixture_dir / "heisenberg-adjoint.json"), "--max-arity", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok ") == 4 and "FAIL" not in out


def test_verify_all_fixtures(fixture_dir):
    paths = [str(fixture_dir / f"{n}.json") for n in fixtures.FIXTURES]
    assert main(["verify", *paths, "--max-arity", "6"]) == 0


def test_verify_flipped_bit_exit_one_with_witness(fixture_dir, capsys, tmp_path):
    doc = json.loads((fixture_dir / "abelian-i2.json").read_text())
    ent = doc["structures"]["M2"]["ops"]["2"]["entries"][0]
    ent["out"] = []  # clear the stored bit
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc))
    rc = main(["verify", str(bad), "--max-arity", "6", "--report", "-"])
    captured = capsys.readouterr()
    assert rc == 1
    # with the report on stdout, the verdict lines go to stderr
    assert "FAIL" in captured.err and "M2 (module)" in captured.err and "arity" in captured.err
    report = json.loads(captured.out)
    failing = [r for r in report["results"] if not r["ok"]]
    assert failing and failing[0]["name"] == "M2"
    assert "witness" in failing[0] and failing[0]["witness"]["arity"] >= 1


def test_verify_default_bound_is_complete(tmp_path, capsys):
    # only l4 is stored: l4(a,a,a,a) = c, l4(a,a,a,c) = e.  The first
    # nonzero residual is at arity 7, past "largest stored arity + 2"; the
    # complete bound 2*4 - 1 = 7 finds it, and an explicit lower bound warns.
    V = GradedSpace({0: 1, 2: 1, 4: 1})
    a, c = (0, 0), (2, 0)
    l4 = SymMultiMap(4, 2, V, V, [((a, a, a, a), 1), ((a, a, a, c), 1)])
    path = tmp_path / "l4.json"
    path.write_text(serialize_bundle(Bundle({"V": V}, {"l4only": LinfAlgebra.build(V, 4, {4: l4})})))
    assert main(["verify", str(path), "--report", "-"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  l4only (algebra): arity 7, inputs [(0, 0), (0, 0), (0, 0), (0, 0), " \
           "(0, 0), (0, 0), (0, 0)] -> (4,0)" in captured.err
    result = json.loads(captured.out)["results"][0]
    assert result["exhaustive"] and result["max_arity"] == 7
    assert main(["verify", str(path), "--max-arity", "6", "--report", "-"]) == 0
    captured = capsys.readouterr()
    assert "below the complete bound 7" in captured.err
    assert json.loads(captured.out)["results"][0]["exhaustive"] is False


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_verify_max_arity_below_one_exit_two(fixture_dir, capsys, bound):
    assert main(["verify", str(fixture_dir / "heisenberg-adjoint.json"), "--max-arity", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-arity must be >= 1, got {bound}\n"


def test_verify_missing_reference_exit_two(tmp_path, capsys):
    doc = {"spaces": {"V": {"dims": {"0": 1}}},
           "structures": {"m": {"kind": "module", "algebra": "missing",
                                "space": "V", "max_arity": 2, "ops": {}}}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_space_defined_twice_exit_two(fixture_dir, tmp_path, capsys):
    # two inputs give the space "L" different dimensions
    doc = json.loads((fixture_dir / "heisenberg-adjoint.json").read_text())
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"spaces": {"L": {"dims": {"0": 1}}}}))
    assert "L" in doc["spaces"] and doc["spaces"]["L"]["dims"] != {"0": 1}
    assert main(["verify", str(fixture_dir / "heisenberg-adjoint.json"), str(other)]) == 2
    assert capsys.readouterr().err == "error: space 'L' defined twice with different content\n"


def _malformed(edit):
    doc = {"spaces": {"L": {"dims": {"0": 1}}},
           "structures": {"a": {"kind": "algebra", "space": "L", "max_arity": 2,
                                "ops": {"2": {"arity": 2, "shift": 0, "entries": []}}},
                          "m": {"kind": "module", "algebra": "a", "space": "L",
                                "max_arity": 2}}}
    edit(doc, doc["structures"]["a"])
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc, a: a.update(max_arity=None),
    lambda doc, a: doc.update(spaces=[1]),
    lambda doc, a: a.update(ops=[1]),
    lambda doc, a: a["ops"]["2"].update(entries=5),
    lambda doc, a: a.update(space=["L"]),
    lambda doc, a: a.update(kind=["algebra"]),
    lambda doc, a: doc["structures"]["m"].update(algebra=["a"]),
    lambda doc, a: doc["structures"]["m"].update(max_arity=True),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 0.9]], "out": []}]),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 0]], "out": [[0, False]]}]),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": 2.7}),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": "2"}),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": 1, "-1": True}),
    lambda doc, a: a["ops"].update({"1": {"arity": True, "shift": -1, "entries": []}}),
    lambda doc, a: a["ops"].update({"1": {"arity": 1, "shift": -1.0, "entries": []}}),
    lambda doc, a: doc["structures"].update(i={"kind": "morphism", "source": "a", "target": "a",
                                               "max_arity": 2, "ops": {}}),
    lambda doc, a: a["ops"]["2"].update(entires=a["ops"]["2"].pop("entries")),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 0]], "out": [],
                                                  "outs": [[0, 0]]}]),
    lambda doc, a: doc["spaces"]["L"].update(dimz={"0": 2}),
    lambda doc, a: doc.update(structurez=doc.pop("structures")),
    # integer keys in any but canonical decimal would alias "2" or "0"
    lambda doc, a: a["ops"].update({"2": {"arity": 2, "shift": 0, "entries": [
        {"in": [[0, 0], [0, 0]], "out": [[0, 0]]}]}, "02": {"arity": 2, "shift": 0, "entries": []}}),
    lambda doc, a: a["ops"].update({" 2": a["ops"].pop("2")}),
    lambda doc, a: a["ops"].update({"+2": a["ops"].pop("2")}),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": 2, "00": 3}),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": 1, "1_0": 1}),
    lambda doc, a: doc["spaces"]["L"].update(dims={"0": 1, "-0": 1}),
    # a basis index at 10**12 in spaces that hold it: its one-hot bits would
    # take 125 GB, as an output or, in restrict, as id_M on the module slot
    lambda doc, a: (doc["spaces"]["L"].update(dims={"0": 10**13}), a["ops"]["2"].update(
        entries=[{"in": [[0, 0], [0, 0]], "out": [[0, 10**12]]}])),
    lambda doc, a: (doc["spaces"]["L"].update(dims={"0": 10**13}), doc["structures"]["m"].update(
        ops={"2": {"arity": 2, "shift": 0,
                   "entries": [{"in": [[0, 0], [0, 10**12]], "out": [[0, 0]]}]}})),
    # indices the map's constructor refuses in its one pass over the keys,
    # and the one output check made while the outputs are read
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, -1], [0, 0]], "out": [[0, 0]]}]),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 1]], "out": [[0, 0]]}]),
    lambda doc, a: doc["structures"]["m"].update(
        ops={"2": {"arity": 2, "shift": 0, "entries": [{"in": [[0, 0], [0, 1]], "out": []}]}}),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 0]], "out": [[0, -1]]}]),
    lambda doc, a: a["ops"]["2"].update(entries=[{"in": [[0, 0], [0, 0]], "out": [[0, 1]]}]),
], ids=["max_arity-null", "spaces-list", "ops-list", "entries-int", "space-list",
        "kind-list", "reference-list", "max_arity-true", "in-float", "out-false", "dims-float",
        "dims-string", "dims-bool", "arity-true", "shift-float", "morphism-ops", "entries-misspelled",
        "entry-extra-key", "space-extra-key", "structures-misspelled", "arity-key-leading-zero",
        "arity-key-space", "arity-key-plus", "dims-key-leading-zero", "dims-key-underscore",
        "dims-key-minus-zero", "out-index-1e12", "module-slot-index-1e12", "in-index-negative",
        "in-index-outside-space", "module-slot-outside-space", "out-index-negative",
        "out-index-outside-codomain"])
def test_verify_malformed_bundle_exit_two(tmp_path, capsys, edit):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_malformed(edit)))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [[], ["--kind", "module"]], ids=["empty", "kind-filter"])
def test_verify_nothing_exit_two(tmp_path, capsys, argv):
    path = tmp_path / "spaces-only.json"
    path.write_text('{"spaces": {"L": {"dims": {"0": 1}}}}')
    assert main(["verify", str(path), *argv]) == 2
    assert capsys.readouterr().err == "error: nothing to verify\n"


def test_verify_deeply_nested_json_exit_two(tmp_path, capsys):
    # the decoder recurses once per level and stops at the recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"spaces": {"L": {"dims": {"0": 1}}, "L": {"dims": {"0": 2}}}}',
    '{"spaces": {"L": {"dims": {"0": 1, "0": 2}}}}',
    '{"spaces": {}, "spaces": {"L": {"dims": {"0": 1}}}}',
], ids=["space", "dims", "top-level"])
def test_verify_duplicate_key_exit_two(tmp_path, capsys, text):
    # json.loads alone would keep the last value without a word
    path = tmp_path / "duplicate.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: duplicate key ") and "Traceback" not in err


def test_verify_non_utf8_file_names_it(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"spaces": {"\xd0\xff": {}}}')
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "utf-8" in err and "Traceback" not in err


def test_verify_kind_choices_are_the_table():
    verify = _build_parser()._subparsers._group_actions[0].choices["verify"]
    kind = next(a for a in verify._actions if a.dest == "kind")
    assert kind.choices == list(KINDS)


def test_verify_far_above_the_bound_stops_at_it(fixture_dir, tmp_path, monkeypatch):
    # residuals above complete_bound are zero by its proof, so none is computed
    calls = []
    residual = structures.residual
    monkeypatch.setattr(structures, "residual",
                        lambda st, n: calls.append((st, n)) or residual(st, n))
    report = tmp_path / "report.json"
    path = fixture_dir / "functoriality-chain.json"
    assert main(["verify", str(path), "--max-arity", "100000", "--report", str(report)]) == 0
    bundle = parse_bundle(path.read_text())
    assert sorted(calls, key=repr) == sorted(
        ((st, n) for st in bundle.structures.values()
         for n in range(1, structures.complete_bound(st) + 1)), key=repr)
    results = json.loads(report.read_text())["results"]
    assert {(r["max_arity"], r["exhaustive"]) for r in results} == {(100000, True)}


def test_verify_kind_filter(fixture_dir, capsys):
    rc = main(["verify", str(fixture_dir / "heisenberg-adjoint.json"), "--kind", "algebra"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "module" not in out and out.count("(algebra)") == 2


def test_unshuffles_command(capsys):
    assert main(["unshuffles", "2", "2"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["1234", "1324", "1423", "2314", "2413", "3412"]
    assert main(["unshuffles", "1", "3"]) == 0
    assert capsys.readouterr().out.split() == ["1234", "2134", "3124", "4123"]


def test_unshuffles_primed_count(capsys):
    assert main(["unshuffles", "1", "1", "2", "3", "--primed"]) == 0
    assert len(capsys.readouterr().out.split()) == 210


def test_unshuffles_anchor(capsys):
    assert main(["unshuffles", "2", "2", "--anchor", "2=4"]) == 0
    assert capsys.readouterr().out.split() == ["1423", "2413", "3412"]


def test_unshuffles_bad_sizes(capsys):
    assert main(["unshuffles", "0", "2"]) == 2


@pytest.mark.parametrize("primed", [[], ["--primed"]], ids=["plain", "primed"])
def test_unshuffles_anchor_out_of_range_exit_two(capsys, primed):
    for anchor in ("9=1", "0=3", "1=4"):
        assert main(["unshuffles", "1", "2", *primed, "--anchor", anchor]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "out of range" in captured.err
    assert main(["unshuffles", "1", "2", *primed, "--anchor", "3=3"]) == 0
    assert capsys.readouterr().out.split() == ["123", "213"]


def test_lemma4_command(capsys):
    assert main(["lemma4", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["lemma4", "--n", "4", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "# lhs" in out and "# rhs" in out


def test_fixtures_command(tmp_path, capsys):
    assert main(["fixtures", "heisenberg-adjoint", "-o", str(tmp_path)]) == 0
    bundle = parse_bundle((tmp_path / "heisenberg-adjoint.json").read_text())
    assert bundle == fixtures.build("heisenberg-adjoint")


def test_restrict_command_matches_classical(fixture_dir, tmp_path):
    lie = str(fixture_dir / "lie-corollary.json")
    out_path = tmp_path / "restricted.json"
    rc = main(["restrict", "--morphism", lie, "--module", lie, "-o", str(out_path)])
    assert rc == 0
    produced = parse_bundle(out_path.read_text())
    assert produced.provenance["verified"] is True
    restricted = produced.structures["adjoint_restricted"]

    b = fixtures.build("lie-corollary")
    classical = classical_restriction(b.structures["inclusion"], b.structures["adjoint"])
    assert restricted == classical

    # byte-for-byte after canonical serialization of the same-named bundles
    from linfty.jsonio import Bundle
    want = Bundle()
    want.spaces = dict(produced.spaces)
    want.structures = {n: s for n, s in produced.structures.items()}
    want.structures["adjoint_restricted"] = classical
    assert serialize_bundle(want, provenance=produced.provenance) == \
        serialize_bundle(produced, provenance=produced.provenance)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_restrict_digests_inputs_as_text_reads_them(fixture_dir, tmp_path, newline):
    # CRLF and lone CR line ends read as LF, so the provenance digests do
    # not depend on them
    doc = json.loads((fixture_dir / "lie-corollary.json").read_text())
    text = json.dumps(doc, indent=1) + "\n"
    lie = tmp_path / "lie.json"
    lie.write_bytes(text.replace("\n", newline).encode())
    out_path = tmp_path / "out.json"
    assert main(["restrict", "--morphism", str(lie), "--module", str(lie), "-o", str(out_path)]) == 0
    inputs = parse_bundle(out_path.read_text()).provenance["inputs"]
    assert inputs == {"morphism": digest(text), "module": digest(text)}


def test_restrict_command_verifies_output(fixture_dir, tmp_path):
    ab = str(fixture_dir / "abelian-i2.json")
    out_path = tmp_path / "out.json"
    assert main(["restrict", "--morphism", ab, "--module", ab, "-o", str(out_path)]) == 0
    assert main(["verify", str(out_path), "--max-arity", "5"]) == 0


def test_restrict_no_verify_marks_provenance(fixture_dir, tmp_path):
    ab = str(fixture_dir / "abelian-i2.json")
    out_path = tmp_path / "out.json"
    assert main(["restrict", "--morphism", ab, "--module", ab,
                 "-o", str(out_path), "--no-verify"]) == 0
    assert parse_bundle(out_path.read_text()).provenance["verified"] is False


def test_restrict_also_morphism(fixture_dir, tmp_path):
    chain = str(fixture_dir / "functoriality-chain.json")
    out_path = tmp_path / "out.json"
    rc = main(["restrict", "--morphism", chain, "--module", chain,
               "--module-name", "A", "--also-morphism", chain, "-o", str(out_path)])
    assert rc == 0
    produced = parse_bundle(out_path.read_text())
    assert {"f_restricted", "g_restricted", "t_restricted"} <= set(produced.structures)
    assert main(["verify", str(out_path), "--max-arity", "5"]) == 0


def test_restrict_ambiguous_module_exit_two(fixture_dir, capsys):
    chain = str(fixture_dir / "functoriality-chain.json")
    assert main(["restrict", "--morphism", chain, "--module", chain, "-o", "-"]) == 2
    assert "use the name option" in capsys.readouterr().err


def test_restrict_checks_the_algebras(tmp_path, capsys):
    # l2(e0, e0) = e0 breaks the Jacobi identity at arity 3 (its complete
    # bound), past the truncation arity 2 that the morphism is checked to
    V = GradedSpace({0: 3})
    L = LinfAlgebra.build(V, 2, {2: SymMultiMap(2, 0, V, V, [(((0, 0), (0, 0)), 0b1)])})
    ident = SymMultiMap(1, 0, V, V, [(((0, i),), 1 << i) for i in range(3)])
    M = GradedSpace({0: 1})
    path = tmp_path / "bad-algebra.json"
    path.write_text(serialize_bundle(Bundle({"V": V, "M": M}, {
        "L": L, "I": LinfMorphism.build(L, L, 2, {1: ident}),
        "zero": LinfModule.build(L, M, 2, {})})))
    out_path = tmp_path / "out.json"
    assert main(["restrict", "--morphism", str(path), "--module", str(path),
                 "-o", str(out_path)]) == 0
    assert "source algebra fails its relation at arity 3" in capsys.readouterr().err
    assert parse_bundle(out_path.read_text()).provenance["verified"] is False
    assert main(["verify", str(path)]) == 1


def test_compose_command(fixture_dir, tmp_path):
    chain = str(fixture_dir / "functoriality-chain.json")
    out_path = tmp_path / "composed.json"
    rc = main(["compose", chain, "--f", "f", "--g", "g", "-o", str(out_path)])
    assert rc == 0
    produced = parse_bundle(out_path.read_text())
    assert "g_after_f" in produced.structures
    assert main(["verify", str(out_path), "--max-arity", "6"]) == 0


def test_exit_code_contract_for_lemma4(monkeypatch, capsys):
    # force a mismatch by patching one side; the command reports FAIL / exit 1
    from collections import Counter
    import linfty.oracle as oracle
    from linfty.oracle import LabeledOperator
    monkeypatch.setattr(oracle, "lemma4_rhs", lambda n: Counter({LabeledOperator((), 0): 1}))
    assert main(["lemma4", "--n", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out
