import json

import pytest

from linfty import fixtures, structures
from linfty.cli import main
from linfty.gfa import GradedSpace, SymMultiMap
from linfty.jsonio import Bundle, parse_bundle, serialize_bundle
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
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "M2 (module)" in out and "arity" in out
    report = json.loads(out[out.index("{"):])
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
    out = capsys.readouterr().out
    assert "FAIL  l4only (algebra): arity 7, inputs [(0, 0), (0, 0), (0, 0), (0, 0), " \
           "(0, 0), (0, 0), (0, 0)] -> (4,0)" in out
    result = json.loads(out[out.index("{"):])["results"][0]
    assert result["exhaustive"] and result["max_arity"] == 7
    assert main(["verify", str(path), "--max-arity", "6", "--report", "-"]) == 0
    captured = capsys.readouterr()
    assert "below the complete bound 7" in captured.err
    assert json.loads(captured.out[captured.out.index("{"):])["results"][0]["exhaustive"] is False


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
], ids=["max_arity-null", "spaces-list", "ops-list", "entries-int", "space-list",
        "kind-list", "reference-list", "max_arity-true", "in-float", "out-false", "dims-float",
        "dims-string", "dims-bool", "arity-true", "shift-float"])
def test_verify_malformed_bundle_exit_two(tmp_path, capsys, edit):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(_malformed(edit)))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
    import linfty.cli as cli
    from collections import Counter
    from linfty.oracle import LabeledOperator
    monkeypatch.setattr(cli, "lemma4_rhs", lambda n: Counter({LabeledOperator((), 0): 1}))
    assert main(["lemma4", "--n", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out
