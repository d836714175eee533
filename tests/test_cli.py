import json

import pytest

from linfty import fixtures
from linfty.cli import main
from linfty.gfa import GradedSpace, SymMultiMap
from linfty.jsonio import Bundle, parse_bundle, serialize_bundle
from linfty.restrict import classical_restriction
from linfty.structures import LinfAlgebra


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


def test_verify_missing_reference_exit_two(tmp_path, capsys):
    doc = {"spaces": {"V": {"dims": {"0": 1}}},
           "structures": {"m": {"kind": "module", "algebra": "missing",
                                "space": "V", "max_arity": 2, "ops": {}}}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


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


def test_threads_env_smoke(fixture_dir, monkeypatch):
    monkeypatch.setenv("LINFTY_THREADS", "4")
    assert main(["verify", str(fixture_dir / "functoriality-chain.json"),
                 "--max-arity", "5"]) == 0
