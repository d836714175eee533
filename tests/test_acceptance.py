"""
Acceptance suite: one test per criterion, every check exact over F2.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS report per criterion.
"""

import itertools
import json
import math
import time

import pytest

from linfty import fixtures
from linfty.cli import main
from linfty.gfa import unit
from linfty.jsonio import Bundle, parse_bundle, serialize_bundle
from linfty.oracle import lemma4_lhs, lemma4_rhs, naive_residual
from linfty.perm import BlockSpec, Perm, apply, one_line, primed_unshuffles, unshuffles
from linfty.restrict import (
    check_functoriality,
    classical_restriction,
    context,
    restrict_module,
    restrict_morphism,
)
from linfty.structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    compose,
    first_failure,
    identity_morphism,
    modhom_residual,
    module_residual,
    residual,
)

KIND_OF = {LinfAlgebra: "jacobi", LinfMorphism: "morphism",
           LinfModule: "module", ModuleMorphism: "module_morphism"}


def _report(number, message):
    print(f"\n[acceptance] criterion {number:2d} PASS: {message}")


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundles")
    for name in fixtures.FIXTURES:
        (d / f"{name}.json").write_text(serialize_bundle(fixtures.build(name)))
    return d


def test_criterion_01_unshuffle_tables():
    expected = {
        (1, 3): ["1234", "2134", "3124", "4123"],
        (2, 2): ["1234", "1324", "1423", "2314", "2413", "3412"],
        (3, 1): ["1234", "1243", "1342", "2341"],
    }
    for sizes in expected:
        unshuffles(BlockSpec(sizes))  # warm the cache; the budget is steady-state
    start = time.perf_counter()
    for sizes, rows in expected.items():
        assert [one_line(p) for p in unshuffles(BlockSpec(sizes))] == rows
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _report(1, f"the three S4 unshuffle tables match exactly ({elapsed * 1e3:.3f} ms)")


def test_criterion_02_seven_element_rearrangement():
    sigma = Perm((2, 4, 1, 6, 3, 5, 7))
    xs = tuple(f"x{i}" for i in range(1, 8))
    apply(sigma, xs)  # warm up
    start = time.perf_counter()
    assert apply(sigma, xs) == ("x2", "x4", "x1", "x6", "x3", "x5", "x7")
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3
    _report(2, f"(2,4,1,6,3,5,7) rearranges x1..x7 as expected ({elapsed * 1e3:.3f} ms)")


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_criterion_03_counting():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        for sizes in _compositions(n):
            expected = math.factorial(n)
            for s in sizes:
                expected //= math.factorial(s)
            assert len(unshuffles(BlockSpec(sizes))) == expected
            checked += 1
    assert checked == 255  # all compositions with n <= 8

    # independent brute force for the primed family: filter all of S_7
    sizes = (1, 1, 2, 3)
    starts = (0, 1, 2, 4)
    brute = 0
    for images in itertools.permutations(range(1, 8)):
        ok = True
        off = 0
        for s in sizes:
            if any(images[off + i] >= images[off + i + 1] for i in range(s - 1)):
                ok = False
                break
            off += s
        if ok:
            for l in range(3):
                if sizes[l] == sizes[l + 1] and images[starts[l]] > images[starts[l + 1]]:
                    ok = False
                    break
        if ok:
            brute += 1
    assert brute == 210
    assert len(primed_unshuffles(BlockSpec(sizes))) == 210
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"multinomial counts for all {checked} specs with n <= 8 and the "
               f"210 primed unshuffles of (1,1,2,3) ({elapsed:.2f} s)")


def test_criterion_04_two_presentation_identity():
    start = time.perf_counter()
    sizes = {}
    for n in range(2, 7):
        lhs, rhs = lemma4_lhs(n), lemma4_rhs(n)
        assert lhs == rhs
        sizes[n] = sum(lhs.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"labeled-operator multisets agree for n = 2..6, "
               f"sizes {sizes} ({elapsed:.2f} s)")


def test_criterion_05_fixture_verification(fixture_files):
    start = time.perf_counter()
    for name in sorted(fixtures.FIXTURES):
        rc = main(["verify", str(fixture_files / f"{name}.json"), "--max-arity", "6"])
        assert rc == 0, f"{name} failed verification"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"all five fixture bundles verify with N = 6 ({elapsed:.2f} s)")


def test_criterion_06_restricted_modules_satisfy_relations():
    start = time.perf_counter()
    checked = []
    for name, mor_name, mod_name in (("abelian-i2", "I2", "M2"),
                                     ("heisenberg-adjoint", "inclusion", "adjoint")):
        b = fixtures.build(name)
        ctx = context(b.structures[mor_name], 6)
        out = restrict_module(ctx, b.structures[mod_name], verify=False)
        for n in range(1, 6):
            assert module_residual(out, n).is_zero, (name, n)
        checked.append(name)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"restricted modules of {checked} have zero residuals for n <= 5 "
               f"({elapsed:.2f} s)")


def test_criterion_07_restricted_morphisms_satisfy_relations():
    start = time.perf_counter()
    b = fixtures.build("functoriality-chain")
    ctx = context(b.structures["I_chain"], 6)
    for name in ("f", "g", "t"):
        mor = b.structures[name]
        out = restrict_morphism(ctx, mor, verify=False)
        assert out.comp(1).entries() == mor.comp(1).entries()  # bit for bit
        for n in range(1, 6):
            assert modhom_residual(out, n).is_zero, (name, n)
    elapsed = time.perf_counter() - start
    _report(7, f"restricted chain morphisms have zero residuals for n <= 5 and "
               f"keep their first component verbatim ({elapsed:.2f} s)")


def test_criterion_08_functoriality():
    start = time.perf_counter()
    b = fixtures.build("functoriality-chain")
    ctx = context(b.structures["I_chain"], 5)

    def shrink(m):
        maps = m.comps if isinstance(m, ModuleMorphism) else m.ops
        table = {k + 1: mp for k, mp in enumerate(maps[:5]) if not mp.is_zero}
        if isinstance(m, ModuleMorphism):
            return ModuleMorphism.build(shrink(m.source), shrink(m.target), 5, table)
        return LinfModule.build(m.algebra, m.space, 5, table)

    A = shrink(b.structures["A"])
    f5, g5 = shrink(b.structures["f"]), shrink(b.structures["g"])
    assert restrict_morphism(ctx, identity_morphism(A), verify=False) == \
        identity_morphism(restrict_module(ctx, A, verify=False))
    report = check_functoriality(ctx, f5, g5)
    assert report.passed
    elapsed = time.perf_counter() - start
    _report(8, "identity and composition are preserved by restriction, "
               f"componentwise for n <= 5 ({elapsed:.2f} s)")


def test_criterion_09_composition_law():
    start = time.perf_counter()
    b = fixtures.build("functoriality-chain")
    f, g, t = b.structures["f"], b.structures["g"], b.structures["t"]
    for gf in (compose(g, f), compose(t, g), compose(t, compose(g, f))):
        for n in range(1, 6):
            assert modhom_residual(gf, n).is_zero
    for mor in (f, g, t):
        assert compose(mor, identity_morphism(mor.source)) == mor
        assert compose(identity_morphism(mor.target), mor) == mor
    elapsed = time.perf_counter() - start
    _report(9, "composites of verified module morphisms verify for n <= 5; "
               f"the identity is a two-sided unit ({elapsed:.2f} s)")


def test_criterion_10_classical_specialization():
    start = time.perf_counter()
    b = fixtures.build("lie-corollary")
    phi, M = b.structures["inclusion"], b.structures["adjoint"]
    constructed = restrict_module(context(phi, 6), M)
    classical = classical_restriction(phi, M)

    def bundled(module):
        out = Bundle()
        out.spaces = {"sub": phi.source.space, "L": M.space}
        out.structures = {"subalgebra": phi.source, "restricted": module}
        return serialize_bundle(out)

    assert bundled(constructed) == bundled(classical)  # byte-for-byte
    elapsed = time.perf_counter() - start
    _report(10, "restriction equals the classical pulled-back representation "
                f"byte-for-byte after canonical serialization ({elapsed:.2f} s)")


def test_criterion_11_differential_testing():
    start = time.perf_counter()
    pairs = 0
    for name in sorted(fixtures.FIXTURES):
        b = fixtures.build(name)
        for st in b.structures.values():
            for n in range(1, 6):
                assert naive_residual(st, KIND_OF[type(st)], n) == residual(st, n), \
                    (name, type(st).__name__, n)
                pairs += 1
    elapsed = time.perf_counter() - start
    _report(11, f"naive and optimized residuals agree bit-for-bit on "
                f"{pairs} structure/arity pairs ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# criterion 12: mutation sensitivity
# ---------------------------------------------------------------------------
#
# The mutation class: flip one output bit of one stored entry of one algebra
# or module operation.  A mutant is killed when any structure of the bundle
# then has a nonzero residual at some n <= 6.
#
# Not every mutant is killable: some flips produce a *different but valid*
# structure (an equivalent mutant in the usual mutation-testing sense), which
# no sound checker can flag.  All of them stem from two provable phenomena:
#   - clearing the central output of the degree-0 nonabelian fixture leaves
#     the abelian algebra, and its adjoint action factors through operators
#     that still commute (the central element acts by zero);
#   - clearing the only entry of the truncated triple bracket leaves the
#     abelian algebra, whose relations hold for degree reasons.
# Each surviving mutant is certified to be a valid structure by the
# independent naive evaluator; the suite then demands a 100% kill rate on
# everything else and that the certified set is exactly the expected one.

EXPECTED_EQUIVALENT = {
    "heisenberg-adjoint": {
        ("heisenberg", 2, (((0, 0), (0, 1))), 2),
        ("adjoint", 2, (((0, 0), (0, 1))), 1),
        ("adjoint", 2, (((0, 0), (0, 1))), 2),
        ("adjoint", 2, (((0, 1), (0, 0))), 0),
        ("adjoint", 2, (((0, 1), (0, 0))), 2),
    },
    "truncated-l3": {
        ("truncated", 3, (((0, 0), (0, 0), (0, 1))), 0),
    },
    "abelian-i2": set(),
    "lie-corollary": {
        ("heisenberg", 2, (((0, 0), (0, 1))), 2),
        ("adjoint", 2, (((0, 0), (0, 1))), 1),
        ("adjoint", 2, (((0, 0), (0, 1))), 2),
        ("adjoint", 2, (((0, 1), (0, 0))), 0),
        ("adjoint", 2, (((0, 1), (0, 0))), 2),
    },
    "functoriality-chain": set(),
}


def _single_bit_mutants(doc):
    """Yield (label, mutated document) for every stored-output-bit flip of
    every algebra and module operation in the bundle document."""
    for sname, sdoc in doc["structures"].items():
        if sdoc["kind"] not in ("algebra", "module"):
            continue
        cod_dims = doc["spaces"][sdoc["space"]]["dims"]
        for k, mdoc in sdoc.get("ops", {}).items():
            for ei, ent in enumerate(mdoc["entries"]):
                out_deg = sum(d for d, _ in ent["in"]) + mdoc["shift"]
                for bit in range(cod_dims.get(str(out_deg), 0)):
                    mut = json.loads(json.dumps(doc))
                    ment = mut["structures"][sname]["ops"][k]["entries"][ei]
                    pair = [out_deg, bit]
                    if pair in ment["out"]:
                        ment["out"].remove(pair)
                    else:
                        ment["out"].append(pair)
                    key = (sname, int(k), tuple(tuple(b) for b in ent["in"]), bit)
                    yield key, mut


def test_criterion_12_mutation_sensitivity():
    start = time.perf_counter()
    total = killed = 0
    certified = {}
    # structures already certified; a structure that recurs in another
    # mutant or fixture (lie-corollary is heisenberg-adjoint) is certified once
    proven = set()
    for name in sorted(fixtures.FIXTURES):
        doc = json.loads(serialize_bundle(fixtures.build(name)))
        survivors = set()
        for key, mut in _single_bit_mutants(doc):
            total += 1
            bundle = parse_bundle(json.dumps(mut))
            if any(first_failure(st, 6) is not None for st in bundle.structures.values()):
                killed += 1
                continue
            # undetected: demand an independent certificate that the mutant
            # is a genuinely valid structure (an equivalent mutant)
            for st in bundle.structures.values():
                if st in proven:
                    continue
                for n in range(1, 7):
                    assert naive_residual(st, KIND_OF[type(st)], n).is_zero, \
                        f"checker missed invalid mutant {name}/{key}"
                proven.add(st)
            survivors.add(key)
        assert survivors == EXPECTED_EQUIVALENT[name], name
        certified[name] = len(survivors)
    equivalent = sum(certified.values())
    assert killed + equivalent == total
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(12, f"{killed}/{total - equivalent} non-equivalent mutants killed "
                f"(100%); {equivalent} equivalent mutants certified valid by the "
                f"independent oracle ({elapsed:.2f} s)")
