import itertools
import json
import random
import time
import warnings

import pytest

import linfty.restrict
from linfty import fixtures, structures
from linfty.cli import main
from linfty.gfa import Elem, GradedSpace, SymMultiMap, flip_bit, unit
from linfty.jsonio import Bundle, parse_bundle, serialize_bundle
from linfty.oracle import naive_residual
from linfty.restrict import (
    RestrictionContext,
    RestrictionError,
    UnverifiedInputWarning,
    check_functoriality,
    classical_restriction,
    context,
    restrict_module,
    restrict_morphism,
)
from helpers import (KIND_OF, composite, fails, identity_plus, patch_mutant, plus_identity,
                     random_algebra, random_modhom, random_module, random_morphism, semidirect,
                     set_partitions, transported_algebra)
from linfty.structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    complete_bound,
    compose,
    first_failure,
    identity_morphism,
    modhom_residual,
    module_residual,
    residual,
)


def _ctx(bundle_name, morphism_name):
    b = fixtures.build(bundle_name)
    return b, context(b.structures[morphism_name], 6)


def test_context_verifies_morphism():
    _, ctx = _ctx("heisenberg-adjoint", "inclusion")
    assert ctx.morphism_verified and ctx.max_arity == 6


def test_invalid_morphism_warns_and_marks_unverified():
    b = fixtures.build("heisenberg-adjoint")
    heis = b.structures["heisenberg"]
    sub = b.structures["subalgebra"]
    u, w = (0, 0), (0, 1)
    # u -> e, w -> f is not a homomorphism: [u,w] = 0 but [e,f] = h
    bad = LinfMorphism.build(sub, heis, 6, {
        1: SymMultiMap(1, 0, sub.space, heis.space, [((u,), 0b001), ((w,), 0b010)]),
    })
    with pytest.warns(UnverifiedInputWarning):
        ctx = context(bad, 6)
    assert not ctx.morphism_verified
    with pytest.warns(UnverifiedInputWarning):
        out = restrict_module(ctx, b.structures["adjoint"])
    # the formula is still computed: the pulled back action is x.m = [phi(x), m]
    assert not out.op(2).is_zero


def test_unverified_warning_points_at_the_caller():
    b = fixtures.build("functoriality-chain")
    ctx = RestrictionContext(b.structures["I_chain"], 6, False)
    for restrict, st in ((restrict_module, b.structures["A"]),
                         (restrict_morphism, b.structures["f"])):
        with pytest.warns(UnverifiedInputWarning) as caught:
            restrict(ctx, st)
        assert [w.filename for w in caught] == [__file__]


def test_strict_morphism_collapse():
    # with only a linear component, k'_n(x..., m) = k_n(I1 x..., m) slotwise
    b, ctx = _ctx("heisenberg-adjoint", "inclusion")
    M = b.structures["adjoint"]
    out = restrict_module(ctx, M)
    I1 = ctx.morphism.comp(1)
    for n in range(2, 7):
        kn = M.op(n)
        for xs in itertools.combinations_with_replacement(ctx.source.space.basis(), n - 1):
            for mb in M.space.basis():
                args = tuple(I1.eval((unit(x),)) for x in xs) + (unit(mb),)
                assert out.op(n).eval(tuple(unit(x) for x in xs) + (unit(mb),)) == kn.eval(args)
    assert out.algebra is ctx.source  # shared by reference, never copied


def test_restricted_module_differential_unchanged():
    b, ctx = _ctx("abelian-i2", "I2")
    M = b.structures["M2"]
    out = restrict_module(ctx, M)
    assert out.op(1).entries() == M.op(1).entries()


def test_abelian_i2_restriction():
    b, ctx = _ctx("abelian-i2", "I2")
    M = b.structures["M2"]
    out = restrict_module(ctx, M)
    # the only contributing composition at arity 3 is (2), giving
    # k'_3(x1, x2, m) = k_2(I_2(x1, x2), m), generically nonzero
    I2, k2 = ctx.morphism.comp(2), M.op(2)
    assert not out.op(3).is_zero
    for xs in itertools.combinations_with_replacement(ctx.source.space.basis(), 2):
        for mb in M.space.basis():
            expected = k2.eval((I2.eval((unit(xs[0]), unit(xs[1]))), unit(mb)))
            assert out.op(3).eval((unit(xs[0]), unit(xs[1]), unit(mb))) == expected
    for n in range(1, 6):
        assert module_residual(out, n).is_zero


def _redeclared(name, max_arity):
    doc = json.loads(serialize_bundle(fixtures.build(name)))
    for sdoc in doc["structures"].values():
        sdoc["max_arity"] = max_arity
    return parse_bundle(json.dumps(doc))


@pytest.mark.parametrize("name, morphism", [("abelian-i2", "I2"), ("functoriality-chain", "I_chain")])
def test_huge_truncation_stores_what_six_stores(name, morphism):
    # every loop is bounded by what is stored, not by max_arity, and the
    # pulled-back and composed maps end below arity 6 on these fixtures
    runs = []
    for N in (6, 10**5):
        b = _redeclared(name, N)
        ctx = context(b.structures[morphism], N)
        homs = b.of_kind(ModuleMorphism)
        runs.append(([restrict_module(ctx, m).ops for _, m in sorted(b.of_kind(LinfModule).items())],
                     [restrict_morphism(ctx, h).comps for _, h in sorted(homs.items())],
                     [compose(g, f).comps for _, f in sorted(homs.items())
                      for _, g in sorted(homs.items()) if f.target == g.source]))
    assert runs[0] == runs[1]
    assert runs[0][0]


def test_restrict_module_validation():
    b, ctx = _ctx("abelian-i2", "I2")
    other = fixtures.build("heisenberg-adjoint").structures["adjoint"]
    with pytest.raises(ValueError):
        restrict_module(ctx, other)  # module over a different algebra
    M = b.structures["M2"]
    shrunk = LinfModule.build(M.algebra, M.space, 4, {1: M.op(1), 2: M.op(2)})
    with pytest.raises(ValueError):
        restrict_module(ctx, shrunk)  # truncation mismatch


def test_restrict_morphism_first_component_verbatim():
    b, ctx = _ctx("functoriality-chain", "I_chain")
    for name in ("f", "g", "t"):
        mor = b.structures[name]
        out = restrict_morphism(ctx, mor)
        assert out.comp(1).entries() == mor.comp(1).entries()
        assert not out.comp(3).is_zero  # the I2 term contributes
        for n in range(1, 6):
            assert modhom_residual(out, n).is_zero


def test_pullback_matches_set_partition_derivation():
    # on random invalid inputs, the restricted component at arity n is the
    # sum over set partitions of the n - 1 algebra inputs of the outer map
    # applied to the components of I on the boxes, then the module element
    rng = random.Random(12)
    Lp = random_algebra(rng, GradedSpace({0: 1, 1: 1}), 4)
    L = random_algebra(rng, GradedSpace({0: 2, -1: 1}), 4)
    I = random_morphism(rng, Lp, L, 4)
    M = random_module(rng, L, GradedSpace({0: 2, 1: 2}), 4, up_to=4)
    M2 = random_module(rng, L, GradedSpace({1: 2, 2: 1}), 4)
    f = random_modhom(rng, M, M2, 4, up_to=4)
    # no entry of f0 has a module input of degree 1, so the pullback skips
    # every key holding one: no box of I + id_M holds that element
    f0 = ModuleMorphism.build(M, M2, 4, {
        k: SymMultiMap(k, k - 1, L.space, M2.space,
                       [(key, bits) for key, bits in f.comp(k).entries() if key[-1][0] == 0],
                       last_space=M.space)
        for k in range(1, 5)})
    assert f0 != f and f0.comps
    ctx = RestrictionContext(I, 4, False)
    restricted = restrict_morphism(ctx, f, verify=False)
    restricted0 = restrict_morphism(ctx, f0, verify=False)
    assert len(restricted.source.ops) == len(restricted.comps) == 3  # nonzero below 4
    for outer, got in ((M.op, restricted.source.op), (f.comp, restricted.comp),
                       (f0.comp, restricted0.comp)):
        for n in range(1, 5):
            for xs in itertools.combinations_with_replacement(Lp.space.basis(), n - 1):
                for m in M.space.basis():
                    bits = 0
                    for boxes in set_partitions(n - 1):
                        zs = tuple(I.comp(len(box)).eval(tuple(unit(xs[p]) for p in box))
                                   for box in boxes)
                        bits ^= outer(len(boxes) + 1).eval(zs + (unit(m),)).bits
                    assert got(n).value(xs + (m,)) == bits


def _holds(st) -> bool:
    return first_failure(st, complete_bound(st)) is None


def _cleared(m):
    """m with the lowest output bit of its first entry cleared."""
    key, bits = m.entries()[0]
    return flip_bit(m, key, (bits & -bits).bit_length() - 1)


def _top_flipped(st):
    """A copy of a module or module morphism with one output bit of its top
    stored map cleared."""
    maps = dict(enumerate(st.ops if isinstance(st, LinfModule) else st.comps, start=1))
    maps[len(maps)] = _cleared(maps[len(maps)])
    if isinstance(st, LinfModule):
        return LinfModule.build(st.algebra, st.space, st.max_arity, maps)
    return ModuleMorphism.build(st.source, st.target, st.max_arity, maps)


@pytest.mark.parametrize("bundle_name, morphism_name, module_name", [
    ("abelian-i2", "I2", "M2"), ("functoriality-chain", "I_chain", "A"),
    ("functoriality-chain", "I_chain", "B"), ("functoriality-chain", "I_chain", "C"),
    ("heisenberg-adjoint", "inclusion", "adjoint"),
])
def test_restriction_satisfies_its_defining_property(bundle_name, morphism_name, module_name):
    # I*M is the L'-module for which I + id_M: L' x| I*M -> L x| M is an
    # L-infinity morphism (Lada-Markl 1995).  Checked on the direct sums,
    # through the algebra and morphism kernels, not through pullback.  A
    # flipped bit of the top k' is another module in most cases, but never
    # one that I + id_M carries into L x| M
    b, ctx = _ctx(bundle_name, morphism_name)
    I, M = ctx.morphism, b.structures[module_name]
    restricted = restrict_module(ctx, M, verify=False)
    assert _holds(semidirect(M)) and _holds(semidirect(restricted))
    assert _holds(plus_identity(I, restricted, M))
    assert not _holds(plus_identity(I, _top_flipped(restricted), M))


@pytest.mark.parametrize("name", ["f", "g", "t"])
def test_restricted_morphism_satisfies_its_defining_property(name):
    # I*f: I*A -> I*B is a module morphism exactly when id_L' + I*f is an
    # algebra morphism, and it is the restriction of f exactly when
    # (I + id_B) o (id_L' + I*f) = (id_L + f) o (I + id_A), each composite
    # summed over set partitions.  A flipped bit of its top component
    # breaks both
    b, ctx = _ctx("functoriality-chain", "I_chain")
    I, f = ctx.morphism, b.structures[name]

    def square_commutes(h):
        return composite(plus_identity(I, h.target, f.target), identity_plus(h)) == \
            composite(identity_plus(f), plus_identity(I, h.source, f.source))

    restricted = restrict_morphism(ctx, f, verify=False)
    assert _holds(identity_plus(restricted)) and square_commutes(restricted)
    flipped = _top_flipped(restricted)
    assert not _holds(identity_plus(flipped)) and not square_commutes(flipped)


def _adjoint(L: LinfAlgebra) -> LinfModule:
    """L's adjoint module: M = L and k_n(x_1, .., x_{n-1}, m) = l_n(x_1,
    .., x_{n-1}, m), each key of l_n read with each element it holds in
    the module slot."""
    def op(m):
        entries = {}
        for key, bits in m.entries():
            for p, e in enumerate(key):
                if not p or key[p - 1] != e:
                    entries[key[:p] + key[p + 1:] + (e,)] = bits
        return SymMultiMap(m.arity, m.shift, L.space, L.space, list(entries.items()),
                           last_space=L.space)

    return LinfModule.build(L, L.space, L.max_arity,
                            {k: op(m) for k, m in enumerate(L.ops, start=1)})


def test_restriction_along_a_non_strict_isomorphism():
    # phi: L' -> L has nonzero phi_2 and phi_3, so the restriction of L's
    # adjoint module boxes inputs through them: k'_1..k'_4, complete bound 7
    # (4 + 4 - 1), where L's own k stops at arity 2.  I*M is a module, and
    # phi + id_M carries L' x| I*M into L x| M; clearing a bit of k'_4
    # breaks that
    Lp, phi = transported_algebra(0)
    assert len(phi.comps) == 3 and not phi.comp(2).is_zero and not phi.comp(3).is_zero
    M = _adjoint(phi.target)
    ctx = context(phi, 6)
    assert ctx.morphism_verified
    restricted = restrict_module(ctx, M, verify=False)
    assert restricted.algebra == Lp
    assert [len(k.entries()) for k in restricted.ops] == [4, 18, 11, 3]
    assert complete_bound(restricted) == 7
    assert _holds(M) and _holds(restricted)
    assert _holds(semidirect(M)) and _holds(semidirect(restricted))
    assert _holds(plus_identity(phi, restricted, M))
    assert all(residual(restricted, n) == naive_residual(restricted, KIND_OF[LinfModule], n)
               for n in range(1, 4))
    assert not _holds(plus_identity(phi, _top_flipped(restricted), M))

def _seventh_arity_pullback():
    """I: L' -> L with I_3(x, x, x) = I_3(y, y, y) = e, and the L-module M
    with k_3(e, e, m) = m', at truncation 8.  The pullback of k_3 boxes six
    inputs into two triples, so its only nonzero operation is k'_7."""
    Lp, L, M = GradedSpace({0: 2}), GradedSpace({2: 1}), GradedSpace({0: 1, 5: 1})
    x, y, e, m = (0, 0), (0, 1), (2, 0), (0, 0)
    target = LinfAlgebra.build(L, 8, {})
    I = LinfMorphism.build(LinfAlgebra.build(Lp, 8, {}), target, 8, {
        3: SymMultiMap(3, 2, Lp, L, [((x, x, x), 1), ((y, y, y), 1)])})
    module = LinfModule.build(target, M, 8, {
        3: SymMultiMap(3, 1, L, M, [((e, e, m), 1)], last_space=M)})
    return I, module


def _check_seventh_arity_pullback():
    # (x, x, x, y, y, y) splits into two boxes that I_3 takes to e in one
    # way; x^6 and y^6 in C(6, 3) / 2 = 10 ways, which cancel
    I, M = _seventh_arity_pullback()
    got = structures.pullback(I, M.ops, 8)
    x, y, m = (0, 0), (0, 1), (0, 0)
    assert {n: k.entries() for n, k in got.items() if not k.is_zero} == \
        {7: (((x, x, x, y, y, y, m), 1),)}
    partitions = list(set_partitions(6))
    for xs in itertools.combinations_with_replacement(I.source.space.basis(), 6):
        for mb in M.space.basis():
            bits = 0
            for boxes in partitions:
                zs = tuple(I.comp(len(box)).eval(tuple(unit(xs[p]) for p in box))
                           for box in boxes)
                bits ^= M.op(len(boxes) + 1).eval(zs + (unit(mb),)).bits
            assert got[7].value(xs + (mb,)) == bits


def test_pullback_reaches_arity_seven():
    _check_seventh_arity_pullback()


def test_pullback_arity_cap_mutant_misses_arity_seven(monkeypatch):
    # with len(maps) = len(I.comps) = 3, the cap (3 - 1) * 3 + 1 = 7 reaches
    # k'_7; the additive cap 3 - 1 + 3 + 1 = 6 stores nothing, and the
    # restriction still verifies
    patch_mutant(monkeypatch, structures, "pullback",
                 ("(len(maps) - 1) * len(morphism.comps) + 1",
                  "len(maps) - 1 + len(morphism.comps) + 1"))
    assert fails(_check_seventh_arity_pullback)


def _counting(monkeypatch, name):
    """Replace restrict's binding of name by a wrapper that logs each call."""
    calls, original = [], getattr(linfty.restrict, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linfty.restrict, name, wrapper)
    return calls


def test_also_morphism_pulls_each_module_back_once(tmp_path, monkeypatch):
    # f: A -> B and g: B -> C: the pullbacks of A, B, C, f and g, where
    # restricting every module afresh would pull A and B back twice each
    b = fixtures.build("functoriality-chain")
    del b.structures["t"]
    path = tmp_path / "chain.json"
    path.write_text(serialize_bundle(b))
    pullbacks = _counting(monkeypatch, "pullback")
    assert main(["restrict", "--morphism", str(path), "--module", str(path), "--module-name",
                 "A", "--also-morphism", str(path), "-o", str(tmp_path / "out.json")]) == 0
    assert len(pullbacks) == 5
    assert len({id(maps) for _, maps, _ in pullbacks}) == 5


def test_functoriality_pulls_each_module_back_once(monkeypatch):
    # A, C and g o f; then B and g; then f
    b, ctx = _ctx("functoriality-chain", "I_chain")
    pullbacks = _counting(monkeypatch, "pullback")
    assert check_functoriality(ctx, b.structures["f"], b.structures["g"]).passed
    assert len(pullbacks) == 6


def test_remembered_restriction_is_still_verified(monkeypatch):
    b, ctx = _ctx("functoriality-chain", "I_chain")
    A = b.structures["A"]
    first = restrict_module(ctx, A)
    pullbacks = _counting(monkeypatch, "pullback")
    checks = _counting(monkeypatch, "first_failure")
    again = restrict_module(ctx, fixtures.build("functoriality-chain").structures["A"])
    assert again is first and pullbacks == []
    assert [st for st, _ in checks] == [A, first]  # input, then output


def test_context_equality_ignores_what_it_remembers():
    b, ctx = _ctx("functoriality-chain", "I_chain")
    fresh = RestrictionContext(ctx.morphism, ctx.max_arity, ctx.morphism_verified)
    restrict_morphism(ctx, b.structures["f"])
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)


def _cubic_action_setup():
    # one-dimensional abelian algebras bridged by a strict morphism, and a
    # module whose only operation is ternary; the pullback of that operation
    # goes through the equal-size grouping (1,1), which the primed family
    # counts exactly once (counting it twice would cancel it over F2)
    Lx = GradedSpace({0: 1})
    Ly = GradedSpace({0: 1})
    M = GradedSpace({0: 1, 1: 1})
    x, y, m0 = (0, 0), (0, 0), (0, 0)
    tgt = LinfAlgebra.build(Lx, 6, {})
    src = LinfAlgebra.build(Ly, 6, {})
    I = LinfMorphism.build(src, tgt, 6, {
        1: SymMultiMap(1, 0, Ly, Lx, [((y,), 0b1)]),
    })
    mod = LinfModule.build(tgt, M, 6, {
        3: SymMultiMap(3, 1, Lx, M, [((x, x, m0), 0b1)], last_space=M),
    })
    N = GradedSpace({0: 1, 1: 1, 2: 1})
    triv = LinfModule.build(tgt, N, 6, {})
    f = ModuleMorphism.build(mod, triv, 6, {
        3: SymMultiMap(3, 2, Lx, N, [((x, x, m0), 0b1)], last_space=M),
    })
    return I, mod, f, (y, m0)


def test_strict_collapse_through_equal_size_groups():
    I, mod, f, (y, m0) = _cubic_action_setup()
    for st in (I, mod, f):
        assert first_failure(st, 6) is None  # genuinely valid inputs
    ctx = context(I, 6)
    out = restrict_module(ctx, mod)
    # k'_3(y, y, m0) = k_3(I1 y, I1 y, m0), a single contribution
    assert out.op(3).eval((unit(y), unit(y), unit(m0))) == \
        mod.op(3).eval((unit(y), unit(y), unit(m0)))
    assert not out.op(3).is_zero
    pulled = restrict_morphism(ctx, f)
    assert pulled.comp(3).eval((unit(y), unit(y), unit(m0))) == \
        f.comp(3).eval((unit(y), unit(y), unit(m0)))
    assert not pulled.comp(3).is_zero


def test_restrict_along_identity_algebra_morphism_is_renaming():
    b = fixtures.build("heisenberg-adjoint")
    heis, M = b.structures["heisenberg"], b.structures["adjoint"]
    ident = LinfMorphism.build(heis, heis, 6, {
        1: SymMultiMap(1, 0, heis.space, heis.space,
                       [((bb,), 1 << bb[1]) for bb in heis.space.basis()]),
    })
    ctx = context(ident, 6)
    out = restrict_module(ctx, M)
    assert out == M
    assert out.algebra is heis


def test_restrict_identity_is_identity():
    b, ctx = _ctx("functoriality-chain", "I_chain")
    A = b.structures["A"]
    assert restrict_morphism(ctx, identity_morphism(A)) == \
        identity_morphism(restrict_module(ctx, A))


def test_functoriality_report():
    b, ctx = _ctx("functoriality-chain", "I_chain")
    rep = check_functoriality(ctx, b.structures["f"], b.structures["g"])
    assert rep.passed and rep.mismatches == ()
    # composing with identities reduces to the identity law
    rep = check_functoriality(ctx, identity_morphism(b.structures["A"]), b.structures["f"])
    assert rep.passed


def test_functoriality_report_carries_witnesses():
    b, ctx = _ctx("functoriality-chain", "I_chain")
    f, g = b.structures["f"], b.structures["g"]
    lhs = restrict_morphism(ctx, compose(g, f), verify=False)
    rhs = compose(restrict_morphism(ctx, g, verify=False),
                  restrict_morphism(ctx, f, verify=False))
    for n in range(1, 7):
        assert lhs.comp(n) == rhs.comp(n)
    # a deliberately broken comparison produces mismatch entries
    tweaked = compose(restrict_morphism(ctx, g, verify=False),
                      restrict_morphism(ctx, f, verify=False))
    broken = type(tweaked).build(
        tweaked.source, tweaked.target, tweaked.max_arity,
        {1: flip_bit(tweaked.comp(1), ((0, 0),), 0),
         **{k: tweaked.comp(k) for k in range(2, 7) if not tweaked.comp(k).is_zero}})
    diff = [n for n in range(1, 7) if lhs.comp(n) != broken.comp(n)]
    assert diff == [1]


def _flipping_pullback(monkeypatch):
    """Make every pullback clear one output bit of its top nonzero map, as
    a wrong pullback would."""
    original = linfty.restrict.pullback

    def flipped(morphism, maps, up_to):
        out = original(morphism, maps, up_to)
        n = max(k for k, m in out.items() if not m.is_zero)
        out[n] = _cleared(out[n])
        return out

    monkeypatch.setattr(linfty.restrict, "pullback", flipped)


def test_functoriality_report_finds_a_wrong_pullback(monkeypatch):
    # its mismatches are those of comparing the two sides entry by entry
    _flipping_pullback(monkeypatch)
    b, ctx = _ctx("functoriality-chain", "I_chain")
    f, g = b.structures["f"], b.structures["g"]
    rep = check_functoriality(ctx, f, g)
    lhs = restrict_morphism(ctx, compose(g, f), verify=False)
    rhs = compose(restrict_morphism(ctx, g, verify=False),
                  restrict_morphism(ctx, f, verify=False))
    expected = []
    for n in range(1, 7):
        left, right = dict(lhs.comp(n).entries()), dict(rhs.comp(n).entries())
        diff = {k: left.get(k, 0) ^ right.get(k, 0) for k in left.keys() | right.keys()}
        diff = {k: bits for k, bits in diff.items() if bits}
        if diff:
            key = min(diff)
            expected.append((n, key, Elem(sum(d for d, _ in key) + n - 1, diff[key])))
    assert not rep.passed and list(rep.mismatches) == expected


def test_restrict_command_reports_a_wrong_pullback(monkeypatch, tmp_path, capsys):
    # verified inputs and a restriction failing its relation: exit 1, one
    # error line naming an implementation bug, and no output file
    _flipping_pullback(monkeypatch)
    path = tmp_path / "abelian-i2.json"
    path.write_text(serialize_bundle(fixtures.build("abelian-i2")))
    out = tmp_path / "out.json"
    assert main(["restrict", "--morphism", str(path), "--module", str(path),
                 "-o", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith("implementation bug")
    assert not out.exists()


def test_classical_restriction_matches_and_serializes_identically():
    b = fixtures.build("lie-corollary")
    phi, M = b.structures["inclusion"], b.structures["adjoint"]
    ctx = context(phi, 6)
    constructed = restrict_module(ctx, M)
    classical = classical_restriction(phi, M)
    assert constructed == classical
    out1, out2 = Bundle(), Bundle()
    out1.spaces = {"sub": phi.source.space, "L": M.space}
    out2.spaces = {"sub": phi.source.space, "L": M.space}
    out1.structures = {"alg": phi.source, "restricted": constructed}
    out2.structures = {"alg": phi.source, "restricted": classical}
    assert serialize_bundle(out1) == serialize_bundle(out2)


def test_classical_restriction_action_table():
    # restricting the adjoint action along the inclusion of the span of the
    # first and third basis vectors: u acts like e, so u.f = h; w acts like h,
    # which is central, so w acts by zero
    b = fixtures.build("lie-corollary")
    phi, M = b.structures["inclusion"], b.structures["adjoint"]
    out = classical_restriction(phi, M)
    u, w = (0, 0), (0, 1)
    e, f, h = (0, 0), (0, 1), (0, 2)
    assert out.op(2).eval((unit(u), unit(f))).bits == 0b100
    assert out.op(2).eval((unit(u), unit(e))).is_zero
    assert out.op(2).eval((unit(u), unit(h))).is_zero
    for mb in (e, f, h):
        assert out.op(2).eval((unit(w), unit(mb))).is_zero


def test_classical_restriction_zero_and_identity_morphisms():
    b = fixtures.build("lie-corollary")
    phi, M = b.structures["inclusion"], b.structures["adjoint"]
    heis = b.structures["heisenberg"]
    zero_phi = LinfMorphism.build(phi.source, heis, 6, {})
    out = classical_restriction(zero_phi, M)
    assert out.op(2).is_zero and out.op(1).entries() == M.op(1).entries()
    ident = LinfMorphism.build(heis, heis, 6, {
        1: SymMultiMap(1, 0, heis.space, heis.space,
                       [((bb,), 1 << bb[1]) for bb in heis.space.basis()]),
    })
    out = classical_restriction(ident, M)
    assert out.op(2).entries() == M.op(2).entries()


def test_classical_restriction_rejects_non_lie_shapes():
    graded = fixtures.build("abelian-i2")
    with pytest.raises(ValueError):
        classical_restriction(graded.structures["I2"], graded.structures["M2"])  # not degree 0
    lie = fixtures.build("lie-corollary")
    phi, M = lie.structures["inclusion"], lie.structures["adjoint"]
    with pytest.raises(ValueError, match="^module is not over the target algebra of the morphism$"):
        classical_restriction(phi, restrict_module(context(phi, 6), M))
    # between degree-0 spaces a quadratic morphism part or a ternary
    # operation has no basis in its output degree 1, so it holds no entry;
    # the constructor drops it as a zero map, so every degree-0 input is
    # strict and Lie-shaped, and classical_restriction need not check that
    V, heis = phi.target.space, phi.target
    with pytest.raises(ValueError, match="exceed codomain"):
        SymMultiMap(3, 1, V, V, [(((0, 0),) * 3, 1)])
    assert LinfMorphism(phi.source, heis, 6,
                        (phi.comp(1), SymMultiMap(2, 1, phi.source.space, V))) == phi
    assert len(heis.ops) == 2 and LinfAlgebra(V, 6, (*heis.ops, SymMultiMap(3, 1, V, V))) == heis


def _natural_representation(heis):
    # the strictly-upper-triangular picture: e moves v2 to v1, f moves v3 to
    # v2, h moves v3 to v1; unlike the adjoint, h acts nontrivially here
    e, f, h = (0, 0), (0, 1), (0, 2)
    v1, v2, v3 = (0, 0), (0, 1), (0, 2)
    M = GradedSpace({0: 3})
    return LinfModule.build(heis, M, 6, {
        2: SymMultiMap(2, 0, heis.space, M, [
            ((e, v2), 0b001), ((f, v3), 0b010), ((h, v3), 0b001),
        ], last_space=M),
    })


def test_natural_representation_is_a_module():
    heis = fixtures.build("heisenberg-adjoint").structures["heisenberg"]
    nat = _natural_representation(heis)
    for n in range(1, 7):
        assert module_residual(nat, n).is_zero


def test_restriction_error_names_the_bug():
    # hand the context a non-morphism whose declared verification flag lies;
    # pulling the natural representation back along it yields operators that
    # no longer commute, so the output check trips and reports a bug
    b = fixtures.build("heisenberg-adjoint")
    heis, sub = b.structures["heisenberg"], b.structures["subalgebra"]
    u, w = (0, 0), (0, 1)
    bad = LinfMorphism.build(sub, heis, 6, {
        1: SymMultiMap(1, 0, sub.space, heis.space, [((u,), 0b001), ((w,), 0b010)]),
    })
    lying_ctx = RestrictionContext(bad, 6, True)
    with pytest.raises(RestrictionError, match="implementation bug"):
        restrict_module(lying_ctx, _natural_representation(heis))


def _acting_on(L: GradedSpace, M: GradedSpace, top: int):
    """A valid module over the abelian algebra on L: x_0 and x_top, both in
    degree 0, send m_0 to m_1 (degree 0 of M); a module morphism that is the
    identity on m_0 and m_1; and I: L' -> L with I_1(x'_0) = x_0."""
    alg = LinfAlgebra.build(L, 4, {})
    mod = LinfModule.build(alg, M, 4, {2: SymMultiMap(
        2, 0, L, M, [(((0, 0), (0, 0)), 0b10), (((0, top), (0, 0)), 0b10)], last_space=M)})
    h = ModuleMorphism.build(mod, mod, 4, {
        1: SymMultiMap(1, 0, L, M, [(((0, 0),), 0b01), (((0, 1),), 0b10)], last_space=M)})
    Lp = GradedSpace({0: 1})
    I = LinfMorphism.build(LinfAlgebra.build(Lp, 4, {}), alg, 4, {
        1: SymMultiMap(1, 0, Lp, L, [(((0, 0),), 1)])})
    return mod, h, I


def test_module_cost_follows_entries_not_dimensions():
    # the module's outputs land in degree 0, where L has dimension D; then
    # M's dimension is 10**12.  Each operation visits the stored entries
    # only: a module output offset past L's basis in L x| M would hold D
    # bits, and a walk over M's basis 10**12 steps
    start = time.perf_counter()
    for D, m in [(10, 2), (10**6, 2), (10**12, 2), (10, 10**12)]:
        mod, h, I = _acting_on(GradedSpace({0: D}), GradedSpace({0: m}), D - 1)
        assert all(module_residual(mod, n).is_zero for n in range(1, 5))
        assert all(modhom_residual(h, n).is_zero for n in range(1, 5))
        assert compose(h, h) == h
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restricted = restrict_module(context(I), mod)
        assert restricted.op(2).entries() == ((((0, 0), (0, 0)), 0b10),)
    # a module built through the API, where the bundle format's index limit
    # does not apply, acting on the module element of index 10**12: id_M in
    # the pullback holds it as bit 0 under its tag, not as 1 << 10**12
    big = 10**12
    L, M, Lp = GradedSpace({0: 10}), GradedSpace({0: big + 1}), GradedSpace({0: 1})
    alg = LinfAlgebra.build(L, 4, {})
    mod = LinfModule.build(alg, M, 4, {2: SymMultiMap(
        2, 0, L, M, [(((0, 0), (0, big)), 0b10)], last_space=M)})
    I = LinfMorphism.build(LinfAlgebra.build(Lp, 4, {}), alg, 4, {
        1: SymMultiMap(1, 0, Lp, L, [(((0, 0),), 1)])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        restricted = restrict_module(context(I), mod)
    assert restricted.op(2).entries() == ((((0, 0), (0, big)), 0b10),)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("command", ["verify", "restrict"])
@pytest.mark.parametrize("space,dims", [
    ("i2_tgt_space", {"1": 10**6}), ("i2_tgt_space", {"1": 10**12}),
    ("i2_tgt_space", {"1": 10**30}),
    ("i2_mod_space", {"0": 10**12, "1": 10**12, "2": 10**12}),
], ids=["L-1e6", "L-1e12", "L-1e30", "M-1e12"])
def test_abelian_i2_on_huge_dimensions_exits_zero(tmp_path, capsys, command, space, dims):
    # L's degree 1, where the module has outputs, or every degree of the
    # module, far larger than any stored index: no integer may grow with a
    # dimension and no walk may cover a basis
    doc = json.loads(serialize_bundle(fixtures.build("abelian-i2")))
    doc["spaces"][space]["dims"].update(dims)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = {"verify": ["verify", str(path)],
            "restrict": ["restrict", "--morphism", str(path), "--module", str(path),
                         "-o", str(tmp_path / "out.json")]}[command]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ""
