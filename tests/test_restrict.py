import itertools
import json
import random

import pytest

from linfty import fixtures
from linfty.gfa import GradedSpace, SymMultiMap, flip_bit, unit
from linfty.jsonio import Bundle, parse_bundle, serialize_bundle
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
from helpers import random_algebra, random_modhom, random_module, random_morphism, set_partitions
from linfty.structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    compose,
    identity_morphism,
    modhom_residual,
    module_residual,
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
    ctx = RestrictionContext(I, 4, False)
    restricted = restrict_morphism(ctx, f, verify=False)
    assert len(restricted.source.ops) == len(restricted.comps) == 3  # nonzero below 4
    for outer, got in ((M.op, restricted.source.op), (f.comp, restricted.comp)):
        for n in range(1, 5):
            for xs in itertools.combinations_with_replacement(Lp.space.basis(), n - 1):
                for m in M.space.basis():
                    bits = 0
                    for boxes in set_partitions(n - 1):
                        zs = tuple(I.comp(len(box)).eval(tuple(unit(xs[p]) for p in box))
                                   for box in boxes)
                        bits ^= outer(len(boxes) + 1).eval(zs + (unit(m),)).bits
                    assert got(n).value(xs + (m,)) == bits


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
    from linfty.structures import first_failure
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
    # note: between genuinely degree-0 spaces a nonzero quadratic morphism
    # part cannot even be stored (its output degree has no basis), so the
    # degree test is the one that bites in practice


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
