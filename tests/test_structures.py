import itertools
import random
import time
import tracemalloc

import pytest

from linfty import fixtures
from linfty.gfa import Elem, GradedSpace, SymMultiMap, flip_bit, unit, zero_map
from linfty.structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    compose,
    first_failure,
    identity_morphism,
    jacobi_residual,
    modhom_residual,
    module_residual,
    morphism_residual,
    residual,
    _insertion,
    _splits,
    _values_eval,
)
from helpers import random_algebra, random_modhom, random_module, random_morphism, set_partitions

V2 = GradedSpace({0: 2, 1: 2})
W2 = GradedSpace({0: 2, -1: 1})


def _heisenberg():
    return fixtures.build("heisenberg-adjoint").structures["heisenberg"]


def _adjoint():
    return fixtures.build("heisenberg-adjoint").structures["adjoint"]


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def test_build_checks_signatures():
    bad = zero_map(2, 5, V2, V2)  # wrong shift for an arity-2 bracket
    with pytest.raises(ValueError):
        LinfAlgebra.build(V2, 4, {2: bad})
    with pytest.raises(ValueError):
        LinfAlgebra.build(V2, 2, {3: zero_map(3, 1, V2, V2)})  # above max_arity


def test_ops_above_truncation_are_zero():
    alg = _heisenberg()
    assert alg.op(7).is_zero and alg.op(7).arity == 7


def test_module_morphism_needs_shared_algebra():
    rng = random.Random(0)
    a1 = random_algebra(rng, V2, 4)
    a2 = random_algebra(rng, W2, 4)
    m1 = random_module(rng, a1, V2, 4)
    m2 = random_module(rng, a2, W2, 4)
    with pytest.raises(ValueError):
        ModuleMorphism.build(m1, m2, 4, {})


# ---------------------------------------------------------------------------
# arity-1 and arity-2 instances, frozen from hand expansion
# ---------------------------------------------------------------------------

def test_jacobi_n1_is_squared_differential():
    rng = random.Random(1)
    alg = random_algebra(rng, V2, 4)
    r = jacobi_residual(alg, 1)
    l1 = alg.op(1)
    for b in V2.basis():
        assert r.eval((unit(b),)) == l1.eval((l1.eval((unit(b),)),))


def test_jacobi_n2_hand_expansion():
    rng = random.Random(2)
    alg = random_algebra(rng, V2, 4)
    l1, l2 = alg.op(1), alg.op(2)
    r = jacobi_residual(alg, 2)
    for x, y in itertools.product(V2.basis(), repeat=2):
        ux, uy = unit(x), unit(y)
        expected = (l1.eval((l2.eval((ux, uy)),))
                    + l2.eval((l1.eval((ux,)), uy))
                    + l2.eval((l1.eval((uy,)), ux)))
        assert r.eval((ux, uy)) == expected


def test_morphism_n2_hand_expansion():
    # f1(l2(x1,x2)) + f2(l1 x1, x2) + f2(l1 x2, x1)
    #   + l'1(f2(x1,x2)) + l'2(f1 x1, f1 x2)
    rng = random.Random(3)
    src = random_algebra(rng, V2, 4)
    tgt = random_algebra(rng, W2, 4)
    mor = random_morphism(rng, src, tgt, 4)
    l1, l2 = src.op(1), src.op(2)
    m1, m2 = tgt.op(1), tgt.op(2)
    f1, f2 = mor.comp(1), mor.comp(2)
    r = morphism_residual(mor, 2)
    for x, y in itertools.product(V2.basis(), repeat=2):
        ux, uy = unit(x), unit(y)
        expected = (f1.eval((l2.eval((ux, uy)),))
                    + f2.eval((l1.eval((ux,)), uy))
                    + f2.eval((l1.eval((uy,)), ux))
                    + m1.eval((f2.eval((ux, uy)),))
                    + m2.eval((f1.eval((ux,)), f1.eval((uy,)))))
        assert r.eval((ux, uy)) == expected


def test_module_n1_and_n2_hand_expansion():
    rng = random.Random(4)
    alg = random_algebra(rng, V2, 4)
    mod = random_module(rng, alg, W2, 4)
    k1, k2 = mod.op(1), mod.op(2)
    l1 = alg.op(1)
    r1 = module_residual(mod, 1)
    for m in W2.basis():
        assert r1.eval((unit(m),)) == k1.eval((k1.eval((unit(m),)),))
    r2 = module_residual(mod, 2)
    for x, m in itertools.product(V2.basis(), W2.basis()):
        ux, um = unit(x), unit(m)
        expected = (k2.eval((l1.eval((ux,)), um))
                    + k2.eval((ux, k1.eval((um,))))
                    + k1.eval((k2.eval((ux, um)),)))
        assert r2.eval((ux, um)) == expected


def test_modhom_n1_and_n2_hand_expansion():
    # h2(l1 x, m) + h2(x, k1 m) + h1(k2(x, m)) + k'2(x, h1 m) + k'1(h2(x, m))
    rng = random.Random(5)
    alg = random_algebra(rng, V2, 4)
    src = random_module(rng, alg, W2, 4)
    tgt = random_module(rng, alg, V2, 4)
    hom = random_modhom(rng, src, tgt, 4)
    l1 = alg.op(1)
    k1, k2 = src.op(1), src.op(2)
    K1, K2 = tgt.op(1), tgt.op(2)
    h1, h2 = hom.comp(1), hom.comp(2)
    r1 = modhom_residual(hom, 1)
    for m in W2.basis():
        um = unit(m)
        assert r1.eval((um,)) == h1.eval((k1.eval((um,)),)) + K1.eval((h1.eval((um,)),))
    r2 = modhom_residual(hom, 2)
    for x, m in itertools.product(V2.basis(), W2.basis()):
        ux, um = unit(x), unit(m)
        expected = (h2.eval((l1.eval((ux,)), um))
                    + h2.eval((ux, k1.eval((um,))))
                    + h1.eval((k2.eval((ux, um)),))
                    + K2.eval((ux, h1.eval((um,))))
                    + K1.eval((h2.eval((ux, um)),)))
        assert r2.eval((ux, um)) == expected


def test_morphism_n3_hand_expansion():
    # S(1,2) = {123, 213, 312}, S(2,1) = {123, 132, 231}; on the bracket side
    # the groupings are (3), (1,2) with three unshuffles, and (1,1,1) once
    rng = random.Random(30)
    src = random_algebra(rng, V2, 4)
    tgt = random_algebra(rng, W2, 4)
    mor = random_morphism(rng, src, tgt, 4)
    l1, l2, l3 = (src.op(k) for k in (1, 2, 3))
    m1, m2, m3 = (tgt.op(k) for k in (1, 2, 3))
    f1, f2, f3 = (mor.comp(k) for k in (1, 2, 3))
    r = morphism_residual(mor, 3)
    for key in itertools.product(V2.basis(), repeat=3):
        x1, x2, x3 = (unit(b) for b in key)
        expected = (f3.eval((l1.eval((x1,)), x2, x3))
                    + f3.eval((l1.eval((x2,)), x1, x3))
                    + f3.eval((l1.eval((x3,)), x1, x2))
                    + f2.eval((l2.eval((x1, x2)), x3))
                    + f2.eval((l2.eval((x1, x3)), x2))
                    + f2.eval((l2.eval((x2, x3)), x1))
                    + f1.eval((l3.eval((x1, x2, x3)),))
                    + m1.eval((f3.eval((x1, x2, x3)),))
                    + m2.eval((f1.eval((x1,)), f2.eval((x2, x3))))
                    + m2.eval((f1.eval((x2,)), f2.eval((x1, x3))))
                    + m2.eval((f1.eval((x3,)), f2.eval((x1, x2))))
                    + m3.eval((f1.eval((x1,)), f1.eval((x2,)), f1.eval((x3,)))))
        assert r.eval((x1, x2, x3)) == expected


def test_module_n3_hand_expansion():
    rng = random.Random(31)
    alg = random_algebra(rng, V2, 4)
    mod = random_module(rng, alg, W2, 4)
    l1, l2 = alg.op(1), alg.op(2)
    k1, k2, k3 = (mod.op(k) for k in (1, 2, 3))
    r = module_residual(mod, 3)
    for xs in itertools.product(V2.basis(), repeat=2):
        for mb in W2.basis():
            x1, x2 = (unit(b) for b in xs)
            m = unit(mb)
            expected = (k3.eval((l1.eval((x1,)), x2, m))
                        + k3.eval((l1.eval((x2,)), x1, m))
                        + k2.eval((l2.eval((x1, x2)), m))
                        + k3.eval((x1, x2, k1.eval((m,))))
                        + k2.eval((x2, k2.eval((x1, m))))
                        + k2.eval((x1, k2.eval((x2, m))))
                        + k1.eval((k3.eval((x1, x2, m)),)))
            assert r.eval((x1, x2, m)) == expected


def test_modhom_n3_hand_expansion():
    rng = random.Random(32)
    alg = random_algebra(rng, V2, 4)
    src = random_module(rng, alg, W2, 4)
    tgt = random_module(rng, alg, V2, 4)
    hom = random_modhom(rng, src, tgt, 4)
    l1, l2 = alg.op(1), alg.op(2)
    k1, k2, k3 = (src.op(k) for k in (1, 2, 3))
    K1, K2, K3 = (tgt.op(k) for k in (1, 2, 3))
    h1, h2, h3 = (hom.comp(k) for k in (1, 2, 3))
    r = modhom_residual(hom, 3)
    for xs in itertools.product(V2.basis(), repeat=2):
        for mb in W2.basis():
            x1, x2 = (unit(b) for b in xs)
            m = unit(mb)
            expected = (h3.eval((l1.eval((x1,)), x2, m))
                        + h3.eval((l1.eval((x2,)), x1, m))
                        + h2.eval((l2.eval((x1, x2)), m))
                        + h3.eval((x1, x2, k1.eval((m,))))
                        + h2.eval((x2, k2.eval((x1, m))))
                        + h2.eval((x1, k2.eval((x2, m))))
                        + h1.eval((k3.eval((x1, x2, m)),))
                        + K3.eval((x1, x2, h1.eval((m,))))
                        + K2.eval((x1, h2.eval((x2, m))))
                        + K2.eval((x2, h2.eval((x1, m))))
                        + K1.eval((h3.eval((x1, x2, m)),)))
            assert r.eval((x1, x2, m)) == expected


def test_compose_n1_n2_hand_expansion():
    rng = random.Random(6)
    alg = random_algebra(rng, V2, 4)
    A = random_module(rng, alg, V2, 4)
    B = random_module(rng, alg, W2, 4)
    C = random_module(rng, alg, V2, 4)
    f = random_modhom(rng, A, B, 4)
    g = random_modhom(rng, B, C, 4)
    gf = compose(g, f)
    assert gf.source == A and gf.target == C
    f1, f2 = f.comp(1), f.comp(2)
    g1, g2 = g.comp(1), g.comp(2)
    for m in V2.basis():
        assert gf.comp(1).eval((unit(m),)) == g1.eval((f1.eval((unit(m),)),))
    for x, m in itertools.product(V2.basis(), V2.basis()):
        ux, um = unit(x), unit(m)
        expected = g1.eval((f2.eval((ux, um)),)) + g2.eval((ux, f1.eval((um,))))
        assert gf.comp(2).eval((ux, um)) == expected


def test_compose_matches_set_partition_derivation():
    # g o f as the algebra morphism (id + g) o (id + f) on one module input:
    # a set partition of the n inputs contributes only when every box without
    # the module element is a singleton, since id has no higher components;
    # g o f is nonzero up to arity 2 * up_to - 1 (truncated at 4)
    for up_to in (4, 2):
        rng = random.Random(17)
        alg = random_algebra(rng, GradedSpace({-1: 2, 0: 1}), 4, up_to=4)
        A = random_module(rng, alg, V2, 4, up_to=4)
        B = random_module(rng, alg, GradedSpace({0: 2, 1: 1}), 4, up_to=4)
        C = random_module(rng, alg, W2, 4, up_to=4)
        f = random_modhom(rng, A, B, 4, up_to=up_to)
        g = random_modhom(rng, B, C, 4, up_to=up_to)
        gf = compose(g, f)
        assert len(gf.comps) == min(4, 2 * up_to - 1)
        for n in range(1, 5):
            for xs in itertools.combinations_with_replacement(alg.space.basis(), n - 1):
                for m in A.space.basis():
                    args = [unit(x) for x in xs] + [unit(m)]
                    bits = 0
                    for boxes in set_partitions(n):
                        others = [box for box in boxes if n - 1 not in box]
                        if any(len(box) > 1 for box in others):
                            continue
                        mbox = next(box for box in boxes if n - 1 in box)
                        inner = f.comp(len(mbox)).eval(tuple(args[p] for p in mbox))
                        outer = tuple(args[box[0]] for box in others) + (inner,)
                        bits ^= g.comp(len(boxes)).eval(outer).bits
                    assert gf.comp(n).value(xs + (m,)) == bits


def test_modhom_right_side_matches_set_partition_derivation():
    # with l = 0 and the source module's k = 0, the module morphism relation
    # is its right side alone: k'_r over every set partition of the n inputs,
    # each box through id_L + h.  id_L has only an arity-1 component, so a
    # box of algebra inputs of size >= 2 maps to zero; the fast path never
    # sees those partitions and must agree with the sum that includes them
    rng = random.Random(23)
    alg = LinfAlgebra.build(GradedSpace({-1: 2, 0: 1}), 5, {})
    A = LinfModule.build(alg, GradedSpace({-1: 1, 0: 2}), 5, {})
    B = random_module(rng, alg, GradedSpace({-1: 2, 0: 1}), 5, up_to=3)
    h = random_modhom(rng, A, B, 5, up_to=3)
    nonzero = []
    for n in range(1, 6):
        r = modhom_residual(h, n)
        nonzero.append(not r.is_zero)
        for xs in itertools.combinations_with_replacement(alg.space.basis(), n - 1):
            for m in A.space.basis():
                args = [unit(x) for x in xs] + [unit(m)]
                bits = 0
                for boxes in set_partitions(n):
                    mbox = next(box for box in boxes if n - 1 in box)
                    values = [args[box[0]] if len(box) == 1
                              else Elem(sum(args[p].degree for p in box) + len(box) - 1, 0)
                              for box in boxes if box is not mbox]
                    inner = h.comp(len(mbox)).eval(tuple(args[p] for p in mbox))
                    bits ^= B.op(len(boxes)).eval(tuple(values) + (inner,)).bits
                assert r.value(xs + (m,)) == bits
    assert any(nonzero)


def test_modhom_and_compose_cost_follows_stored_entries():
    # one k_2 entry and one entry each of h_1 and h_2 on a 200-dimensional
    # degree: the relation and compose visit those entries, not the
    # (D + 1) * C(D + n - 2, n - 1) keys with one module element
    D = 200
    L, M = GradedSpace({0: D}), GradedSpace({0: D, 1: 1})
    alg = LinfAlgebra.build(L, 4, {})
    mod = LinfModule.build(alg, M, 4, {
        2: SymMultiMap(2, 0, L, M, [(((0, 1), (0, 0)), 1)], last_space=M)})
    h = ModuleMorphism.build(mod, mod, 4, {
        1: SymMultiMap(1, 0, L, M, [(((0, 0),), 1)], last_space=M),
        2: SymMultiMap(2, 1, L, M, [(((0, 0), (0, 0)), 1)], last_space=M)})
    start = time.perf_counter()
    counts = [len(modhom_residual(h, n).entries()) for n in (1, 2, 3)]
    hh = compose(h, h)
    elapsed = time.perf_counter() - start
    # h_2(x_0, k_2(x_1, m_0)) at n = 3 has no k_2 term to cancel it
    assert counts == [0, 0, 1]
    assert hh == h
    assert elapsed < 0.5


def test_values_eval_cost_follows_set_bits():
    # a value whose highest set bit is 250000: expanding it index by index
    # up to that bit takes over a second
    B = 250000
    table = {((0, 2), (0, 5)): (0, 1), ((0, 5), (0, B)): (0, 2), ((0, B), (0, B)): (0, 4)}
    start = time.perf_counter()
    got = _values_eval(table, ((0, 1 << B | 1 << 2), (0, 1 << 5)))
    elapsed = time.perf_counter() - start
    assert got == 1 ^ 2
    assert elapsed < 0.25


# ---------------------------------------------------------------------------
# classical fixtures
# ---------------------------------------------------------------------------

def test_heisenberg_jacobi_brute_force():
    alg = _heisenberg()
    l2 = alg.op(2)

    def bracket(a, b):
        return l2.eval((a, b))

    for x, y, z in itertools.product([unit(b) for b in alg.space.basis()], repeat=3):
        total = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
        assert total.is_zero
    for n in range(1, 7):
        assert jacobi_residual(alg, n).is_zero


def test_abelian_algebra_jacobi_zero():
    alg = LinfAlgebra.build(V2, 5, {})
    for n in range(1, 6):
        assert jacobi_residual(alg, n).is_zero


def test_adjoint_module_relation():
    mod = _adjoint()
    for n in range(1, 7):
        assert module_residual(mod, n).is_zero


def test_strict_lie_morphism_residual_is_homomorphism_defect():
    # on degree-0 algebras with a strict morphism the arity-2 residual is
    # phi([x,y]) + [phi x, phi y]
    b = fixtures.build("heisenberg-adjoint")
    incl = b.structures["inclusion"]
    r = morphism_residual(incl, 2)
    phi1 = incl.comp(1)
    l2s = incl.source.op(2)
    l2t = incl.target.op(2)
    for x, y in itertools.product(incl.source.space.basis(), repeat=2):
        ux, uy = unit(x), unit(y)
        expected = phi1.eval((l2s.eval((ux, uy)),)) + l2t.eval((phi1.eval((ux,)), phi1.eval((uy,))))
        assert r.eval((ux, uy)) == expected
    assert r.is_zero  # the inclusion really is a homomorphism


def test_identity_morphism_is_valid_and_unit():
    b = fixtures.build("functoriality-chain")
    f = b.structures["f"]
    ident = identity_morphism(f.source)
    for n in range(1, 7):
        assert modhom_residual(ident, n).is_zero
    assert compose(f, identity_morphism(f.source)) == f
    assert compose(identity_morphism(f.target), f) == f


def test_compose_is_morphism_and_associative():
    b = fixtures.build("functoriality-chain")
    f, g, t = b.structures["f"], b.structures["g"], b.structures["t"]
    gf = compose(g, f)
    for n in range(1, 7):
        assert modhom_residual(gf, n).is_zero
    assert compose(t, compose(g, f)) == compose(compose(t, g), f)


def test_identity_summand_stays_small_on_a_wide_degree():
    # an identity stored as one 1 << index per basis element of a
    # 20000-dimensional degree is quadratic in the dimension; the relation
    # and compose pass id_L through without storing it
    alg = LinfAlgebra.build(GradedSpace({0: 20000}), 4, {})
    mod = LinfModule.build(alg, GradedSpace({0: 20000}), 4, {})
    h = ModuleMorphism.build(mod, mod, 4, {})
    tracemalloc.start()
    try:
        assert modhom_residual(h, 1).is_zero
        assert compose(h, h) == h
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_compose_requires_matching_modules():
    b = fixtures.build("functoriality-chain")
    f, t = b.structures["f"], b.structures["t"]
    with pytest.raises(ValueError):
        compose(f, t)  # t ends at C, f starts at A


# ---------------------------------------------------------------------------
# residual plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, -1])
def test_residuals_reject_arity_below_one(n):
    kinds = set()
    for name in fixtures.FIXTURES:
        for st in fixtures.build(name).structures.values():
            kinds.add(type(st))
            with pytest.raises(ValueError, match="arity must be >= 1"):
                residual(st, n)
    assert kinds == {LinfAlgebra, LinfMorphism, LinfModule, ModuleMorphism}


def test_insertion_parity_matches_split_counting():
    # with inner_i = {A: e} and outer_j = {B + e: 1} the insertion sum at
    # A u B is the number of splits of A u B whose taken part is A, mod 2;
    # A and B that share elements are counted too (x into (x, x): 3 splits)
    xs = ((0, 0), (0, 1), (1, 0))
    e = (5, 0)  # stored as its degree and bits, (5, 1)
    for n in range(1, 7):
        for i in range(1, n + 1):
            for A in itertools.combinations_with_replacement(xs, i):
                for B in itertools.combinations_with_replacement(xs, n - i):
                    R = tuple(sorted(A + B))
                    count = sum(take(R) == A for take, _ in _splits(n, i))
                    inner = tuple({A: (5, 1)} if k == i else {} for k in range(1, n + 1))
                    outer = tuple({tuple(sorted(B + (e,))): (0, 1)} if k == n + 1 - i else {}
                                  for k in range(1, n + 1))
                    assert dict(_insertion(outer, inner, n)) == ({R: 1} if count % 2 else {})


def test_residual_dispatch_and_first_failure():
    b = fixtures.build("abelian-i2")
    for st in b.structures.values():
        assert first_failure(st, 6) is None
    mod = b.structures["M2"]
    mutated = LinfModule.build(
        mod.algebra, mod.space, mod.max_arity,
        {1: flip_bit(mod.op(1), (((1, 0),) ), 0), 2: mod.op(2)},
    )
    failure = first_failure(mutated, 6)
    assert failure is not None
    n, key, value = failure
    assert n <= 2 and not value.is_zero
    assert residual(mutated, n).value(key) == value.bits


def test_residual_symmetric_under_permuted_inputs():
    # the stored residual is a symmetric map; spot-check that evaluating on
    # shuffled inputs matches the canonical entry
    rng = random.Random(7)
    alg = random_algebra(rng, V2, 4)
    mod = random_module(rng, alg, W2, 4)
    r = module_residual(mod, 3)
    xs = (V2.basis()[1], V2.basis()[0])
    for m in W2.basis():
        a = r.eval((unit(xs[0]), unit(xs[1]), unit(m)))
        b = r.eval((unit(xs[1]), unit(xs[0]), unit(m)))
        assert a == b


def test_degenerate_dimensions_are_legal():
    sparse = GradedSpace({0: 1, 3: 1})
    alg = LinfAlgebra.build(sparse, 4, {})
    mod = random_module(random.Random(8), alg, GradedSpace({0: 1}), 4)
    for n in range(1, 5):
        module_residual(mod, n)  # must not raise
