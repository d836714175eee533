import itertools
import json
import pickle
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as hst

from linfty import fixtures, structures
from linfty.gfa import Elem, GradedSpace, SymMultiMap, flip_bit, unit
from linfty.structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    complete_bound,
    compose,
    first_failure,
    identity_morphism,
    jacobi_residual,
    modhom_residual,
    module_residual,
    morphism_residual,
    residual,
    GROUPED,
    INSERTION,
    _Plan,
    _family,
    _grouped,
    _splits,
    _values_eval,
)
from linfty.cli import main
from linfty.jsonio import parse_bundle, serialize_bundle
from linfty.oracle import naive_residual
from helpers import (KIND_OF, bundle_of, fails, kernel_made_maps, kinds_on, patch_mutant,
                     random_algebra, random_map,
                     random_modhom, random_module, random_morphism, rechecked,
                     chunked_structures, residuals_match_naive, seeded_structures,
                     module_composite, set_partitions,
                     shapes_match_naive, stored_maps, transported_algebra, unchecked_faults,
                     untabled, wide_arity_morphism)

V2 = GradedSpace({0: 2, 1: 2})
W2 = GradedSpace({0: 2, -1: 1})
# graded spaces in up to three of the degrees -2..2, each of dimension 1 or
# 2, so most leave gaps between their degrees
_DIMS = hst.dictionaries(hst.integers(-2, 2), hst.integers(1, 2), min_size=1, max_size=3)


def _heisenberg():
    return fixtures.build("heisenberg-adjoint").structures["heisenberg"]


def _adjoint():
    return fixtures.build("heisenberg-adjoint").structures["adjoint"]


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

def _other(space):
    return W2 if space == V2 else V2


_ALG_V2 = LinfAlgebra.build(V2, 4, {})
# kind -> (class, parts, its arity-2 signature), the signature stated here
# apart from the accessors that the constructor reads it from
_SIGNED = {
    "algebra": (LinfAlgebra, (V2,), dict(shift=0, sym_space=V2, last_space=None, codomain=V2)),
    "morphism": (LinfMorphism, (_ALG_V2, LinfAlgebra.build(W2, 4, {})),
                 dict(shift=1, sym_space=V2, last_space=None, codomain=W2)),
    "module": (LinfModule, (_ALG_V2, W2),
               dict(shift=0, sym_space=V2, last_space=W2, codomain=W2)),
    "module_morphism": (ModuleMorphism,
                        (LinfModule.build(_ALG_V2, W2, 4, {}), LinfModule.build(_ALG_V2, V2, 4, {})),
                        dict(shift=1, sym_space=V2, last_space=W2, codomain=V2)),
}


def _bare(cls, *args):
    """cls's bare constructor on args = (*parts, max_arity, {arity: map}):
    the maps as a tuple, None in the gaps."""
    *parts, max_arity, maps = args
    return cls(*parts, max_arity, tuple(maps.get(k) for k in range(1, max(maps, default=0) + 1)))


# the two ways to make a structure from {arity: map}
_WAYS = (lambda cls, *args: cls.build(*args), _bare)
# signature field -> the arity-2 signature with that field wrong
_WRONG = {
    "shift": lambda sig: {**sig, "shift": sig["shift"] + 1},
    "sym_space": lambda sig: {**sig, "sym_space": _other(sig["sym_space"])},
    # a module slot on an algebra or morphism map, none on a module map
    "module_slot": lambda sig: {**sig, "last_space": None if sig["last_space"] else V2},
    "codomain": lambda sig: {**sig, "codomain": _other(sig["codomain"])},
}


@pytest.mark.parametrize("field", list(_WRONG))
@pytest.mark.parametrize("kind", list(_SIGNED))
def test_build_checks_signatures(kind, field):
    cls, parts, sig = _SIGNED[kind]
    for make in _WAYS:
        make(cls, *parts, 4, {2: SymMultiMap(2, **sig)})  # the right signature builds
        with pytest.raises(ValueError, match=r"\[2\]: expected arity 2, shift "):
            make(cls, *parts, 4, {2: SymMultiMap(2, **_WRONG[field](sig))})


@pytest.mark.parametrize("kind", list(_SIGNED))
def test_build_checks_arities(kind):
    cls, parts, sig = _SIGNED[kind]
    for make in _WAYS:
        with pytest.raises(ValueError, match=r"\[3\]: expected arity 3, shift "):
            make(cls, *parts, 4, {3: SymMultiMap(2, **sig)})  # stored under the wrong arity
    above = {**sig, "shift": sig["shift"] + 3}
    with pytest.raises(ValueError, match=r"\[5\] outside 1\.\.4"):
        cls.build(*parts, 4, {5: SymMultiMap(5, **above)})  # above max_arity
    # the bare constructor drops a zero map above max_arity, and refuses a
    # nonzero one (test_constructor_refuses_nonzero_maps_above_max_arity)
    assert _bare(cls, *parts, 4, {5: SymMultiMap(5, **above)}) == cls.build(*parts, 4, {})


def test_constructor_refuses_nonzero_maps_above_max_arity():
    # l_3, f_3, k_3 and h_3 of _stored, nonzero, at max_arity 2
    alg = LinfAlgebra(_U, 4, ())
    mod = LinfModule(alg, _U, 4, ())
    for cls, parts in ((LinfAlgebra, (_U,)), (LinfMorphism, (alg, alg)),
                       (LinfModule, (alg, _U)), (ModuleMorphism, (mod, mod))):
        maps = _stored(cls(*parts, 4, ())._map, 3)
        assert not maps[3].is_zero and len(getattr(_bare(cls, *parts, 3, maps), cls._MAPS)) == 3
        for make in _WAYS:
            with pytest.raises(ValueError, match=r"\[3\] outside 1\.\.2"):
                make(cls, *parts, 2, maps)


def test_bare_constructor_checks_what_build_checks():
    # maps over a 3-dimensional W != V, an l_2 above max_arity 1, and a zero
    # map on top: the constructor refuses the first two and drops the third
    # (a module morphism across two algebras: test_compose_requires_one_algebra)
    V, W = GradedSpace({0: 2, 1: 1}), GradedSpace({0: 3})
    rng = random.Random(5)
    foreign = (random_map(rng, 1, -1, W, W, density=1), random_map(rng, 2, 0, W, W, density=1))
    with pytest.raises(ValueError, match=r"ops\[1\]: expected arity 1, shift -1 on the declared"):
        LinfAlgebra(V, 3, foreign)
    l1, l2 = random_map(rng, 1, -1, V, V, density=1), random_map(rng, 2, 0, V, V, density=1)
    assert not l1.is_zero and not l2.is_zero
    with pytest.raises(ValueError, match=r"ops\[2\] outside 1\.\.1"):
        LinfAlgebra(V, 1, (l1, l2))
    topped = LinfAlgebra(V, 3, (SymMultiMap(1, -1, V, V),))
    assert topped == LinfAlgebra.build(V, 3, {}) and topped.ops == ()
    assert LinfAlgebra(V, 3, [l1, None, SymMultiMap(3, 1, V, V)]) == LinfAlgebra.build(V, 3, {1: l1})


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


def _stored_entries(st, top):
    """{n: {key: bits}} of st's maps for n <= top, nonzero entries only."""
    return {n: dict(st.comp(n).entries()) for n in range(1, top + 1) if not st.comp(n).is_zero}


def test_compose_matches_set_partition_derivation():
    # g o f against its derivation (helpers.module_composite); g o f is
    # nonzero up to arity 2 * up_to - 1 (truncated at 4)
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
        assert _stored_entries(gf, 4) == module_composite(g, f, 4)


@settings(derandomize=True, max_examples=60, deadline=None, phases=(Phase.generate,))
@given(_DIMS, _DIMS, _DIMS, _DIMS, hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1))
def test_compose_matches_set_partition_derivation_on_random_shapes(L, A, B, C, up_to, seed):
    # random f: A -> B and g: B -> C with components up to arity up_to on
    # spaces drawn afresh, B holding A's degrees and C B's, so that f_1 and
    # g_1 can compose (a third of the examples give a nonzero g o f, most
    # of those up to arity 3 or 4); compose reads only the components, so
    # the algebra and the modules store no operation
    rng = random.Random(seed)
    alg = LinfAlgebra.build(GradedSpace(L), 4, {})
    A, B, C = (LinfModule.build(alg, GradedSpace(dims), 4, {})
               for dims in (A, {**A, **B}, {**A, **B, **C}))
    f, g = random_modhom(rng, A, B, 4, up_to), random_modhom(rng, B, C, 4, up_to)
    assert _stored_entries(compose(g, f), 4) == module_composite(g, f, 4)


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
    # up to that bit takes over a second.  Values are L-valued (tag 0) and
    # M-valued (tag -1, bit t standing for the element (0, ~t))
    B = 250000
    for tag in (0, -1):
        def key(i, j):
            return tuple(sorted(((0, i ^ tag), (0, j ^ tag))))

        table = {key(2, 5): (0, 1, 0), key(5, B): (0, 2, 0), key(B, B): (0, 4, 0)}
        start = time.perf_counter()
        got = _values_eval(table, ((0, 1 << B | 1 << 2, tag), (0, 1 << 5, tag)))
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


def test_compose_requires_one_algebra():
    # compose meets only module morphisms over one algebra: the constructor
    # refuses f from A over the chain's source algebra to B over its target
    # algebra, so no such f reaches compose
    b = fixtures.build("functoriality-chain")
    f = b.structures["f"]
    with pytest.raises(ValueError, match="over the same algebra"):
        ModuleMorphism(LinfModule.build(b.structures["chain_source"], f.source.space, 6, {}),
                       f.target, f.max_arity, f.comps)


# ---------------------------------------------------------------------------
# kernel tables
# ---------------------------------------------------------------------------

def _counted_tables(monkeypatch):
    """The maps whose kernel table gets built from here on, one list item
    per build (holding the map keeps its id from being reused)."""
    built = []
    build = structures._kernel_table

    def counted(m):
        built.append(m)
        return build(m)

    monkeypatch.setattr(structures, "_kernel_table", counted)
    return built


def test_first_failure_builds_each_table_once(monkeypatch):
    # every fixture structure is valid, so first_failure computes every
    # arity up to its complete bound, each reading the same maps again:
    # each map's table is built once, and each structure's plan encodes
    # each table of its relation once
    built = _counted_tables(monkeypatch)
    encoded = []
    encode = structures._encoded

    def counted(table, fields):
        encoded.append(table)  # holding the table keeps its id from being reused
        return encode(table, fields)

    monkeypatch.setattr(structures, "_encoded", counted)
    sts = [st for name in fixtures.FIXTURES for st in fixtures.build(name).structures.values()]
    for st in sts:
        start = len(encoded)
        assert first_failure(st, complete_bound(st)) is None
        per_structure = Counter(map(id, encoded[start:]))
        assert set(per_structure.values()) <= {1}
        sums = structures._tabled(structures._sums(st))
        assert set(per_structure) == {id(table) for _, outer, inners in sums
                                      for family in (outer, *inners) for table in family}
    assert max(complete_bound(st) for st in sts) >= 3
    counts = Counter(map(id, built))
    assert set(counts.values()) == {1}
    own = [m for st in sts for m in getattr(st, "ops", ()) + getattr(st, "comps", ())
           if not m.is_zero]
    assert own and {id(m) for m in own} <= set(counts)
    done = len(encoded)
    for st in sts:  # again: every table and plan is kept
        first_failure(st, complete_bound(st))
    assert len(built) == len(counts) and len(encoded) == done


def test_kernel_table_is_no_part_of_the_value():
    # the same bundle built twice, its tables and plans built on one copy
    # only; they hold plain data, so a structure that has them pickles, and
    # the copy equals the structure that never had them
    used, fresh = fixtures.build("functoriality-chain"), fixtures.build("functoriality-chain")
    text = serialize_bundle(fresh)
    for st in used.structures.values():
        for n in range(1, complete_bound(st) + 1):
            residual(st, n)
    pairs = [(m, f) for name, st in used.structures.items()
             for m, f in zip(stored_maps(st), stored_maps(fresh.structures[name]))]
    assert any(m._kernel for m, _ in pairs)
    assert all(f._kernel is None for _, f in pairs if not f.is_zero)  # zero maps are shared
    for m, f in pairs:
        assert m == f and hash(m) == hash(f) and repr(m) == repr(f)
        assert m.entries() == f.entries()
    # so are the residuals the plans built, next to the constructor's maps
    for st in used.structures.values():
        for n in range(1, complete_bound(st) + 1):
            made = residual(st, n)
            checked = rechecked(made)
            assert made == checked and hash(made) == hash(checked) and repr(made) == repr(checked)
            assert made._kernel is None and pickle.loads(pickle.dumps(made)) == checked
    for name, st in used.structures.items():
        twin = fresh.structures[name]
        assert st._plan is not None and twin._plan is None
        assert st == twin and hash(st) == hash(twin) and repr(st) == repr(twin)
    assert used.structures == fresh.structures
    assert serialize_bundle(used) == serialize_bundle(fresh) == text
    copied = pickle.loads(pickle.dumps(used.structures))
    assert copied == fresh.structures
    for name, st in copied.items():
        assert all(residual(st, n) == residual(fresh.structures[name], n)
                   for n in range(1, complete_bound(st) + 1))


def test_new_maps_build_their_own_tables(monkeypatch):
    alg = _heisenberg()
    l2 = alg.op(2)
    assert jacobi_residual(alg, 3).is_zero and l2._kernel
    before = dict(l2._kernel)
    key = ((0, 0), (0, 2))
    for new in (flip_bit(l2, key, 0), l2 + SymMultiMap(2, 0, alg.space, alg.space, [(key, 1)])):
        assert new._kernel is None
        mutated = LinfAlgebra.build(alg.space, alg.max_arity, {2: new})
        assert not jacobi_residual(mutated, 3).is_zero
        assert new._kernel == {**before, key: (0, 1, 0)}
        assert l2._kernel == before
    # a residual and a composite the plans built are values like the
    # constructor's maps; a sum with a parsed map and a flipped bit come
    # back through the constructor, with no table
    t = parse_bundle(serialize_bundle(fixtures.build("functoriality-chain"))).structures["t"]
    made = (jacobi_residual(mutated, 3), compose(t, t).comp(1))
    for m in made:
        checked = rechecked(m)
        assert not m.is_zero and m._kernel is None
        assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
        copied = pickle.loads(pickle.dumps(m))
        assert copied == checked and copied._kernel is None
    r, tt1 = made
    key = r.witness()[0]
    inits = []
    init = SymMultiMap.__init__

    def counted(self, *args, **kwargs):
        inits.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SymMultiMap, "__init__", counted)
    flipped, summed = flip_bit(r, key[::-1], 0), tt1 + t.comp(1)
    assert len(inits) == 2
    assert flipped._kernel is None and summed._kernel is None
    assert (flipped + r).entries() == ((key, 1),)
    assert summed.is_zero and summed == tt1 + tt1


# ---------------------------------------------------------------------------
# kernel plans
# ---------------------------------------------------------------------------

def test_kernel_made_maps_are_canonical():
    # the maps the kernels build skip the constructor's checks; each equals,
    # table for table, the map the constructor builds of its entries, and
    # gets its kernel table only when a kernel reads it
    groups = [list(fixtures.build(name).structures.values()) for name in fixtures.FIXTURES]
    maps = [m for group in groups + [seeded_structures()] for m in kernel_made_maps(group)]
    assert all(m._kernel is None for m in maps)
    assert unchecked_faults(maps) == []
    for m in maps:
        _family((m,))
        assert m._kernel == structures._kernel_table(rechecked(m))
    assert any(not m.is_zero and m.last_space is not None for m in maps)
    assert any(not m.is_zero and m.last_space is None for m in maps)


def test_rebuilt_structure_starts_without_a_plan():
    adjoint = _adjoint()
    assert module_residual(adjoint, 3).is_zero and adjoint._plan is not None
    again = LinfModule.build(adjoint.algebra, adjoint.space, adjoint.max_arity,
                             dict(enumerate(adjoint.ops, start=1)))
    assert again == adjoint and again._plan is None
    assert module_residual(again, 3) == module_residual(adjoint, 3)
    assert again._plan is not adjoint._plan


def test_plan_is_as_wide_as_the_complete_bound():
    # the plan is built once, its fields as wide as the complete bound (8
    # here) needs, and every arity reads it: n <= 7, then the bound itself,
    # whose residual holds x eight times (4-bit fields, where 7 would give
    # 3), then n = 9, above the bound, where no entries' arities add up
    mor, fresh = wide_arity_morphism(), wide_arity_morphism()
    assert complete_bound(mor) == 8
    assert all(morphism_residual(mor, n).is_zero for n in range(1, 8))
    plan = mor._plan
    assert plan.width == 4
    got = morphism_residual(mor, 8)
    assert got == morphism_residual(fresh, 8) == naive_residual(fresh, "morphism", 8)
    assert not got.is_zero and set(got.witness()[0]) == {(0, 0)}
    assert morphism_residual(mor, 9) == naive_residual(fresh, "morphism", 9)
    assert morphism_residual(mor, 9).is_zero and mor._plan is plan
    assert first_failure(wide_arity_morphism(), 9)[0] == 8


def _chunked_residuals():
    """Each of chunked_structures with its residuals up to its complete
    bound, each equal to naive_residual's."""
    out = []
    for st in chunked_structures():
        got = [residual(st, n) for n in range(1, complete_bound(st) + 1)]
        assert got == [naive_residual(st, KIND_OF[type(st)], n) for n in range(1, len(got) + 1)]
        out.append((st, got))
    return out


def test_decoder_reads_three_chunk_positions():
    # the morphism's key x^8 holds x as often as its complete bound, and
    # its chunk values 4 and 8 come at positions 0 and 2, each memo giving
    # its own position's elements; the module's keys end in M elements,
    # some of them in its last chunk
    (mor, at_mor), (mod, at_mod) = _chunked_residuals()
    x, w = (0, 0), (4, 0)
    assert complete_bound(mor) == 8 and mor._plan.width == 4 and mor._plan.per == 3
    assert dict(at_mor[-1].entries()).keys() == {(x,) * 8, (x,) * 4 + (w,) * 4, (w,) * 8}
    first, middle, last = mor._plan.memos
    assert first == {4: (x,) * 4, 8: (x,) * 8} and not middle and last == {4: (w,) * 4, 8: (w,) * 8}
    plan = mod._plan
    assert len(plan.memos) == 3 and all(plan.memos)
    ms = set(mod.space.basis())
    last = set(plan.elems[2 * plan.per:])
    assert last <= ms
    keys = [key for got in at_mod for key, _ in got.entries()]
    assert all(key[-1] in ms for key in keys) and any(key[-1] in last for key in keys)


@pytest.mark.parametrize("edit", [
    # one memo for every chunk position: a chunk value decoded at one
    # position gives its elements at every other
    ("memo = memos[j]", "memo = memos[0]"),
    # a shift one field short of a chunk: every chunk after the first is
    # read one field low, and its value decoded at the next position
    ("c >>= step", "c >>= step - self.width"),
], ids=["memo-shared-across-chunks", "chunk-shift-one-field-short"])
def test_decoder_mutants_fail_the_chunked_check(monkeypatch, edit):
    # the structures are new, so every plan is the mutant's
    patch_mutant(monkeypatch, structures, "_Plan", edit)
    assert fails(_chunked_residuals)
    assert fails(residuals_match_naive)

# one space for every map below: l_k(x, .., x) and k_k(x, .., x, m), x = m
# the degree-0 element, land in degree k - 2, f_k and h_k in degree k - 1
_U = GradedSpace({d: 1 for d in range(-1, 4)})


def _stored(zero_of, length):
    """{length: the map of zero_of(length)'s signature that takes x, .., x
    to the element of its degree}, or {} at length 0."""
    if not length:
        return {}
    z = zero_of(length)
    return {length: SymMultiMap(length, z.shift, z.sym_space, z.codomain,
                                [(((0, 0),) * length, 1)], last_space=z.last_space)}


def test_complete_bound_is_the_closed_form_of_each_kind():
    # every stored length 0..4 of every family of each kind: a for L, s and
    # t for a morphism's source and target or a module morphism's source
    # and target modules, f, k and h for the structure's own maps.  The
    # bound read off the sums is the closed form of each relation, and the
    # plan's fields are as wide as the bound needs
    lengths = range(5)
    alg = {a: LinfAlgebra.build(_U, 4, _stored(LinfAlgebra(_U, 4, ()).op, a)) for a in lengths}
    mod = {(a, k): LinfModule.build(alg[a], _U, 4, _stored(LinfModule(alg[a], _U, 4, ()).op, k))
           for a, k in itertools.product(lengths, repeat=2)}
    cases = [(alg[a], 2 * a - 1) for a in lengths]
    cases += [(LinfMorphism.build(alg[s], alg[t], 4,
                                  _stored(LinfMorphism(alg[s], alg[t], 4, ()).comp, f)),
               max(s + f - 1, t * f)) for s, t, f in itertools.product(lengths, repeat=3)]
    cases += [(mod[a, k], max(a + k, 2 * k) - 1) for a, k in mod]
    cases += [(ModuleMorphism.build(mod[a, s], mod[a, t], 4,
                                    _stored(ModuleMorphism(mod[a, s], mod[a, t], 4, ()).comp, h)),
               max(a, s, t) + h - 1) for a, s, t, h in itertools.product(lengths, repeat=4)]
    assert len(cases) == 5 + 125 + 25 + 625
    assert {len(st.ops if hasattr(st, "ops") else st.comps) for st, _ in cases} == set(lengths)
    for st, closed in cases:
        bound = complete_bound(st)
        assert bound == max(closed, 1)
        assert structures._plan(st).width == bound.bit_length()


def test_plan_numbers_held_elements_not_the_basis():
    # at dimension 10 and 160 each plan numbers the same elements: those
    # the keys of the tables it reads hold, L's sorted and then M's, which
    # the tables key (d, ~i) and the plan gives back as (d, i)
    numbered, modules = {}, 0
    for D in (10, 160):
        for name, st in _embedded("functoriality-chain", D).structures.items():
            first_failure(st, 6)
            sums = structures._tabled(structures._sums(st))
            held = {b for _, outer, inners in sums
                    for family in (outer, *inners) for table in family for key in table for b in key}
            ms = sorted(b for b in held if b[1] < 0)
            assert st._plan.elems == tuple(sorted(held - set(ms))) + tuple((d, ~i) for d, i in ms)
            numbered.setdefault(name, set()).add(st._plan.elems)
            modules += len(ms)
    assert modules and all(len(elems) == 1 for elems in numbered.values())


def _embedded(name: str, D: int):
    """The fixture bundle with D basis elements in the lowest degree of each
    space: the new elements are in no stored key or output, so every
    relation holds as before, and only the dimension has grown."""
    doc = json.loads(serialize_bundle(fixtures.build(name)))
    for space in doc["spaces"].values():
        low = min(space["dims"], key=int)
        space["dims"][low] = max(space["dims"][low], D)
    return parse_bundle(json.dumps(doc))


def test_first_failure_and_verify_cost_follow_stored_entries(tmp_path, capsys):
    # every fixture structure, its spaces grown to dimension 10, 40 and 160
    # in one degree, through first_failure and through verify at one fixed
    # bound: the work follows the handful of stored entries
    start = time.perf_counter()
    for D in (10, 40, 160):
        for name in sorted(fixtures.FIXTURES):
            bundle = _embedded(name, D)
            assert all(first_failure(st, 6) is None for st in bundle.structures.values())
            path = tmp_path / f"{name}-{D}.json"
            path.write_text(serialize_bundle(bundle))
            assert main(["verify", str(path), "--max-arity", "6"]) == 0
    assert capsys.readouterr().err == ""
    assert time.perf_counter() - start < 1.0


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


def _summed(kernel, outer, inner, n):
    """One sum of the kernel, outer over inner, at arity n, as {key: bits}:
    the table of the map the plan builds, which checks no signature."""
    return _Plan(((kernel, outer, (inner,)),)).map(n, 0, V2, V2)._table


def test_insertion_parity_matches_split_counting():
    # with inner_i = {A: e} and outer_j = {B + e: 1} the insertion sum at
    # A u B is the number of splits of A u B whose taken part is A, mod 2;
    # A and B that share elements are counted too (x into (x, x): 3 splits).
    # e is an L element (tag 0) or an M element (tag -1, keyed (5, ~0))
    xs = ((0, 0), (0, 1), (1, 0))
    for tag, n in itertools.product((0, -1), range(1, 7)):
        e = (5, 0 ^ tag)  # stored as its degree, bits and tag, (5, 1, tag)
        for i in range(1, n + 1):
            for A in itertools.combinations_with_replacement(xs, i):
                for B in itertools.combinations_with_replacement(xs, n - i):
                    R = tuple(sorted(A + B))
                    count = sum(take(R) == A for take, _ in _splits(n, i))
                    inner = tuple({A: (5, 1, tag)} if k == i else {} for k in range(1, n + 1))
                    outer = tuple({tuple(sorted(B + (e,))): (0, 1, 0)} if k == n + 1 - i else {}
                                  for k in range(1, n + 1))
                    assert _summed(INSERTION, outer, inner, n) == ({R: 1} if count % 2 else {})


def test_set_partitions_are_counted_and_ordered():
    # the Bell numbers, in the order of the walk over every labeling of the
    # positions that keeps each label at most one above those before it
    def labelled(n):
        for labels in itertools.product(range(n), repeat=n):
            if all(labels[k] <= max(labels[:k], default=-1) + 1 for k in range(n)):
                yield tuple(tuple(p for p in range(n) if labels[p] == box)
                            for box in range(max(labels, default=-1) + 1))

    assert [sum(1 for _ in set_partitions(n)) for n in range(9)] == \
        [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(7):
        assert list(set_partitions(n)) == list(labelled(n))

def test_grouped_parity_matches_set_partition_counting():
    # one inner entry A_s at each size s of a shape, valued e0 or e0 + e1,
    # and one outer entry K over {e0, e1}: the grouped sum at each R is the
    # number of set partitions of R's positions into boxes A_s, each read at
    # one bit of its value, the bits sorting to K, mod 2.  Repeated sizes
    # and repeated k's put equal (A, k) pairs in several slots
    xs = ((0, 0), (0, 1))
    es = ((5, 0), (5, 1))
    equal_pairs = odd = 0
    for n in range(1, 7):
        partitions = list(set_partitions(n))
        # per R, how many set partitions of its positions give each box contents
        boxes_of = {R: Counter(tuple(sorted(tuple(R[p] for p in box) for box in boxes))
                               for boxes in partitions)
                    for R in itertools.combinations_with_replacement(xs, n)}
        for shape in sorted({tuple(sorted(map(len, boxes))) for boxes in partitions}):
            sizes = sorted(set(shape))
            for As in itertools.product(*(list(itertools.combinations_with_replacement(xs, s))
                                          for s in sizes)):
                for values in itertools.product((1, 3), repeat=len(sizes)):
                    reads = {A: [e for i, e in enumerate(es) if v >> i & 1]
                             for A, v in zip(As, values)}
                    inner = tuple({A: (5, v, 0) for A, v in zip(As, values) if len(A) == k}
                                  for k in range(1, n + 1))
                    for K in itertools.combinations_with_replacement(es, len(shape)):
                        outer = tuple({K: (0, 1, 0)} if r == len(shape) else {}
                                      for r in range(1, n + 1))
                        expected = {}
                        for R, contents in boxes_of.items():
                            count = sum(
                                mult * sum(tuple(sorted(ks)) == K
                                           for ks in itertools.product(*map(reads.get, boxes)))
                                for boxes, mult in contents.items()
                                if len(boxes) == len(K) and all(box in reads for box in boxes))
                            if count % 2:
                                expected[R] = 1
                        assert _summed(GROUPED, outer, inner, n) == expected
                        odd += bool(expected)
                        equal_pairs += len(set(shape)) < len(shape) and len(set(K)) < len(K)
    assert odd and equal_pairs


def _random_morphisms():
    """Small random morphisms with outer and inner arities up to 4, on
    spaces with several elements in one degree and with a missing degree.
    f_s on degree -1 inputs lands in degree -1 and l'_r on those in -2, so
    every arity can be nonzero."""
    out = []
    for seed, (V, W) in enumerate([
            (GradedSpace({-1: 3, 1: 1}), GradedSpace({-2: 1, -1: 2, 0: 1, 1: 1})),
            (GradedSpace({-1: 2, 0: 1}), GradedSpace({-2: 2, -1: 2, 0: 1})),
            (GradedSpace({-1: 2, 0: 1, 1: 1}), GradedSpace({-2: 1, -1: 1, 0: 1, 2: 1}))]):
        rng = random.Random(100 + seed)
        src, tgt = random_algebra(rng, V, 7, up_to=4), random_algebra(rng, W, 7, up_to=4)
        out.append(random_morphism(rng, src, tgt, 7, up_to=4))
    return out


def _grouped_agrees(mor, n):
    """Whether the entry-driven grouped sum equals the key walk, bit for bit."""
    l, f = _family(mor.target.ops), _family(mor.comps)
    keys = itertools.combinations_with_replacement(mor.source.space.basis(), n)
    return _summed(GROUPED, l, f, n) == dict(_grouped(l, f, n, keys))


def test_grouped_entries_matches_the_key_walk_and_the_oracle():
    nonzero = 0
    for mor in _random_morphisms():
        l, f = _family(mor.target.ops), _family(mor.comps)
        for n in range(1, 8):
            assert _grouped_agrees(mor, n)
            nonzero += bool(_summed(GROUPED, l, f, n))
        for n in range(1, 5):
            assert morphism_residual(mor, n) == naive_residual(mor, "morphism", n)
    assert nonzero > 10


@pytest.mark.parametrize("edits", [
    # no parity test: every summand counts once
    (("if cy > cap:", "if False:"), ("elif cy == co:", "else:")),
    # no prod c_p! correction: only carry-free sums count
    (("co = corr + (rn & -rn).bit_length() - 1", "co = corr"),),
], ids=["no-parity-test", "no-run-correction"])
def test_grouped_differential_catches_kernel_mutants(monkeypatch, edits):
    # on new structures, whose tables no other test has built or reads;
    # the random-shape property builds new ones too
    patch_mutant(monkeypatch, structures, "_grouped_entries", *edits)
    assert not all(_grouped_agrees(mor, n) for mor in untabled(_random_morphisms())
                   for n in range(1, 8))
    assert fails(residuals_match_naive)


def test_morphism_residual_cost_follows_stored_entries():
    # three f_1 entries, one f_3 entry and one l_2 entry of the target: the
    # right side l_2(f_1(x), f_3(y, z, w)) is nonzero at n = 4, where x_0
    # taken three times boxes three ways.  Walking every key of the source
    # took 30 s at dimension 40
    W = GradedSpace({0: 2, 2: 1})
    target = LinfAlgebra.build(W, 6, {2: SymMultiMap(2, 0, W, W, [(((0, 0), (2, 0)), 1)])})
    x0, x1, x2 = (0, 0), (0, 1), (0, 2)
    start = time.perf_counter()
    for D in (10, 40, 160):
        V = GradedSpace({0: D})
        f = LinfMorphism.build(LinfAlgebra.build(V, 6, {}), target, 6, {
            1: SymMultiMap(1, 0, V, W, [((x0,), 1), ((x1,), 2), ((x2,), 1)]),
            3: SymMultiMap(3, 2, V, W, [((x0, x0, x1), 1)])})
        assert complete_bound(f) == 6
        got = [morphism_residual(f, n).entries() for n in range(1, 7)]
        assert got == [(), (), (), (((x0, x0, x0, x1), 1), ((x0, x0, x1, x2), 1)), (), ()]
    assert time.perf_counter() - start < 0.5


@settings(derandomize=True, max_examples=50, deadline=None, phases=(Phase.generate,))
@given(_DIMS, _DIMS, _DIMS, hst.integers(1, 3), hst.integers(0, 2 ** 32 - 1))
def test_residual_matches_naive_on_random_shapes(L, M, U, up_to, seed):
    # one random structure of each kind on spaces drawn afresh, a module
    # space apart from L, operations up to arity up_to
    shapes_match_naive(L, M, U, up_to, seed)


def test_residual_matches_naive_on_spread_shapes():
    # the shapes the kernel mutants run, on the kernels as they are
    residuals_match_naive()


@pytest.mark.parametrize("seed", [0, 1])
def test_transported_algebra_is_valid_by_cancellation(seed):
    # L' = g (x) A transported along phi (tests/helpers.py): L' and phi
    # verify up to their complete bounds and the oracle agrees at n <= 4.
    # Without l'_3 the Jacobi relation fails, so L' is valid by
    # cancellation of its summands, not by degree
    transported, phi = transported_algebra(seed)
    assert not transported.op(3).is_zero and not transported.op(4).is_zero
    for st in (transported, phi):
        assert first_failure(st, complete_bound(st)) is None
        for n in range(1, 5):
            assert residual(st, n) == naive_residual(st, KIND_OF[type(st)], n)
    ops = dict(enumerate(transported.ops, start=1))
    del ops[3]
    broken = LinfAlgebra.build(transported.space, transported.max_arity, ops)
    assert first_failure(broken, complete_bound(broken)) is not None


def test_residual_and_complete_bound_refuse_a_non_structure():
    for check in (residual, lambda st, n: complete_bound(st)):
        with pytest.raises(TypeError, match="^no defining relation for object$"):
            check(object(), 1)


@settings(derandomize=True, max_examples=120, deadline=None, phases=(Phase.generate,))
@given(_DIMS, _DIMS, hst.integers(0, 3), hst.one_of(hst.integers(0, 3), hst.just(True)),
       hst.lists(hst.sampled_from(("zero", "random", "shift", "swapped")), max_size=4),
       hst.integers(0, 2 ** 32 - 1))
def test_constructor_accepts_what_build_makes(L, M, kind, max_arity, draws, seed):
    # a tuple of maps, each zero, random, one degree off, or with its
    # symmetric slots and codomain swapped: the constructor accepts it
    # exactly when max_arity is an integer >= 1 (not a bool), each map has
    # its arity's signature and none above max_arity is nonzero, and then
    # equals build on the maps up to max_arity, stores them up to the
    # highest nonzero one, returns each, and reads back from its
    # serialization, which serializes again to the same bytes
    rng = random.Random(seed)
    L, M = GradedSpace(L), GradedSpace(M)
    cls, parts, (off, sym, cod, last) = kinds_on(L, M)[kind]
    maps, valid = [], type(max_arity) is int and max_arity >= 1
    for k, draw in enumerate(draws, start=1):
        shift = k + off + (draw == "shift")
        slots = (cod, sym) if draw == "swapped" else (sym, cod)
        m = random_map(rng, k, shift, *slots, last, density=0 if draw == "zero" else 0.6)
        valid &= (shift, slots) == (k + off, (sym, cod)) and (k <= max_arity or m.is_zero)
        maps.append(m)
    try:
        st = cls(*parts, max_arity, tuple(maps))
    except ValueError:
        assert not valid
        return
    assert valid
    assert st == cls.build(*parts, max_arity, dict(enumerate(maps[:max_arity], start=1)))
    nonzero = [k for k, m in enumerate(maps, start=1) if not m.is_zero]
    assert len(getattr(st, cls._MAPS)) == max(nonzero, default=0)
    assert all(st._map(k) == m for k, m in enumerate(maps, start=1))
    bundle = bundle_of(st, L, M)
    text = serialize_bundle(bundle)
    parsed = parse_bundle(text)
    assert parsed == bundle and parsed.warnings == []
    assert serialize_bundle(parsed) == text


@pytest.mark.parametrize("kind", list(_SIGNED))
def test_constructor_refuses_a_max_arity_below_one(kind):
    # LinfAlgebra(GradedSpace({0: 1}), 0, ()) was made and serialized, and
    # the parse of its file refused it: every structure now has a
    # max_arity that reads back, whichever way it is made
    cls, parts, _ = _SIGNED[kind]
    for make in _WAYS:
        for max_arity in (0, -2, True, 2.0):
            with pytest.raises(ValueError, match="^max_arity must be an integer >= 1$"):
                make(cls, *parts, max_arity, {})
        assert make(cls, *parts, 1, {}).max_arity == 1


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
