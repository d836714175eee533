import random
from collections import Counter

import pytest

from linfty import fixtures, oracle
from linfty.gfa import GradedSpace, flip_bit
from linfty.oracle import LabeledOperator, lemma4_equal, lemma4_lhs, lemma4_rhs, naive_residual
from linfty.structures import LinfModule, complete_bound, residual
from helpers import KIND_OF, random_algebra, random_modhom, random_module, random_morphism


def test_labeled_operator_validation():
    LabeledOperator(((1, 3), (2,)), 1)
    with pytest.raises(ValueError):
        LabeledOperator(((3, 1),), 0)  # contents not increasing
    with pytest.raises(ValueError):
        LabeledOperator(((1, 2), (2, 3)), 0)  # overlapping blocks
    with pytest.raises(ValueError):
        LabeledOperator(((1,),), 2)  # module slot out of range


def test_slot_sequence_marks_module():
    op = LabeledOperator(((2,), (1, 3)), 1)
    assert op.slot_sequence() == ((2,), "m", (1, 3))


def test_lemma4_n2_exact_content():
    # hand expansion at n = 2: the module element is either before or after
    # the single singleton box, once each, on both sides
    expected = Counter({
        LabeledOperator(((1,),), 0): 1,
        LabeledOperator(((1,),), 1): 1,
    })
    assert lemma4_lhs(2) == expected
    assert lemma4_rhs(2) == expected


def test_lemma4_summand_count_n3():
    # direct enumeration: p=1 contributes 2 summands, p=2 contributes 2,
    # p=3 contributes 2
    assert sum(lemma4_lhs(3).values()) == 6
    assert sum(lemma4_rhs(3).values()) == 6


def test_lemma4_multiset_equality():
    for n in range(2, 6):
        assert lemma4_equal(n)


def test_lemma4_blocks_partition_the_inputs():
    for n in (3, 4):
        for side in (lemma4_lhs(n), lemma4_rhs(n)):
            for op in side:
                values = [v for b in op.blocks for v in b]
                assert sorted(values) == list(range(1, n))


def test_lemma4_rejects_small_n():
    with pytest.raises(ValueError):
        lemma4_lhs(1)


def test_naive_residual_matches_optimized_on_random_structures():
    # a module space sharing the algebra's 2-dimensional degree, and a module
    # morphism into a module on the algebra's own space
    rng = random.Random(42)
    V = GradedSpace({0: 2, 1: 1})
    W = GradedSpace({0: 1, 1: 1})
    alg = random_algebra(rng, V, 4)
    mor = random_morphism(rng, alg, random_algebra(rng, W, 4), 4)
    mod = random_module(rng, alg, W, 4)
    hom = random_modhom(rng, mod, random_module(rng, alg, V, 4), 4)
    shared = (alg, mor, mod, hom)
    # module spaces with degrees the algebra lacks (-2, 2) and lacking some
    # of its degrees (-1, 1), a module morphism between different module
    # spaces, and operations up to arity 4 checked up to arity 5; this seed
    # gives nonzero residuals of every kind at arities 3 to 5
    rng = random.Random(3)
    V = GradedSpace({-1: 1, 0: 1, 1: 1})
    W = GradedSpace({-2: 1, 0: 1})
    U = GradedSpace({-1: 1, 2: 1})
    alg = random_algebra(rng, V, 5, up_to=4)
    mor = random_morphism(rng, alg, random_algebra(rng, GradedSpace({-1: 1, 0: 2}), 5, up_to=4), 5,
                          up_to=4)
    mod = random_module(rng, alg, W, 5, up_to=4)
    hom = random_modhom(rng, mod, random_module(rng, alg, U, 5, up_to=4), 5, up_to=4)
    gapped = (alg, mor, mod, hom)
    for st in shared + gapped:
        for n in range(1, 6):
            assert naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)


def test_naive_residual_matches_on_repeated_keys():
    # one basis element per degree, so keys repeat elements heavily and the
    # fast path takes A out of A u B in a count of ways that is even for
    # some shared elements and odd for others
    rng = random.Random(5)
    V = GradedSpace({-1: 1, 0: 1, 1: 1})
    alg = random_algebra(rng, V, 5, up_to=4)
    mor = random_morphism(rng, alg, random_algebra(rng, V, 5, up_to=4), 5, up_to=4)
    mod = random_module(rng, alg, GradedSpace({-1: 1, 0: 1}), 5, up_to=4)
    hom = random_modhom(rng, mod, random_module(rng, alg, GradedSpace({0: 1, 1: 1}), 5, up_to=4),
                        5, up_to=4)
    for st in (alg, mor, mod, hom):
        for n in range(1, 6):
            assert naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)


def test_naive_residual_matches_above_max_arity():
    # operations above max_arity 2 are fresh zero maps on every op(k) call,
    # so the oracle's per-call tables meet many short-lived maps
    rng = random.Random(11)
    alg = random_algebra(rng, GradedSpace({-1: 1, 0: 2, 1: 1}), 2, up_to=2)
    mod = random_module(rng, alg, GradedSpace({0: 1, 1: 2}), 2, up_to=2)
    nonzero = False
    for st in (alg, mod):
        for n in range(1, 6):
            slow = naive_residual(st, KIND_OF[type(st)], n)
            assert slow == residual(st, n)
            nonzero = nonzero or not slow.is_zero
    assert nonzero


def test_complete_bound_is_sound():
    # invalid structures, nonzero at their bound, are zero at the two arities
    # above it, which first_failure no longer computes
    rng = random.Random(4)
    V, W = GradedSpace({-1: 1, 0: 2}), GradedSpace({-2: 1, -1: 1, 0: 1})
    alg = random_algebra(rng, V, 6, up_to=2)
    mor = random_morphism(rng, alg, random_algebra(rng, W, 6, up_to=2), 6, up_to=2)
    mod = random_module(rng, alg, W, 6, up_to=2)
    hom = random_modhom(rng, mod, random_module(rng, alg, V, 6, up_to=2), 6, up_to=2)
    for st in (alg, mor, mod, hom):
        bound = complete_bound(st)
        assert [naive_residual(st, KIND_OF[type(st)], n).is_zero
                for n in (bound, bound + 1, bound + 2)] == [False, True, True]


def test_naive_residual_raises_when_orderings_disagree(monkeypatch):
    # a term that depends on the order of its inputs must be caught by the
    # comparison of the orderings of each tuple
    term = oracle._inserted
    monkeypatch.setattr(oracle, "_inserted",
                        lambda summands, key: term(summands, key) ^ (key[0] < key[1]))
    alg = fixtures.build("heisenberg-adjoint").structures["heisenberg"]
    with pytest.raises(AssertionError, match="not symmetric"):
        naive_residual(alg, "jacobi", 2)


def test_naive_residual_matches_on_fixtures():
    for name in ("heisenberg-adjoint", "abelian-i2"):
        b = fixtures.build(name)
        for st in b.structures.values():
            for n in range(1, 5):
                assert naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)


def test_naive_and_optimized_agree_on_mutant():
    b = fixtures.build("abelian-i2")
    mod = b.structures["M2"]
    mutated = LinfModule.build(
        mod.algebra, mod.space, mod.max_arity,
        {1: mod.op(1), 2: flip_bit(mod.op(2), ((1, 0), (0, 0)), 0)})
    hit = False
    for n in range(1, 5):
        fast = residual(mutated, n)
        slow = naive_residual(mutated, "module", n)
        assert fast == slow
        hit = hit or not fast.is_zero
    assert hit  # the flip really is detected


def test_naive_residual_kind_checks():
    b = fixtures.build("abelian-i2")
    with pytest.raises(ValueError):
        naive_residual(b.structures["M2"], "nope", 2)
    with pytest.raises(TypeError):
        naive_residual(b.structures["M2"], "jacobi", 2)
