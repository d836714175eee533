import random
from collections import Counter

import pytest

from linfty import fixtures, oracle, structures
from linfty.gfa import GradedSpace, flip_bit
from linfty.oracle import LabeledOperator, lemma4_equal, lemma4_lhs, lemma4_rhs, naive_residual
from linfty.structures import (LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism,
                               complete_bound, residual)
from helpers import (KIND_OF, fails, kernel_made_maps, patch_mutant, random_algebra,
                     random_map, random_modhom, random_module, random_morphism,
                     residuals_match_naive, seeded_structures, transported_algebra,
                     unchecked_faults, untabled, wide_arity_morphism)


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
    for st in seeded_structures():
        for n in range(1, 6):
            assert naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)


def _agrees(st, n):
    """Whether naive_residual equals residual; a disagreement between
    orderings of one tuple counts as disagreeing."""
    try:
        return naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)
    except AssertionError:
        return False


def test_naive_residual_catches_a_dropped_slot_rotation(monkeypatch):
    # the rotated families feed a module value into the module slot; with
    # the rotation left out it lands in an algebra slot, and every random
    # module and module morphism must expose that
    monkeypatch.setattr(oracle, "_rotation", lambda n, p: tuple(range(n - p + 1)))
    modules = [st for st in seeded_structures()
               if isinstance(st, (LinfModule, ModuleMorphism))]
    assert len(modules) == 4
    for st in modules:
        assert not all(_agrees(st, n) for n in range(1, 6))


@pytest.mark.parametrize("old,new", [
    ("x = (d, ~i)", "x = (d, i)"),
    ("bits, -1)", "bits, 0)"),
], ids=["module-input-untagged", "module-outputs-tagged-as-L"])
def test_naive_residual_catches_an_untagged_embedding(monkeypatch, old, new):
    # in L x| M a module element (d, i) is keyed (d, ~i) and an M-valued
    # output is tagged -1, so it meets only that key.  Keyed as (d, i), the
    # module input collides with L's element (d, i) and M-valued outputs
    # find no key; tagged 0, an M-valued output fills L slots.  Each mutant
    # of the table builder returns a wrong residual on the seeded structures
    # without raising, besides raising on others, and fails the random-shape
    # property.  The structures are new, so every table is the mutant's,
    # and it dies with them
    patch_mutant(monkeypatch, structures, "_kernel_table", (old, new))
    outcomes = Counter()
    for st in untabled(seeded_structures()):
        for n in range(1, 6):
            try:
                outcomes[naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)] += 1
            except (StopIteration, ValueError):  # a key with no or two M elements
                outcomes["raised"] += 1
    assert outcomes[False] and outcomes[True]
    assert fails(residuals_match_naive)



@pytest.mark.parametrize("name, edits, on_shapes", [
    # a split counted only when A and B share no element: misses e.g. x
    # inserted into (x, x), C(3, 1) = 3 splits
    ("_insertion", (("if not a & b:", "if not set(plan.decode(a)) & set(plan.decode(b)):"),), True),
    # every summand counted once, with no parity test
    ("_insertion", (("if not a & b:", "if True:"), ("c = a | b", "c = a + b")), True),
    # a numbering without the elements that open a key
    ("_numbering", (("for b in key}", "for b in key[1:]}"),), True),
    # fields one bit too narrow for the complete bound 8 (7 needs 3 bits).
    # A narrow field shows only on a key that holds one element as many
    # times as a power-of-two bound, and at bound 1 its fields have no bits,
    # so the plan's chunk of fields divides by zero: it is not run on the
    # random shapes
    ("_Plan", (("_reach(sums).bit_length()", "(_reach(sums) - 1).bit_length()"),), False),
], ids=["disjoint-keys-only", "every-summand", "numbering-misses-elements", "narrow-fields"])
def test_naive_residual_catches_kernel_plan_mutants(monkeypatch, name, edits, on_shapes):
    # each mutant makes residual differ from naive_residual, or raise, on
    # the seeded structures or at n = 8 on a morphism whose complete bound
    # is 8, and fails the random-shape property.  The structures are new,
    # so every plan is the mutant's, and it dies with them
    patch_mutant(monkeypatch, structures, name, *edits)
    wide = wide_arity_morphism()
    cases = [(st, n) for st in untabled(seeded_structures() + (wide,)) for n in range(1, 6)]
    outcomes = Counter()
    for st, n in cases + [(wide, 8)]:
        try:
            outcomes[naive_residual(st, KIND_OF[type(st)], n) == residual(st, n)] += 1
        except (KeyError, IndexError, ValueError):  # an element without a field, a bad key
            outcomes["raised"] += 1
    assert outcomes[False] or outcomes["raised"]
    assert not on_shapes or fails(residuals_match_naive)


@pytest.mark.parametrize("name, edit, differential", [
    # M's elements numbered before L's, so a decoded key opens with its
    # module element, where the constructor would keep it last
    ("_numbering", ("key=lambda b: (b[1] < 0, b)", "key=lambda b: (b[1] >= 0, b)"), True),
    # the keys whose summands cancel kept with zero outputs
    ("_Plan", ("for c, bits in acc.items() if bits]", "for c, bits in acc.items()]"), False),
], ids=["module-element-first", "zero-outputs-kept"])
def test_unchecked_map_mutants_fail_the_guard(monkeypatch, name, edit, differential):
    # the kernels' maps skip the constructor's checks: each mutant builds
    # maps the constructor would rebuild differently or reject, on the
    # fixtures and the seeded structures, and one whose keys are not
    # canonical also differs from naive_residual; both fail the random-shape
    # property.  The structures are new, so every plan is the mutant's
    patch_mutant(monkeypatch, structures, name, edit)
    groups = [list(fixtures.build(fixture).structures.values()) for fixture in fixtures.FIXTURES]
    assert any(unchecked_faults(kernel_made_maps(untabled(group)))
               for group in groups + [seeded_structures()])
    if differential:
        assert not all(_agrees(st, n) for st in untabled(seeded_structures()) for n in range(1, 6))
    assert fails(residuals_match_naive)


def _gapped_map(rng, arity, shift, sym, cod, last=None):
    """A random map with a nonzero value, so zero maps fall only at the
    arities left out."""
    while True:
        m = random_map(rng, arity, shift, sym, cod, last)
        if not m.is_zero:
            return m


@pytest.mark.parametrize("arities", [(1, 3), (2, 4)])
def test_naive_residual_matches_on_gapped_operations(arities):
    # operations at alternate arities only, so every sum mixes summands
    # holding a zero map with summands holding none, at inner and outer
    # arities up to 4; the module morphism goes between different spaces
    rng = random.Random(7)
    V = GradedSpace({-1: 1, 0: 2, 1: 1})
    W, U = GradedSpace({-1: 1, 0: 1}), GradedSpace({0: 1, 1: 1})
    alg = LinfAlgebra.build(V, 5, {k: _gapped_map(rng, k, k - 2, V, V) for k in arities})
    target = LinfAlgebra.build(W, 5, {k: _gapped_map(rng, k, k - 2, W, W) for k in arities})
    mor = LinfMorphism.build(alg, target, 5,
                             {k: _gapped_map(rng, k, k - 1, V, W) for k in arities})
    mod = LinfModule.build(alg, W, 5, {k: _gapped_map(rng, k, k - 2, V, W, W) for k in arities})
    other = LinfModule.build(alg, U, 5, {k: _gapped_map(rng, k, k - 2, V, U, U) for k in arities})
    hom = ModuleMorphism.build(mod, other, 5,
                               {k: _gapped_map(rng, k, k - 1, V, U, W) for k in arities})
    nonzero = set()
    for st in (alg, mor, mod, hom):
        for n in range(1, 6):
            slow = naive_residual(st, KIND_OF[type(st)], n)
            assert slow == residual(st, n)
            if not slow.is_zero:
                nonzero.add(type(st))
    assert nonzero == {LinfAlgebra, LinfMorphism, LinfModule, ModuleMorphism}


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
    # L', valid by cancellation, has a summand at its bound 7 and none
    # above it in the oracle's expansion (its residuals there would walk
    # 8^n ordered tuples)
    transported, _ = transported_algebra(0)
    bound = complete_bound(transported)
    assert [bool(oracle._naive_jacobi(transported, n, oracle._tables())[0])
            for n in (bound, bound + 1, bound + 2)] == [True, False, False]


def test_naive_residual_raises_when_orderings_disagree(monkeypatch):
    # a term that depends on the order of its inputs must be caught by the
    # comparison of the orderings of each tuple
    term = oracle._inserted
    monkeypatch.setattr(oracle, "_inserted",
                        lambda summands, key: term(summands, key) ^ (key[0] < key[1]))
    alg = fixtures.build("heisenberg-adjoint").structures["heisenberg"]
    with pytest.raises(AssertionError, match="not symmetric"):
        naive_residual(alg, "jacobi", 2)


def _counted(monkeypatch, name):
    """Count the calls of oracle's function name."""
    calls = []
    f = getattr(oracle, name)

    def counted(*args):
        calls.append(None)
        return f(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_naive_residual_walks_every_tuple_but_skips_zero_summands(monkeypatch):
    # the Heisenberg bracket is l_2 alone, so at n = 5 every Jacobi summand
    # holds a zero map: none is evaluated, yet each of the 3^5 ordered
    # tuples is still walked and compared with its other orderings
    alg = fixtures.build("heisenberg-adjoint").structures["heisenberg"]
    evals, inserted = _counted(monkeypatch, "_eval"), _counted(monkeypatch, "_inserted")
    assert naive_residual(alg, "jacobi", 5).is_zero
    assert (len(evals), len(inserted)) == (0, 3 ** 5)
    # at n = 3 the summands l_2(l_2(..), ..) stay and are evaluated
    assert naive_residual(alg, "jacobi", 3).is_zero
    assert evals


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("bundle, name", [
    ("heisenberg-adjoint", "heisenberg"), ("heisenberg-adjoint", "inclusion"),
    ("heisenberg-adjoint", "adjoint"), ("functoriality-chain", "f")])
def test_naive_residual_rejects_arity_below_one(bundle, name, n):
    st = fixtures.build(bundle).structures[name]
    with pytest.raises(ValueError, match="arity must be >= 1"):
        naive_residual(st, KIND_OF[type(st)], n)


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
