"""
Independent brute-force verifiers.  They share no code with the fast path:
from ``structures.py`` they import only the four structure classes.  From
``perm.py`` they read the unshuffle and composition enumerators as 0-based
index tuples; those are not the fast path, which imports nothing from perm.

1. A combinatorial oracle for the two-presentation unshuffle identity: both
   displayed sums are expanded into multisets of *labeled operators* (the
   slot rearrangement each summand performs, before any multilinear map is
   substituted), and compared as multisets.  Working at the operator level is
   strictly stronger than value-level equality, where F2 cancellations could
   mask a mismatch.

2. A naive reference evaluator for every defining relation: evaluated on
   every ordered basis tuple directly, every summand of every sum expanded
   separately with its own canonicalization and table lookup, then folded
   onto canonical tuples (raising if two orderings of the same tuple ever
   disagree).  Used for differential testing against the optimized
   residuals.  What keeps it affordable changes none of that: each map's
   table is built once per call, permutations are index tuples, a summand
   holding a zero map (inner or outer) is never built, since it is
   identically zero, and a summand whose inner value is zero skips its
   outer lookups, which would all read zero.  Every ordered basis tuple is
   still walked, canonicalized and compared with its other orderings, even
   when no summand is left.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .gfa import Basis, SymMultiMap
from .perm import _anchored, _compositions, _indices, _primed
from .structures import LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism

__all__ = [
    "LabeledOperator",
    "lemma4_lhs",
    "lemma4_rhs",
    "lemma4_equal",
    "naive_residual",
]

_MODULE = "m"  # marker for the module slot inside layered sequences


@dataclass(frozen=True)
class LabeledOperator:
    """A slot rearrangement: original input positions grouped into an ordered
    sequence of boxes with the module element between boxes module_index and
    module_index + 1.  Two composites of permutation layers are equal as
    tensor-slot rearrangements exactly when these data agree.
    """

    blocks: Tuple[Tuple[int, ...], ...]
    module_index: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if any(a >= b for a, b in zip(block, block[1:])):
                raise ValueError(f"block contents not increasing: {block}")
            if seen & set(block):
                raise ValueError("blocks are not disjoint")
            seen.update(block)
        if not 0 <= self.module_index <= len(self.blocks):
            raise ValueError("module slot out of range")

    def slot_sequence(self) -> Tuple[object, ...]:
        """The output slots in order, with the module slot marked."""
        items = list(self.blocks)
        items.insert(self.module_index, _MODULE)
        return tuple(items)


@functools.lru_cache(maxsize=256)
def _primed_boxes(comp: Tuple[int, ...]) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The primed unshuffles of a nondecreasing composition as 0-based index
    tuples, each cut into its boxes."""
    cuts = tuple(itertools.accumulate(comp, initial=0))
    return tuple(tuple(idx[a:b] for a, b in zip(cuts, cuts[1:])) for idx in _primed(comp))


def lemma4_lhs(n: int) -> Counter:
    """Summands of the first presentation: anchor a p-unshuffle at
    sigma(p) = n, then unshuffle the two sides into primed families of boxes
    with the module element in between.  One of the two box groups may be
    empty, but not both."""
    if n < 2:
        raise ValueError("needs n >= 2")
    ops: Counter = Counter()
    for p in range(1, n + 1):
        for idx in _anchored((p, n - p), p, n):
            left, right = idx[:p - 1], idx[p:]
            for comp_l in _compositions(p - 1):
                for boxes in _primed_boxes(comp_l):
                    blocks_l = tuple(tuple(left[k] + 1 for k in box) for box in boxes)
                    for comp_r in _compositions(n - p):
                        if not comp_l and not comp_r:
                            continue  # r = s = 0 disallowed
                        for boxes_r in _primed_boxes(comp_r):
                            blocks_r = tuple(tuple(right[k] + 1 for k in box) for box in boxes_r)
                            ops[LabeledOperator(blocks_l + blocks_r, len(blocks_l))] += 1
    return ops


def lemma4_rhs(n: int) -> Counter:
    """Summands of the second presentation: a primed unshuffle of the n-1
    non-module inputs into alpha boxes, then a two-block unshuffle of the
    alpha + 1 slots placing the module slot right after the first group."""
    if n < 2:
        raise ValueError("needs n >= 2")
    ops: Counter = Counter()
    for comp in _compositions(n - 1):
        alpha = len(comp)
        for boxes in _primed_boxes(comp):
            slots = tuple(tuple(k + 1 for k in box) for box in boxes) + (_MODULE,)
            for r in range(alpha + 1):
                for idx in _anchored((r + 1, alpha - r), r + 1, alpha + 1):
                    blocks = tuple(slots[k] for k in idx if slots[k] is not _MODULE)
                    ops[LabeledOperator(blocks, r)] += 1
    return ops


def lemma4_equal(n: int) -> bool:
    return lemma4_lhs(n) == lemma4_rhs(n)


# ---------------------------------------------------------------------------
# naive reference evaluation
# ---------------------------------------------------------------------------
#
# Every argument is a pool of basis elements: a basis input is a pool of one,
# a computed value the pool of its set bits, whose degree comes from the
# inputs and the shift.  A map is evaluated by xoring one canonical lookup per
# combination of its pools.  Permutations are perm's 0-based image tuples:
# tuple(xs[k] for k in idx) is xs rearranged by the permutation.

def _rotation(n: int, p: int) -> Tuple[int, ...]:
    """Slot 0 moved past the other n - p slots to the end."""
    return tuple(range(1, n - p + 1)) + (0,)


class _Table:
    """A map's lookup table, built once per naive_residual call."""

    __slots__ = ("map", "get", "n_sym", "shift")

    def __init__(self, m: SymMultiMap):
        # holding m keeps its id from being reused while the table is cached
        self.map = m
        self.get = dict(m.entries()).get
        self.n_sym = m.arity - 1 if m.last_space is not None else m.arity
        self.shift = m.shift


def _tables():
    """A lookup from maps to their tables, keyed by id.  A zero map has no
    table: every summand holding it is zero, so the caller drops it."""
    cache: Dict[int, _Table] = {}

    def table(m: SymMultiMap) -> Optional[_Table]:
        if m.is_zero:
            return None
        t = cache.get(id(m))
        if t is None:
            t = cache[id(m)] = _Table(m)
        return t

    return table


def _at(t: _Table, xs: Tuple[Basis, ...]) -> int:
    """The map on basis elements: one canonical lookup."""
    return t.get(tuple(sorted(xs[:t.n_sym])) + xs[t.n_sym:], 0)


def _pool(t: _Table, xs: Tuple[Basis, ...], bits: int) -> Tuple[Basis, ...]:
    """The basis elements of the value bits of t at the basis inputs xs."""
    degree = sum(b[0] for b in xs) + t.shift
    pool = []
    while bits:
        low = bits & -bits
        pool.append((degree, low.bit_length() - 1))
        bits ^= low
    return tuple(pool)


def _eval(t: _Table, pools: Sequence[Tuple[Basis, ...]]) -> int:
    """Direct multilinear expansion with its own canonicalization and lookup."""
    acc, k = 0, t.n_sym
    for combo in itertools.product(*pools):
        acc ^= t.get(tuple(sorted(combo[:k])) + combo[k:], 0)
    return acc


# Each relation is a list of insertion summands and a list of grouped
# summands, built once per naive_residual call.  An insertion summand
# (inner, outer, left, right, order) is outer(inner(key[left]), key[right]),
# its slots rearranged by order if given.  A grouped summand
# (outer, ((inner_1, box_1), ...)) is
# outer(inner_1(key[box_1]), ..., inner_r(key[box_r])).

def _inserted(summands: list, key: Tuple[Basis, ...]) -> int:
    bits = 0
    for inner, outer, left, right, order in summands:
        xs = tuple([key[k] for k in left])
        value = _at(inner, xs)
        if value:
            pools = (_pool(inner, xs, value),) + tuple((key[k],) for k in right)
            if order is not None:
                pools = tuple(pools[k] for k in order)
            bits ^= _eval(outer, pools)
    return bits


def _grouped(summands: list, key: Tuple[Basis, ...]) -> int:
    bits = 0
    for outer, boxes in summands:
        pools = []
        for inner, box in boxes:
            xs = tuple([key[k] for k in box])
            value = _at(inner, xs)
            if not value:
                break
            pools.append(_pool(inner, xs, value))
        else:
            bits ^= _eval(outer, pools)
    return bits


def _naive_jacobi(alg: LinfAlgebra, n: int, table) -> Tuple[list, list]:
    summands = []
    for i in range(1, n + 1):
        inner, outer = table(alg.op(i)), table(alg.op(n + 1 - i))
        if inner is None or outer is None:
            continue
        summands += [(inner, outer, idx[:i], idx[i:], None) for idx in _indices((i, n - i))]
    return summands, []


def _naive_morphism(mor: LinfMorphism, n: int, table) -> Tuple[list, list]:
    left = []
    for k in range(1, n + 1):
        inner, outer = table(mor.source.op(k)), table(mor.comp(n + 1 - k))
        if inner is None or outer is None:
            continue
        left += [(inner, outer, idx[:k], idx[k:], None) for idx in _indices((k, n - k))]
    right = []
    for comp in _compositions(n):
        outer = table(mor.target.op(len(comp)))
        inners = [table(mor.comp(size)) for size in comp]
        if outer is None or None in inners:
            continue
        right += [(outer, tuple(zip(inners, boxes))) for boxes in _primed_boxes(comp)]
    return left, right


def _naive_module(mod: LinfModule, n: int, table) -> Tuple[list, list]:
    summands = []
    for p in range(1, n):
        inner, outer = table(mod.algebra.op(p)), table(mod.op(n + 1 - p))
        if inner is None or outer is None:
            continue
        summands += [(inner, outer, idx[:p], idx[p:], None)
                     for idx in _anchored((p, n - p), n, n)]
    for p in range(1, n + 1):
        inner, outer = table(mod.op(p)), table(mod.op(n + 1 - p))
        if inner is None or outer is None:
            continue
        rot = _rotation(n, p)
        summands += [(inner, outer, idx[:p], idx[p:], rot)
                     for idx in _anchored((p, n - p), p, n)]
    return summands, []


def _naive_modhom(h: ModuleMorphism, n: int, table) -> Tuple[list, list]:
    alg = h.source.algebra
    summands = []
    for i in range(1, n):
        inner, outer = table(alg.op(i)), table(h.comp(n + 1 - i))
        if inner is None or outer is None:
            continue
        summands += [(inner, outer, idx[:i], idx[i:], None)
                     for idx in _anchored((i, n - i), n, n)]
    for i in range(1, n + 1):
        inner, outer = table(h.source.op(i)), table(h.comp(n + 1 - i))
        if inner is None or outer is None:
            continue
        rot = _rotation(n, i)
        summands += [(inner, outer, idx[:i], idx[i:], rot)
                     for idx in _anchored((i, n - i), i, n)]
    # h.target.op(r)(ys[:n - s], h.comp(s)(ys[n - s:], mb)) for the unshuffles
    # ys of the n - 1 algebra inputs: the inner value goes to the last slot
    for s in range(1, n + 1):
        inner, outer = table(h.comp(s)), table(h.target.op(n + 1 - s))
        if inner is None or outer is None:
            continue
        rot = _rotation(n, s)
        summands += [(inner, outer, idx[n - s:] + (n - 1,), idx[:n - s], rot)
                     for idx in _indices((n - s, s - 1))]
    return summands, []


_KINDS = {
    "jacobi": (LinfAlgebra, _naive_jacobi),
    "morphism": (LinfMorphism, _naive_morphism),
    "module": (LinfModule, _naive_module),
    "module_morphism": (ModuleMorphism, _naive_modhom),
}


def naive_residual(structure, kind: str, n: int) -> SymMultiMap:
    """The relation residual computed the slow straight-line way, on every
    ordered basis tuple.  Bit-identical to the optimized residual by design;
    any disagreement between orderings of one tuple raises."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    try:
        expected_type, summands = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown relation kind {kind!r}") from None
    if not isinstance(structure, expected_type):
        raise TypeError(f"{kind} relation needs a {expected_type.__name__}")

    if kind == "jacobi":
        space, cod, last = structure.space, structure.space, None
        sym_n, shift = n, n - 3
        tuples = itertools.product(structure.space.basis(), repeat=n)
    elif kind == "morphism":
        space, cod, last = structure.source.space, structure.target.space, None
        sym_n, shift = n, n - 2
        tuples = itertools.product(space.basis(), repeat=n)
    elif kind == "module":
        space, cod, last = structure.algebra.space, structure.space, structure.space
        sym_n, shift = n - 1, n - 3
        tuples = (xs + (mb,)
                  for xs in itertools.product(space.basis(), repeat=n - 1)
                  for mb in structure.space.basis())
    else:
        space = structure.source.algebra.space
        cod, last = structure.target.space, structure.source.space
        sym_n, shift = n - 1, n - 2
        tuples = (xs + (mb,)
                  for xs in itertools.product(space.basis(), repeat=n - 1)
                  for mb in structure.source.space.basis())

    inserted, grouped = summands(structure, n, _tables())
    seen: Dict[tuple, int] = {}
    for tup in tuples:
        bits = _inserted(inserted, tup) ^ _grouped(grouped, tup)
        ckey = tuple(sorted(tup[:sym_n])) + tuple(tup[sym_n:])
        if ckey in seen:
            if seen[ckey] != bits:
                raise AssertionError(
                    f"naive evaluation not symmetric at {tup}: {bits} vs {seen[ckey]}"
                )
        else:
            seen[ckey] = bits
    entries = [(k, v) for k, v in seen.items() if v]
    return SymMultiMap(n, shift, space, cod, entries, last_space=last)
