"""
The four structure kinds over F2 and their defining relations as executable
checkers.

An algebra on a graded space V is a family of symmetric multilinear brackets
l_k of arity k and degree k-2 (k <= a truncation arity N) subject to the
generalized Jacobi identity; a morphism is a family f_n: source -> target of
degree n-1 intertwining the brackets; a module over an algebra L is a family
k_n on n-1 algebra slots plus one module slot, degree n-2; a module morphism
is a family h_n of degree n-1.  Each relation is computed as a *residual*:
the arity-n multilinear map equal to the (F2) sum of both sides, which is the
zero map exactly when the relation holds at arity n.  Residuals are returned
as maps rather than booleans so that failures carry a witness basis tuple.

Every sum is one of two kernels.  The insertion sum
sum_{i+j=n+1} sum_{S(i,n-i)} outer_j(inner_i(..), ..) pairs stored entries,
not keys: inner_i(A) meets outer_j(B + e) for each basis element e of its
value and lands on A u B prod_b C(m_A(b) + m_B(b), m_A(b)) times (m_X(b) the
multiplicity of b in X), an odd count exactly when m_A(b) & m_B(b) == 0 for
every b (Kummer).  The grouped sum over set partitions of the inputs of
outer_r(inner(B_1), .., inner(B_r)), such as the morphism relation's
l'_r(f, .., f), does too (_grouped_entries): an outer entry K = (k_1..k_r)
meets inner entries A_t whose values hold k_t and lands on A_1 u .. u A_r a
multinomial number of times (the coalgebra map e^f of Lada-Markl, below),
odd by a rule from Legendre's formula.  So every residual and compose costs
what their stored entries cost; the pullback alone still walks keys.

Modules reduce to algebras (Lada-Markl, "Strongly homotopy Lie algebras",
Comm. Algebra 1995): an L-module M is the algebra L x| M (l on L-inputs, k
on inputs with one M element, zero otherwise) and a module morphism h the
algebra morphism id_L + h.  The module relations, compose and the pullback along I (through
I + id_M) are the one-M-input parts of those sums, with no filter: each
outer key holds one M element, which an M-valued inner output alone can
fill.  id_L is strict, so a partition through id_L + h is an s-subset boxed
by h_s: the module morphism relation and compose are insertion sums.
Embedding convention, private to this module: M's element (d, i) is keyed
(d, ~i), an index no L element uses, and each table value carries a tag, 0
for L-valued and -1 for M-valued maps, its set bit t standing for
(d, t ^ tag); so no key or output depends on L's dimension.  The kernels'
keys come back in module-slot-last form (see below).

The kernels read each map as its kernel table, key -> (out degree, bits,
tag) in that convention (_kernel_table; the map's module slot decides the
form).  A map never changes once built, so its table is built on the
map's first use by a kernel, kept on the map (SymMultiMap._kernel) and
read by every later residual, first_failure arity, compose and pullback;
a new map (a sum, flip_bit, a parsed or restricted map) starts without
one.  The table is no part of the map's value: equality, hashing, repr,
entries() and serialization never see it, and the oracle does not use it.

A structure's relation is stated once, as one or two sums of its families
of maps (_sums).  Everything else is read off them: the arity the sums can reach
(_reach) is complete_bound and sizes the plan's fields, and a residual
has the signature of the structure's own map of its arity, one degree
lower.  The kernels read the sums through the structure's kernel plan
(_Plan), built on its first residual and kept in its _plan field.  The
plan holds the numbering of the elements the tables' keys hold (L's, then
M's), in bit fields wide enough for every arity the sums reach; each inner
table's codes and output elements; each outer table's index under
the elements its keys hold; the l + k family of a module or module
morphism, read side by side; and a morphism's grouped-sum inner index.  So
each table is encoded and indexed once per structure, and each residual
and first_failure arity runs only the pair loop and _Plan.map, whose keys
need no check by the map constructor: the structure's constructor has
checked every map the plan reads.  _Plan.map decodes each code a
chunk of fields at a time, through a memo per chunk position that the
plan fills as chunk values first occur, so a key costs one lookup per
nonzero chunk, not a step per field up to its highest element.  Nothing
in a structure or its maps changes once built, so its plan never goes
stale; a structure built anew (parsed, built from maps, restricted or
composed) starts without one, so building one costs no encoding.
compose builds one plan per call.  Like the tables, the plan, its memos
included, is plain data outside the structure's value: equality,
hashing, repr and serialization skip it.

Every structure, however made, passes one checked constructor (_Structure)
and stores its maps only up to its highest nonzero arity; max_arity is the
truncation number alone.  Every loop over arities runs to the stored lengths.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gfa import Basis, Elem, GradedSpace, Key, SymMultiMap, set_bits, zero_map

__all__ = [
    "LinfAlgebra",
    "LinfMorphism",
    "LinfModule",
    "ModuleMorphism",
    "jacobi_residual",
    "morphism_residual",
    "module_residual",
    "modhom_residual",
    "residual",
    "first_failure",
    "complete_bound",
    "identity_morphism",
    "compose",
    "pullback",
]


@dataclass(frozen=True)
class _Structure:
    """A structure of any kind: its parts (fields _PARTS), max_arity, then
    its maps (field _MAPS), arity k at index k - 1.  The constructor
    refuses a max_arity that is not an int >= 1, parts that make no
    structure and a map without the signature _signature states for it or
    nonzero above max_arity, reads None as a zero map and drops zero maps
    from the top; build and the accessor op or comp read the maps."""

    _plan: Optional["_Plan"] = field(default=None, init=False, compare=False, repr=False)
    # _signature on the parts, for the accessor's zero maps
    _sig: tuple = field(default=(), init=False, compare=False, repr=False)
    _MAPS = "ops"

    def __post_init__(self) -> None:
        if type(self.max_arity) is not int or self.max_arity < 1:  # bool is an int subclass
            raise ValueError("max_arity must be an integer >= 1")
        sig = self._signature(*map(self.__getattribute__, self._PARTS))
        object.__setattr__(self, "_sig", sig)
        shift, sym, cod, last = sig
        maps = list(getattr(self, self._MAPS))
        for k, m in enumerate(maps, start=1):
            if m is None:
                maps[k - 1] = zero_map(k, k + shift, sym, cod, last)
            elif not isinstance(m, SymMultiMap) or m.signature() != (k, k + shift, sym, last, cod):
                raise ValueError(f"{self._MAPS}[{k}]: expected arity {k}, shift {k + shift} "
                                 f"on the declared spaces, got {m!r}")
            elif k > self.max_arity and not m.is_zero:
                raise ValueError(f"{self._MAPS}[{k}] outside 1..{self.max_arity}")
        while maps and maps[-1].is_zero:
            maps.pop()
        object.__setattr__(self, self._MAPS, tuple(maps))

    @classmethod
    def _zero_maps(cls, *parts):
        """k -> the zero map of arity k on parts, which are checked first."""
        shift, sym, cod, last = cls._signature(*parts)
        return lambda k: zero_map(k, k + shift, sym, cod, last)

    @classmethod
    def build(cls, *args):
        """cls(*parts, max_arity, maps) from maps given as {arity: map},
        every arity in 1..max_arity."""
        *parts, max_arity, maps = args
        for k in maps:
            if not 1 <= k <= max_arity:
                raise ValueError(f"{cls._MAPS}[{k}] outside 1..{max_arity}")
        return cls(*parts, max_arity, tuple(map(maps.get, range(1, max(maps, default=0) + 1))))

    def _map(self, k: int) -> SymMultiMap:
        maps = getattr(self, self._MAPS)
        if 1 <= k <= len(maps):
            return maps[k - 1]
        shift, sym, cod, last = self._sig
        return zero_map(k, k + shift, sym, cod, last)


@dataclass(frozen=True)
class LinfAlgebra(_Structure):
    """Brackets l_k (arity k, degree k-2) on one graded space, k <= max_arity."""

    space: GradedSpace
    max_arity: int
    ops: Tuple[SymMultiMap, ...]
    _PARTS = ("space",)
    op = _Structure._map

    @staticmethod
    def _signature(space):
        # shift less arity; symmetric, codomain and module slot spaces
        return -2, space, space, None


@dataclass(frozen=True)
class LinfMorphism(_Structure):
    """Components f_n: source^(x)n -> target (arity n, degree n-1)."""

    source: LinfAlgebra
    target: LinfAlgebra
    max_arity: int
    comps: Tuple[SymMultiMap, ...]
    _PARTS, _MAPS = ("source", "target"), "comps"
    comp = _Structure._map

    @staticmethod
    def _signature(source, target):
        return -1, source.space, target.space, None


@dataclass(frozen=True)
class LinfModule(_Structure):
    """Operations k_n on n-1 algebra slots plus one module slot, degree n-2."""

    algebra: LinfAlgebra
    space: GradedSpace
    max_arity: int
    ops: Tuple[SymMultiMap, ...]
    _PARTS = ("algebra", "space")
    op = _Structure._map

    @staticmethod
    def _signature(algebra, space):
        return -2, algebra.space, space, space


@dataclass(frozen=True)
class ModuleMorphism(_Structure):
    """Components h_n (n-1 algebra slots plus module slot, degree n-1)
    between modules over one algebra."""

    source: LinfModule
    target: LinfModule
    max_arity: int
    comps: Tuple[SymMultiMap, ...]
    _PARTS, _MAPS = ("source", "target"), "comps"
    comp = _Structure._map

    @staticmethod
    def _signature(source, target):
        if source.algebra != target.algebra:
            raise ValueError("module morphism requires modules over the same algebra")
        return -1, source.algebra.space, target.space, source.space


# ---------------------------------------------------------------------------
# the two kernels, on tables of maps over one space
# ---------------------------------------------------------------------------

# family[k-1] holds the arity-k map: sorted basis tuple -> (out degree, bits,
# tag), bit t of bits standing for the basis element (out degree, t ^ tag)
Table = Dict[Key, Tuple[int, int, int]]
Family = Tuple[Table, ...]
_EMPTY: Table = {}


def _at(family: Family, k: int) -> Table:
    return family[k - 1] if 1 <= k <= len(family) else _EMPTY


def _getter(idx: Tuple[int, ...]):
    """The sub-tuple at the given positions, as a fast callable."""
    if len(idx) == 1:
        p = idx[0]
        return lambda t: (t[p],)
    return operator.itemgetter(*idx) if idx else (lambda t: ())


@lru_cache(maxsize=None)
def _splits(n: int, i: int) -> Tuple[tuple, ...]:
    """(take, leave) getters for each i-subset of n positions and its
    complement, both in increasing order: the two-block unshuffles S(i, n-i)."""
    return tuple((_getter(s), _getter(tuple(p for p in range(n) if p not in s)))
                 for s in itertools.combinations(range(n), i))


def _values_eval(table: Table, values: Tuple[Tuple[int, int, int], ...]) -> int:
    """outer(*values), expanding every value over its set bits only."""
    pools = [[(d, i ^ tag) for i in set_bits(bits)] for d, bits, tag in values]
    acc = 0
    for combo in itertools.product(*pools):
        got = table.get(tuple(sorted(combo)))
        if got is not None:
            acc ^= got[1]
    return acc


def _insertion(plan: "_Plan", part, n: int, acc: Dict[int, int]) -> None:
    """Add the insertion sum sum_{i+j=n+1} sum_{S(i,n-i)} outer_j(inner_i(..),
    ..) into acc, code -> output bits, from one insertion part of the plan,
    in whose numbering its codes are (plan.decode reads one back as a key).

    The part holds each entry A -> (d, bits, tag) of inner_i as code(A) and
    the numbers of the elements (d, t ^ tag), t a set bit of bits, that
    some outer key holds; and each entry K of outer_j once under each
    element e it holds, as code(B), B = K minus one e.  A meets every B
    under its elements and adds the output of K to A u B once per split of
    A u B that takes A: prod_b C(m_A(b) + m_B(b), m_A(b)) times, which by
    Kummer's theorem is odd exactly when code(A) & code(B) == 0 (see
    _Plan), and then code(A u B) = code(A) | code(B).  Disjoint A and B
    always count.

    With module maps alone as outer (k, h, k' or g), every A u B holds one
    M element: each outer key holds one, and an M-valued inner output (tag
    -1) can fill only that M slot (see the module docstring).
    """
    ins, unders = part
    for i in range(max(1, n + 1 - len(unders)), min(n, len(ins)) + 1):
        under = unders[n - i]
        if not under:
            continue
        for a, outs in ins[i - 1]:
            for e in outs:
                for b, ob in under.get(e, ()):
                    if not a & b:
                        c = a | b
                        acc[c] = acc.get(c, 0) ^ ob


def _partitions(n: int, least: int = 1) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing tuples of positive sizes adding up to n."""
    if n == 0:
        yield ()
    for first in range(least, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _grouped(outer: Family, inner: Family, n: int, keys: Iterable[Key]) -> List[Tuple[Key, int]]:
    """The grouped sum over set partitions {B_1..B_r} of the n inputs of
    outer_r(inner_|B_1|(B_1), .., inner_|B_r|(B_r)) at each canonical key, as
    (key, bits) for the keys where it is nonzero.

    Partitions are built box by box, each box holding the smallest input not
    yet placed, and a branch stops as soon as its box evaluates to zero.
    Only box sizes that can still complete a live shape (outer_r and every
    inner_s nonzero) are tried; that set is fixed before any key is seen.
    Its cost follows the keys given, not the stored entries.  It serves
    only pullback, and the tests use it as the reference for
    _grouped_entries.
    """
    shapes = [p for p in _partitions(n)
              if _at(outer, len(p)) and all(_at(inner, s) for s in p)]
    if not shapes:
        return []
    sizes = sorted({s for p in shapes for s in p})
    # sorted sizes placed so far -> [(next size, its table, sizes placed then)]
    subs = {c for p in shapes for r in range(len(p) + 1) for c in itertools.combinations(p, r)}
    steps = {c: [(s, _at(inner, s), nxt) for s in sizes
                 if (nxt := tuple(sorted(c + (s,)))) in subs] for c in subs}

    def walk(rest: Key, placed: Tuple[int, ...], values: tuple) -> int:
        if not rest:
            return _values_eval(_at(outer, len(values)), values)
        head, tail = rest[:1], rest[1:]
        acc = 0
        for s, table, nxt in steps[placed]:
            for take, leave in _splits(len(tail), s - 1):
                v = table.get(head + take(tail))
                if v is not None:
                    acc ^= walk(leave(tail), nxt, values + (v,))
        return acc

    return [(key, bits) for key, bits in ((key, walk(key, (), ())) for key in keys) if bits]


def _grouped_entries(plan: "_Plan", part, n: int, acc: Dict[int, int]) -> None:
    """Add the grouped sum of _grouped over every canonical key into acc,
    code -> output bits, from one grouped part of the plan (see _insertion).

    The part indexes each entry A -> (d, bits, tag) of inner_s under the
    number of (d, t ^ tag) for each set bit t of bits, as (s, code(A), its
    binary digit sum), and lists each entry K = (k_1..k_r) of outer_r whose
    every k_t has entries under it.  K gives each slot t an entry A_t
    indexed under k_t, with sum |A_t| = n, and adds its output to R = A_1 u
    .. u A_r once per set partition of R into boxes A_t read at bit k_t:
    prod_b m_R(b)! / (prod_t prod_b m_{A_t}(b)! prod_p c_p!) times, c_p the
    number of slots holding the pair p = (A_t, k_t).  Slots under equal k's
    take nondecreasing candidate indices, so each multiset of pairs comes
    once, with equal pairs adjacent.  R's fields hold at most n, so code(R)
    = sum_t code(A_t) (see _Plan), and by Legendre (v_2(m!) = m - s_2(m),
    s_2 the binary digit sum) the count is odd exactly when that sum has as
    many carries, sum_t s_2(code A_t) - s_2(code R), as sum_p v_2(c_p!).
    Carries only grow along a branch, and the multinomial (sum c_p)! / prod
    c_p! is whole, so a branch stops once they exceed cap, the sum of
    v_2(e!) over K's runs of e equal k's.
    """
    def walk(t: int, lo: int, rem: int, a: int, pa: int, carry: int, corr: int, run: int) -> None:
        pool, left, tied = pools[t], r - 1 - t, same[t]
        for j in range(lo if tied else 0, len(pool)):
            s, c, p = pool[j]
            if s + left > rem:
                break
            if not left and s < rem:
                continue
            R = a + c
            pR = R.bit_count()
            cy = carry + pa + p - pR
            if cy > cap:
                continue
            rn = run + 1 if tied and j == lo else 1
            co = corr + (rn & -rn).bit_length() - 1  # v_2(rn!) - v_2((rn - 1)!)
            if left:
                walk(t + 1, j, rem - s, R, pR, cy, co, rn)
            elif cy == co:
                acc[R] = acc.get(R, 0) ^ out

    for r, pools, same, cap, out in part:
        if r <= n:
            walk(0, 0, n, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# structures as families, and the semidirect embedding
# ---------------------------------------------------------------------------

def _kernel_table(m: SymMultiMap) -> Table:
    """m's table in L x| M keys, read from its stored entries unsorted.  A
    map without a module slot keeps its keys and is L-valued (tag 0); in a
    module-slot-last map the module input (d, i) is keyed (d, ~i) among the
    others, and the outputs are M-valued (tag -1)."""
    shift = m.shift
    if m.last_space is None:
        return {key: (sum(b[0] for b in key) + shift, bits, 0) for key, bits in m._table.items()}
    table = {}
    for key, bits in m._table.items():
        xs, (d, i) = key[:-1], key[-1]
        x = (d, ~i)
        pos = bisect_left(xs, x)
        table[xs[:pos] + (x,) + xs[pos:]] = (sum(b[0] for b in key) + shift, bits, -1)
    return table


def _family(maps: Sequence[SymMultiMap]) -> Family:
    """The kernel tables of the maps, each built on its map's first use and
    kept there: a map never changes, so every residual, compose and pullback
    of every arity reads the same table."""
    family = []
    for m in maps:
        table = m._kernel
        if table is None:
            table = m._kernel = _kernel_table(m)
        family.append(table)
    return tuple(family)


def _merged(*families: Family) -> Family:
    """Arity by arity union of families with disjoint keys."""
    top = max(len(f) for f in families)
    return tuple({key: v for f in families for key, v in _at(f, k).items()}
                 for k in range(1, top + 1))


def _identity(outer: Family) -> Family:
    """id_M at arity 1, stored only on the M elements some key of outer
    holds: no other one can reach a nonzero outer summand.  The value of
    (d, ~i) is bit 0 under tag ~i, which stands for (d, ~i) itself, so its
    size does not follow the index i."""
    held = {b for table in outer for key in table for b in key if b[1] < 0}
    return ({(b,): (b[0], 1, b[1]) for b in sorted(held)},)


def _one_module_keys(alg: Sequence[Basis], ms: Sequence[Basis], n: int) -> Iterator[Key]:
    """Canonical arity-n keys of L x| M with n - 1 elements of L taken from
    the sorted alg and one M element taken from ms (in L x| M keys)."""
    for xs in itertools.combinations_with_replacement(alg, n - 1):
        for x in ms:
            pos = bisect_left(xs, x)
            yield xs[:pos] + (x,) + xs[pos:]


def _module_map(n: int, shift: int, alg: GradedSpace, cod: GradedSpace, mod: GradedSpace,
                entries: Iterable[Tuple[Key, int]]) -> SymMultiMap:
    """The module-slot-last map of one-M semidirect entries: keys over
    alg x| mod, output bits as stored, taken unchecked: the entries have
    distinct canonical keys of _one_module_keys and nonzero bits."""

    def back(key: Key) -> Key:
        pos = next(p for p, (_, i) in enumerate(key) if i < 0)
        return key[:pos] + key[pos + 1:] + ((key[pos][0], ~key[pos][1]),)

    return SymMultiMap._of_table(n, shift, alg, cod, {back(k): b for k, b in entries}, mod)


# ---------------------------------------------------------------------------
# kernel plans: each structure's tables encoded and indexed once
# ---------------------------------------------------------------------------

INSERTION, GROUPED = "insertion", "grouped"

# a relation as the sums it adds up: (kernel, outer family, inner families),
# the inner families read side by side at each arity; _sums gives families
# of maps, and _tabled their kernel tables, which a plan reads
Sum = Tuple[str, Sequence, Tuple[Sequence, ...]]


def _sums(st) -> Tuple[Sum, ...]:
    """The sums of st's defining relation (see the residuals below)."""
    if isinstance(st, LinfAlgebra):
        return ((INSERTION, st.ops, (st.ops,)),)
    if isinstance(st, LinfMorphism):
        return ((INSERTION, st.comps, (st.source.ops,)),
                (GROUPED, st.target.ops, (st.comps,)))
    if isinstance(st, LinfModule):
        return ((INSERTION, st.ops, (st.algebra.ops, st.ops)),)
    if isinstance(st, ModuleMorphism):
        return ((INSERTION, st.comps, (st.source.algebra.ops, st.source.ops)),
                (INSERTION, st.target.ops, (st.comps,)))
    raise TypeError(f"no defining relation for {type(st).__name__}")


def _tabled(sums: Sequence[Sum]) -> Tuple[Sum, ...]:
    """The sums with each family of maps read as its kernel tables."""
    return tuple((kernel, _family(outer), tuple(map(_family, inners)))
                 for kernel, outer, inners in sums)


def _reach(sums: Sequence[Sum]) -> int:
    """The highest arity at which the sums can be nonzero, at least 1, from
    their families' stored lengths: an insertion summand composes an outer
    and an inner map whose arities add up to n + 1, so it reaches len(outer)
    + (longest inner) - 1; a grouped summand boxes n inputs into the r <=
    len(outer) inner maps of an outer one, so it reaches len(outer) *
    (longest inner)."""
    top = 1
    for kernel, outer, inners in sums:
        inner = max(map(len, inners))
        top = max(top, len(outer) + inner - 1 if kernel == INSERTION else len(outer) * inner)
    return top


def _numbering(tables: Iterable[Table]) -> List[Basis]:
    """Every element some key of the tables holds, the L elements sorted
    and then the M elements (index < 0, see the module docstring) sorted."""
    return sorted({b for table in tables for key in table for b in key},
                  key=lambda b: (b[1] < 0, b))


def _encoded(table: Table, fields: Dict[Basis, int]) -> List[Tuple[int, Key, Tuple[int, int, int]]]:
    """(code, key, value) for each entry of the table, code(key) the sum of
    its elements' fields."""
    return [(sum(map(fields.__getitem__, key)), key, value) for key, value in table.items()]


def _insertion_part(outer: Family, inners: Tuple[Family, ...], coded, number, fields):
    """The tables of one insertion sum as _insertion reads them: each
    outer table's under index, and each inner arity's entries (from every
    inner family) with the elements of their outputs that the index holds."""
    unders = []
    for table in outer:
        under: Dict[int, List[Tuple[int, int]]] = {}
        for c, key, (_, bits, _) in coded[id(table)]:
            for p, e in enumerate(key):
                if not p or key[p - 1] != e:
                    under.setdefault(number[e], []).append((c - fields[e], bits))
        unders.append(under)
    reach = {e for under in unders for e in under}
    ins = []
    for i in range(1, max(map(len, inners)) + 1):
        entries = []
        for family in inners:
            for a, _, (d, bits, tag) in coded.get(id(_at(family, i)), ()):
                outs = tuple(e for t in set_bits(bits) if (e := number.get((d, t ^ tag))) in reach)
                if outs:
                    entries.append((a, outs))
        ins.append(entries)
    return tuple(ins), tuple(unders)


def _grouped_part(outer: Family, inners: Tuple[Family, ...], coded, number):
    """The tables of one grouped sum as _grouped_entries reads them: the
    inner entries under each element of their outputs, by size, and each
    outer entry with its slots' candidate lists, which slots repeat the
    k before them, and its carry cap."""
    under: Dict[int, List[Tuple[int, int, int]]] = {}
    for s in range(1, max(map(len, inners)) + 1):  # by size, so each list is sorted by size
        for family in inners:
            for a, _, (d, bits, tag) in coded.get(id(_at(family, s)), ()):
                for t in set_bits(bits):
                    e = number.get((d, t ^ tag))
                    if e is not None:
                        under.setdefault(e, []).append((s, a, a.bit_count()))
    part = []
    for r, table in enumerate(outer, start=1):
        for _, K, (_, out, _) in coded[id(table)]:
            pools = [under.get(number[k]) for k in K]
            if all(pools):
                same = [0 < t and K[t] == K[t - 1] for t in range(r)]
                cap = run = 0
                for tied in same:
                    run = run + 1 if tied else 1
                    cap += (run & -run).bit_length() - 1
                part.append((r, pools, same, cap, out))
    return part


# a code is decoded a chunk of fields at a time: as many whole fields as fit
# in this many bits, and at least one
_CHUNK_BITS = 12


class _Plan:
    """The tables of a relation's sums, encoded and indexed for the
    kernels once, for every arity up to top = _reach(sums) (see the module
    docstring); above it no entries' arities add up, so the kernels add
    nothing at any width.

    Each element some key holds is numbered (_numbering) and gets a field
    of ``width`` = top.bit_length() bits: code(A) holds m_A(b), the
    multiplicity of b in the multiset A, in b's field.  So code(A) &
    code(B) == 0 exactly when every m_A(b) & m_B(b) == 0, and then code(A
    u B) = code(A) | code(B); and a sum of codes whose fields add up to at
    most top is the code of the union.  ``elems`` gives back each field's
    element, M elements (numbered last) in the maps' own (d, i).  ``sums``
    holds each sum's kernel and part (_insertion_part, _grouped_part).

    keys decodes codes a chunk of ``per`` fields at a time (_CHUNK_BITS):
    ``memos`` holds a dict for each chunk position, chunk value -> the
    elements its fields hold, filled on the value's first decode, so each
    key costs one lookup per nonzero chunk.  The memos grow with the plan's
    residuals, and are plain data like the rest of the plan, outside the
    structure's value.  A plan holds numbers, tuples, lists and dicts only.
    """

    __slots__ = ("width", "per", "elems", "memos", "sums")

    def __init__(self, sums: Sequence[Sum]):
        self.width = width = _reach(sums).bit_length()
        tables = {id(t): t for _, outer, inners in sums for family in (outer, *inners)
                  for t in family}
        elems = _numbering(tables.values())
        number = {b: k for k, b in enumerate(elems)}
        fields = {b: 1 << (k * width) for k, b in enumerate(elems)}
        coded = {i: _encoded(t, fields) for i, t in tables.items()}
        self.elems = tuple((d, ~i) if i < 0 else (d, i) for d, i in elems)
        self.per = per = max(1, _CHUNK_BITS // width)
        self.memos = tuple({} for _ in range(0, len(elems), per))
        self.sums = tuple(
            (kernel, _insertion_part(outer, inners, coded, number, fields) if kernel == INSERTION
             else _grouped_part(outer, inners, coded, number))
            for kernel, outer, inners in sums)

    def _chunk(self, j: int, v: int) -> Key:
        """The elements that value v of chunk position j holds, in field
        order."""
        width = self.width
        mask = (1 << width) - 1
        out: List[Basis] = []
        for elem in self.elems[j * self.per:(j + 1) * self.per]:
            out += [elem] * (v & mask)
            v >>= width
        return tuple(out)

    def keys(self, codes: Iterable[int]) -> List[Key]:
        """The sorted key of each code, its M element (if any) last: the
        chunks' elements in field order (see _numbering)."""
        memos, step = self.memos, self.per * self.width
        mask = (1 << step) - 1
        keys = []
        for c in codes:
            key: Key = ()
            j = 0
            while c:
                v = c & mask
                if v:
                    memo = memos[j]
                    got = memo.get(v)
                    if got is None:
                        got = memo[v] = self._chunk(j, v)
                    key += got
                c >>= step
                j += 1
            keys.append(key)
        return keys

    def decode(self, c: int) -> Key:
        """The sorted key of one code (see keys)."""
        return self.keys((c,))[0]

    def map(self, n: int, shift: int, sym: GradedSpace, cod: GradedSpace,
            last: Optional[GradedSpace] = None) -> SymMultiMap:
        """The arity-n residual as a map of this signature, unchecked
        (SymMultiMap._of_table): decoded in field order, keys are canonical
        (_numbering); elements come from stored keys, which the structures'
        constructor checked to be over these spaces; outputs are xors of
        stored outputs of one codomain and degree; zeros are left out, and
        distinct codes give distinct keys."""
        acc: Dict[int, int] = {}
        for kernel, part in self.sums:
            (_insertion if kernel == INSERTION else _grouped_entries)(self, part, n, acc)
        codes = [c for c, bits in acc.items() if bits]
        return SymMultiMap._of_table(n, shift, sym, cod,
                                     dict(zip(self.keys(codes), map(acc.__getitem__, codes))), last)


def _plan(st) -> _Plan:
    """st's kernel plan, built on its first residual and kept on st."""
    plan = st._plan
    if plan is None:
        plan = _Plan(_tabled(_sums(st)))
        object.__setattr__(st, "_plan", plan)
    return plan


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _residual(st, m: SymMultiMap) -> SymMultiMap:
    """st's residual at m's arity n, m being st's own arity-n map: the
    relation has m's signature one degree lower.  An arity below 1 is
    refused by the accessor that gave m."""
    return _plan(st).map(m.arity, m.shift - 1, m.sym_space, m.codomain, m.last_space)


def jacobi_residual(algebra: LinfAlgebra, n: int) -> SymMultiMap:
    """The arity-n Jacobi sum  sum_{i+j=n+1} sum_{sigma in S(i,n-i)}
    l_j(l_i(x_{sigma(1)}..x_{sigma(i)}), x_{sigma(i+1)}, ..)  as one map."""
    return _residual(algebra, algebra.op(n))


def morphism_residual(mor: LinfMorphism, n: int) -> SymMultiMap:
    """Left side sum f_j(l_k ..) xor right side sum l'_r(f_{i_1} .. f_{i_r})
    of the morphism relation, as one arity-n map source^(x)n -> target: an
    insertion sum and a grouped sum, both driven by stored entries, so the
    cost does not grow with the dimension of the source."""
    return _residual(mor, mor.comp(n))


def module_residual(module: LinfModule, n: int) -> SymMultiMap:
    """The module relation at arity n: the Jacobi sum on L x| M over inputs
    with exactly one module element, as one map (module slot last)."""
    return _residual(module, module.op(n))


def modhom_residual(h: ModuleMorphism, n: int) -> SymMultiMap:
    """The module morphism relation at arity n (module slot last), the
    insertion sums h_j(l_i + k_i ..) + k'_j(.., h_i(..)): the morphism
    relation of id_L + h on one module input, id_L being strict."""
    return _residual(h, h.comp(n))


def residual(structure, n: int) -> SymMultiMap:
    """Dispatch to the defining relation of the structure's kind."""
    if isinstance(structure, LinfAlgebra):
        return jacobi_residual(structure, n)
    if isinstance(structure, LinfMorphism):
        return morphism_residual(structure, n)
    if isinstance(structure, LinfModule):
        return module_residual(structure, n)
    if isinstance(structure, ModuleMorphism):
        return modhom_residual(structure, n)
    raise TypeError(f"no defining relation for {type(structure).__name__}")


def first_failure(structure, up_to: int) -> Optional[Tuple[int, tuple, Elem]]:
    """The first (n, basis tuple, nonzero value) with a nonzero residual for
    n <= up_to, or None when every relation holds.  Only n <= complete_bound
    is computed; the residuals above it are zero."""
    for n in range(1, min(up_to, complete_bound(structure)) + 1):
        w = residual(structure, n).witness()
        if w is not None:
            key, elem = w
            return n, key, elem
    return None


def complete_bound(structure) -> int:
    """An arity above which every residual of the structure is zero by
    construction, read off the sums of its relation (_sums) and their
    stored lengths: a summand at arity n composes operations whose arities
    add up to n + 1, or to n under an r-ary outer map that takes r inner
    ones (_reach).  Checking n <= this bound is exhaustive."""
    return _reach(_sums(structure))


# ---------------------------------------------------------------------------
# identity, composition and pullback of module maps
# ---------------------------------------------------------------------------

def identity_morphism(module: LinfModule) -> ModuleMorphism:
    """h_1 = identity on the module space, h_r = 0 for r >= 2.  h_1 stores
    1 << i for each basis element (d, i), so it grows with the square of a
    degree's dimension.  Nothing in this package calls it."""
    ident = SymMultiMap(
        1, 0, module.algebra.space, module.space,
        [((b,), 1 << b[1]) for b in module.space.basis()],
        last_space=module.space,
    )
    return ModuleMorphism.build(module, module, module.max_arity, {1: ident})


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """(g o f)_n = sum_{i+j=n+1} sum_{S(i,n-i)} g_j(.., f_i(..)), an insertion
    sum since id_L is strict, for n up to the smaller truncation arity.

    Component n has degree n-1, since (i-1) + (j-1) = n-1; it is zero
    above the sum's reach, so no higher component is computed.
    """
    if f.target != g.source:
        raise ValueError("compose(g, f) requires target(f) == source(g)")
    N = min(f.max_arity, g.max_arity)
    sums = ((INSERTION, g.comps, (f.comps,)),)
    plan = _Plan(_tabled(sums))
    comps = tuple(plan.map(n, n - 1, f.source.algebra.space, g.target.space, f.source.space)
                  for n in range(1, min(N, _reach(sums)) + 1))
    return ModuleMorphism(f.source, g.target, N, comps)


def pullback(morphism: LinfMorphism, maps: Sequence[SymMultiMap],
             up_to: int) -> Dict[int, SymMultiMap]:
    """Module-slot-last maps over morphism.target (arities 1..len(maps))
    pulled back along the morphism I: L' -> L, as {n: map} for n <= up_to:

        (I* m)_n = sum over set partitions {B_1..B_r} of the n-1 algebra
                   inputs of m_{r+1}(I_|B_1|(B_1), .., I_|B_r|(B_r), m),

    the one module element part of the grouped sum of maps after I + id_M.
    It can be nonzero above len(maps), but not above
    (len(maps) - 1) * len(I.comps) + 1, where no arity is computed.

    Only keys of elements some stored key holds are walked: m of maps, the
    others of I.  A box holding m must be a key of id_M, which _identity
    stores only on the elements outer's keys hold, and one holding a source
    element x a key of I: any other m or x has no box, so every set
    partition of its key contributes zero.  So its cost follows those keys,
    not the stored entries.  On _grouped_entries, the benchmark's
    restrict-chain workload, which bills this unspanned call to restrict,
    reports another dominant layer than the predicted one; it moves once
    the benchmark spans it and re-predicts (ROADMAP item 1).
    """
    if not maps:
        return {}
    src, first, f = morphism.source.space, maps[0], _family(morphism.comps)
    outer = _family(maps)
    ident = _identity(outer)
    inner = _merged(f, ident)
    xs = sorted({x for table in f for key in table for x in key})
    held = [m for (m,) in ident[0]]
    top = min(up_to, (len(maps) - 1) * len(morphism.comps) + 1)
    return {n: _module_map(n, first.shift + n - 1, src, first.codomain, first.last_space,
                           _grouped(outer, inner, n, _one_module_keys(xs, held, n)))
            for n in range(1, top + 1)}
