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
outer_r(inner(B_1), .., inner(B_r)) walks the canonical keys; only the
morphism relation l'_r(f, .., f) and the pullback need it.  Modules reduce
to algebras (Lada-Markl, "Strongly homotopy Lie algebras", Comm. Algebra
1995): an L-module M is the algebra L x| M (l on L-inputs, k on inputs with
one M element, zero otherwise) and a module morphism h the algebra morphism
id_L + h.  The module relations, compose and the pullback along I (through
I + id_M) are the one-M-input parts of those sums, with no filter: each
outer key holds one M element, which an M-valued inner output alone can
fill, M's basis sitting past L's.  id_L is strict, so a partition through
id_L + h is an s-subset boxed by h_s: the module morphism relation and
compose are insertion sums.  Embedding convention, private to this module:
in each degree the basis of L x| M is that of L followed by that of M; keys
and outputs are mapped back to module-slot-last form.

A structure stores its maps only up to its highest nonzero arity; max_arity
is the truncation number alone.  Every loop over arities runs to the stored
lengths.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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


def _check_map(m: SymMultiMap, arity: int, shift: int, sym: GradedSpace,
               last: Optional[GradedSpace], cod: GradedSpace, what: str) -> None:
    if (m.arity, m.shift, m.sym_space, m.last_space, m.codomain) != (arity, shift, sym, last, cod):
        raise ValueError(
            f"{what}: expected arity {arity}, shift {shift} on the declared spaces, got {m!r}"
        )


def _fill(ops: Mapping[int, SymMultiMap], max_arity: int, shift_of,
          sym: GradedSpace, last: Optional[GradedSpace], cod: GradedSpace, what: str
          ) -> Tuple[SymMultiMap, ...]:
    """The maps of arity 1..top, top the highest nonzero one; zero maps fill
    the gaps below it."""
    for k, m in ops.items():
        if not 1 <= k <= max_arity:
            raise ValueError(f"{what}[{k}] outside 1..{max_arity}")
        _check_map(m, k, shift_of(k), sym, last, cod, f"{what}[{k}]")
    top = max((k for k, m in ops.items() if not m.is_zero), default=0)
    return tuple(ops[k] if k in ops else zero_map(k, shift_of(k), sym, cod, last_space=last)
                 for k in range(1, top + 1))


@dataclass(frozen=True)
class LinfAlgebra:
    """Brackets l_k (arity k, degree k-2) on one graded space, k <= max_arity."""

    space: GradedSpace
    max_arity: int
    ops: Tuple[SymMultiMap, ...]

    @staticmethod
    def build(space: GradedSpace, max_arity: int, ops: Mapping[int, SymMultiMap]) -> "LinfAlgebra":
        return LinfAlgebra(space, max_arity,
                           _fill(ops, max_arity, lambda k: k - 2,
                                 space, None, space, "l"))

    def op(self, k: int) -> SymMultiMap:
        if 1 <= k <= len(self.ops):
            return self.ops[k - 1]
        return zero_map(k, k - 2, self.space, self.space)


@dataclass(frozen=True)
class LinfMorphism:
    """Components f_n: source^(x)n -> target (arity n, degree n-1)."""

    source: LinfAlgebra
    target: LinfAlgebra
    max_arity: int
    comps: Tuple[SymMultiMap, ...]

    @staticmethod
    def build(source: LinfAlgebra, target: LinfAlgebra, max_arity: int,
              comps: Mapping[int, SymMultiMap]) -> "LinfMorphism":
        return LinfMorphism(source, target, max_arity,
                            _fill(comps, max_arity, lambda k: k - 1,
                                  source.space, None, target.space, "f"))

    def comp(self, k: int) -> SymMultiMap:
        if 1 <= k <= len(self.comps):
            return self.comps[k - 1]
        return zero_map(k, k - 1, self.source.space, self.target.space)


@dataclass(frozen=True)
class LinfModule:
    """Operations k_n on n-1 algebra slots plus one module slot, degree n-2."""

    algebra: LinfAlgebra
    space: GradedSpace
    max_arity: int
    ops: Tuple[SymMultiMap, ...]

    @staticmethod
    def build(algebra: LinfAlgebra, space: GradedSpace, max_arity: int,
              ops: Mapping[int, SymMultiMap]) -> "LinfModule":
        return LinfModule(algebra, space, max_arity,
                          _fill(ops, max_arity, lambda k: k - 2,
                                algebra.space, space, space, "k"))

    def op(self, k: int) -> SymMultiMap:
        if 1 <= k <= len(self.ops):
            return self.ops[k - 1]
        return zero_map(k, k - 2, self.algebra.space, self.space, last_space=self.space)


@dataclass(frozen=True)
class ModuleMorphism:
    """Components h_n (n-1 algebra slots plus module slot, degree n-1)."""

    source: LinfModule
    target: LinfModule
    max_arity: int
    comps: Tuple[SymMultiMap, ...]

    @staticmethod
    def build(source: LinfModule, target: LinfModule, max_arity: int,
              comps: Mapping[int, SymMultiMap]) -> "ModuleMorphism":
        if source.algebra != target.algebra:
            raise ValueError("module morphism requires modules over the same algebra")
        return ModuleMorphism(source, target, max_arity,
                              _fill(comps, max_arity, lambda k: k - 1,
                                    source.algebra.space, source.space, target.space, "h"))

    def comp(self, k: int) -> SymMultiMap:
        if 1 <= k <= len(self.comps):
            return self.comps[k - 1]
        return zero_map(k, k - 1, self.source.algebra.space, self.target.space,
                        last_space=self.source.space)


# ---------------------------------------------------------------------------
# the two kernels, on tables of maps over one space
# ---------------------------------------------------------------------------

# family[k-1] holds the arity-k map: sorted basis tuple -> (out degree, bits)
Table = Dict[Key, Tuple[int, int]]
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


def _values_eval(table: Table, values: Tuple[Tuple[int, int], ...]) -> int:
    """outer(*values), expanding every value over its set bits only."""
    pools = [[(d, i) for i in set_bits(bits)] for d, bits in values]
    acc = 0
    for combo in itertools.product(*pools):
        got = table.get(tuple(sorted(combo)))
        if got is not None:
            acc ^= got[1]
    return acc


def _multisets(elements: Iterable[Basis], n: int):
    """(code, decode) for multisets of at most n of the given basis elements:
    code(A) holds m_A(b) in a field of n.bit_length() bits per element b, so
    code(A) & code(B) == 0 exactly when every m_A(b) & m_B(b) == 0, and then
    code(A u B) = code(A) | code(B).  decode gives back the sorted tuple."""
    elems = sorted(set(elements))
    width = n.bit_length()
    field = {b: 1 << (k * width) for k, b in enumerate(elems)}
    mask = (1 << width) - 1

    def code(key: Key) -> int:
        return sum(map(field.__getitem__, key))

    def decode(c: int) -> Key:
        out: List[Basis] = []
        for b in elems:
            if c & mask:
                out += [b] * (c & mask)
            c >>= width
            if not c:
                break
        return tuple(out)

    return code, decode


def _insertion(outer: Family, inner: Family, n: int) -> List[Tuple[Key, int]]:
    """The insertion sum sum_{i+j=n+1} sum_{S(i,n-i)} outer_j(inner_i(..), ..)
    as (key, bits) for the canonical keys where it is nonzero.

    Each entry K of outer_j is indexed once under each element e it holds,
    as B = K minus one e.  An entry A -> (d, bits) of inner_i meets every B
    under e = (d, t), t a set bit of bits, and adds the output of K to A u B
    once per split of A u B that takes A: prod_b C(m_A(b) + m_B(b), m_A(b))
    times, which by Kummer's theorem is odd exactly when code(A) & code(B)
    == 0 (see _multisets).  Disjoint A and B always count.

    With module maps alone as outer (k, h, k' or g), every A u B holds one
    M element: each outer key holds one, and an M-valued inner output (bits
    past low) can fill only that M slot (see the module docstring).
    """
    live = [(_at(inner, i), _at(outer, n + 1 - i))
            for i in range(1, n + 1) if _at(inner, i) and _at(outer, n + 1 - i)]
    if not live:
        return []
    code, decode = _multisets((b for tin, tout in live for t in (tin, tout)
                               for key in t for b in key), n)
    acc: Dict[int, int] = {}
    for tin, tout in live:
        under: Dict[Basis, List[Tuple[int, int]]] = {}
        for key, (_, bits) in tout.items():
            for p, e in enumerate(key):
                if not p or key[p - 1] != e:
                    under.setdefault(e, []).append((code(key[:p] + key[p + 1:]), bits))
        for key, (d, bits) in tin.items():
            a = code(key)
            for t in set_bits(bits):
                for b, ob in under.get((d, t), ()):
                    if not a & b:
                        acc[a | b] = acc.get(a | b, 0) ^ ob
    return [(decode(c), bits) for c, bits in acc.items() if bits]


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


# ---------------------------------------------------------------------------
# structures as families, and the semidirect embedding
# ---------------------------------------------------------------------------

def _family(maps: Sequence[SymMultiMap]) -> Family:
    """Tables of maps without a module slot."""
    return tuple({key: (sum(b[0] for b in key) + m.shift, bits) for key, bits in m.entries()}
                 for m in maps)


def _embed(b: Basis, low: Mapping[int, int]) -> Basis:
    """A module basis element in L x| M coordinates, low = dims of L."""
    return (b[0], low.get(b[0], 0) + b[1])


def _module_family(maps: Sequence[SymMultiMap], low: Mapping[int, int]) -> Family:
    """Tables of module-slot-last maps over L in L x| M coordinates, low =
    dims of L: the module input and the output bits sit past low."""
    family = []
    for m in maps:
        table = {}
        for key, bits in m.entries():
            d = sum(b[0] for b in key) + m.shift
            xs, x = key[:-1], _embed(key[-1], low)
            pos = bisect_left(xs, x)
            table[xs[:pos] + (x,) + xs[pos:]] = (d, bits << low.get(d, 0))
        family.append(table)
    return tuple(family)


def _merged(*families: Family) -> Family:
    """Arity by arity union of families with disjoint keys."""
    top = max(len(f) for f in families)
    return tuple({key: v for f in families for key, v in _at(f, k).items()}
                 for k in range(1, top + 1))


def _identity(space: GradedSpace, low_in: Mapping[int, int],
              low_out: Mapping[int, int], outer: Family) -> Family:
    """The identity of one summand of semidirect spaces, at arity 1: its
    basis sits past low_in in the source and past low_out in the target.
    Only the elements some key of outer holds are stored: no other one can
    reach a nonzero outer summand."""
    held = {b for table in outer for key in table for b in key}
    return ({(_embed(b, low_in),): (b[0], 1 << e[1]) for b in space.basis()
             if (e := _embed(b, low_out)) in held},)


def _one_module_keys(alg: GradedSpace, mod: GradedSpace, n: int) -> Iterator[Key]:
    """Canonical arity-n keys of alg x| mod with exactly one mod element."""
    low = alg.dims()
    ms = [_embed(b, low) for b in mod.basis()]
    for xs in itertools.combinations_with_replacement(alg.basis(), n - 1):
        for x in ms:
            pos = bisect_left(xs, x)
            yield xs[:pos] + (x,) + xs[pos:]


def _module_map(n: int, shift: int, alg: GradedSpace, cod: GradedSpace, mod: GradedSpace,
                entries: Iterable[Tuple[Key, int]], low_out: Mapping[int, int]) -> SymMultiMap:
    """The module-slot-last map of one-M semidirect entries: keys over
    alg x| mod, output bits past low_out."""
    low_in = alg.dims()

    def back(key: Key, bits: int) -> Tuple[Key, int]:
        pos = next(p for p, (d, i) in enumerate(key) if i >= low_in.get(d, 0))
        d, i = key[pos]
        out = sum(b[0] for b in key) + shift
        return key[:pos] + key[pos + 1:] + ((d, i - low_in.get(d, 0)),), bits >> low_out.get(out, 0)

    return SymMultiMap(n, shift, alg, cod, [back(k, b) for k, b in entries], last_space=mod)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _check_arity(n: int) -> None:
    if n < 1:
        raise ValueError("arity must be >= 1")


def jacobi_residual(algebra: LinfAlgebra, n: int) -> SymMultiMap:
    """The arity-n Jacobi sum  sum_{i+j=n+1} sum_{sigma in S(i,n-i)}
    l_j(l_i(x_{sigma(1)}..x_{sigma(i)}), x_{sigma(i+1)}, ..)  as one map."""
    _check_arity(n)
    space, l = algebra.space, _family(algebra.ops)
    return SymMultiMap(n, n - 3, space, space, _insertion(l, l, n))


def morphism_residual(mor: LinfMorphism, n: int) -> SymMultiMap:
    """Left side sum f_j(l_k ..) xor right side sum l'_r(f_{i_1} .. f_{i_r})
    of the morphism relation, as one arity-n map source^(x)n -> target."""
    _check_arity(n)
    space, f = mor.source.space, _family(mor.comps)
    entries = (_insertion(f, _family(mor.source.ops), n)
               + _grouped(_family(mor.target.ops), f, n,
                          itertools.combinations_with_replacement(space.basis(), n)))
    return SymMultiMap(n, n - 2, space, mor.target.space, entries)


def module_residual(module: LinfModule, n: int) -> SymMultiMap:
    """The module relation at arity n: the Jacobi sum on L x| M over inputs
    with exactly one module element, as one map (module slot last)."""
    _check_arity(n)
    alg, mod = module.algebra.space, module.space
    k = _module_family(module.ops, alg.dims())
    entries = _insertion(k, _merged(_family(module.algebra.ops), k), n)
    return _module_map(n, n - 3, alg, mod, mod, entries, alg.dims())


def modhom_residual(h: ModuleMorphism, n: int) -> SymMultiMap:
    """The module morphism relation at arity n (module slot last), the
    insertion sums h_j(l_i + k_i ..) + k'_j(.., h_i(..)): the morphism
    relation of id_L + h on one module input, id_L being strict."""
    _check_arity(n)
    alg, mod = h.source.algebra.space, h.source.space
    low = alg.dims()
    hf = _module_family(h.comps, low)
    lk = _merged(_family(h.source.algebra.ops), _module_family(h.source.ops, low))
    k = _module_family(h.target.ops, low)
    entries = _insertion(hf, lk, n) + _insertion(k, hf, n)
    return _module_map(n, n - 2, alg, h.target.space, mod, entries, low)


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
    construction, from its highest nonzero operations (the stored lengths):
    a summand at arity n composes operations whose arities add up to n + 1
    (or, for the r-fold products of a morphism, to n).  Checking n <= this
    bound is exhaustive."""
    st = structure
    if isinstance(st, LinfAlgebra):
        bound = 2 * len(st.ops) - 1
    elif isinstance(st, LinfMorphism):
        bound = max(len(st.source.ops) + len(st.comps) - 1, len(st.target.ops) * len(st.comps))
    elif isinstance(st, LinfModule):
        bound = max(len(st.algebra.ops) + len(st.ops), 2 * len(st.ops)) - 1
    elif isinstance(st, ModuleMorphism):
        bound = max(len(st.source.algebra.ops), len(st.source.ops), len(st.target.ops)) \
            + len(st.comps) - 1
    else:
        raise TypeError(f"no defining relation for {type(st).__name__}")
    return max(bound, 1)


# ---------------------------------------------------------------------------
# identity, composition and pullback of module maps
# ---------------------------------------------------------------------------

def identity_morphism(module: LinfModule) -> ModuleMorphism:
    """h_1 = identity on the module space, h_r = 0 for r >= 2."""
    ident = SymMultiMap(
        1, 0, module.algebra.space, module.space,
        [((b,), 1 << b[1]) for b in module.space.basis()],
        last_space=module.space,
    )
    return ModuleMorphism.build(module, module, module.max_arity, {1: ident})


def compose(g: ModuleMorphism, f: ModuleMorphism) -> ModuleMorphism:
    """(g o f)_n = sum_{i+j=n+1} sum_{S(i,n-i)} g_j(.., f_i(..)), an insertion
    sum since id_L is strict, for n up to the smaller truncation arity.

    Component n has degree n-1, since (i-1) + (j-1) = n-1; it is zero for
    n >= len(f.comps) + len(g.comps), so no higher component is computed.
    """
    if f.target != g.source:
        raise ValueError("compose(g, f) requires target(f) == source(g)")
    alg = f.source.algebra
    if alg != g.source.algebra:
        raise ValueError("compose requires morphisms over the same algebra")
    N = min(f.max_arity, g.max_arity)
    space, mod, low = alg.space, f.source.space, alg.space.dims()
    G, F = _module_family(g.comps, low), _module_family(f.comps, low)
    comps = {n: _module_map(n, n - 1, space, g.target.space, mod, _insertion(G, F, n), low)
             for n in range(1, min(N, len(f.comps) + len(g.comps) - 1) + 1)}
    return ModuleMorphism.build(f.source, g.target, N, comps)


def pullback(morphism: LinfMorphism, maps: Sequence[SymMultiMap],
             up_to: int) -> Dict[int, SymMultiMap]:
    """Module-slot-last maps over morphism.target (arities 1..len(maps))
    pulled back along the morphism I: L' -> L, as {n: map} for n <= up_to:

        (I* m)_n = sum over set partitions {B_1..B_r} of the n-1 algebra
                   inputs of m_{r+1}(I_|B_1|(B_1), .., I_|B_r|(B_r), m),

    the one module element part of the grouped sum of maps after I + id_M.
    It can be nonzero above len(maps), but not above
    (len(maps) - 1) * len(I.comps) + 1, where no arity is computed.
    """
    if not maps:
        return {}
    src, low = morphism.source.space, morphism.target.space.dims()
    first = maps[0]
    mod = first.last_space
    outer = _module_family(maps, low)
    inner = _merged(_family(morphism.comps), _identity(mod, src.dims(), low, outer))
    top = min(up_to, (len(maps) - 1) * len(morphism.comps) + 1)
    return {n: _module_map(n, first.shift + n - 1, src, first.codomain, mod,
                           _grouped(outer, inner, n, _one_module_keys(src, mod, n)), low)
            for n in range(1, top + 1)}
