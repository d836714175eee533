"""Shared helpers: randomized structures whose relations need not hold, used
to pin the residual sums against hand-expanded formulas and against the
oracle on random shapes; a transported algebra whose relations hold by
cancellation; the semidirect products L x| M on the direct sum, which check
restriction by its defining property; mutants of a kernel made by editing
its source, which those comparisons must catch; and the two-pass map
parse, the reference for the one-pass parse of linfty.jsonio."""

import contextlib
import functools
import inspect
import itertools
import random
import textwrap
from unittest import mock

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as hst

from linfty import jsonio
from linfty.gfa import GradedSpace, SymMultiMap, unit
from linfty.oracle import naive_residual
from linfty.structures import (LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism,
                               complete_bound, compose, morphism_residual, pullback, residual)

KIND_OF = {LinfAlgebra: "jacobi", LinfMorphism: "morphism",
           LinfModule: "module", ModuleMorphism: "module_morphism"}


def kinds_on(L, M):
    """For each kind, its class, its parts on the spaces L and M, and its
    maps' signature there: (shift at arity k, less k; symmetric slots;
    codomain; module slot), stated apart from the kinds' own _signature."""
    alg = LinfAlgebra(L, 4, ())
    mod = LinfModule(alg, M, 4, ())
    return ((LinfAlgebra, (L,), (-2, L, L, None)),
            (LinfMorphism, (alg, LinfAlgebra(M, 4, ())), (-1, L, M, None)),
            (LinfModule, (alg, M), (-2, L, M, M)),
            (ModuleMorphism, (mod, LinfModule(alg, L, 4, ())), (-1, L, L, M)))


def bundle_of(st, L, M):
    """A bundle of the spaces L and M, st (named s0) and every structure
    it is built on."""
    return jsonio.Bundle({"L": L, "M": M},
                         {f"s{i}": part for i, part in enumerate(with_parts(st))})


def random_map(rng: random.Random, arity, shift, sym, cod, last=None, density=0.6):
    n_sym = arity - 1 if last is not None else arity
    entries = []
    sym_keys = itertools.combinations_with_replacement(sym.basis(), n_sym)
    for skey in sym_keys:
        tails = [(b,) for b in last.basis()] if last is not None else [()]
        for tail in tails:
            key = skey + tail
            dim = cod.dim(sum(d for d, _ in key) + shift)
            if dim == 0:
                continue
            bits = rng.getrandbits(dim) if rng.random() < density else 0
            if bits:
                entries.append((key, bits))
    return SymMultiMap(arity, shift, sym, cod, entries, last_space=last)


def random_algebra(rng, space, max_arity, up_to=3):
    ops = {k: random_map(rng, k, k - 2, space, space) for k in range(1, up_to + 1)}
    return LinfAlgebra.build(space, max_arity, ops)


def random_module(rng, algebra, space, max_arity, up_to=3):
    ops = {k: random_map(rng, k, k - 2, algebra.space, space, last=space)
           for k in range(1, up_to + 1)}
    return LinfModule.build(algebra, space, max_arity, ops)


def random_morphism(rng, source, target, max_arity, up_to=3):
    comps = {k: random_map(rng, k, k - 1, source.space, target.space)
             for k in range(1, up_to + 1)}
    return LinfMorphism.build(source, target, max_arity, comps)


def random_modhom(rng, source, target, max_arity, up_to=3):
    comps = {k: random_map(rng, k, k - 1, source.algebra.space, target.space,
                           last=source.space)
             for k in range(1, up_to + 1)}
    return ModuleMorphism.build(source, target, max_arity, comps)


def set_partitions(n):
    """Every set partition of range(n) as a tuple of boxes, each position
    put in turn into each box opened before it and then into a new one: in
    the lexicographic order of the box labels of the positions."""
    boxes = []

    def place(k):
        if k == n:
            yield tuple(map(tuple, boxes))
            return
        for box in boxes:
            box.append(k)
            yield from place(k + 1)
            box.pop()
        boxes.append([k])
        yield from place(k + 1)
        boxes.pop()

    return place(0)


def patch_mutant(monkeypatch, module, name, *edits):
    """Replace module.name with a copy of its source in which each (old,
    new) edit is made; every old text occurs exactly once."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    for old, new in edits:
        assert src.count(old) == 1, old
        src = src.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(src, module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def stored_maps(st):
    """Every map a structure stores, its algebras', modules' and their
    algebras' included."""
    maps = list(getattr(st, "ops", ())) + list(getattr(st, "comps", ()))
    for part in ("algebra", "source", "target"):
        if hasattr(st, part):
            maps += stored_maps(getattr(st, part))
    return maps


def with_parts(st):
    """The structure and every structure it is built on."""
    out = [st]
    for part in ("algebra", "source", "target"):
        if hasattr(st, part):
            out += with_parts(getattr(st, part))
    return out


def untabled(structures):
    """The structures, after checking that none of them, or of the
    structures they are built on, has a kernel plan yet, and that no
    nonzero map they store has a kernel table yet: a mutant kernel must
    build its own plans and tables, and what it builds must not outlive the
    test.  Zero maps are shared, but every table builder gives them the
    same empty table."""
    for st in structures:
        assert all(part._plan is None for part in with_parts(st))
        assert all(m._kernel is None for m in stored_maps(st) if not m.is_zero)
    return structures


def wide_arity_morphism():
    """A morphism whose complete bound is 8, where its residual needs
    4-bit fields: the one source element x in degree 0, f_4(x, x, x, x) =
    y in degree 3 and l'_2(y, y) = z in degree 6.  At x^8, l'_2(f_4, f_4) counts the set
    partitions of 8 inputs into two boxes of 4, C(8, 4) / 2 = 35 of them,
    so the residual is z there; its key holds x 8 times."""
    V, W = GradedSpace({0: 1}), GradedSpace({3: 1, 6: 1})
    y = (3, 0)
    target = LinfAlgebra.build(W, 8, {2: SymMultiMap(2, 0, W, W, [((y, y), 1)])})
    return LinfMorphism.build(LinfAlgebra.build(V, 8, {}), target, 8, {
        4: SymMultiMap(4, 3, V, W, [(((0, 0),) * 4, 1)])})


def chunked_structures():
    """(morphism, module) whose kernel plans span three chunk positions of
    the decoder, built anew.

    The morphism's fields are 4 bits wide, three to a chunk.  Its source
    has x in degree 0 and w in degree 4, fields 0 and 6, at offset 0 of
    chunks 0 and 2; five target elements that only pad the numbering lie
    between them.  f_4 takes x^4 to y and w^4 to u, and l'_2 takes (y, y),
    (y, u) and (u, u) to one element each, so its residual at its complete
    bound 8 is nonzero at x^8, x^4 w^4 and w^8: chunk values 8 and 4 at
    positions 0 and 2, and x held 8 times.  The module is random on a
    2-dimensional algebra and a 7-dimensional module space, operations up
    to arity 4 (complete bound 7, 3-bit fields, four to a chunk), so its
    nine elements fill three chunks, M's last."""
    V = GradedSpace({0: 1, 4: 1})
    W = GradedSpace({1: 2, 2: 2, 3: 1, 6: 1, 19: 1, 22: 1, 38: 1})
    x, w, y, u = (0, 0), (4, 0), (3, 0), (19, 0)
    target = LinfAlgebra.build(W, 8, {
        1: SymMultiMap(1, -1, W, W, [(((2, 0),), 0b11), (((2, 1),), 0b01)]),
        2: SymMultiMap(2, 0, W, W, [(((1, 0), (1, 1)), 1), ((y, y), 1), ((y, u), 1),
                                    ((u, u), 1)])})
    mor = LinfMorphism.build(LinfAlgebra.build(V, 8, {}), target, 8, {
        4: SymMultiMap(4, 3, V, W, [((x,) * 4, 1), ((w,) * 4, 1)])})
    rng = random.Random(0)
    L, M = GradedSpace({0: 2}), GradedSpace({-1: 2, 0: 3, 1: 2})
    module = random_module(rng, random_algebra(rng, L, 7), M, 7, up_to=4)
    return mor, module


# the graded commutative algebra A = F2<1, t, u, tu>, |t| = |u| = 1, by
# degree; its products other than by 1 and its differential
_A = {0: ("1",), 1: ("t", "u"), 2: ("tu",)}
_A_TIMES = {("t", "u"): "tu", ("u", "t"): "tu"}
_A_D = {"t": "1", "tu": "u"}


def transported_algebra(seed):
    """(L', phi) for an infinity-isomorphism phi: L' -> L, phi_1 = id and
    phi_2, phi_3 random, L' the dg Lie algebra L = g (x) A transported
    along it, all truncated at arity 6.  g is the 2-dimensional nonabelian
    Lie algebra, [a, b] = b, and A has t^2 = u^2 = 0, dt = 1 and d(tu) =
    u; so L's space is {0: 2, 1: 4, 2: 2}, g_i (x) alpha_j at index 2j + i
    of alpha_j's degree.

    l'_n is phi's morphism residual at n, computed while l'_n is still
    zero: phi_1 o l'_n is the one term of that relation holding l'_n.  So
    L' and phi are valid by construction, L' by cancellation; above arity
    4 every l'_n is zero by degree."""
    V = GradedSpace({d: 2 * len(names) for d, names in _A.items()})
    where = {name: (d, j) for d, names in _A.items() for j, name in enumerate(names)}

    def elem(i, name):
        d, j = where[name]
        return d, 2 * j + i

    def times(alpha, beta):
        return beta if alpha == "1" else alpha if beta == "1" else _A_TIMES.get((alpha, beta))

    l1 = [((elem(i, alpha),), 1 << elem(i, d_alpha)[1])
          for alpha, d_alpha in _A_D.items() for i in (0, 1)]
    # [g_0 (x) alpha, g_1 (x) beta] = g_1 (x) alpha beta
    l2 = [((elem(0, alpha), elem(1, beta)), 1 << elem(1, ab)[1])
          for alpha, beta in itertools.product(where, repeat=2)
          if (ab := times(alpha, beta)) is not None]
    L = LinfAlgebra.build(V, 6, {1: SymMultiMap(1, -1, V, V, l1),
                                         2: SymMultiMap(2, 0, V, V, l2)})
    rng = random.Random(seed)
    phi = {1: SymMultiMap(1, 0, V, V, [((b,), 1 << b[1]) for b in V.basis()]),
           2: random_map(rng, 2, 1, V, V), 3: random_map(rng, 3, 2, V, V)}
    ops = {}
    for n in range(1, 7):
        partial = LinfAlgebra.build(V, 6, ops)
        ops[n] = morphism_residual(LinfMorphism.build(partial, L, 6, phi), n)
    transported = LinfAlgebra.build(V, 6, ops)
    return transported, LinfMorphism.build(transported, L, 6, phi)


def _direct_sum(L: GradedSpace, M: GradedSpace) -> GradedSpace:
    """L + M, with M's basis after L's in each degree."""
    return GradedSpace({d: L.dim(d) + M.dim(d) for d in set(L.degrees()) | set(M.degrees())})


def _offset(m, L: GradedSpace):
    """The entries of the module-slot-last map m as entries of a map on L +
    M (_direct_sum): its module input and its output, both in M, moved
    past L's basis in their degrees."""
    out = []
    for key, bits in m.entries():
        d, i = key[-1]
        out.append((key[:-1] + ((d, L.dim(d) + i),),
                    bits << L.dim(sum(b[0] for b in key) + m.shift)))
    return tuple(out)


def semidirect(module):
    """L x| M as an algebra on L + M: l_k on L inputs, k_k on k - 1 L
    inputs and one M input, zero on two or more M inputs (Lada-Markl
    1995).  Built here on the direct sum, not on the kernels' tagged keys,
    so its Jacobi residual is a second derivation of the module relation."""
    L = module.algebra.space
    space = _direct_sum(L, module.space)
    ops = {k: SymMultiMap(k, k - 2, space, space,
                          module.algebra.op(k).entries() + _offset(module.op(k), L))
           for k in range(1, max(len(module.algebra.ops), len(module.ops)) + 1)}
    return LinfAlgebra.build(space, module.max_arity, ops)


def plus_identity(I, restricted, module):
    """I + id_M as an algebra morphism L' x| I*M -> L x| M, restricted
    being I*M: I on L' inputs, the identity from restricted's copy of M to
    module's, zero on any other input.  I*M is the restriction exactly
    when this is an L-infinity morphism."""
    source, target = semidirect(restricted), semidirect(module)
    Lp, L = I.source.space, I.target.space
    ident = tuple((((d, Lp.dim(d) + i),), 1 << (L.dim(d) + i)) for d, i in module.space.basis())
    comps = {n: SymMultiMap(n, n - 1, source.space, target.space,
                            I.comp(n).entries() + (ident if n == 1 else ()))
             for n in range(1, len(I.comps) + 1)}
    return LinfMorphism.build(source, target, I.max_arity, comps)


def identity_plus(h):
    """id_L + h as an algebra morphism L x| M -> L x| N for a module
    morphism h: M -> N over L: the identity on L inputs, h_n on n - 1 L
    inputs and one M input, zero on any other input."""
    source, target = semidirect(h.source), semidirect(h.target)
    L = h.source.algebra.space
    ident = tuple(((b,), 1 << b[1]) for b in L.basis())
    comps = {n: SymMultiMap(n, n - 1, source.space, target.space,
                            _offset(h.comp(n), L) + (ident if n == 1 else ()))
             for n in range(1, max(len(h.comps), 1) + 1)}
    return LinfMorphism.build(source, target, h.max_arity, comps)


@functools.lru_cache(maxsize=None)
def _boxings(n, most, widest):
    """The set partitions of range(n) into at most ``most`` boxes of at
    most ``widest`` elements each."""
    return tuple(boxes for boxes in set_partitions(n)
                 if len(boxes) <= most and max(map(len, boxes)) <= widest)


def composite(G, F):
    """The algebra morphism G o F as {n: {key: bits}}, nonzero entries only,
    by its set-partition derivation: (G o F)_n is the sum over set
    partitions {B_1..B_r} of the n inputs of G_r(F_|B_1|(B_1), ..,
    F_|B_r|(B_r)), zero above len(G.comps) * len(F.comps)."""
    out = {}
    for n in range(1, len(G.comps) * len(F.comps) + 1):
        for key in itertools.combinations_with_replacement(F.source.space.basis(), n):
            bits = 0
            for boxes in _boxings(n, len(G.comps), len(F.comps)):
                zs = tuple(F.comp(len(box)).eval(tuple(unit(key[p]) for p in box))
                           for box in boxes)
                bits ^= G.comp(len(boxes)).eval(zs).bits
            if bits:
                out.setdefault(n, {})[key] = bits
    return out


def module_composite(g, f, top):
    """g o f of two module morphisms as {n: {key: bits}} for n <= top,
    nonzero entries only, by its set-partition derivation: the algebra
    morphism (id + g) o (id + f) on one module input, where a set partition
    of the n inputs contributes only when every box without the module
    element is a singleton, since id has no higher components."""
    out = {}
    for n in range(1, top + 1):
        for xs in itertools.combinations_with_replacement(f.source.algebra.space.basis(), n - 1):
            for m in f.source.space.basis():
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
                if bits:
                    out.setdefault(n, {})[xs + (m,)] = bits
    return out


def seeded_structures():
    """One random structure of each kind at seed 42, then at seed 3."""
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
    return shared + gapped


def kernel_made_maps(group):
    """Every map the kernels build from a group of structures, as it comes
    back: each residual up to its structure's complete bound, compose of
    every composable pair of module morphisms, and the pullback of every
    module and module morphism along every morphism into its algebra."""
    maps = [residual(st, n) for st in group for n in range(1, complete_bound(st) + 1)]
    homs = [st for st in group if isinstance(st, ModuleMorphism)]
    maps += [m for g, f in itertools.product(homs, repeat=2) if f.target == g.source
             for m in compose(g, f).comps]
    for mor in (st for st in group if isinstance(st, LinfMorphism)):
        for st in group:
            if isinstance(st, LinfModule) and st.algebra == mor.target:
                maps += pullback(mor, st.ops, st.max_arity).values()
            elif isinstance(st, ModuleMorphism) and st.source.algebra == mor.target:
                maps += pullback(mor, st.comps, st.max_arity).values()
    return maps


def rechecked(m):
    """m rebuilt from its entries by the constructor, which canonicalizes
    and checks every key."""
    return SymMultiMap(m.arity, m.shift, m.sym_space, m.codomain, m.entries(),
                       last_space=m.last_space)


def unchecked_faults(maps):
    """The maps that differ from their rebuilt selves, or whose entries the
    constructor rejects."""
    faults = []
    for m in maps:
        try:
            if m != rechecked(m):
                faults.append(m)
        except ValueError:
            faults.append(m)
    return faults


def shapes_match_naive(L, M, U, up_to, seed):
    """One random structure of each kind on the graded spaces of
    dimensions L, M and U, a module space apart from L, operations up to
    arity up_to, has naive_residual's residual at n <= 4: the kernels' maps
    skip the constructor's checks, so every shape, not only the seeded
    ones, must give naive_residual's maps."""
    assume(M != L)
    rng = random.Random(seed)
    L, M, U = GradedSpace(L), GradedSpace(M), GradedSpace(U)
    alg = random_algebra(rng, L, 4, up_to)
    mod = random_module(rng, alg, M, 4, up_to)
    sts = (alg, random_morphism(rng, alg, random_algebra(rng, M, 4, up_to), 4, up_to), mod,
           random_modhom(rng, mod, random_module(rng, alg, U, 4, up_to), 4, up_to))
    for st in sts:
        for n in range(1, 5):
            assert residual(st, n) == naive_residual(st, KIND_OF[type(st)], n)


# graded spaces in two or three of the degrees -2..2, each of dimension 1 or
# 2, so most leave gaps between their degrees
_SPREAD_DIMS = hst.dictionaries(hst.integers(-2, 2), hst.integers(1, 2), min_size=2, max_size=3)


@settings(derandomize=True, max_examples=30, deadline=None, phases=(Phase.generate,),
          report_multiple_bugs=False)
@given(_SPREAD_DIMS, _SPREAD_DIMS, _SPREAD_DIMS, hst.sampled_from((2, 3)),
       hst.integers(0, 2 ** 32 - 1))
def residuals_match_naive(L, M, U, up_to, seed):
    """shapes_match_naive on spaces of two or three degrees with operations
    up to arity 2 or 3, whose grouped sums are mostly nonzero: the shapes
    the kernel mutants run.  The same examples every run, and a failure is
    reported as found, unshrunk."""
    shapes_match_naive(L, M, U, up_to, seed)


def fails(check) -> bool:
    """Whether check() fails: on a wrong residual, or on an error a mutant
    kernel raises on a bad key or an element without a field."""
    try:
        check()
    except (AssertionError, KeyError, IndexError, ValueError):
        return True
    return False


def two_pass_parse_map(where, doc, zero, warnings):
    """jsonio._parse_map before it checked keys as it read them: one pass
    checks each entry's types, index limit, output degree and repeated
    outputs, then the map's constructor checks each key's slots, canonical
    form and codomain, and a second pass names each key it sorted or
    merged.  The reference for the one-pass parse."""
    if not isinstance(doc, dict):
        raise jsonio.FormatError(f"{where}: expected a map object")
    jsonio._known(doc, jsonio._MAP_FIELDS, where)
    arity, shift = doc.get("arity"), doc.get("shift")
    if (arity, shift) != (zero.arity, zero.shift) or not type(arity) is int is type(shift):
        raise jsonio.FormatError(
            f"{where}: declared arity/shift {arity}/{shift} "
            f"do not match the required {zero.arity}/{zero.shift}")
    ents = doc.get("entries", [])
    if not isinstance(ents, list):
        raise jsonio.FormatError(f"{where}: 'entries' must be a list")
    entries = []
    for ent in ents:
        try:
            ins, outs = ent["in"], ent["out"]
            key, degree, bits = [], shift, 0
            for d, i in ins:
                if type(d) is not int or type(i) is not int or i >= jsonio.MAX_INDEX:
                    raise jsonio._Faulty
                key.append((d, i))
                degree += d
            for d, i in outs:
                if (type(d) is not int or type(i) is not int or d != degree
                        or not 0 <= i < jsonio.MAX_INDEX):
                    raise jsonio._Faulty
                if bits >> i & 1:
                    warnings.append(f"{where}: duplicate output element {(d, i)} canonicalized")
                bits ^= 1 << i
            if len(ent) > 2:
                raise jsonio._Faulty
        except (TypeError, ValueError, KeyError, jsonio._Faulty):
            raise jsonio._entry_error(where, ent, shift) from None
        entries.append((tuple(key), bits))
    try:
        m = SymMultiMap(zero.arity, shift, zero.sym_space, zero.codomain, entries,
                        last_space=zero.last_space)
    except ValueError as exc:
        raise jsonio.FormatError(f"{where}: {exc}") from None
    stored = m._table
    if len(stored) < len(entries) or not all(key in stored for key, _ in entries):
        seen = set()
        for key, _ in entries:
            ckey = m.canonical_key(key)
            if ckey != key:
                warnings.append(f"{where}: entry {list(key)} canonicalized on load")
            if ckey in seen:
                warnings.append(f"{where}: repeated multi-index {list(ckey)} merged on load")
            seen.add(ckey)
    return m


def parse_outcome(text, two_pass=False):
    """("ok", structures, warnings) of parsing text, or ("error", message);
    with two_pass, every map is parsed by two_pass_parse_map."""
    reference = mock.patch.object(jsonio, "_parse_map", two_pass_parse_map)
    with reference if two_pass else contextlib.nullcontext():
        try:
            bundle = jsonio.parse_bundle(text)
        except jsonio.FormatError as exc:
            return "error", str(exc)
    return "ok", bundle.structures, bundle.warnings
