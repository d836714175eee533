"""Shared helpers: randomized structures whose relations need not hold, used
to pin the residual sums against hand-expanded formulas."""

import itertools
import random

from linfty.gfa import SymMultiMap
from linfty.structures import LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism

KIND_OF = {LinfAlgebra: "jacobi", LinfMorphism: "morphism",
           LinfModule: "module", ModuleMorphism: "module_morphism"}


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
    """Every set partition of range(n) as a tuple of boxes, found by giving
    each position a box label at most one above the labels before it."""
    for labels in itertools.product(range(n), repeat=n):
        if all(labels[k] <= max(labels[:k], default=-1) + 1 for k in range(n)):
            yield tuple(tuple(p for p in range(n) if labels[p] == box)
                        for box in range(max(labels, default=-1) + 1))
