"""
Restriction of scalars along an algebra morphism I: L' -> L.

An L-module pulls back to an L'-module by feeding grouped inputs through the
components of I before acting:

    k'_n = sum over set partitions {B_1, ..., B_r} of the n-1 algebra inputs
           of k_{r+1}(I_|B_1|(B_1), ..., I_|B_r|(B_r), m)

(so k'_1 = k_1), and a module morphism f pulls back by the same formula with
f_{r+1} in place of k_{r+1} (so (I*f)_1 = f_1 on the nose).  In the
semidirect-product picture of ``structures`` (Lada-Markl, Comm. Algebra
1995) this is the one-module-element part of the grouped sum of the module
maps after the algebra morphism I + id_M: L' x| M -> L x| M, computed there
by ``structures.pullback``; this module knows nothing of the embedding.  Both
constructions produce structures satisfying their defining relations;
``restrict_module`` and ``restrict_morphism`` re-verify this by default,
since a failure there for verified inputs can only mean an implementation
bug.

The restricted structures share the source algebra object of I by reference,
so later compositions can check algebra identity cheaply.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import Optional, Tuple

from .gfa import Elem, SymMultiMap, unit
from .structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    complete_bound,
    first_failure,
    pullback,
)

__all__ = [
    "RestrictionContext",
    "RestrictionError",
    "UnverifiedInputWarning",
    "context",
    "restrict_module",
    "restrict_morphism",
    "check_functoriality",
    "FunctorialityReport",
    "classical_restriction",
]


class RestrictionError(RuntimeError):
    """Output of a restriction failed verification despite verified inputs."""


class UnverifiedInputWarning(UserWarning):
    """A restriction was computed from inputs that fail their relations."""


@dataclass(frozen=True)
class RestrictionContext:
    """An algebra morphism I: L' -> L together with the truncation arity
    shared by every structure passing through it."""

    morphism: LinfMorphism
    max_arity: int
    morphism_verified: bool

    @property
    def source(self) -> LinfAlgebra:
        return self.morphism.source

    @property
    def target(self) -> LinfAlgebra:
        return self.morphism.target


def context(morphism: LinfMorphism, max_arity: Optional[int] = None) -> RestrictionContext:
    """Verify the morphism up to the truncation arity, and its source and
    target algebras exhaustively (up to their complete bounds), and wrap it.

    A morphism with nonzero residuals, or between algebras that are not
    L-infinity algebras, is still usable (handy when debugging one's own I),
    but the fact is recorded and every restriction through the context warns
    and skips its output check.
    """
    N = morphism.max_arity if max_arity is None else max_arity
    ok = True
    for what, st, bound in (("algebra morphism", morphism, N),
                            ("source algebra", morphism.source, complete_bound(morphism.source)),
                            ("target algebra", morphism.target, complete_bound(morphism.target))):
        failure = first_failure(st, bound)
        if failure is not None:
            ok = False
            _warnings.warn(f"{what} fails its relation at arity {failure[0]} on "
                           f"{list(failure[1])}; restrictions will be unverified",
                           UnverifiedInputWarning, stacklevel=2)
    return RestrictionContext(morphism, N, ok)


def _rebuild_arity_one(m: SymMultiMap, new_sym) -> SymMultiMap:
    # an arity-1 module map has no symmetric slots; only the slot space label changes
    return SymMultiMap(1, m.shift, new_sym, m.codomain, m.entries(), last_space=m.last_space)


def _check_inputs(ctx: RestrictionContext, verified: bool) -> bool:
    if not (ctx.morphism_verified and verified):
        _warnings.warn("restriction computed from unverified inputs; output not checked",
                       UnverifiedInputWarning, stacklevel=3)
        return False
    return True


def restrict_module(ctx: RestrictionContext, module: LinfModule, *, verify: bool = True) -> LinfModule:
    """The pullback module over the source algebra of the context.

    The module differential is unchanged (the only grouping at n = 1 is
    the module element alone); higher operations are the grouped sums.  With
    ``verify`` the input relations are checked first and the output relations
    afterwards; an output failure for verified inputs raises.
    """
    if module.algebra != ctx.target:
        raise ValueError("module is not over the target algebra of the context")
    if module.max_arity != ctx.max_arity:
        raise ValueError(
            f"truncation mismatch: module at {module.max_arity}, context at {ctx.max_arity}")
    N = ctx.max_arity
    inputs_ok = verify and _check_inputs(ctx, first_failure(module, N) is None)

    result = LinfModule.build(ctx.source, module.space, N, pullback(ctx.morphism, module.ops, N))

    if inputs_ok:
        failure = first_failure(result, N)
        if failure is not None:
            raise RestrictionError(
                "restricted module fails its relation at arity "
                f"{failure[0]} on {failure[1]}; inputs were verified, so this "
                "indicates an implementation bug")
    return result


def restrict_morphism(ctx: RestrictionContext, f: ModuleMorphism, *, verify: bool = True) -> ModuleMorphism:
    """The pullback of a module morphism; its first component is f_1 verbatim."""
    if f.source.algebra != ctx.target:
        raise ValueError("morphism is not between modules over the target algebra")
    if f.max_arity != ctx.max_arity:
        raise ValueError(
            f"truncation mismatch: morphism at {f.max_arity}, context at {ctx.max_arity}")
    N = ctx.max_arity
    inputs_ok = verify and _check_inputs(ctx, first_failure(f, N) is None)

    src = restrict_module(ctx, f.source, verify=False)
    tgt = restrict_module(ctx, f.target, verify=False)
    result = ModuleMorphism.build(src, tgt, N, pullback(ctx.morphism, f.comps, N))

    if inputs_ok:
        failure = first_failure(result, N)
        if failure is not None:
            raise RestrictionError(
                "restricted morphism fails its relation at arity "
                f"{failure[0]} on {failure[1]}; inputs were verified, so this "
                "indicates an implementation bug")
    return result


@dataclass(frozen=True)
class FunctorialityReport:
    """Componentwise comparison of restricting a composite against composing
    the restrictions."""

    max_arity: int
    mismatches: Tuple[Tuple[int, tuple, Elem], ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def check_functoriality(ctx: RestrictionContext, f: ModuleMorphism, g: ModuleMorphism) -> FunctorialityReport:
    """Compare restrict(g o f) with restrict(g) o restrict(f), component by
    stored component (both end at or below the context arity)."""
    from .structures import compose  # local to keep the import graph flat

    lhs = restrict_morphism(ctx, compose(g, f), verify=False)
    rhs = compose(restrict_morphism(ctx, g, verify=False),
                  restrict_morphism(ctx, f, verify=False))
    mismatches = []
    for n in range(1, max(len(lhs.comps), len(rhs.comps)) + 1):
        diff = lhs.comp(n) + rhs.comp(n)
        w = diff.witness()
        if w is not None:
            mismatches.append((n, w[0], w[1]))
    return FunctorialityReport(ctx.max_arity, tuple(mismatches))


def classical_restriction(phi: LinfMorphism, module: LinfModule) -> LinfModule:
    """The textbook restriction for Lie-algebra representations: the pulled
    back action (y, m) -> k_2(phi_1(y), m), everything in degree 0, phi
    strict.  Agrees bit for bit with restrict_module on such inputs."""
    spaces = (phi.source.space, phi.target.space, module.space)
    if any(sp.degrees() not in ((), (0,)) for sp in spaces):
        raise ValueError("classical restriction needs everything in degree 0")
    if len(phi.comps) > 1:
        raise ValueError("classical restriction needs a strict morphism")
    for what, ops in (("source algebra", phi.source.ops), ("target algebra", phi.target.ops),
                      ("module", module.ops)):
        if len(ops) > 2:
            raise ValueError(f"{what}: operation of arity {len(ops)} is nonzero; not Lie-shaped")
    if module.algebra != phi.target:
        raise ValueError("module is not over the target algebra of the morphism")

    phi1 = phi.comp(1)
    k2 = module.op(2)
    entries = []
    for y in phi.source.space.basis():
        for mb in module.space.basis():
            bits = k2.eval((phi1.eval((unit(y),)), unit(mb))).bits
            if bits:
                entries.append(((y, mb), bits))
    pulled = SymMultiMap(2, 0, phi.source.space, module.space, entries,
                         last_space=module.space)
    ops = {1: _rebuild_arity_one(module.op(1), phi.source.space), 2: pulled}
    return LinfModule.build(phi.source, module.space, module.max_arity, ops)
