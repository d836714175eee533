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

A context pulls each module back once: it remembers every restricted module,
and ``restrict_morphism`` takes the restrictions of its source and target
from there, so restricting f: A -> B and g: B -> C pulls back A, B and C once
each.  Only the built output is remembered; every verifying call still
checks its input and its output.

The restricted structures share the source algebra object of I by reference,
so later compositions can check algebra identity cheaply.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .gfa import Elem, SymMultiMap, unit
from .structures import (
    LinfAlgebra,
    LinfModule,
    LinfMorphism,
    ModuleMorphism,
    complete_bound,
    compose,
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
    shared by every structure passing through it.

    It also remembers each module it has restricted, keyed by value (equal
    modules have equal restrictions), so a module is pulled back once per
    context; equality, hash and repr ignore that memo."""

    morphism: LinfMorphism
    max_arity: int
    morphism_verified: bool
    _memo: Dict[LinfModule, LinfModule] = field(
        default_factory=dict, init=False, compare=False, repr=False)

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


def _restricted(ctx: RestrictionContext, st, algebra: LinfAlgebra, what: str,
                off_target: str, verify: bool, build):
    """The checks both restrictions share, around build(N), which computes
    the pullback of st at the context's truncation N.  st must live over the
    target algebra at truncation N.  With ``verify`` its relations are
    checked first and, when they and the morphism's hold, the output's
    afterwards, where a failure raises RestrictionError."""
    if algebra != ctx.target:
        raise ValueError(off_target)
    N = ctx.max_arity
    if st.max_arity != N:
        raise ValueError(f"truncation mismatch: {what} at {st.max_arity}, context at {N}")
    inputs_ok = verify and ctx.morphism_verified and first_failure(st, N) is None
    if verify and not inputs_ok:
        # stacklevel 3: the caller of restrict_module / restrict_morphism
        _warnings.warn("restriction computed from unverified inputs; output not checked",
                       UnverifiedInputWarning, stacklevel=3)
    result = build(N)
    if inputs_ok:
        failure = first_failure(result, N)
        if failure is not None:
            raise RestrictionError(
                f"restricted {what} fails its relation at arity "
                f"{failure[0]} on {failure[1]}; inputs were verified, so this "
                "indicates an implementation bug")
    return result


def restrict_module(ctx: RestrictionContext, module: LinfModule, *, verify: bool = True) -> LinfModule:
    """The pullback module over the source algebra of the context.

    The module differential is unchanged (the only grouping at n = 1 is
    the module element alone); higher operations are the grouped sums.  With
    ``verify`` the input relations are checked first and the output relations
    afterwards; an output failure for verified inputs raises.  The pullback
    itself runs once per module and context.
    """
    def build(N: int) -> LinfModule:
        out = ctx._memo.get(module)
        if out is None:
            out = ctx._memo[module] = LinfModule.build(
                ctx.source, module.space, N, pullback(ctx.morphism, module.ops, N))
        return out

    return _restricted(ctx, module, module.algebra, "module",
                       "module is not over the target algebra of the context", verify, build)


def restrict_morphism(ctx: RestrictionContext, f: ModuleMorphism, *, verify: bool = True) -> ModuleMorphism:
    """The pullback of a module morphism; its first component is f_1 verbatim.
    Its source and target are the context's restrictions of f's."""
    def build(N: int) -> ModuleMorphism:
        src = restrict_module(ctx, f.source, verify=False)
        tgt = restrict_module(ctx, f.target, verify=False)
        return ModuleMorphism.build(src, tgt, N, pullback(ctx.morphism, f.comps, N))

    return _restricted(ctx, f, f.source.algebra, "morphism",
                       "morphism is not between modules over the target algebra", verify, build)


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
    back action (y, m) -> k_2(phi_1(y), m), everything in degree 0.  Agrees
    bit for bit with restrict_module on such inputs.  In degree 0 the maps
    are Lie-shaped and phi strict: f_n (degree n-1) for n >= 2, and l_k and
    k_k (degree k-2) for k >= 3, land where no space has elements, so they
    are zero maps, which no structure stores."""
    spaces = (phi.source.space, phi.target.space, module.space)
    if any(sp.degrees() not in ((), (0,)) for sp in spaces):
        raise ValueError("classical restriction needs everything in degree 0")
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
    # an arity-1 module map has no symmetric slots; only the slot space label changes
    k1 = module.op(1)
    ops = {1: SymMultiMap(1, k1.shift, phi.source.space, k1.codomain, k1.entries(),
                          last_space=k1.last_space),
           2: pulled}
    return LinfModule.build(phi.source, module.space, module.max_arity, ops)
