"""
Bit-exact F2 linear algebra on graded spaces, and sparse storage/evaluation of
symmetric multilinear maps with a degree shift.

Elements are homogeneous: one integer degree plus a coordinate bit vector
packed into a Python int (bit i = coefficient of basis element i of that
degree).  Addition is xor, so x + x = 0 holds exactly.

A SymMultiMap of arity k stores its values on canonical multi-indices: tuples
of basis elements (degree, index), sorted over the symmetric slots.  Maps of
"module type" carry a distinguished final slot (a second space) that is never
sorted into the symmetric block.  Absent keys are zero.  Over F2 the
skew-symmetric maps of the theory are plainly symmetric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

__all__ = [
    "GradedSpace",
    "Elem",
    "Basis",
    "SymMultiMap",
    "zero_map",
    "flip_bit",
]

# a basis element: (degree, index)
Basis = Tuple[int, int]
Key = Tuple[Basis, ...]


def set_bits(bits: int) -> Iterator[int]:
    """The indices of the set bits, lowest first, one step per set bit."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class GradedSpace:
    """A finite-dimensional F2 vector space graded by integer degrees."""

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int]):
        for d, m in dims.items():
            if m < 0:
                raise ValueError(f"negative dimension {m} in degree {d}")
        # degrees with dimension 0 are legal on input and simply dropped
        self._dims: Tuple[Tuple[int, int], ...] = tuple(
            sorted((d, m) for d, m in dims.items() if m > 0)
        )

    def dim(self, degree: int) -> int:
        for d, m in self._dims:
            if d == degree:
                return m
        return 0

    def degrees(self) -> Tuple[int, ...]:
        return tuple(d for d, _ in self._dims)

    def dims(self) -> Mapping[int, int]:
        return dict(self._dims)

    @property
    def total_dim(self) -> int:
        return sum(m for _, m in self._dims)

    def basis(self) -> Tuple[Basis, ...]:
        """All basis elements as (degree, index), sorted."""
        return tuple((d, i) for d, m in self._dims for i in range(m))

    def zero(self, degree: int) -> "Elem":
        return Elem(degree, 0)

    def basis_elem(self, degree: int, index: int) -> "Elem":
        if not 0 <= index < self.dim(degree):
            raise ValueError(f"no basis element ({degree}, {index})")
        return Elem(degree, 1 << index)

    def elem(self, degree: int, bits: int) -> "Elem":
        if bits >> self.dim(degree):
            raise ValueError(f"bits {bits:b} exceed dim {self.dim(degree)} in degree {degree}")
        return Elem(degree, bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedSpace) and self._dims == other._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:
        return f"GradedSpace({dict(self._dims)})"


@dataclass(frozen=True)
class Elem:
    """A homogeneous element: a degree and a packed F2 coordinate vector."""

    degree: int
    bits: int

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "Elem") -> "Elem":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Elem(self.degree, self.bits ^ other.bits)

    __xor__ = __add__

    def indices(self) -> Iterator[int]:
        """Indices of the set bits (the basis elements appearing in the sum)."""
        return set_bits(self.bits)


def unit(b: Basis) -> Elem:
    """The basis element (degree, index) as an Elem."""
    return Elem(b[0], 1 << b[1])


class SymMultiMap:
    """A symmetric multilinear map stored sparsely on canonical multi-indices.

    ``sym_space`` is the space of the symmetric slots.  If ``last_space`` is
    given, the final slot is distinguished (module type): the map has
    ``arity - 1`` symmetric slots followed by one slot in ``last_space``.
    Every stored output satisfies  out degree = sum(input degrees) + shift.
    """

    __slots__ = ("arity", "shift", "sym_space", "last_space", "codomain", "_table")

    def __init__(
        self,
        arity: int,
        shift: int,
        sym_space: GradedSpace,
        codomain: GradedSpace,
        entries: Iterable[Tuple[Key, int]] = (),
        last_space: Optional[GradedSpace] = None,
    ):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.shift = shift
        self.sym_space = sym_space
        self.last_space = last_space
        self.codomain = codomain
        table: dict[Key, int] = {}
        for key, bits in entries:
            key = self._check_key(key)
            if bits >> codomain.dim(self._out_degree(key)):
                raise ValueError(f"output bits exceed codomain dimension for key {key}")
            merged = table.get(key, 0) ^ bits
            if merged:
                table[key] = merged
            else:
                table.pop(key, None)
        self._table = table

    # -- structure -----------------------------------------------------------

    @property
    def n_sym(self) -> int:
        return self.arity - 1 if self.last_space is not None else self.arity

    def _out_degree(self, args_degrees_or_key) -> int:
        return sum(b[0] for b in args_degrees_or_key) + self.shift

    def canonical_key(self, key: Sequence[Basis]) -> Key:
        """Sort the symmetric block; the distinguished final slot stays put."""
        k = self.n_sym
        return tuple(sorted(key[:k])) + tuple(key[k:])

    def _check_key(self, key: Sequence[Basis]) -> Key:
        if len(key) != self.arity:
            raise ValueError(f"key of length {len(key)} for arity {self.arity}")
        ckey = self.canonical_key(key)
        for slot, (d, i) in enumerate(ckey):
            space = self.last_space if (self.last_space is not None and slot == self.arity - 1) else self.sym_space
            if not 0 <= i < space.dim(d):
                raise ValueError(f"basis element {(d, i)} not in space of slot {slot}")
        return ckey

    def signature(self) -> tuple:
        return (self.arity, self.shift, self.sym_space, self.last_space, self.codomain)

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._table

    def witness(self) -> Optional[Tuple[Key, Elem]]:
        """A nonzero canonical entry, or None when the map is zero."""
        if not self._table:
            return None
        key = min(self._table)
        return key, Elem(self._out_degree(key), self._table[key])

    def entries(self) -> Tuple[Tuple[Key, int], ...]:
        return tuple(sorted(self._table.items()))

    def value(self, key: Sequence[Basis]) -> int:
        return self._table.get(self.canonical_key(key), 0)

    # -- evaluation -----------------------------------------------------------

    def eval(self, args: Sequence[Elem]) -> Elem:
        """Multilinear evaluation: expand each slot over its set bits and xor
        the canonical table lookups.  A degree with no basis contributes zero.
        """
        if len(args) != self.arity:
            raise ValueError(f"arity mismatch: {len(args)} args for arity {self.arity}")
        for slot, a in enumerate(args):
            space = self.last_space if (self.last_space is not None and slot == self.arity - 1) else self.sym_space
            if a.bits >> space.dim(a.degree):
                raise ValueError(f"argument in slot {slot} not homogeneous in its space")
        out_deg = sum(a.degree for a in args) + self.shift
        acc = 0
        if self._table:
            pools = [[(a.degree, i) for i in a.indices()] for a in args]
            for combo in itertools.product(*pools):
                acc ^= self._table.get(self.canonical_key(combo), 0)
        return Elem(out_deg, acc)

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "SymMultiMap") -> "SymMultiMap":
        if self.signature() != other.signature():
            raise ValueError("cannot add maps with different signatures")
        return SymMultiMap(
            self.arity,
            self.shift,
            self.sym_space,
            self.codomain,
            entries=list(self._table.items()) + list(other._table.items()),
            last_space=self.last_space,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymMultiMap)
            and self.signature() == other.signature()
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.signature(), tuple(sorted(self._table.items()))))

    def __repr__(self) -> str:
        kind = "module map" if self.last_space is not None else "map"
        return f"<{kind} arity={self.arity} shift={self.shift} entries={len(self._table)}>"


def zero_map(
    arity: int,
    shift: int,
    sym_space: GradedSpace,
    codomain: GradedSpace,
    last_space: Optional[GradedSpace] = None,
) -> SymMultiMap:
    """The zero map of the given signature."""
    return SymMultiMap(arity, shift, sym_space, codomain, (), last_space=last_space)


def flip_bit(m: SymMultiMap, key: Sequence[Basis], bit: int) -> SymMultiMap:
    """A copy of the map with one output bit toggled at the given multi-index.

    Used by mutation tests and nowhere in the constructions themselves.
    """
    ckey = m.canonical_key(key)
    out_dim = m.codomain.dim(sum(b[0] for b in ckey) + m.shift)
    if not 0 <= bit < out_dim:
        raise ValueError(f"bit {bit} out of range for output dimension {out_dim}")
    entries = list(m.entries()) + [(ckey, 1 << bit)]
    return SymMultiMap(
        m.arity, m.shift, m.sym_space, m.codomain, entries,
        last_space=m.last_space,
    )
