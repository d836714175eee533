"""
Permutations of {1, ..., n} in one-line notation, and the unshuffle families
that the oracle and the command line read; the fast path in ``structures``
uses none of them.

Conventions
-----------
- A permutation sigma is stored as the tuple of its images: ``images[k-1] =
  sigma(k)``.  Positions and values are 1-indexed, matching the usual S_n
  notation; the 0-indexed storage is internal.
- The tuple action is ``apply(sigma, xs)[k] = xs[sigma(k)]`` (both sides
  1-indexed).  In tensor language this is the map sending x_1 (x) ... (x) x_n
  to x_{sigma(1)} (x) ... (x) x_{sigma(n)}.

An (i_1, ..., i_r)-unshuffle is a permutation that is increasing within each
consecutive block of the given sizes.  The primed family additionally requires
the block sizes to be nondecreasing and the first elements of consecutive
equal-size blocks to be increasing; its members are in bijection with the ways
of placing {1..n} into an *unordered* collection of boxes of those sizes.

Every unshuffle family is one cached enumerator of 0-based image tuples,
``_indices``, or a filter on it (primed, anchored); the oracle reads those
tuples directly.  ``Perm`` objects are built from them only at the public
boundary, without re-checking what the enumerator makes a bijection.

The empty permutation ``Perm(())`` is allowed (it is the unique element of
S_0 and shows up as the vacuous inner sum of arity-1 relations), but
``identity(0)`` is rejected.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence, Tuple, TypeVar

T = TypeVar("T")

__all__ = [
    "Perm",
    "BlockSpec",
    "identity",
    "apply",
    "unshuffles",
    "primed_unshuffles",
    "filtered_unshuffles",
    "slot_rotation",
    "ordered_partitions",
    "one_line",
]


@dataclass(frozen=True)
class Perm:
    """A permutation of {1, ..., n}, stored as its image tuple.

    >>> s = Perm((2, 3, 1))
    >>> s(1), s(2), s(3)
    (2, 3, 1)
    """

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        """The image sigma(k), 1-indexed."""
        return self.images[k - 1]

    def __repr__(self) -> str:
        return f"Perm({self.images})"

    def __str__(self) -> str:
        return one_line(self)


@dataclass(frozen=True)
class BlockSpec:
    """A composition (i_1, ..., i_r) of n = sum(sizes) into positive parts.

    An empty spec (no blocks, n = 0) is permitted; it indexes the vacuous
    unshuffle family {Perm(())}.
    """

    sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.sizes):
            raise ValueError(f"block sizes must be >= 1: {self.sizes}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.sizes, self.sizes[1:]))

    def __repr__(self) -> str:
        return f"BlockSpec({self.sizes})"

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self.sizes) + ")"


def identity(n: int) -> Perm:
    """The identity of S_n, n >= 1.

    >>> identity(3)
    Perm((1, 2, 3))
    """
    if n < 1:
        raise ValueError("identity requires n >= 1")
    return Perm(tuple(range(1, n + 1)))


def apply(sigma: Perm, xs: Sequence[T]) -> Tuple[T, ...]:
    """Rearrange a tuple: result[k] = xs[sigma(k)].

    >>> apply(Perm((2, 1)), ("a", "b"))
    ('b', 'a')
    """
    if len(xs) != sigma.n:
        raise ValueError(f"length mismatch: permutation of {sigma.n}, tuple of {len(xs)}")
    return tuple(xs[i - 1] for i in sigma.images)


@functools.lru_cache(maxsize=256)
def _indices(sizes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The unshuffles as 0-based image tuples, lexicographically: each
    sizes[0]-combination of range(n), then those of sizes[1:] mapped through
    its increasing complement, a bijection by construction.  Zero sizes allowed."""
    if not sizes:
        return ((),)
    n, first = sum(sizes), sizes[0]
    # on at most one remaining slot the only tail is the identity
    gets = [operator.itemgetter(*idx) for idx in _indices(sizes[1:])] if n - first > 1 else [tuple]
    out: list = []
    for chosen in itertools.combinations(range(n), first):
        complement = tuple(k for k in range(n) if k not in chosen)
        out += [chosen + get(complement) for get in gets]
    return tuple(out)


@functools.lru_cache(maxsize=256)
def _primed(sizes: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The primed unshuffles of nondecreasing sizes as 0-based image tuples:
    the first index of each block is below that of the next equal-size block."""
    s = tuple(itertools.accumulate(sizes, initial=0))
    ties = [(s[l], s[l + 1]) for l in range(len(sizes) - 1) if sizes[l] == sizes[l + 1]]
    return tuple(idx for idx in _indices(sizes) if all(idx[a] < idx[b] for a, b in ties))


@functools.lru_cache(maxsize=1024)
def _anchored(sizes: Tuple[int, ...], position: int, value: int) -> Tuple[Tuple[int, ...], ...]:
    """The unshuffles with sigma(position) == value (1-based), 0-based tuples."""
    return tuple(idx for idx in _indices(sizes) if idx[position - 1] == value - 1)


@functools.lru_cache(maxsize=64)
def _compositions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The nondecreasing compositions of n >= 0, lexicographically; ((),) for 0."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(1, n + 1)
                 for rest in _compositions(n - first) if not rest or rest[0] >= first)


def _perms(family: Tuple[Tuple[int, ...], ...]) -> Tuple[Perm, ...]:
    """Perms of 0-based image tuples that are bijections by construction, so
    Perm's check is skipped."""
    out = []
    for idx in family:
        p = object.__new__(Perm)
        object.__setattr__(p, "images", tuple([k + 1 for k in idx]))
        out.append(p)
    return tuple(out)


def unshuffles(spec: BlockSpec) -> Tuple[Perm, ...]:
    """All (i_1, ..., i_r)-unshuffles of S_n, lexicographic on the images.

    The count is the multinomial n! / (i_1! ... i_r!).

    >>> [one_line(p) for p in unshuffles(BlockSpec((1, 3)))]
    ['1234', '2134', '3124', '4123']
    """
    return _perms(_indices(spec.sizes))


def primed_unshuffles(spec: BlockSpec) -> Tuple[Perm, ...]:
    """The S' family: unshuffles for nondecreasing sizes, with ties between
    equal-size blocks broken by the order of their first elements.

    >>> [one_line(p) for p in primed_unshuffles(BlockSpec((1, 1)))]
    ['12']
    """
    if not spec.is_sorted():
        raise ValueError(f"primed unshuffles need nondecreasing sizes: {spec.sizes}")
    return _perms(_primed(spec.sizes))


def filtered_unshuffles(spec: BlockSpec, position: int, value: int) -> Tuple[Perm, ...]:
    """Unshuffles of the given block sizes with the extra anchor sigma(position) == value."""
    n = spec.n
    if not (1 <= position <= n and 1 <= value <= n):
        raise ValueError(f"anchor ({position}, {value}) out of range for n={n}")
    return _perms(_anchored(spec.sizes, position, value))


def slot_rotation(n: int, p: int) -> Perm:
    """The cycle on q = n - p + 1 slots moving slot 1 to the end.

    Applied to (y, x_1, ..., x_{q-1}) it yields (x_1, ..., x_{q-1}, y); this
    is the rotation that moves a freshly produced module element past the
    remaining inputs into the final slot.

    >>> slot_rotation(3, 1)
    Perm((2, 3, 1))
    """
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    q = n - p + 1
    return Perm(tuple(range(2, q + 1)) + (1,))


def ordered_partitions(n: int) -> Tuple[BlockSpec, ...]:
    """All partitions of n written in nondecreasing order, lexicographically.

    >>> [s.sizes for s in ordered_partitions(3)]
    [(1, 1, 1), (1, 2), (3,)]
    """
    if n < 1:
        raise ValueError("ordered_partitions requires n >= 1")
    return tuple(BlockSpec(sizes) for sizes in _compositions(n))


def one_line(p: Perm) -> str:
    """One-line notation, e.g. "2413"; comma-separated once n > 9."""
    if p.n > 9:
        return ",".join(str(i) for i in p.images)
    return "".join(str(i) for i in p.images)
