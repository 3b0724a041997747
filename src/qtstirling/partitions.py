"""Integer partitions with an explicit ambient length n.

The ambient length is part of a partition's identity: (2, 1) with n = 2 and
(2, 1, 0) with n = 3 index different quantities, because every formula here
depends on n.  Enumeration order is lexicographic ascending throughout, so
reports and tables are reproducible.

Every enumerator walks a box of the lattice: the weakly decreasing tuples
with lo_i <= v_i <= hi_i for per-part bounds (lo_i, hi_i).  One memo, `_box`,
under the package's memo policy, holds the tuple of Partitions of each box
it has seen, built without validation since each is valid by construction,
so an interval that the sums visit again is not rebuilt.  A box of more than
_BOX_MAX partitions is not kept: it is enumerated afresh each time, so an
enumeration never holds more of a huge box at once than that.  A count that
must refuse a huge bound, such as the cap on a table's work, stays lazy: it
walks `_bounded_descending` itself, never the memo, and stops one past its
cap.
"""

from __future__ import annotations

from itertools import islice
from math import comb
from operator import index
from typing import Iterator, Sequence

from .algebra import memo

__all__ = [
    "Partition",
    "zeros",
    "rectangle",
    "weight",
    "n_stat",
    "n_stat_conj",
    "contains",
    "is_horizontal_strip",
    "subpartitions",
    "horizontal_strip_predecessors",
    "partitions_between",
    "partitions_in_box",
]


class Partition:
    """Weakly decreasing nonnegative integers; trailing zeros are significant.

    Immutable: equal only to a Partition of equal parts, hashable (the hash
    is kept once computed), and assigning an attribute raises AttributeError.
    Each part must be an integer (operator.index), so a float or a string is
    a TypeError rather than a truncated part.
    """

    __slots__ = ("parts", "_hash")
    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(map(index, parts))
        if not parts:
            raise ValueError("ambient length must be at least 1")
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        _set_parts(self, parts)
        _set_hash(self, hash((parts,)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Partition, (self.parts,)

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"


_set_parts = Partition.parts.__set__
_set_hash = Partition._hash.__set__


def _trusted(parts: tuple[int, ...]) -> Partition:
    """The Partition of parts that are already a valid tuple, without the checks."""
    mu = object.__new__(Partition)
    _set_parts(mu, parts)
    _set_hash(mu, hash((parts,)))
    return mu


def zeros(n: int) -> Partition:
    """The empty partition with ambient length n."""
    return Partition((0,) * n)


def rectangle(k: int, n: int) -> Partition:
    """The rectangular partition (k, ..., k) with n parts."""
    return Partition((k,) * n)


def weight(mu: Partition) -> int:
    """|mu|, the sum of the parts."""
    return sum(mu.parts)


def n_stat(mu: Partition) -> int:
    """n(mu) = sum (i-1) * mu_i."""
    return sum(i * p for i, p in enumerate(mu.parts))


def n_stat_conj(mu: Partition) -> int:
    """n(mu') = sum binomial(mu_i, 2)."""
    return sum(comb(p, 2) for p in mu.parts)


def _check_ambient(lam: Partition, mu: Partition):
    if lam.n != mu.n:
        raise ValueError(f"ambient mismatch: {lam} has n={lam.n}, {mu} has n={mu.n}")


def contains(lam: Partition, mu: Partition) -> bool:
    """The inclusion ordering: mu_i <= lam_i for all i."""
    _check_ambient(lam, mu)
    return all(m <= l for l, m in zip(lam.parts, mu.parts))


def is_horizontal_strip(lam: Partition, nu: Partition) -> bool:
    """Interlacing lam_1 >= nu_1 >= lam_2 >= nu_2 >= ... >= lam_n >= nu_n."""
    _check_ambient(lam, nu)
    for i in range(lam.n):
        if not lam.parts[i] >= nu.parts[i]:
            return False
        if i + 1 < lam.n and not nu.parts[i] >= lam.parts[i + 1]:
            return False
    return True


def _bounded_descending(bounds: Sequence[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    # all tuples with lo_i <= v_i <= hi_i, lexicographically ascending
    if not bounds:
        yield ()
        return
    lo, hi = bounds[0]
    for v in range(lo, hi + 1):
        for rest in _bounded_descending([(l, min(h, v)) for l, h in bounds[1:]]):
            yield (v,) + rest


#: The most partitions `_box` keeps for one box; a larger box is enumerated afresh.
_BOX_MAX = 100000


@memo
def _box(bounds: tuple[tuple[int, int], ...]):
    """The Partitions of a box, lexicographically ascending, or None past _BOX_MAX."""
    parts = list(islice(_bounded_descending(bounds), _BOX_MAX + 1))
    return None if len(parts) > _BOX_MAX else tuple(map(_trusted, parts))


def _walk(bounds: tuple[tuple[int, int], ...]) -> Iterator[Partition]:
    box = _box(bounds)
    if box is None:
        return map(_trusted, _bounded_descending(bounds))
    return iter(box)


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All mu with mu contained in lam, lexicographically ascending."""
    return _walk(tuple((0, p) for p in lam.parts))


def horizontal_strip_predecessors(lam: Partition) -> Iterator[Partition]:
    """All nu such that lam/nu is a horizontal strip, lexicographically ascending."""
    # lam_{i+1} <= nu_i <= lam_i
    return _walk(tuple(zip(lam.parts[1:] + (0,), lam.parts)))


def partitions_between(mu: Partition, lam: Partition) -> Iterator[Partition]:
    """All nu with mu contained in nu contained in lam, lexicographically ascending."""
    _check_ambient(lam, mu)
    return _walk(tuple(zip(mu.parts, lam.parts)))


def partitions_in_box(n: int, part_max: int) -> Iterator[Partition]:
    """All partitions with ambient length n and parts at most part_max."""
    return subpartitions(rectangle(part_max, n))
