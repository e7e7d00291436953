"""Strictly increasing multi-indices with permutation signatures.

A degree-p component of a form on R^n is keyed by an increasing tuple of
axis labels in 1..n.  The only sign bookkeeping the whole calculus needs is
the parity of moving one axis into or out of an increasing tuple; both
directions are provided here and are exact inverses of each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import DomainError


@dataclass(frozen=True)
class MultiIndex:
    """An increasing tuple of axis labels (1-based) in an n-dimensional space."""

    axes: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"ambient dimension must be non-negative, got {self.n}")
        prev = 0
        for a in self.axes:
            if not isinstance(a, int):
                raise DomainError(f"axis labels must be integers, got {a!r}")
            if a <= prev:
                raise DomainError(f"axes must be strictly increasing, got {self.axes}")
            prev = a
        if self.axes and (self.axes[0] < 1 or self.axes[-1] > self.n):
            raise DomainError(f"axes {self.axes} outside range 1..{self.n}")

    @property
    def p(self) -> int:
        return len(self.axes)

    def __len__(self) -> int:
        return len(self.axes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.axes)

    def __contains__(self, axis: int) -> bool:
        return axis in self.axes

    def _check_comparable(self, other: "MultiIndex"):
        if not isinstance(other, MultiIndex):
            raise DomainError(f"cannot compare MultiIndex with {type(other).__name__}")
        if self.n != other.n:
            raise DomainError("cannot order multi-indices of different ambient dimension")

    def __lt__(self, other: "MultiIndex") -> bool:
        self._check_comparable(other)
        return self.axes < other.axes

    def __le__(self, other: "MultiIndex") -> bool:
        self._check_comparable(other)
        return self.axes <= other.axes

    def __gt__(self, other: "MultiIndex") -> bool:
        return not self.__le__(other)

    def __ge__(self, other: "MultiIndex") -> bool:
        return not self.__lt__(other)

    def to_json(self) -> list[int]:
        return list(self.axes)

    @classmethod
    def from_json(cls, data, n: int) -> "MultiIndex":
        return cls(tuple(int(a) for a in data), n)


def enumerate_indices(n: int, p: int) -> tuple[MultiIndex, ...]:
    """All C(n,p) increasing multi-indices of length p, in lexicographic order."""
    if p < 0 or p > n:
        raise DomainError(f"index length {p} outside 0..{n}")
    return tuple(MultiIndex(c, n) for c in itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=4096)
def insert_axis(j: int, index: MultiIndex) -> Optional[tuple[int, MultiIndex]]:
    """Sort axis j into an increasing index, tracking the permutation sign.

    Returns ``(sign, sorted_index)`` where sign is the parity of moving j from
    the front of (j, i1, ..., ip) into its sorted slot, or ``None`` when j is
    already present (the wedge with a repeated axis vanishes).
    """
    if j < 1 or j > index.n:
        raise DomainError(f"axis {j} outside range 1..{index.n}")
    if j in index.axes:
        return None
    pos = 0
    while pos < len(index.axes) and index.axes[pos] < j:
        pos += 1
    sign = -1 if pos % 2 else 1
    axes = index.axes[:pos] + (j,) + index.axes[pos:]
    return sign, MultiIndex(axes, index.n)


@lru_cache(maxsize=4096)
def remove_axis(j: int, index: MultiIndex) -> tuple[int, MultiIndex]:
    """Remove axis j from an increasing index, returning the same sign

    that :func:`insert_axis` would report for putting it back.
    """
    if j not in index.axes:
        raise DomainError(f"axis {j} not present in {index.axes}")
    pos = index.axes.index(j)
    sign = -1 if pos % 2 else 1
    axes = index.axes[:pos] + index.axes[pos + 1:]
    return sign, MultiIndex(axes, index.n)
