"""Strictly increasing multi-indices with permutation signatures.

A degree-p component of a form on R^n is keyed by a plain increasing tuple
of p axis labels in 1..n.  The only sign bookkeeping the whole calculus needs
is the parity of moving one axis into or out of an increasing tuple; both
directions are provided here and are exact inverses of each other.  Internal
keys come only from enumerate_indices, insert_axis and remove_axis, which
keep them increasing by construction; check_index validates an index that
comes from outside, and check_axis a single axis argument.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from typing import Optional

from .errors import DomainError


def check_index(axes, n: int, p: int) -> tuple[int, ...]:
    """An index given from outside as the increasing tuple of its p axis
    labels in 1..n; anything else raises DomainError."""
    axes = tuple(axes)
    prev = 0
    for a in axes:
        if type(a) is not int:
            raise DomainError(f"axis labels must be integers, got {a!r}")
        if a <= prev:
            raise DomainError(f"axes must be strictly increasing, got {axes}")
        prev = a
    if prev > n:
        raise DomainError(f"axes {axes} outside range 1..{n}")
    if len(axes) != p:
        raise DomainError(f"component index {axes} does not match ({n},{p})")
    return axes


def check_axis(axis, n: int) -> int:
    """An axis argument: an int (not a bool) in 1..n, else DomainError."""
    if type(axis) is not int or not 1 <= axis <= n:
        raise DomainError(f"axis {axis!r} outside range 1..{n}")
    return axis


def enumerate_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All C(n,p) increasing multi-indices of length p, in lexicographic order."""
    if p < 0 or p > n:
        raise DomainError(f"index length {p} outside 0..{n}")
    return tuple(itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=4096)
def insert_axis(j: int, index: tuple) -> Optional[tuple[int, tuple]]:
    """Sort axis j into an increasing index, tracking the permutation sign.

    Returns ``(sign, sorted_index)`` where sign is the parity of moving j from
    the front of (j, i1, ..., ip) into its sorted slot, or ``None`` when j is
    already present (the wedge with a repeated axis vanishes).
    """
    if j in index:
        return None
    pos = bisect_left(index, j)
    return (-1 if pos % 2 else 1), index[:pos] + (j,) + index[pos:]


@lru_cache(maxsize=4096)
def remove_axis(j: int, index: tuple) -> tuple[int, tuple]:
    """Remove axis j from an increasing index, returning the same sign

    that :func:`insert_axis` would report for putting it back.
    """
    if j not in index:
        raise DomainError(f"axis {j} not present in {index}")
    pos = index.index(j)
    return (-1 if pos % 2 else 1), index[:pos] + index[pos + 1:]
