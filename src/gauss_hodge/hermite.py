"""One-dimensional physicists' Hermite algebra under the weight e^{-x^2}.

With H_0 = 1, H_1 = 2x and H_{k+1} = 2x H_k - 2k H_{k-1}, the three ladder
actions used everywhere in this package are exact on integer coefficients:

    d/dx H_k        =  2k H_{k-1}
    (d/dx - 2x) H_k =  -H_{k+1}
    x H_k           =  1/2 H_{k+1} + k H_{k-1}

Inner products are taken against the NORMALIZED measure pi^{-1/2} e^{-x^2} dx,
so that <H_j, H_k> = delta_jk 2^k k! is rational and exact arithmetic closes.
Every identity and bound in the package is homogeneous in the measure, so the
normalization drops out of all ratios; report files record it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import DegreeOverflowError, DomainError
from .scalars import coerce_scalar


def _scalar(value) -> Fraction:
    """A coefficient of this module: an int, Fraction or real QC as a Fraction."""
    return coerce_scalar(value, complex_kind=False).to_fraction()


class HermiteSeries:
    """A finite expansion sum_k c_k H_k with an optional degree capacity."""

    __slots__ = ("coeffs", "capacity")

    def __init__(self, coeffs: Sequence = (), capacity: Optional[int] = None):
        vals = [_scalar(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        if capacity is not None and len(vals) - 1 > capacity:
            raise DegreeOverflowError(
                f"series degree {len(vals) - 1} exceeds capacity {capacity}",
                required_capacity=len(vals) - 1)
        self.coeffs = tuple(vals)
        self.capacity = capacity

    @classmethod
    def zero(cls, capacity: Optional[int] = None) -> "HermiteSeries":
        return cls((), capacity)

    @classmethod
    def basis(cls, k: int, capacity: Optional[int] = None) -> "HermiteSeries":
        if k < 0:
            raise DomainError(f"basis degree must be non-negative, got {k}")
        return cls((0,) * k + (1,), capacity)

    @property
    def degree(self) -> Optional[int]:
        """Largest k with c_k != 0, or None for the zero series."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "HermiteSeries") -> "HermiteSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return HermiteSeries([self[k] + other[k] for k in range(n)], self.capacity)

    def __sub__(self, other: "HermiteSeries") -> "HermiteSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        return HermiteSeries([self[k] - other[k] for k in range(n)], self.capacity)

    def __neg__(self) -> "HermiteSeries":
        return HermiteSeries([-c for c in self.coeffs], self.capacity)

    def scale(self, s) -> "HermiteSeries":
        s = _scalar(s)
        return HermiteSeries([s * c for c in self.coeffs], self.capacity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermiteSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def to_json(self) -> dict:
        return {str(k): str(c) for k, c in enumerate(self.coeffs) if c}

    @classmethod
    def from_json(cls, data: dict, capacity: Optional[int] = None) -> "HermiteSeries":
        top = max((int(k) for k in data), default=-1)
        coeffs = [0] * (top + 1)
        for k, v in data.items():
            coeffs[int(k)] = Fraction(v)
        return cls(coeffs, capacity)


def differentiate(s: HermiteSeries) -> HermiteSeries:
    """d/dx via the lowering rule H_k -> 2k H_{k-1}."""
    out = [Fraction(0)] * max(len(s.coeffs) - 1, 0)
    for k in range(1, len(s.coeffs)):
        out[k - 1] = out[k - 1] + (2 * k) * s.coeffs[k]
    return HermiteSeries(out, s.capacity)


def apply_delta(s: HermiteSeries) -> HermiteSeries:
    """The twisted derivative delta = d/dx - 2x, a pure raising ladder: H_k -> -H_{k+1}."""
    if s.is_zero():
        return HermiteSeries.zero(s.capacity)
    if s.capacity is not None and len(s.coeffs) > s.capacity:
        raise DegreeOverflowError(
            f"delta would raise degree to {len(s.coeffs)} beyond capacity {s.capacity}",
            required_capacity=len(s.coeffs))
    out = [Fraction(0)] * (len(s.coeffs) + 1)
    for k, c in enumerate(s.coeffs):
        out[k + 1] = out[k + 1] - c
    return HermiteSeries(out, s.capacity)


def multiply_by_coordinate(s: HermiteSeries) -> HermiteSeries:
    """Multiplication by x via the three-term recurrence x H_k = 1/2 H_{k+1} + k H_{k-1}."""
    if s.is_zero():
        return HermiteSeries.zero(s.capacity)
    if s.capacity is not None and len(s.coeffs) > s.capacity:
        raise DegreeOverflowError(
            f"coordinate multiplication would raise degree to {len(s.coeffs)} "
            f"beyond capacity {s.capacity}",
            required_capacity=len(s.coeffs))
    out = [Fraction(0)] * (len(s.coeffs) + 1)
    for k, c in enumerate(s.coeffs):
        out[k + 1] = out[k + 1] + c / 2
        if k >= 1:
            out[k - 1] = out[k - 1] + k * c
    return HermiteSeries(out, s.capacity)


def hermite_sq_norm(k: int) -> int:
    """<H_k, H_k> = 2^k k! under the normalized measure."""
    out = 1
    for i in range(1, k + 1):
        out *= 2 * i
    return out


def inner_product_1d(s: HermiteSeries, t: HermiteSeries):
    """<s, t> = sum_k c_k d_k 2^k k!."""
    total = Fraction(0)
    for k in range(min(len(s.coeffs), len(t.coeffs))):
        total = total + s.coeffs[k] * t.coeffs[k] * hermite_sq_norm(k)
    return total


def evaluate(s: HermiteSeries, x):
    """Evaluate via the forward recurrence H_{k+1} = 2x H_k - 2k H_{k-1}."""
    if s.is_zero():
        return Fraction(0)
    total = Fraction(0)
    h_prev, h_cur = None, Fraction(1)
    for k in range(len(s.coeffs)):
        if k > 0:
            h_next = 2 * x * h_cur - (2 * (k - 1)) * (h_prev if h_prev is not None else 0)
            h_prev, h_cur = h_cur, h_next
        total = total + s.coeffs[k] * h_cur
    return total
