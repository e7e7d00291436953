"""Scalar arithmetic for the two computation modes.

Exact mode works over the rationals: real scalars are ``fractions.Fraction``
and complex scalars are :class:`QC`, a complex number with rational real and
imaginary parts.  Float mode uses the native ``float`` / ``complex`` types.
A mode is never mixed within one computation; containers carry an ``exact``
flag and coerce their coefficients on construction.

All scalar types used here answer ``.real``, ``.imag`` and ``.conjugate()``,
which is the only interface the rest of the package relies on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError

Rat = Union[int, Fraction]


class QC:
    """A complex number with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- ring / field operations -------------------------------------------

    def _coerce(self, other) -> "QC | None":
        if isinstance(other, QC):
            return other
        if isinstance(other, (int, Fraction)):
            return QC(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero QC scalar")
        return QC((self.re * o.re + self.im * o.im) / den,
                  (self.im * o.re - self.re * o.im) / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("QC powers must be non-negative integers")
        out = QC(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- complex-number protocol -------------------------------------------

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def modulus_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_fraction(self) -> Fraction:
        if self.im != 0:
            raise DomainError(f"QC value {self!r} has a nonzero imaginary part")
        return self.re

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"QC({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


I_EXACT = QC(0, 1)


def imaginary_unit(exact: bool):
    return I_EXACT if exact else 1j


def zero_scalar(exact: bool, complex_kind: bool):
    if exact:
        return QC(0) if complex_kind else Fraction(0)
    return 0j if complex_kind else 0.0


def coerce_scalar(value, exact: bool, complex_kind: bool):
    """Bring an arbitrary numeric literal into the requested scalar universe."""
    if exact:
        if complex_kind:
            if isinstance(value, QC):
                return value
            if isinstance(value, (int, Fraction)):
                return QC(value)
            if isinstance(value, complex):
                raise DomainError("float-mode complex literal in an exact field")
            raise DomainError(f"cannot coerce {value!r} to an exact complex scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, QC):
            return value.to_fraction()
        raise DomainError(f"cannot coerce {value!r} to an exact real scalar")
    if complex_kind:
        if isinstance(value, QC):
            return complex(float(value.re), float(value.im))
        # + 0j turns a signed zero part into 0.0, so float output never shows -0.0
        return complex(value) + 0j
    if isinstance(value, complex):
        if value.imag != 0:
            raise DomainError("complex literal in a real float field")
        return value.real
    if isinstance(value, QC):
        return float(value.to_fraction())
    return float(value)


def conj(x):
    return x.conjugate()


def scalar_is_zero(x) -> bool:
    return not bool(x)


def scalar_to_json(x, exact: bool):
    """Render one scalar as (re, im) JSON values; strings in exact mode."""
    if exact:
        if isinstance(x, QC):
            return str(x.re), str(x.im)
        return str(Fraction(x)), "0"
    xc = complex(x)
    return xc.real, xc.imag


def scalar_from_json(re, im, exact: bool, complex_kind: bool):
    if exact:
        re_f = Fraction(re) if isinstance(re, str) else Fraction(re)
        im_f = Fraction(im) if isinstance(im, str) else Fraction(im)
        if complex_kind:
            return QC(re_f, im_f)
        if im_f != 0:
            raise DomainError("nonzero imaginary part in a real field")
        return re_f
    re_v = float(Fraction(re)) if isinstance(re, str) else float(re)
    im_v = float(Fraction(im)) if isinstance(im, str) else float(im)
    if not (math.isfinite(re_v) and math.isfinite(im_v)):
        raise DomainError(f"non-finite float coefficient ({re_v}, {im_v})")
    if complex_kind:
        return complex(re_v, im_v)
    if im_v != 0:
        raise DomainError("nonzero imaginary part in a real field")
    return re_v
