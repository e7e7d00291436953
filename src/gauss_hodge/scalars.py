"""Scalar arithmetic for the two computation modes.

Exact mode has one scalar type, :class:`QC`, stored as (a + b i) / d with one
reduced integer triple, so products and sums run on integers with a single
gcd.  Real and complex coefficients alike are ``QC`` values; a real one has
b == 0.  ``fractions.Fraction`` appears only where real values leave the
package: ``.re``/``.im``, norms, real inner products, evaluations, reports
and JSON.  Float mode uses the native ``float`` / ``complex`` types.
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
    """A complex number (a + b i) / d with integers a, b and d > 0 in lowest
    terms, gcd(a, b, d) == 1, so each value has exactly one representation.

    ``int`` and ``Fraction`` operands enter the integer formulas directly as
    (n, 0, 1) and (p, 0, q).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)
        # over the lcm of two reduced denominators, gcd(a, b, d) is already 1
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    # -- ring / field operations -------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        return _make(self._a * f + c * d, self._b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        return _make(self._a * f - c * d, self._b * f - e * d, d * f)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self._d
        return _make(c * d - self._a * f, e * d - self._b * f, d * f)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b = self._a, self._b
        return _make(a * c - b * e, a * e + b * c, self._d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide((self._a, self._b, self._d), o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(o, (self._a, self._b, self._d))

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("QC powers must be non-negative integers")
        out = _raw(1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- complex-number protocol -------------------------------------------

    def conjugate(self) -> "QC":
        return _raw(self._a, -self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    real = re
    imag = im

    def modulus_sq(self) -> Fraction:
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def to_fraction(self) -> Fraction:
        _require_real(self)
        return Fraction(self._a, self._d)

    def __float__(self) -> float:
        _require_real(self)
        return self._a / self._d

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == o

    def __hash__(self):
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        return f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"


def _require_real(q: QC):
    if q._b:
        raise DomainError(f"QC value {q!r} has a nonzero imaginary part")


def _parts(x):
    """(a, b, d) of an exact scalar with value (a + b i) / d, or None."""
    if isinstance(x, QC):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


_new = object.__new__


def _raw(a: int, b: int, d: int) -> QC:
    """A QC from parts already in lowest terms with d > 0."""
    q = _new(QC)
    q._a, q._b, q._d = a, b, d
    return q


def _make(a: int, b: int, d: int) -> QC:
    """A QC from any parts with d > 0, reduced by one three-way gcd."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _divide(x: tuple, y: tuple) -> QC:
    """x / y = f (a + b i)(c - e i) / (d (c^2 + e^2)) for x = (a, b, d), y = (c, e, f)."""
    (a, b, d), (c, e, f) = x, y
    den = c * c + e * e
    if den == 0:
        raise ZeroDivisionError("division by zero QC scalar")
    return _make(f * (a * c + b * e), f * (b * c - a * e), d * den)


I_EXACT = QC(0, 1)
HALF_EXACT = QC(Fraction(1, 2))


def imaginary_unit(exact: bool):
    return I_EXACT if exact else 1j


def one_half(exact: bool):
    return HALF_EXACT if exact else 0.5


def zero_scalar(exact: bool, complex_kind: bool):
    """The zero of the values a field returns: inner products and evaluations."""
    if exact:
        return QC(0) if complex_kind else Fraction(0)
    return 0j if complex_kind else 0.0


def coerce_scalar(value, exact: bool, complex_kind: bool):
    """Bring an arbitrary numeric literal into the requested scalar universe."""
    if exact:
        if isinstance(value, QC):
            if not complex_kind:
                _require_real(value)
            return value
        if isinstance(value, int):
            return _raw(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _raw(value.numerator, 0, value.denominator)
        if complex_kind and isinstance(value, complex):
            raise DomainError("float-mode complex literal in an exact field")
        kind = "complex" if complex_kind else "real"
        raise DomainError(f"cannot coerce {value!r} to an exact {kind} scalar")
    if complex_kind:
        if isinstance(value, QC):
            return complex(float(value.re), float(value.im))
        # + 0j turns a signed zero part into 0.0, so float output never shows -0.0
        return complex(value) + 0j
    if isinstance(value, complex):
        if value.imag != 0:
            raise DomainError("complex literal in a real float field")
        return value.real
    return float(value)


def scalar_to_json(x, exact: bool):
    """Render one scalar as (re, im) JSON values; strings in exact mode."""
    if exact:
        return str(x.real), str(x.imag)
    xc = complex(x)
    return xc.real, xc.imag


def render_value(value):
    """One report value as JSON: a bool stays a bool (tested first, since a
    bool is an int), an int or Fraction becomes its string, a QC or complex
    its [re, im] pair, and anything else a float."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (Fraction, int)):
        return str(value)
    if isinstance(value, QC):
        return [str(value.re), str(value.im)]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return float(value)


def scalar_from_json(re, im, exact: bool, complex_kind: bool):
    if exact:
        re_f = Fraction(re)
        im_f = Fraction(im)
        if not complex_kind and im_f != 0:
            raise DomainError("nonzero imaginary part in a real field")
        return QC(re_f, im_f)
    re_v = float(Fraction(re)) if isinstance(re, str) else float(re)
    im_v = float(Fraction(im)) if isinstance(im, str) else float(im)
    if not (math.isfinite(re_v) and math.isfinite(im_v)):
        raise DomainError(f"non-finite float coefficient ({re_v}, {im_v})")
    if complex_kind:
        return complex(re_v, im_v)
    if im_v != 0:
        raise DomainError("nonzero imaginary part in a real field")
    return re_v
