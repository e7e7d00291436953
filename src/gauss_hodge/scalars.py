"""Scalar arithmetic: one scalar type and its file formats.

Every coefficient is a :class:`QC`, stored as (a + b i) / d with one reduced
integer triple, so products and sums run on integers with a single gcd.  Real
and complex coefficients alike are ``QC`` values; a real one has b == 0.
``fractions.Fraction`` appears only where real values leave the package:
``.re``/``.im``, norms, real inner products, evaluations and reports.

Doubles exist only at the file boundary.  Every double is a dyadic rational,
so a JSON number is read as its exact value (NaN and inf are refused).  JSON
parts are written from integers, ``number(num, den)``: ``fraction_str`` in
exact mode, the nearest double (``to_double``) in float mode; the arithmetic
in between is the same in both modes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DomainError, SolveNumericalError

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
    q = _new(QC)
    q._a, q._b, q._d = a, b, d
    return q


def _divide(x: tuple, y: tuple) -> QC:
    """x / y = f (a + b i)(c - e i) / (d (c^2 + e^2)) for x = (a, b, d), y = (c, e, f)."""
    (a, b, d), (c, e, f) = x, y
    den = c * c + e * e
    if den == 0:
        raise ZeroDivisionError("division by zero QC scalar")
    return _make(f * (a * c + b * e), f * (b * c - a * e), d * den)


IMAG_UNIT = QC(0, 1)
HALF = QC(Fraction(1, 2))


def coerce_scalar(value, complex_kind: bool) -> QC:
    """An int, Fraction or QC as a QC; a complex one only if ``complex_kind``."""
    if isinstance(value, QC):
        if not complex_kind:
            _require_real(value)
        return value
    if isinstance(value, int):
        return _raw(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _raw(value.numerator, 0, value.denominator)
    kind = "complex" if complex_kind else "real"
    raise DomainError(f"cannot coerce {value!r} to an exact {kind} scalar")


def to_double(num: int, den: int) -> float:
    """num / den (den > 0) rounded once to the nearest double, as float mode
    writes it; a value beyond the double range raises SolveNumericalError."""
    try:
        return num / den  # int true division is correctly rounded
    except OverflowError:
        g = math.gcd(num, den)
        bits = (num // g).bit_length() - (den // g).bit_length()
        raise SolveNumericalError(f"a value near 2^{bits} is outside the double range, "
                                  f"so its double is not finite") from None


def fraction_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, by one gcd and no Fraction."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def render_value(value, number=fraction_str):
    """One report value as JSON: a bool stays a bool (tested first, since a
    bool is an int), an int (a label or count) becomes its string, and each
    rational is written from its integers by ``number(num, den)``, a QC as its
    [re, im] pair: ``fraction_str`` for exact output, ``to_double`` for float."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, QC):
        return [number(value._a, value._d), number(value._b, value._d)]
    return number(value.numerator, value.denominator)


def json_int(value, name: str) -> int:
    """A count or degree given from outside: an int, not a float, a bool or a
    numeric string."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def scalar_from_json(re, im, complex_kind: bool) -> QC:
    """A coefficient read from its JSON parts: fraction strings, or JSON
    numbers at their exact double value; NaN, inf, true and false are refused."""
    if any(isinstance(x, bool) or isinstance(x, float) and not math.isfinite(x)
           for x in (re, im)):
        raise DomainError(f"coefficient part is a bool, NaN or inf: ({re}, {im})")
    re_f, im_f = Fraction(re), Fraction(im)
    if not complex_kind and im_f != 0:
        raise DomainError("nonzero imaginary part in a real field")
    return QC(re_f, im_f)
