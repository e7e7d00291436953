"""QC against a reference built from (Fraction, Fraction) pairs.

QC stores (a + b i) / d as one reduced integer triple; the reference below
keeps the real and imaginary parts as two Fractions and applies the textbook
complex formulas, so the two share no arithmetic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_hodge.errors import DomainError
from gauss_hodge.scalars import QC

EXACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ZERO = Fraction(0)
rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
# real QCs and zero parts are common in the package, so draw them often
parts = st.one_of(st.just(ZERO), rationals)


@st.composite
def qcs(draw):
    """A QC with its reference pair."""
    re, im = draw(parts), draw(parts)
    return QC(re, im), (re, im)


@st.composite
def operands(draw):
    """An exact scalar of any type QC takes, with its reference pair."""
    kind = draw(st.sampled_from(("QC", "int", "Fraction")))
    if kind == "QC":
        return draw(qcs())
    if kind == "int":
        n = draw(st.integers(-30, 30))
        return n, (Fraction(n), ZERO)
    r = draw(rationals)
    return r, (r, ZERO)


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den


def ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    return f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"


def ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def assert_canonical(q):
    assert type(q) is QC
    assert q._d > 0
    assert math.gcd(q._a, q._b, q._d) == 1


def assert_matches(got, want):
    assert_canonical(got)
    assert (got.re, got.im) == want
    assert (got.real, got.imag) == want
    assert got == QC(*want)


@EXACT
@given(qcs(), operands())
def test_binary_operations_match_reference(x, y):
    (xv, xr), (yv, yr) = x, y
    assert_matches(xv + yv, ref_add(xr, yr))
    assert_matches(yv + xv, ref_add(yr, xr))
    assert_matches(xv - yv, ref_sub(xr, yr))
    assert_matches(yv - xv, ref_sub(yr, xr))
    assert_matches(xv * yv, ref_mul(xr, yr))
    assert_matches(yv * xv, ref_mul(yr, xr))
    if yr != (ZERO, ZERO):
        assert_matches(xv / yv, ref_div(xr, yr))
    if xr != (ZERO, ZERO):
        assert_matches(yv / xv, ref_div(yr, xr))


@EXACT
@given(qcs(), operands())
def test_equality_and_hash_match_reference(x, y):
    (xv, xr), (yv, yr) = x, y
    assert (xv == yv) == (xr == yr)
    assert (yv == xv) == (xr == yr)
    assert (xv != yv) == (xr != yr)
    assert hash(xv) == ref_hash(xr)
    if xr[1] == 0:
        assert hash(xv) == hash(xr[0])


@EXACT
@given(qcs(), st.integers(0, 5))
def test_unary_operations_match_reference(x, k):
    xv, xr = x
    assert_canonical(xv)
    assert_matches(-xv, (-xr[0], -xr[1]))
    assert_matches(xv.conjugate(), (xr[0], -xr[1]))
    power = (Fraction(1), ZERO)
    for _ in range(k):
        power = ref_mul(power, xr)
    assert_matches(xv ** k, power)
    assert xv.modulus_sq() == xr[0] * xr[0] + xr[1] * xr[1]
    assert type(xv.modulus_sq()) is Fraction
    if xr[1] == 0:
        assert xv.to_fraction() == xr[0]
    else:
        with pytest.raises(DomainError):
            xv.to_fraction()
    assert bool(xv) == (xr != (ZERO, ZERO))
    assert str(xv) == ref_str(xr)
    assert repr(xv) == f"QC({xr[0]}, {xr[1]})"


def test_equal_values_share_one_representation():
    third = QC(Fraction(2, 6), Fraction(-4, 12))
    assert (third._a, third._b, third._d) == (1, -1, 3)
    assert QC(1, -1) / 3 == third
    assert hash(QC(1, -1) / 3) == hash(third)
    assert QC(Fraction(6, 4)) == Fraction(3, 2) and Fraction(3, 2) == QC(Fraction(6, 4))
    assert {QC(2): "x"}[2] == "x"
    zero = QC(5, 5) - QC(5, 5)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)


def test_division_by_zero_raises():
    for num in (QC(0), QC(1, 2), 1, Fraction(1, 2)):
        for den in (0, Fraction(0), QC(0)):
            if isinstance(num, QC) or isinstance(den, QC):
                with pytest.raises(ZeroDivisionError):
                    num / den


def test_bad_powers_and_operands_are_rejected():
    with pytest.raises(DomainError):
        QC(1, 1) ** -1
    with pytest.raises(TypeError):
        QC(1) + 1.5
    with pytest.raises(TypeError):
        1j * QC(1)
    assert QC(1) != 1.0
