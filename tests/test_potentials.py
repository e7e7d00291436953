from fractions import Fraction

import pytest

from gauss_hodge.errors import DomainError
from gauss_hodge.potentials import parse_potential
from gauss_hodge.scalars import QC

from conftest import zzbar_poly_field

CAP = 8


def test_parse_z_conj_z():
    got = parse_potential("z*conj(z)", 1, CAP)
    assert got == zzbar_poly_field(1, CAP, {((1,), (1,)): 1})


def test_parse_polynomial_combination():
    got = parse_potential("2*z**2*conj(z) - 3*z + 1", 1, CAP)
    expected = zzbar_poly_field(1, CAP, {((2,), (1,)): 2, ((1,), (0,)): -3,
                                         ((0,), (0,)): 1})
    assert got == expected


def test_parse_multivariate():
    got = parse_potential("z1*conj(z2) + i*z2", 2, CAP)
    expected = zzbar_poly_field(2, CAP, {((1, 0), (0, 1)): 1,
                                         ((0, 1), (0, 0)): QC(0, 1)})
    assert got == expected


def test_parse_division_by_constant():
    got = parse_potential("z/2", 1, CAP)
    assert got == zzbar_poly_field(1, CAP, {((1,), (0,)): QC(Fraction(1, 2))})


def test_parse_caret_power_and_parens():
    got = parse_potential("(z + conj(z))^2", 1, CAP)
    expected = zzbar_poly_field(1, CAP, {((2,), (0,)): 1, ((1,), (1,)): 2,
                                         ((0,), (2,)): 1})
    assert got == expected


def test_parse_errors():
    with pytest.raises(DomainError):
        parse_potential("z/w", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z1/z1", 1, CAP)  # non-constant divisor
    with pytest.raises(DomainError):
        parse_potential("z2", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z", 2, CAP)
    with pytest.raises(DomainError):
        parse_potential("", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z**", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z**10", 1, 4)  # degree above capacity


@pytest.mark.parametrize("exact", [True, False])
def test_division_by_zero_is_named(exact):
    for text in ("z*conj(z)/0", "z/(1 - 1)", "z/(i*i + 1)"):
        with pytest.raises(DomainError, match="division by zero"):
            parse_potential(text, 1, CAP, exact)
    with pytest.raises(DomainError, match="only allowed by constants"):
        parse_potential("z/conj(z)", 1, CAP, exact)


def test_parse_nested_conj_and_signs():
    assert parse_potential("conj(conj(z))", 1, CAP) == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert parse_potential("--z", 1, CAP) == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert parse_potential("-(z - conj(z))", 1, CAP) == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): -1, ((0,), (1,)): 1})
    assert parse_potential("  z1 * conj( z2 ) ", 2, CAP) == \
        zzbar_poly_field(2, CAP, {((1, 0), (0, 1)): 1})
    # i behaves as the imaginary unit: i*i = -1
    assert parse_potential("i*i + 1", 1, CAP).is_zero()


def test_parse_float_mode():
    got = parse_potential("z*conj(z)", 1, CAP, exact=False)
    assert not got.exact
    assert abs(got.evaluate((1.0, 1.0)) - 2.0) < 1e-12
