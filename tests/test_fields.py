import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_hodge.calculus import delta_z, delta_zbar, wirtinger_dz, wirtinger_dzbar
from gauss_hodge.errors import DegreeOverflowError, DimensionMismatchError, DomainError
from gauss_hodge.fields import ScalarField
from gauss_hodge.hermite import HermiteSeries, apply_delta, differentiate, inner_product_1d
from gauss_hodge.randomforms import (random_closed_pform, random_dbar_closed_form01,
                                     random_scalar_field)
from gauss_hodge.scalars import QC
from gauss_hodge.solver import solve_d_min_norm_full, solve_dbar_min_norm_full

from conftest import gaussian_moment

CAP = 10


def x(axis, m=2, kind="real"):
    return ScalarField.coordinate(axis, m, CAP, kind)


def const(v, m=2, kind="real"):
    return ScalarField.constant(v, m, CAP, kind)


@st.composite
def fields_1d(draw):
    n_terms = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n_terms):
        deg = draw(st.integers(0, 7))
        coeffs[(deg,)] = Fraction(draw(st.integers(-9, 9)))
    return ScalarField(1, CAP, "real", True, coeffs)


@st.composite
def fields_2d(draw):
    n_terms = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n_terms):
        d = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        coeffs[d] = Fraction(draw(st.integers(-9, 9)))
    return ScalarField(2, CAP, "real", True, coeffs)


def test_partial_derivative_examples():
    assert x(1).partial_derivative(1) == const(1)
    x1sq_x2 = x(1).multiply(x(1)).multiply(x(2)).with_capacity(CAP)
    assert x1sq_x2.partial_derivative(2) == x(1).multiply(x(1)).with_capacity(CAP)
    assert const(1).partial_derivative(2).is_zero()


def test_apply_delta_examples():
    # delta_1(1) = -2 x_1
    assert const(1).apply_delta(1) == x(1).scale(-2)
    # delta_1(x_1) = 1 - 2 x_1^2
    expected = const(1) - x(1).multiply(x(1)).with_capacity(CAP).scale(2)
    assert x(1).apply_delta(1) == expected
    # delta_1(x_2) = -2 x_1 x_2
    assert x(2).apply_delta(1) == x(1).multiply(x(2)).with_capacity(CAP).scale(-2)


def test_weighted_inner_examples():
    assert x(1).weighted_inner(x(1)) == Fraction(1, 2)
    assert const(1).weighted_inner(const(1)) == 1
    assert x(1).weighted_inner(x(2)) == 0


def test_weighted_inner_conjugates_second_argument():
    i = QC(0, 1)
    f = const(1, kind="complex").scale(i)
    g = const(1, kind="complex")
    assert f.weighted_inner(g) == i
    assert g.weighted_inner(f) == -i


def test_evaluate_examples():
    f = x(1).multiply(x(2)).with_capacity(CAP)
    assert f.evaluate((1, 2)) == 2
    assert ScalarField.zero(2, CAP).evaluate((3, 4)) == 0
    assert x(1).multiply(x(1)).with_capacity(CAP).evaluate(
        (Fraction(1, 2), 7)) == Fraction(1, 4)


def test_moment_oracle_against_multiply():
    # <x^2, x^2> on one axis via monomial moments: E[x^4] = 3/4
    x1 = ScalarField.coordinate(1, 1, CAP)
    sq = x1.multiply(x1)
    assert sq.weighted_inner(sq) == gaussian_moment(4)
    assert sq.weighted_inner(ScalarField.constant(1, 1, sq.max_total_degree)) \
        == gaussian_moment(2)


def test_axiswise_ops_match_1d_module():
    coeffs = [Fraction(3), Fraction(-1), Fraction(0), Fraction(2)]
    field = ScalarField(1, CAP, "real", True,
                        {(k,): c for k, c in enumerate(coeffs) if c})
    series = HermiteSeries(coeffs, capacity=CAP)
    d_field = field.partial_derivative(1)
    d_series = differentiate(series)
    assert d_field.coeffs == {(k,): c for k, c in enumerate(d_series.coeffs) if c}
    delta_field = field.apply_delta(1)
    delta_series = apply_delta(series)
    assert delta_field.coeffs == {(k,): c for k, c in enumerate(delta_series.coeffs) if c}
    other = HermiteSeries([Fraction(1), Fraction(4)])
    other_field = ScalarField(1, CAP, "real", True, {(0,): 1, (1,): 4})
    assert field.weighted_inner(other_field) == inner_product_1d(series, other)


@settings(max_examples=50)
@given(fields_2d(), fields_2d(), st.integers(1, 2))
def test_multivariate_adjoint_duality(f, g, axis):
    lhs = f.partial_derivative(axis).weighted_inner(g)
    rhs = f.weighted_inner(-g.apply_delta(axis))
    assert lhs == rhs


@settings(max_examples=50)
@given(fields_2d())
def test_partial_derivatives_commute_across_axes(f):
    a = f.partial_derivative(1).partial_derivative(2)
    b = f.partial_derivative(2).partial_derivative(1)
    assert a == b


@settings(max_examples=50)
@given(fields_2d())
def test_delta_commutes_across_axes(f):
    a = f.apply_delta(1).apply_delta(2)
    b = f.apply_delta(2).apply_delta(1)
    assert a == b


@settings(max_examples=50)
@given(fields_2d(), st.integers(1, 2))
def test_same_axis_commutator_is_minus_two(f, axis):
    lhs = f.apply_delta(axis).partial_derivative(axis) \
        - f.partial_derivative(axis).apply_delta(axis)
    assert lhs == f.scale(-2)


@settings(max_examples=50)
@given(fields_2d())
def test_norm_positive_definite(f):
    v = f.weighted_inner(f)
    assert v >= 0
    assert (v == 0) == f.is_zero()
    assert v == f.norm_sq()


@settings(max_examples=30)
@given(fields_2d(), fields_2d())
def test_multiply_matches_pointwise_evaluation(f, g):
    prod = f.multiply(g)
    for point in ((Fraction(1, 2), Fraction(-1, 3)), (Fraction(2), Fraction(0))):
        assert prod.evaluate(point) == f.evaluate(point) * g.evaluate(point)


def test_capacity_overflow_loud():
    top = ScalarField(1, 2, "real", True, {(2,): 1})
    top_c = ScalarField(2, 2, "complex", True, {(1, 1): 1})
    for raising in (top.apply_delta, top.multiply_by_coordinate,
                    lambda j: delta_z(top_c, j), lambda j: delta_zbar(top_c, j)):
        with pytest.raises(DegreeOverflowError) as err:
            raising(1)
        assert err.value.required_capacity == 3
    with pytest.raises(DegreeOverflowError):
        ScalarField(1, 1, "real", True, {(2,): 1})


def test_dimension_and_kind_mismatch():
    with pytest.raises(DimensionMismatchError):
        x(1, m=2).weighted_inner(ScalarField.coordinate(1, 3, CAP))
    with pytest.raises(DimensionMismatchError):
        x(1) + x(1).promote_complex()
    with pytest.raises(DomainError):
        x(1).partial_derivative(3)


def test_complex_parts_and_conjugate():
    f = const(1, kind="complex").scale(QC(2, 3)) \
        + x(1, kind="complex").scale(QC(0, 1))
    assert f.real_part() == const(2) + ScalarField.zero(2, CAP)
    assert f.imag_part() == const(3) + x(1)
    assert f.conjugate().conjugate() == f
    assert f.conjugate() == const(1, kind="complex").scale(QC(2, -3)) \
        + x(1, kind="complex").scale(QC(0, -1))


def test_float_complex_coefficients_drop_signed_zeros():
    # a -0.0 part from float arithmetic is stored, and written, as 0.0
    f = ScalarField(1, 2, "complex", False, {(1,): complex(-0.0, 1.0), (0,): complex(2.0, -0.0)})
    parts = [v for e in f.to_json()["coeffs"] for v in (e["re"], e["im"])]
    assert all(math.copysign(1.0, v) == 1.0 for v in parts if v == 0)


def test_json_roundtrip_exact_and_float():
    f = x(1, kind="complex").scale(QC(1, -2)) + const(Fraction(1, 3), kind="complex")
    data = f.to_json()
    assert data["scalar"] == "complex"
    assert ScalarField.from_json(data) == f
    g = ScalarField(2, 4, "real", False, {(1, 0): 0.5, (0, 2): -1.25})
    assert ScalarField.from_json(g.to_json()) == g


SCALAR_TYPES = {(True, "real"): Fraction, (True, "complex"): QC,
                (False, "real"): float, (False, "complex"): complex}


def assert_field_invariants(f: ScalarField):
    """What the public constructor enforces and internal operations must keep."""
    for deg, val in f.coeffs.items():
        assert len(deg) == f.m and all(type(k) is int and k >= 0 for k in deg)
        assert sum(deg) <= f.max_total_degree
        assert type(val) is SCALAR_TYPES[(f.exact, f.kind)]
        assert val
        if type(val) is complex:
            assert all(math.copysign(1.0, part) == 1.0 for part in (val.real, val.imag)
                       if part == 0)


@pytest.mark.parametrize("exact", [True, False])
def test_internal_operations_keep_field_invariants(exact):
    rng = random.Random(17)
    for kind in ("real", "complex"):
        def field():
            f = random_scalar_field(rng, 4, 8, 3, kind, True, terms=5)
            return f if exact else f.to_float()

        one = 1 if exact else 1.0
        f, g = field(), field()
        # real values in a complex field: negating them gives float parts of -0.0
        h = ScalarField(4, 8, kind, exact, {(1, 0, 0, 0): 2 * one, (0, 0, 0, 1): -one})
        results = [f + g, f - f, f + (-f), -f, f.scale(3), f.scale(0), f.conjugate(),
                   f.multiply(g), -h, h.conjugate(), h.scale(-1), h - h.scale(2)]
        if not exact:
            # a float product can underflow to zero
            tiny = ScalarField(4, 8, kind, False, {(0, 0, 0, 0): 1e-200, (1, 0, 0, 0): 1.0})
            results.append(tiny.scale(1e-200))
        for axis in range(1, 5):
            results += [f.partial_derivative(axis), f.apply_delta(axis),
                        f.multiply_by_coordinate(axis)]
        if kind == "complex":
            f = f.scale(QC(1, -1) if exact else 1 - 1j)
            results += [f.scale(QC(0, 1) if exact else 1j), f.conjugate(), -f]
            results += [ladder(f, j) for j in (1, 2)
                        for ladder in (wirtinger_dz, wirtinger_dzbar, delta_z, delta_zbar)]
        for r in results:
            assert_field_invariants(r)

    closed = random_closed_pform(rng, 3, 2, 6, 3, exact=True)
    u, beta, _ = solve_d_min_norm_full(closed if exact else closed.to_float())
    g = random_dbar_closed_form01(rng, 2, 6, 3, exact=True)
    v, gamma, _ = solve_dbar_min_norm_full(g if exact else g.to_float())
    for form in (u, beta, gamma):
        assert form.components
        for comp in form.components.values():
            assert_field_invariants(comp)
    assert not v.is_zero()
    assert_field_invariants(v)
