import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gauss_hodge.bridge import decompose_11, split_bidegree, two_form_complex_parts
from gauss_hodge.calculus import (codifferential, dbar, dbar_adjoint, delta_z, delta_zbar,
                                  exterior_d, partial, wirtinger_dz, wirtinger_dzbar)
from gauss_hodge.errors import (DegreeOverflowError, DimensionMismatchError, DomainError,
                                SolveNumericalError)
from gauss_hodge.fields import ItoField, ScalarField, hermite_sq_norm_vector
from gauss_hodge.hermite import (HermiteSeries, apply_delta, differentiate, inner_product_1d,
                                  multiply_by_coordinate)
from gauss_hodge.randomforms import (random_closed_pform, random_complexform11,
                                     random_dbar_closed_form01, random_form01, random_pform,
                                     random_scalar_field)
from gauss_hodge.scalars import QC, fraction_str, to_double
from gauss_hodge.solver import solve_d_min_norm_full, solve_dbar_min_norm_full

from conftest import doubles, gaussian_moment

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
    return ScalarField(1, CAP, "real", coeffs)


@st.composite
def fields_2d(draw):
    n_terms = draw(st.integers(0, 4))
    coeffs = {}
    for _ in range(n_terms):
        d = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
        coeffs[d] = Fraction(draw(st.integers(-9, 9)))
    return ScalarField(2, CAP, "real", coeffs)


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
    field = ScalarField(1, CAP, "real",
                        {(k,): c for k, c in enumerate(coeffs) if c})
    series = HermiteSeries(coeffs, capacity=CAP)
    d_field = field.partial_derivative(1)
    d_series = differentiate(series)
    assert d_field.coeffs == {(k,): c for k, c in enumerate(d_series.coeffs) if c}
    delta_field = field.apply_delta(1)
    delta_series = apply_delta(series)
    assert delta_field.coeffs == {(k,): c for k, c in enumerate(delta_series.coeffs) if c}
    x_field = field.multiply_by_coordinate(1)
    x_series = multiply_by_coordinate(series)
    assert x_field.coeffs == {(k,): c for k, c in enumerate(x_series.coeffs) if c}
    other = HermiteSeries([Fraction(1), Fraction(4)])
    other_field = ScalarField(1, CAP, "real", {(0,): 1, (1,): 4})
    assert field.weighted_inner(other_field) == inner_product_1d(series, other)
    # on two axes, the x_axis action is the product with the coordinate field
    plane = ScalarField(2, CAP // 2, "real", {(0, 0): 3, (2, 1): -1, (0, 3): Fraction(2, 5)})
    for axis in (1, 2):
        product = plane.multiply(ScalarField.coordinate(axis, 2, CAP // 2))
        assert plane.multiply_by_coordinate(axis).coeffs == product.coeffs


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
    top = ScalarField(1, 2, "real", {(2,): 1})
    top_c = ScalarField(2, 2, "complex", {(1, 1): 1})
    for raising in (top.apply_delta, top.multiply_by_coordinate,
                    lambda j: delta_z(top_c, j), lambda j: delta_zbar(top_c, j)):
        with pytest.raises(DegreeOverflowError) as err:
            raising(1)
        assert err.value.required_capacity == 3
    with pytest.raises(DegreeOverflowError):
        ScalarField(1, 1, "real", {(2,): 1})


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


def test_complex_parts_come_out_in_lowest_terms():
    # (2 + i)/4 has real part 2/4, stored reduced as 1/2
    f = ScalarField(2, 4, "complex", {(1, 0): QC(Fraction(1, 2), Fraction(1, 4)),
                                            (0, 1): QC(0, 3), (0, 0): QC(5)})
    assert f.real_part() == ScalarField(2, 4, "real", {(1, 0): Fraction(1, 2), (0, 0): 5})
    assert f.imag_part() == ScalarField(2, 4, "real", {(1, 0): Fraction(1, 4), (0, 1): 3})
    i = QC(0, 1)
    assert f.real_part().promote_complex() + f.imag_part().promote_complex().scale(i) == f


def test_real_exact_coefficients_behave_as_rationals():
    f = ScalarField(2, 4, "real", {(1, 0): Fraction(3, 4), (0, 2): 2})
    c, two = f.coeffs[(1, 0)], f.coeffs[(0, 2)]
    assert float(c) == 0.75 and float(two) == 2.0
    assert c == Fraction(3, 4) and Fraction(3, 4) == c and two == 2
    assert hash(c) == hash(Fraction(3, 4)) and hash(two) == hash(Fraction(2))


def test_exact_real_field_evaluates_at_float_and_exact_points():
    f = ScalarField(2, 4, "real", {(1, 0): 1, (0, 2): 2})
    # He_1(1/2) + 2 He_2(1/4) = 1 + 2 (4/16 - 2)
    at_float = f.evaluate((0.5, 0.25))
    assert type(at_float) is float and at_float == -2.5
    at_exact = f.evaluate((Fraction(1, 2), Fraction(1, 4)))
    assert type(at_exact) is Fraction and at_exact == Fraction(-5, 2)


# degree vectors on R^2 for the integer-reduction properties
DEGREES = [(i, j) for i in range(4) for j in range(4)]
# denominators 1..12, so running denominators meet, divide and miss each other
small_rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def field_pairs(draw):
    """Two exact fields of one kind whose supports are equal, overlapping or disjoint."""
    kind = draw(st.sampled_from(("real", "complex")))

    def field(support):
        coeffs = {d: QC(draw(small_rationals),
                        draw(small_rationals) if kind == "complex" else 0)
                  for d in sorted(support)}
        return ScalarField(2, 6, kind, coeffs)

    support = draw(st.sets(st.sampled_from(DEGREES), max_size=8))
    rest = [d for d in DEGREES if d not in support]
    relation = draw(st.sampled_from(("equal", "overlapping", "disjoint")))
    if relation == "equal":
        other = set(support)
    else:
        other = draw(st.sets(st.sampled_from(rest), max_size=6))
        if relation == "overlapping" and support:
            other |= draw(st.sets(st.sampled_from(sorted(support)), min_size=1))
    return field(support), field(other)


def naive_norm_sq(f):
    return sum(((v.real * v.real + v.imag * v.imag) * hermite_sq_norm_vector(d)
                for d, v in f.coeffs.items()), Fraction(0))


def naive_inner(f, g):
    """(re, im) of <f, g> summed term by term in Fraction."""
    re = im = Fraction(0)
    for d, x in f.coeffs.items():
        if d in g.coeffs:
            y, w = g.coeffs[d], hermite_sq_norm_vector(d)
            re += (x.real * y.real + x.imag * y.imag) * w
            im += (x.imag * y.real - x.real * y.imag) * w
    return re, im


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field_pairs())
def test_exact_norms_and_inner_products_match_naive_fraction_sums(pair):
    f, g = pair
    for h in (f, g):
        norm = h.norm_sq()
        assert type(norm) is Fraction and norm == naive_norm_sq(h)
        assert h.weighted_inner(h) == norm
    inner = f.weighted_inner(g)
    re, im = naive_inner(f, g)
    if f.kind == "real":
        assert type(inner) is Fraction and inner == re and im == 0
    else:
        assert type(inner) is QC and inner.re == re and inner.im == im
    assert g.weighted_inner(f) == inner.conjugate()


@pytest.mark.parametrize("cls, m, capacity, kind, coeffs", [
    (ScalarField, 2, 6, "real", {(0.9, 0): 1}),
    (ScalarField, 2, 6, "real", {(True, 0): 2}),
    (ScalarField, 2, 6, "real", {(1.0, 0): 2}),
    (ScalarField, 2, 6.5, "real", None),
    (ScalarField, 2, True, "real", None),
    (ScalarField, 2.0, 6, "real", None),
    (ScalarField, True, 6, "real", None),
    (ItoField, 3, 6, "complex", None),
    (ItoField, 2, 6, "real", None),
], ids=["deg-float", "deg-bool", "deg-integral-float", "capacity-float", "capacity-bool",
        "m-float", "m-bool", "ito-m-odd", "ito-kind-real"])
def test_constructor_takes_only_int_degrees_and_capacity(cls, m, capacity, kind, coeffs):
    """int() once read (0.9, 0) and (True, 0) as other degree vectors, and a
    float capacity was kept as given.  An ItoField on an odd m, or of the
    real kind, once failed only later (to_he, conjugate)."""
    with pytest.raises(DomainError, match="must be an integer|an ItoField needs"):
        cls(m, capacity, kind, coeffs=coeffs)


def test_json_roundtrip_exact_and_float():
    f = x(1, kind="complex").scale(QC(1, -2)) + const(Fraction(1, 3), kind="complex")
    data = f.to_json()
    assert data["scalar"] == "complex"
    assert ScalarField.from_json(data) == f
    # a dyadic field survives float output exactly; 1/3 is rounded once
    g = ScalarField(2, 4, "real", {(1, 0): Fraction(1, 2), (0, 2): Fraction(-5, 4)})
    data = g.to_json(to_double)
    assert [e["re"] for e in data["coeffs"]] == [-1.25, 0.5]
    assert ScalarField.from_json(data) == g
    back = ScalarField.from_json(f.to_json(to_double))
    assert back.coeffs[(0, 0)] == QC(Fraction(1 / 3)) != f.coeffs[(0, 0)]
    assert back.coeffs[(1, 0)] == f.coeffs[(1, 0)]


# 0, integers, proper fractions and numerators of several hundred digits, of both signs
BIG = 3 ** 600 + 2
JSON_PARTS = [0, 1, -1, 12, -12, Fraction(1, 3), Fraction(-2, 3), Fraction(5, 8),
              Fraction(BIG, 7 ** 350), Fraction(-BIG, 2 ** 900), Fraction(7 ** 300, BIG), -BIG]


@pytest.mark.parametrize("field_type", [ScalarField, ItoField])
def test_json_parts_are_the_fraction_strings_and_doubles(field_type):
    """Exact output writes each part as str(Fraction) of its value, and
    float output as float of it, over He and over H_{p,q}."""
    values = [QC(re, im) for re in JSON_PARTS for im in JSON_PARTS if re or im]
    field = field_type(2, len(values), "complex",
                       {(k, len(values) - k): v for k, v in enumerate(values)})
    he = field.to_he() if field_type is ItoField else field
    for number, expected in ((fraction_str, str), (to_double, float)):
        entries = field.to_json(number)["coeffs"]
        assert [tuple(e["deg"]) for e in entries] == sorted(he.coeffs)
        assert [(e["re"], e["im"]) for e in entries] == [
            (expected(he.coeffs[d].re), expected(he.coeffs[d].im)) for d in sorted(he.coeffs)]
    # the stored coefficients themselves, written without a change of basis
    assert {(e["re"], e["im"]) for e in ScalarField.to_json(field)["coeffs"]} == {
        (str(Fraction(re)), str(Fraction(im))) for re in JSON_PARTS for im in JSON_PARTS
        if re or im}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 400, 10 ** 400), st.integers(-10 ** 400, 10 ** 400),
       st.integers(1, 10 ** 400))
def test_exact_json_part_of_any_qc(a, b, d):
    v = QC(Fraction(a, d), Fraction(b, d))
    entries = ScalarField(1, 0, "complex", {(0,): v}).to_json()["coeffs"]
    assert entries == ([{"deg": [0], "re": str(v.re), "im": str(v.im)}] if v else [])


def _double(x: Fraction):
    """float(x), or None where it overflows."""
    try:
        return float(x)
    except OverflowError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-10 ** 400, 10 ** 400), st.integers(-10 ** 400, 10 ** 400),
       st.integers(1, 10 ** 400))
@example(3, 0, 2 ** 1075)  # subnormal, a tie rounded to even: 2^-1073
@example(-1, 1, 10 ** 400)  # below the least subnormal: -0.0 and 0.0
@example(2 ** 1024 - 2 ** 970, 1, 1)  # rounds up past the largest double
@example(2 ** 1024 - 2 ** 970 - 1, -(2 ** 1024), 1)  # the largest double, then out of range
@example(2, 3, 4)  # 2/4 is a part not in lowest terms on its own
def test_float_json_part_of_any_qc(a, b, d):
    """Float output writes each part of (a + b i) / d as float(Fraction(part, d)),
    and refuses a part beyond the double range with the value's power of two."""
    v = QC(Fraction(a, d), Fraction(b, d))
    field = ScalarField(1, 0, "complex", {(0,): v})
    parts = [Fraction(a, d), Fraction(b, d)]
    written = [_double(x) for x in parts]
    if None in written:
        x = parts[written.index(None)]
        bits = x.numerator.bit_length() - x.denominator.bit_length()
        with pytest.raises(SolveNumericalError, match=rf"^a value near 2\^{bits} is outside"):
            field.to_json(to_double)
        return
    entries = field.to_json(to_double)["coeffs"]
    # repr tells -0.0 from 0.0, which JSON writes apart
    assert [(e["deg"], repr(e["re"]), repr(e["im"])) for e in entries] == (
        [([0], repr(written[0]), repr(written[1]))] if v else [])


def assert_field_invariants(f: ScalarField):
    """What the public constructor enforces and internal operations must keep:
    every coefficient is a nonzero QC in lowest terms, real in a real field."""
    for deg, val in f.coeffs.items():
        assert len(deg) == f.m and all(type(k) is int and k >= 0 for k in deg)
        assert sum(deg) <= f.max_total_degree
        assert type(val) is QC
        assert val
        assert val._d > 0 and math.gcd(val._a, val._b, val._d) == 1
        if f.kind == "real":
            assert val.imag == 0


@pytest.mark.parametrize("exact", [True, False])
def test_internal_operations_keep_field_invariants(exact):
    """On integer data, and (exact=False) on data read from doubles, whose
    denominators are large powers of two."""
    rng = random.Random(17)
    for kind in ("real", "complex"):
        def field():
            f = random_scalar_field(rng, 4, 8, 3, kind, terms=5)
            return f if exact else doubles(f)

        f, g = field(), field()
        h = ScalarField(4, 8, kind, {(1, 0, 0, 0): 2, (0, 0, 0, 1): -1})
        results = [f + g, f - f, f + (-f), -f, f.scale(3), f.scale(0), f.conjugate(),
                   f.multiply(g), -h, h.conjugate(), h.scale(-1), h - h.scale(2),
                   f.real_part(), f.imag_part(), f.promote_complex(), h.promote_complex(),
                   ScalarField.from_json(f.to_json()),
                   ScalarField.from_json(f.to_json(to_double))]
        for axis in range(1, 5):
            results += [f.partial_derivative(axis), f.apply_delta(axis),
                        f.multiply_by_coordinate(axis)]
        if kind == "complex":
            f = f.scale(QC(1, -1))
            results += [f.scale(QC(0, 1)), f.conjugate(), -f]
            results += [ladder(f, j) for j in (1, 2)
                        for ladder in (wirtinger_dz, wirtinger_dzbar, delta_z, delta_zbar)]
        for r in results:
            assert_field_invariants(r)

    # the fused operators and the frame changes build their fields in one accumulation
    forms = []
    for kind in ("real", "complex"):
        a = random_pform(rng, 4, 2, 8, 5, kind, terms=3)
        a = a if exact else doubles(a)
        forms += [exterior_d(a), codifferential(a), -a]
        assert a.scale(0).components == {}
    f11 = random_complexform11(rng, 2, 8, 5, terms=3)
    f11 = f11 if exact else doubles(f11)
    g01 = random_form01(rng, 2, 8, 5, terms=3)
    g01 = g01 if exact else doubles(g01)
    forms += [partial(f11), dbar(f11), dbar(g01), partial(g01), *decompose_11(f11),
              two_form_complex_parts(decompose_11(f11)[0])[1],
              *split_bidegree(codifferential(decompose_11(f11)[1]))]
    fields = [dbar_adjoint(g01)]
    for form in forms:
        assert form.components
        fields += form.components.values()
    for r in fields:
        assert_field_invariants(r)

    # a dyadic scale keeps closed data closed
    closed = random_closed_pform(rng, 3, 2, 6, 3)
    u, beta, _ = solve_d_min_norm_full(closed if exact else doubles(closed, Fraction(1, 2 ** 60)))
    g = random_dbar_closed_form01(rng, 2, 6, 3)
    v, gamma, _ = solve_dbar_min_norm_full(g if exact else doubles(g, Fraction(3, 2 ** 70)))
    for form in (u, beta, gamma):
        assert form.components
        for comp in form.components.values():
            assert_field_invariants(comp)
    assert not v.is_zero()
    assert_field_invariants(v)


def test_subtraction_is_adding_the_negative():
    """a - b, in one pass, equals a + (-b): under full cancellation, over
    mixed capacities (the result takes the larger), over H_{p,q}; a field of
    another kind or basis is refused."""
    rng = random.Random(30)
    for kind in ("real", "complex"):
        for _ in range(6):
            a = random_scalar_field(rng, 4, 6, 4, kind, terms=5)
            b = random_scalar_field(rng, 4, 9, 4, kind, terms=5)
            b = b + a.with_capacity(9).scale(2)  # shares keys with a
            for x, y in ((a, b), (b, a), (a, a), (a, a.scale(QC(1, 0)))):
                diff = x - y
                assert diff == x + (-y)
                assert diff.max_total_degree == max(x.max_total_degree, y.max_total_degree)
                assert all(diff.coeffs.values())
            assert (a - a).is_zero() and (a - a).max_total_degree == 6
            assert (a - b.with_capacity(6)).max_total_degree == 6
    u = ItoField.from_he(random_scalar_field(rng, 4, 6, 4, "complex"))
    assert u - u.conjugate() == u + (-u.conjugate())
    assert (u - u).is_zero()
    real = random_scalar_field(rng, 4, 6, 4, "real")
    with pytest.raises(DimensionMismatchError):
        real - real.promote_complex()
    with pytest.raises(DimensionMismatchError):
        u - u.to_he()
