import itertools
from fractions import Fraction

import pytest

from gauss_hodge.calculus import (ComplexForm, ComplexFrameForm, PForm,
                                  codifferential, dbar, dbar_adjoint, dbar_function,
                                  dbar_of_01, ddbar, delta_z, delta_zbar,
                                  exterior_d,
                                  partial, partial_of_10,
                                  wirtinger_dz, wirtinger_dzbar)
from gauss_hodge.calculus import ItoForm
from gauss_hodge.errors import DegreeOverflowError, DimensionMismatchError, DomainError
from gauss_hodge.fields import ItoField, ScalarField
from gauss_hodge.randomforms import random_complex_function, random_pform
from gauss_hodge.scalars import QC, to_double

from conftest import (bubble_sort_parity, doubles, zzbar_poly_field, zzbar_wirtinger_dz,
                      zzbar_wirtinger_dzbar)

CAP = 10


def x(axis, m=2):
    return ScalarField.coordinate(axis, m, CAP)


def const(v, m=2):
    return ScalarField.constant(v, m, CAP)


# ---------------------------------------------------------------------------
# a brute-force d oracle over fully antisymmetric ordered-tuple storage
# ---------------------------------------------------------------------------


def dense_rep(form: PForm) -> dict:
    """Expand increasing-index components to all ordered index tuples."""
    out = {}
    for idx, f in form.components.items():
        for perm in itertools.permutations(idx):
            out[perm] = f.scale(bubble_sort_parity(perm))
    return out


def dense_d(form: PForm) -> dict:
    """d by prepending the derivative axis and antisymmetrizing afterwards."""
    raw = {}
    for tup, f in dense_rep(form).items():
        for j in range(1, form.n + 1):
            if j in tup:
                continue
            key = (j,) + tup
            term = f.partial_derivative(j)
            raw[key] = raw.get(key, term.replace({})) + term
    # collapse to increasing storage
    out = {}
    for tup, f in raw.items():
        inc = tuple(sorted(tup))
        contribution = f.scale(bubble_sort_parity(tup))
        cur = out.get(inc)
        out[inc] = contribution if cur is None else cur + contribution
    # each increasing index was hit (p+1)! times over its permutations... no:
    # every ordered tuple maps to its own sorted key exactly once, but the
    # dense representation already multiplied components by p! orderings, so
    # normalize by the count of orderings of the source indices.
    p_fact = 1
    for i in range(1, form.p + 1):
        p_fact *= i
    return {k: f.scale(Fraction(1, p_fact)) for k, f in out.items() if not f.is_zero()}


def assert_matches_dense(form: PForm, derived: PForm):
    assert derived.components == dense_d(form)


def test_exterior_d_examples():
    # d(x_1) on R^2 = dx_1
    u = PForm(2, 0, CAP, components={(): x(1)})
    du = exterior_d(u)
    assert du.components == {(1,): const(1)}
    # d(x_2 dx_1) = -dx_1 ^ dx_2
    v = PForm(2, 1, CAP, components={(1,): x(2)})
    dv = exterior_d(v)
    assert dv.components == {(1, 2): const(-1)}
    assert_matches_dense(v, dv)
    # d(d(x_1^2 x_2)) = 0
    w = PForm(2, 0, CAP,
              components={(): x(1).multiply(x(1)).multiply(x(2)).with_capacity(CAP)})
    assert exterior_d(exterior_d(w)).is_zero()


def test_exterior_d_top_degree_is_zero():
    f = PForm(2, 2, CAP, components={(1, 2): x(1)})
    df = exterior_d(f)
    assert df.p == 3 and df.is_zero()


def test_exterior_d_matches_dense_oracle_random(rng):
    for n, p in ((2, 1), (3, 1), (3, 2), (4, 2)):
        for _ in range(5):
            form = random_pform(rng, n, p, CAP, 4)
            assert_matches_dense(form, exterior_d(form))


def test_dd_zero_random(rng):
    for n in (2, 3, 4):
        for p in range(n):
            form = random_pform(rng, n, p, CAP, 5)
            assert exterior_d(exterior_d(form)).is_zero()


def test_codifferential_examples():
    # T*(x dx) on R^1 = 2x^2 - 1
    a = PForm(1, 1, CAP, components={(1,): ScalarField.coordinate(1, 1, CAP)})
    out = codifferential(a)
    x1 = ScalarField.coordinate(1, 1, CAP)
    expected = x1.multiply(x1).with_capacity(CAP).scale(2) - ScalarField.constant(1, 1, CAP)
    assert out.component(()) == expected

    # T*(dx_1) on R^2 = 2 x_1
    b = PForm(2, 1, CAP, components={(1,): const(1)})
    assert codifferential(b).component(()) == x(1).scale(2)

    # T*(1/4 dx_1^dx_2) = -x_2/2 dx_1 + x_1/2 dx_2
    c = PForm(2, 2, CAP,
              components={(1, 2): const(Fraction(1, 4))})
    out = codifferential(c)
    assert out.component((1,)) == x(2).scale(Fraction(-1, 2))
    assert out.component((2,)) == x(1).scale(Fraction(1, 2))


def test_codifferential_rejects_functions():
    with pytest.raises(DomainError):
        codifferential(PForm(2, 0, CAP, components={(): x(1)}))


@pytest.mark.parametrize("op, arg", [
    (partial, PForm(4, 1, 4)),
    (dbar, ComplexFrameForm(2, 1, 4, "complex")),
    (dbar_function, PForm(2, 1, 4)),
    (ddbar, PForm(2, 1, 4)),
    (exterior_d, ScalarField(2, 4)),
    (codifferential, ScalarField(2, 4)),
], ids=["partial-pform", "dbar-complex-frame", "dbar_function-pform", "ddbar-pform",
        "d-field", "codifferential-field"])
def test_operators_refuse_the_wrong_type(op, arg):
    """An operator given an argument of another type says which type it got."""
    with pytest.raises(DomainError, match=f"got {type(arg).__name__}$"):
        op(arg)


def test_adjoint_duality_random(rng):
    # <du, a> = <u, T* a> across shapes
    for n, p in ((1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 1)):
        for _ in range(5):
            u = random_pform(rng, n, p, CAP, 5)
            a = random_pform(rng, n, p + 1, CAP, 5)
            assert exterior_d(u).weighted_inner(a) == u.weighted_inner(codifferential(a))


# ---------------------------------------------------------------------------
# Wirtinger operators against the symbolic z/zbar oracle
# ---------------------------------------------------------------------------


def _random_zzbar_terms(rng, n, deg, count=3):
    terms = {}
    for _ in range(count):
        a = tuple(rng.randint(0, deg) for _ in range(n))
        b = tuple(rng.randint(0, max(0, deg - sum(a))) for _ in range(n))
        coeff = QC(rng.randint(-5, 5), rng.randint(-5, 5))
        if coeff == 0:
            coeff = QC(1)
        terms[(a, b)] = coeff
    return terms


def test_dbar_examples():
    # u = zbar -> dzbar; u = z -> 0; u = z zbar -> z dzbar
    zb = zzbar_poly_field(1, CAP, {((0,), (1,)): 1})
    g = dbar_function(zb)
    assert g.coefficient((), (1,)) == zzbar_poly_field(1, CAP, {((0,), (0,)): 1})
    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert dbar_function(z).is_zero()
    zzb = zzbar_poly_field(1, CAP, {((1,), (1,)): 1})
    assert dbar_function(zzb).coefficient((), (1,)) == z


def test_partial_examples():
    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    zb = zzbar_poly_field(1, CAP, {((0,), (1,)): 1})
    assert partial(ComplexForm.function(z)).coefficient((1,)) == const(1, m=2).promote_complex()
    assert partial(ComplexForm.function(zb)).is_zero()
    zzb = zzbar_poly_field(1, CAP, {((1,), (1,)): 1})
    assert partial(ComplexForm.function(zzb)).coefficient((1,)) == zb


def test_ddbar_examples():
    zzb = zzbar_poly_field(1, CAP, {((1,), (1,)): 1})
    f = ddbar(zzb)
    assert f.coefficient((1,), (1,)) == const(1, m=2).promote_complex()
    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert ddbar(z).is_zero()
    z2zb2 = zzbar_poly_field(1, CAP, {((2,), (2,)): 1})
    assert ddbar(z2zb2).coefficient((1,), (1,)) == zzbar_poly_field(1, CAP, {((1,), (1,)): 4})


def test_wirtinger_matches_symbolic_oracle(rng):
    for n in (1, 2):
        for _ in range(6):
            terms = _random_zzbar_terms(rng, n, 2)
            u = zzbar_poly_field(n, CAP, terms)
            for j in range(1, n + 1):
                expected = zzbar_poly_field(n, u.max_total_degree,
                                            zzbar_wirtinger_dz(terms, j))
                assert wirtinger_dz(u, j) == expected
                expected = zzbar_poly_field(n, u.max_total_degree,
                                            zzbar_wirtinger_dzbar(terms, j))
                assert wirtinger_dzbar(u, j) == expected


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("op, axis_op, sign", [
    (wirtinger_dz, "partial_derivative", -1),
    (wirtinger_dzbar, "partial_derivative", 1),
    (delta_z, "apply_delta", -1),
    (delta_zbar, "apply_delta", 1),
])
def test_pair_ladders_match_two_axis_definition(rng, exact, op, axis_op, sign):
    # (op_{2j-1} + sign i op_{2j}) / 2 built from single-axis ladders, on
    # integer data and (exact=False) on data read from doubles
    i_unit = QC(0, 1)
    half = Fraction(1, 2)
    for n in (1, 2, 3):
        for _ in range(4):
            u = random_complex_function(rng, n, CAP, CAP - 1, terms=6)
            u = u if exact else doubles(u, QC(Fraction(1, 3), Fraction(-2, 7)))
            for j in range(1, n + 1):
                along_x = getattr(u, axis_op)(2 * j - 1)
                along_y = getattr(u, axis_op)(2 * j).scale(i_unit)
                expected = (along_x + along_y if sign == 1 else along_x - along_y).scale(half)
                assert op(u, j) == expected


def test_dbar_adjoint_examples():
    # g = dzbar -> zbar
    g = ComplexForm.from_layout((0, 1), [const(1, m=2).promote_complex()])
    assert dbar_adjoint(g) == zzbar_poly_field(1, CAP, {((0,), (1,)): 1})
    # g = z dzbar -> z zbar - 1
    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    expected = zzbar_poly_field(1, CAP, {((1,), (1,)): 1, ((0,), (0,)): -1})
    assert dbar_adjoint(ComplexForm.from_layout((0, 1), [z])) == expected
    # g = 0 -> 0
    assert dbar_adjoint(ComplexForm(1, (0, 1), CAP)).is_zero()


def test_dbar_duality_random(rng):
    # <dbar u, g> = <u, dbar* g>
    for n in (1, 2):
        for _ in range(5):
            u = random_complex_function(rng, n, CAP, 4)
            g = ComplexForm.from_layout((0, 1), [random_complex_function(rng, n, CAP, 4)
                                                 for _ in range(n)])
            assert dbar_function(u).weighted_inner(g) == u.weighted_inner(dbar_adjoint(g))


def test_conjugation_of_dbar(rng):
    # partial(conj u) = conj(dbar u) componentwise
    for n in (1, 2):
        u = random_complex_function(rng, n, CAP, 4)
        assert partial(ComplexForm.function(u.conjugate())) == dbar_function(u).conjugate()


def test_mixed_second_derivatives_anticommute(rng):
    # dbar(partial u) = -partial(dbar u) in the dz ^ dzbar frame
    for n in (1, 2):
        u = random_complex_function(rng, n, CAP, 4)
        assert dbar(partial(ComplexForm.function(u))) == partial(dbar_function(u)).scale(-1)
        assert dbar(partial(ComplexForm.function(u))) == ddbar(u).scale(-1)


def test_ddbar_composes(rng):
    for n in (1, 2):
        u = random_complex_function(rng, n, CAP, 4)
        assert ddbar(u) == partial(dbar_function(u))


def test_real_complex_consistency(rng):
    # d of u on R^{2n} splits as partial u + dbar u
    from gauss_hodge.bridge import split_bidegree
    for n in (1, 2):
        u = random_complex_function(rng, n, CAP, 4)
        du = exterior_d(PForm(2 * n, 0, CAP, "complex", {(): u}))
        v10, v01 = split_bidegree(du)
        assert v10 == partial(ComplexForm.function(u))
        assert v01 == dbar_function(u)


def test_dbar_of_01_closedness_detection():
    # dbar(zbar_2 dzbar_1) has a nonzero (0,2) part on C^2
    g = ComplexForm.from_layout((0, 1), [zzbar_poly_field(2, CAP, {((0, 0), (0, 1)): 1}),
                                         ScalarField.zero(4, CAP, "complex")])
    out = dbar_of_01(g)
    assert not out.is_zero()
    # while dbar of a genuine dbar-potential is closed
    u = zzbar_poly_field(2, CAP, {((1, 0), (1, 1)): 3})
    assert dbar_of_01(dbar_function(u)).is_zero()


def test_partial_of_10_on_gradient_is_zero(rng):
    for n in (2, 3):
        u = random_complex_function(rng, n, CAP, 4)
        assert partial_of_10(partial(ComplexForm.function(u))).is_zero()


def test_dbar_of_01_refuses_other_bidegrees():
    u = zzbar_poly_field(2, CAP, {((1, 0), (1, 1)): 3})
    for form in (ComplexForm.function(u), partial(ComplexForm.function(u)), ddbar(u),
                 ItoForm.from_he(partial(ComplexForm.function(u)))):
        with pytest.raises(DomainError, match=r"dbar of a \(0,1\)-form needs a \(0, 1\)-form"):
            dbar_of_01(form)
    with pytest.raises(DomainError, match="got PForm"):
        dbar_of_01(PForm(4, 1, CAP, "complex"))
    assert dbar_of_01(ItoForm.from_he(dbar_function(u))).is_zero()


def test_partial_of_10_refuses_other_bidegrees():
    u = zzbar_poly_field(2, CAP, {((1, 0), (1, 1)): 3})
    for form in (ComplexForm.function(u), dbar_function(u), ddbar(u),
                 ItoForm.from_he(dbar_function(u))):
        with pytest.raises(DomainError,
                           match=r"partial of a \(1,0\)-form needs a \(1, 0\)-form"):
            partial_of_10(form)
    with pytest.raises(DomainError, match="got PForm"):
        partial_of_10(PForm(4, 1, CAP, "complex"))
    assert partial_of_10(ItoForm.from_he(partial(ComplexForm.function(u)))).is_zero()


def test_pform_component_signs():
    f = PForm(3, 2, CAP, components={(1, 2): x(1, m=3)})
    # a_{(2,1)} = -a_{(1,2)}
    assert f.signed_component(2, (1,)) == -x(1, m=3)
    assert f.signed_component(1, (2,)) == x(1, m=3)
    assert f.signed_component(1, (1,)).is_zero()


@pytest.mark.parametrize("build", [
    lambda: PForm(2.5, 1, 6),
    lambda: PForm(True, 1, 6),
    lambda: PForm(2, 1.0, 6),
    lambda: PForm(2, 1, 6.5),
    lambda: PForm(2, 1, 6, "weird"),
    lambda: ComplexForm(1.0, (1, 1), 6),
    lambda: ComplexForm(1, (True, 0), 6),
    lambda: ComplexForm(1, (1, 1), 6.5),
], ids=["n-float", "n-bool", "p-float", "capacity-float", "kind-unknown",
        "complex-n-float", "bidegree-bool", "complex-capacity-float"])
def test_form_constructors_check_counts_and_kind(build):
    """Each count is an int, not a float or a bool, and the kind is real or
    complex, as in ScalarField; each of these forms once constructed."""
    with pytest.raises(DomainError, match="must be an integer|scalar kind"):
        build()


# (form of a capacity, field of a capacity, three indices, two degree vectors)
SUM_CASES = {
    "PForm": (lambda cap, comps: PForm(2, 1, cap, components=comps),
              lambda cap, coeffs: ScalarField(2, cap, "real", coeffs),
              ((1,), (2,), None), ((1, 0), (0, 2))),
    "ItoForm": (lambda cap, comps: ItoForm(2, (1, 1), cap, comps),
                lambda cap, coeffs: ItoField(4, cap, "complex", coeffs),
                ((1, 3), (2, 4), (1, 4)), ((1, 0, 0, 1), (0, 2, 1, 0))),
}


@pytest.mark.parametrize("case", SUM_CASES)
def test_sum_of_forms_of_two_capacities(case):
    """A sum is built without re-validation at the larger capacity: it and
    each of its fields have that capacity, it equals the form the checking
    constructor builds from the summed components, and a component that
    cancels is dropped."""
    build, field, (i, j, k), (a, b) = SUM_CASES[case]
    extra = {k: field(7, {a: 5})} if k else {}
    small = build(4, {i: field(4, {a: Fraction(1, 2)}), j: field(4, {b: 3})})
    large = build(7, {j: field(7, {b: -3}), i: field(7, {b: Fraction(-7, 3)}), **extra})
    expected = build(7, {i: field(7, {a: Fraction(1, 2), b: Fraction(-7, 3)}), **extra})
    for total in (small + large, large + small, large - small.scale(-1)):
        assert type(total) is type(expected)
        assert total == expected
        assert j not in total.components
        assert total.max_total_degree == 7
        assert all(f.max_total_degree == 7 for f in total.components.values())
    lifted = small + build(7, {})
    assert lifted == small and lifted.max_total_degree == 7
    assert all(f.max_total_degree == 7 for f in lifted.components.values())
    assert (small - small).is_zero() and (small - small).max_total_degree == 4


@pytest.mark.parametrize("build", [
    lambda: PForm(2, 1, 6, components={(1,): ScalarField(3, 6)}),
    lambda: PForm(2, 1, 6, components={(1,): ScalarField(2, 6, "complex")}),
    lambda: PForm(2, 1, 6, components={(1,): ItoField(2, 6)}),
    lambda: PForm(2, 1, 6, components={(3,): ScalarField.constant(1, 2, 6)}),
    lambda: ItoForm(2, (1, 1), 6, {(1, 3): ScalarField.constant(1, 4, 6, "complex")}),
    lambda: ItoForm(2, (1, 1), 6, {(1, 2): ItoField(4, 6, "complex", {(0, 0, 0, 0): 1})}),
    lambda: ItoForm(2, (1, 1), 2, {(1, 3): ItoField(4, 6, "complex", {(3, 0, 0, 0): 1})}),
    lambda: ItoForm(2, (1, 1), 6, {(1, 3): ItoField(4, 6, "complex", {(0, 0, 0): 1})}),
], ids=["dimension", "kind", "field-type", "index", "ito-field-type", "bidegree",
        "capacity", "degree-vector"])
def test_form_constructors_still_check_components(build):
    with pytest.raises((DegreeOverflowError, DomainError)):
        build()


def test_sum_refuses_forms_of_another_shape():
    one = ScalarField.constant(1, 2, 6)
    with pytest.raises(DimensionMismatchError):
        PForm(2, 1, 6, components={(1,): one}) + PForm(2, 2, 6, components={(1, 2): one})
    with pytest.raises(DimensionMismatchError):
        PForm(2, 1, 6) + PForm(2, 1, 6, "complex")


def test_line_form_json_frame_validation(rng):
    g = ComplexForm.from_layout((0, 1), [random_complex_function(rng, 1, 6, 2)])
    data = g.to_json()
    assert data["frame"] == "dzbar"
    data["frame"] = "dz"
    with pytest.raises(DomainError):
        ComplexForm.from_json(data, (0, 1))


def test_pform_json_roundtrip(rng):
    form = random_pform(rng, 3, 2, 6, 4)
    data = form.to_json()
    back = PForm.from_json(data)
    assert back == form
    g = ComplexForm.from_layout((0, 1), [random_complex_function(rng, 2, 6, 3)
                                         for _ in range(2)])
    assert ComplexForm.from_json(g.to_json(), (0, 1)) == g
    f11 = ComplexForm.from_layout((1, 1), [[random_complex_function(rng, 1, 6, 3)]])
    assert ComplexForm.from_json(f11.to_json(), (1, 1)) == f11


def test_float_json_roundtrip_with_zero_entry(rng):
    # a zero field serializes as an empty coefficient list next to fields
    # written as doubles; read back, every dyadic value is exact again
    zero = ScalarField.zero(4, 6, "complex")
    fields = [doubles(random_complex_function(rng, 2, 6, 3)) for _ in range(3)]
    f11 = ComplexForm.from_layout((1, 1), [[fields[0], zero], [fields[1], fields[2]]])
    data = f11.to_json(to_double)
    assert data["entries"][0][1]["coeffs"] == []
    assert ComplexForm.from_json(data, (1, 1)) == f11
    g = ComplexForm.from_layout((0, 1), [zero, fields[0]])
    assert ComplexForm.from_json(g.to_json(to_double), (0, 1)) == g
