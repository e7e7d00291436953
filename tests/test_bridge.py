from fractions import Fraction

import pytest

from gauss_hodge import bridge
from gauss_hodge.bridge import (decompose_11, recompose_11, solve_poincare_lelong,
                                solve_poincare_lelong_full, split_bidegree,
                                two_form_complex_parts)
from gauss_hodge.calculus import ComplexForm, ItoForm, PForm, ddbar
from gauss_hodge.errors import InvariantViolationError, NotClosedError
from gauss_hodge.fields import ScalarField
from gauss_hodge.randomforms import (random_closed_complexform11, random_complexform11,
                                     random_pform)
from gauss_hodge.scalars import QC

from conftest import zzbar_poly_field

CAP = 10


def const11(value, n=1):
    e = ScalarField.constant(value, 2 * n, CAP, "complex")
    return ComplexForm.from_layout((1, 1), [[e]])


def test_decompose_dz_dzbar():
    f = const11(1)
    f1, f2 = decompose_11(f)
    assert f1.is_zero()
    assert f2.components == {(1, 2): ScalarField.constant(-2, 2, CAP)}


def test_decompose_i_dz_dzbar():
    f = const11(QC(0, 1))
    f1, f2 = decompose_11(f)
    assert f2.is_zero()
    assert f1.components == {(1, 2): ScalarField.constant(2, 2, CAP)}


def test_decompose_zero():
    f1, f2 = decompose_11(ComplexForm(2, (1, 1), CAP))
    assert f1.is_zero() and f2.is_zero()


def test_decompose_norm_identity_coefficient_exact(rng):
    # |f1|^2 + |f2|^2 - 4|f|^2 vanishes as a polynomial
    for n in (1, 2):
        for _ in range(4):
            f = random_complexform11(rng, n, CAP, 3)
            f1, f2 = decompose_11(f)
            lhs = None
            for form in (f1, f2):
                for comp in form.components.values():
                    sq = comp.multiply(comp)
                    lhs = sq if lhs is None else lhs + sq
            rhs = f.pointwise_norm_sq_field().real_part().scale(4)
            if lhs is None:
                assert rhs.is_zero()
            else:
                assert lhs == rhs


def test_decompose_norm_identity_at_sample_points(rng):
    for n in (1, 2):
        f = random_complexform11(rng, n, CAP, 3)
        f1, f2 = decompose_11(f)
        for _ in range(20):
            point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(2 * n))
            lhs = sum(v * v for v in f1.evaluate(point).values()) \
                + sum(v * v for v in f2.evaluate(point).values())
            rhs = 0
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    val = f.coefficient((i,), (j,)).evaluate(point)
                    rhs += val.modulus_sq()
            assert lhs == 4 * rhs


def test_roundtrip_exact(rng):
    for n in (1, 2, 3):
        f = random_complexform11(rng, n, CAP, 3)
        f1, f2 = decompose_11(f)
        assert recompose_11(f1, f2) == f


def test_split_bidegree_examples():
    # v = dx_1 -> (dz/2, dzbar/2); v = dy_1 -> (-i/2 dz, i/2 dzbar)
    one = ScalarField.constant(1, 2, CAP)
    vdx = PForm(2, 1, CAP, components={(1,): one})
    v10, v01 = split_bidegree(vdx)
    half = ScalarField.constant(Fraction(1, 2), 2, CAP, "complex")
    assert v10.coefficient((1,)) == half and v01.coefficient((), (1,)) == half
    vdy = PForm(2, 1, CAP, components={(2,): one})
    v10, v01 = split_bidegree(vdy)
    assert v10.coefficient((1,)) == half.scale(QC(0, -1))
    assert v01.coefficient((), (1,)) == half.scale(QC(0, 1))
    zero = PForm(2, 1, CAP)
    v10, v01 = split_bidegree(zero)
    assert v10.is_zero() and v01.is_zero()


def test_split_norm_identity(rng):
    for n in (1, 2):
        for _ in range(5):
            v = random_pform(rng, 2 * n, 1, CAP, 4)
            v10, v01 = split_bidegree(v)
            assert v10.norm_sq() == Fraction(v.norm_sq(), 4)
            assert v01.norm_sq() == Fraction(v.norm_sq(), 4)
            # conj(v10) = v01 for real v
            assert v10.conjugate() == v01


def test_split_norm_identity_pointwise(rng):
    v = random_pform(rng, 2, 1, CAP, 4)
    v10, v01 = split_bidegree(v)
    for _ in range(20):
        point = (Fraction(rng.randint(-5, 5), 2), Fraction(rng.randint(-5, 5), 3))
        vals = v.evaluate(point)
        total = sum(val * val for val in vals.values())
        v10_val = v10.coefficient((1,)).evaluate(point)
        assert v10_val.modulus_sq() == Fraction(total, 4)


def test_two_form_complex_parts_mixed_types_on_c2():
    # dx1 ^ dx3 on C^2 spreads over all four type components with weight 1/4
    one = ScalarField.constant(1, 4, CAP)
    g = PForm(4, 2, CAP, components={(1, 3): one})
    part20, part11, part02 = two_form_complex_parts(g)
    q = ScalarField.constant(Fraction(1, 4), 4, CAP, "complex")
    assert part20.components == {(1, 2): q}
    assert part02.components == {(3, 4): q}
    assert part11.coefficient((1,), (2,)) == q
    assert part11.coefficient((2,), (1,)) == -q
    assert part11.coefficient((1,), (1,)).is_zero() and part11.coefficient((2,), (2,)).is_zero()


def test_two_form_complex_parts_pure_types():
    # dx1 ^ dx2 on C^1 contains dz^dzbar only plus (2,0)/(0,2) pieces
    one = ScalarField.constant(1, 2, CAP)
    g = PForm(2, 2, CAP, components={(1, 2): one})
    part20, part11, part02 = two_form_complex_parts(g)
    # dx ^ dy = (i/2) dz ^ dzbar exactly; no (2,0)/(0,2) residue on C^1
    assert part20.is_zero() and part02.is_zero()
    assert part11.coefficient((1,), (1,)) == ScalarField.constant(QC(0, Fraction(1, 2)), 2, CAP, "complex")


def test_pipeline_dz_dzbar():
    f = const11(1)
    u, rep = solve_poincare_lelong(f)
    assert (ddbar(u) - f).is_zero()
    assert rep.bound_constant == 2
    assert rep.ratio <= 2 and rep.bound_satisfied
    assert rep.residual_norm_sq == 0
    assert rep.input_norm_sq == 1


def test_pipeline_from_potential():
    w = zzbar_poly_field(1, CAP, {((2,), (2,)): 1})
    f = ddbar(w)
    u, rep = solve_poincare_lelong(f)
    assert (ddbar(u) - f).is_zero()
    assert rep.ratio <= 2 and rep.residual_norm_sq == 0


def test_pipeline_zero():
    u, rep = solve_poincare_lelong(ComplexForm(1, (1, 1), CAP))
    assert u.is_zero() and rep.ratio == 0


def test_pipeline_stage_reports(rng):
    w, f = random_closed_complexform11(rng, 2, CAP, 3)
    u, full = solve_poincare_lelong_full(f)
    assert (ddbar(u) - f).is_zero()
    for rep in (full.d_solve_re, full.d_solve_im):
        assert rep.bound_constant == Fraction(1, 4)
        assert rep.bound_satisfied and rep.residual_norm_sq == 0
    for rep in (full.dbar_solve_re, full.dbar_solve_im):
        assert rep.bound_constant == 2
        assert rep.bound_satisfied and rep.residual_norm_sq == 0
    for ratio in full.conjugation_ratios.values():
        assert ratio <= 4
    assert full.final.bound_satisfied
    data = full.to_json()
    assert set(data["stages"]) == {"d_solve_re", "d_solve_im",
                                   "dbar_solve_re", "dbar_solve_im"}
    assert "final_ratio" in data


def test_stage_bound_tripwire_plumbing():
    # the tripwire itself: a fabricated failing stage report must raise
    from gauss_hodge.bridge import _check_stage_bound
    from gauss_hodge.errors import InvariantViolationError
    from gauss_hodge.solver import SolveReport
    bad = SolveReport(Fraction(0), Fraction(1), Fraction(1), Fraction(1, 4),
                      Fraction(1), False, 1, True)
    with pytest.raises(InvariantViolationError) as err:
        _check_stage_bound(bad, "d_solve_re")
    assert err.value.stage == "d_solve_re"


def test_pipeline_rejects_nonclosed():
    # constant entry (1,2) only: f = dz1 ^ dzbar2 with coefficient zbar1 is not closed
    e = zzbar_poly_field(2, CAP, {((0, 0), (1, 0)): 1})
    z = ScalarField.zero(4, CAP, "complex")
    f = ComplexForm.from_layout((1, 1), [[z, e], [z, z]])
    with pytest.raises(NotClosedError):
        solve_poincare_lelong(f)


@pytest.mark.parametrize("part, stage", [(0, "type_purity_re"), (1, "dbar_solve_re")])
def test_pipeline_faults_past_the_d_solves_are_invariant_violations(monkeypatch, part, stage):
    """The d solves accept closed input; a (1,0) part that is not partial-closed
    or a (0,1) part that is not dbar-closed after them is the pipeline's own
    fault, never a NotClosedError about the input.  The bump is injected where
    the pipeline reads the parts of v_k off the complex frame."""
    # z2 dz1 and zbar2 dzbar1 on C^2: partial = dz2 ^ dz1, dbar = dzbar2 ^ dzbar1
    bump = zzbar_poly_field(2, CAP, {((0, 1), (0, 0)) if part == 0 else ((0, 0), (0, 1)): 1})
    zero = ScalarField.zero(4, CAP, "complex")
    bad = ItoForm.from_he(ComplexForm.from_layout((1, 0) if part == 0 else (0, 1), [bump, zero]))
    honest = bridge._type_parts

    def parts_with_a_bump(v, comps, form_type):
        pieces = list(honest(v, comps, form_type))
        pieces[part] = pieces[part] + bad
        return tuple(pieces)

    monkeypatch.setattr(bridge, "_type_parts", parts_with_a_bump)
    f = ddbar(zzbar_poly_field(2, CAP, {((1, 0), (1, 1)): 1, ((1, 1), (0, 1)): QC(2, -1)}))
    with pytest.raises(InvariantViolationError) as err:
        solve_poincare_lelong(f)
    assert err.value.stage == stage
    assert err.value.lhs != 0


def test_pipeline_random_exact(rng):
    for n in (1, 2):
        for _ in range(3):
            w, f = random_closed_complexform11(rng, n, CAP, 3)
            u, rep = solve_poincare_lelong(f)
            assert (ddbar(u) - f).is_zero()
            assert rep.bound_satisfied


def test_pipeline_float(rng):
    w, f = random_closed_complexform11(rng, 2, CAP, 3, exact=False)
    u, rep = solve_poincare_lelong(f)
    assert rep.residual_norm_sq <= (1e-10) ** 2 * rep.input_norm_sq
    assert rep.bound_satisfied


def test_pipeline_exact_and_float_agree(rng):
    w, f = random_closed_complexform11(rng, 2, CAP, 3)
    u_e, rep_e = solve_poincare_lelong(f)
    u_f, rep_f = solve_poincare_lelong(f.to_float())
    assert abs(rep_f.ratio - float(rep_e.ratio)) <= 1e-9 * max(float(rep_e.ratio), 1.0)
    for deg, val in u_e.coeffs.items():
        got = u_f.coeffs.get(deg, 0j)
        assert abs(complex(float(val.re), float(val.im)) - got) <= 1e-9
