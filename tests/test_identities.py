import itertools

from gauss_hodge import calculus
from gauss_hodge.calculus import ComplexForm, PForm, ddbar
from gauss_hodge.fields import ScalarField, hermite_sq_norm_vector
from gauss_hodge.identities import (bochner_identity_report,
                                    conjugation_identities_check,
                                    d_norm_expansion_report,
                                    ddbar_adjoint_dual_basis,
                                    ddbar_adjoint_identity_report,
                                    ddbar_formal_adjoint)
from gauss_hodge.multiindex import MultiIndex
from gauss_hodge.randomforms import (random_complex_function,
                                     random_complexform11, random_pform)
from conftest import zzbar_poly_field

CAP = 10


def x(axis, m=2):
    return ScalarField.coordinate(axis, m, CAP)


def test_d_norm_expansion_examples():
    a = PForm(2, 1, CAP, components={MultiIndex((1,), 2): x(2)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 1 and rep.rhs == 1 and rep.equal

    a = PForm(2, 1, CAP, components={MultiIndex((1,), 2): x(1)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.equal

    a = PForm(2, 1, CAP, components={MultiIndex((1,), 2): ScalarField.constant(1, 2, CAP)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.equal


def test_d_norm_expansion_random(rng):
    for n, p1 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
        for _ in range(5):
            a = random_pform(rng, n, p1, CAP, 6)
            rep = d_norm_expansion_report(a)
            assert rep.equal, (n, p1, rep.lhs, rep.rhs)


def test_bochner_examples():
    a = PForm(1, 1, CAP, components={MultiIndex((1,), 1): ScalarField.constant(1, 1, CAP)})
    rep = bochner_identity_report(a)
    assert (rep.lhs_adjoint, rep.lhs_d) == (2, 0)
    assert (rep.rhs_hessian, rep.rhs_gradient) == (2, 0)
    assert rep.identity_holds and rep.coercivity_margin == 0

    a = PForm(1, 1, CAP, components={MultiIndex((1,), 1): ScalarField.coordinate(1, 1, CAP)})
    rep = bochner_identity_report(a)
    assert (rep.lhs_adjoint, rep.lhs_d) == (2, 0)
    assert (rep.rhs_hessian, rep.rhs_gradient) == (1, 1)
    assert rep.identity_holds and rep.coercivity_margin == 1

    zero = PForm(2, 1, CAP)
    rep = bochner_identity_report(zero)
    assert rep.lhs_adjoint == 0 and rep.lhs_d == 0 and rep.identity_holds
    assert rep.coercivity_margin == 0


def test_bochner_random_exact_and_margin(rng):
    for n, p1 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
        for _ in range(5):
            a = random_pform(rng, n, p1, CAP, 6)
            rep = bochner_identity_report(a)
            assert rep.identity_holds, (n, p1)
            assert rep.coercivity_margin >= 0
            # margin restates the coercivity bound with c = 2
            assert rep.lhs_adjoint + rep.lhs_d >= 2 * p1 * a.norm_sq()


def test_bochner_constant_forms_attain_margin_zero(rng):
    # constant-coefficient forms attain equality in the coercivity bound
    for n, p1 in ((2, 1), (3, 2), (4, 1)):
        comps = {}
        from gauss_hodge.multiindex import enumerate_indices
        for idx in enumerate_indices(n, p1):
            comps[idx] = ScalarField.constant(rng.randint(1, 5), n, CAP)
        a = PForm(n, p1, CAP, components=comps)
        rep = bochner_identity_report(a)
        assert rep.coercivity_margin == 0


def test_ddbar_adjoint_examples():
    zero_rep = ddbar_adjoint_identity_report(ComplexForm(1, (1, 1), CAP))
    assert zero_rep.lhs == 0 and zero_rep.rhs == 0 and zero_rep.discrepancy == 0

    one = ScalarField.constant(1, 2, CAP, "complex")
    rep = ddbar_adjoint_identity_report(ComplexForm.from_layout((1, 1), [[one]]))
    # all derivative terms vanish; the right side reduces to ||a||^2 = 1
    assert rep.terms["norm_sq"] == 1
    assert rep.rhs == 1
    # the ladder adjoint of the constant is zzbar - 1, of squared norm 1
    assert rep.lhs == 1 and rep.discrepancy == 0
    assert rep.duality_exact

    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    rep = ddbar_adjoint_identity_report(ComplexForm.from_layout((1, 1), [[z]]))
    assert rep.lhs == 2 and rep.rhs == 2 and rep.discrepancy == 0


def test_ddbar_adjoint_dual_basis_matches_ladders(rng):
    for n in (1, 2):
        a = random_complexform11(rng, n, 8, 2)
        direct = ddbar_formal_adjoint(a)
        oracle = ddbar_adjoint_dual_basis(a)
        assert direct.coeffs == oracle.coeffs


def _dual_basis_full(alpha):
    """The dual-basis adjoint from every He_d up to two above the data degree."""
    m, top, exact = alpha.n, alpha.degree, alpha.exact
    cap = max(alpha.max_total_degree, (0 if top is None else top) + 2)
    out = {}
    for deg in itertools.product(range(0 if top is None else top + 3), repeat=m):
        if sum(deg) <= top + 2:
            pairing = ddbar(ScalarField(m, cap, "complex", exact, {deg: 1})).weighted_inner(alpha)
            if pairing:
                out[deg] = pairing.conjugate() / hermite_sq_norm_vector(deg)
    return ScalarField(m, cap, "complex", exact, out)


def test_ddbar_adjoint_dual_basis_matches_full_enumeration(rng):
    # the oracle pairs only with He_{e + e_x + e_y}; no other He_d can pair nonzero
    forms = [ComplexForm(1, (1, 1), 8)]
    for n, top, count in ((1, 4, 6), (2, 3, 4), (3, 2, 2)):
        forms += [random_complexform11(rng, n, 8, top) for _ in range(count)]
    for a in forms:
        assert ddbar_adjoint_dual_basis(a).coeffs == _dual_basis_full(a).coeffs


def test_ddbar_adjoint_duality_random_u(rng):
    # <ddbar u, a> = <u, T* a> for random u, with T* from the ladder route
    for n in (1, 2):
        a = random_complexform11(rng, n, 8, 2)
        adj = ddbar_formal_adjoint(a)
        for _ in range(5):
            u = random_complex_function(rng, n, 8, 4)
            assert ddbar(u).weighted_inner(a) == u.weighted_inner(adj)


def test_ddbar_adjoint_report_random(rng):
    for n in (1, 2):
        for _ in range(3):
            a = random_complexform11(rng, n, 8, 2)
            rep = ddbar_adjoint_identity_report(a)
            assert rep.duality_exact
            # the discrepancy is reported, not asserted; record it is finite
            assert rep.discrepancy == rep.lhs - rep.rhs
            data = rep.to_json()
            assert set(data) >= {"lhs", "rhs", "discrepancy", "duality_exact"}


def test_conjugation_identities_examples():
    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert conjugation_identities_check(z) == (True, True, True)
    zzb = zzbar_poly_field(1, CAP, {((1,), (1,)): 1})
    assert conjugation_identities_check(zzb) == (True, True, True)
    z2zb = zzbar_poly_field(1, CAP, {((2,), (1,)): 1})
    assert conjugation_identities_check(z2zb) == (True, True, True)


def test_conjugation_identities_random(rng):
    for n in (1, 2):
        for _ in range(10):
            u = random_complex_function(rng, n, CAP, 6)
            assert conjugation_identities_check(u) == (True, True, True)


def test_ddbar_composes_detects_a_wrong_dbar_ladder(rng, monkeypatch):
    # check (c) builds ddbar from real partial derivatives, so it must notice
    # a dbar that differentiates along dz
    monkeypatch.setattr(calculus, "wirtinger_dzbar", calculus.wirtinger_dz)
    zzb = zzbar_poly_field(1, CAP, {((1,), (1,)): 1})
    assert conjugation_identities_check(zzb)[2] is False
    for n in (1, 2):
        u = random_complex_function(rng, n, CAP, 6)
        assert conjugation_identities_check(u)[2] is False


def test_float_mode_identity_reports(rng):
    a = random_pform(rng, 3, 2, CAP, 6, exact=False)
    rep = d_norm_expansion_report(a)
    assert rep.equal
    rep2 = bochner_identity_report(a)
    assert rep2.identity_holds
    assert rep2.coercivity_margin >= -1e-9
