import itertools
import math

from gauss_hodge import calculus, identities
from gauss_hodge.calculus import (ComplexForm, PForm, dbar, ddbar, partial, wirtinger_dz,
                                  wirtinger_dzbar)
from gauss_hodge.cli import main
from gauss_hodge.fields import ScalarField, hermite_sq_norm_vector
from gauss_hodge.identities import (_real_sum, bochner_identity_report,
                                    conjugation_identities_check,
                                    d_norm_expansion_report,
                                    ddbar_adjoint_dual_basis,
                                    ddbar_adjoint_identity_report,
                                    ddbar_formal_adjoint)
from gauss_hodge.randomforms import (random_complex_function, random_complexform11,
                                     random_pform, random_scalar_field)
from conftest import zzbar_poly_field

CAP = 10


def x(axis, m=2):
    return ScalarField.coordinate(axis, m, CAP)


def test_d_norm_expansion_examples():
    a = PForm(2, 1, CAP, components={(1,): x(2)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 1 and rep.rhs == 1 and rep.equal

    a = PForm(2, 1, CAP, components={(1,): x(1)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.equal

    a = PForm(2, 1, CAP, components={(1,): ScalarField.constant(1, 2, CAP)})
    rep = d_norm_expansion_report(a)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.equal


def test_d_norm_expansion_random(rng):
    for n, p1 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 2)):
        for _ in range(5):
            a = random_pform(rng, n, p1, CAP, 6)
            rep = d_norm_expansion_report(a)
            assert rep.equal, (n, p1, rep.lhs, rep.rhs)


def test_bochner_examples():
    a = PForm(1, 1, CAP, components={(1,): ScalarField.constant(1, 1, CAP)})
    rep = bochner_identity_report(a)
    assert (rep.lhs_adjoint, rep.lhs_d) == (2, 0)
    assert (rep.rhs_hessian, rep.rhs_gradient) == (2, 0)
    assert rep.identity_holds and rep.coercivity_margin == 0

    a = PForm(1, 1, CAP, components={(1,): ScalarField.coordinate(1, 1, CAP)})
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


def _with_zero_entries(rng, n, exact, top=3):
    """A random (1,1)-form on C^n with about a third of its entries zero."""
    rows = [[random_scalar_field(rng, 2 * n, 8, top, "complex", exact, 2)
             if rng.random() > 1 / 3 else ScalarField.zero(2 * n, 8, "complex", exact)
             for _ in range(n)] for _ in range(n)]
    rows[0][0] = random_scalar_field(rng, 2 * n, 8, top, "complex", exact, 2)
    return ComplexForm.from_layout((1, 1), rows)


def test_ddbar_adjoint_dual_basis_float_matches_exact(rng):
    for n in (1, 2, 3):
        for _ in range(4):
            a = _with_zero_entries(rng, n, True)
            want = ddbar_adjoint_dual_basis(a).to_float().coeffs
            got = ddbar_adjoint_dual_basis(a.to_float()).coeffs
            scale = max(abs(v) for v in want.values())
            for deg in want.keys() | got.keys():
                assert abs(got.get(deg, 0) - want.get(deg, 0)) <= 1e-12 * scale, (n, deg)
            assert ddbar_adjoint_identity_report(a.to_float()).duality_exact
        b = random_complexform11(rng, n, 8, 3, exact=False)
        assert ddbar_adjoint_identity_report(b).duality_exact


def _adjoint_report_reference(alpha):
    """The eight terms, lhs and rhs of the adjoint-norm display, each mixed
    second derivative taken by its own pair of ladders wherever it appears."""
    n = alpha.n // 2
    exact = alpha.exact
    axes = range(1, n + 1)

    def a(i, j):
        return alpha.coefficient((i,), (j,))

    seconds = []
    crosses = []
    for i in axes:
        for j in axes:
            for k in axes:
                for l in axes:
                    second = wirtinger_dz(wirtinger_dzbar(a(i, j), l), k)
                    if second.is_zero():
                        continue
                    seconds.append(second)
                    other = (wirtinger_dz(wirtinger_dzbar(a(i, l), j), k)
                             + wirtinger_dz(wirtinger_dzbar(a(k, j), l), i))
                    crosses.append((second, other))
    terms = {"norm_sq": alpha.norm_sq(), "ddbar_sq": partial(dbar(alpha)).norm_sq(),
             "partial_sq": partial(alpha).norm_sq(), "dbar_sq": dbar(alpha).norm_sq(),
             "mixed_second_sq": _real_sum(exact, seconds),
             "cross": _real_sum(exact, pairs=crosses),
             "grad_z_sq": _real_sum(exact, [wirtinger_dz(a(i, l), k)
                                            for i in axes for l in axes for k in axes]),
             "grad_zbar_sq": _real_sum(exact, [wirtinger_dzbar(a(k, j), l)
                                               for k in axes for j in axes for l in axes])}
    t = terms
    rhs = (t["norm_sq"] + t["ddbar_sq"] - t["partial_sq"] - t["dbar_sq"]
           - t["mixed_second_sq"] + t["cross"] + t["grad_z_sq"] + t["grad_zbar_sq"])
    return ddbar_formal_adjoint(alpha).norm_sq(), rhs, terms


def test_ddbar_adjoint_report_matches_reference_loop(rng):
    # float values are compared by their hex form, so every bit must agree;
    # a non-dyadic scale makes every float sum round, so its order shows
    for n in (1, 2, 3):
        for exact in (True, False):
            for _ in range(3):
                a = _with_zero_entries(rng, n, exact)
                if not exact:
                    a = a.scale(complex(1 / 3, 1 / 7))
                rep = ddbar_adjoint_identity_report(a)
                lhs, rhs, terms = _adjoint_report_reference(a)
                key = (lambda v: v) if exact else float.hex
                assert list(rep.terms) == list(terms)
                for name, value in terms.items():
                    assert key(rep.terms[name]) == key(value), (n, exact, name)
                assert key(rep.lhs) == key(lhs)
                assert key(rep.rhs) == key(rhs)
                assert key(rep.discrepancy) == key(lhs - rhs)


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


def test_float_verify_passes_its_tolerance_to_every_field_comparison(tmp_path, monkeypatch):
    seen = []
    real = identities.negligible
    monkeypatch.setattr(identities, "negligible",
                        lambda *args: seen.append(args[3]) or real(*args))
    assert main(["verify", "--mode", "float", "--n", "1", "--degree", "4", "--trials", "1",
                 "--tolerance", "1e-7", "--output", str(tmp_path / "out")]) == 0
    # conjugation checks (a), (b) and (c) on C^1, then the ddbar adjoint duality
    assert seen == [1e-7] * 4


def test_float_conjugation_check_forgives_a_one_ulp_difference(rng, monkeypatch):
    real = identities.dbar_function

    def one_ulp_off(u):
        form = real(u)
        return form.replace({idx: field.replace(
            {d: complex(math.nextafter(v.real, math.inf), v.imag)
             for d, v in field.coeffs.items()}) for idx, field in form.components.items()})

    u = random_complex_function(rng, 1, CAP, 6, exact=False)
    assert real(u) != one_ulp_off(u)
    monkeypatch.setattr(identities, "dbar_function", one_ulp_off)
    assert conjugation_identities_check(u) == (True, True, True)


def test_ddbar_composes_detects_a_wrong_dbar_ladder(rng, monkeypatch):
    # check (c) builds ddbar from real partial derivatives, so it must notice
    # a dbar that differentiates along dz
    monkeypatch.setattr(calculus, "DZBAR", calculus.DZ)
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
