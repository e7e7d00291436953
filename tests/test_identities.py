import itertools
from fractions import Fraction

import pytest

from gauss_hodge import calculus, identities
from gauss_hodge.calculus import (ComplexForm, ItoForm, PForm, dbar, ddbar, partial,
                                  wirtinger_dz, wirtinger_dzbar)
from gauss_hodge.cli import main
from gauss_hodge.errors import DomainError
from gauss_hodge.fields import ItoField, ScalarField, hermite_sq_norm_vector
from gauss_hodge.potentials import parse_potential
from gauss_hodge.identities import (_real_sum, bochner_identity_report,
                                    conjugation_identities_check,
                                    d_norm_expansion_report,
                                    ddbar_adjoint_dual_basis,
                                    ddbar_adjoint_identity_report,
                                    ddbar_formal_adjoint)
from gauss_hodge.randomforms import (random_complex_function, random_complexform11,
                                     random_pform, random_scalar_field)
from gauss_hodge.scalars import QC
from conftest import doubles, zzbar_poly_field

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


@pytest.mark.parametrize("exact", [True, False], ids=["integers", "doubles"])
def test_bochner_hessian_term_is_the_signed_component_sum(rng, exact):
    """Each p-index J is jI for exactly p pairs (I, j), so the literal Hessian
    sum sum'_I sum_j ||a_{jI}||^2 is p ||a||^2, the value the report takes."""
    from gauss_hodge.identities import CONVEXITY
    from gauss_hodge.multiindex import enumerate_indices
    for n in range(1, 5):
        for p in range(1, min(n, 3) + 1):
            a = random_pform(rng, n, p, CAP, 4)
            a = a if exact else doubles(a)
            literal = sum((a.signed_component(j, I).norm_sq()
                           for I in enumerate_indices(n, p - 1) for j in range(1, n + 1)),
                          Fraction(0))
            assert literal == p * a.norm_sq(), (n, p)
            assert literal == bochner_identity_report(a).rhs_hessian / CONVEXITY, (n, p)


def test_ddbar_adjoint_report_of_zero_carries_eight_zero_terms():
    """The zero form takes the general path: its report has the term keys of
    every other report, each zero."""
    keys = ("norm_sq", "ddbar_sq", "partial_sq", "dbar_sq", "mixed_second_sq", "cross",
            "grad_z_sq", "grad_zbar_sq")
    one = ScalarField.constant(1, 4, CAP, "complex")
    assert set(ddbar_adjoint_identity_report(
        ComplexForm.from_layout((1, 1), [[one, one], [one, one]])).terms) == set(keys)
    rep = ddbar_adjoint_identity_report(ComplexForm(2, (1, 1), CAP))
    assert rep.terms == dict.fromkeys(keys, 0)
    assert (rep.lhs, rep.rhs, rep.discrepancy, rep.duality_exact) == (0, 0, 0, True)
    assert rep.to_json()["terms"] == dict.fromkeys(keys, "0")


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
    m, top = alpha.n, alpha.degree
    cap = max(alpha.max_total_degree, (0 if top is None else top) + 2)
    out = {}
    for deg in itertools.product(range(0 if top is None else top + 3), repeat=m):
        if sum(deg) <= top + 2:
            pairing = ddbar(ScalarField(m, cap, "complex", {deg: 1})).weighted_inner(alpha)
            if pairing:
                out[deg] = pairing.conjugate() / hermite_sq_norm_vector(deg)
    return ScalarField(m, cap, "complex", out)


def test_ddbar_adjoint_dual_basis_matches_full_enumeration(rng):
    # the oracle pairs only with He_{e + e_x + e_y}; no other He_d can pair nonzero
    forms = [ComplexForm(1, (1, 1), 8)]
    for n, top, count in ((1, 4, 6), (2, 3, 4), (3, 2, 2)):
        forms += [random_complexform11(rng, n, 8, top) for _ in range(count)]
    for a in forms:
        assert ddbar_adjoint_dual_basis(a).coeffs == _dual_basis_full(a).coeffs


def test_ddbar_adjoint_dual_basis_over_ito_pairs_one_candidate_per_term(rng, monkeypatch):
    """Over H_{p,q} entry (i, j) of ddbar e_d lowers p_i and q_j, so the oracle
    pairs each candidate e + e_{p_i} + e_{q_j} (e in the support of a_{ij})
    with each entry once: the lowering rule DZBAR_j runs once per pairing."""
    pairings = [0]
    ladder_rules = identities._ladder_rules

    def spy(basis, n, ladder):
        rules = ladder_rules(basis, n, ladder)
        if ladder != calculus.DZBAR:
            return rules
        def counted(rule):
            def count(d):
                pairings[0] += 1
                return rule(d)
            return count
        return tuple(map(counted, rules))

    monkeypatch.setattr(identities, "_ladder_rules", spy)
    for n in (1, 2, 3):
        alpha = ItoForm.from_he(random_complexform11(rng, n, 8, 3))
        candidates = set()
        for (i, j), field in alpha.components.items():
            for e in field.coeffs:
                d = list(e)
                d[2 * i - 2] += 1
                d[2 * (j - n) - 1] += 1
                candidates.add(tuple(d))
        pairings[0] = 0
        ddbar_adjoint_dual_basis(alpha)
        assert pairings[0] == len(candidates) * len(alpha.components)


def _with_zero_entries(rng, n, exact, top=3):
    """A random (1,1)-form on C^n with about a third of its entries zero, of
    integer data or (exact=False) read from doubles after a non-dyadic scale."""
    rows = [[random_scalar_field(rng, 2 * n, 8, top, "complex", 2)
             if rng.random() > 1 / 3 else ScalarField.zero(2 * n, 8, "complex")
             for _ in range(n)] for _ in range(n)]
    rows[0][0] = random_scalar_field(rng, 2 * n, 8, top, "complex", 2)
    form = ComplexForm.from_layout((1, 1), rows)
    return form if exact else doubles(form, QC(Fraction(1, 3), Fraction(1, 7)))


def test_ddbar_adjoint_dual_basis_float_matches_exact(rng):
    # data read from doubles has large power-of-two denominators; the oracle
    # and the ladders still agree under ==
    for n in (1, 2, 3):
        for _ in range(4):
            a = _with_zero_entries(rng, n, False)
            assert ddbar_adjoint_dual_basis(a) == ddbar_formal_adjoint(a)
            assert ddbar_adjoint_identity_report(a).duality_exact


def test_ddbar_adjoint_dual_basis_sums_mixed_denominators(rng):
    """Coefficients over 3, 7 and 5 make the pairing's running denominator
    rescale within one pairing; the oracle still equals the ladder adjoint,
    over He (and the full enumeration there) and over H_{p,q}."""
    scales = itertools.cycle((QC(Fraction(1, 3)), QC(Fraction(2, 7)),
                              QC(Fraction(1, 5), Fraction(1, 5))))

    def mixed(field):
        return ScalarField(field.m, field.max_total_degree, "complex",
                           {d: v * next(scales) for d, v in field.coeffs.items()})

    for n in (1, 2, 3):
        for _ in range(3):
            a = ComplexForm.from_layout((1, 1), [[mixed(random_scalar_field(rng, 2 * n, 8, 3,
                                                                            "complex", 3))
                                                  for _ in range(n)] for _ in range(n)])
            dens = {v._d for f in a.components.values() for v in f.coeffs.values()}
            assert n == 1 or dens >= {3, 7, 5}
            adjoint = ddbar_formal_adjoint(a)
            assert ddbar_adjoint_dual_basis(a) == adjoint
            if n < 3:
                assert adjoint == _dual_basis_full(a)
            ito = ItoForm.from_he(a)
            assert ddbar_adjoint_dual_basis(ito) == ddbar_formal_adjoint(ito)


def _adjoint_report_reference(alpha):
    """The eight terms, lhs and rhs of the adjoint-norm display, each mixed
    second derivative taken by its own pair of ladders wherever it appears."""
    n = alpha.n // 2
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
             "mixed_second_sq": _real_sum(seconds),
             "cross": _real_sum(pairs=crosses),
             "grad_z_sq": _real_sum([wirtinger_dz(a(i, l), k)
                                     for i in axes for l in axes for k in axes]),
             "grad_zbar_sq": _real_sum([wirtinger_dzbar(a(k, j), l)
                                        for k in axes for j in axes for l in axes])}
    t = terms
    rhs = (t["norm_sq"] + t["ddbar_sq"] - t["partial_sq"] - t["dbar_sq"]
           - t["mixed_second_sq"] + t["cross"] + t["grad_z_sq"] + t["grad_zbar_sq"])
    return ddbar_formal_adjoint(alpha).norm_sq(), rhs, terms


def test_ddbar_adjoint_report_matches_reference_loop(rng):
    # on integer data and on data read from doubles
    for n in (1, 2, 3):
        for exact in (True, False):
            for _ in range(3):
                a = _with_zero_entries(rng, n, exact)
                rep = ddbar_adjoint_identity_report(a)
                lhs, rhs, terms = _adjoint_report_reference(a)
                assert list(rep.terms) == list(terms)
                assert rep.terms == terms, (n, exact)
                assert (rep.lhs, rep.rhs, rep.discrepancy) == (lhs, rhs, lhs - rhs)


def test_ddbar_adjoint_duality_random_u(rng):
    # <ddbar u, a> = <u, T* a> for random u, with T* from the ladder route
    for n in (1, 2):
        a = random_complexform11(rng, n, 8, 2)
        adj = ddbar_formal_adjoint(a)
        for _ in range(5):
            u = random_complex_function(rng, n, 8, 4)
            assert ddbar(u).weighted_inner(a) == u.weighted_inner(adj)


@pytest.mark.parametrize("check", [ddbar_formal_adjoint, ddbar_adjoint_dual_basis,
                                   ddbar_adjoint_identity_report])
@pytest.mark.parametrize("bidegree", [(2, 0), (0, 2), (1, 0), (0, 1)],
                         ids=lambda b: "%d,%d" % b)
def test_ddbar_adjoint_refuses_other_bidegrees(check, bidegree):
    """The adjoint, its oracle and its report take only (1,1)-forms: a form of
    another bidegree on C^2 raises DomainError, nonzero or zero, rather than
    giving 0, a field of the wrong adjoint or an IndexError."""
    p, q = bidegree
    idx = tuple(range(1, p + 1)) + tuple(range(3, 3 + q))
    one = ScalarField.constant(1, 4, CAP, "complex")
    for form in (ComplexForm(2, bidegree, CAP, {idx: one}), ComplexForm(2, bidegree, CAP)):
        with pytest.raises(DomainError, match=r"needs a \(1, 1\)-form"):
            check(form)


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


# potentials whose ddbar the checks see over H_{p,q}, as parse_potential gives
# it, and over He; the first is the README's quick-start form
POTENTIALS = {1: [("z**2*conj(z)**2", 8), ("z**3*conj(z)**2 + 2*z*conj(z)**3", 7)],
              2: [("z1*conj(z2)**2 + 3*z2*conj(z2)", 5)],
              3: [("z1*conj(z2)*z3*conj(z3) + 2*z2**2*conj(z1)", 6)]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_checks_read_the_basis_from_the_type(rng, n):
    """Every complex identity check gives one result on a (1,1)-form or a
    function over He and on its image over H_{p,q}: the whole adjoint report,
    the ladder and dual-basis adjoints once converted back to He, and the
    conjugation check."""
    functions = [random_complex_function(rng, n, 8, 4) for _ in range(2)]
    functions += [parse_potential(text, n, cap).to_he() for text, cap in POTENTIALS[n]]
    forms = [random_complexform11(rng, n, 8, 3) for _ in range(2)]
    forms += [ddbar(u) for u in functions[2:]]
    for he in forms:
        ito = ItoForm.from_he(he)
        assert ito.to_he() == he
        report = ddbar_adjoint_identity_report(he)
        assert report.duality_exact and report.discrepancy == 0
        assert ddbar_adjoint_identity_report(ito) == report
        assert ddbar_adjoint_dual_basis(ito).to_he() == ddbar_adjoint_dual_basis(he)
        assert ddbar_formal_adjoint(ito).to_he() == ddbar_formal_adjoint(he)
    for he in functions:
        ito = ItoField.from_he(he)
        assert conjugation_identities_check(ito) == conjugation_identities_check(he) \
            == (True, True, True)


def _one_ulp_off(dbar_function):
    """dbar_function with every coefficient off by one part in 2^52, about one
    unit in the last place of a double."""
    nudge = 1 + Fraction(1, 2 ** 52)

    def off(u):
        form = dbar_function(u)
        return form.replace({idx: field.replace({d: v * nudge for d, v in field.coeffs.items()})
                             for idx, field in form.components.items()})
    return off


def test_float_conjugation_check_detects_a_one_ulp_difference(rng, monkeypatch):
    """A dbar off by one unit in the last place fails the conjugation check on
    data read from doubles: the check compares with ==."""
    u = doubles(random_complex_function(rng, 1, CAP, 6))
    off = _one_ulp_off(identities.dbar_function)
    assert identities.dbar_function(u) != off(u)
    monkeypatch.setattr(identities, "dbar_function", off)
    assert conjugation_identities_check(u) == (False, True, True)


def test_float_verify_fails_on_a_one_ulp_difference(tmp_path, monkeypatch, capsys):
    """verify --mode float writes doubles but compares every identity with ==,
    so a dbar off by one unit in the last place fails it."""
    monkeypatch.setattr(identities, "dbar_function", _one_ulp_off(identities.dbar_function))
    out = tmp_path / "out.jsonl"
    assert main(["verify", "--mode", "float", "--n", "1", "--degree", "4", "--trials", "1",
                 "--output", str(out)]) == 1
    assert '"check": "conjugation_dbar"' in capsys.readouterr().err


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
    # the identities hold exactly on data read from doubles
    a = doubles(random_pform(rng, 3, 2, CAP, 6))
    rep = d_norm_expansion_report(a)
    assert rep.equal and rep.lhs == rep.rhs
    rep2 = bochner_identity_report(a)
    assert rep2.identity_holds
    assert rep2.coercivity_margin >= 0
