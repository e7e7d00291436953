"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> ...: PASS`` line (visible with -s or in
captured output); a failing assertion marks the criterion red.  Exact-mode
equalities are checked with ==, never with tolerances.
"""

import random
import time
from fractions import Fraction

from gauss_hodge.bridge import decompose_11, solve_poincare_lelong_full, split_bidegree
from gauss_hodge.calculus import (ComplexForm, PForm, codifferential, dbar_adjoint,
                                  dbar_function, ddbar, exterior_d)
from gauss_hodge.cli import main
from gauss_hodge.fields import ScalarField
from gauss_hodge.identities import (bochner_identity_report,
                                    conjugation_identities_check,
                                    d_norm_expansion_report,
                                    ddbar_adjoint_identity_report)
from gauss_hodge.multiindex import enumerate_indices
from gauss_hodge.randomforms import (random_closed_complexform11,
                                     random_closed_pform, random_complex_function,
                                     random_complexform11,
                                     random_dbar_closed_form01, random_pform)
from gauss_hodge.scalars import QC
from gauss_hodge.solver import solve_d_min_norm, solve_dbar_min_norm

from conftest import doubles, zzbar_poly_field

CONFIGS = ((1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (4, 1))


def compositions(total, m):
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, m - 1):
            yield (head,) + rest


def test_criterion_1_exactness_core():
    """d.d = 0 and <du, a> = <u, T* a> exactly, 200 seeded forms, <= 60 s."""
    start = time.monotonic()
    rng = random.Random(1001)
    cap = 9
    count = 0
    while count < 200:
        n, p = CONFIGS[count % len(CONFIGS)]
        u = random_pform(rng, n, p, cap, 8)
        assert exterior_d(exterior_d(u)).is_zero()
        alpha = random_pform(rng, n, p + 1, cap, 8)
        assert exterior_d(u).weighted_inner(alpha) \
            == u.weighted_inner(codifferential(alpha))
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 1 exactness core: PASS (200 forms, {elapsed:.1f}s)")


def test_criterion_2_norm_and_bochner_identities():
    """Squared-norm expansion and the adjoint-norm identity, with coercivity."""
    rng = random.Random(1002)
    cap = 9
    for exact in (True, False):
        for n, p in CONFIGS:
            for _ in range(100):
                alpha = random_pform(rng, n, p + 1, cap, 8)
                alpha = alpha if exact else doubles(alpha)
                expansion = d_norm_expansion_report(alpha)
                bochner = bochner_identity_report(alpha)
                assert expansion.equal and expansion.lhs == expansion.rhs
                assert bochner.identity_holds
                assert bochner.lhs_adjoint + bochner.lhs_d \
                    == bochner.rhs_hessian + bochner.rhs_gradient
                assert bochner.coercivity_margin >= 0
    print("\nACCEPTANCE 2 norm expansion + Bochner identity: PASS "
          "(100/config on integer data and on data read from doubles)")


def test_criterion_3_poincare_bound():
    """50 closed 2-forms on R^4: exact residual 0, ratio <= 1/4; equality case."""
    rng = random.Random(1003)
    n, cap = 4, 8
    bound = Fraction(1, 4)
    for _ in range(50):
        f = random_closed_pform(rng, n, 2, cap, 6)
        assert f.degree <= 6
        u, rep = solve_d_min_norm(f)
        assert rep.residual_norm_sq == 0
        assert (exterior_d(u) - f).is_zero()
        assert rep.ratio <= bound
    const = PForm(2, 2, cap, components={(1, 2): ScalarField.constant(1, 2, cap)})
    _, rep = solve_d_min_norm(const)
    assert rep.ratio == bound
    print("\nACCEPTANCE 3 weighted Poincare bound 1/4: PASS "
          "(50 solves, equality attained by the constant form)")


def test_criterion_4_hormander_bound():
    """50 dbar-closed (0,1)-forms on C^1 and C^2: residual 0, ratio <= 2."""
    rng = random.Random(1004)
    cap = 8
    for n, trials in ((1, 25), (2, 25)):
        for _ in range(trials):
            g = random_dbar_closed_form01(rng, n, cap, 6)
            assert g.degree <= 6
            u, rep = solve_dbar_min_norm(g)
            assert rep.residual_norm_sq == 0
            assert (dbar_function(u) - g).is_zero()
            assert rep.ratio <= 2
    _, rep = solve_dbar_min_norm(
        ComplexForm.from_layout((0, 1), [ScalarField.constant(1, 2, cap, "complex")]))
    assert rep.ratio == 1
    z = zzbar_poly_field(1, cap, {((1,), (0,)): 1})
    _, rep = solve_dbar_min_norm(ComplexForm.from_layout((0, 1), [z]))
    assert rep.ratio == 1
    print("\nACCEPTANCE 4 Hormander bound 2: PASS "
          "(50 solves; dzbar and z dzbar give ratio exactly 1)")


def test_criterion_5_poincare_lelong_end_to_end():
    """ddbar u = f for 30 potentials on C^1 and 10 on C^2, all stage bounds."""
    start = time.monotonic()
    rng = random.Random(1005)
    cap = 7
    quarter = Fraction(1, 4)
    for exact in (True, False):
        for n, trials in ((1, 30), (2, 10)):
            for _ in range(trials):
                w_pot, f = random_closed_complexform11(rng, n, cap, 5)
                if exact:
                    u, rep = solve_poincare_lelong_full(f)
                    assert rep.final.residual_norm_sq == 0
                    assert (ddbar(u) - f).is_zero()
                else:
                    # read from doubles, f is closed up to rounding
                    f = doubles(f, QC(Fraction(1, 3), Fraction(-1, 7)))
                    u, rep = solve_poincare_lelong_full(f, 1e-10)
                    assert rep.final.residual_norm_sq \
                        <= Fraction(1e-10) ** 2 * rep.final.input_norm_sq
                assert rep.final.ratio <= 2
                assert rep.final.bound_satisfied
                for stage in (rep.d_solve_re, rep.d_solve_im):
                    assert stage.bound_constant == quarter
                    assert stage.bound_satisfied
                for stage in (rep.dbar_solve_re, rep.dbar_solve_im):
                    assert stage.bound_satisfied
                for ratio in rep.conjugation_ratios.values():
                    assert ratio <= 4
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    print(f"\nACCEPTANCE 5 Poincare-Lelong end-to-end: PASS "
          f"(40 potentials, exact and read from doubles, every stage bound held, "
          f"{elapsed:.1f}s)")


def test_criterion_6_conversion_identities():
    """|f1|^2+|f2|^2 = 4|f|^2 and |v10|^2 = |v01|^2 = |v|^2/4, coefficient-exact
    and at 100 sample points per trial."""
    rng = random.Random(1006)
    cap = 8
    for trial in range(10):
        n = 1 + trial % 2
        f = random_complexform11(rng, n, cap, 4)
        f1, f2 = decompose_11(f)
        lhs_poly = None
        for form in (f1, f2):
            for comp in form.components.values():
                sq = comp.multiply(comp)
                lhs_poly = sq if lhs_poly is None else lhs_poly + sq
        rhs_poly = f.pointwise_norm_sq_field().real_part().scale(4)
        assert lhs_poly == rhs_poly

        v = random_pform(rng, 2 * n, 1, cap, 4)
        v10, v01 = split_bidegree(v)
        v_sq_poly = None
        for comp in v.components.values():
            sq = comp.multiply(comp)
            v_sq_poly = sq if v_sq_poly is None else v_sq_poly + sq
        for half in (v10, v01):
            half_sq = None
            for comp in half.components.values():
                sq = comp.multiply(comp.conjugate())
                half_sq = sq if half_sq is None else half_sq + sq
            assert half_sq.real_part().scale(4) == v_sq_poly
            assert half_sq.imag_part().is_zero()

        for _ in range(100):
            point = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                          for _ in range(2 * n))
            lhs = sum(val * val for val in f1.evaluate(point).values()) \
                + sum(val * val for val in f2.evaluate(point).values())
            rhs = sum(f.coefficient((i,), (j,)).evaluate(point).modulus_sq()
                      for i in range(1, n + 1) for j in range(1, n + 1))
            assert lhs == 4 * rhs
            v_vals = v.evaluate(point)
            v_total = sum(val * val for val in v_vals.values())
            v10_total = sum(c.evaluate(point).modulus_sq() for c in v10.components.values())
            assert 4 * v10_total == v_total
    print("\nACCEPTANCE 6 conversion norm identities: PASS "
          "(coefficient-exact + 100 sample points x 10 trials)")


def test_criterion_7_conjugation_identities():
    """The three conjugation identities on 100 random functions, degree <= 6."""
    rng = random.Random(1007)
    cap = 9
    for n, trials in ((1, 50), (2, 50)):
        for _ in range(trials):
            u = random_complex_function(rng, n, cap, 6)
            assert conjugation_identities_check(u) == (True, True, True)
    print("\nACCEPTANCE 7 conjugation identities: PASS (100 functions)")


def test_criterion_8_degree_block_preservation():
    """d T* and dbar dbar* map every total-degree level into itself,
    exhaustively for levels <= 10 and dimensions <= 3."""
    checked = 0
    for n in (1, 2, 3):
        for p1 in range(1, n + 1):
            for level in range(11):
                cap = level + 1
                for idx in enumerate_indices(n, p1):
                    for deg in compositions(level, n):
                        e = PForm(n, p1, cap, components={
                            idx: ScalarField(n, cap, "real", {deg: 1})})
                        out = exterior_d(codifferential(e))
                        assert {f.degree for f in out.components.values()} <= {level}
                        checked += 1
    for n in (1, 2, 3):
        for level in range(11):
            cap = level + 1
            zero = ScalarField.zero(2 * n, cap, "complex")
            for j in range(n):
                for deg in compositions(level, 2 * n):
                    comps = [zero] * n
                    comps[j] = ScalarField(2 * n, cap, "complex", {deg: 1})
                    out = dbar_function(dbar_adjoint(ComplexForm.from_layout((0, 1), comps)))
                    assert {f.degree for f in out.components.values()
                            if not f.is_zero()} <= {level}
                    checked += 1
    print(f"\nACCEPTANCE 8 degree-block preservation: PASS "
          f"({checked} basis elements, zero leakage)")


def test_criterion_9_ddbar_adjoint_report():
    """The adjoint-norm report is produced and internally consistent for
    25 random (1,1)-forms; the discrepancy is recorded, not asserted."""
    rng = random.Random(1009)
    cap = 8
    discrepancies = []
    for n, trials in ((1, 13), (2, 12)):
        for _ in range(trials):
            alpha = random_complexform11(rng, n, cap, 2)
            rep = ddbar_adjoint_identity_report(alpha)
            assert rep.duality_exact, "dual-basis oracle disagrees with the ladder adjoint"
            assert rep.discrepancy == rep.lhs - rep.rhs
            data = rep.to_json()
            assert {"lhs", "rhs", "discrepancy", "duality_exact", "terms"} <= set(data)
            discrepancies.append(rep.discrepancy)
    zero_count = sum(1 for d in discrepancies if d == 0)
    print(f"\nACCEPTANCE 9 ddbar adjoint-norm report: PASS "
          f"(25 reports, duality exact; observed discrepancy zero in "
          f"{zero_count}/25 instances)")


def test_criterion_10_determinism(tmp_path):
    """Identical (config, seed) produce byte-identical report files."""
    args = ["verify", "--mode", "exact", "--n", "2", "--degree", "6",
            "--trials", "3", "--seed", "99"]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    print("\nACCEPTANCE 10 determinism: PASS (byte-identical reports)")
