import json
import random
import sys
from fractions import Fraction

import pytest

from gauss_hodge import bridge
from gauss_hodge.bridge import (PipelineReport, decompose_11, recompose_11, solve_poincare_lelong,
                                solve_poincare_lelong_full, split_bidegree,
                                two_form_complex_parts)
from gauss_hodge.calculus import ComplexForm, ComplexFrameForm, ItoForm, PForm, ddbar, exterior_d
from gauss_hodge.errors import DimensionMismatchError, InvariantViolationError, NotClosedError
from gauss_hodge.fields import ItoField, ScalarField
from gauss_hodge.identities import ddbar_formal_adjoint
from gauss_hodge.potentials import parse_potential
from gauss_hodge.randomforms import (random_closed_complexform11, random_complexform11,
                                     random_pform)
from gauss_hodge.scalars import HALF, IMAG_UNIT, QC, to_double
from gauss_hodge.solver import SolveReport, solve_d_min_norm_full

from conftest import doubles, zzbar_poly_field
from test_output_digests import LELONG_DIGESTS

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


def _zero_inputs(tmp_path) -> list:
    """(f, tolerance) for zero (1,1)-forms on C^2: over He at capacities 0 and
    6, read from a float file whose every entry is an explicit 0.0, and the
    ddbar, over H_{p,q}, of a pluriharmonic potential."""
    data = ComplexForm(2, (1, 1), 6).to_json(to_double)
    for row in data["entries"]:
        for entry in row:
            entry["coeffs"] = [{"deg": [0, 0, 0, 0], "re": 0.0, "im": 0.0},
                               {"deg": [1, 0, 2, 1], "re": -0.0, "im": 0.0}]
    path = tmp_path / "zero-float.json"
    path.write_text(json.dumps(data))
    return [(ComplexForm(2, (1, 1), 0), 0), (ComplexForm(2, (1, 1), 6), 0),
            (ComplexForm.from_json(json.loads(path.read_text()), (1, 1)), 1e-10),
            (ddbar(parse_potential("z1 + conj(z2) + z1*z2 + 3", 2, 4)), 0)]


def test_zero_input_solves_to_zero_with_the_zero_report(tmp_path):
    """A zero (1,1)-form, at any capacity, in either basis and from a float
    file, solves to a zero u in the input's basis and shape, with every stage
    and final report zero at its bound constant and no conjugation ratio."""
    zero = Fraction(0)

    def empty(bound):
        return SolveReport(zero, zero, zero, bound, zero, True, 0)

    d_rep, dbar_rep = empty(Fraction(1, 4)), empty(Fraction(2))
    expected = PipelineReport(d_rep, d_rep, dbar_rep, dbar_rep, dbar_rep, {})
    inputs = _zero_inputs(tmp_path)
    assert [type(f) for f, _ in inputs] == [ComplexForm] * 3 + [ItoForm]
    for f, tolerance in inputs:
        assert f.is_zero()
        u, report = solve_poincare_lelong_full(f, tolerance)
        assert u.is_zero() and type(u) is f.field_type
        assert (u.m, u.max_total_degree, u.kind) == (f.n, f.max_total_degree, f.kind)
        assert report == expected


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
                      Fraction(1), False, 1)
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


@pytest.mark.parametrize("part, stage", [(0, "type_purity_re"), (1, "dbar_solve_re"),
                                         (1, "final_bound")])
def test_pipeline_faults_past_the_d_solves_are_invariant_violations(monkeypatch, part, stage):
    """The d solves accept closed input; a (1,0) part that is not partial-closed,
    a (0,1) part that is not dbar-closed, or one that only makes u too large,
    after them is the pipeline's own fault, never a NotClosedError about the
    input.  The bump is injected where the pipeline reads the parts of v_k off
    the complex frame."""
    # z2 dz1 and zbar2 dzbar1 on C^2: partial = dz2 ^ dz1, dbar = dzbar2 ^ dzbar1.
    # 20 zbar2 dzbar2 = dbar(10 zbar2^2) is closed; its solution 10 zbar2^2 is
    # antiholomorphic, so ddbar u stays f while ||u||^2 grows past 2 ||f||^2.
    zero = ScalarField.zero(4, CAP, "complex")
    if stage == "final_bound":
        layout = [zero, zzbar_poly_field(2, CAP, {((0, 0), (0, 1)): 20})]
    else:
        layout = [zzbar_poly_field(2, CAP, {((0, 1), (0, 0)) if part == 0
                                            else ((0, 0), (0, 1)): 1}), zero]
    bad = ItoForm.from_he(ComplexForm.from_layout((1, 0) if part == 0 else (0, 1), layout))
    honest = bridge._type_parts

    def parts_with_a_bump(v, comps, form_type):
        pieces = list(honest(v, comps, form_type))
        pieces[part] = pieces[part] + bad
        return tuple(pieces)

    monkeypatch.setattr(bridge, "_type_parts", parts_with_a_bump)
    f = ddbar(zzbar_poly_field(2, CAP, {((1, 0), (1, 1)): 1, ((1, 1), (0, 1)): QC(2, -1)}))
    with pytest.raises(InvariantViolationError) as err:
        solve_poincare_lelong(f)
    assert err.value.stage == stage and str(err.value).startswith(stage + ": ")
    assert err.value.lhs != 0


def test_pipeline_random_exact(rng):
    for n in (1, 2):
        for _ in range(3):
            w, f = random_closed_complexform11(rng, n, CAP, 3)
            u, rep = solve_poincare_lelong(f)
            assert (ddbar(u) - f).is_zero()
            assert rep.bound_satisfied


def test_pipeline_float(rng):
    """A closed (1,1)-form times 1/3 + i/5, read from doubles, is often closed
    only up to the rounding of its coefficients: the pipeline refuses such an
    input without a tolerance and solves it within one."""
    for _ in range(20):
        _, f = random_closed_complexform11(rng, 2, CAP, 6)
        f = doubles(f, QC(Fraction(1, 3), Fraction(1, 5)))
        try:
            solve_poincare_lelong(f)
        except NotClosedError:
            break
    else:
        raise AssertionError("the rounding kept every input closed")
    u, rep = solve_poincare_lelong(f, 1e-10)
    assert 0 < rep.residual_norm_sq <= Fraction(1e-10) ** 2 * rep.input_norm_sq
    assert rep.bound_satisfied


def test_pipeline_exact_and_float_agree(rng):
    """Float mode computes the exact pipeline: with a tolerance, a closed
    input solves to the same u and report."""
    _, f = random_closed_complexform11(rng, 2, CAP, 3)
    u_e, rep_e = solve_poincare_lelong_full(f)
    u_f, rep_f = solve_poincare_lelong_full(f, 1e-10)
    assert u_f == u_e
    assert rep_f.to_json() == rep_e.to_json()
    assert rep_f.final.residual_norm_sq == 0



def _direct_ddbar_solve(f: ComplexForm):
    """The spectral solve of ddbar u = f for a closed (1,1)-form, built apart
    from the pipeline.  Over H_{a,b} the two weighted Laplacians act on a
    (1,1) coefficient as |a| + 1 and |b| + 1, so u = ddbar*(g) with g the
    coefficients of f divided by their product.  Returns (f over H_{p,q}, u
    over H_{p,q}, u over the basis of f)."""
    h = ItoForm.of(f)
    g = ItoForm(h.n // 2, (1, 1), h.max_total_degree, {
        idx: ItoField(field.m, field.max_total_degree, "complex",
                      {key: v / ((sum(key[0::2]) + 1) * (sum(key[1::2]) + 1))
                       for key, v in field.coeffs.items()})
        for idx, field in h.components.items()})
    u = ddbar_formal_adjoint(g)
    return h, u, (u if isinstance(f, ItoForm) else u.to_he())


def _oracle_inputs() -> list:
    """The six potentials of the lelong digests, over H_{p,q}, and twelve
    seeded closed (1,1)-forms over He on C^1..C^3."""
    forms = []
    for argv, _ in LELONG_DIGESTS.values():
        opts = dict(zip(argv[0::2], argv[1::2]))
        forms.append(ddbar(parse_potential(opts["--from-potential"], int(opts["--n"]),
                                           int(opts["--degree"]))))
    rng = random.Random(20191)
    for n in (1, 2, 3):
        for _ in range(4):
            forms.append(random_closed_complexform11(rng, n, 6, 4)[1])
    return forms


def test_pipeline_solution_is_the_direct_spectral_solve():
    """The pipeline's u is the minimum-norm solution, u = ddbar*(G f): equal
    under == to the direct spectral solve, which solves ddbar u = f on its own,
    and within the sharp constant 1/(pq) = 1 at (1,1)."""
    forms = _oracle_inputs()
    assert sum(isinstance(f, ItoForm) for f in forms) == 6 and len(forms) == 18
    for f in forms:
        h, direct_ito, direct = _direct_ddbar_solve(f)
        assert ddbar(direct_ito) == h
        u, _ = solve_poincare_lelong_full(f)
        assert u == direct
        assert u.norm_sq() <= f.norm_sq()


def _per_part_d_solves(f, tolerance=0):
    """The d stage solved part by part: f1 = (f + conj f)/2 and
    f2 = (f - conj f)/(2i) as real 2-forms in the complex frame, each solved
    on its own, re first.  Returns [(v_k, report_k)], or the NotClosedError
    of the first part refused."""
    h = ItoForm.of(f)
    conj = h.conjugate()
    out = []
    for g, s in ((h + conj, HALF), (h - conj, -IMAG_UNIT * HALF)):
        fk = ComplexFrameForm(h.n, 2, h.max_total_degree, "complex", g.components).scale(s)
        try:
            vk, _, rep = solve_d_min_norm_full(fk, tolerance)
        except NotClosedError as exc:
            return exc
        out.append((vk, rep))
    return out


def _pipeline_d_stage(monkeypatch, f, tolerance=0):
    """The pipeline's v_1, v_2 and d stage reports."""
    seen = []
    honest = bridge._type_parts

    def spy(v, comps, form_type):
        seen.append(v)
        return honest(v, comps, form_type)

    monkeypatch.setattr(bridge, "_type_parts", spy)
    _, report = solve_poincare_lelong_full(f, tolerance)
    return list(zip(seen, (report.d_solve_re, report.d_solve_im)))


def test_d_stage_is_the_per_part_solves(monkeypatch):
    """The one complex d solve gives each part what its own solve gives:
    v_k and its report under ==, on closed (1,1)-forms on C^1..C^3 and on
    their doubles, whose stage residuals at tolerance 1e-10 are not zero."""
    rng = random.Random(26)
    residuals = []
    for n in (1, 2, 3):
        for k in range(4):
            _, f = random_closed_complexform11(rng, n, 7, 5 if n < 3 else 4)
            tolerance = 0
            if k % 2:
                f, tolerance = doubles(f, QC(Fraction(1, 3), Fraction(1, 5))), 1e-10
            parts = _pipeline_d_stage(monkeypatch, f, tolerance)
            assert parts == _per_part_d_solves(f, tolerance)
            residuals += [rep.residual_norm_sq for _, rep in parts]
    assert any(residuals) and not all(residuals)


def _real_part(f):
    """(f + conj f)/2, a real (1,1)-form: closed when f is."""
    return (f + f.conjugate()).scale(HALF)


@pytest.mark.parametrize("tolerance", [0, 1e-3])
@pytest.mark.parametrize("open_parts", ["re", "im", "both"])
def test_d_stage_refuses_as_the_per_part_solves(open_parts, tolerance):
    """A (1,1)-form whose real part, imaginary part or both are open is
    refused with the message and residual of the first open part's own solve,
    its ||df_k||^2."""
    rng = random.Random(2026)
    closed = _real_part(random_closed_complexform11(rng, 2, 7, 4)[1])
    opened = [_real_part(random_complexform11(rng, 2, 7, 3)) for _ in range(2)]
    re, im = {"re": (opened[0], closed), "im": (closed, opened[0]),
              "both": opened}[open_parts]
    f = re + im.scale(IMAG_UNIT)
    oracle = _per_part_d_solves(f, tolerance)
    assert isinstance(oracle, NotClosedError)
    with pytest.raises(NotClosedError) as err:
        solve_poincare_lelong_full(f, tolerance)
    assert str(err.value) == str(oracle)
    assert err.value.residual_norm_sq == oracle.residual_norm_sq > 0
    first = re if open_parts != "im" else im
    assert oracle.residual_norm_sq == exterior_d(
        ComplexFrameForm(4, 2, 7, "complex", ItoForm.of(first).components)).norm_sq()


def test_a_small_open_part_is_refused_although_f_passes_whole():
    """Doubles of a tiny open real part next to a large closed imaginary part:
    df is negligible against ||f||^2, but df_1 is not against ||f_1||^2, so
    the d stage refuses f as the real part's own solve does."""
    rng = random.Random(11)
    small = doubles(_real_part(random_complexform11(rng, 2, 7, 3)), Fraction(1, 2 ** 40))
    large = doubles(_real_part(random_closed_complexform11(rng, 2, 7, 4)[1]))
    f = small + large.scale(IMAG_UNIT)
    h = ItoForm.of(f)
    solve_d_min_norm_full(ComplexFrameForm(4, 2, 7, "complex", h.components), 1e-10)
    oracle = _per_part_d_solves(f, 1e-10)
    assert isinstance(oracle, NotClosedError)
    with pytest.raises(NotClosedError) as err:
        solve_poincare_lelong_full(f, 1e-10)
    assert (str(err.value), err.value.residual_norm_sq) == (str(oracle),
                                                            oracle.residual_norm_sq)


def _exterior_d_calls(monkeypatch) -> list:
    """The forms that every exterior_d call in the package is made on."""
    seen, honest = [], exterior_d

    def spy(u):
        seen.append(u)
        return honest(u)

    for name, module in list(sys.modules.items()):
        if name.startswith("gauss_hodge") and getattr(module, "exterior_d", None) is honest:
            monkeypatch.setattr(module, "exterior_d", spy)
    return seen


@pytest.mark.parametrize("source", ["doubles", "potential"])
def test_d_stage_computes_dg_and_dv_once(monkeypatch, source):
    """The pipeline applies d once to g, the closure gate of every part, and
    once to v, the residual of every part: also when the stage residuals are
    not zero, where d g and d v were once computed a second time."""
    if source == "doubles":
        rng = random.Random(26)  # the eighth form of test_d_stage_is_the_per_part_solves
        forms = [random_closed_complexform11(rng, n, 7, 5)[1] for n in (1,) * 4 + (2,) * 4]
        f, tolerance = doubles(forms[-1], QC(Fraction(1, 3), Fraction(1, 5))), 1e-10
    else:
        f = ddbar(parse_potential("z1**2*conj(z1)*conj(z2) + 3*z2*conj(z2)**2", 2, 6))
        tolerance = 0
    seen = _exterior_d_calls(monkeypatch)
    _, report = solve_poincare_lelong_full(f, tolerance)
    h = ItoForm.of(f)
    assert len(seen) == 2
    assert seen[0] == ComplexFrameForm(h.n, 2, h.max_total_degree, "complex", h.components)
    assert seen[1].p == 1
    residuals = (report.d_solve_re.residual_norm_sq, report.d_solve_im.residual_norm_sq)
    assert all(residuals) if source == "doubles" else not any(residuals)


def _checked(part):
    """The form the checked constructor builds from the components of ``part``."""
    return type(part)(part.n // 2, part.bidegree, part.max_total_degree, part.components)


def test_type_parts_are_the_checked_construction():
    """Each (p, q) part, built trusted, equals with its capacity the form the
    checked constructor builds from the same components: for He real-frame 1-
    and 2-forms, for complex-frame forms over H_{p,q}, and for an empty part,
    which keeps its bidegree and capacity."""
    rng = random.Random(30)
    cases = []
    for n in (1, 2, 3):
        for p in (1, 2):
            v = random_pform(rng, 2 * n, p, 7, 4)
            cases.append((v, bridge._frame_change(v.promote_complex(), to_complex=True),
                          ComplexForm))
            x = random_pform(rng, 2 * n, p, 7, 4, "complex")
            x = ComplexFrameForm(2 * n, p, 7, "complex",
                                 {i: ItoField.from_he(f) for i, f in x.components.items()})
            cases.append((x, x.components, ItoForm))
    # dz1 ^ dzbar1 alone: its (2,0) and (0,2) parts are empty
    pure11 = ComplexFrameForm(2, 2, 7, "complex", {(1, 2): ItoField.constant(1, 2, 7)})
    cases.append((pure11, pure11.components, ItoForm))
    for v, comps, form_type in cases:
        parts = bridge._type_parts(v, comps, form_type)
        assert [part.bidegree for part in parts] == [(k, v.p - k) for k in range(v.p, -1, -1)]
        for part in parts:
            assert type(part) is form_type
            assert part == _checked(part)
            assert (part.max_total_degree, part.n, part.p) == (v.max_total_degree, v.n, v.p)
    assert [part.is_zero() for part in bridge._type_parts(pure11, pure11.components, ItoForm)] \
        == [True, False, True]


def test_complex_parts_refuse_forms_not_in_the_real_frame_over_he():
    """split_bidegree and two_form_complex_parts read real-frame axes and He
    coefficients: a form over H_{p,q} is refused, as the checked constructor
    once refused its parts, and so is a form already in the complex frame,
    whose dz_1 was once split as if it were dx_1."""
    one, ito = ScalarField.constant(1, 2, 5, "complex"), ItoField.constant(1, 2, 5)
    for split, forms in ((split_bidegree, [ComplexForm.from_layout((1, 0), [one]),
                                           ComplexFrameForm(2, 1, 5, "complex", {(1,): ito})]),
                         (two_form_complex_parts, [const11(1),
                                                   ComplexFrameForm(2, 2, 5, "complex",
                                                                    {(1, 2): ito})])):
        for form in forms:
            with pytest.raises(DimensionMismatchError, match="real-frame"):
                split(form)


@pytest.mark.parametrize("form", [
    PForm(2, 2, 5, "real", {(1, 2): ScalarField.constant(1, 2, 5)}),
    ComplexForm.from_layout((1, 0), [ScalarField.constant(1, 2, 5, "complex")]),
    ComplexForm.from_layout((0, 1), [ScalarField.constant(1, 2, 5, "complex")]),
    PForm(3, 2, 5, "real", {(1, 2): ScalarField.constant(1, 3, 5)}),
    ItoForm.from_he(const11(1))], ids=["dx1^dx2", "(1,0)", "(0,1)", "R^3", "over-Ito"])
def test_decompose_refuses_all_but_a_11_form_over_he(form):
    """decompose_11 reads its input as a (1,1)-form over He: it once read the
    real dx_1 ^ dx_2 as dz_1 ^ dzbar_1 and split forms of other degrees too."""
    with pytest.raises(DimensionMismatchError, match=r"expected a \(1,1\) ComplexForm over He"):
        decompose_11(form)


def test_pipeline_checks_only_the_functions_it_differentiates(monkeypatch):
    """During the solve of a potential's ddbar, every checked PForm
    constructor call comes from ComplexForm.function, the public entry of
    dbar_function and ddbar: the u of each dbar residual and of the final
    residual.  Every other form is an operator's output, built trusted."""
    f = ddbar(parse_potential("z1**2*conj(z1)*conj(z2) + 3*z2*conj(z2)**2", 2, 6))
    function_code = ComplexForm.function.__func__.__code__
    honest, callers = PForm.__init__, []

    def spy(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not function_code:
            frame = frame.f_back
        callers.append(frame is not None)
        honest(self, *args, **kwargs)

    monkeypatch.setattr(PForm, "__init__", spy)
    solve_poincare_lelong_full(f)
    assert callers == [True] * 3
