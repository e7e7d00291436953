import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gauss_hodge import bridge, solver
from gauss_hodge.calculus import (ComplexForm, PForm, codifferential, dbar_adjoint,
                                  dbar_function, ddbar, delta_z, delta_zbar, exterior_d,
                                  wirtinger_dzbar)
from gauss_hodge.errors import (DegreeOverflowError, InvariantViolationError, NotClosedError,
                                SolveNumericalError)
from gauss_hodge.fields import (ItoField, ScalarField, _convert_pairs, complex_hermite_to_he,
                                he_to_complex_hermite, hermite_sq_norm_vector)
from gauss_hodge.multiindex import enumerate_indices
from gauss_hodge.randomforms import random_closed_pform, random_dbar_closed_form01
from gauss_hodge.scalars import QC
from gauss_hodge.solver import (_make_report, bound_holds, negligible, solve_d_min_norm,
                                solve_d_min_norm_full, solve_dbar_min_norm,
                                solve_dbar_min_norm_full)

from conftest import nullspace, rref, zzbar_poly_field

CAP = 9


def degree_vectors(m, max_total):
    if m == 1:
        return [(t,) for t in range(max_total + 1)]
    out = []
    for head in range(max_total + 1):
        for rest in degree_vectors(m - 1, max_total - head):
            out.append((head,) + rest)
    return out


def compositions(total, m):
    """Degree vectors with exact sum, avoiding the enumerate-then-filter waste."""
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, m - 1):
            yield (head,) + rest


def pform_basis(n, p, max_total, cap):
    basis = []
    for idx in enumerate_indices(n, p):
        for deg in degree_vectors(n, max_total):
            basis.append((idx, deg))
    return basis


def pform_to_vector(form, basis):
    out = []
    for idx, deg in basis:
        f = form.components.get(idx)
        out.append(f.coeffs.get(deg, Fraction(0)) if f is not None else Fraction(0))
    return out


def basis_pform(n, idx, deg, cap):
    return PForm(n, len(idx), cap, components={idx: ScalarField(n, cap, "real", True, {deg: 1})})


def weighted_dot(vec_a, vec_b, basis):
    total = Fraction(0)
    for a, b, (_, deg) in zip(vec_a, vec_b, basis):
        if a and b:
            total += a * b * hermite_sq_norm_vector(deg)
    return total


def test_d_solve_constant_form_attains_bound():
    f = PForm(2, 2, CAP, components={(1, 2): ScalarField.constant(1, 2, CAP)})
    u, rep = solve_d_min_norm(f)
    x1 = ScalarField.coordinate(1, 2, CAP)
    x2 = ScalarField.coordinate(2, 2, CAP)
    assert u.component((1,)) == x2.scale(Fraction(-1, 2))
    assert u.component((2,)) == x1.scale(Fraction(1, 2))
    assert rep.output_norm_sq == Fraction(1, 4)
    assert rep.input_norm_sq == 1
    assert rep.ratio == Fraction(1, 4) == rep.bound_constant
    assert rep.bound_satisfied and rep.residual_norm_sq == 0


def test_d_solve_zero():
    f = PForm(2, 2, CAP)
    u, rep = solve_d_min_norm(f)
    assert u.is_zero() and rep.ratio == 0 and rep.blocks_solved == 0


def _zero_report_json(bound, exact: bool) -> dict:
    zero = "0" if exact else 0.0
    return {"residual": zero, "input_norm_sq": zero, "output_norm_sq": zero,
            "bound_constant": str(bound) if exact else float(bound), "ratio": zero,
            "bound_satisfied": True, "blocks_solved": 0}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("cap", [0, 1, 4])
def test_zero_input_solves_to_zero_at_any_capacity(cap, exact):
    """Zero input runs the general solve: u and beta are the zero forms of
    the input's shape and capacity, and the report is all zeros with the
    solve's bound."""
    for p in (1, 2):
        f = PForm(2, p, cap, "real", exact)
        u, beta, rep = solve_d_min_norm_full(f)
        assert u == PForm(2, p - 1, cap, "real", exact) and u.max_total_degree == cap
        assert beta == f and beta.max_total_degree == cap
        assert rep.to_json() == _zero_report_json(Fraction(1, 2 * p), exact)
    g = ComplexForm(2, (0, 1), cap, exact)
    u, beta, rep = solve_dbar_min_norm_full(g)
    assert u == ScalarField.zero(4, cap, "complex", exact) and u.max_total_degree == cap
    assert beta == g and beta.max_total_degree == cap
    assert rep.to_json() == _zero_report_json(2, exact)


def test_d_solve_supplied_as_dg():
    # f = x_2 dx_1^dx_2 = d(x_1 x_2 dx_2)
    x1 = ScalarField.coordinate(1, 2, CAP)
    x2 = ScalarField.coordinate(2, 2, CAP)
    g = PForm(2, 1, CAP, components={(2,): x1.multiply(x2).with_capacity(CAP)})
    f = exterior_d(g)
    assert f.component((1, 2)) == x2
    u, rep = solve_d_min_norm(f)
    assert (exterior_d(u) - f).is_zero()
    assert rep.residual_norm_sq == 0
    assert rep.ratio <= Fraction(1, 4)
    assert rep.ratio == Fraction(1, 6)  # ladder algebra: ||u||^2 = 1/12, ||f||^2 = 1/2


def test_d_solve_bound_on_r1():
    # du/dx = 1 -> u = x, equality in the p = 0 bound 1/2
    f = PForm(1, 1, CAP, components={(1,): ScalarField.constant(1, 1, CAP)})
    u, rep = solve_d_min_norm(f)
    assert u.component(()) == ScalarField.coordinate(1, 1, CAP)
    assert rep.ratio == Fraction(1, 2) == rep.bound_constant


def test_d_solve_rejects_nonclosed():
    x3 = ScalarField.coordinate(3, 3, CAP)
    f = PForm(3, 2, CAP, components={(1, 2): x3})
    with pytest.raises(NotClosedError):
        solve_d_min_norm(f)


def test_d_solve_capacity_error_names_requirement():
    # data at the capacity leaves no head-room
    f = PForm(2, 2, 3, components={(1, 2): ScalarField(2, 3, "real", True, {(3, 0): 1})})
    # closed? d of top-degree form is always zero, so only capacity fails
    with pytest.raises(DegreeOverflowError) as err:
        solve_d_min_norm(f)
    assert err.value.required_capacity == 4


def test_d_solve_random_residuals_and_bounds(rng):
    for n, p1 in ((2, 1), (2, 2), (3, 2), (4, 2)):
        for _ in range(4):
            f = random_closed_pform(rng, n, p1, CAP, 5)
            u, beta, rep = solve_d_min_norm_full(f)
            assert (exterior_d(u) - f).is_zero()
            assert rep.residual_norm_sq == 0
            assert rep.bound_satisfied
            assert rep.bound_constant == Fraction(1, 2 * p1)
            # u is exactly the codifferential of beta
            assert codifferential(beta) == u


def test_d_beta_inverts_the_hodge_laplacian(rng):
    # beta = Delta^{-1} f, checked by applying dT* + T*d rather than the
    # solver's 2(|d| + p) division
    for n, p1 in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3)):
        for _ in range(3):
            f = random_closed_pform(rng, n, p1, CAP, 5)
            _, beta, _ = solve_d_min_norm_full(f)
            assert exterior_d(codifferential(beta)) \
                + codifferential(exterior_d(beta)) == f


def test_complex_hermite_tables():
    """For each pair degree a + b <= 8 the two conversion tables are inverse,
    and H_{p,q} read from the table is the ladder (-delta^zbar)^p (-delta^z)^q 1
    with ||H_{p,q}||^2 = p! q!."""
    for s in range(9):
        for p in range(s + 1):
            q = s - p
            ladder = ScalarField.constant(1, 2, s, "complex")
            for _ in range(q):
                ladder = -delta_z(ladder, 1)
            for _ in range(p):
                ladder = -delta_zbar(ladder, 1)
            table = ScalarField(2, s, "complex", True, dict(complex_hermite_to_he(p, q, True)))
            assert table == ladder
            assert table.norm_sq() == math.factorial(p) * math.factorial(q)
        for first, second in ((complex_hermite_to_he, he_to_complex_hermite),
                              (he_to_complex_hermite, complex_hermite_to_he)):
            for a in range(s + 1):
                composed: dict = {}
                for mid, c in first(a, s - a, True):
                    for key, d in second(*mid, True):
                        composed[key] = composed.get(key, 0) + c * d
                assert {k: v for k, v in composed.items() if v} == {(a, s - a): 1}


def _two_pass_inverse(coeffs: dict, m: int) -> dict:
    """(L + 1)^{-1} by converting the whole coefficient map to the H_{p,q}
    basis, dividing by |q| + 1 and converting back."""
    spectral = _convert_pairs(coeffs, m, he_to_complex_hermite, True)
    spectral = {key: val / (sum(key[1::2]) + 1) for key, val in spectral.items()}
    return _convert_pairs(spectral, m, complex_hermite_to_he, True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dbar_solve_divides_by_the_two_pass_inverse(rng, n):
    """For g = dbar He_d at every degree vector up to total degree 5 (4 on
    C^3), and for random closed g: beta equals the two-pass conversion under
    ==, (L + 1) maps it back to g with L = -sum_j delta^z_j d/dzbar_j,
    u = dbar* beta, and a float solve's beta is the exact one lowered."""
    m = 2 * n
    gs = [dbar_function(ScalarField(m, 6, "complex", True, {d: 1}))
          for d in degree_vectors(m, 4 if n == 3 else 5) if any(d)]
    gs += [random_dbar_closed_form01(rng, n, 6, 5, terms=5) for _ in range(4)]
    for g in gs:
        u, beta, _ = solve_dbar_min_norm_full(g)
        assert u == dbar_adjoint(beta)
        for idx, field in g.components.items():
            inverse = beta.component(idx)
            assert inverse.coeffs == _two_pass_inverse(field.coeffs, m)
            image = inverse
            for j in range(1, n + 1):
                image = image - delta_z(wirtinger_dzbar(inverse, j), j)
            assert image == field
        lowered = solve_dbar_min_norm_full(g.to_float())[1]
        for idx, field in beta.components.items():
            exact = field.to_float().coeffs
            got = lowered.component(idx).coeffs
            assert got.keys() == exact.keys()
            assert all(abs(got[d] - exact[d]) <= 1e-12 * abs(exact[d]) for d in exact)


def _mutated(op, applies=lambda *args: True):
    """op with its result doubled whenever applies(*args); the last doubled
    result is kept in .image."""
    def wrapper(*args):
        out = op(*args)
        if applies(*args):
            out = wrapper.image = out.scale(2)
        return out
    return wrapper


def test_exact_gates_report_the_subtracted_residual(monkeypatch, rng):
    """With a mutated operator the exact gates still fail, and report the
    squared norm of op(u) - f as subtracting and taking the norm gives it."""
    g = random_dbar_closed_form01(rng, 2, 6, 3)
    bad_dbar = _mutated(dbar_function)
    monkeypatch.setattr(solver, "dbar_function", bad_dbar)
    with pytest.raises(NotClosedError) as err:
        solve_dbar_min_norm(g)
    assert err.value.residual_norm_sq == (bad_dbar.image.to_he() - g).norm_sq() != 0

    f = random_closed_pform(rng, 3, 2, 6, 3)
    bad_d = _mutated(exterior_d, lambda u: u.p == 1)  # not the closedness check on f
    monkeypatch.setattr(solver, "exterior_d", bad_d)
    with pytest.raises(NotClosedError) as err:
        solve_d_min_norm(f)
    assert err.value.residual_norm_sq == (bad_d.image - f).norm_sq() != 0

    monkeypatch.undo()
    form = ddbar(zzbar_poly_field(2, 6, {((1, 1), (2, 0)): 3, ((0, 1), (1, 1)): QC(1, -2)}))
    bad_ddbar = _mutated(ddbar)
    monkeypatch.setattr(bridge, "ddbar", bad_ddbar)
    with pytest.raises(InvariantViolationError) as err:
        bridge.solve_poincare_lelong(form)
    assert err.value.stage == "final_residual"
    assert err.value.lhs == (bad_ddbar.image.to_he() - form).norm_sq() != 0


def test_d_solution_is_minimum_norm_against_dense_oracle(rng):
    """Independent characterization: du = f and u orthogonal to ker d.

    The kernel is computed by dense RREF over the full polynomial space (not
    blockwise), and orthogonality uses the weighted inner product directly.
    """
    n, p1, deg = 2, 2, 3
    cap = deg + 2
    for _ in range(3):
        f = random_closed_pform(rng, n, p1, cap, deg)
        u, rep = solve_d_min_norm(f)

        u_basis = pform_basis(n, p1 - 1, deg + 1, cap)
        f_basis = pform_basis(n, p1, deg + 2, cap)
        columns = []
        for idx, dvec in u_basis:
            image = exterior_d(basis_pform(n, idx, dvec, cap))
            columns.append(pform_to_vector(image, f_basis))
        matrix = [[columns[c][r] for c in range(len(u_basis))]
                  for r in range(len(f_basis))]

        u_vec = pform_to_vector(u, u_basis)
        # residual through the dense matrix
        f_vec = pform_to_vector(f, f_basis)
        for r in range(len(f_basis)):
            assert sum(matrix[r][c] * u_vec[c] for c in range(len(u_basis))) == f_vec[r]
        # orthogonality to every kernel vector
        for kernel_vec in nullspace(matrix):
            assert weighted_dot(u_vec, kernel_vec, u_basis) == 0


def test_d_solve_matches_dense_normal_equations(rng):
    """Same normal equations assembled densely over the whole space at once."""
    n, p1, deg = 2, 2, 2
    cap = deg + 2
    f = random_closed_pform(rng, n, p1, cap, deg)
    u, rep = solve_d_min_norm(f)

    basis = pform_basis(n, p1, deg + 1, cap)
    images = [codifferential(basis_pform(n, idx, dvec, cap)) for idx, dvec in basis]
    u_basis = pform_basis(n, p1 - 1, deg + 2, cap)
    img_vecs = [pform_to_vector(img, u_basis) for img in images]
    k = len(basis)
    gram = [[weighted_dot(img_vecs[a], img_vecs[b], u_basis) for a in range(k)]
            for b in range(k)]
    f_vec = pform_to_vector(f, basis)
    rhs = [f_vec[b] * hermite_sq_norm_vector(basis[b][1]) for b in range(k)]
    solution = rref([row + [val] for row, val in zip(gram, rhs)])
    rows, piv_cols = solution
    beta_vec = [Fraction(0)] * k
    for r, c in enumerate(piv_cols):
        beta_vec[r if False else c] = rows[r][k]
    dense_u = None
    for coeff, img in zip(beta_vec, images):
        term = img.scale(coeff)
        dense_u = term if dense_u is None else dense_u + term
    assert dense_u == u


def test_degree_block_preservation_d_small():
    # spot check here; the exhaustive level <= 10 sweep runs in acceptance
    for n in (1, 2, 3):
        for p1 in range(1, n + 1):
            for level in range(7):
                cap = level + 1
                for idx in enumerate_indices(n, p1):
                    for deg in compositions(level, n):
                        e = basis_pform(n, idx, deg, cap)
                        out = exterior_d(codifferential(e))
                        degrees = {f.degree for f in out.components.values()}
                        assert degrees <= {level}


def test_degree_block_preservation_dbar_small():
    for n in (1, 2):
        for level in range(7):
            cap = level + 1
            for j in range(1, n + 1):
                for deg in compositions(level, 2 * n):
                    comps = [ScalarField.zero(2 * n, cap, "complex")] * n
                    comps[j - 1] = ScalarField(2 * n, cap, "complex", True, {deg: 1})
                    e = ComplexForm.from_layout((0, 1), comps)
                    out = dbar_function(dbar_adjoint(e))
                    degrees = {f.degree for f in out.components.values() if not f.is_zero()}
                    assert degrees <= {level}


def test_every_closed_form_solves_exhaustively():
    """Exhaustive solvability: a basis of the d-closed polynomial forms
    (kernel of the dense d matrix, degrees <= 6, n <= 3) solves with exact
    zero residual.  The finite-dimensional harmonic space is empty."""
    for n in (1, 2, 3):
        for p1 in range(1, n + 1):
            deg = 6
            cap = deg + 1
            basis = pform_basis(n, p1, deg, cap)
            target = pform_basis(n, p1 + 1, deg, cap) if p1 < n else []
            columns = []
            for idx, dvec in basis:
                image = exterior_d(basis_pform(n, idx, dvec, cap))
                columns.append(pform_to_vector(image, target) if target else [])
            if target:
                matrix = [[columns[c][r] for c in range(len(basis))]
                          for r in range(len(target))]
                kernel = nullspace(matrix)
            else:
                # top degree: everything is closed
                kernel = [[Fraction(1) if i == j else Fraction(0)
                           for j in range(len(basis))] for i in range(len(basis))]
            for vec in kernel:
                comps: dict = {}
                for coeff, (idx, dvec) in zip(vec, basis):
                    if coeff:
                        comps.setdefault(idx, {})[dvec] = coeff
                f = PForm(n, p1, cap, components={
                    i: ScalarField(n, cap, "real", True, cc) for i, cc in comps.items()})
                if f.is_zero():
                    continue
                u, rep = solve_d_min_norm(f)
                assert rep.residual_norm_sq == 0
                assert rep.bound_satisfied


def test_dbar_solve_examples():
    g = ComplexForm.from_layout((0, 1), [ScalarField.constant(1, 2, CAP, "complex")])
    u, rep = solve_dbar_min_norm(g)
    assert u == zzbar_poly_field(1, CAP, {((0,), (1,)): 1})
    assert rep.output_norm_sq == 1 and rep.input_norm_sq == 1
    assert rep.ratio == 1 and rep.bound_constant == 2 and rep.bound_satisfied

    z = zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    u, rep = solve_dbar_min_norm(ComplexForm.from_layout((0, 1), [z]))
    assert u == zzbar_poly_field(1, CAP, {((1,), (1,)): 1, ((0,), (0,)): -1})
    assert rep.ratio == 1

    u, rep = solve_dbar_min_norm(ComplexForm(1, (0, 1), CAP))
    assert u.is_zero() and rep.ratio == 0


def test_dbar_solution_is_minimum_norm_fock_oracle():
    """zbar and z zbar - 1 are orthogonal to all holomorphic monomials,
    which span the kernel of dbar on polynomials."""
    for g_terms in ({((0,), (0,)): 1}, {((1,), (0,)): 1}):
        g = ComplexForm.from_layout((0, 1), [zzbar_poly_field(1, CAP, g_terms)])
        u, rep = solve_dbar_min_norm(g)
        for k in range(CAP):
            zk = zzbar_poly_field(1, CAP, {((k,), (0,)): 1})
            assert u.weighted_inner(zk) == 0


def test_dbar_solve_random(rng):
    for n in (1, 2):
        for _ in range(4):
            g = random_dbar_closed_form01(rng, n, CAP, 5)
            u, beta, rep = solve_dbar_min_norm_full(g)
            assert (dbar_function(u) - g).is_zero()
            assert rep.residual_norm_sq == 0
            assert rep.bound_satisfied and rep.bound_constant == 2
            assert dbar_adjoint(beta) == u


def test_dbar_solve_rejects_nonclosed():
    # g = zbar_2 dzbar_1 on C^2 is not dbar-closed
    g = ComplexForm.from_layout((0, 1), [zzbar_poly_field(2, CAP, {((0, 0), (0, 1)): 1}),
                                         ScalarField.zero(4, CAP, "complex")])
    with pytest.raises(NotClosedError):
        solve_dbar_min_norm(g)


def test_dbar_min_norm_orthogonal_to_random_closed(rng):
    # <u, v> = 0 for dbar-closed polynomial v (holomorphic polynomials)
    g = random_dbar_closed_form01(rng, 2, CAP, 3)
    u, rep = solve_dbar_min_norm(g)
    for _ in range(10):
        a = rng.randint(0, 2)
        b = rng.randint(0, 2)
        holo = zzbar_poly_field(2, CAP, {((a, b), (0, 0)): 1})
        assert u.weighted_inner(holo) == 0


@st.composite
def closed_two_forms_r2(draw):
    """d of a random 1-form on R^2 with hypothesis-shrinkable coefficients."""
    comps = {}
    for axis in (1, 2):
        coeffs = {}
        for _ in range(draw(st.integers(0, 3))):
            deg = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
            coeffs[deg] = Fraction(draw(st.integers(-9, 9)))
        field = ScalarField(2, 6, "real", True, coeffs)
        if not field.is_zero():
            comps[(axis,)] = field
    g = PForm(2, 1, 6, components=comps)
    return exterior_d(g)


@settings(max_examples=40, deadline=None)
@given(closed_two_forms_r2())
def test_poincare_bound_property(f):
    u, rep = solve_d_min_norm(f)
    assert rep.residual_norm_sq == 0
    assert (exterior_d(u) - f).is_zero()
    assert rep.ratio <= Fraction(1, 4)


def test_exact_and_float_modes_agree(rng):
    # identical integer data solved both ways; float matches exact to 1e-9
    f_exact = random_closed_pform(rng, 4, 2, CAP, 5, terms=6)
    f_float = f_exact.to_float()
    u_e, rep_e = solve_d_min_norm(f_exact)
    u_f, rep_f = solve_d_min_norm(f_float)
    assert abs(rep_f.ratio - float(rep_e.ratio)) <= 1e-9 * max(float(rep_e.ratio), 1.0)
    for idx, field in u_e.components.items():
        approx = u_f.components.get(idx)
        assert approx is not None
        for deg, val in field.coeffs.items():
            assert abs(approx.coeffs.get(deg, 0.0) - float(val)) <= 1e-9

    g_exact = random_dbar_closed_form01(rng, 2, CAP, 5, terms=5)
    u_ge, rep_ge = solve_dbar_min_norm(g_exact)
    u_gf, rep_gf = solve_dbar_min_norm(g_exact.to_float())
    assert abs(rep_gf.ratio - float(rep_ge.ratio)) <= 1e-9


def test_float_closedness_tolerance_contract(rng):
    # noise far below the relative tolerance is accepted, noise above refused;
    # the dust term x_3 dx_1^dx_2 on R^3 has d = dx_1^dx_2^dx_3 != 0
    f = random_closed_pform(rng, 3, 2, CAP, 4, exact=False)
    dust = PForm(3, 2, CAP, "real", False, components={
        (1, 2): ScalarField(3, CAP, "real", False, {(0, 0, 1): 1.0})})
    assert not exterior_d(dust).is_zero()
    scale = f.norm_sq() ** 0.5
    tiny = f + dust.scale(1e-13 * scale)
    u, rep = solve_d_min_norm(tiny, tolerance=1e-10)
    assert rep.residual_norm_sq <= (1e-10) ** 2 * rep.input_norm_sq
    loud = f + dust.scale(1e-6 * scale)
    with pytest.raises(NotClosedError):
        solve_d_min_norm(loud, tolerance=1e-10)


def test_float_mode_solves(rng):
    f = random_closed_pform(rng, 4, 2, CAP, 5, exact=False)
    u, rep = solve_d_min_norm(f)
    assert rep.residual_norm_sq <= 1e-20 * max(rep.input_norm_sq, 1.0)
    assert rep.bound_satisfied

    g = random_dbar_closed_form01(rng, 2, CAP, 5, exact=False)
    u2, rep2 = solve_dbar_min_norm(g)
    assert rep2.residual_norm_sq <= 1e-20 * max(rep2.input_norm_sq, 1.0)
    assert rep2.bound_satisfied


def test_negligible_is_zero_exactly_and_the_squared_tolerance_in_float():
    # exact mode ignores the scale and the tolerance: only zero passes
    assert negligible(Fraction(0), Fraction(0), True, 1e-10)
    assert negligible(0, Fraction(7), True, 1e-10)
    assert not negligible(Fraction(1, 10 ** 60), Fraction(10 ** 60), True, 0.5)
    # float mode: norm_sq <= tolerance^2 * scale_sq, equality passing
    tol, scale = 1e-3, 3.0
    bound = tol ** 2 * scale
    assert negligible(bound, scale, False, tol)
    assert not negligible(math.nextafter(bound, math.inf), scale, False, tol)
    assert negligible(0.0, 0.0, False, tol)
    # a NaN residual or scale never passes
    nan = float("nan")
    assert not negligible(nan, 1.0, False, tol)
    assert not negligible(nan, math.inf, False, tol)
    assert not negligible(0.0, nan, False, tol)
    # nor does any residual against an inf scale
    assert not negligible(math.inf, math.inf, False, tol)
    assert not negligible(0.0, math.inf, False, tol)


def _overflowing_nonclosed(equation: str):
    """A float input near 1e200 whose norm^2 and closedness residual^2 both
    overflow to inf: c He_1(x2) dx1 on R^2 (df != 0), or c He_1(x1) dzbar_2
    on C^2 (dbar g != 0)."""
    c = 1e200
    if equation == "d":
        return PForm(2, 1, 6, "real", False,
                     {(1,): ScalarField(2, 6, "real", False, {(0, 1): c})})
    zero = ScalarField.zero(4, 6, "complex", False)
    return ComplexForm.from_layout((0, 1), [zero, ScalarField(4, 6, "complex", False,
                                                              {(1, 0, 0, 0): c})])


@pytest.mark.parametrize("equation, solve, adjoint", [
    ("d", solve_d_min_norm, "codifferential"),
    ("dbar", solve_dbar_min_norm, "dbar_adjoint"),
], ids=["d", "dbar"])
def test_float_solve_refuses_a_nonfinite_input_norm_before_solving(monkeypatch, rng, equation,
                                                                  solve, adjoint):
    calls = []
    real = getattr(solver, adjoint)
    monkeypatch.setattr(solver, adjoint, lambda form: calls.append(form) or real(form))
    with pytest.raises(SolveNumericalError, match="input norm"):
        solve(_overflowing_nonclosed(equation))
    assert calls == []
    # the spied adjoint is the step a solve takes, over the basis it solves in
    closed = (random_closed_pform(rng, 2, 1, 6, 3, exact=False) if equation == "d"
              else random_dbar_closed_form01(rng, 2, 6, 3, exact=False))
    solve(closed)
    assert len(calls) == 1
    assert calls[0].field_type is (ItoField if equation == "dbar" else ScalarField)


def test_float_report_never_certifies_inf_or_nan():
    inf, nan = float("inf"), float("nan")
    assert not bound_holds(inf, 2.0, exact=False)
    assert not bound_holds(nan, 2.0, exact=False)
    assert not bound_holds(1.0, inf, exact=False)
    # an overflowed input norm makes the ratio 0.0, which alone would pass
    assert not _make_report(0.0, inf, 1.0, 2.0, 1, exact=False).bound_satisfied
    assert not _make_report(0.0, 1.0, nan, 2.0, 1, exact=False).bound_satisfied
    assert not _make_report(nan, 1.0, 1.0, 2.0, 1, exact=False).bound_satisfied
    assert _make_report(0.0, 1.0, 1.0, 2.0, 1, exact=False).bound_satisfied


def test_report_json_keys():
    f = PForm(2, 2, CAP, components={(1, 2): ScalarField.constant(1, 2, CAP)})
    _, rep = solve_d_min_norm(f)
    data = rep.to_json()
    assert set(data) == {"residual", "input_norm_sq", "output_norm_sq",
                         "bound_constant", "ratio", "bound_satisfied", "blocks_solved"}
    assert data["ratio"] == "1/4" and data["bound_satisfied"] is True
