"""Self-contained verifiers for the stated norm identities.

Everything here integrates polynomials against the normalized Gaussian, for
which integration by parts is exact (all boundary terms vanish), so the
identities hold with zero discrepancy in exact mode even though they are
classically stated for compactly supported smooth forms.  See the README
notes for the implementer-verified argument.

Each sum of norms and real inner products is one fields._inner call, and
fields and forms are compared through _same: == in exact mode, else
solver.negligible at the caller's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .calculus import (DZ, DZBAR, ComplexForm, PForm, _pair_rules, codifferential,
                       complex_dimension, dbar, dbar_function, ddbar, delta_z, delta_zbar,
                       exterior_d, partial, wirtinger_dz, wirtinger_dzbar)
from .errors import DomainError
from .fields import COMPLEX, ScalarField, _inner, _shift, hermite_sq_norm_vector
from .multiindex import enumerate_indices, insert_axis
from .scalars import imaginary_unit, render_value, zero_scalar
from .solver import negligible

# phi(x) = |x|^2 has Hessian CONVEXITY * Id, so its convexity constant is
# attained: the Bochner Hessian term is CONVEXITY * sum'_I sum_j ||a_{jI}||^2.
CONVEXITY = 2


def _real_sum(exact: bool, fields=(), pairs=()):
    """sum ||F||^2 over fields plus sum Re <F, G> over pairs (F, G), in that
    order, with each ||F||^2 taken as <F, F>."""
    return _inner(chain(((f.coeffs, f.coeffs) for f in fields),
                        ((f.coeffs, g.coeffs) for f, g in pairs)), exact, False)


def _gradients(alpha: PForm) -> dict:
    """d a_J / dx_j keyed (J, j), for every component a_J and then every axis j."""
    return {(J, j): field.partial_derivative(j) for J, field in alpha.components.items()
            for j in range(1, alpha.n + 1)}


def _same(a, b, exact: bool, tolerance: float) -> bool:
    """Two fields or forms agree: a == b in exact mode; in float mode
    ||a - b||^2 is negligible against the largest of ||a||^2, ||b||^2 and 1."""
    if exact:
        return a == b
    return negligible((a - b).norm_sq(), max(a.norm_sq(), b.norm_sq(), 1.0), False, tolerance)


def _tol_equal(lhs, rhs, exact: bool, rel_tol: float = 1e-12) -> bool:
    if exact:
        return lhs == rhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= rel_tol * scale


@dataclass
class DNormExpansionReport:
    """Both sides of the squared-norm expansion of d applied to a form."""

    lhs: object
    rhs: object
    equal: bool


def d_norm_expansion_report(alpha: PForm, rel_tol: float = 1e-12) -> DNormExpansionReport:
    """Check ||d a||^2 = sum'_J sum_j ||da_J/dx_j||^2
    - sum'_I sum_{j,k} <da_{kI}/dx_j, da_{jI}/dx_k>."""
    if alpha.p < 1:
        raise DomainError("the expansion needs a form of degree >= 1")
    lhs = exterior_d(alpha).norm_sq()
    grad = _gradients(alpha)
    pairs = []
    for I in enumerate_indices(alpha.n, alpha.p - 1):
        # (j, sign, J) for each axis j with a_{jI} = sign a_J nonzero, J = sorted jI
        present = []
        for j in range(1, alpha.n + 1):
            ins = insert_axis(j, I)
            if ins is not None and ins[1] in alpha.components:
                present.append((j,) + ins)
        for j, s_j, jI in present:
            for k, s_k, kI in present:
                # (d a_{kI}/dx_j, -d a_{jI}/dx_k)
                pairs.append((grad[kI, j] if s_k == 1 else -grad[kI, j],
                              -grad[jI, k] if s_j == 1 else grad[jI, k]))
    rhs = _real_sum(alpha.exact, grad.values(), pairs)
    return DNormExpansionReport(lhs, rhs, _tol_equal(lhs, rhs, alpha.exact, rel_tol))


@dataclass
class BochnerReport:
    """The two sides of the Bochner-type identity plus the coercivity margin."""

    lhs_adjoint: object
    lhs_d: object
    rhs_hessian: object
    rhs_gradient: object
    identity_holds: bool
    coercivity_margin: object


def bochner_identity_report(alpha: PForm, rel_tol: float = 1e-12) -> BochnerReport:
    """Check ||T* a||^2 + ||d a||^2 = Hessian term + gradient term for the
    weight |x|^2, and report the coercivity margin against c (p+1) ||a||^2
    with c = CONVEXITY."""
    if alpha.p < 1:
        raise DomainError("the identity needs a form of degree >= 1")
    lhs_adjoint = codifferential(alpha).norm_sq()
    lhs_d = exterior_d(alpha).norm_sq()

    pairs = []
    for I in enumerate_indices(alpha.n, alpha.p - 1):
        for j in range(1, alpha.n + 1):
            a_jI = alpha.signed_component(j, I)
            if not a_jI.is_zero():
                pairs.append((a_jI, a_jI))
    # CONVEXITY = 2, so scaling the sum rounds as scaling each term did
    rhs_hessian = CONVEXITY * _real_sum(alpha.exact, pairs=pairs)
    rhs_gradient = _real_sum(alpha.exact, _gradients(alpha).values())

    holds = _tol_equal(lhs_adjoint + lhs_d, rhs_hessian + rhs_gradient,
                       alpha.exact, rel_tol)
    margin = lhs_adjoint + lhs_d - CONVEXITY * alpha.p * alpha.norm_sq()
    return BochnerReport(lhs_adjoint, lhs_d, rhs_hessian, rhs_gradient, holds, margin)


# ---------------------------------------------------------------------------
# The formal adjoint of ddbar on (1,1)-forms, and its adjoint-norm report
# ---------------------------------------------------------------------------


def ddbar_formal_adjoint(alpha: ComplexForm) -> ScalarField:
    """T* a = sum_{ij} delta^zbar_i delta^z_j a_{ij} for T = ddbar under e^{-|z|^2}.

    Two integrations by parts move d/dz_i and d/dzbar_j off the test function
    and each picks up its Gaussian-twisted raising ladder.
    """
    total = None
    n = alpha.n // 2
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            term = delta_zbar(delta_z(alpha.coefficient((i,), (j,)), j), i)
            total = term if total is None else total + term
    return total


def ddbar_adjoint_dual_basis(alpha: ComplexForm) -> ScalarField:
    """Independent construction of the same adjoint from duality alone.

    Expands T* a in the Hermite basis by pairing against basis functions: the
    coefficient on He_d is conj(<ddbar He_d, a>) / ||He_d||^2.  The pairing
    runs through the weights of the lowering ladders that ddbar applies,

        <ddbar He_d, a> = sum_{ij} sum_{(s, w1) in DZBAR_j(d)} sum_{(t, w2) in DZ_i(s)}
                          w1 w2 conj(a_{ij}[t]) ||He_t||^2,

    so no field is built per He_d.  Entry (i, j) of ddbar He_d lowers one axis
    x of pair i and one axis y of pair j, so only d = e + e_x + e_y with e in
    the support of a_{ij} can pair nonzero.
    """
    n = alpha.n // 2
    top = alpha.degree
    exact = alpha.exact
    cap = max(alpha.max_total_degree, (0 if top is None else top) + 2)
    lower_z, lower_zbar = _pair_rules(n, DZ, exact), _pair_rules(n, DZBAR, exact)
    entries = []
    candidates = set()
    for (i, j), field in alpha.components.items():
        j -= n
        entries.append((lower_z[i - 1], lower_zbar[j - 1], field.coeffs))
        for e in field.coeffs:
            for x in (2 * i - 2, 2 * i - 1):
                for y in (2 * j - 2, 2 * j - 1):
                    candidates.add(_shift(_shift(e, x, 1), y, 1))
    zero = zero_scalar(exact, True)
    out: dict = {}
    for deg in sorted(candidates, key=lambda d: (sum(d), d)):
        pairing = zero
        for dz_i, dzbar_j, coeffs in entries:
            for s, w1 in dzbar_j(deg):
                for t, w2 in dz_i(s):
                    if t in coeffs:
                        pairing += w1 * w2 * coeffs[t].conjugate() * hermite_sq_norm_vector(t)
        if pairing:
            norm = hermite_sq_norm_vector(deg)
            out[deg] = pairing.conjugate() / (norm if exact else float(norm))
    return ScalarField(alpha.n, cap, COMPLEX, exact, out)


@dataclass
class DdbarAdjointReport:
    """Both sides of the eight-term adjoint-norm display for ddbar.

    The right side is evaluated term by term with exact moments; the
    discrepancy lhs - rhs is recorded, never asserted zero.  The adjoint
    itself is cross-validated against the dual-basis oracle
    (``duality_exact``), which ties the left side to <ddbar u, a> = <u, T* a>.
    """

    lhs: object
    rhs: object
    discrepancy: object
    duality_exact: bool
    terms: dict

    def to_json(self) -> dict:
        r = render_value
        return {"lhs": r(self.lhs), "rhs": r(self.rhs),
                "discrepancy": r(self.discrepancy),
                "duality_exact": self.duality_exact,
                "terms": {k: r(v) for k, v in self.terms.items()}}


def ddbar_adjoint_identity_report(alpha: ComplexForm,
                                  tolerance: float = 1e-10) -> DdbarAdjointReport:
    """Evaluate both sides of the eight-term adjoint-norm identity for ddbar and
    check the adjoint against the dual-basis oracle (within ``tolerance`` in
    float mode)."""
    n = alpha.n // 2
    exact = alpha.exact
    zero = Fraction(0) if exact else 0.0
    if alpha.is_zero():
        return DdbarAdjointReport(zero, zero, zero, True, {})

    adj = ddbar_formal_adjoint(alpha)
    lhs = adj.norm_sq()
    oracle = ddbar_adjoint_dual_basis(alpha)
    duality_ok = _same(oracle, adj, exact, tolerance)

    t_norm = alpha.norm_sq()
    t_ddbar = partial(dbar(alpha)).norm_sq()
    t_partial = partial(alpha).norm_sq()
    t_dbar = dbar(alpha).norm_sq()

    def a(i, j):
        return alpha.coefficient((i,), (j,))

    # first[i, j, l] = d a_ij / dzbar_l and second[i, j, k, l] = d first[i, j, l] / dz_k
    axes = range(1, n + 1)
    first = {(i, j, l): wirtinger_dzbar(a(i, j), l) for i in axes for j in axes for l in axes}
    second = {(i, j, k, l): wirtinger_dz(first[i, j, l], k)
              for i in axes for j in axes for k in axes for l in axes}
    seconds = []
    crosses = []
    for (i, j, k, l), mixed in second.items():
        if mixed.is_zero():
            continue
        seconds.append(mixed)
        crosses.append((mixed, second[i, l, k, j] + second[k, j, i, l]))
    t_mixed_sq = _real_sum(exact, seconds)
    # the full ijkl sum is conjugate-symmetric, so it is real
    t_cross = _real_sum(exact, pairs=crosses)
    t_grad_z = _real_sum(exact, [wirtinger_dz(a(i, l), k) for i in axes for l in axes
                                 for k in axes])
    t_grad_zbar = _real_sum(exact, first.values())

    terms = {"norm_sq": t_norm, "ddbar_sq": t_ddbar, "partial_sq": t_partial,
             "dbar_sq": t_dbar, "mixed_second_sq": t_mixed_sq, "cross": t_cross,
             "grad_z_sq": t_grad_z, "grad_zbar_sq": t_grad_zbar}
    rhs = (t_norm + t_ddbar - t_partial - t_dbar - t_mixed_sq + t_cross
           + t_grad_z + t_grad_zbar)
    return DdbarAdjointReport(lhs, rhs, lhs - rhs, duality_ok, terms)


# ---------------------------------------------------------------------------
# Conjugation identities for the complex operators
# ---------------------------------------------------------------------------


def conjugation_identities_check(u: ScalarField,
                                 tolerance: float = 1e-10) -> tuple[bool, bool, bool]:
    """Check, on one complex function, each with ``==`` in exact mode and
    within ``tolerance`` in float mode:

    (a) partial(conj u) is the componentwise conjugate of dbar(u);
    (b) dbar(partial u) is the entrywise negation of ddbar(u);
    (c) entry (i, j) of ddbar(u) is
        (1/4)(d/dx_{2i-1} - i d/dx_{2i})(d/dx_{2j-1} + i d/dx_{2j}) u,
        built from real partial derivatives alone.
    """
    n = complex_dimension(u)  # validates evenness
    exact = u.exact
    a = _same(partial(ComplexForm.function(u.conjugate())), dbar_function(u).conjugate(),
              exact, tolerance)
    form = ddbar(u)
    b = _same(dbar(partial(ComplexForm.function(u))), form.scale(-1), exact, tolerance)
    i_unit = imaginary_unit(exact)
    quarter = Fraction(1, 4) if exact else 0.25
    c = True
    for j in range(1, n + 1):
        w = u.partial_derivative(2 * j - 1) + u.partial_derivative(2 * j).scale(i_unit)
        for i in range(1, n + 1):
            want = (w.partial_derivative(2 * i - 1)
                    - w.partial_derivative(2 * i).scale(i_unit)).scale(quarter)
            got = form.coefficient((i,), (j,))
            c = c and _same(got, want, exact, tolerance)
    return a, b, c
