"""Self-contained verifiers for the stated norm identities.

Everything here integrates polynomials against the normalized Gaussian, for
which integration by parts is exact (all boundary terms vanish), so the
identities hold with zero discrepancy even though they are classically
stated for compactly supported smooth forms.  See the README notes for the
implementer-verified argument.

Each sum of norms is one fields._norm_sq call and each sum of real inner
products one fields._inner call; the dual-basis oracle sums each pairing the
same way, as integer numerators over a running denominator, reduced once per
basis element.  Numbers, fields and forms are compared with ==: every value
is exact, also on data read from doubles, so an identity holds with zero
discrepancy or fails.  Each check reads its basis, He_d or H_{p,q}, from its
input's type, so it gives one result on a form and on its image in the other
basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .calculus import (DELTA_Z, DELTA_ZBAR, DZ, DZBAR, ComplexForm, PForm, _contract_frame,
                       _ladder_rules, codifferential, complex_dimension, dbar, dbar_function,
                       ddbar, exterior_d, partial, require_bidegree, wirtinger_dz,
                       wirtinger_dzbar)
from .errors import DomainError
from .fields import COMPLEX, ItoField, ScalarField, _inner, _norm_sq
from .multiindex import enumerate_indices, insert_axis
from .scalars import IMAG_UNIT, _make, render_value

# phi(x) = |x|^2 has Hessian CONVEXITY * Id, so its convexity constant is
# attained: the Bochner Hessian term CONVEXITY * sum'_I sum_j ||a_{jI}||^2 is
# CONVEXITY * p * ||a||^2, since each p-index J is jI for exactly p pairs (I, j).
CONVEXITY = 2


def _real_sum(fields=(), pairs=()) -> Fraction:
    """sum ||F||^2 over fields plus sum Re <F, G> over pairs (F, G): the norms
    through _norm_sq, the inner products through _inner."""
    return _norm_sq(fields) + _inner(pairs, False)


def _gradients(alpha: PForm) -> dict:
    """d a_J / dx_j keyed (J, j), for every component a_J and then every axis j."""
    return {(J, j): field.partial_derivative(j) for J, field in alpha.components.items()
            for j in range(1, alpha.n + 1)}


@dataclass
class DNormExpansionReport:
    """Both sides of the squared-norm expansion of d applied to a form."""

    lhs: object
    rhs: object
    equal: bool


def d_norm_expansion_report(alpha: PForm) -> DNormExpansionReport:
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
    rhs = _real_sum(grad.values(), pairs)
    return DNormExpansionReport(lhs, rhs, lhs == rhs)


@dataclass
class BochnerReport:
    """The two sides of the Bochner-type identity plus the coercivity margin."""

    lhs_adjoint: object
    lhs_d: object
    rhs_hessian: object
    rhs_gradient: object
    identity_holds: bool
    coercivity_margin: object


def bochner_identity_report(alpha: PForm) -> BochnerReport:
    """Check ||T* a||^2 + ||d a||^2 = Hessian term + gradient term for the
    weight |x|^2, and report the coercivity margin against the Hessian term
    c p ||a||^2 with c = CONVEXITY."""
    if alpha.p < 1:
        raise DomainError("the identity needs a form of degree >= 1")
    lhs_adjoint = codifferential(alpha).norm_sq()
    lhs_d = exterior_d(alpha).norm_sq()
    rhs_hessian = CONVEXITY * alpha.p * alpha.norm_sq()
    rhs_gradient = _real_sum(_gradients(alpha).values())

    holds = lhs_adjoint + lhs_d == rhs_hessian + rhs_gradient
    margin = lhs_adjoint + lhs_d - rhs_hessian
    return BochnerReport(lhs_adjoint, lhs_d, rhs_hessian, rhs_gradient, holds, margin)


# ---------------------------------------------------------------------------
# The formal adjoint of ddbar on (1,1)-forms, and its adjoint-norm report
# ---------------------------------------------------------------------------


def ddbar_formal_adjoint(alpha: ComplexForm) -> ScalarField:
    """T* a = sum_{ij} delta^zbar_i delta^z_j a_{ij} for T = ddbar under e^{-|z|^2}.

    Two integrations by parts move d/dz_i and d/dzbar_j off the test function
    and each picks up its Gaussian-twisted raising ladder, so T* a is
    -partial* dbar* a: two contractions, of the dzbar axes with delta^z and
    then of the dz axes with delta^zbar.
    """
    require_bidegree(alpha, (1, 1), "the ddbar adjoint")
    return -_contract_frame(_contract_frame(alpha, DELTA_Z), DELTA_ZBAR).component(())


def ddbar_adjoint_dual_basis(alpha: ComplexForm) -> ScalarField:
    """Independent construction of the same adjoint from duality alone.

    Expands T* a in the basis e_d of the form's field type (He_d or H_{p,q})
    by pairing against basis functions: the coefficient on e_d is
    conj(<ddbar e_d, a>) / ||e_d||^2.  The pairing runs through the weights
    of the lowering ladders that ddbar applies in that basis,

        <ddbar e_d, a> = sum_{ij} sum_{(s, w1) in DZBAR_j(d)} sum_{(t, w2) in DZ_i(s)}
                         w1 w2 conj(a_{ij}[t]) ||e_t||^2,

    so no field is built per e_d: its conjugate sums conj(w1 w2) a_{ij}[t]
    ||e_t||^2 as integer numerators over a running denominator, and the
    coefficient is reduced once.  Entry (i, j) of ddbar e_d lowers d by DZBAR_j
    and DZ_i, so only targets of DELTA_Z_j then DELTA_ZBAR_i from the support
    of a_{ij} can pair nonzero: four per term over He_d, one over H_{p,q}.
    """
    require_bidegree(alpha, (1, 1), "the ddbar adjoint oracle")
    n = alpha.n // 2
    top = alpha.degree
    cap = max(alpha.max_total_degree, (0 if top is None else top) + 2)
    basis = alpha.field_type
    sq_norm = basis.sq_norm
    lower_z, lower_zbar, raise_z, raise_zbar = (_ladder_rules(basis, n, ladder) for ladder
                                                in (DZ, DZBAR, DELTA_Z, DELTA_ZBAR))
    entries = []
    candidates = set()
    for (i, j), field in alpha.components.items():
        j -= n
        entries.append((lower_z[i - 1], lower_zbar[j - 1], field.coeffs))
        for e in field.coeffs:
            for s, _ in raise_z[j - 1](e):
                candidates.update(d for d, _ in raise_zbar[i - 1](s))
    out: dict = {}
    for deg in sorted(candidates, key=lambda d: (sum(d), d)):
        # (re + im i)/den = conj(<ddbar e_d, a>); conj(w1) = (c + e i)/f,
        # conj(w2) = (g + h i)/k, their product (x + y i)/fk, a_ij[t] = (a + b i)/d
        re = im = 0
        den = 1
        for dz_i, dzbar_j, coeffs in entries:
            for s, w1 in dzbar_j(deg):
                c, e, f = (w1, 0, 1) if type(w1) is int else (w1._a, -w1._b, w1._d)
                for t, w2 in dz_i(s):
                    v = coeffs.get(t)
                    if v is None:
                        continue
                    g, h, k = (w2, 0, 1) if type(w2) is int else (w2._a, -w2._b, w2._d)
                    x, y = c * g - e * h, c * h + e * g
                    a, b, q = v._a, v._b, f * k * v._d
                    w = sq_norm(t)
                    if q != den:
                        m = q // math.gcd(den, q)
                        re, im, den = re * m, im * m, den * m
                        w *= den // q
                    re += (x * a - y * b) * w
                    im += (x * b + y * a) * w
        if re or im:
            out[deg] = _make(re, im, den * sq_norm(deg))
    return basis._trusted(alpha.n, cap, COMPLEX, out)


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


def ddbar_adjoint_identity_report(alpha: ComplexForm) -> DdbarAdjointReport:
    """Evaluate both sides of the eight-term adjoint-norm identity for ddbar and
    check the adjoint against the dual-basis oracle."""
    require_bidegree(alpha, (1, 1), "the ddbar adjoint report")
    n = alpha.n // 2
    adj = ddbar_formal_adjoint(alpha)
    lhs = adj.norm_sq()
    oracle = ddbar_adjoint_dual_basis(alpha)
    duality_ok = oracle == adj

    t_norm = alpha.norm_sq()
    dbar_alpha = dbar(alpha)
    t_ddbar = partial(dbar_alpha).norm_sq()
    t_partial = partial(alpha).norm_sq()
    t_dbar = dbar_alpha.norm_sq()

    # a[i, j] = a_ij, first[i, j, l] = d a_ij / dzbar_l and
    # second[i, j, k, l] = d first[i, j, l] / dz_k
    axes = range(1, n + 1)
    a = {(i, j): alpha.coefficient((i,), (j,)) for i in axes for j in axes}
    first = {(i, j, l): wirtinger_dzbar(a[i, j], l) for i in axes for j in axes for l in axes}
    second = {(i, j, k, l): wirtinger_dz(first[i, j, l], k)
              for i in axes for j in axes for k in axes for l in axes}
    seconds = []
    crosses = []
    for (i, j, k, l), mixed in second.items():
        if mixed.is_zero():
            continue
        seconds.append(mixed)
        crosses.append((mixed, second[i, l, k, j] + second[k, j, i, l]))
    t_mixed_sq = _real_sum(seconds)
    # the full ijkl sum is conjugate-symmetric, so it is real
    t_cross = _real_sum(pairs=crosses)
    t_grad_z = _real_sum([wirtinger_dz(a[i, l], k) for i in axes for l in axes for k in axes])
    t_grad_zbar = _real_sum(first.values())

    terms = {"norm_sq": t_norm, "ddbar_sq": t_ddbar, "partial_sq": t_partial,
             "dbar_sq": t_dbar, "mixed_second_sq": t_mixed_sq, "cross": t_cross,
             "grad_z_sq": t_grad_z, "grad_zbar_sq": t_grad_zbar}
    rhs = (t_norm + t_ddbar - t_partial - t_dbar - t_mixed_sq + t_cross
           + t_grad_z + t_grad_zbar)
    return DdbarAdjointReport(lhs, rhs, lhs - rhs, duality_ok, terms)


# ---------------------------------------------------------------------------
# Conjugation identities for the complex operators
# ---------------------------------------------------------------------------


def conjugation_identities_check(u: ScalarField) -> tuple[bool, bool, bool]:
    """Check, on one complex function, each with ``==``:

    (a) partial(conj u) is the componentwise conjugate of dbar(u);
    (b) dbar(partial u) is the entrywise negation of ddbar(u);
    (c) entry (i, j) of ddbar(u) is
        (1/4)(d/dx_{2i-1} - i d/dx_{2i})(d/dx_{2j-1} + i d/dx_{2j}) u,
        built from real partial derivatives alone, which act on He
        coefficients: an ItoField is converted to He first.
    """
    u = u.to_he() if isinstance(u, ItoField) else u
    n = complex_dimension(u)  # validates evenness
    a = partial(ComplexForm.function(u.conjugate())) == dbar_function(u).conjugate()
    form = ddbar(u)
    b = dbar(partial(ComplexForm.function(u))) == form.scale(-1)
    quarter = Fraction(1, 4)
    c = True
    for j in range(1, n + 1):
        w = u.partial_derivative(2 * j - 1) + u.partial_derivative(2 * j).scale(IMAG_UNIT)
        for i in range(1, n + 1):
            want = (w.partial_derivative(2 * i - 1)
                    - w.partial_derivative(2 * i).scale(IMAG_UNIT)).scale(quarter)
            got = form.coefficient((i,), (j,))
            c = c and got == want
    return a, b, c
