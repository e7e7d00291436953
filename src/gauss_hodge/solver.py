"""Minimum-norm solves of du = f and dbar u = g by dividing by the Hermite spectrum.

Both solves take the adjoint route: find beta with (op op* + op* op) beta = f
and return u = op* beta.  For closed f the Laplacian commutes with op, so
op beta = 0, f = op(op* beta) and u lies in range(op*) = ker(op)^perp: it is
the minimum-norm solution.

Under the weight e^{-|x|^2} both Laplacians are diagonal in Hermite bases.

* d: dT* + T*d acts on He_d dx^I as multiplication by 2(|d| + p) for a
  p-form (the Bochner identity; cf. Witten's Laplacian), so beta divides
  each coefficient by 2(|d| + p).
* dbar: on dbar-closed (0,1)-forms dbar dbar* is L + 1 on each component,
  with L = -sum_j delta^z_j d/dzbar_j and L H_{p,q} = |q| H_{p,q} in the
  complex Hermite basis H_{p,q} = prod_j (-delta^zbar_j)^{p_j} (-delta^z_j)^{q_j} 1
  (Ito 1952).  (L + 1)^{-1} is one linear rule per degree vector,
  He_d -> sum_t w_t He_t, built once in exact arithmetic and cached: convert
  He_d to that basis one complex pair (x_{2j-1}, x_{2j}) at a time, divide by
  |q| + 1 and convert back.  Float mode lowers the exact weights to doubles.

The per-pair conversions come from the generating function
e^{2xs-s^2+2yt-t^2} = e^{uz+v zbar-uv} with u = s-it, v = s+it:

    He_a(x) He_b(y) = i^b sum_p K(a,b,p) a! b! / (p! q!) H_{p,q}
    H_{p,q}         = sum_a (-i)^b K(a,b,p) / 2^{a+b} He_a(x) He_b(y)

over p + q = a + b, with K(a,b,p) = sum_j (-1)^{p-j} C(p,j) C(q,a-j).

No polynomial form is harmonic (the Laplacians have no zero eigenvalue), so
every closed input solves.  Each solve checks the closedness of its input
(df = 0, dbar g = 0) once before solving and the residual op(u) - f once
after, both through ``negligible``: zero in exact mode, at most
tolerance^2 ||f||^2 in float mode, with ||f||^2 computed once.  Exact mode
compares op(u) with f under ``==`` and builds op(u) - f only to report a
nonzero residual, which means the input was not closed after all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .calculus import (ComplexForm, PForm, codifferential, dbar_adjoint,
                       dbar_function, dbar_of_01, exterior_d, require_bidegree)
from .errors import DegreeOverflowError, DomainError, NotClosedError, SolveNumericalError
from .fields import ScalarField, _map_terms
from .scalars import QC, coerce_scalar, render_value

FLOAT_BOUND_SLACK = 1e-12


@dataclass
class SolveReport:
    """Outcome of one solve: norms, the stated bound, and whether it held.

    ``residual_norm_sq`` is the squared L2 norm of the equation residual,
    matching the squared convention of the other norm fields (and staying
    rational in exact mode).  ``blocks_solved`` counts the distinct total
    Hermite degrees in the input's support.
    """

    residual_norm_sq: object
    input_norm_sq: object
    output_norm_sq: object
    bound_constant: object
    ratio: object
    bound_satisfied: bool
    blocks_solved: int
    exact: bool = True

    def to_json(self) -> dict:
        return {
            "residual": render_value(self.residual_norm_sq),
            "input_norm_sq": render_value(self.input_norm_sq),
            "output_norm_sq": render_value(self.output_norm_sq),
            "bound_constant": render_value(self.bound_constant),
            "ratio": render_value(self.ratio),
            "bound_satisfied": self.bound_satisfied,
            "blocks_solved": self.blocks_solved,
        }


def bound_holds(ratio, bound, exact: bool) -> bool:
    """ratio <= bound; in float mode never true for an inf or NaN operand."""
    if exact:
        return ratio <= bound
    return math.isfinite(ratio) and math.isfinite(bound) \
        and ratio <= bound * (1 + FLOAT_BOUND_SLACK)


def _make_report(residual_sq, input_sq, output_sq, bound, blocks, exact) -> SolveReport:
    if input_sq == 0:
        ratio = Fraction(0) if exact else 0.0
    else:
        ratio = output_sq / input_sq
    holds = bound_holds(ratio, bound, exact) and (
        exact or all(map(math.isfinite, (residual_sq, input_sq, output_sq))))
    return SolveReport(residual_sq, input_sq, output_sq, bound, ratio, holds, blocks, exact)


def negligible(norm_sq, scale_sq, exact: bool, tolerance: float) -> bool:
    """The one exact-or-tolerance gate on a squared norm: norm_sq == 0 in exact
    mode, norm_sq <= tolerance^2 scale_sq in float mode, which NaN and an inf
    or NaN scale fail."""
    if exact:
        return norm_sq == 0
    return math.isfinite(scale_sq) and norm_sq <= tolerance ** 2 * scale_sq


def _input_norm_sq(form):
    """||form||^2 of a solve's right-hand side; a float solve refuses an input
    whose norm is inf or NaN before it checks closedness."""
    norm_sq = form.norm_sq()
    if not form.exact and not math.isfinite(norm_sq):
        raise SolveNumericalError(f"float solve input norm^2 {norm_sq} is not finite")
    return norm_sq


def _check_capacity(top: int | None, capacity: int):
    """A solve raises the degree by one; a zero form (top None) fits any capacity."""
    if top is not None and top + 1 > capacity:
        raise DegreeOverflowError(
            f"solve needs capacity {top + 1} (one above the data degree {top}), "
            f"have {capacity}", required_capacity=top + 1)


def _degree_levels(fields) -> int:
    return len({sum(deg) for field in fields for deg in field.coeffs})


def _finish(u, image, f, f_sq, bound, blocks, exact, tolerance) -> SolveReport:
    """Gate the equation residual image - f and report; image = op(u) and f
    is the right-hand side, f_sq = ||f||^2.  Exact mode builds the residual
    only if image != f."""
    res_sq = Fraction(0) if exact and image == f else (image - f).norm_sq()
    if exact and res_sq != 0:
        raise NotClosedError("exact solve left a nonzero residual; input is not closed",
                             residual_norm_sq=res_sq)
    if not exact and not negligible(res_sq, f_sq, exact, tolerance):
        raise SolveNumericalError(
            f"float solve residual^2 {res_sq:.3e} against input norm^2 {f_sq:.3e} "
            f"exceeds the tolerance or is not finite")
    return _make_report(res_sq, f_sq, u.norm_sq(), bound, blocks, exact)


# ---------------------------------------------------------------------------
# du = f
# ---------------------------------------------------------------------------


def solve_d_min_norm_full(f: PForm, tolerance: float = 1e-10):
    """Solve du = f with the weighted Poincare bound; returns (u, beta, report).

    beta = Delta^{-1} f for the Hodge Laplacian Delta = dT* + T*d under e^{-|x|^2}.
    """
    if f.p < 1:
        raise DomainError("du = f needs f of degree >= 1")
    bound = Fraction(1, 2 * f.p) if f.exact else 1.0 / (2 * f.p)
    f_sq = _input_norm_sq(f)
    df_sq = exterior_d(f).norm_sq()
    if not negligible(df_sq, f_sq, f.exact, tolerance):
        raise NotClosedError(
            "du = f needs df = 0; exterior derivative is nonzero" if f.exact else
            f"du = f needs df = 0; closedness residual^2 {df_sq:.3e} against input "
            f"norm^2 {f_sq:.3e} exceeds tolerance {tolerance:.1e}",
            residual_norm_sq=df_sq)
    _check_capacity(f.degree, f.max_total_degree)

    beta = f.replace({idx: field.replace({deg: val / (2 * (sum(deg) + f.p))
                                          for deg, val in field.coeffs.items()})
                      for idx, field in f.components.items()})
    u = codifferential(beta)
    return u, beta, _finish(u, exterior_d(u), f, f_sq, bound,
                          _degree_levels(f.components.values()), f.exact, tolerance)


def solve_d_min_norm(f: PForm, tolerance: float = 1e-10):
    u, _, report = solve_d_min_norm_full(f, tolerance)
    return u, report


# ---------------------------------------------------------------------------
# dbar u = g
# ---------------------------------------------------------------------------


def _k(a: int, b: int, p: int) -> int:
    """K(a,b,p) = sum_j (-1)^{p-j} C(p,j) C(q,a-j) with q = a + b - p."""
    q = a + b - p
    return sum((-1) ** (p - j) * math.comb(p, j) * math.comb(q, a - j)
               for j in range(max(0, a - q), min(p, a) + 1))


def _times_i_power(r: Fraction, k: int, exact: bool):
    """The scalar i^k r."""
    re, im = ((r, 0), (0, r), (-r, 0), (0, -r))[k % 4]
    return QC(re, im) if exact else complex(re, im)


@lru_cache(maxsize=None)
def he_to_complex_hermite(a: int, b: int, exact: bool) -> tuple:
    """He_a(x) He_b(y) as ((p, q), coefficient) pairs over H_{p,q}, p + q = a + b."""
    s = a + b
    out = []
    for p in range(s + 1):
        k = _k(a, b, p)
        if k:
            r = Fraction(k * math.factorial(a) * math.factorial(b),
                         math.factorial(p) * math.factorial(s - p))
            out.append(((p, s - p), _times_i_power(r, b, exact)))
    return tuple(out)


@lru_cache(maxsize=None)
def complex_hermite_to_he(p: int, q: int, exact: bool) -> tuple:
    """H_{p,q} as ((a, b), coefficient) pairs over He_a(x) He_b(y), a + b = p + q."""
    s = p + q
    out = []
    for a in range(s + 1):
        k = _k(a, s - a, p)
        if k:
            out.append(((a, s - a), _times_i_power(Fraction(k, 2 ** s), a - s, exact)))
    return tuple(out)


def _convert_pairs(coeffs: dict, m: int, table, exact: bool) -> dict:
    """Apply a per-pair basis conversion table(a, b, exact) to every complex
    pair of a coefficient map on R^m; the total degree is kept or lowered."""
    top = max(map(sum, coeffs), default=0)
    for j in range(0, m, 2):
        coeffs = _map_terms(coeffs.items(), lambda d, j=j: [
            (d[:j] + pair + d[j + 2:], t) for pair, t in table(d[j], d[j + 1], exact)],
            top, exact)
    return coeffs


@lru_cache(maxsize=None)
def _dbar_inverse_rule(d: tuple, exact: bool) -> tuple:
    """(L + 1)^{-1} He_d as (degree, weight) pairs: He_d converted to the
    H_{p,q} basis, divided by |q| + 1 and converted back, in exact arithmetic;
    float weights are the exact ones lowered to complex doubles."""
    if not exact:
        return tuple((t, coerce_scalar(w, False, True)) for t, w in _dbar_inverse_rule(d, True))
    spectral = _convert_pairs({d: QC(1)}, len(d), he_to_complex_hermite, True)
    spectral = {key: val / (sum(key[1::2]) + 1) for key, val in spectral.items()}
    return tuple(_convert_pairs(spectral, len(d), complex_hermite_to_he, True).items())


def _inverse_dbar_laplacian(field: ScalarField) -> ScalarField:
    """(L + 1)^{-1} on one component: one cached rule per degree vector."""
    exact = field.exact
    return field._map(lambda d: _dbar_inverse_rule(d, exact))


def solve_dbar_min_norm_full(g: ComplexForm, tolerance: float = 1e-10):
    """Solve dbar u = g with the Hormander-type bound 2 under e^{-|z|^2};
    returns (u, beta, report).

    beta = (L + 1)^{-1} g componentwise, the inverse of dbar dbar* on closed g.
    """
    require_bidegree(g, (0, 1), "dbar u = g")
    exact = g.exact
    bound = Fraction(2) if exact else 2.0
    g_sq = _input_norm_sq(g)
    dg_sq = dbar_of_01(g).norm_sq()
    if not negligible(dg_sq, g_sq, exact, tolerance):
        raise NotClosedError(
            "dbar u = g needs dbar g = 0" if exact else
            f"dbar u = g needs dbar g = 0; relative residual exceeds {tolerance:.1e}",
            residual_norm_sq=dg_sq)
    _check_capacity(g.degree, g.max_total_degree)

    beta = g.replace({idx: _inverse_dbar_laplacian(field)
                      for idx, field in g.components.items()})
    u = dbar_adjoint(beta)
    return u, beta, _finish(u, dbar_function(u), g, g_sq, bound,
                          _degree_levels(g.components.values()), exact, tolerance)


def solve_dbar_min_norm(g: ComplexForm, tolerance: float = 1e-10):
    u, _, report = solve_dbar_min_norm_full(g, tolerance)
    return u, report
