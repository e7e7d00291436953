"""Minimum-norm solves of du = f and dbar u = g by dividing by the Hermite spectrum.

Both solves take the adjoint route: find beta with (op op* + op* op) beta = f
and return u = op* beta.  For closed f the Laplacian commutes with op, so
op beta = 0, f = op(op* beta) and u lies in range(op*) = ker(op)^perp: it is
the minimum-norm solution.

Under the weight e^{-|x|^2} both Laplacians are diagonal in Hermite bases,
so each solve is one division per coefficient.

* d: dT* + T*d acts on a degree-k basis element of a p-form as
  multiplication by 2(k + p) (the Bochner identity; cf. Witten's
  Laplacian), so beta divides each coefficient by 2(k + p).  The solve is
  one function over the form's frame: its d and T* rules and its metric.  A
  PForm is in the real frame over He_d with k = |d|; a ComplexFrameForm is
  in the complex frame over H_{p,q} with k = |p| + |q|, where d = partial +
  dbar, T* raises one index with weight 2 and the Euclidean norm carries
  the factor 2^p (see calculus).
* dbar: on dbar-closed (0,1)-forms dbar dbar* is L + 1 on each component,
  with L = -sum_j delta^z_j d/dzbar_j and L H_{p,q} = |q| H_{p,q} in Ito's
  complex Hermite basis H_{p,q} = prod_j (-delta^zbar_j)^{p_j} (-delta^z_j)^{q_j} 1
  (Ito 1952).  The solve runs over H_{p,q}: beta divides each coefficient
  by |q| + 1 and u = dbar* beta raises q_j.  A g over He is converted to
  H_{p,q} once on the way in, and u and beta once on the way out.

No polynomial form is harmonic (the Laplacians have no zero eigenvalue), so
every closed input solves.  Each solve checks the closedness of its input
(df = 0, dbar g = 0) once before solving and the residual op(u) - f once
after, both through ``negligible`` on exact rationals: zero at tolerance 0,
else at most tolerance^2 ||f||^2, with ||f||^2 computed once.  The tolerance
lets an input that is closed only up to the rounding of its doubles through;
its residual is then nonzero but negligible.  A solve compares op(u) with f
under ``==`` and builds op(u) - f only to measure a nonzero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import (ComplexForm, ItoForm, PForm, codifferential, dbar_adjoint,
                       dbar_function, dbar_of_01, exterior_d, require_bidegree)
from .errors import DegreeOverflowError, DomainError, NotClosedError
from .scalars import render_value


@dataclass
class SolveReport:
    """Outcome of one solve: norms, the stated bound, and whether it held.

    ``residual_norm_sq`` is the squared L2 norm of the equation residual,
    matching the squared convention of the other norm fields; every norm is
    a Fraction.  ``blocks_solved`` counts the distinct total Hermite degrees
    in the input's support.
    """

    residual_norm_sq: object
    input_norm_sq: object
    output_norm_sq: object
    bound_constant: object
    ratio: object
    bound_satisfied: bool
    blocks_solved: int

    def to_json(self, number=str) -> dict:
        """The report as JSON, each norm written by ``number`` (see
        scalars.render_value)."""
        return {
            "residual": render_value(self.residual_norm_sq, number),
            "input_norm_sq": render_value(self.input_norm_sq, number),
            "output_norm_sq": render_value(self.output_norm_sq, number),
            "bound_constant": render_value(self.bound_constant, number),
            "ratio": render_value(self.ratio, number),
            "bound_satisfied": self.bound_satisfied,
            "blocks_solved": self.blocks_solved,
        }


def _make_report(residual_sq, input_sq, output_sq, bound, blocks) -> SolveReport:
    ratio = output_sq / input_sq if input_sq else Fraction(0)
    return SolveReport(residual_sq, input_sq, output_sq, bound, ratio, ratio <= bound, blocks)


def negligible(norm_sq, scale_sq, tolerance=0) -> bool:
    """The one gate on a squared norm, evaluated on exact rationals:
    norm_sq <= tolerance^2 scale_sq, which at tolerance 0 means norm_sq == 0."""
    if norm_sq == 0:
        return True
    return tolerance > 0 and norm_sq <= Fraction(tolerance) ** 2 * scale_sq


def _check_capacity(top: int | None, capacity: int):
    """A solve raises the degree by one; a zero form (top None) fits any capacity."""
    if top is not None and top + 1 > capacity:
        raise DegreeOverflowError(
            f"solve needs capacity {top + 1} (one above the data degree {top}), "
            f"have {capacity}", required_capacity=top + 1)


def _degree_levels(fields) -> int:
    return len({sum(deg) for field in fields for deg in field.coeffs})


def _finish(u, image, f, f_sq, bound, blocks, tolerance) -> SolveReport:
    """Gate the equation residual image - f and report; image = op(u) and f
    is the right-hand side, f_sq = ||f||^2.  The residual is built only if
    image != f."""
    res_sq = Fraction(0) if image == f else (image - f).norm_sq()
    if not negligible(res_sq, f_sq, tolerance):
        raise NotClosedError("solve left a residual above the tolerance; input is not closed",
                             residual_norm_sq=res_sq)
    return _make_report(res_sq, f_sq, u.norm_sq(), bound, blocks)


# ---------------------------------------------------------------------------
# du = f
# ---------------------------------------------------------------------------


def solve_d_min_norm_full(f: PForm, tolerance: float = 0):
    """Solve du = f with the weighted Poincare bound; returns (u, beta, report).

    beta = Delta^{-1} f for the Hodge Laplacian Delta = dT* + T*d under e^{-|x|^2}.
    """
    if f.p < 1:
        raise DomainError("du = f needs f of degree >= 1")
    bound = Fraction(1, 2 * f.p)
    f_sq = f.norm_sq()
    df_sq = exterior_d(f).norm_sq()
    if not negligible(df_sq, f_sq, tolerance):
        raise NotClosedError(
            "du = f needs df = 0; exterior derivative is nonzero" if not tolerance else
            f"du = f needs df = 0; ||df||^2 exceeds tolerance^2 ||f||^2 at tolerance "
            f"{tolerance:.1e}", residual_norm_sq=df_sq)
    _check_capacity(f.degree, f.max_total_degree)

    beta = f.replace({idx: field.replace({deg: val / (2 * (sum(deg) + f.p))
                                          for deg, val in field.coeffs.items()})
                      for idx, field in f.components.items()})
    u = codifferential(beta)
    return u, beta, _finish(u, exterior_d(u), f, f_sq, bound,
                          _degree_levels(f.components.values()), tolerance)


def solve_d_min_norm(f: PForm, tolerance: float = 0):
    u, _, report = solve_d_min_norm_full(f, tolerance)
    return u, report


# ---------------------------------------------------------------------------
# dbar u = g
# ---------------------------------------------------------------------------


def _solve_dbar(g: ComplexForm, tolerance: float):
    """The dbar solve over H_{p,q}, for g over either basis: (u, beta, report)
    with u and beta over H_{p,q}.

    beta = (L + 1)^{-1} g componentwise, the inverse of dbar dbar* on closed g:
    a division by |q| + 1 over H_{p,q}.  A g over He is converted once.
    """
    require_bidegree(g, (0, 1), "dbar u = g")
    h = ItoForm.of(g)
    g_sq = h.norm_sq()
    dg_sq = dbar_of_01(h).norm_sq()
    if not negligible(dg_sq, g_sq, tolerance):
        raise NotClosedError(
            "dbar u = g needs dbar g = 0" if not tolerance else
            f"dbar u = g needs dbar g = 0; relative residual exceeds {tolerance:.1e}",
            residual_norm_sq=dg_sq)
    _check_capacity(g.degree, g.max_total_degree)

    beta = h.replace({idx: field.replace({key: val / (sum(key[1::2]) + 1)
                                          for key, val in field.coeffs.items()})
                      for idx, field in h.components.items()})
    u = dbar_adjoint(beta)
    return u, beta, _finish(u, dbar_function(u), h, g_sq, Fraction(2),
                            _degree_levels(h.components.values()), tolerance)


def solve_dbar_min_norm_full(g: ComplexForm, tolerance: float = 0):
    """Solve dbar u = g with the Hormander-type bound 2 under e^{-|z|^2};
    returns (u, beta, report) with u and beta over the basis of g."""
    u, beta, report = _solve_dbar(g, tolerance)
    if not isinstance(g, ItoForm):
        u, beta = u.to_he(), beta.to_he()
    return u, beta, report


def solve_dbar_min_norm(g: ComplexForm, tolerance: float = 0):
    u, _, report = _solve_dbar(g, tolerance)
    return (u if isinstance(g, ItoForm) else u.to_he()), report
