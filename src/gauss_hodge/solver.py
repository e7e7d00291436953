"""Minimum-norm solves of du = f and dbar u = g by dividing by the Hermite spectrum.

Both solves take the adjoint route: find beta with (op op* + op* op) beta = f
and return u = op* beta.  For closed f the Laplacian commutes with op, so
op beta = 0, f = op(op* beta) and u lies in range(op*) = ker(op)^perp: it is
the minimum-norm solution.  Under the weight e^{-|x|^2} both Laplacians are
diagonal in Hermite bases, so both solves are one function, _spectral_solve,
dividing each coefficient by the eigenvalue on its basis term:

    equation    op and closure   adjoint   eigenvalue   bound
    du = f      d                T*        2(k + p)     1/(2p)
    dbar u = g  dbar             dbar*     |q| + 1      2

d: dT* + T*d multiplies a degree-k term of a p-form by 2(k + p) (the Bochner
identity), with k = |d| for He_d in the real frame (PForm) and k = |p| + |q|
for H_{p,q} in the complex frame (ComplexFrameForm; see calculus).  dbar: on
dbar-closed (0,1)-forms dbar dbar* is L + 1 on each component, where
L = -sum_j delta^z_j d/dzbar_j multiplies Ito's H_{p,q} by |q|; a g over He
is converted to H_{p,q} once on the way in, and u and beta once on the way out.

No polynomial form is harmonic, so every closed input solves.  A solve splits
f by ``parts``, linear and commuting with the operators: (f,), or the real
parts of the Poincare-Lelong pipeline (bridge).  Each part's closedness is
gated before the division and its residual op(u) - f after it (_finish, built
only if op(u) != f), through ``negligible``: zero at tolerance 0, else at most
tolerance^2 ||f_k||^2, which lets rounded doubles through.  The pipeline gates
its capacity and final residual with the same _check_capacity and _finish.

Public constructors check their input; an operator's output is built
trusted, so beta and u are built over f's own shape and never re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .calculus import (ComplexForm, ItoForm, PForm, codifferential, dbar_adjoint,
                       dbar_function, dbar_of_01, exterior_d, require_bidegree)
from .errors import DegreeOverflowError, DomainError, NotClosedError
from .scalars import _make, fraction_str, render_value


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

    def to_json(self, number=fraction_str) -> dict:
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


def _check_capacity(top: int | None, capacity: int, raise_by: int = 1, what: str = "solve"):
    """A solve raises the degree by one, the pipeline by two; a zero form (top
    None) fits any capacity."""
    if top is not None and top + raise_by > capacity:
        raise DegreeOverflowError(
            f"{what} needs capacity {top + raise_by} ({'one' if raise_by == 1 else 'two'} "
            f"above the data degree {top}), have {capacity}", required_capacity=top + raise_by)


def _finish(u, image, f, f_sq, bound, tolerance, blocks=None) -> SolveReport:
    """Gate the equation residual image - f and report; image = op(u) and f
    is the right-hand side, f_sq = ||f||^2, and blocks by default the number
    of distinct total Hermite degrees in f.  The residual is built only if
    image != f."""
    res_sq = Fraction(0) if image == f else (image - f).norm_sq()
    if not negligible(res_sq, f_sq, tolerance):
        raise NotClosedError("solve left a residual above the tolerance", residual_norm_sq=res_sq)
    if blocks is None:
        blocks = len({sum(key) for field in f.components.values() for key in field.coeffs})
    return _make_report(res_sq, f_sq, u.norm_sq(), bound, blocks)


def _spectral_solve(f, closure, eigenvalue, adjoint, op, bound, tolerance, need: str, parts):
    """Solve op(u) = f for closed f, part by part: gate each part of closure(f)
    on its own ||f_k||^2, first part first (a NotClosedError's message starts
    with ``need``), divide each coefficient (a + b i)/d by eigenvalue(key), the
    Laplacian's positive integer eigenvalue on its basis term, as one reduced
    (a + b i)/(d eigenvalue), and return (parts(u), beta, reports)."""
    fs = parts(f)
    fs_sq = [fk.norm_sq() for fk in fs]
    for fk_sq, ck in zip(fs_sq, parts(closure(f))):
        closure_sq = ck.norm_sq()
        if not negligible(closure_sq, fk_sq, tolerance):
            raise NotClosedError(need if not tolerance else
                                 f"{need}; its squared norm exceeds tolerance^2 ||f||^2 at "
                                 f"tolerance {tolerance:.1e}", residual_norm_sq=closure_sq)
    _check_capacity(f.degree, f.max_total_degree)
    beta = f._like({idx: field.replace({key: _make(val._a, val._b, val._d * eigenvalue(key))
                                        for key, val in field.coeffs.items()})
                    for idx, field in f.components.items()})
    u = adjoint(beta)
    us, image = parts(u), op(u)
    images = fs if image == f else parts(image)
    return us, beta, [_finish(*part, bound, tolerance) for part in zip(us, images, fs, fs_sq)]


# ---------------------------------------------------------------------------
# du = f
# ---------------------------------------------------------------------------


def _solve_d(f: PForm, parts, tolerance: float):
    """du = f split by ``parts``: (parts(u), beta, reports), see _spectral_solve."""
    if f.p < 1:
        raise DomainError("du = f needs f of degree >= 1")
    return _spectral_solve(f, exterior_d, lambda key: 2 * (sum(key) + f.p), codifferential,
                           exterior_d, Fraction(1, 2 * f.p), tolerance, "du = f needs df = 0",
                           parts)


def solve_d_min_norm_full(f: PForm, tolerance: float = 0):
    """Solve du = f with the weighted Poincare bound; returns (u, beta, report),
    beta = Delta^{-1} f for the Hodge Laplacian Delta = dT* + T*d under e^{-|x|^2}."""
    (u,), beta, (report,) = _solve_d(f, lambda x: (x,), tolerance)
    return u, beta, report


def solve_d_min_norm(f: PForm, tolerance: float = 0):
    u, _, report = solve_d_min_norm_full(f, tolerance)
    return u, report


# ---------------------------------------------------------------------------
# dbar u = g
# ---------------------------------------------------------------------------


def _solve_dbar(g: ComplexForm, tolerance: float):
    """The dbar solve over H_{p,q}, for g over either basis: ((u,), beta,
    (report,)) with u and beta over H_{p,q}.  A g over He is converted once."""
    require_bidegree(g, (0, 1), "dbar u = g")
    return _spectral_solve(ItoForm.of(g), dbar_of_01, lambda key: sum(key[1::2]) + 1,
                           dbar_adjoint, dbar_function, Fraction(2), tolerance,
                           "dbar u = g needs dbar g = 0", lambda x: (x,))


def solve_dbar_min_norm_full(g: ComplexForm, tolerance: float = 0):
    """Solve dbar u = g with the Hormander-type bound 2 under e^{-|z|^2};
    returns (u, beta, report) with u and beta over the basis of g."""
    (u,), beta, (report,) = _solve_dbar(g, tolerance)
    if not isinstance(g, ItoForm):
        u, beta = u.to_he(), beta.to_he()
    return u, beta, report


def solve_dbar_min_norm(g: ComplexForm, tolerance: float = 0):
    (u,), _, (report,) = _solve_dbar(g, tolerance)
    return (u if isinstance(g, ItoForm) else u.to_he()), report
