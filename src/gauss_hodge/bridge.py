"""Conversion between forms on C^n and real forms on R^{2n}, and the
end-to-end pipeline solving the Poincare-Lelong equation ddbar u = f.

Coordinates are paired as z_j = x_{2j-1} + i x_{2j}.  Every conversion is
one frame change: each frame 1-form is expanded through a per-axis table,

    dz_j = dx_{2j-1} + i dx_{2j},     dzbar_j = dx_{2j-1} - i dx_{2j},
    dx_{2j-1} = (dz_j + dzbar_j)/2,   dx_{2j} = (dz_j - dzbar_j)/(2i),

and the wedge of the images is re-sorted into increasing indices.  Into the
real frame a (1,1)-form f becomes f = f1 + i f2 with real 2-forms f1, f2
(decompose_11); writing f_{ij} = A_{ij} + i B_{ij} this gives

    f1 = sum_{i<j} (A_{ij} - A_{ji}) (dx_i^dx_j + dy_i^dy_j)
         + sum_{i,j} (B_{ij} + B_{ji}) dx_i^dy_j
    f2 = sum_{i<j} (B_{ij} - B_{ji}) (dx_i^dx_j + dy_i^dy_j)
         - sum_{i,j} (A_{ij} + A_{ji}) dx_i^dy_j

and the pointwise identity |f1|^2 + |f2|^2 = 4 |f|^2.  Into the complex frame
a real 1- or 2-form splits by bidegree (split_bidegree,
two_form_complex_parts).  These frame changes act on forms over He; verify
checks them.

The pipeline runs the constructive proof without changing frame, in the
complex frame over Ito's basis H_{p,q} (calculus.ItoForm and
ComplexFrameForm), where every operator it applies moves one index:

    f1 = (f + conj f)/2,   f2 = (f - conj f)/(2i)

are the real 2-forms with f = f1 + i f2, written in the complex frame.  It
solves d v_k = f_k with bound 1/4 (norms in the Euclidean metric, 2^deg
times the Ito norms), reads the (1,0) and (0,1) parts of v_k off the frame
(each carrying a quarter of the squared norm), solves dbar u_k = v_k^{0,1}
with bound 2, and assembles u = (u_1 - conj u_1) + i (u_2 - conj u_2),
giving ||u||^2 <= 2 ||f||^2.  A (1,1)-form over He is converted to H_{p,q}
once on the way in, and u once on the way out; a potential's ddbar is
already over H_{p,q}.

Each identity is checked once, through ``solver.negligible`` (float scale in
brackets): df_k = 0 by the d solve of f_k [||f_k||^2], raising NotClosedError
(df = 0 iff df_1 = df_2 = 0 by type separation); dbar v_k^{0,1} = 0 by the
dbar solve [||v_k^{0,1}||^2]; partial v_k^{1,0} = 0 here [max(||v_k||^2, 1)];
ddbar u = f here [||f||^2].  Past the d solves these and the stage bounds hold
for closed input by construction, so a failure, a NotClosedError from a dbar
solve included, raises InvariantViolationError naming its stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .calculus import (ComplexForm, ComplexFrameForm, ItoForm, PForm, _components, ddbar,
                       partial_of_10, require_bidegree)
from .errors import (DegreeOverflowError, DomainError, InvariantViolationError,
                     NotClosedError)
from .fields import COMPLEX, REAL, _accumulate, _identity_rule
from .multiindex import insert_axis
from .scalars import imaginary_unit, one_half, render_value
from .solver import (SolveReport, _make_report, bound_holds, negligible,
                     solve_d_min_norm_full, solve_dbar_min_norm_full)


def _frame_table(n: int, exact: bool, to_complex: bool) -> dict:
    """Each frame 1-form as (axis, weight) pairs over the other frame:

        dx_{2j-1} = (dz_j + dzbar_j)/2,   dx_{2j} = (dz_j - dzbar_j)/(2i),
        dz_j = dx_{2j-1} + i dx_{2j},     dzbar_j = dx_{2j-1} - i dx_{2j}.
    """
    i_unit = imaginary_unit(exact)
    half = one_half(exact)
    table = {}
    for j in range(1, n + 1):
        if to_complex:
            table[2 * j - 1] = ((j, half), (n + j, half))
            table[2 * j] = ((j, -i_unit * half), (n + j, i_unit * half))
        else:
            table[j] = ((2 * j - 1, 1), (2 * j, i_unit))
            table[n + j] = ((2 * j - 1, 1), (2 * j, -i_unit))
    return table


@lru_cache(maxsize=None)
def _frame_weights(idx: tuple, n: int, exact: bool, to_complex: bool) -> tuple:
    """The frame element e_idx on C^n in the other frame, as (index, weight)
    pairs: each e_a becomes sum_{(b, w) in table[a]} w e_b, insert_axis
    re-sorts the wedge of the images, and the weights of one index are summed."""
    table = _frame_table(n, exact, to_complex)
    weights: dict = {}
    for picks in itertools.product(*(table[a] for a in idx)):
        key, weight = (), 1
        for b, w in reversed(picks):
            ins = insert_axis(b, key)
            if ins is None:
                break
            sign, key = ins
            weight = weight * w if sign == 1 else -weight * w
        else:
            weights[key] = weights[key] + weight if key in weights else weight
    return tuple((key, weight) for key, weight in weights.items() if weight)


def _frame_change(form: PForm, to_complex: bool) -> dict:
    """The components of a form in the other frame: each component is summed
    once, with its total weight, straight into each target's coefficients."""
    acc: dict = {}
    for idx, field in form.components.items():
        for key, weight in _frame_weights(idx, form.n // 2, form.exact, to_complex):
            _accumulate(acc.setdefault(key, {}), field.coeffs.items(), _identity_rule,
                        form.exact, weight)
    return _components(acc, form)


def decompose_11(f: ComplexForm) -> tuple[PForm, PForm]:
    """Split a (1,1)-form into real 2-forms with f = f1 + i f2."""
    g = _frame_change(f, to_complex=False)
    f1 = PForm(f.n, f.p, f.max_total_degree, REAL, f.exact,
               {idx: c.real_part() for idx, c in g.items()})
    f2 = PForm(f.n, f.p, f.max_total_degree, REAL, f.exact,
               {idx: c.imag_part() for idx, c in g.items()})
    return f1, f2


def _type_parts(v: PForm, comps: dict, form_type) -> tuple[ComplexForm, ...]:
    """The (p, 0), (p-1, 1), ..., (0, p) parts of a p-form on R^{2n} from its
    complex-frame components, as forms of ``form_type``."""
    n = v.n // 2
    parts: dict = {}
    for idx, field in comps.items():
        parts.setdefault(sum(a <= n for a in idx), {})[idx] = field
    return tuple(form_type(n, (p, v.p - p), v.max_total_degree, v.exact, parts.get(p))
                 for p in range(v.p, -1, -1))


def _complex_parts(v: PForm) -> tuple[ComplexForm, ...]:
    """The (p, 0), (p-1, 1), ..., (0, p) parts of a real-frame p-form on R^{2n}."""
    return _type_parts(v, _frame_change(v.promote_complex(), to_complex=True), ComplexForm)


def two_form_complex_parts(g: PForm) -> tuple[ComplexForm, ComplexForm, ComplexForm]:
    """Write a real-frame 2-form in the complex frame.

    Returns the (2,0), (1,1) and (0,2) parts, using
    dx_{2i-1} = (dz_i + dzbar_i)/2 and dx_{2i} = (dz_i - dzbar_i)/(2i).
    """
    if g.p != 2 or g.n % 2 != 0:
        raise DomainError("need a 2-form on an even-dimensional real space")
    return _complex_parts(g)


def recompose_11(f1: PForm, f2: PForm) -> ComplexForm:
    """Rebuild the complex frame from the two real 2-forms; the (2,0) and
    (0,2) parts of f1 + i f2 must vanish for a genuine (1,1)-form."""
    combined = f1.promote_complex() + f2.promote_complex().scale(imaginary_unit(f1.exact))
    part20, part11, part02 = two_form_complex_parts(combined)
    if not part20.is_zero() or not part02.is_zero():
        raise DomainError("f1 + i f2 is not of pure type (1,1)")
    return part11


def split_bidegree(v: PForm) -> tuple[ComplexForm, ComplexForm]:
    """Split a real-frame 1-form into its (1,0) and (0,1) parts:

    v10_j = v_{2j-1}/2 + v_{2j}/(2i),   v01_j = v_{2j-1}/2 - v_{2j}/(2i).
    """
    if v.p != 1 or v.n % 2 != 0:
        raise DomainError("need a 1-form on an even-dimensional real space")
    return _complex_parts(v)


@dataclass
class PipelineReport:
    """Stage-by-stage record of one Poincare-Lelong solve."""

    d_solve_re: SolveReport
    d_solve_im: SolveReport
    dbar_solve_re: SolveReport
    dbar_solve_im: SolveReport
    final: SolveReport
    conjugation_ratios: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "stages": {
                "d_solve_re": self.d_solve_re.to_json(),
                "d_solve_im": self.d_solve_im.to_json(),
                "dbar_solve_re": self.dbar_solve_re.to_json(),
                "dbar_solve_im": self.dbar_solve_im.to_json(),
            },
            "conjugation_ratios": {k: render_value(v)
                                   for k, v in self.conjugation_ratios.items()},
            "final": self.final.to_json(),
            "final_ratio": render_value(self.final.ratio),
        }


def _check_stage_bound(report: SolveReport, stage: str):
    if not report.bound_satisfied:
        raise InvariantViolationError(
            stage, f"stage bound {report.bound_constant} violated: "
                   f"output^2 {report.output_norm_sq}, input^2 {report.input_norm_sq}",
            lhs=report.output_norm_sq, rhs=report.input_norm_sq)


def solve_poincare_lelong_full(f: ComplexForm, tolerance: float = 1e-10):
    """Run the full constructive solve of ddbar u = f under e^{-|z|^2};
    returns (u, report), with u over the basis of f."""
    require_bidegree(f, (1, 1), "ddbar u = f")
    exact = f.exact

    zero_s = Fraction(0) if exact else 0.0
    two = Fraction(2) if exact else 2.0
    if f.is_zero():
        u = f.field_type.zero(f.n, f.max_total_degree, COMPLEX, exact)
        empty = _make_report(zero_s, zero_s, zero_s, Fraction(1, 4) if exact else 0.25,
                             0, exact)
        empty_dbar = _make_report(zero_s, zero_s, zero_s, two, 0, exact)
        return u, PipelineReport(empty, empty, empty_dbar, empty_dbar, empty_dbar)

    top = f.degree
    if top + 2 > f.max_total_degree:
        raise DegreeOverflowError(
            f"pipeline needs capacity {top + 2} (two above the data degree {top}), "
            f"have {f.max_total_degree}", required_capacity=top + 2)

    # (1) the real 2-forms f1 = (f + conj f)/2 and f2 = (f - conj f)/(2i)
    h = ItoForm.of(f)
    f_sq = h.norm_sq()
    conj = h.conjugate()
    half = one_half(exact)
    f1, f2 = (ComplexFrameForm(h.n, 2, h.max_total_degree, COMPLEX, exact, g.components).scale(s)
              for g, s in ((h + conj, half), (h - conj, -imaginary_unit(exact) * half)))

    # (2) weighted Poincare solves d v_k = f_k, bound 1/4; each refuses a
    #     non-closed f_k
    v1, _, rep_d1 = solve_d_min_norm_full(f1, tolerance)
    v2, _, rep_d2 = solve_d_min_norm_full(f2, tolerance)
    _check_stage_bound(rep_d1, "d_solve_re")
    _check_stage_bound(rep_d2, "d_solve_im")

    us = []
    dbar_reports = []
    conj_ratios = {}
    for name, vk, rep_d in (("re", v1, rep_d1), ("im", v2, rep_d2)):
        # (3) the (1,0) and (0,1) parts of v_k; the (2,0) piece of d v_k must
        #     vanish (the dbar solve checks the (0,2) piece)
        v10, v01 = _type_parts(vk, vk.components, ItoForm)
        purity_sq = partial_of_10(v10).norm_sq()
        if not negligible(purity_sq, max(rep_d.output_norm_sq, 1.0), exact, tolerance):
            raise InvariantViolationError(
                f"type_purity_{name}", "partial v10 is not negligible",
                lhs=purity_sq, rhs=rep_d.output_norm_sq)

        # (4) Hormander solve dbar u_k = v_k^{0,1}, bound 2
        try:
            uk, _, rep_dbar = solve_dbar_min_norm_full(v01, tolerance)
        except NotClosedError as exc:
            raise InvariantViolationError(
                f"dbar_solve_{name}", str(exc), lhs=exc.residual_norm_sq) from exc
        _check_stage_bound(rep_dbar, f"dbar_solve_{name}")
        dbar_reports.append(rep_dbar)

        # (5) u_k - conj(u_k) obeys the Cauchy-Schwarz factor 4
        wk = uk - uk.conjugate()
        wk_sq = wk.norm_sq()
        uk_sq = rep_dbar.output_norm_sq
        if not bound_holds(wk_sq, 4 * uk_sq, exact):
            raise InvariantViolationError(
                f"conjugation_{name}", "||u - conj u||^2 > 4 ||u||^2",
                lhs=wk_sq, rhs=uk_sq)
        conj_ratios[name] = wk_sq / uk_sq if uk_sq != 0 else zero_s
        us.append(wk)

    u = us[0] + us[1].scale(imaginary_unit(exact))

    # exact mode compares ddbar u with f; the residual is built only to report it
    image = ddbar(u)
    res_sq = zero_s if exact and image == h else (image - h).norm_sq()
    if not negligible(res_sq, f_sq, exact, tolerance):
        raise InvariantViolationError(
            "final_residual", "ddbar u != f in exact mode" if exact
            else "ddbar u residual exceeds tolerance", lhs=res_sq, rhs=f_sq)

    final = _make_report(res_sq, f_sq, u.norm_sq(), two,
                         rep_d1.blocks_solved + rep_d2.blocks_solved
                         + dbar_reports[0].blocks_solved + dbar_reports[1].blocks_solved,
                         exact)
    if not final.bound_satisfied:
        raise InvariantViolationError("final_bound", "||u||^2 > 2 ||f||^2",
                                      lhs=final.output_norm_sq, rhs=f_sq)
    report = PipelineReport(rep_d1, rep_d2, dbar_reports[0], dbar_reports[1],
                            final, conj_ratios)
    return (u if h is f else u.to_he()), report


def solve_poincare_lelong(f: ComplexForm, tolerance: float = 1e-10):
    """Solve ddbar u = f; returns (u, final SolveReport) with bound constant 2."""
    u, report = solve_poincare_lelong_full(f, tolerance)
    return u, report.final
