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
ComplexFrameForm), where every operator it applies moves one index.  There
f is a complex 2-form g, and its real parts under the frame conjugation c,

    f1 = Re_1 g = (g + cg)/2,   f2 = Re_2 g = (g - cg)/(2i),

are the real 2-forms with f = f1 + i f2.  Under e^{-|z|^2}, d, T* and
Delta = dT* + T*d are real, so they commute with c, and the one solve
v = T* Delta^{-1} g gives v_k = Re_k v with d v_k = f_k and bound 1/4 (norms
in the Euclidean metric, 2^deg times the Ito norms).  It reads the (1,0) and
(0,1) parts of v_k off the frame (each carrying a quarter of the squared
norm), solves dbar u_k = v_k^{0,1} with bound 2, and assembles
u = (u_1 - conj u_1) + i (u_2 - conj u_2), giving ||u||^2 <= 2 ||f||^2.  A
(1,1)-form over He is converted to H_{p,q} once on the way in, and u once on
the way out; a potential's ddbar is already over H_{p,q}.

The gates, in order, by stage; every norm gate is ``solver.negligible``, with
the scale of a nonzero tolerance in brackets:

    capacity          data degree + 2 <= capacity: DegreeOverflowError
    d_solve_re/im     df_k = 0, dv_k = f_k [||f_k||^2]: NotClosedError; stage bound 1/4
    type_purity_k     partial v_k^{1,0} = 0 [max(||v_k||^2, 1)]
    dbar_solve_k      dbar v_k^{0,1} = 0 [||v_k^{0,1}||^2]; stage bound 2
    conjugation_k     ||u_k - conj u_k||^2 <= 4 ||u_k||^2
    final_residual    ddbar u = f [||f||^2]
    final_bound       ||u||^2 <= 2 ||f||^2

The d solve is split by Re_k (solver._solve_d with calculus._real_parts):
d commutes with c, so Re_k dg = df_k and Re_k dv = dv_k, and each
d_solve_k gate and report is that of f_k's own solve, re first.  Past the d
solves every gate holds for closed input by construction, so a failure there,
a NotClosedError included, raises InvariantViolationError naming its stage.
A zero input runs this same path; it records no conjugation ratios.

Public constructors check their input; an operator's output is built
trusted.  So each (p, q) part that _type_parts reads off an operator's form,
grouped by its own bidegree, is built by ComplexForm._typed, g relabels the
components of h, and the pipeline's only checked constructions are those of
ComplexForm.function, through which dbar_function and ddbar take a function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from .calculus import (ComplexForm, ComplexFrameForm, ItoForm, PForm, _components, _real_parts,
                       ddbar, partial_of_10, require_bidegree)
from .errors import DimensionMismatchError, DomainError, InvariantViolationError, NotClosedError
from .fields import COMPLEX, REAL, _accumulate, _identity_rule
from .multiindex import insert_axis
from .scalars import HALF, IMAG_UNIT, fraction_str, render_value
from .solver import (SolveReport, _check_capacity, _finish, _solve_d, negligible,
                     solve_dbar_min_norm_full)


def _frame_table(n: int, to_complex: bool) -> dict:
    """Each frame 1-form as (axis, weight) pairs over the other frame:

        dx_{2j-1} = (dz_j + dzbar_j)/2,   dx_{2j} = (dz_j - dzbar_j)/(2i),
        dz_j = dx_{2j-1} + i dx_{2j},     dzbar_j = dx_{2j-1} - i dx_{2j}.
    """
    table = {}
    for j in range(1, n + 1):
        if to_complex:
            table[2 * j - 1] = ((j, HALF), (n + j, HALF))
            table[2 * j] = ((j, -IMAG_UNIT * HALF), (n + j, IMAG_UNIT * HALF))
        else:
            table[j] = ((2 * j - 1, 1), (2 * j, IMAG_UNIT))
            table[n + j] = ((2 * j - 1, 1), (2 * j, -IMAG_UNIT))
    return table


@lru_cache(maxsize=None)
def _frame_weights(idx: tuple, n: int, to_complex: bool) -> tuple:
    """The frame element e_idx on C^n in the other frame, as (index, weight)
    pairs: each e_a becomes sum_{(b, w) in table[a]} w e_b, insert_axis
    re-sorts the wedge of the images, and the weights of one index are summed."""
    table = _frame_table(n, to_complex)
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
        for key, weight in _frame_weights(idx, form.n // 2, to_complex):
            _accumulate(acc.setdefault(key, {}), field.coeffs.items(), _identity_rule, weight)
    return _components(acc, form)


def decompose_11(f: ComplexForm) -> tuple[PForm, PForm]:
    """Split a (1,1)-form over He into real 2-forms with f = f1 + i f2; any
    other form is refused."""
    if type(f) is not ComplexForm or f.bidegree != (1, 1):
        raise DimensionMismatchError(f"expected a (1,1) ComplexForm over He, got "
                                     f"{type(f).__name__} of degree {getattr(f, 'bidegree', f.p)}")
    g = _frame_change(f, to_complex=False)
    f1 = PForm._trusted(f.n, f.p, f.max_total_degree, REAL,
                        {idx: c.real_part() for idx, c in g.items()})
    f2 = PForm._trusted(f.n, f.p, f.max_total_degree, REAL,
                        {idx: c.imag_part() for idx, c in g.items()})
    return f1, f2


def _type_parts(v: PForm, comps: dict, form_type) -> tuple[ComplexForm, ...]:
    """The (p, 0), (p-1, 1), ..., (0, p) parts of a p-form on R^{2n} from its
    complex-frame components, as forms of ``form_type``: grouped by their own
    bidegree, they are built trusted."""
    n = v.n // 2
    parts: dict = {}
    for idx, field in comps.items():
        parts.setdefault(sum(a <= n for a in idx), {})[idx] = field
    return tuple(form_type._typed(n, (p, v.p - p), v.max_total_degree, parts.get(p, {}))
                 for p in range(v.p, -1, -1))


def _complex_parts(v: PForm) -> tuple[ComplexForm, ...]:
    """The (p, 0), (p-1, 1), ..., (0, p) parts of a real-frame p-form on R^{2n}
    over He; a form in the complex frame or over H_{p,q} is refused."""
    if type(v) is not PForm:
        raise DimensionMismatchError(f"expected a real-frame PForm, got {type(v).__name__}")
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
    combined = f1.promote_complex() + f2.promote_complex().scale(IMAG_UNIT)
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

    def to_json(self, number=fraction_str) -> dict:
        """The report as JSON, each value written by ``number`` (see
        scalars.render_value)."""
        stages = ("d_solve_re", "d_solve_im", "dbar_solve_re", "dbar_solve_im")
        return {
            "stages": {stage: getattr(self, stage).to_json(number) for stage in stages},
            "conjugation_ratios": {k: render_value(v, number)
                                   for k, v in self.conjugation_ratios.items()},
            "final": self.final.to_json(number),
            "final_ratio": render_value(self.final.ratio, number),
        }


def _check_stage_bound(report: SolveReport, stage: str):
    if not report.bound_satisfied:
        raise InvariantViolationError(
            stage, f"stage bound {report.bound_constant} violated: "
                   f"output^2 {report.output_norm_sq}, input^2 {report.input_norm_sq}",
            lhs=report.output_norm_sq, rhs=report.input_norm_sq)


def _stage(stage: str, gated, *args):
    """gated(*args), a NotClosedError from it raised as the pipeline's own
    fault at ``stage``: past the d solves every gate holds by construction."""
    try:
        return gated(*args)
    except NotClosedError as exc:
        raise InvariantViolationError(stage, str(exc), lhs=exc.residual_norm_sq) from exc


def solve_poincare_lelong_full(f: ComplexForm, tolerance: float = 0):
    """Run the full constructive solve of ddbar u = f under e^{-|z|^2};
    returns (u, report), with u over the basis of f."""
    require_bidegree(f, (1, 1), "ddbar u = f")

    _check_capacity(f.degree, f.max_total_degree, 2, "pipeline")

    # (1) f as a 2-form g = f1 + i f2 on R^{2n}, written in the complex frame
    h = ItoForm.of(f)
    g = ComplexFrameForm._trusted(h.n, 2, h.max_total_degree, COMPLEX, h.components)

    # (2) one weighted Poincare solve d v = g, each v_k = Re_k v as f_k's own; bound 1/4
    vs, _, reports = _solve_d(g, _real_parts, tolerance)
    for name, rep_d in zip(("re", "im"), reports):
        _check_stage_bound(rep_d, f"d_solve_{name}")

    us, conj_ratios = [], {}
    for name, vk, rep_d in zip(("re", "im"), vs, reports[:2]):
        # (3) the (1,0) and (0,1) parts of v_k; the (2,0) piece of d v_k must
        #     vanish (the dbar solve checks the (0,2) piece)
        v10, v01 = _type_parts(vk, vk.components, ItoForm)
        purity_sq = partial_of_10(v10).norm_sq()
        if not negligible(purity_sq, max(rep_d.output_norm_sq, 1), tolerance):
            raise InvariantViolationError(
                f"type_purity_{name}", "partial v10 is not negligible",
                lhs=purity_sq, rhs=rep_d.output_norm_sq)

        # (4) Hormander solve dbar u_k = v_k^{0,1}, bound 2
        uk, _, rep_dbar = _stage(f"dbar_solve_{name}", solve_dbar_min_norm_full, v01, tolerance)
        _check_stage_bound(rep_dbar, f"dbar_solve_{name}")
        reports.append(rep_dbar)

        # (5) u_k - conj(u_k) obeys the Cauchy-Schwarz factor 4
        wk = uk - uk.conjugate()
        wk_sq = wk.norm_sq()
        uk_sq = rep_dbar.output_norm_sq
        if wk_sq > 4 * uk_sq:
            raise InvariantViolationError(
                f"conjugation_{name}", "||u - conj u||^2 > 4 ||u||^2",
                lhs=wk_sq, rhs=uk_sq)
        if f.components:  # a zero input records no ratios
            conj_ratios[name] = wk_sq / uk_sq if uk_sq else Fraction(0)
        us.append(wk)

    # (6) ddbar u = f, with the bound ||u||^2 <= 2 ||f||^2
    u = us[0] + us[1].scale(IMAG_UNIT)
    final = _stage("final_residual", _finish, u, ddbar(u), h, h.norm_sq(), Fraction(2), tolerance,
                   sum(rep.blocks_solved for rep in reports))
    _check_stage_bound(final, "final_bound")
    report = PipelineReport(*reports, final, conj_ratios)
    return (u if h is f else u.to_he()), report


def solve_poincare_lelong(f: ComplexForm, tolerance: float = 0):
    """Solve ddbar u = f; returns (u, final SolveReport) with bound constant 2."""
    u, report = solve_poincare_lelong_full(f, tolerance)
    return u, report.final
