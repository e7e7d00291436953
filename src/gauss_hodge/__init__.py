"""Exact weighted exterior calculus under the Gaussian weight e^{-|x|^2}.

Hermite-ladder realizations of d, its weighted adjoint, the Wirtinger
operators on C^n, minimum-norm solvers for du = f and dbar u = g with their
norm bounds, and the constructive pipeline for ddbar u = f.
"""

from .bridge import (PipelineReport, decompose_11, recompose_11, split_bidegree,
                     solve_poincare_lelong, solve_poincare_lelong_full,
                     two_form_complex_parts)
from .calculus import (ComplexForm, ItoForm, PForm, codifferential, dbar, dbar_adjoint,
                       dbar_function, dbar_of_01, ddbar, exterior_d, partial,
                       partial_of_10, wirtinger_dz, wirtinger_dzbar)
from .errors import (DegreeOverflowError, DimensionMismatchError, DomainError,
                     GaussHodgeError, InvariantViolationError, NotClosedError,
                     SolveNumericalError)
from .fields import ItoField, ScalarField
from .hermite import (HermiteSeries, apply_delta, differentiate, evaluate,
                      inner_product_1d, multiply_by_coordinate)
from .identities import (BochnerReport, DdbarAdjointReport, DNormExpansionReport,
                         bochner_identity_report, conjugation_identities_check,
                         d_norm_expansion_report, ddbar_adjoint_identity_report,
                         ddbar_formal_adjoint)
from .multiindex import enumerate_indices, insert_axis, remove_axis
from .potentials import parse_potential
from .scalars import QC
from .solver import (SolveReport, solve_d_min_norm, solve_d_min_norm_full,
                     solve_dbar_min_norm, solve_dbar_min_norm_full)

__version__ = "0.1.0"

__all__ = [
    "QC", "enumerate_indices", "insert_axis", "remove_axis",
    "HermiteSeries", "differentiate", "apply_delta", "multiply_by_coordinate",
    "inner_product_1d", "evaluate",
    "ScalarField", "ItoField",
    "PForm", "ComplexForm", "ItoForm",
    "exterior_d", "codifferential", "partial", "dbar",
    "dbar_function", "ddbar", "dbar_adjoint", "dbar_of_01", "partial_of_10",
    "wirtinger_dz", "wirtinger_dzbar",
    "SolveReport", "solve_d_min_norm", "solve_d_min_norm_full",
    "solve_dbar_min_norm", "solve_dbar_min_norm_full",
    "decompose_11", "recompose_11", "split_bidegree", "two_form_complex_parts",
    "solve_poincare_lelong", "solve_poincare_lelong_full", "PipelineReport",
    "d_norm_expansion_report", "bochner_identity_report",
    "ddbar_adjoint_identity_report", "ddbar_formal_adjoint",
    "conjugation_identities_check",
    "DNormExpansionReport", "BochnerReport", "DdbarAdjointReport",
    "parse_potential",
    "GaussHodgeError", "DomainError", "DimensionMismatchError",
    "DegreeOverflowError", "NotClosedError", "SolveNumericalError",
    "InvariantViolationError",
]
