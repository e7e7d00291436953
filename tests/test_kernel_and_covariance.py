"""Oracles for the solvers that do not use their spectrum.

The kernel in closed form: on functions, the kernel of ddbar is spanned by
the holomorphic monomials z^a and the antiholomorphic ones conj(z)^a, and
the kernel of dbar by the z^a.  A solution has minimum norm exactly when it
is orthogonal to that kernel.  The monomials here are built by multiplying
coordinate fields (conftest.zzbar_poly_field), with no Wirtinger code.

U(n) covariance: the weight e^{-|z|^2}, d, partial, dbar and the type
decomposition are invariant under z -> Uz for unitary U, so every stage norm,
ratio and block count of the pipeline is the same for w and for w(Uz).
"""

import itertools
import json
import random
import re

import pytest

from gauss_hodge.bridge import solve_poincare_lelong_full
from gauss_hodge.calculus import ComplexForm, ItoForm, dbar_function, ddbar
from gauss_hodge.cli import main
from gauss_hodge.fields import ItoField
from gauss_hodge.potentials import parse_potential
from gauss_hodge.randomforms import random_closed_complexform11, random_complex_function
from gauss_hodge.solver import solve_dbar_min_norm_full

from conftest import zzbar_poly_field
from test_output_digests import LELONG_DIGESTS


def _kernel(n: int, capacity: int, antiholomorphic: bool) -> list:
    """z^a, and conj(z)^a if ``antiholomorphic``, for every |a| <= capacity,
    as complex fields over He on R^{2n}."""
    zero = (0,) * n
    exponents = [a for a in itertools.product(range(capacity + 1), repeat=n)
                 if sum(a) <= capacity]
    out = [zzbar_poly_field(n, capacity, {(a, zero): 1}) for a in exponents]
    if antiholomorphic:
        out += [zzbar_poly_field(n, capacity, {(zero, a): 1}) for a in exponents if any(a)]
    return out


def _digest_potential(label: str) -> str:
    argv = LELONG_DIGESTS[label][0]
    return argv[argv.index("--from-potential") + 1]


def _orthogonal(u, kernel) -> bool:
    u = u.to_he() if isinstance(u, ItoField) else u
    return all(u.weighted_inner(k) == 0 for k in kernel)


def test_pipeline_solution_is_orthogonal_to_the_kernel_of_ddbar():
    """Catches a pipeline that returns a solution of ddbar u = f which is not
    the minimum-norm one, such as u plus a holomorphic or antiholomorphic
    polynomial: the residual and bound gates pass it, this oracle does not.
    The potential w solves the same equation and is told apart."""
    rng = random.Random(7)
    inputs = [random_closed_complexform11(rng, n, cap, cap)
              for n, cap, count in ((1, 6, 4), (2, 5, 3), (3, 4, 3)) for _ in range(count)]
    for argv, _ in LELONG_DIGESTS.values():
        opts = dict(zip(argv[0::2], argv[1::2]))
        w = parse_potential(opts["--from-potential"], int(opts["--n"]), int(opts["--degree"]))
        inputs.append((w, ddbar(w)))
    kernels: dict = {}
    potentials_minimal = []
    for w, f in inputs:
        n, cap = f.n // 2, f.max_total_degree
        kernel = kernels.setdefault((n, cap), _kernel(n, cap, True))
        u, _ = solve_poincare_lelong_full(f)
        assert not u.is_zero() and ddbar(u) == f
        assert _orthogonal(u, kernel)
        potentials_minimal.append(_orthogonal(w, kernel))
    assert not any(potentials_minimal)
    assert {type(f) for _, f in inputs} == {ComplexForm, ItoForm}


def test_dbar_solution_is_orthogonal_to_the_holomorphic_polynomials():
    """Catches a (0,1) dbar solve whose u is a solution but not the minimum-norm
    one, such as u plus a holomorphic polynomial."""
    rng = random.Random(11)
    potentials_minimal = []
    for n, cap in ((1, 6), (2, 5), (3, 4)):
        kernel = _kernel(n, cap, False)
        for _ in range(3):
            w = random_complex_function(rng, n, cap, cap)
            g = dbar_function(w)
            u, _, _ = solve_dbar_min_norm_full(g)
            assert dbar_function(u) == g
            assert _orthogonal(u, kernel)
            potentials_minimal.append(_orthogonal(w, kernel))
    assert not all(potentials_minimal)


# unitary substitutions z -> Uz, as the images of z1..zn
UNITARIES = {
    "rotation": ("(3*z1 + 4*z2)/5", "(-4*z1 + 3*z2)/5"),
    "phased permutation": ("i*z2", "(3 + 4*i)/5*z1"),
    "C3 mix": ("(3*z1 + 4*i*z3)/5", "z2", "(4*i*z1 + 3*z3)/5"),
}
CAPACITY = {2: 5, 3: 4}
POTENTIALS = {2: [_digest_potential("C2"), _digest_potential("C2-sums"),
                  "z1*conj(z1)**2*z2 - i*z2**3*conj(z1) + 2*z1*conj(z2)"],
              3: [_digest_potential("C3"), _digest_potential("C3-sums"),
                  "z1*conj(z3)*z2 + (2 - i)*z3**2*conj(z1)*conj(z2) + z2*conj(z2)"]}


def _substitute(text: str, images) -> str:
    """The potential w(Uz): each z_j replaced by its image, in one pass."""
    return re.sub(r"z(\d)", lambda m: f"({images[int(m.group(1)) - 1]})", text)


@pytest.mark.parametrize("unitary, text", [(name, text) for name, images in UNITARIES.items()
                                           for text in POTENTIALS[len(images)]])
def test_pipeline_report_is_unitarily_invariant(unitary, text):
    """Catches a norm weight, a ladder or a type split that depends on the
    coordinate axes, such as a wrong Ito norm weight: some stage norm, ratio
    or block count of w(Uz) then differs from that of w."""
    images = UNITARIES[unitary]
    n = len(images)
    f = ddbar(parse_potential(text, n, CAPACITY[n]))
    g = ddbar(parse_potential(_substitute(text, images), n, CAPACITY[n]))
    assert g != f
    assert solve_poincare_lelong_full(g)[1] == solve_poincare_lelong_full(f)[1]


def test_lelong_writes_one_report_for_a_unitary_substitution(tmp_path):
    """The same at the command line, through the parser, the exact writer and
    the report's rendering: catches a defect there that depends on the axes."""
    text = "z1**2*conj(z2)*conj(z1) + (2 - i)/3*z2*conj(z1) + z1*z2*conj(z2)**2"
    reports = []
    for k, potential in enumerate((text, _substitute(text, UNITARIES["phased permutation"]))):
        out = tmp_path / f"out{k}.json"
        assert main(["lelong", "--from-potential", potential, "--n", "2", "--degree", "5",
                     "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0] == reports[1]
    assert reports[0]["conjugation_ratios"] and reports[0]["final"]["input_norm_sq"] != "0"
