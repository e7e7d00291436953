"""The complex forms on C^n: PForms over the frame dz_1..dz_n, dzbar_1..dzbar_n
with one wedge rule for partial and dbar."""

import inspect
import itertools
import json

import pytest

import gauss_hodge
from gauss_hodge.bridge import solve_poincare_lelong
from gauss_hodge.calculus import ComplexForm, dbar, dbar_adjoint, partial, wirtinger_dz, \
    wirtinger_dzbar
from gauss_hodge.errors import DomainError
from gauss_hodge.fields import ScalarField
from gauss_hodge.randomforms import random_complex_function, random_complexform11
from gauss_hodge.solver import solve_dbar_min_norm

from conftest import bubble_sort_parity

CAP = 8
BIDEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]


def random_form(rng, n, bidegree):
    """A random (p,q)-form with a random field on every frame index."""
    p, q = bidegree
    comps = {}
    for dz in itertools.combinations(range(1, n + 1), p):
        for dzbar in itertools.combinations(range(n + 1, 2 * n + 1), q):
            comps[dz + dzbar] = random_complex_function(rng, n, CAP, 4)
    return ComplexForm(n, bidegree, CAP, comps)


@pytest.mark.parametrize("bidegree", BIDEGREES)
def test_partial_and_dbar_square_to_zero_and_anticommute(rng, bidegree):
    p, q = bidegree
    for n in (1, 2, 3):
        for _ in range(2):
            x = random_form(rng, n, bidegree)
            assert dbar(dbar(x)) == ComplexForm(n, (p, q + 2), CAP)
            assert partial(partial(x)) == ComplexForm(n, (p + 2, q), CAP)
            assert partial(dbar(x)) == -dbar(partial(x))


@pytest.mark.parametrize("bidegree", BIDEGREES)
def test_conjugate_swaps_bidegree_and_is_an_involution(rng, bidegree):
    p, q = bidegree
    for n in (1, 2, 3):
        x = random_form(rng, n, bidegree)
        assert x.conjugate().bidegree == (q, p)
        assert x.conjugate().conjugate() == x
        # conj(partial x) = dbar(conj x)
        assert partial(x).conjugate() == dbar(x.conjugate())


def _frame_form(n, bidegree, terms):
    """The form sum_key s(key) c_key e_key over written frame tuples, each
    sorted into increasing order with the sign s of that permutation."""
    comps = {}
    for key, c in terms.items():
        if not c.is_zero():
            comps[tuple(sorted(key))] = c.scale(bubble_sort_parity(key))
    return ComplexForm(n, bidegree, CAP, comps)


def test_operators_on_11_forms_match_the_frame_formulas(rng):
    # the coefficient formulas of partial a, dbar a and partial dbar a in the
    # frames dz_k ^ dz_i ^ dzbar_j (k < i), dz_i ^ dzbar_j ^ dzbar_l (j < l) and
    # dz_k ^ dz_i ^ dzbar_j ^ dzbar_l, each frame already increasing
    wz, wzb = wirtinger_dz, wirtinger_dzbar
    for n in (1, 2, 3):
        for _ in range(3):
            a = random_complexform11(rng, n, CAP, 4)

            def e(i, j):
                return a.coefficient((i,), (j,))

            pairs = list(itertools.combinations(range(1, n + 1), 2))
            rng_n = range(1, n + 1)
            expected = _frame_form(n, (2, 1), {
                (k, i, n + j): wz(e(i, j), k) - wz(e(k, j), i)
                for k, i in pairs for j in rng_n})
            assert partial(a) == expected
            expected = _frame_form(n, (1, 2), {
                (i, n + j, n + l): wzb(e(i, j), l) - wzb(e(i, l), j)
                for i in rng_n for j, l in pairs})
            assert dbar(a) == expected
            expected = _frame_form(n, (2, 2), {
                (k, i, n + j, n + l): wz(wzb(e(i, j), l), k) - wz(wzb(e(i, l), j), k)
                - wz(wzb(e(k, j), l), i) + wz(wzb(e(k, l), j), i)
                for k, i in pairs for j, l in pairs})
            assert partial(dbar(a)) == expected


def test_dbar_solve_rejects_other_bidegrees():
    one = ScalarField.constant(1, 2, CAP, "complex")
    h = ComplexForm.from_layout((1, 0), [one])
    with pytest.raises(DomainError):
        solve_dbar_min_norm(h)
    with pytest.raises(DomainError):
        dbar_adjoint(h)


def test_pipeline_rejects_other_bidegrees():
    one = ScalarField.constant(1, 2, CAP, "complex")
    with pytest.raises(DomainError):
        solve_poincare_lelong(ComplexForm.from_layout((0, 1), [one]))


def test_form10_json_roundtrip(rng):
    h = ComplexForm.from_layout((1, 0), [random_complex_function(rng, 2, 6, 3)
                                         for _ in range(2)])
    data = json.loads(json.dumps(h.to_json()))
    assert data["frame"] == "dz" and data["n"] == 2
    back = ComplexForm.from_json(data, (1, 0))
    assert back == h and back.bidegree == (1, 0)
    with pytest.raises(DomainError):
        ComplexForm.from_json(data, (0, 1))


def test_public_names_resolve():
    # the weight is fixed to |x|^2 and the duality check always runs: no
    # public name may take either back as a parameter
    assert "Weight" not in gauss_hodge.__all__ and not hasattr(gauss_hodge, "Weight")
    for name in gauss_hodge.__all__:
        obj = getattr(gauss_hodge, name)
        assert obj is not None, name
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:
                continue
            assert not {"weight", "check_duality"} & set(params), name
