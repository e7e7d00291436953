"""Ito's basis H_{p,q} against the He basis, which stays the oracle.

Each one-index rule over H_{p,q} must equal the He ladder it replaces once
conjugated by the exact per-pair conversions, and the complex-frame forms of
the Poincare-Lelong pipeline must carry the real frame's d, T* and metric.
"""

import math

import pytest

from gauss_hodge.bridge import _frame_change
from gauss_hodge.calculus import (ComplexForm, ComplexFrameForm, ItoForm, PForm, _real_parts,
                                  codifferential, delta_z, delta_zbar, exterior_d,
                                  wirtinger_dz, wirtinger_dzbar)
from gauss_hodge.errors import DimensionMismatchError, DomainError
from gauss_hodge.fields import ItoField, ScalarField
from gauss_hodge.randomforms import random_pform
from gauss_hodge.scalars import HALF, IMAG_UNIT, QC

from conftest import bubble_sort_parity

LADDERS = (wirtinger_dz, wirtinger_dzbar, delta_z, delta_zbar)


def keys(m, top):
    """Every key of length m with total degree at most top."""
    if m == 0:
        return [()]
    return [(k,) + rest for k in range(top + 1) for rest in keys(m - 1, top - k)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ito_rules_are_the_he_ladders(n):
    """On every H_key of total degree <= 6: the four Wirtinger ladders over
    H_{p,q} (one index moved, weight p_j or q_j lowering, -1 raising) and
    conjugation (p and q swapped) equal the He ladders under the exact
    conversions, and ||H_key||^2 = prod_j p_j! q_j! is the He norm of the
    conversion."""
    for key in keys(2 * n, 6):
        ito = ItoField(2 * n, 7, "complex", {key: QC(2, 3)})
        he = ito.to_he()
        assert ItoField.from_he(he) == ito
        for ladder in LADDERS:
            for j in range(1, n + 1):
                assert ladder(ito, j).to_he() == ladder(he, j), (ladder.__name__, key, j)
        assert ito.conjugate().to_he() == he.conjugate()
        assert ito.norm_sq() == he.norm_sq() == 13 * math.prod(map(math.factorial, key))


def test_he_ito_round_trip_at_total_degree_200():
    """On C^1 at total degree 200 a few-term ItoField survives from_he(to_he)
    and a few-term He field survives to_he(from_he) exactly.  Each term
    converts to a dense row of about 200 terms, which the way back converts
    term by term through a full table row, so the cost grows as the degree
    squared: 200 takes a fraction of a second, while a dense field at degree
    1000 takes about 8 s (10^6 bignum accumulations), too slow for this
    suite."""
    top = 200
    ito = ItoField(2, top, "complex", {(100, 100): QC(2, -3), (37, 163): QC(-5, 7),
                                       (0, 199): QC(1, 1)})
    assert ItoField.from_he(ito.to_he()) == ito
    he = ScalarField(2, top, "complex", {(0, 200): QC(3), (163, 37): QC(4, 9),
                                         (150, 49): QC(0, 1)})
    assert ItoField.from_he(he).to_he() == he


def _complex_frame(form):
    """A real-frame form over He in the complex frame over H_{p,q}."""
    comps = _frame_change(form.promote_complex(), to_complex=True)
    return ComplexFrameForm(form.n, form.p, form.max_total_degree, "complex",
                            {idx: ItoField.from_he(f) for idx, f in comps.items()})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complex_frame_carries_the_real_metric_d_and_codifferential(rng, n):
    """Random real p-forms on R^{2n}: 2^p times the Ito norm of the
    complex-frame image is the real He norm, inner products agree, and the
    complex frame's d and T* are exterior_d and codifferential after the frame
    and basis change."""
    for p in range(1, min(3, 2 * n) + 1):
        for _ in range(2):
            form = random_pform(rng, 2 * n, p, 7, 4)
            other = random_pform(rng, 2 * n, p, 7, 4)
            frame = _complex_frame(form)
            ito_sq = sum(f.norm_sq() for f in frame.components.values())
            assert 2 ** p * ito_sq == frame.norm_sq() == form.norm_sq()
            assert frame.weighted_inner(_complex_frame(other)) == form.weighted_inner(other)
            assert exterior_d(frame) == _complex_frame(exterior_d(form))
            assert codifferential(frame) == _complex_frame(codifferential(form))


def _frame_conjugate(x):
    """c x: conj(F dz^I ^ dzbar^J) = conj(F) dzbar^I ^ dz^J, re-sorted with the
    parity of a bubble sort, with conj(H_{p,q}) = H_{q,p}."""
    n = x.n // 2
    comps = {}
    for idx, field in x.components.items():
        swapped = [a + n if a <= n else a - n for a in idx]
        conj = field.conjugate()
        comps[tuple(sorted(swapped))] = conj if bubble_sort_parity(swapped) == 1 else -conj
    return x.replace(comps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_parts_split_the_frame_conjugation(rng, n):
    """Random complex forms of degree 0..4 on C^n in the complex frame, with
    every component and with half of them: c is an involution that commutes
    with d and T*, ||x||^2 = ||Re_1 x||^2 + ||Re_2 x||^2, and the one-pass
    split is (x + cx)/2 and (x - cx)/(2i), each part fixed by c."""
    for p in range(min(4, 2 * n) + 1):
        for sparse in (False, True):
            x = _complex_frame(random_pform(rng, 2 * n, p, 7, 4, "complex"))
            if sparse:
                x = x.replace({idx: f for k, (idx, f) in enumerate(x.components.items())
                               if k % 2})
            cx = _frame_conjugate(x)
            assert _frame_conjugate(cx) == x
            assert exterior_d(cx) == _frame_conjugate(exterior_d(x))
            if p:
                assert codifferential(cx) == _frame_conjugate(codifferential(x))
            re, im = _real_parts(x)
            assert re == (x + cx).scale(HALF)
            assert im == (x - cx).scale(-IMAG_UNIT * HALF)
            assert _frame_conjugate(re) == re and _frame_conjugate(im) == im
            assert x.norm_sq() == re.norm_sq() + im.norm_sq()
            assert re + im.scale(IMAG_UNIT) == x


def test_the_basis_is_part_of_the_type():
    """A field over H_{p,q} never meets a He field or a He form, and refuses
    the operations that read He coefficients."""
    ito = ItoField(2, 4, "complex", {(1, 2): QC(1, 1)})
    he = ito.to_he()
    assert ito != he and ItoField.from_he(he) == ito
    with pytest.raises(DimensionMismatchError):
        ito + he
    with pytest.raises(DimensionMismatchError):
        ComplexForm.from_layout((0, 1), [ito])
    with pytest.raises(DomainError):
        ItoForm.from_he(ItoForm.from_layout((0, 1), [ito]))
    # from_he reads He coefficients of complex pairs: an ItoField or an odd m is refused
    for not_he in (ito, ScalarField(3, 4, "complex", {(1, 0, 1): QC(1, 1)})):
        with pytest.raises(DomainError, match="from_he needs a He field of even m"):
            ItoField.from_he(not_he)
    for refused in (lambda: ito.partial_derivative(1), lambda: ito.multiply(ito),
                    ito.real_part, lambda: ItoField.from_json(he.to_json())):
        with pytest.raises(DomainError, match="He coefficients"):
            refused()
    assert ito.to_json() == he.to_json() and ito.evaluate((1, 2)) == he.evaluate((1, 2))


def test_constructors_default_to_the_class_kind():
    """zero and constant build an ItoField of kind 'complex' without naming
    it, as ScalarField's build kind 'real', and repr names the type; a form
    takes the kind of its field type, so a ComplexFrameForm is complex, and
    refuses at construction a kind that its field type cannot hold."""
    assert ItoField.zero(2, 4) == ItoField(2, 4)
    assert ItoField.constant(QC(1, 2), 2, 4).coeffs == {(0, 0): QC(1, 2)}
    assert ItoField.constant(1, 2, 4).kind == "complex"
    assert ScalarField.zero(2, 4).kind == ScalarField.constant(1, 2, 4).kind == "real"
    assert repr(ItoField(2, 4)) == "ItoField(m=2, cap=4, kind=complex, terms=0)"
    assert repr(ScalarField(2, 4)).startswith("ScalarField(m=2")
    frame = ComplexFrameForm(2, 1, 4)
    assert frame.kind == "complex" and frame.component((1,)) == ItoField(2, 4)
    assert PForm(2, 1, 4).kind == "real"
    with pytest.raises(DomainError, match="kind 'complex'"):
        ComplexFrameForm(2, 1, 4, "real")


def test_coordinate_is_refused():
    """ScalarField.coordinate keys x_axis = He_1/2; over H_{p,q} that key
    would be z_1/2, so an ItoField refuses it as a He-only method."""
    with pytest.raises(DomainError, match="He coefficients"):
        ItoField.coordinate(1, 2, 4, "complex")
