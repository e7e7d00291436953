"""Every first-order operator sums its (component, axis) contributions straight
into its target coefficients.  These tests rebuild each operator from the
public single-field ladders, one field per axis added with field +, and
check the accumulation helper against a naive sum of QC values.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gauss_hodge.calculus import (ComplexForm, PForm, codifferential, dbar, dbar_adjoint,
                                  delta_z, exterior_d, partial, wirtinger_dz,
                                  wirtinger_dzbar)
from gauss_hodge.errors import DegreeOverflowError
from gauss_hodge.fields import ScalarField, _accumulate, _finish, _map_terms
from gauss_hodge.randomforms import random_complex_function, random_pform
from gauss_hodge.scalars import QC

from conftest import bubble_sort_parity

CAP = 8


def wedge_by_ladders(u: PForm, offset: int, count: int, ladder) -> dict:
    """sum_j e_{offset+j} ^ ladder(u_I, j), one field per (I, j)."""
    out = {}
    for idx, field in u.components.items():
        for j in range(1, count + 1):
            axis = offset + j
            if axis in idx:
                continue
            key = tuple(sorted((axis,) + idx))
            term = ladder(field, j).scale(bubble_sort_parity((axis,) + idx))
            out[key] = out[key] + term if key in out else term
    return out


def contract_by_ladders(alpha: PForm, offset: int, count: int, ladder) -> dict:
    """Component I gets -sum_j ladder(a_{jI}, j), one field per (I, j)."""
    out = {}
    for idx, field in alpha.components.items():
        for axis in idx:
            if not 0 < axis - offset <= count:
                continue
            rest = tuple(a for a in idx if a != axis)
            term = ladder(field, axis - offset).scale(-bubble_sort_parity((axis,) + rest))
            out[rest] = out[rest] + term if rest in out else term
    return out


def assert_same(got: PForm, want: PForm, exact: bool):
    if exact:
        assert got == want
        return
    keys = set(got.components) | set(want.components)
    for key in keys:
        a, b = got.component(key).coeffs, want.component(key).coeffs
        for deg in set(a) | set(b):
            x, y = a.get(deg, 0), b.get(deg, 0)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(y))


def random_complex_form(rng, n, bidegree, exact):
    p, q = bidegree
    comps = {}
    for dz in itertools.combinations(range(1, n + 1), p):
        for dzbar in itertools.combinations(range(n + 1, 2 * n + 1), q):
            comps[dz + dzbar] = random_complex_function(rng, n, CAP, 4, exact)
    return ComplexForm(n, bidegree, CAP, exact, comps)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_operators_are_sums_of_axis_ladders(exact, n):
    rng = random.Random(100 + n)
    for kind in ("real", "complex"):
        for p in range(n + 1):
            u = random_pform(rng, n, p, CAP, 5, kind, True, terms=3)
            u = u if exact else u.to_float()
            want = PForm(n, p + 1, CAP, kind, exact,
                         wedge_by_ladders(u, 0, n, ScalarField.partial_derivative))
            assert_same(exterior_d(u), want, exact)
            if p >= 1:
                want = PForm(n, p - 1, CAP, kind, exact,
                             contract_by_ladders(u, 0, n, ScalarField.apply_delta))
                assert_same(codifferential(u), want, exact)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_complex_operators_are_sums_of_axis_ladders(exact, n):
    rng = random.Random(200 + n)
    for bidegree in itertools.product(range(min(n, 2) + 1), repeat=2):
        p, q = bidegree
        u = random_complex_form(rng, n, bidegree, exact)
        want = ComplexForm(n, (p + 1, q), CAP, exact, wedge_by_ladders(u, 0, n, wirtinger_dz))
        assert_same(partial(u), want, exact)
        want = ComplexForm(n, (p, q + 1), CAP, exact, wedge_by_ladders(u, n, n, wirtinger_dzbar))
        assert_same(dbar(u), want, exact)
    g = random_complex_form(rng, n, (0, 1), exact)
    want = ComplexForm(n, (0, 0), CAP, exact, contract_by_ladders(g, n, n, delta_z))
    assert_same(ComplexForm.function(dbar_adjoint(g)), want, exact)


# -- the accumulation helper against a naive QC sum ------------------------------


def naive_sum(runs) -> dict:
    """sum of scale * val * w over every run (terms, rule, scale), in QC."""
    out = {}
    for terms, rule, scale in runs:
        for src, val in terms:
            for tgt, w in rule(src):
                out[tgt] = out.get(tgt, QC(0)) + val * w * scale
    return {tgt: val for tgt, val in out.items() if val}


def random_qc(rng):
    den = rng.choice((1, 2, 3, 4, 6, 9, 10))
    return QC(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), den * 2))


def mixed_rule(d):
    """Collides targets and mixes int and QC weights."""
    a, b = d
    return [((a // 2, b), a + 1), ((b, a % 3), QC(Fraction(-1, 2), Fraction(1, 3))),
            ((0, 0), -1)]


def test_accumulate_matches_a_naive_qc_sum():
    rng = random.Random(5)
    for _ in range(40):
        runs = []
        for scale in (1, -1, QC(Fraction(2, 3), -1), 5):
            terms = [((rng.randint(0, 4), rng.randint(0, 4)), random_qc(rng))
                     for _ in range(rng.randint(0, 6))]
            runs.append((terms, mixed_rule, scale))
        acc = {}
        for terms, rule, scale in runs:
            _accumulate(acc, terms, rule, True, scale)
        got = _finish(acc, CAP, True)
        assert got == naive_sum(runs)
        for val in got.values():
            assert val._d > 0 and math.gcd(val._a, val._b, val._d) == 1


def test_accumulate_drops_cancelled_targets():
    half = QC(Fraction(1, 2))
    terms = [((1, 0), half), ((0, 1), QC(Fraction(1, 3), Fraction(-1, 7)))]
    swap = lambda d: (((0, 0), 1),)
    acc = {}
    _accumulate(acc, terms, swap, True)
    _accumulate(acc, terms, swap, True, -1)
    assert _finish(acc, CAP, True) == {}
    assert _map_terms([((1, 0), half), ((0, 1), -half)], swap, CAP, True) == {}


@pytest.mark.parametrize("exact", [True, False])
def test_overflow_names_the_top_target_even_if_it_cancels(exact):
    one = QC(1) if exact else 1.0
    up = lambda d: (((d[0] + 2, d[1]), 1), ((d[0], d[1] + 1), 1))
    terms = [((1, 0), one), ((1, 0), -one)]
    with pytest.raises(DegreeOverflowError) as err:
        _map_terms(terms, up, 2, exact)
    assert err.value.required_capacity == 3
    assert _map_terms(terms, up, 3, exact) == {}


def test_accumulate_float_keeps_plain_arithmetic():
    terms = [((1,), 0.25 - 1j), ((2,), 3.0 + 0.5j)]
    rule = lambda d: (((d[0] - 1,), d[0]), ((0,), 0.5j))
    acc = {}
    _accumulate(acc, terms, rule, False, -1)
    v1, v2 = -(0.25 - 1j), -(3.0 + 0.5j)
    assert _finish(acc, CAP, False) == {(0,): v1 * 1 + v1 * 0.5j + v2 * 0.5j, (1,): v2 * 2}

