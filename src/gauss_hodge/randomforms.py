"""Seeded random test-case synthesis.

Coefficients are random integers in [-9, 9] placed on random monomials up to
a requested degree.  Closed inputs are synthesized by construction
(d of a potential form, dbar of a potential function, ddbar of a potential),
which both guarantees the precondition and supplies a residual oracle.
"""

from __future__ import annotations

import random

from .calculus import ComplexForm, PForm, _layout, dbar_function, ddbar, exterior_d
from .errors import DegreeOverflowError
from .fields import COMPLEX, REAL, ScalarField
from .multiindex import enumerate_indices
from .scalars import QC, _raw


def random_degree_vector(rng: random.Random, m: int, max_degree: int) -> tuple[int, ...]:
    total = rng.randint(0, max_degree)
    d = [0] * m
    for _ in range(total):
        d[rng.randrange(m)] += 1
    return tuple(d)


def _random_coefficient(rng: random.Random, kind: str):
    re = rng.randint(-9, 9)
    if kind == COMPLEX:
        im = rng.randint(-9, 9)
        if re == 0 and im == 0:
            re = 1
        # the constructor, not _raw: bench/test_bench.py counts QC constructions
        return QC(re, im)
    if re == 0:
        re = 1
    return _raw(re, 0, 1)


def random_scalar_field(rng: random.Random, m: int, capacity: int, max_degree: int,
                        kind: str = REAL, terms: int = 3) -> ScalarField:
    """A field of ``terms`` draws, each a degree vector of total degree at
    most ``max_degree`` and a nonzero coefficient.  The shape is checked once,
    before any draw: every draw then fits it, so the field is built trusted."""
    zero = ScalarField.zero(m, capacity, kind)  # refuses a bad m, capacity or kind
    if max_degree > capacity:
        raise DegreeOverflowError(f"degree {max_degree} exceeds capacity {capacity}",
                                  required_capacity=max_degree)
    coeffs: dict = {}
    for _ in range(terms):
        deg = random_degree_vector(rng, m, max_degree)
        coeffs[deg] = _random_coefficient(rng, kind)
    return zero.replace(coeffs)


def random_pform(rng: random.Random, n: int, p: int, capacity: int, max_degree: int,
                 kind: str = REAL, terms: int = 2) -> PForm:
    """Built trusted, as are the forms of random_form01 and random_complexform11:
    enumerate_indices checks (n, p), and random_scalar_field each field's shape."""
    return PForm._trusted(n, p, capacity, kind, {
        idx: random_scalar_field(rng, n, capacity, max_degree, kind, terms)
        for idx in enumerate_indices(n, p)})


def _nonzero_image(op, draw, *args) -> tuple:
    """(w, op(w)) for the first of 65 draws w = draw(*args) whose image is not
    zero, or for the 65th draw whatever its image."""
    for attempt in range(65):
        w = draw(*args)
        f = op(w)
        if attempt == 64 or not f.is_zero():
            return w, f


def random_closed_pform(rng: random.Random, n: int, p_plus_1: int, capacity: int,
                        max_degree: int, kind: str = REAL, terms: int = 2) -> PForm:
    """A d-closed (p+1)-form of coefficient degree <= max_degree, built as
    d of a random p-form of degree <= max_degree + 1."""
    return _nonzero_image(exterior_d, random_pform, rng, n, p_plus_1 - 1, capacity,
                          max_degree + 1, kind, terms)[1]


def random_complex_function(rng: random.Random, n: int, capacity: int, max_degree: int,
                            terms: int = 3) -> ScalarField:
    return random_scalar_field(rng, 2 * n, capacity, max_degree, COMPLEX, terms)


def random_form01(rng: random.Random, n: int, capacity: int, max_degree: int,
                  terms: int = 2) -> ComplexForm:
    return ComplexForm._typed(n, (0, 1), capacity, {
        key: random_scalar_field(rng, 2 * n, capacity, max_degree, COMPLEX, terms)
        for key in _layout(n, (0, 1))})


def random_dbar_closed_form01(rng: random.Random, n: int, capacity: int,
                              max_degree: int, terms: int = 3) -> ComplexForm:
    """A dbar-closed (0,1)-form, built as dbar of a random function."""
    return _nonzero_image(dbar_function, random_complex_function, rng, n, capacity,
                          max_degree + 1, terms)[1]


def random_complexform11(rng: random.Random, n: int, capacity: int, max_degree: int,
                         terms: int = 2) -> ComplexForm:
    return ComplexForm._typed(n, (1, 1), capacity, {
        key: random_scalar_field(rng, 2 * n, capacity, max_degree, COMPLEX, terms)
        for row in _layout(n, (1, 1)) for key in row})


def random_closed_complexform11(rng: random.Random, n: int, capacity: int,
                                potential_degree: int,
                                terms: int = 3) -> tuple[ScalarField, ComplexForm]:
    """A d-closed (1,1)-form as ddbar of a random potential (returned with it)."""
    return _nonzero_image(ddbar, random_complex_function, rng, n, capacity, potential_degree,
                          terms)
