"""The closed-form generators make the same draws as the loop they replaced:
up to 64 draws until the image is not zero, then one more whatever it is.
The tool's input files and every seeded test depend on those draws.  The
fields they draw are built trusted, and equal the checked construction."""

import random

import pytest

from gauss_hodge.calculus import ComplexForm, PForm, dbar_function, ddbar, exterior_d
from gauss_hodge.errors import DegreeOverflowError, DomainError
from gauss_hodge.fields import ScalarField
from gauss_hodge.randomforms import (random_closed_complexform11, random_closed_pform,
                                     random_complex_function, random_complexform11,
                                     random_dbar_closed_form01, random_form01, random_pform,
                                     random_scalar_field)
from gauss_hodge.scalars import QC


def _loop_closed_pform(rng, n, p_plus_1, capacity, max_degree):
    for _ in range(64):
        g = random_pform(rng, n, p_plus_1 - 1, capacity, max_degree + 1)
        f = exterior_d(g)
        if not f.is_zero():
            return f
    return exterior_d(random_pform(rng, n, p_plus_1 - 1, capacity, max_degree + 1))


def _loop_dbar_closed_form01(rng, n, capacity, max_degree):
    for _ in range(64):
        u = random_complex_function(rng, n, capacity, max_degree + 1)
        g = dbar_function(u)
        if not g.is_zero():
            return g
    return dbar_function(random_complex_function(rng, n, capacity, max_degree + 1))


def _loop_closed_complexform11(rng, n, capacity, potential_degree):
    for _ in range(64):
        w = random_complex_function(rng, n, capacity, potential_degree)
        f = ddbar(w)
        if not f.is_zero():
            return w, f
    w = random_complex_function(rng, n, capacity, potential_degree)
    return w, ddbar(w)


# (generator, reference loop, arguments after rng); the second of each pair
# has only zero images (d of constants, dbar of constants, ddbar of a
# potential of degree 1), so the loop makes all 65 draws
CASES = [(random_closed_pform, _loop_closed_pform, (3, 2, 8, 3)),
         (random_closed_pform, _loop_closed_pform, (2, 1, 4, -1)),
         (random_dbar_closed_form01, _loop_dbar_closed_form01, (2, 8, 3)),
         (random_dbar_closed_form01, _loop_dbar_closed_form01, (1, 4, -1)),
         (random_closed_complexform11, _loop_closed_complexform11, (2, 8, 4)),
         (random_closed_complexform11, _loop_closed_complexform11, (1, 4, 1))]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_generators_make_the_draws_of_the_loop(case):
    """A retry that drew once too often or too rarely, or returned another
    draw than the first nonzero one, changes the form or the state left in
    the generator."""
    generator, loop, args = CASES[case]
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        out = generator(ours, *args)
        assert out == loop(theirs, *args)
        assert ours.getstate() == theirs.getstate()
        # a zero result is the 65th draw: each of the 64 before it was zero too
        form = out[1] if isinstance(out, tuple) else out
        assert form.is_zero() == (case % 2 == 1)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_generated_fields_are_the_checked_construction(kind):
    """The drawn fields, and the forms built trusted over them, equal with
    their capacity what the checked constructors build from the same data."""
    for seed in range(8):
        rng = random.Random(seed)
        fields = [random_scalar_field(rng, 4, 8, 5, kind, terms=6)]
        forms = [random_pform(rng, 3, 2, 8, 4, kind), random_complexform11(rng, 2, 8, 3),
                 random_form01(rng, 2, 8, 3)]
        for form in forms:
            fields += form.components.values()
        for field in fields:
            assert field.max_total_degree == 8
            assert all(type(v) is QC for v in field.coeffs.values())
            assert field == ScalarField(field.m, 8, field.kind, field.coeffs)
        assert fields[0].kind == kind
        pform, form11, form01 = forms
        checked = [PForm(3, 2, 8, kind, pform.components),
                   ComplexForm.from_layout((1, 1), [[form11.coefficient((i,), (j,))
                                                     for j in (1, 2)] for i in (1, 2)]),
                   ComplexForm.from_layout((0, 1), [form01.coefficient(dzbar=(j,))
                                                    for j in (1, 2)])]
        for form, check in zip(forms, checked):
            assert type(form) is type(check) and form == check
            assert form.max_total_degree == check.max_total_degree == 8
            assert len(form.components) == len(check.components) > 0


@pytest.mark.parametrize("args, error", [((0, 8, 3, "real"), DomainError),
                                         ((4, -1, 0, "real"), DomainError),
                                         ((4, 8, 3, "bogus"), DomainError),
                                         ((4, 3, 4, "real"), DegreeOverflowError),
                                         ((4, 3, 4, "complex"), DegreeOverflowError)])
def test_generated_fields_refuse_a_bad_shape(args, error):
    """A bad dimension, capacity or kind, and a degree above the capacity,
    are refused for every seed, whatever the draws would have been."""
    for seed in range(8):
        with pytest.raises(error):
            random_scalar_field(random.Random(seed), *args)
