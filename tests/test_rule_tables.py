"""Every ladder is a per-degree table (fields._PerDegree): over He and over
H_{p,q}, raising and lowering, each entry equals the direct formula, and a
second lookup of a degree vector returns the object built the first time."""

import itertools
from fractions import Fraction

import pytest

from gauss_hodge.calculus import DELTA_Z, DELTA_ZBAR, DZ, DZBAR, _ladder_rules
from gauss_hodge.fields import ItoField, ScalarField, _index_rules
from gauss_hodge.scalars import HALF, QC

TOP = 6  # the largest total degree looked up


def _degrees(m: int) -> list:
    return [d for d in itertools.product(range(TOP + 1), repeat=m) if sum(d) <= TOP]


def _move(d: tuple, i: int, k: int) -> tuple:
    return tuple(v + k if a == i else v for a, v in enumerate(d))


def _check_table(rule, degrees, expected):
    """rule(d) is the dict expected(d) of target -> nonzero weight, with no
    target twice, and a second pass returns the very same tuples."""
    first = {}
    for d in degrees:
        got = first[d] = rule(d)
        assert len(got) == len(dict(got)) and dict(got) == expected(d), d
    for d in degrees:
        assert rule(d) is first[d], d


# (raising, weight) of every real-axis ladder: d/dx_i, delta_i and both
# halves of x_i (ScalarField ladders, and d and T* of a PForm)
REAL_LADDERS = ((False, 2), (True, -1), (True, HALF), (False, 1))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("raising, weight", REAL_LADDERS)
def test_index_rules_move_one_index(m, raising, weight):
    degrees = _degrees(m)
    for i, rule in enumerate(_index_rules(range(m), raising, weight)):
        if raising:
            _check_table(rule, degrees, lambda d, i=i: {_move(d, i, 1): weight})
        else:
            _check_table(rule, degrees,
                         lambda d, i=i: {_move(d, i, -1): weight * d[i]} if d[i] else {})


LADDERS = {"DZ": DZ, "DZBAR": DZBAR, "DELTA_Z": DELTA_Z, "DELTA_ZBAR": DELTA_ZBAR}


def _ito_entry(ladder: tuple, scale: int, j: int):
    """One index move over H_{p,q}: d/dz_j and d/dzbar_j lower p_j and q_j
    with weights p_j and q_j, delta^zbar_j and delta^z_j raise them with
    weight -1; all times ``scale``."""
    i = 2 * j + (1 if ladder in (DZBAR, DELTA_Z) else 0)
    if ladder[0]:
        return lambda d: {_move(d, i, 1): -scale}
    return lambda d: {_move(d, i, -1): scale * d[i]} if d[i] else {}


def _he_entry(ladder: tuple, scale: int, j: int):
    """The pair sum of the calculus module docstring, times ``scale``:

    lowering  He_a He_b -> a He_{a-1} He_b + sign i b He_a He_{b-1}
    raising   He_a He_b -> -1/2 He_{a+1} He_b - sign (i/2) He_a He_{b+1}
    """
    raising, sign = ladder
    x, y = 2 * j, 2 * j + 1

    def entry(d):
        if raising:
            return {_move(d, x, 1): QC(Fraction(-scale, 2)),
                    _move(d, y, 1): QC(0, Fraction(-sign * scale, 2))}
        out = {}
        if d[x]:
            out[_move(d, x, -1)] = scale * d[x]
        if d[y]:
            out[_move(d, y, -1)] = QC(0, sign * scale * d[y])
        return out
    return entry


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("name", sorted(LADDERS))
@pytest.mark.parametrize("basis, entry", [(ScalarField, _he_entry), (ItoField, _ito_entry)],
                         ids=["He", "Ito"])
def test_ladder_rules_match_the_direct_formula(n, scale, name, basis, entry):
    ladder = LADDERS[name]
    rules = _ladder_rules(basis, n, ladder, scale)
    assert len(rules) == n
    degrees = _degrees(2 * n)
    for j, rule in enumerate(rules):
        _check_table(rule, degrees, entry(ladder, scale, j))
