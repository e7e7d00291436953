"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
monomial conversion goes through the raw three-term recurrence, moments come
from the double-factorial formula, and permutation parities come from a
bubble sort.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gauss_hodge.fields import ScalarField
from gauss_hodge.scalars import QC


def bubble_sort_parity(seq) -> int:
    """Sign of the permutation sorting seq, by counting adjacent swaps."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign


def hermite_monomial_coeffs(k: int) -> list[Fraction]:
    """Coefficients of H_k in the monomial basis, via the raw recurrence."""
    if k == 0:
        return [Fraction(1)]
    prev = [Fraction(1)]
    cur = [Fraction(0), Fraction(2)]
    for deg in range(1, k):
        nxt = [Fraction(0)] * (deg + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * deg * c
        prev, cur = cur, nxt
    return cur


def gaussian_moment(k: int) -> Fraction:
    """int x^k pi^{-1/2} e^{-x^2} dx = (k-1)!! / 2^{k/2} for even k, else 0."""
    if k % 2 == 1:
        return Fraction(0)
    out = Fraction(1)
    for i in range(1, k, 2):
        out *= i
    return out / 2 ** (k // 2)


def _to_monomials(coeffs) -> list[Fraction]:
    mono = [Fraction(0)] * (len(coeffs) or 1)
    for k, c in enumerate(coeffs):
        hk = hermite_monomial_coeffs(k)
        if len(hk) > len(mono):
            mono.extend([Fraction(0)] * (len(hk) - len(mono)))
        for i, h in enumerate(hk):
            mono[i] += Fraction(c) * h
    return mono


def inner_product_by_moments(coeffs_a, coeffs_b) -> Fraction:
    """1-D weighted inner product computed monomial-by-monomial."""
    mono_a = _to_monomials(coeffs_a)
    mono_b = _to_monomials(coeffs_b)
    total = Fraction(0)
    for i, a in enumerate(mono_a):
        for j, b in enumerate(mono_b):
            if a and b:
                total += a * b * gaussian_moment(i + j)
    return total


# -- float mode ------------------------------------------------------------------


def doubles(x, scale=Fraction(1, 3)):
    """x times a non-dyadic scale, with every coefficient part then rounded to
    the nearest double: what float mode writes of it and reads back.  The
    result is a field or form of exact dyadic rationals."""
    if isinstance(x, ScalarField):
        out = {}
        for deg, v in x.coeffs.items():
            v = v * scale
            r = QC(Fraction(float(v.re)), Fraction(float(v.im)))
            if r:
                out[deg] = r
        return x.replace(out)
    return x.replace({idx: doubles(f, scale) for idx, f in x.components.items()})


# -- complex polynomial oracle ------------------------------------------------


def zzbar_poly_field(n: int, capacity: int, terms: dict) -> ScalarField:
    """Build sum c * z^a zbar^b as an exact complex field on R^{2n}.

    ``terms`` maps ((a_1..a_n), (b_1..b_n)) to integer/QC coefficients; the
    construction multiplies coordinate fields, independent of the Wirtinger
    operators under test.
    """
    total = ScalarField.zero(2 * n, capacity, "complex")
    for (a_vec, b_vec), coeff in terms.items():
        need = sum(a_vec) + sum(b_vec)
        part = ScalarField.constant(1, 2 * n, max(capacity, need), "complex")
        for j in range(1, n + 1):
            x = ScalarField.coordinate(2 * j - 1, 2 * n, max(capacity, need), "complex")
            y = ScalarField.coordinate(2 * j, 2 * n, max(capacity, need), "complex")
            zj = x + y.scale(QC(0, 1))
            zbj = x - y.scale(QC(0, 1))
            for _ in range(a_vec[j - 1]):
                part = part.multiply(zj)
            for _ in range(b_vec[j - 1]):
                part = part.multiply(zbj)
        total = total + part.scale(coeff)
    return total.with_capacity(max(capacity, total.degree or 0))


def zzbar_wirtinger_dz(terms: dict, j: int) -> dict:
    """Symbolic d/dz_j on a {(a,b): c} polynomial in z and zbar."""
    out: dict = {}
    for (a_vec, b_vec), coeff in terms.items():
        a = a_vec[j - 1]
        if a == 0:
            continue
        new_a = tuple(v - 1 if i == j - 1 else v for i, v in enumerate(a_vec))
        key = (new_a, b_vec)
        out[key] = out.get(key, 0) + a * coeff
    return {k: v for k, v in out.items() if v != 0}


def zzbar_wirtinger_dzbar(terms: dict, j: int) -> dict:
    out: dict = {}
    for (a_vec, b_vec), coeff in terms.items():
        b = b_vec[j - 1]
        if b == 0:
            continue
        new_b = tuple(v - 1 if i == j - 1 else v for i, v in enumerate(b_vec))
        key = (a_vec, new_b)
        out[key] = out.get(key, 0) + b * coeff
    return {k: v for k, v in out.items() if v != 0}


# -- exact dense linear algebra ------------------------------------------------


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over exact scalars; returns (rows, pivot cols)."""
    rows = [list(r) for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, piv_cols


def nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the kernel of an exact matrix (columns = unknowns)."""
    if not matrix:
        return []
    rows, piv_cols = rref(matrix)
    n_cols = len(matrix[0])
    free = [c for c in range(n_cols) if c not in piv_cols]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


@pytest.fixture
def rng():
    return random.Random(20240817)
