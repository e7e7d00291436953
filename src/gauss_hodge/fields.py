"""Scalar fields on R^m as sparse tensor-product Hermite expansions.

A field is a map from degree vectors (k_1..k_m, sum <= capacity) to scalars;
the basis element for a degree vector d is He_d(x) = prod_i H_{d_i}(x_i).
Axiswise ladder actions mirror the one-dimensional module exactly, and the
weighted inner product is the tensor product of the 1-D inner products under
the normalized Gaussian measure pi^{-m/2} e^{-|x|^2} dx.

Total-degree truncation is used rather than per-axis truncation: the normal
operators in the solver preserve total Hermite degree, which makes truncated
solves exact instead of approximate.  Degree-raising operations fail loudly
on overflow; silent projection would break the exactness guarantees.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

from .errors import DegreeOverflowError, DimensionMismatchError, DomainError
from .scalars import (QC, coerce_scalar, conj, scalar_from_json, scalar_is_zero,
                      scalar_to_json, zero_scalar)

REAL = "real"
COMPLEX = "complex"


@lru_cache(maxsize=None)
def hermite_sq_norm_vector(deg: tuple[int, ...]) -> int:
    """<He_d, He_d> = prod_i 2^{d_i} d_i! under the normalized measure."""
    out = 1
    for k in deg:
        for i in range(1, k + 1):
            out *= 2 * i
    return out


@lru_cache(maxsize=None)
def hermite_product_1d(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """Linearization H_a H_b = sum_k C(a,k) C(b,k) k! 2^k H_{a+b-2k}."""
    out = []
    for k in range(min(a, b) + 1):
        coeff = math.comb(a, k) * math.comb(b, k) * math.factorial(k) * (2 ** k)
        out.append((a + b - 2 * k, coeff))
    return tuple(out)


def _shift(deg: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """The degree vector deg with entry i moved by k."""
    return deg[:i] + (deg[i] + k,) + deg[i + 1:]


def _map_terms(terms, rule, capacity: int) -> dict:
    """Apply the linear map He_d -> sum_{(t, w) in rule(d)} w He_t.

    ``terms`` yields (source, coefficient) pairs; colliding targets are summed
    and zero sums dropped.  Every operator that moves Hermite degrees runs
    through here, so a target above ``capacity`` raises DegreeOverflowError.
    """
    out: dict = {}
    for src, val in terms:
        for tgt, w in rule(src):
            term = val * w
            out[tgt] = out[tgt] + term if tgt in out else term
    top = max(map(sum, out), default=0)
    if top > capacity:
        raise DegreeOverflowError(f"result needs capacity {top}, have {capacity}",
                                  required_capacity=top)
    return {tgt: val for tgt, val in out.items() if val}


def _product_terms(pair) -> list:
    """He_da He_db as (degree, integer weight) pairs, one 1-D linearization per axis."""
    terms = [((), 1)]
    for a, b in zip(*pair):
        terms = [(prefix + (k,), w * c) for prefix, w in terms
                 for k, c in hermite_product_1d(a, b)]
    return terms


class ScalarField:
    """A sparse multivariate Hermite expansion with bounded total degree."""

    __slots__ = ("m", "max_total_degree", "kind", "exact", "coeffs")

    def __init__(self, m: int, max_total_degree: int, kind: str = REAL,
                 exact: bool = True, coeffs: Optional[Mapping] = None):
        if m < 1:
            raise DomainError(f"dimension must be >= 1, got {m}")
        if max_total_degree < 0:
            raise DomainError(f"capacity must be >= 0, got {max_total_degree}")
        if kind not in (REAL, COMPLEX):
            raise DomainError(f"scalar kind must be 'real' or 'complex', got {kind!r}")
        self.m = m
        self.max_total_degree = max_total_degree
        self.kind = kind
        self.exact = exact
        store: dict[tuple[int, ...], object] = {}
        if coeffs:
            for deg, val in coeffs.items():
                deg = tuple(int(k) for k in deg)
                if len(deg) != m or any(k < 0 for k in deg):
                    raise DomainError(f"bad degree vector {deg} for dimension {m}")
                if sum(deg) > max_total_degree:
                    raise DegreeOverflowError(
                        f"degree vector {deg} exceeds capacity {max_total_degree}",
                        required_capacity=sum(deg))
                val = coerce_scalar(val, exact, kind == COMPLEX)
                if not scalar_is_zero(val):
                    store[deg] = val
        self.coeffs = store

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_total_degree: int, kind: str = REAL,
             exact: bool = True) -> "ScalarField":
        return cls(m, max_total_degree, kind, exact)

    @classmethod
    def constant(cls, value, m: int, max_total_degree: int, kind: str = REAL,
                 exact: bool = True) -> "ScalarField":
        return cls(m, max_total_degree, kind, exact, {(0,) * m: value})

    @classmethod
    def coordinate(cls, axis: int, m: int, max_total_degree: int, kind: str = REAL,
                   exact: bool = True) -> "ScalarField":
        """The linear field x_axis = 1/2 H_1 along the given axis."""
        if axis < 1 or axis > m:
            raise DomainError(f"axis {axis} outside 1..{m}")
        deg = tuple(1 if i == axis - 1 else 0 for i in range(m))
        half = Fraction(1, 2) if exact else 0.5
        return cls(m, max_total_degree, kind, exact, {deg: half})

    def _zero(self):
        return zero_scalar(self.exact, self.kind == COMPLEX)

    def _compatible(self, other: "ScalarField"):
        if not isinstance(other, ScalarField):
            raise DimensionMismatchError(f"expected ScalarField, got {type(other).__name__}")
        if (self.m, self.kind, self.exact) != (other.m, other.kind, other.exact):
            raise DimensionMismatchError(
                f"incompatible fields: ({self.m},{self.kind},{self.exact}) vs "
                f"({other.m},{other.kind},{other.exact})")

    @classmethod
    def _trusted(cls, m: int, max_total_degree: int, kind: str, exact: bool,
                 coeffs: dict) -> "ScalarField":
        """A field over a coefficient map that internal operations built: its
        degree vectors fit (m, max_total_degree) and its values already have
        the field's scalar type, so nothing is re-validated.  Exact values are
        nonzero; float values are filtered, since a float product or quotient
        can underflow to zero, and float complex values get + 0j so output
        never shows -0.0."""
        if not exact:
            if kind == COMPLEX:
                coeffs = {d: v + 0j for d, v in coeffs.items() if v}
            else:
                coeffs = {d: v for d, v in coeffs.items() if v}
        field = object.__new__(cls)
        field.m, field.max_total_degree, field.kind, field.exact = m, max_total_degree, kind, exact
        field.coeffs = coeffs
        return field

    def replace(self, coeffs: dict) -> "ScalarField":
        """This field's shape over other coefficients of its own scalar type."""
        return self._trusted(self.m, self.max_total_degree, self.kind, self.exact, coeffs)

    def with_capacity(self, max_total_degree: int) -> "ScalarField":
        return ScalarField(self.m, max_total_degree, self.kind, self.exact, self.coeffs)

    # -- basic algebra ----------------------------------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._compatible(other)
        out = dict(self.coeffs)
        for deg, val in other.coeffs.items():
            if deg in out:
                val = out[deg] + val
                if not val:
                    del out[deg]
                    continue
            out[deg] = val
        return self._trusted(self.m, max(self.max_total_degree, other.max_total_degree),
                             self.kind, self.exact, out)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self + (-other)

    def __neg__(self) -> "ScalarField":
        return self.replace({d: -v for d, v in self.coeffs.items()})

    def scale(self, s) -> "ScalarField":
        s = coerce_scalar(s, self.exact, self.kind == COMPLEX)
        if scalar_is_zero(s):
            return self.replace({})
        return self.replace({d: s * v for d, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (self.m == other.m and self.kind == other.kind
                and self.exact == other.exact and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.kind, self.exact, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        """Largest total Hermite degree present, or None for the zero field."""
        return max((sum(d) for d in self.coeffs), default=None)

    def __repr__(self):
        return (f"ScalarField(m={self.m}, cap={self.max_total_degree}, kind={self.kind}, "
                f"terms={len(self.coeffs)})")

    # -- kind conversions ---------------------------------------------------------

    def promote_complex(self) -> "ScalarField":
        if self.kind == COMPLEX:
            return self
        vals = {d: QC(v) if self.exact else complex(v) for d, v in self.coeffs.items()}
        return ScalarField(self.m, self.max_total_degree, COMPLEX, self.exact, vals)

    def conjugate(self) -> "ScalarField":
        if self.kind == REAL:
            return self
        return self.replace({d: conj(v) for d, v in self.coeffs.items()})

    def to_float(self) -> "ScalarField":
        """Lower exact coefficients to doubles (identity on float fields)."""
        if not self.exact:
            return self
        return ScalarField(self.m, self.max_total_degree, self.kind, False, self.coeffs)

    def real_part(self) -> "ScalarField":
        if self.kind == REAL:
            return self
        vals = {d: v.real for d, v in self.coeffs.items()}
        return ScalarField(self.m, self.max_total_degree, REAL, self.exact, vals)

    def imag_part(self) -> "ScalarField":
        if self.kind == REAL:
            return ScalarField(self.m, self.max_total_degree, REAL, self.exact)
        vals = {d: v.imag for d, v in self.coeffs.items()}
        return ScalarField(self.m, self.max_total_degree, REAL, self.exact, vals)

    # -- ladder operations ----------------------------------------------------------

    def _axis_check(self, axis: int):
        if axis < 1 or axis > self.m:
            raise DomainError(f"axis {axis} outside 1..{self.m}")

    def _map(self, rule) -> "ScalarField":
        return self.replace(_map_terms(self.coeffs.items(), rule, self.max_total_degree))

    def partial_derivative(self, axis: int) -> "ScalarField":
        """d/dx_axis: He_k -> 2k He_{k-1} along the axis."""
        self._axis_check(axis)
        i = axis - 1
        return self._map(lambda d: ((_shift(d, i, -1), 2 * d[i]),) if d[i] else ())

    def apply_delta(self, axis: int) -> "ScalarField":
        """delta_axis = d/dx_axis - 2 x_axis: He_k -> -He_{k+1} along the axis."""
        self._axis_check(axis)
        i = axis - 1
        return self._map(lambda d: ((_shift(d, i, 1), -1),))

    def multiply_by_coordinate(self, axis: int) -> "ScalarField":
        """x_axis action: x He_k = 1/2 He_{k+1} + k He_{k-1} along the axis."""
        self._axis_check(axis)
        i = axis - 1
        half = Fraction(1, 2) if self.exact else 0.5
        return self._map(lambda d: [(_shift(d, i, k), w) for k, w in ((1, half), (-1, d[i])) if w])

    def multiply(self, other: "ScalarField") -> "ScalarField":
        """Exact product via the 1-D Hermite linearization, applied per axis.

        The result's capacity is the sum of the operands' capacities; Hermite
        products never exceed the sum of the degrees.
        """
        self._compatible(other)
        cap = self.max_total_degree + other.max_total_degree
        products = (((da, db), va * vb) for da, va in self.coeffs.items()
                    for db, vb in other.coeffs.items())
        return self._trusted(self.m, cap, self.kind, self.exact,
                             _map_terms(products, _product_terms, cap))

    # -- metric and evaluation -------------------------------------------------------

    def weighted_inner(self, other: "ScalarField"):
        """<F, G> = int F conj(G) dmu; the second argument is conjugated."""
        self._compatible(other)
        total = self._zero()
        small, big = (self.coeffs, other.coeffs) if len(self.coeffs) <= len(other.coeffs) \
            else (other.coeffs, self.coeffs)
        for deg in small:
            if deg in self.coeffs and deg in other.coeffs:
                norm = hermite_sq_norm_vector(deg)
                total = total + self.coeffs[deg] * conj(other.coeffs[deg]) * \
                    (norm if self.exact else float(norm))
        return total

    def norm_sq(self):
        """||F||^2 as a real scalar (exact Fraction or float)."""
        total = Fraction(0) if self.exact else 0.0
        for deg, val in self.coeffs.items():
            norm = hermite_sq_norm_vector(deg)
            if self.kind == COMPLEX:
                mag = val.modulus_sq() if self.exact else (val.real * val.real + val.imag * val.imag)
            else:
                mag = val * val
            total = total + mag * (norm if self.exact else float(norm))
        return total

    def evaluate(self, point) -> object:
        if len(point) != self.m:
            raise DimensionMismatchError(f"point has length {len(point)}, expected {self.m}")
        top = self.degree
        if top is None:
            return self._zero()
        # per-axis Hermite values up to the top degree present
        tables = []
        for x in point:
            vals = [1, 2 * x]
            for k in range(1, top):
                vals.append(2 * x * vals[k] - 2 * k * vals[k - 1])
            tables.append(vals)
        total = self._zero()
        for deg, val in self.coeffs.items():
            prod = val
            for i, k in enumerate(deg):
                prod = prod * tables[i][k]
            total = total + prod
        return total

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for deg in sorted(self.coeffs):
            re, im = scalar_to_json(self.coeffs[deg], self.exact)
            entries.append({"deg": list(deg), "re": re, "im": im})
        return {"m": self.m, "max_total_degree": self.max_total_degree,
                "scalar": self.kind, "coeffs": entries}

    @classmethod
    def from_json(cls, data: dict) -> "ScalarField":
        kind = data["scalar"]
        entries = data.get("coeffs", [])
        exact = True
        for e in entries:
            if not isinstance(e["re"], str) or not isinstance(e.get("im", "0"), str):
                exact = False
                break
        coeffs = {}
        for e in entries:
            deg = tuple(int(k) for k in e["deg"])
            coeffs[deg] = scalar_from_json(e["re"], e.get("im", "0" if exact else 0.0),
                                           exact, kind == COMPLEX)
        return cls(int(data["m"]), int(data["max_total_degree"]), kind, exact, coeffs)

