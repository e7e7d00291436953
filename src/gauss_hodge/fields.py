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

Every linear map on coefficients is a rule sending a degree vector to
(target, weight) pairs, applied as one accumulation per operator:
_accumulate sums scaled contributions into a target map the caller owns,
exact ones as unreduced integer numerators over a running denominator, and
_finish checks the capacity and reduces each target coefficient once.

Every weighted norm and inner product in the package is one call of _norm_sq
or _inner over coefficient maps, weighted by the squared norms of the
field's basis; float sums add each map's terms in its own order, then the
per-map totals in order.

A complex field on R^{2n} may instead be kept over Ito's complex Hermite
basis (ItoField): H_{p,q} = prod_j (-delta^zbar_j)^{p_j} (-delta^z_j)^{q_j} 1,
keyed by (p_1, q_1, ..., p_n, q_n), with ||H_{p,q}||^2 = prod_j p_j! q_j!
(Ito 1952).  There the Wirtinger ladders move one index and conjugation
swaps p and q.  The per-pair conversions come from the generating function
e^{2xs-s^2+2yt-t^2} = e^{uz+v zbar-uv} with u = s-it, v = s+it:

    He_a(x) He_b(y) = i^b sum_p K(a,b,p) a! b! / (p! q!) H_{p,q}
    H_{p,q}         = sum_a (-i)^b K(a,b,p) / 2^{a+b} He_a(x) He_b(y)

over p + q = a + b, with K(a,b,p) = sum_j (-1)^{p-j} C(p,j) C(q,a-j).  Each
conversion keeps the total degree, so a field's capacity carries over.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

from .errors import DegreeOverflowError, DimensionMismatchError, DomainError
from .scalars import (QC, _make, coerce_scalar, json_int, one_half, scalar_from_json,
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
def ito_sq_norm_vector(key: tuple[int, ...]) -> int:
    """<H_key, H_key> = prod_j p_j! q_j! for key (p_1, q_1, ..., p_n, q_n)."""
    return math.prod(map(math.factorial, key))


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


def _identity_rule(d):
    """The rule that keeps every term where it is: a sum, or a change of
    frame that keeps every Hermite degree."""
    return ((d, 1),)


def _derivative_rule(axis: int):
    """The coefficient rule of d/dx_axis: He_k -> 2k He_{k-1} along the axis."""
    i = axis - 1
    return lambda d: ((_shift(d, i, -1), 2 * d[i]),) if d[i] else ()


def _delta_rule(axis: int):
    """The coefficient rule of delta_axis = d/dx_axis - 2 x_axis: He_k -> -He_{k+1}."""
    i = axis - 1
    return lambda d: ((_shift(d, i, 1), -1),)


@lru_cache(maxsize=None)
def _axis_rules(m: int, rule) -> tuple:
    """The rules rule(1), ..., rule(m) of one real ladder on every axis,
    built once per dimension."""
    return tuple(rule(axis) for axis in range(1, m + 1))


def _accumulate(acc: dict, terms, rule, exact: bool, scale=1):
    """Add scale * sum_{(src, val) in terms} sum_{(t, w) in rule(src)} val w He_t
    into ``acc``, a map from target degree vectors that the caller owns.

    Weights and ``scale`` are ints or scalars of the mode.  Exact terms are
    summed as unreduced integer entries [re, im, den] for (re + im i)/den, so
    no term pays a gcd until _finish reduces each target once; float terms
    are summed as they are.
    """
    scaled = scale != 1
    if not exact:
        for src, val in terms:
            if scaled:
                val = val * scale
            for tgt, w in rule(src):
                term = val * w
                acc[tgt] = acc[tgt] + term if tgt in acc else term
        return
    sc, se, sf = (scale, 0, 1) if type(scale) is int else (scale._a, scale._b, scale._d)
    for src, val in terms:
        a, b, d = val._a, val._b, val._d
        if scaled:
            a, b, d = a * sc - b * se, a * se + b * sc, d * sf
        for tgt, w in rule(src):
            if type(w) is int:
                x, y, f = a * w, b * w, d
            else:
                c, e, f = w._a, w._b, w._d
                x, y, f = a * c - b * e, a * e + b * c, d * f
            entry = acc.get(tgt)
            if entry is None:
                acc[tgt] = [x, y, f]
            elif entry[2] == f:
                entry[0] += x
                entry[1] += y
            else:
                den = entry[2]
                g = math.gcd(den, f)
                k, m = f // g, den // g
                entry[0] = entry[0] * k + x * m
                entry[1] = entry[1] * k + y * m
                entry[2] = den * k


def _finish(acc: dict, capacity: int, exact: bool) -> dict:
    """The coefficient map of an accumulation: a target above ``capacity``
    raises DegreeOverflowError, even if its sum cancels; then exact entries
    are reduced once each and zero sums dropped."""
    top = max(map(sum, acc), default=0)
    if top > capacity:
        raise DegreeOverflowError(f"result needs capacity {top}, have {capacity}",
                                  required_capacity=top)
    if exact:
        return {tgt: _make(re, im, den) for tgt, (re, im, den) in acc.items() if re or im}
    return {tgt: val for tgt, val in acc.items() if val}


def _map_terms(terms, rule, capacity: int, exact: bool) -> dict:
    """Apply the linear map He_d -> sum_{(t, w) in rule(d)} w He_t to the
    (source, coefficient) pairs ``terms``: one accumulation, then _finish.
    Every single-field operator that moves Hermite degrees runs through here."""
    acc: dict = {}
    _accumulate(acc, terms, rule, exact)
    return _finish(acc, capacity, exact)


def _product_terms(pair) -> list:
    """He_da He_db as (degree, integer weight) pairs, one 1-D linearization per axis."""
    terms = [((), 1)]
    for a, b in zip(*pair):
        terms = [(prefix + (k,), w * c) for prefix, w in terms
                 for k, c in hermite_product_1d(a, b)]
    return terms


def _inner(map_pairs, exact: bool, complex_kind: bool, weight=hermite_sq_norm_vector):
    """sum_d x_d conj(y_d) weight(d) over every pair (x, y) of coefficient
    maps: a QC or complex if ``complex_kind``, else the real part.  Exact pairs
    sum integer numerators over one running denominator, reduced once, as
    (a + b i)/d * (c - e i)/f = ((ac + be) + (bc - ae) i)/(df); float pairs
    are each summed from zero over the smaller map in its order, and the
    per-pair totals then added in order."""
    if not exact:
        total = zero = 0j if complex_kind else 0.0
        for mine, theirs in map_pairs:
            part = zero
            for deg in (mine if len(mine) <= len(theirs) else theirs):
                if deg in mine and deg in theirs:
                    part = part + (mine[deg] * theirs[deg].conjugate()
                                   * float(weight(deg)))
            total = total + (part if complex_kind else part.real)
        return total
    re = im = 0
    den = 1
    for mine, theirs in map_pairs:
        for deg in mine.keys() & theirs.keys():
            x, y = mine[deg], theirs[deg]
            a, b, d = x._a, x._b, x._d
            c, e, f = y._a, y._b, y._d
            w = weight(deg)
            df = d * f
            if df != den:
                k = df // math.gcd(den, df)
                re, im, den = re * k, im * k, den * k
                w *= den // df
            re += (a * c + b * e) * w
            im += (b * c - a * e) * w
    return _make(re, im, den) if complex_kind else Fraction(re, den)


def _norm_sq(maps, exact: bool, weight=hermite_sq_norm_vector):
    """sum_d |x_d|^2 weight(d) over every coefficient map: exact maps as one
    Fraction sum (a^2 + b^2) weight(d) / d^2 over a running denominator, float
    maps each summed from zero in their order and the totals then added."""
    if not exact:
        total = 0.0
        for coeffs in maps:
            part = 0.0
            for deg, v in coeffs.items():
                mag = v.real * v.real + v.imag * v.imag
                part = part + mag * float(weight(deg))
            total = total + part
        return total
    num, den = 0, 1
    for coeffs in maps:
        for deg, v in coeffs.items():
            a, b, d = v._a, v._b, v._d
            w = weight(deg)
            dd = d * d
            if dd != den:
                k = dd // math.gcd(den, dd)
                num, den = num * k, den * k
                w *= den // dd
            num += (a * a + b * b) * w
    return Fraction(num, den)


class ScalarField:
    """A sparse multivariate Hermite expansion with bounded total degree."""

    __slots__ = ("m", "max_total_degree", "kind", "exact", "coeffs")

    # the squared norms of the basis, by coefficient key
    sq_norm = staticmethod(hermite_sq_norm_vector)

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
                if val:
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
        return cls(m, max_total_degree, kind, exact, {deg: one_half(exact)})

    def _zero(self):
        return zero_scalar(self.exact, self.kind == COMPLEX)

    def _compatible(self, other: "ScalarField"):
        if type(other) is not type(self):
            raise DimensionMismatchError(
                f"expected {type(self).__name__}, got {type(other).__name__}")
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
        return type(self)(self.m, max_total_degree, self.kind, self.exact, self.coeffs)

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
        if not s:
            return self.replace({})
        return self.replace({d: s * v for d, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (type(self) is type(other) and self.m == other.m and self.kind == other.kind
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
        """The same values as a complex field: a relabel in exact mode, where real
        coefficients already are QC values."""
        if self.kind == COMPLEX:
            return self
        return self._trusted(self.m, self.max_total_degree, COMPLEX, self.exact, self.coeffs)

    def conjugate(self) -> "ScalarField":
        if self.kind == REAL:
            return self
        return self.replace({d: v.conjugate() for d, v in self.coeffs.items()})

    def to_float(self) -> "ScalarField":
        """Lower exact coefficients to doubles (identity on float fields)."""
        if not self.exact:
            return self
        return type(self)(self.m, self.max_total_degree, self.kind, False, self.coeffs)

    def real_part(self) -> "ScalarField":
        if self.kind == REAL:
            return self
        if self.exact:
            vals = {d: _make(v._a, 0, v._d) for d, v in self.coeffs.items() if v._a}
        else:
            vals = {d: v.real for d, v in self.coeffs.items()}
        return self._trusted(self.m, self.max_total_degree, REAL, self.exact, vals)

    def imag_part(self) -> "ScalarField":
        if self.kind == REAL:
            return self.replace({})
        if self.exact:
            vals = {d: _make(v._b, 0, v._d) for d, v in self.coeffs.items() if v._b}
        else:
            vals = {d: v.imag for d, v in self.coeffs.items()}
        return self._trusted(self.m, self.max_total_degree, REAL, self.exact, vals)

    # -- ladder operations ----------------------------------------------------------

    def _axis_check(self, axis: int):
        if axis < 1 or axis > self.m:
            raise DomainError(f"axis {axis} outside 1..{self.m}")

    def _map(self, rule) -> "ScalarField":
        return self.replace(_map_terms(self.coeffs.items(), rule, self.max_total_degree,
                                       self.exact))

    def partial_derivative(self, axis: int) -> "ScalarField":
        """d/dx_axis: He_k -> 2k He_{k-1} along the axis."""
        self._axis_check(axis)
        return self._map(_axis_rules(self.m, _derivative_rule)[axis - 1])

    def apply_delta(self, axis: int) -> "ScalarField":
        """delta_axis = d/dx_axis - 2 x_axis: He_k -> -He_{k+1} along the axis."""
        self._axis_check(axis)
        return self._map(_axis_rules(self.m, _delta_rule)[axis - 1])

    def multiply_by_coordinate(self, axis: int) -> "ScalarField":
        """x_axis action: x He_k = 1/2 He_{k+1} + k He_{k-1} along the axis."""
        self._axis_check(axis)
        i = axis - 1
        half = one_half(self.exact)
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
                             _map_terms(products, _product_terms, cap, self.exact))

    # -- metric and evaluation -------------------------------------------------------

    def weighted_inner(self, other: "ScalarField"):
        """<F, G> = int F conj(G) dmu; the second argument is conjugated.

        Exact results are a Fraction for real fields and a QC for complex ones.
        """
        self._compatible(other)
        return _inner(((self.coeffs, other.coeffs),), self.exact, self.kind == COMPLEX,
                      self.sq_norm)

    def norm_sq(self):
        """||F||^2 as a real scalar (exact Fraction or float)."""
        return _norm_sq((self.coeffs,), self.exact, self.sq_norm)

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
        # a real exact field evaluates through Fraction values, which also
        # combine with float points
        real_exact = self.exact and self.kind == REAL
        for deg, val in self.coeffs.items():
            prod = val.re if real_exact else val
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
            deg = tuple(json_int(k, "a degree entry") for k in e["deg"])
            if deg in coeffs:
                raise DomainError(f"degree vector {deg} appears twice")
            coeffs[deg] = scalar_from_json(e["re"], e.get("im", "0" if exact else 0.0),
                                           exact, kind == COMPLEX)
        cap = json_int(data["max_total_degree"], "max_total_degree")
        return cls(json_int(data["m"], "m"), cap, kind, exact, coeffs)



# ---------------------------------------------------------------------------
# Ito's complex Hermite basis H_{p,q}
# ---------------------------------------------------------------------------


def _k(a: int, b: int, p: int) -> int:
    """K(a,b,p) = sum_j (-1)^{p-j} C(p,j) C(q,a-j) with q = a + b - p."""
    q = a + b - p
    return sum((-1) ** (p - j) * math.comb(p, j) * math.comb(q, a - j)
               for j in range(max(0, a - q), min(p, a) + 1))


def _times_i_power(r: Fraction, k: int, exact: bool):
    """The scalar i^k r."""
    re, im = ((r, 0), (0, r), (-r, 0), (0, -r))[k % 4]
    return QC(re, im) if exact else complex(re, im)


@lru_cache(maxsize=None)
def he_to_complex_hermite(a: int, b: int, exact: bool) -> tuple:
    """He_a(x) He_b(y) as ((p, q), coefficient) pairs over H_{p,q}, p + q = a + b."""
    s = a + b
    out = []
    for p in range(s + 1):
        k = _k(a, b, p)
        if k:
            r = Fraction(k * math.factorial(a) * math.factorial(b),
                         math.factorial(p) * math.factorial(s - p))
            out.append(((p, s - p), _times_i_power(r, b, exact)))
    return tuple(out)


@lru_cache(maxsize=None)
def complex_hermite_to_he(p: int, q: int, exact: bool) -> tuple:
    """H_{p,q} as ((a, b), coefficient) pairs over He_a(x) He_b(y), a + b = p + q."""
    s = p + q
    out = []
    for a in range(s + 1):
        k = _k(a, s - a, p)
        if k:
            out.append(((a, s - a), _times_i_power(Fraction(k, 2 ** s), a - s, exact)))
    return tuple(out)


def _convert_pairs(coeffs: dict, m: int, table, exact: bool) -> dict:
    """Apply a per-pair basis conversion table(a, b, exact) to every complex
    pair of a coefficient map on R^m; the total degree is kept or lowered."""
    top = max(map(sum, coeffs), default=0)
    for j in range(0, m, 2):
        coeffs = _map_terms(coeffs.items(), lambda d, j=j: [
            (d[:j] + pair + d[j + 2:], t) for pair, t in table(d[j], d[j + 1], exact)],
            top, exact)
    return coeffs


def _swap_pairs(key: tuple) -> tuple:
    """The key with each pair (a_j, b_j) swapped: of conj(z^a zbar^b) for a
    monomial key, of conj(H_{p,q}) = H_{q,p} for an Ito key."""
    out = [0] * len(key)
    out[0::2], out[1::2] = key[1::2], key[0::2]
    return tuple(out)


def _he_only(name: str):
    def refuse(self, *args):
        raise DomainError(f"{name} acts on He coefficients; convert with from_he and to_he")
    return refuse


class ItoField(ScalarField):
    """A complex field on R^{2n} over Ito's basis H_{p,q}, keyed by
    (p_1, q_1, ..., p_n, q_n) and normed by ||H_{p,q}||^2 = p! q!.  It is
    written and evaluated through its He coefficients; the real-axis ladders,
    products, real parts and reading act on He coefficients only, so they
    refuse it (convert with from_he and to_he)."""

    __slots__ = ()

    sq_norm = staticmethod(ito_sq_norm_vector)

    partial_derivative = _he_only("partial_derivative")
    apply_delta = _he_only("apply_delta")
    multiply_by_coordinate = _he_only("multiply_by_coordinate")
    multiply = _he_only("multiply")
    real_part = _he_only("real_part")
    imag_part = _he_only("imag_part")
    from_json = _he_only("from_json")

    @classmethod
    def from_he(cls, field: ScalarField) -> "ItoField":
        """A He field over H_{p,q}, one complex pair at a time."""
        return cls._trusted(field.m, field.max_total_degree, COMPLEX, field.exact,
                            _convert_pairs(field.coeffs, field.m, he_to_complex_hermite,
                                           field.exact))

    def to_he(self) -> ScalarField:
        """This field over He_d, one complex pair at a time."""
        return ScalarField._trusted(self.m, self.max_total_degree, COMPLEX, self.exact,
                                    _convert_pairs(self.coeffs, self.m, complex_hermite_to_he,
                                                   self.exact))

    def conjugate(self) -> "ItoField":
        """conj(c H_{p,q}) = conj(c) H_{q,p}."""
        return self.replace({_swap_pairs(d): v.conjugate() for d, v in self.coeffs.items()})

    def evaluate(self, point) -> object:
        return self.to_he().evaluate(point)

    def to_json(self) -> dict:
        return self.to_he().to_json()
