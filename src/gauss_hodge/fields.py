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
as unreduced integer numerators over a running denominator, and
_finish checks the capacity and reduces each target coefficient once.
_index_rules builds every ladder that moves one key index: d/dx_i, delta_i,
both halves of x_i, and the Wirtinger ladders over H_{p,q}; each one over He
is the sum of two (calculus._ladder_rules).  Every ladder is a _PerDegree
table, built once per degree vector and then one dict lookup per use.

Every weighted norm and inner product in the package is one call of _norm_sq
or _inner over fields, each weighted by its own sq_norm: the squared norms
of the basis that is part of its type.

A complex field on R^{2n} may instead be kept over Ito's complex Hermite
basis (ItoField): H_{p,q} = prod_j (-delta^zbar_j)^{p_j} (-delta^z_j)^{q_j} 1,
keyed by (p_1, q_1, ..., p_n, q_n), with ||H_{p,q}||^2 = prod_j p_j! q_j!
(Ito 1952).  There the Wirtinger ladders move one index and conjugation
swaps p and q.  The per-pair conversions come from the generating function
e^{2xs-s^2+2yt-t^2} = e^{uz+v zbar-uv} with u = s-it, v = s+it.  Both read
the integer row c_k(a, b) of (1-x)^a (1+x)^b, s = a + b (a Krawtchouk polynomial):

    He_a(x) He_b(y) = i^b sum_p (-1)^p c_p(a, b) H_{p,s-p}
    H_{p,q}         = 2^{-s} (-1)^p sum_a (-i)^{s-a} c_a(p, q) He_a(x) He_{s-a}(y)

and c_0 = 1, (k+1) c_{k+1} = (b-a) c_k - (s-k+1) c_{k-1} build a row in O(s)
integer steps.  Each conversion keeps the total degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Mapping, Optional

from .errors import DegreeOverflowError, DimensionMismatchError, DomainError
from .multiindex import check_axis
from .scalars import (HALF, QC, _make, coerce_scalar, fraction_str, json_int,
                      scalar_from_json)

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


def _identity_rule(d):
    """The rule that keeps every term where it is: a sum, or a change of
    frame that keeps every Hermite degree."""
    return ((d, 1),)


class _PerDegree(dict):
    """A coefficient rule whose (target, weight) tuple is built once per
    degree vector: its ``__getitem__`` is the rule, a C-level lookup."""

    __slots__ = ("rule",)

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, d):
        out = self[d] = self.rule(d)
        return out


def _index_rule(i: int, raising: bool, weight):
    """The one-index move along 0-based index i: raising sends d to
    weight (d + e_i), lowering sends it to weight d_i (d - e_i)."""
    if raising:
        return lambda d: ((d[:i] + (d[i] + 1,) + d[i + 1:], weight),)
    return lambda d: ((d[:i] + (d[i] - 1,) + d[i + 1:], weight * d[i]),) if d[i] else ()


@lru_cache(maxsize=None)
def _index_rules(axes, raising: bool, weight) -> tuple:
    """The coefficient rules of a ladder that moves one key index, one
    _PerDegree table per 0-based index i in ``axes`` (see _index_rule).
    Every one-index ladder is built here, once per (axes, raising, weight)."""
    return tuple(_PerDegree(_index_rule(i, raising, weight)).__getitem__ for i in axes)


def _accumulate(acc: dict, terms, rule, scale=1):
    """Add scale * sum_{(src, val) in terms} sum_{(t, w) in rule(src)} val w He_t
    into ``acc``, a map from target degree vectors that the caller owns.

    Every ladder's ``rule`` is a _PerDegree lookup.  Weights and ``scale``
    are ints or QC values.  Terms are summed as unreduced integer entries
    [re, im, den] for (re + im i)/den, so no term pays a gcd until _finish
    reduces each target once.
    """
    scaled = scale != 1
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


def _finish(acc: dict, capacity: int) -> dict:
    """The coefficient map of an accumulation: a target above ``capacity``
    raises DegreeOverflowError, even if its sum cancels; then entries are
    reduced once each and zero sums dropped."""
    top = max(map(sum, acc), default=0)
    if top > capacity:
        raise DegreeOverflowError(f"result needs capacity {top}, have {capacity}",
                                  required_capacity=top)
    return {tgt: _make(re, im, den) for tgt, (re, im, den) in acc.items() if re or im}


def _map_terms(terms, rule, capacity: int) -> dict:
    """Apply the linear map He_d -> sum_{(t, w) in rule(d)} w He_t to the
    (source, coefficient) pairs ``terms``: one accumulation, then _finish.
    Every single-field operator that moves Hermite degrees runs through here."""
    acc: dict = {}
    _accumulate(acc, terms, rule)
    return _finish(acc, capacity)


def _product_terms(da, db) -> list:
    """He_da He_db as (degree, integer weight) pairs, one 1-D linearization per axis."""
    terms = [((), 1)]
    for a, b in zip(da, db):
        terms = [(prefix + (k,), w * c) for prefix, w in terms
                 for k, c in hermite_product_1d(a, b)]
    return terms


def _inner(pairs, complex_kind: bool):
    """sum_d x_d conj(y_d) F.sq_norm(d) over every pair (F, G) of fields of one
    basis: a QC if ``complex_kind``, else the real part as a Fraction.  The
    pairs sum integer numerators over one running denominator, reduced once,
    as (a + b i)/d * (c - e i)/f = ((ac + be) + (bc - ae) i)/(df)."""
    re = im = 0
    den = 1
    for field, other in pairs:
        weight, mine, theirs = field.sq_norm, field.coeffs, other.coeffs
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


def _norm_sq(fields) -> Fraction:
    """sum_d |x_d|^2 F.sq_norm(d) over every field F, as one Fraction sum
    (a^2 + b^2) F.sq_norm(d) / d^2 over a running denominator."""
    num, den = 0, 1
    for field in fields:
        weight = field.sq_norm
        for deg, v in field.coeffs.items():
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

    __slots__ = ("m", "max_total_degree", "kind", "coeffs")

    # the squared norms of the basis, by coefficient key
    sq_norm = staticmethod(hermite_sq_norm_vector)
    default_kind = REAL  # the kind of a field built with kind None

    def __init__(self, m: int, max_total_degree: int, kind: Optional[str] = None,
                 coeffs: Optional[Mapping] = None):
        """Every value is checked: m, the capacity and each degree entry must
        be ints (not bools), and each coefficient an int, Fraction or QC."""
        kind = self.default_kind if kind is None else kind
        if json_int(m, "dimension") < 1:
            raise DomainError(f"dimension must be >= 1, got {m}")
        if json_int(max_total_degree, "capacity") < 0:
            raise DomainError(f"capacity must be >= 0, got {max_total_degree}")
        if kind not in (REAL, COMPLEX):
            raise DomainError(f"scalar kind must be 'real' or 'complex', got {kind!r}")
        self.m = m
        self.max_total_degree = max_total_degree
        self.kind = kind
        store: dict[tuple[int, ...], object] = {}
        if coeffs:
            for deg, val in coeffs.items():
                deg = tuple(json_int(k, "a degree entry") for k in deg)
                if len(deg) != m or any(k < 0 for k in deg):
                    raise DomainError(f"bad degree vector {deg} for dimension {m}")
                if sum(deg) > max_total_degree:
                    raise DegreeOverflowError(
                        f"degree vector {deg} exceeds capacity {max_total_degree}",
                        required_capacity=sum(deg))
                val = coerce_scalar(val, kind == COMPLEX)
                if val:
                    store[deg] = val
        self.coeffs = store

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_total_degree: int, kind: Optional[str] = None) -> "ScalarField":
        return cls(m, max_total_degree, kind)

    @classmethod
    def constant(cls, value, m: int, max_total_degree: int,
                 kind: Optional[str] = None) -> "ScalarField":
        return cls(m, max_total_degree, kind, {(0,) * m: value})

    @classmethod
    def coordinate(cls, axis: int, m: int, max_total_degree: int,
                   kind: Optional[str] = None) -> "ScalarField":
        """The linear field x_axis = 1/2 H_1 along the given axis."""
        check_axis(axis, m)
        deg = tuple(1 if i == axis - 1 else 0 for i in range(m))
        return cls(m, max_total_degree, kind, {deg: HALF})

    def _compatible(self, other: "ScalarField"):
        if type(other) is not type(self):
            raise DimensionMismatchError(
                f"expected {type(self).__name__}, got {type(other).__name__}")
        if (self.m, self.kind) != (other.m, other.kind):
            raise DimensionMismatchError(
                f"incompatible fields: ({self.m},{self.kind}) vs ({other.m},{other.kind})")

    @classmethod
    def _trusted(cls, m: int, max_total_degree: int, kind: str, coeffs: dict) -> "ScalarField":
        """A field over a coefficient map that internal operations built: its
        degree vectors fit (m, max_total_degree) and its values are nonzero
        QC values, so nothing is re-validated."""
        field = object.__new__(cls)
        field.m, field.max_total_degree, field.kind = m, max_total_degree, kind
        field.coeffs = coeffs
        return field

    def replace(self, coeffs: dict) -> "ScalarField":
        """This field's shape over other nonzero QC coefficients."""
        return self._trusted(self.m, self.max_total_degree, self.kind, coeffs)

    def with_capacity(self, max_total_degree: int) -> "ScalarField":
        return type(self)(self.m, max_total_degree, self.kind, self.coeffs)

    # -- basic algebra ----------------------------------------------------------

    def _combine(self, other: "ScalarField", subtract: bool) -> "ScalarField":
        """self + other or self - other in one pass, at the larger capacity."""
        self._compatible(other)
        out = dict(self.coeffs)
        for deg, val in other.coeffs.items():
            if deg in out:
                val = out[deg] - val if subtract else out[deg] + val
                if not val:
                    del out[deg]
                    continue
            elif subtract:
                val = -val
            out[deg] = val
        return self._trusted(self.m, max(self.max_total_degree, other.max_total_degree),
                             self.kind, out)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return self._combine(other, False)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return self._combine(other, True)

    def __neg__(self) -> "ScalarField":
        return self.replace({d: -v for d, v in self.coeffs.items()})

    def scale(self, s) -> "ScalarField":
        s = coerce_scalar(s, self.kind == COMPLEX)
        if not s:
            return self.replace({})
        return self.replace({d: s * v for d, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (type(self) is type(other) and self.m == other.m and self.kind == other.kind
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        """Largest total Hermite degree present, or None for the zero field."""
        return max((sum(d) for d in self.coeffs), default=None)

    def __repr__(self):
        return (f"{type(self).__name__}(m={self.m}, cap={self.max_total_degree}, "
                f"kind={self.kind}, terms={len(self.coeffs)})")

    # -- kind conversions ---------------------------------------------------------

    def promote_complex(self) -> "ScalarField":
        """The same values as a complex field: a relabel, since real
        coefficients already are QC values."""
        return self._trusted(self.m, self.max_total_degree, COMPLEX, self.coeffs)

    def conjugate(self) -> "ScalarField":
        return self.replace({d: v.conjugate() for d, v in self.coeffs.items()})

    def real_part(self) -> "ScalarField":
        vals = {d: _make(v._a, 0, v._d) for d, v in self.coeffs.items() if v._a}
        return self._trusted(self.m, self.max_total_degree, REAL, vals)

    def imag_part(self) -> "ScalarField":
        vals = {d: _make(v._b, 0, v._d) for d, v in self.coeffs.items() if v._b}
        return self._trusted(self.m, self.max_total_degree, REAL, vals)

    # -- ladder operations ----------------------------------------------------------

    def _map(self, rule) -> "ScalarField":
        return self.replace(_map_terms(self.coeffs.items(), rule, self.max_total_degree))

    def _ladder(self, axis: int, raising: bool, weight) -> "ScalarField":
        """One index-move ladder along a checked axis (see _index_rules)."""
        i = check_axis(axis, self.m) - 1
        return self._map(_index_rules(range(self.m), raising, weight)[i])

    def partial_derivative(self, axis: int) -> "ScalarField":
        """d/dx_axis: He_k -> 2k He_{k-1} along the axis."""
        return self._ladder(axis, False, 2)

    def apply_delta(self, axis: int) -> "ScalarField":
        """delta_axis = d/dx_axis - 2 x_axis: He_k -> -He_{k+1} along the axis."""
        return self._ladder(axis, True, -1)

    def multiply_by_coordinate(self, axis: int) -> "ScalarField":
        """x_axis action: x He_k = 1/2 He_{k+1} + k He_{k-1} along the axis."""
        return self._ladder(axis, True, HALF) + self._ladder(axis, False, 1)

    def multiply(self, other: "ScalarField") -> "ScalarField":
        """Exact product via the 1-D Hermite linearization, applied per axis.

        The result's capacity is the sum of the operands' capacities; Hermite
        products never exceed the sum of the degrees.
        """
        self._compatible(other)
        cap = self.max_total_degree + other.max_total_degree
        acc: dict = {}
        for da, va in self.coeffs.items():
            _accumulate(acc, other.coeffs.items(), lambda db: _product_terms(da, db), va)
        return self._trusted(self.m, cap, self.kind, _finish(acc, cap))

    # -- metric and evaluation -------------------------------------------------------

    def weighted_inner(self, other: "ScalarField"):
        """<F, G> = int F conj(G) dmu; the second argument is conjugated.

        The result is a Fraction for real fields and a QC for complex ones.
        """
        self._compatible(other)
        return _inner(((self, other),), self.kind == COMPLEX)

    def norm_sq(self) -> Fraction:
        """||F||^2 as a Fraction."""
        return _norm_sq((self,))

    def evaluate(self, point) -> object:
        if len(point) != self.m:
            raise DimensionMismatchError(f"point has length {len(point)}, expected {self.m}")
        real = self.kind == REAL
        top = self.degree
        if top is None:
            return Fraction(0) if real else QC(0)
        # per-axis Hermite values up to the top degree present
        tables = []
        for x in point:
            vals = [1, 2 * x]
            for k in range(1, top):
                vals.append(2 * x * vals[k] - 2 * k * vals[k - 1])
            tables.append(vals)
        # a real field evaluates through Fraction values, which also combine
        # with float points
        total = Fraction(0) if real else QC(0)
        for deg, val in self.coeffs.items():
            prod = val.re if real else val
            for i, k in enumerate(deg):
                prod = prod * tables[i][k]
            total = total + prod
        return total

    # -- serialization ---------------------------------------------------------------

    def to_json(self, number=fraction_str) -> dict:
        """The field as JSON, each real and imaginary part written from the
        QC's integers by ``number(num, den)``: ``scalars.fraction_str`` for
        exact output, ``scalars.to_double`` for float output."""
        entries = [{"deg": list(deg), "re": number(v._a, v._d), "im": number(v._b, v._d)}
                   for deg, v in sorted(self.coeffs.items())]
        return {"m": self.m, "max_total_degree": self.max_total_degree,
                "scalar": self.kind, "coeffs": entries}

    @classmethod
    def from_json(cls, data: dict) -> "ScalarField":
        """Read a field; each part is a fraction string or a JSON number."""
        kind = data["scalar"]
        coeffs = {}
        for e in data.get("coeffs", []):
            deg = tuple(json_int(k, "a degree entry") for k in e["deg"])
            if deg in coeffs:
                raise DomainError(f"degree vector {deg} appears twice")
            coeffs[deg] = scalar_from_json(e["re"], e.get("im", "0"), kind == COMPLEX)
        cap = json_int(data["max_total_degree"], "max_total_degree")
        return cls(json_int(data["m"], "m"), cap, kind, coeffs)



# ---------------------------------------------------------------------------
# Ito's complex Hermite basis H_{p,q}
# ---------------------------------------------------------------------------


def _binomial_row(a: int, b: int) -> list:
    """The coefficients c_0..c_{a+b} of P = (1-x)^a (1+x)^b, by the recurrence
    that (1-x^2) P' = ((b-a) - (a+b) x) P gives."""
    s, row = a + b, [0, 1]  # c_{-1}, c_0
    for k in range(s):
        row.append(((b - a) * row[-1] - (s - k + 1) * row[-2]) // (k + 1))
    return row[1:]


def _i_power(c: int, k: int, d: int = 1) -> QC:
    """The scalar i^k c / d."""
    return _make(*((c, 0), (0, c), (-c, 0), (0, -c))[k % 4], d)


@lru_cache(maxsize=None)
def he_to_complex_hermite(a: int, b: int) -> tuple:
    """He_a(x) He_b(y) as ((p, q), coefficient) pairs over H_{p,q}, p + q = a + b."""
    return tuple(((p, a + b - p), _i_power(c, b + 2 * p))
                 for p, c in enumerate(_binomial_row(a, b)) if c)


@lru_cache(maxsize=None)
def complex_hermite_to_he(p: int, q: int) -> tuple:
    """H_{p,q} as ((a, b), coefficient) pairs over He_a(x) He_b(y), a + b = p + q."""
    return tuple(((a, p + q - a), _i_power(c, a + p - q, 2 ** (p + q)))
                 for a, c in enumerate(_binomial_row(p, q)) if c)


def _convert_pairs(coeffs: dict, m: int, table) -> dict:
    """Apply a per-pair basis conversion table(a, b) to every complex pair of
    a coefficient map on R^m; the total degree is kept or lowered."""
    top = max(map(sum, coeffs), default=0)
    for j in range(0, m, 2):
        coeffs = _map_terms(coeffs.items(), lambda d, j=j: [
            (d[:j] + pair + d[j + 2:], t) for pair, t in table(d[j], d[j + 1])], top)
    return coeffs


@lru_cache(maxsize=None)
def _swap_pairs(length: int):
    """The map swapping each pair (a_j, b_j) of a key of ``length`` entries:
    of conj(z^a zbar^b) for a monomial key, of conj(H_{p,q}) = H_{q,p}."""
    return itemgetter(*(i ^ 1 for i in range(length)))


def _he_only(name: str):
    def refuse(*args, **kwargs):
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
    default_kind = COMPLEX

    def __init__(self, m: int, max_total_degree: int, kind: Optional[str] = None, coeffs=None):
        super().__init__(m, max_total_degree, kind, coeffs)
        if m % 2 or self.kind != COMPLEX:
            raise DomainError(f"an ItoField needs an even m and kind 'complex', got {self!r}")

    coordinate = _he_only("coordinate")
    partial_derivative = _he_only("partial_derivative")
    apply_delta = _he_only("apply_delta")
    multiply_by_coordinate = _he_only("multiply_by_coordinate")
    multiply = _he_only("multiply")
    real_part = _he_only("real_part")
    imag_part = _he_only("imag_part")
    from_json = _he_only("from_json")

    @classmethod
    def from_he(cls, field: ScalarField) -> "ItoField":
        """A He field of even m over H_{p,q}, one complex pair at a time."""
        if type(field) is not ScalarField or field.m % 2:
            raise DomainError(f"from_he needs a He field of even m, got {field!r}")
        return cls._trusted(field.m, field.max_total_degree, COMPLEX,
                            _convert_pairs(field.coeffs, field.m, he_to_complex_hermite))

    def to_he(self) -> ScalarField:
        """This field over He_d, one complex pair at a time."""
        return ScalarField._trusted(self.m, self.max_total_degree, COMPLEX,
                                    _convert_pairs(self.coeffs, self.m, complex_hermite_to_he))

    def conjugate(self) -> "ItoField":
        """conj(c H_{p,q}) = conj(c) H_{q,p}."""
        swap = _swap_pairs(self.m)
        return self.replace({swap(d): v.conjugate() for d, v in self.coeffs.items()})

    def evaluate(self, point) -> object:
        return self.to_he().evaluate(point)

    def to_json(self, number=fraction_str) -> dict:
        return self.to_he().to_json(number)
