"""Operators on forms: d, its weighted formal adjoint, and the complex split.

Real side (R^n):  for u = sum' u_I dx^I,

    (du)_M   = sum_{j in M} sign(j, M\\j -> M) du_{M\\j}/dx_j
    (T* a)_I = - sum_j delta_j a_{jI},     delta_j = d/dx_j - 2 x_j

where a_{jI} vanishes when j is in I and otherwise carries the sign of
sorting j into I.  T* is adjoint to d in the Gaussian-weighted inner
product: <du, a> = <u, T* a> exactly on polynomial data.

Complex side (C^n realized on R^{2n} with z_j = x_{2j-1} + i x_{2j}):
Wirtinger ladders

    d/dz_j    = (d/dx_{2j-1} - i d/dx_{2j}) / 2
    d/dzbar_j = (d/dx_{2j-1} + i d/dx_{2j}) / 2

and their Gaussian-twisted versions delta^z_j = d/dz_j - zbar_j,
delta^zbar_j = d/dzbar_j - z_j.  With d/dx He_a = 2a He_{a-1} and
delta He_a = -He_{a+1}, all four act on the pair (x_{2j-1}, x_{2j}) by one
rule, with sign -1 for z and +1 for zbar:

    lowering  He_a He_b -> a He_{a-1} He_b + sign i b He_a He_{b-1}
    raising   He_a He_b -> -1/2 He_{a+1} He_b - sign (i/2) He_a He_{b+1}

so each sends a term to at most two terms and keeps every operator here
degree-graded and exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import DimensionMismatchError, DomainError
from .fields import COMPLEX, REAL, ScalarField, Weight, _shift
from .multiindex import MultiIndex, insert_axis, remove_axis
from .scalars import imaginary_unit


class PForm:
    """A p-form on R^n: map from increasing multi-indices to scalar fields.

    Missing keys mean zero components.  All stored components share the
    ambient dimension, scalar kind, mode and capacity.
    """

    __slots__ = ("n", "p", "max_total_degree", "kind", "exact", "components")

    def __init__(self, n: int, p: int, max_total_degree: int, kind: str = REAL,
                 exact: bool = True, components: Optional[Mapping[MultiIndex, ScalarField]] = None):
        if n < 1:
            raise DomainError(f"ambient dimension must be >= 1, got {n}")
        if p < 0:
            raise DomainError(f"form degree must be >= 0, got {p}")
        self.n = n
        self.p = p
        self.max_total_degree = max_total_degree
        self.kind = kind
        self.exact = exact
        store: dict[MultiIndex, ScalarField] = {}
        if components:
            if p > n:
                raise DomainError(f"a {p}-form on R^{n} can only be zero")
            for idx, field in components.items():
                if not isinstance(idx, MultiIndex):
                    idx = MultiIndex(tuple(idx), n)
                if idx.n != n or idx.p != p:
                    raise DomainError(f"component index {idx.axes} does not match ({n},{p})")
                if field.m != n or field.kind != kind or field.exact != exact:
                    raise DimensionMismatchError(
                        f"component field for {idx.axes} has wrong shape/kind/mode")
                if not field.is_zero():
                    store[idx] = field.with_capacity(max_total_degree) \
                        if field.max_total_degree != max_total_degree else field
        self.components = store

    @classmethod
    def zero(cls, n: int, p: int, max_total_degree: int, kind: str = REAL,
             exact: bool = True) -> "PForm":
        return cls(n, p, max_total_degree, kind, exact)

    def component(self, idx: MultiIndex | tuple) -> ScalarField:
        if not isinstance(idx, MultiIndex):
            idx = MultiIndex(tuple(idx), self.n)
        return self.components.get(
            idx, ScalarField.zero(self.n, self.max_total_degree, self.kind, self.exact))

    def signed_component(self, j: int, idx: MultiIndex) -> ScalarField:
        """The coefficient a_{jI}: zero when j is in I, else the sign-adjusted
        component at the sorted index."""
        ins = insert_axis(j, idx)
        if ins is None:
            return ScalarField.zero(self.n, self.max_total_degree, self.kind, self.exact)
        sign, sorted_idx = ins
        field = self.components.get(sorted_idx)
        if field is None:
            return ScalarField.zero(self.n, self.max_total_degree, self.kind, self.exact)
        return field if sign == 1 else -field

    def _compatible(self, other: "PForm"):
        if not isinstance(other, PForm):
            raise DimensionMismatchError(f"expected PForm, got {type(other).__name__}")
        if (self.n, self.p, self.kind, self.exact) != (other.n, other.p, other.kind, other.exact):
            raise DimensionMismatchError("incompatible forms")

    def __add__(self, other: "PForm") -> "PForm":
        self._compatible(other)
        out = dict(self.components)
        for idx, field in other.components.items():
            cur = out.get(idx)
            s = field if cur is None else cur + field
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return PForm(self.n, self.p, max(self.max_total_degree, other.max_total_degree),
                     self.kind, self.exact, out)

    def __sub__(self, other: "PForm") -> "PForm":
        return self + (-other)

    def __neg__(self) -> "PForm":
        return PForm(self.n, self.p, self.max_total_degree, self.kind, self.exact,
                     {i: -f for i, f in self.components.items()})

    def scale(self, s) -> "PForm":
        return PForm(self.n, self.p, self.max_total_degree, self.kind, self.exact,
                     {i: f.scale(s) for i, f in self.components.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PForm):
            return NotImplemented
        return (self.n == other.n and self.p == other.p and self.kind == other.kind
                and self.exact == other.exact and self.components == other.components)

    def is_zero(self) -> bool:
        return not self.components

    @property
    def degree(self) -> Optional[int]:
        """Largest coefficient Hermite degree present, or None if zero."""
        return max((f.degree for f in self.components.values()), default=None)

    def promote_complex(self) -> "PForm":
        if self.kind == COMPLEX:
            return self
        return PForm(self.n, self.p, self.max_total_degree, COMPLEX, self.exact,
                     {i: f.promote_complex() for i, f in self.components.items()})

    def to_float(self) -> "PForm":
        if not self.exact:
            return self
        return PForm(self.n, self.p, self.max_total_degree, self.kind, False,
                     {i: f.to_float() for i, f in self.components.items()})

    def conjugate(self) -> "PForm":
        return PForm(self.n, self.p, self.max_total_degree, self.kind, self.exact,
                     {i: f.conjugate() for i, f in self.components.items()})

    def weighted_inner(self, other: "PForm"):
        """sum' <f_I, g_I>; conjugates the second argument for complex kinds."""
        self._compatible(other)
        total = ScalarField.zero(self.n, 0, self.kind, self.exact)._zero()
        for idx, field in self.components.items():
            g = other.components.get(idx)
            if g is not None:
                total = total + field.weighted_inner(g)
        return total

    def norm_sq(self):
        total = Fraction(0) if self.exact else 0.0
        for field in self.components.values():
            total = total + field.norm_sq()
        return total

    def evaluate(self, point) -> dict[tuple[int, ...], object]:
        return {idx.axes: f.evaluate(point) for idx, f in self.components.items()}

    def __repr__(self):
        return f"PForm(n={self.n}, p={self.p}, components={len(self.components)})"

    def to_json(self) -> dict:
        comps = []
        for idx in sorted(self.components):
            comps.append({"index": idx.to_json(), "field": self.components[idx].to_json()})
        return {"n": self.n, "p": self.p, "components": comps}

    @classmethod
    def from_json(cls, data: dict) -> "PForm":
        n, p = int(data["n"]), int(data["p"])
        comps = {}
        cap = 0
        kind, exact = REAL, True
        fields = [(MultiIndex.from_json(c["index"], n), ScalarField.from_json(c["field"]))
                  for c in data.get("components", [])]
        if fields:
            cap = max(f.max_total_degree for _, f in fields)
            kind = fields[0][1].kind
            exact = fields[0][1].exact
        for idx, f in fields:
            comps[idx] = f.with_capacity(cap)
        return cls(n, p, cap, kind, exact, comps)


def exterior_d(u: PForm) -> PForm:
    """The distributional exterior derivative, sign-exact on increasing indices."""
    if u.p >= u.n:
        return PForm.zero(u.n, u.p + 1, u.max_total_degree, u.kind, u.exact)
    out: dict[MultiIndex, ScalarField] = {}
    for idx, field in u.components.items():
        for j in range(1, u.n + 1):
            ins = insert_axis(j, idx)
            if ins is None:
                continue
            sign, tgt = ins
            term = field.partial_derivative(j)
            if term.is_zero():
                continue
            if sign == -1:
                term = -term
            out[tgt] = out[tgt] + term if tgt in out else term
    return PForm(u.n, u.p + 1, u.max_total_degree, u.kind, u.exact, out)


def codifferential(alpha: PForm, weight: Weight) -> PForm:
    """The weighted formal adjoint of d: component I gets -sum_j delta_j a_{jI}."""
    if alpha.p < 1:
        raise DomainError("the codifferential needs a form of degree >= 1")
    if weight.m != alpha.n:
        raise DimensionMismatchError(
            f"weight on R^{weight.m} applied to form on R^{alpha.n}")
    out: dict[MultiIndex, ScalarField] = {}
    for idx, field in alpha.components.items():
        for j in idx:
            sign, tgt = remove_axis(j, idx)
            term = field.apply_delta(j)
            if sign == 1:
                term = -term
            out[tgt] = out[tgt] + term if tgt in out else term
    return PForm(alpha.n, alpha.p - 1, alpha.max_total_degree, alpha.kind, alpha.exact, out)


# ---------------------------------------------------------------------------
# Complex operators on C^n via real ladders on R^{2n}
# ---------------------------------------------------------------------------


def complex_dimension(field: ScalarField) -> int:
    if field.m % 2 != 0:
        raise DomainError(f"complex calculus needs an even real dimension, got {field.m}")
    return field.m // 2


def _require_complex(field: ScalarField):
    if field.kind != COMPLEX:
        raise DomainError("complex calculus needs complex scalar fields")


def _pair_ladder(u: ScalarField, j: int, raising: bool, sign: int) -> ScalarField:
    """(op_{2j-1} + sign i op_{2j}) / 2 in one pass over the pair (x_{2j-1}, x_{2j}),
    with op = d/dx (lowering) or delta (raising); see the module docstring."""
    _require_complex(u)
    n = complex_dimension(u)
    if j < 1 or j > n:
        raise DomainError(f"complex axis {j} outside 1..{n}")
    axes = ((2 * j - 2, 1), (2 * j - 1, imaginary_unit(u.exact) * sign))
    if raising:
        half = Fraction(1, 2) if u.exact else 0.5
        weights = [(i, -half * w) for i, w in axes]
        return u._map(lambda d: [(_shift(d, i, 1), w) for i, w in weights])
    return u._map(lambda d: [(_shift(d, i, -1), d[i] * w) for i, w in axes if d[i]])


def wirtinger_dz(u: ScalarField, j: int) -> ScalarField:
    """d/dz_j = (d/dx_{2j-1} - i d/dx_{2j}) / 2."""
    return _pair_ladder(u, j, False, -1)


def wirtinger_dzbar(u: ScalarField, j: int) -> ScalarField:
    """d/dzbar_j = (d/dx_{2j-1} + i d/dx_{2j}) / 2."""
    return _pair_ladder(u, j, False, 1)


def delta_z(u: ScalarField, j: int) -> ScalarField:
    """d/dz_j - zbar_j = (delta_{2j-1} - i delta_{2j}) / 2, a raising ladder."""
    return _pair_ladder(u, j, True, -1)


def delta_zbar(u: ScalarField, j: int) -> ScalarField:
    """d/dzbar_j - z_j = (delta_{2j-1} + i delta_{2j}) / 2, a raising ladder."""
    return _pair_ladder(u, j, True, 1)


def _fields_from_json(data: list) -> list[ScalarField]:
    """Read sibling fields; an empty coefficient list reads as exact, so empty
    fields take the mode of the non-empty ones."""
    fields = [ScalarField.from_json(f) for f in data]
    if any(not f.exact for f in fields):
        fields = [f.to_float() if f.is_zero() else f for f in fields]
    return fields


class _LineForm:
    """Shared implementation of (1,0)- and (0,1)-forms: n complex coefficients."""

    __slots__ = ("n", "components")

    frame = ""

    def __init__(self, components: Iterable[ScalarField]):
        comps = tuple(components)
        if not comps:
            raise DomainError("a line form needs at least one component")
        m = comps[0].m
        for f in comps:
            if f.m != m or f.kind != COMPLEX or f.exact != comps[0].exact \
                    or f.max_total_degree != comps[0].max_total_degree:
                raise DimensionMismatchError("line form components must match")
        if m != 2 * len(comps):
            raise DomainError(f"{len(comps)} components need real dimension {2 * len(comps)}, got {m}")
        self.n = len(comps)
        self.components = comps

    @classmethod
    def zero(cls, n: int, max_total_degree: int, exact: bool = True):
        z = ScalarField.zero(2 * n, max_total_degree, COMPLEX, exact)
        return cls([z] * n)

    @property
    def exact(self) -> bool:
        return self.components[0].exact

    @property
    def max_total_degree(self) -> int:
        return self.components[0].max_total_degree

    @property
    def degree(self) -> Optional[int]:
        return max((f.degree for f in self.components if f.degree is not None), default=None)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def _compatible(self, other):
        if type(self) is not type(other) or self.n != other.n or self.exact != other.exact:
            raise DimensionMismatchError("incompatible line forms")

    def __add__(self, other):
        self._compatible(other)
        return type(self)([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        self._compatible(other)
        return type(self)([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return type(self)([-a for a in self.components])

    def scale(self, s):
        return type(self)([a.scale(s) for a in self.components])

    def to_float(self):
        if not self.exact:
            return self
        return type(self)([a.to_float() for a in self.components])

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.components == other.components

    def weighted_inner(self, other):
        self._compatible(other)
        total = self.components[0]._zero()
        for a, b in zip(self.components, other.components):
            total = total + a.weighted_inner(b)
        return total

    def norm_sq(self):
        total = Fraction(0) if self.exact else 0.0
        for f in self.components:
            total = total + f.norm_sq()
        return total

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"

    def to_json(self) -> dict:
        return {"n": self.n, "frame": self.frame,
                "components": [f.to_json() for f in self.components]}

    @classmethod
    def from_json(cls, data: dict):
        expected = cls.frame
        if data.get("frame", expected) != expected:
            raise DomainError(f"expected a {expected} form, got {data.get('frame')!r}")
        return cls(_fields_from_json(data["components"]))


class Form10(_LineForm):
    """A (1,0)-form sum_j h_j dz_j."""

    frame = "dz"

    def conjugate(self) -> "Form01":
        return Form01([f.conjugate() for f in self.components])


class Form01(_LineForm):
    """A (0,1)-form sum_j g_j dzbar_j."""

    frame = "dzbar"

    def conjugate(self) -> "Form10":
        return Form10([f.conjugate() for f in self.components])


class _TwoIndexForm:
    """Shared implementation of (2,0)- and (0,2)-forms: components on j < k."""

    __slots__ = ("n", "components", "max_total_degree", "exact")

    frame = ""

    def __init__(self, n: int, max_total_degree: int, exact: bool = True,
                 components: Optional[Mapping[tuple[int, int], ScalarField]] = None):
        self.n = n
        self.max_total_degree = max_total_degree
        self.exact = exact
        store: dict[tuple[int, int], ScalarField] = {}
        if components:
            for (j, k), f in components.items():
                if not (1 <= j < k <= n):
                    raise DomainError(f"two-index component ({j},{k}) must satisfy 1<=j<k<=n")
                if not f.is_zero():
                    store[(j, k)] = f
        self.components = store

    def component(self, j: int, k: int) -> ScalarField:
        # antisymmetric access for j > k
        if j == k:
            raise DomainError("repeated index in a two-index form")
        if j < k:
            got = self.components.get((j, k))
            if got is not None:
                return got
        else:
            got = self.components.get((k, j))
            if got is not None:
                return -got
        first = next(iter(self.components.values()), None)
        m = first.m if first is not None else 2 * self.n
        return ScalarField.zero(m, self.max_total_degree, COMPLEX, self.exact)

    def is_zero(self) -> bool:
        return not self.components

    def norm_sq(self):
        total = Fraction(0) if self.exact else 0.0
        for f in self.components.values():
            total = total + f.norm_sq()
        return total


class Form20(_TwoIndexForm):
    """A (2,0)-form sum_{j<k} c_{jk} dz_j ^ dz_k."""

    frame = "dz^dz"


class Form02(_TwoIndexForm):
    """A (0,2)-form sum_{j<k} c_{jk} dzbar_j ^ dzbar_k."""

    frame = "dzbar^dzbar"


class ComplexForm11:
    """A (1,1)-form sum_{i,j} f_{ij} dz_i ^ dzbar_j as an n x n field matrix.

    The squared pointwise norm is the plain coefficient square-sum over all
    ordered pairs (i, j), with no combinatorial frame weighting.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable[Iterable[ScalarField]]):
        rows = tuple(tuple(r) for r in entries)
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise DomainError("entries must form a square matrix")
        first = rows[0][0]
        for r in rows:
            for f in r:
                if (f.m, f.kind, f.exact, f.max_total_degree) != \
                        (first.m, COMPLEX, first.exact, first.max_total_degree):
                    raise DimensionMismatchError("entries must share shape, kind and mode")
        if first.m != 2 * n:
            raise DomainError(f"{n}x{n} entries need real dimension {2 * n}, got {first.m}")
        self.n = n
        self.entries = rows

    @classmethod
    def zero(cls, n: int, max_total_degree: int, exact: bool = True) -> "ComplexForm11":
        z = ScalarField.zero(2 * n, max_total_degree, COMPLEX, exact)
        return cls([[z] * n for _ in range(n)])

    def entry(self, i: int, j: int) -> ScalarField:
        return self.entries[i - 1][j - 1]

    @property
    def exact(self) -> bool:
        return self.entries[0][0].exact

    @property
    def max_total_degree(self) -> int:
        return self.entries[0][0].max_total_degree

    @property
    def degree(self) -> Optional[int]:
        degs = [f.degree for r in self.entries for f in r if f.degree is not None]
        return max(degs, default=None)

    def is_zero(self) -> bool:
        return all(f.is_zero() for r in self.entries for f in r)

    def _compatible(self, other: "ComplexForm11"):
        if not isinstance(other, ComplexForm11) or self.n != other.n \
                or self.exact != other.exact:
            raise DimensionMismatchError("incompatible (1,1)-forms")

    def __add__(self, other: "ComplexForm11") -> "ComplexForm11":
        self._compatible(other)
        return ComplexForm11([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "ComplexForm11") -> "ComplexForm11":
        self._compatible(other)
        return ComplexForm11([[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "ComplexForm11":
        return ComplexForm11([[-a for a in r] for r in self.entries])

    def scale(self, s) -> "ComplexForm11":
        return ComplexForm11([[a.scale(s) for a in r] for r in self.entries])

    def to_float(self) -> "ComplexForm11":
        if not self.exact:
            return self
        return ComplexForm11([[a.to_float() for a in r] for r in self.entries])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexForm11):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def weighted_inner(self, other: "ComplexForm11"):
        self._compatible(other)
        total = self.entries[0][0]._zero()
        for ra, rb in zip(self.entries, other.entries):
            for a, b in zip(ra, rb):
                total = total + a.weighted_inner(b)
        return total

    def norm_sq(self):
        total = Fraction(0) if self.exact else 0.0
        for r in self.entries:
            for f in r:
                total = total + f.norm_sq()
        return total

    def pointwise_norm_sq_field(self) -> ScalarField:
        """|f|^2 = sum_{ij} f_{ij} conj(f_{ij}) as an exact polynomial field."""
        out = None
        for r in self.entries:
            for f in r:
                term = f.multiply(f.conjugate())
                out = term if out is None else out + term
        return out

    def __repr__(self):
        return f"ComplexForm11(n={self.n})"

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[f.to_json() for f in r] for r in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "ComplexForm11":
        rows = data["entries"]
        fields = iter(_fields_from_json([f for r in rows for f in r]))
        return cls([[next(fields) for _ in r] for r in rows])


def dbar_function(u: ScalarField) -> Form01:
    """dbar u = sum_j (du/dzbar_j) dzbar_j."""
    n = complex_dimension(u)
    return Form01([wirtinger_dzbar(u, j) for j in range(1, n + 1)])


def partial_function(u: ScalarField) -> Form10:
    """partial u = sum_j (du/dz_j) dz_j."""
    n = complex_dimension(u)
    return Form10([wirtinger_dz(u, j) for j in range(1, n + 1)])


def ddbar(u: ScalarField) -> ComplexForm11:
    """partial dbar u: entry (i,j) = d^2 u / dz_i dzbar_j."""
    n = complex_dimension(u)
    dbar_u = [wirtinger_dzbar(u, j) for j in range(1, n + 1)]
    return ComplexForm11([[wirtinger_dz(dbar_u[j], i) for j in range(n)]
                          for i in range(1, n + 1)])


def dbar_adjoint(g: Form01, weight: Weight) -> ScalarField:
    """The formal adjoint of dbar under e^{-|z|^2}:

    dbar* g = - sum_j (dg_j/dz_j - zbar_j g_j) = - sum_j delta^z_j g_j.
    """
    if weight.m != 2 * g.n:
        raise DimensionMismatchError(
            f"weight on R^{weight.m} applied to a form on C^{g.n}")
    total = None
    for j, comp in enumerate(g.components, start=1):
        term = -delta_z(comp, j)
        total = term if total is None else total + term
    return total


def partial_of_01(g: Form01) -> ComplexForm11:
    """partial applied to a (0,1)-form: entry (i,j) = dg_j/dz_i."""
    return ComplexForm11([[wirtinger_dz(g.components[j], i) for j in range(g.n)]
                          for i in range(1, g.n + 1)])


def dbar_of_10(h: Form10) -> ComplexForm11:
    """dbar applied to a (1,0)-form, written in the dz_i ^ dzbar_j frame:

    dbar(sum h_i dz_i) = - sum_{ij} (dh_i/dzbar_j) dz_i ^ dzbar_j.
    """
    return ComplexForm11([[-wirtinger_dzbar(h.components[i - 1], j)
                           for j in range(1, h.n + 1)]
                          for i in range(1, h.n + 1)])


def dbar_of_01(g: Form01) -> Form02:
    """dbar of a (0,1)-form: components (j<k) of dzbar_j ^ dzbar_k."""
    comps = {}
    for j in range(1, g.n + 1):
        for k in range(j + 1, g.n + 1):
            f = wirtinger_dzbar(g.components[k - 1], j) - wirtinger_dzbar(g.components[j - 1], k)
            if not f.is_zero():
                comps[(j, k)] = f
    return Form02(g.n, g.max_total_degree, g.exact, comps)


def partial_of_10(h: Form10) -> Form20:
    """partial of a (1,0)-form: components (j<k) of dz_j ^ dz_k."""
    comps = {}
    for j in range(1, h.n + 1):
        for k in range(j + 1, h.n + 1):
            f = wirtinger_dz(h.components[k - 1], j) - wirtinger_dz(h.components[j - 1], k)
            if not f.is_zero():
                comps[(j, k)] = f
    return Form20(h.n, h.max_total_degree, h.exact, comps)
