"""Operators on forms: d and its weighted adjoint on R^n, and partial, dbar
and the adjoint of dbar on C^n, all through one wedge rule and one
contraction rule.

A p-form is a map from increasing tuples of frame axes to scalar fields.
Each first-order operator wedges with frame 1-forms e_j, and each weighted
adjoint contracts with them:

    (L u)      = sum_j e_j ^ L_j u
    (L* a)_I   = - sum_j L'_j a_{jI}

where a_{jI} vanishes when j is in I and otherwise carries the sign of
sorting j into I; insert_axis and remove_axis supply every sign.  Each L_j
is a coefficient rule (see fields), and an operator is one accumulation:
every (component, axis) contribution, its sign folded into the coefficient,
is summed straight into its target component's coefficients, each reduced
once.  The single-field ladders apply the same rules to one field.

Real side (R^n), frame dx_1..dx_n:

    d:  L_j = d/dx_j,    T*: L'_j = delta_j = d/dx_j - 2 x_j

T* is adjoint to d in the Gaussian-weighted inner product: <du, a> = <u, T* a>
exactly on polynomial data.

Complex side (C^n realized on R^{2n} with z_j = x_{2j-1} + i x_{2j}), frame
dz_1..dz_n, dzbar_1..dzbar_n: axis j is dz_j and axis n + j is dzbar_j, so
dz^I ^ dzbar^J is keyed by the increasing index I + (n + J).  A ComplexForm
is a PForm over these 2n axes that also stores its bidegree (p, q).

    partial: e_j = dz_j,     L_j  = d/dz_j    = (d/dx_{2j-1} - i d/dx_{2j}) / 2
    dbar:    e_j = dzbar_j,  L_j  = d/dzbar_j = (d/dx_{2j-1} + i d/dx_{2j}) / 2
    dbar*:   e_j = dzbar_j,  L'_j = delta^z_j = d/dz_j - zbar_j

under e^{-|z|^2}; the twisted ladder of partial is delta^zbar_j = d/dzbar_j
- z_j.  With d/dx He_a = 2a He_{a-1} and delta He_a = -He_{a+1}, all four
Wirtinger ladders act on the pair (x_{2j-1}, x_{2j}) by one rule, with sign
-1 for z and +1 for zbar:

    lowering  He_a He_b -> a He_{a-1} He_b + sign i b He_a He_{b-1}
    raising   He_a He_b -> -1/2 He_{a+1} He_b - sign (i/2) He_a He_{b+1}

so each sends a term to at most two terms and keeps every operator here
degree-graded and exact.

Over Ito's basis H_{p,q} (fields.ItoField) each ladder moves one index:
d/dz_j and d/dzbar_j lower p_j and q_j with weights p_j and q_j, and
delta^zbar_j and delta^z_j raise them with weight -1.  The basis is part of
a form's type, and every operator takes its rules and metric from it:
ComplexForm and PForm hold He coefficients, ItoForm is a (p,q)-form over
H_{p,q}, and ComplexFrameForm is a real form on R^{2n} written in the
complex frame over H_{p,q}, with the real frame's d, T* and Euclidean
metric (see its docstring).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional

from .errors import DimensionMismatchError, DomainError
from .fields import (COMPLEX, REAL, ItoField, ScalarField, _accumulate, _axis_rules,
                     _delta_rule, _derivative_rule, _finish, _inner, _norm_sq, _shift)
from .multiindex import check_index, insert_axis, remove_axis
from .scalars import imaginary_unit, json_int, one_half


class PForm:
    """A p-form on R^n: map from increasing tuples of axes in 1..n to scalar fields.

    Missing keys mean zero components.  All stored components share the
    ambient dimension, scalar kind, mode, capacity and the basis
    ``field_type``.
    """

    __slots__ = ("n", "p", "max_total_degree", "kind", "exact", "components")

    field_type = ScalarField

    def __init__(self, n: int, p: int, max_total_degree: int, kind: str = REAL,
                 exact: bool = True, components: Optional[Mapping[tuple, ScalarField]] = None):
        if n < 1:
            raise DomainError(f"ambient dimension must be >= 1, got {n}")
        if p < 0:
            raise DomainError(f"form degree must be >= 0, got {p}")
        self.n = n
        self.p = p
        self.max_total_degree = max_total_degree
        self.kind = kind
        self.exact = exact
        store: dict[tuple, ScalarField] = {}
        if components:
            if p > n:
                raise DomainError(f"a {p}-form on R^{n} can only be zero")
            for idx, field in components.items():
                idx = check_index(idx, n, p)
                if (field.m != n or field.kind != kind or field.exact != exact
                        or type(field) is not self.field_type):
                    raise DimensionMismatchError(
                        f"component field for {idx} has wrong shape/kind/mode")
                if not field.is_zero():
                    store[idx] = field.with_capacity(max_total_degree) \
                        if field.max_total_degree != max_total_degree else field
        self.components = store

    def replace(self, components, max_total_degree: Optional[int] = None,
                exact: Optional[bool] = None) -> "PForm":
        """A form of this shape with other components (and capacity or mode)."""
        return type(self)(self.n, self.p,
                          self.max_total_degree if max_total_degree is None else max_total_degree,
                          self.kind, self.exact if exact is None else exact, components)

    def component(self, idx) -> ScalarField:
        return self.components.get(
            check_index(idx, self.n, self.p),
            self.field_type.zero(self.n, self.max_total_degree, self.kind, self.exact))

    def signed_component(self, j: int, idx: tuple) -> ScalarField:
        """The coefficient a_{jI}: zero when j is in I, else the sign-adjusted
        component at the sorted index."""
        if j < 1 or j > self.n:
            raise DomainError(f"axis {j} outside range 1..{self.n}")
        ins = insert_axis(j, idx)
        if ins is None:
            return self.field_type.zero(self.n, self.max_total_degree, self.kind, self.exact)
        sign, sorted_idx = ins
        field = self.components.get(sorted_idx)
        if field is None:
            return self.field_type.zero(self.n, self.max_total_degree, self.kind, self.exact)
        return field if sign == 1 else -field

    def _shape(self) -> tuple:
        return (type(self), self.n, self.p, self.kind, self.exact)

    def _compatible(self, other: "PForm"):
        if not isinstance(other, PForm):
            raise DimensionMismatchError(f"expected PForm, got {type(other).__name__}")
        if self._shape() != other._shape():
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
        return self.replace(out, max(self.max_total_degree, other.max_total_degree))

    def __sub__(self, other: "PForm") -> "PForm":
        return self + (-other)

    def __neg__(self) -> "PForm":
        return self.replace({i: -f for i, f in self.components.items()})

    def scale(self, s) -> "PForm":
        return self.replace({i: f.scale(s) for i, f in self.components.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PForm):
            return NotImplemented
        return self._shape() == other._shape() and self.components == other.components

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
        return self.replace({i: f.to_float() for i, f in self.components.items()}, exact=False)

    def weighted_inner(self, other: "PForm"):
        """sum' <f_I, g_I>; conjugates the second argument for complex kinds."""
        self._compatible(other)
        theirs = other.components
        return _inner(((f.coeffs, theirs[idx].coeffs)
                       for idx, f in self.components.items() if idx in theirs),
                      self.exact, self.kind == COMPLEX, self.field_type.sq_norm)

    def norm_sq(self):
        return _norm_sq((f.coeffs for f in self.components.values()), self.exact,
                        self.field_type.sq_norm)

    def _d_rules(self) -> tuple:
        """The coefficient rules of d, one per frame axis: d/dx_j."""
        return _axis_rules(self.n, _derivative_rule)

    def _t_rules(self) -> tuple:
        """The coefficient rules of T*, one per frame axis: delta_j."""
        return _axis_rules(self.n, _delta_rule)

    def pointwise_norm_sq_field(self) -> ScalarField:
        """|f|^2 = sum_I f_I conj(f_I) as an exact polynomial field."""
        out = ScalarField.zero(self.n, 2 * self.max_total_degree, self.kind, self.exact)
        for field in self.components.values():
            out = out + field.multiply(field.conjugate())
        return out

    def evaluate(self, point) -> dict[tuple[int, ...], object]:
        return {idx: f.evaluate(point) for idx, f in self.components.items()}

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, p={self.p}, components={len(self.components)})"

    def to_json(self) -> dict:
        comps = []
        for idx in sorted(self.components):
            comps.append({"index": list(idx), "field": self.components[idx].to_json()})
        return {"n": self.n, "p": self.p, "components": comps}

    @classmethod
    def from_json(cls, data: dict) -> "PForm":
        n, p = json_int(data["n"], "n"), json_int(data["p"], "p")
        comps = data.get("components", [])
        keys = [check_index(c["index"], n, p) for c in comps]
        if len(set(keys)) < len(keys):
            raise DomainError("a component index appears twice")
        fields = _fields_from_json([c["field"] for c in comps])
        if not fields:
            return cls(n, p, 0)
        cap = max(f.max_total_degree for f in fields)
        return cls(n, p, cap, fields[0].kind, fields[0].exact, dict(zip(keys, fields)))


def _components(acc: dict, form: PForm) -> dict:
    """The target components of an accumulation over the shape of ``form``,
    each finished into a field."""
    cap = form.max_total_degree
    return {tgt: form.field_type._trusted(form.n, cap, form.kind, form.exact,
                                         _finish(coeffs, cap, form.exact))
            for tgt, coeffs in acc.items()}


def _wedge(u: PForm, offset: int, rules) -> dict:
    """Components of sum_j e_{offset+j} ^ L_j u, where rules[j-1] is the
    coefficient rule of L_j: each (component, axis) contribution is summed,
    with its permutation sign, straight into its target's coefficients."""
    acc: dict = {}
    for idx, field in u.components.items():
        for axis, rule in enumerate(rules, offset + 1):
            ins = insert_axis(axis, idx)
            if ins is not None:
                sign, tgt = ins
                _accumulate(acc.setdefault(tgt, {}), field.coeffs.items(), rule, u.exact, sign)
    return _components(acc, u)


def _contract(alpha: PForm, offset: int, rules) -> dict:
    """Components of the contraction: I gets -sum_j L'_j a_{(offset+j) I},
    where rules[j-1] is the coefficient rule of L'_j."""
    acc: dict = {}
    for idx, field in alpha.components.items():
        for axis in idx:
            if 0 < axis - offset <= len(rules):
                sign, tgt = remove_axis(axis, idx)
                _accumulate(acc.setdefault(tgt, {}), field.coeffs.items(),
                            rules[axis - offset - 1], alpha.exact, -sign)
    return _components(acc, alpha)


def _require_real_frame(u: PForm):
    if isinstance(u, ComplexForm):
        raise DomainError("d and T* act on real-frame forms; use partial and dbar")


def exterior_d(u: PForm) -> PForm:
    """The distributional exterior derivative, sign-exact on increasing indices."""
    _require_real_frame(u)
    return type(u)(u.n, u.p + 1, u.max_total_degree, u.kind, u.exact, _wedge(u, 0, u._d_rules()))


def codifferential(alpha: PForm) -> PForm:
    """The formal adjoint T* of d under e^{-|x|^2}: component I gets
    -sum_j delta_j a_{jI}, with delta_j = d/dx_j - 2 x_j."""
    _require_real_frame(alpha)
    if alpha.p < 1:
        raise DomainError("the codifferential needs a form of degree >= 1")
    return type(alpha)(alpha.n, alpha.p - 1, alpha.max_total_degree, alpha.kind, alpha.exact,
                       _contract(alpha, 0, alpha._t_rules()))


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


# The four Wirtinger ladders as (raising, sign); see the module docstring.
DZ, DZBAR, DELTA_Z, DELTA_ZBAR = (False, -1), (False, 1), (True, -1), (True, 1)


class _PerDegree(dict):
    """A coefficient rule whose (target, weight) tuple is built once per
    degree vector: its ``__getitem__`` is the rule.  A dict keyed by the
    degree vector itself keeps less per entry than lru_cache, which also
    keeps each call's argument tuple."""

    __slots__ = ("rule",)

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, d):
        out = self[d] = self.rule(d)
        return out


@lru_cache(maxsize=None)
def _pair_rules(n: int, ladder: tuple, exact: bool) -> tuple:
    """The coefficient rules of one Wirtinger ladder on the pairs j = 1..n,
    (op_{2j-1} + sign i op_{2j}) / 2 with op = d/dx (lowering) or delta
    (raising), each built once per degree vector; the weights are built once
    per ladder and mode."""
    raising, sign = ladder
    i_sign = imaginary_unit(exact) * sign
    if raising:
        half = one_half(exact)
        wx, wy = -half, -half * i_sign
        rules = (lambda d, x=x: ((_shift(d, x, 1), wx), (_shift(d, x + 1, 1), wy))
                 for x in range(0, 2 * n, 2))
    else:
        # the lowering weights are k on x_{2j-1} and k sign i on x_{2j}, for
        # k = d_i; each k sign i is built once
        times_i = lru_cache(maxsize=None)(lambda k: k * i_sign)
        rules = (lambda d, x=x: tuple((_shift(d, i, -1), w(d[i]))
                                      for i, w in ((x, int), (x + 1, times_i)) if d[i])
                 for x in range(0, 2 * n, 2))
    return tuple(_PerDegree(rule).__getitem__ for rule in rules)


@lru_cache(maxsize=None)
def _ito_rules(n: int, ladder: tuple, scale: int = 1) -> tuple:
    """The coefficient rules of one Wirtinger ladder over H_{p,q} on the pairs
    j = 1..n, times ``scale``: d/dz_j H_{p,q} = p_j H_{p-e_j,q} and d/dzbar_j
    lowers q_j alike; delta^zbar_j H_{p,q} = -H_{p+e_j,q} and delta^z_j raises
    q_j alike.  Each weight is an int, so one rule serves both modes."""
    raising, sign = ladder
    first = int((sign == 1) != raising)  # 0: the rule moves p_j, 1: q_j
    if raising:
        return tuple((lambda d, i=i: ((_shift(d, i, 1), -scale),))
                     for i in range(first, 2 * n, 2))
    return tuple((lambda d, i=i: ((_shift(d, i, -1), scale * d[i]),) if d[i] else ())
                 for i in range(first, 2 * n, 2))


def _ladder_rules(basis: type, n: int, ladder: tuple, exact: bool) -> tuple:
    """The rules of one Wirtinger ladder on the pairs j = 1..n over the basis
    of the field type ``basis``."""
    return _ito_rules(n, ladder) if basis is ItoField else _pair_rules(n, ladder, exact)


def _pair_ladder(u: ScalarField, j: int, ladder: tuple) -> ScalarField:
    """One Wirtinger ladder along complex axis j, in one pass over the pair
    (x_{2j-1}, x_{2j})."""
    _require_complex(u)
    n = complex_dimension(u)
    if j < 1 or j > n:
        raise DomainError(f"complex axis {j} outside 1..{n}")
    return u._map(_ladder_rules(type(u), n, ladder, u.exact)[j - 1])


def wirtinger_dz(u: ScalarField, j: int) -> ScalarField:
    """d/dz_j = (d/dx_{2j-1} - i d/dx_{2j}) / 2."""
    return _pair_ladder(u, j, DZ)


def wirtinger_dzbar(u: ScalarField, j: int) -> ScalarField:
    """d/dzbar_j = (d/dx_{2j-1} + i d/dx_{2j}) / 2."""
    return _pair_ladder(u, j, DZBAR)


def delta_z(u: ScalarField, j: int) -> ScalarField:
    """d/dz_j - zbar_j = (delta_{2j-1} - i delta_{2j}) / 2, a raising ladder."""
    return _pair_ladder(u, j, DELTA_Z)


def delta_zbar(u: ScalarField, j: int) -> ScalarField:
    """d/dzbar_j - z_j = (delta_{2j-1} + i delta_{2j}) / 2, a raising ladder."""
    return _pair_ladder(u, j, DELTA_ZBAR)


def _fields_from_json(data: list) -> list[ScalarField]:
    """Read sibling fields; an empty coefficient list reads as exact, so empty
    fields take the mode of the non-empty ones."""
    fields = [ScalarField.from_json(f) for f in data]
    if any(not f.exact for f in fields):
        fields = [f.to_float() if f.is_zero() else f for f in fields]
    return fields


_FRAMES = {(1, 0): "dz", (0, 1): "dzbar"}


def _layout(n: int, bidegree: tuple[int, int]) -> list:
    """Frame keys in file order: over j for (1,0) and (0,1), and an n x n
    matrix over (i, j) for the dz_i ^ dzbar_j of (1,1)."""
    if n < 1:
        raise DomainError("a form on C^n needs n >= 1")
    rng = range(1, n + 1)
    if bidegree == (1, 1):
        return [[(i, n + j) for j in rng] for i in rng]
    if bidegree not in _FRAMES:
        raise DomainError(f"bidegree {bidegree} has no file layout")
    shift = n * bidegree[1]
    return [(shift + j,) for j in rng]


class ComplexForm(PForm):
    """A (p,q)-form on C^n: a PForm over the 2n frame axes dz_1..dz_n,
    dzbar_1..dzbar_n (axis n + j is dzbar_j), with complex coefficient fields
    on R^{2n}.  ``n`` is inherited and counts the 2n frame axes; the stored
    ``bidegree`` keeps the type of zero forms.
    """

    __slots__ = ("bidegree",)

    def __init__(self, n: int, bidegree: tuple[int, int], max_total_degree: int,
                 exact: bool = True, components: Optional[Mapping] = None):
        """``n`` is the complex dimension."""
        p, q = bidegree
        if p < 0 or q < 0:
            raise DomainError(f"bidegree must be non-negative, got {bidegree}")
        super().__init__(2 * n, p + q, max_total_degree, COMPLEX, exact, components)
        for idx in self.components:
            if sum(a <= n for a in idx) != p:
                raise DomainError(f"frame index {idx} is not of bidegree ({p},{q})")
        self.bidegree = (p, q)

    @classmethod
    def function(cls, u: ScalarField) -> "ComplexForm":
        """The complex function u as a (0,0)-form."""
        return cls(complex_dimension(u), (0, 0), u.max_total_degree, u.exact, {(): u})

    @classmethod
    def from_layout(cls, bidegree: tuple[int, int], fields) -> "ComplexForm":
        """A (1,0)- or (0,1)-form from its n coefficients on dz_j or dzbar_j,
        or a (1,1)-form from its n x n coefficients on dz_i ^ dzbar_j."""
        n = len(fields)
        keys = _layout(n, bidegree)
        if bidegree == (1, 1):
            if any(len(row) != n for row in fields):
                raise DomainError("entries must form a square matrix")
            keys, fields = sum(keys, []), [f for row in fields for f in row]
        cap = max(f.max_total_degree for f in fields)
        return cls(n, bidegree, cap, fields[0].exact, dict(zip(keys, fields)))

    def replace(self, components, max_total_degree: Optional[int] = None,
                exact: Optional[bool] = None) -> "ComplexForm":
        return type(self)(self.n // 2, self.bidegree,
                          self.max_total_degree if max_total_degree is None else max_total_degree,
                          self.exact if exact is None else exact, components)

    def _shape(self) -> tuple:
        return super()._shape() + (self.bidegree,)

    def coefficient(self, dz=(), dzbar=()) -> ScalarField:
        """The coefficient of dz^I ^ dzbar^J for increasing I = dz, J = dzbar."""
        return self.component(tuple(dz) + tuple(self.n // 2 + j for j in dzbar))

    def conjugate(self) -> "ComplexForm":
        """conj(f dz^I ^ dzbar^J) = (-1)^{pq} conj(f) dz^J ^ dzbar^I."""
        n = self.n // 2
        p, q = self.bidegree
        comps = {}
        for idx, field in self.components.items():
            key = tuple(sorted(a + n if a <= n else a - n for a in idx))
            comps[key] = -field.conjugate() if p * q % 2 else field.conjugate()
        return type(self)(n, (q, p), self.max_total_degree, self.exact, comps)

    def to_json(self) -> dict:
        n = self.n // 2
        keys = _layout(n, self.bidegree)
        if self.bidegree == (1, 1):
            return {"n": n, "entries": [[self.component(k).to_json() for k in row]
                                        for row in keys]}
        return {"n": n, "frame": _FRAMES[self.bidegree],
                "components": [self.component(k).to_json() for k in keys]}

    @classmethod
    def from_json(cls, data: dict, bidegree: tuple[int, int]) -> "ComplexForm":
        """Read the file layout of a form of the given bidegree: (1,0), (0,1) or
        (1,1); its "n", if given, must be the complex dimension of the layout."""
        if bidegree == (1, 1):
            rows = data["entries"]
            fields = iter(_fields_from_json([f for r in rows for f in r]))
            form = cls.from_layout(bidegree, [[next(fields) for _ in r] for r in rows])
        else:
            frame = _FRAMES[bidegree]
            if data.get("frame", frame) != frame:
                raise DomainError(f"expected a {frame} form, got {data.get('frame')!r}")
            form = cls.from_layout(bidegree, _fields_from_json(data["components"]))
        n = form.n // 2
        if json_int(data.get("n", n), "n") != n:
            raise DomainError(f"n is {data['n']}, but the layout is for n = {n}")
        return form


def require_bidegree(form, bidegree: tuple[int, int], context: str):
    """Refuse anything but a ComplexForm of the given bidegree."""
    if getattr(form, "bidegree", None) != bidegree:
        got = getattr(form, "bidegree", type(form).__name__)
        raise DomainError(f"{context} needs a {bidegree}-form, got {got}")


def partial(u: ComplexForm) -> ComplexForm:
    """partial u = sum_j dz_j ^ du/dz_j, of bidegree (p+1, q)."""
    n = u.n // 2
    p, q = u.bidegree
    return type(u)(n, (p + 1, q), u.max_total_degree, u.exact,
                   _wedge(u, 0, _ladder_rules(u.field_type, n, DZ, u.exact)))


def dbar(u: ComplexForm) -> ComplexForm:
    """dbar u = sum_j dzbar_j ^ du/dzbar_j, of bidegree (p, q+1)."""
    n = u.n // 2
    p, q = u.bidegree
    return type(u)(n, (p, q + 1), u.max_total_degree, u.exact,
                   _wedge(u, n, _ladder_rules(u.field_type, n, DZBAR, u.exact)))


def _function_form(u: ScalarField) -> ComplexForm:
    """The complex function u as a (0,0)-form over its own basis."""
    return (ItoForm if isinstance(u, ItoField) else ComplexForm).function(u)


def dbar_function(u: ScalarField) -> ComplexForm:
    """dbar u = sum_j (du/dzbar_j) dzbar_j."""
    return dbar(_function_form(u))


def ddbar(u: ScalarField) -> ComplexForm:
    """partial dbar u: the coefficient of dz_i ^ dzbar_j is d^2 u / dz_i dzbar_j."""
    return partial(dbar(_function_form(u)))


def dbar_adjoint(g: ComplexForm) -> ScalarField:
    """The formal adjoint of dbar under e^{-|z|^2} on a (0,1)-form:

    dbar* g = - sum_j (dg_j/dz_j - zbar_j g_j) = - sum_j delta^z_j g_j.
    """
    require_bidegree(g, (0, 1), "dbar*")
    n = g.n // 2
    return type(g)(n, (0, 0), g.max_total_degree, g.exact,
                   _contract(g, n, _ladder_rules(g.field_type, n, DELTA_Z, g.exact))).component(())


def dbar_of_01(g: ComplexForm) -> ComplexForm:
    """dbar of a (0,1)-form: the coefficient of dzbar_j ^ dzbar_k (j<k) is
    dg_k/dzbar_j - dg_j/dzbar_k."""
    return dbar(g)


def partial_of_10(h: ComplexForm) -> ComplexForm:
    """partial of a (1,0)-form: the coefficient of dz_j ^ dz_k (j<k) is
    dh_k/dz_j - dh_j/dz_k."""
    return partial(h)


class ItoForm(ComplexForm):
    """A (p,q)-form on C^n whose coefficients are ItoFields over H_{p,q}, where
    partial, dbar and dbar* move one index of each term.  Files hold He
    coefficients, so it converts at from_he and to_he, and ComplexForm.to_json
    writes each component through its He coefficients."""

    __slots__ = ()

    field_type = ItoField

    @classmethod
    def from_he(cls, form: ComplexForm) -> "ItoForm":
        if type(form) is not ComplexForm:
            raise DomainError(f"expected a ComplexForm over He, got {type(form).__name__}")
        return cls(form.n // 2, form.bidegree, form.max_total_degree, form.exact,
                   {idx: ItoField.from_he(f) for idx, f in form.components.items()})

    @classmethod
    def of(cls, form: ComplexForm) -> "ItoForm":
        """The form over H_{p,q}: itself, or a He form converted."""
        return form if isinstance(form, ItoForm) else cls.from_he(form)

    def to_he(self) -> ComplexForm:
        return ComplexForm(self.n // 2, self.bidegree, self.max_total_degree, self.exact,
                           {idx: f.to_he() for idx, f in self.components.items()})


class ComplexFrameForm(PForm):
    """A real form on R^{2n} in the complex frame dz_1..dz_n, dzbar_1..dzbar_n
    (axis n + j is dzbar_j) with coefficients over H_{p,q}, so every bidegree
    may be present.  The Euclidean metric gives |dz_j|^2 = |dzbar_j|^2 = 2, so
    ||.||^2 is 2^p times the sum of the components' Ito norms, and

        d  = partial + dbar,
        T* = 2 sum_j ((-delta^zbar_j) iota_{dz_j} + (-delta^z_j) iota_{dzbar_j}),

    where -delta^zbar_j and -delta^z_j raise p_j and q_j with weight 1.  Its
    d Laplacian is 2(|p| + |q| + deg) on H_{p,q} of form degree deg."""

    __slots__ = ()

    field_type = ItoField

    def _d_rules(self) -> tuple:
        n = self.n // 2
        return _ito_rules(n, DZ) + _ito_rules(n, DZBAR)

    def _t_rules(self) -> tuple:
        n = self.n // 2
        return _ito_rules(n, DELTA_ZBAR, 2) + _ito_rules(n, DELTA_Z, 2)

    def norm_sq(self):
        return super().norm_sq() * 2 ** self.p

    def weighted_inner(self, other: "PForm"):
        return super().weighted_inner(other) * 2 ** self.p
