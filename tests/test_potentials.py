import math
import random
from fractions import Fraction

import pytest

from gauss_hodge import potentials
from gauss_hodge.bridge import solve_poincare_lelong_full
from gauss_hodge.calculus import ddbar
from gauss_hodge.errors import DomainError
from gauss_hodge.fields import ItoField, ScalarField
from gauss_hodge.potentials import parse_potential
from gauss_hodge.scalars import QC

from conftest import zzbar_poly_field

CAP = 8


def test_parse_z_conj_z():
    got = parse_potential("z*conj(z)", 1, CAP).to_he()
    assert got == zzbar_poly_field(1, CAP, {((1,), (1,)): 1})


def test_parse_polynomial_combination():
    got = parse_potential("2*z**2*conj(z) - 3*z + 1", 1, CAP).to_he()
    expected = zzbar_poly_field(1, CAP, {((2,), (1,)): 2, ((1,), (0,)): -3,
                                         ((0,), (0,)): 1})
    assert got == expected


def test_parse_multivariate():
    got = parse_potential("z1*conj(z2) + i*z2", 2, CAP).to_he()
    expected = zzbar_poly_field(2, CAP, {((1, 0), (0, 1)): 1,
                                         ((0, 1), (0, 0)): QC(0, 1)})
    assert got == expected


def test_parse_division_by_constant():
    got = parse_potential("z/2", 1, CAP).to_he()
    assert got == zzbar_poly_field(1, CAP, {((1,), (0,)): QC(Fraction(1, 2))})


def test_parse_caret_power_and_parens():
    got = parse_potential("(z + conj(z))^2", 1, CAP).to_he()
    expected = zzbar_poly_field(1, CAP, {((2,), (0,)): 1, ((1,), (1,)): 2,
                                         ((0,), (2,)): 1})
    assert got == expected


def test_parse_errors():
    with pytest.raises(DomainError):
        parse_potential("z/w", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z1/z1", 1, CAP)  # non-constant divisor
    with pytest.raises(DomainError):
        parse_potential("z2", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z", 2, CAP)
    with pytest.raises(DomainError):
        parse_potential("", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z**", 1, CAP)
    with pytest.raises(DomainError):
        parse_potential("z**10", 1, 4)  # degree above capacity
    # a digit of another script is not a digit of the grammar
    for text, n in (("z**\u0663*conj(z)", 1), ("\u0663*z\u0661", 1), ("z\u0661", 1),
                    ("\uff13*z", 1), ("z1**\u0968", 2)):
        with pytest.raises(DomainError, match="cannot tokenize"):
            parse_potential(text, n, CAP)


@pytest.mark.parametrize("n, capacity", [(1, 4.5), (True, 4), (1, True), (1.0, 4), ("1", 4)])
def test_dimension_and_capacity_must_be_ints(n, capacity):
    """A library caller's n and capacity are checked as file input is: a
    float or a bool never reaches the field."""
    with pytest.raises(DomainError, match="must be an integer"):
        parse_potential("z*conj(z)", n, capacity)


@pytest.mark.parametrize("text", ["(" * 1000 + "z*conj(z)" + ")" * 1000,
                                  "conj(" * 1000 + "z" + ")" * 1000], ids=["parens", "conj"])
def test_deep_nesting_is_a_domain_error(text):
    """The recursive-descent parser once let a RecursionError escape."""
    with pytest.raises(DomainError, match="nests too deeply"):
        parse_potential(text, 1, CAP)


@pytest.mark.parametrize("exact", [True, False])
def test_division_by_zero_is_named(exact):
    # exact=False reads the literals as doubles, as float mode does
    for text in ("z*conj(z)/0", "z/(1 - 1)", "z/(i*i + 1)"):
        with pytest.raises(DomainError, match="division by zero"):
            parse_potential(text, 1, CAP, double_literals=not exact)
    with pytest.raises(DomainError, match="only allowed by constants"):
        parse_potential("z/conj(z)", 1, CAP, double_literals=not exact)


def test_parse_nested_conj_and_signs():
    assert parse_potential("conj(conj(z))", 1, CAP).to_he() == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert parse_potential("--z", 1, CAP).to_he() == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): 1})
    assert parse_potential("-(z - conj(z))", 1, CAP).to_he() == \
        zzbar_poly_field(1, CAP, {((1,), (0,)): -1, ((0,), (1,)): 1})
    assert parse_potential("  z1 * conj( z2 ) ", 2, CAP).to_he() == \
        zzbar_poly_field(2, CAP, {((1, 0), (0, 1)): 1})
    # i behaves as the imaginary unit: i*i = -1
    assert parse_potential("i*i + 1", 1, CAP).is_zero()


def test_parse_float_mode():
    # float mode reads each integer literal as the nearest double ...
    text = f"{2 ** 60 + 1}*z*conj(z)"
    got = parse_potential(text, 1, CAP, double_literals=True)
    assert got == parse_potential(f"{2 ** 60}*z*conj(z)", 1, CAP)
    assert got != parse_potential(text, 1, CAP)
    # ... and computes on them exactly: 1/3 is not rounded
    assert parse_potential("z*conj(z)/3", 1, CAP, double_literals=True) == \
        parse_potential("z*conj(z)/3", 1, CAP)
    with pytest.raises(DomainError, match="too large for float mode"):
        parse_potential("9" * 400 + "*z", 1, CAP, double_literals=True)


# -- the parser against the old construction -----------------------------------
#
# A random expression is a tree of tuples.  It is rendered to text for the
# parser and evaluated independently by multiplying coordinate fields (the
# construction of conftest.zzbar_poly_field), the way potentials were built
# before the parser worked on z/zbar monomials.

SIZES = ((1, 6), (2, 5), (3, 4))  # (n, capacity)


def _degree(node) -> int:
    kind = node[0]
    if kind in ("const", "i"):
        return 0
    if kind == "var":
        return 1
    if kind in ("conj", "neg", "div"):
        return _degree(node[1])
    if kind in ("add", "sub"):
        return max(_degree(node[1]), _degree(node[2]))
    if kind == "mul":
        return _degree(node[1]) + _degree(node[2])
    return _degree(node[1]) * node[2]  # pow


def _divisor(rng):
    """A nonzero constant: k or (k - m*i) with k >= 1."""
    k = ("const", rng.randint(1, 9))
    if rng.random() < 0.5:
        return k
    return ("sub", k, ("mul", ("const", rng.randint(1, 4)), ("i",)))


def _random_tree(rng, n: int, budget: int, depth: int):
    if depth == 0 or (depth < 3 and rng.random() < 0.25):
        pick = rng.random()
        if budget >= 1 and pick < 0.7:
            return ("var", rng.randint(1, n), rng.random() < 0.4)
        return ("i",) if pick < 0.85 else ("const", rng.randint(0, 9))
    kind = rng.choice(["add", "sub", "mul", "mul", "mul", "pow", "pow", "conj", "neg", "div"])
    if kind in ("add", "sub"):
        return (kind, _random_tree(rng, n, budget, depth - 1),
                _random_tree(rng, n, budget, depth - 1))
    if kind == "mul":
        left = _random_tree(rng, n, budget // 2 + budget % 2, depth - 1)
        return (kind, left, _random_tree(rng, n, budget - _degree(left), depth - 1))
    if kind == "pow":
        k = rng.choice([0, 1, 2, 2, 3])
        part = budget // max(k, 1)
        base = (rng.choice(["add", "sub"]), _random_tree(rng, n, part, depth - 1),
                _random_tree(rng, n, part, depth - 1))
        return (kind, base, k)
    if kind == "div":
        return (kind, _random_tree(rng, n, budget, depth - 1), _divisor(rng))
    return (kind, _random_tree(rng, n, budget, depth - 1))


def _render(node, n: int) -> str:
    kind = node[0]
    if kind == "const":
        return str(node[1])
    if kind == "i":
        return "i"
    if kind == "var":
        name = "z" if n == 1 else f"z{node[1]}"
        return f"conj({name})" if node[2] else name
    if kind == "conj":
        return f"conj({_render(node[1], n)})"
    if kind == "neg":
        return f"-({_render(node[1], n)})"
    if kind == "pow":
        return f"({_render(node[1], n)})**{node[2]}"
    op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[kind]
    return f"({_render(node[1], n)}){op}({_render(node[2], n)})"


def _features(node) -> set:
    """The constructs the test must cover, found in one tree."""
    found = {node[0]}
    if node[0] in ("conj", "pow") and node[1][0] in ("add", "sub"):
        found.add(f"{node[0]}-of-sum")
    for child in node[1:]:
        if isinstance(child, tuple):
            found |= _features(child)
    return found


def _build(node, n: int, cap: int) -> ScalarField:
    """The tree's value as a field, from products of coordinate fields."""
    def const(value):
        return ScalarField.constant(value, 2 * n, cap, "complex")

    kind = node[0]
    if kind == "const":
        return const(node[1])
    if kind == "i":
        return const(QC(0, 1))
    if kind == "var":
        j = node[1]
        exps = (tuple(int(i == j - 1) for i in range(n)), (0,) * n)
        return zzbar_poly_field(n, cap, {exps[::-1] if node[2] else exps: 1})
    if kind == "conj":
        return _build(node[1], n, cap).conjugate()
    if kind == "neg":
        return -_build(node[1], n, cap)
    if kind == "pow":
        base = _build(node[1], n, cap)
        out = const(1)
        for _ in range(node[2]):
            out = out.multiply(base)
        return out
    left, right = _build(node[1], n, cap), _build(node[2], n, cap)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left.multiply(right)
    divisor = right.coeffs[(0,) * (2 * n)]
    return left.scale(QC(1) / divisor)


def _random_potentials(seed: int, count: int):
    rng = random.Random(seed)
    for k in range(count):
        n, cap = SIZES[k % len(SIZES)]
        tree = _random_tree(rng, n, cap, 4)
        for _ in range(rng.randint(1, 2)):
            tree = (rng.choice(["add", "sub"]), tree, _random_tree(rng, n, cap, 4))
        yield n, cap, tree


def test_random_potentials_cover_the_grammar():
    found = set().union(*(_features(tree) for _, _, tree in _random_potentials(5, 90)))
    assert {"conj-of-sum", "pow-of-sum", "i", "div", "neg", "sub", "const"} <= found


def test_random_potentials_equal_the_old_construction_exactly():
    for n, cap, tree in _random_potentials(5, 90):
        text = _render(tree, n)
        assert parse_potential(text, n, cap).to_he() == _build(tree, n, cap), text


def test_random_float_potentials_match_the_old_construction():
    # every literal is a double, so float mode reads the same potentials
    for n, cap, tree in _random_potentials(5, 90):
        text = _render(tree, n)
        assert parse_potential(text, n, cap, double_literals=True).to_he() == \
            _build(tree, n, cap), text


@pytest.mark.parametrize("exact", [True, False])
def test_error_messages_are_unchanged(exact):
    cases = [("z**7", 6, "potential degree 7 exceeds capacity 6"),
             ("(z + conj(z))**4*z**3", 6, "potential degree 7 exceeds capacity 6"),
             ("z", 0, "potential degree 1 exceeds capacity 0"),
             ("z + 1", 0, "potential degree 1 exceeds capacity 0"),
             ("conj(z) - 2", 0, "potential degree 1 exceeds capacity 0"),
             ("z*conj(z)/(2 - 2)", 6, "division by zero in potential"),
             ("z/conj(z)", 6, "division is only allowed by constants")]
    for text, cap, message in cases:
        with pytest.raises(DomainError) as err:
            parse_potential(text, 1, cap, double_literals=not exact)
        assert str(err.value) == message


def test_degree_above_capacity_fails_before_any_product(monkeypatch):
    built = []
    multiply = potentials._Parser.multiply

    def spy(self, p, q):
        out = multiply(self, p, q)
        built.append(max(map(sum, out), default=0))
        return out

    def refuse(*_):
        raise AssertionError("the parser must not multiply fields")

    monkeypatch.setattr(potentials._Parser, "multiply", spy)
    monkeypatch.setattr(ScalarField, "multiply", refuse)
    for text in ("z**99999", "(z + conj(z))**7", "(1 + z)**4*(conj(z) - i)**3"):
        built.clear()
        with pytest.raises(DomainError, match="exceeds capacity 6"):
            parse_potential(text, 1, 6)
        assert all(degree <= 6 for degree in built)
        if "*(" not in text:
            assert built == []
    parse_potential("(1 + z)**3*(conj(z) - i)**3", 1, 6)
    assert max(built) == 6


# -- Ito's table as the oracle -------------------------------------------------
# Random products of monomials are parsed and compared with an expansion built
# here, one complex pair at a time, z^a zbar^b = sum_k k! C(a,k) C(b,k)
# H_{a-k,b-k}, with each complex coefficient kept as a (re, im) Fraction pair.


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ito_expansion(monomials: dict) -> dict:
    """sum c z^a zbar^b over monomial keys (a_1, b_1, ..., a_n, b_n) as a map
    from Ito keys (p_1, q_1, ..., p_n, q_n) to nonzero QC coefficients."""
    out: dict = {}
    for key, (re, im) in monomials.items():
        terms = [((), 1)]
        for a, b in zip(key[0::2], key[1::2]):
            terms = [(prefix + (a - k, b - k),
                      w * math.factorial(k) * math.comb(a, k) * math.comb(b, k))
                     for prefix, w in terms for k in range(min(a, b) + 1)]
        for ito, w in terms:
            x, y = out.get(ito, (0, 0))
            out[ito] = (x + w * re, y + w * im)
    return {key: QC(re, im) for key, (re, im) in out.items() if re or im}


def _random_product(rng, n: int, budget: int):
    """(text, monomial key, (re, im)) of a random product of at most
    ``budget`` variables with powers, conj, i, literals and division by
    constants, e.g. -3*conj(z2)**2/(4 - 1*i)*i*conj(2*i*z1)."""
    key, coeff, factors = [0] * (2 * n), (Fraction(1), Fraction(0)), []
    for _ in range(rng.randint(1, 5)):
        pick = rng.random()
        j = rng.randint(1, n)
        var = "z" if n == 1 else f"z{j}"
        k = rng.randint(0, min(3, budget))
        if pick < 0.45 and k:
            budget -= k
            conj = rng.random() < 0.5
            key[2 * j - 2 + conj] += k
            form = rng.choice(["conj({v})**{k}", "conj({v}**{k})"] if conj else ["{v}**{k}"])
            if k == 1 and rng.random() < 0.5:
                form = "conj({v})" if conj else "{v}"
            factors.append("*" + form.format(v=var, k=k))
        elif pick < 0.55 and budget:
            budget -= 1
            key[2 * j - 1] += 1
            c = rng.randint(1, 9)
            coeff = _cmul(coeff, (c, -c))  # conj(c (1 + i))
            factors.append(f"*conj({c}*(1 + i)*{var})")
        elif pick < 0.7:
            coeff = _cmul(coeff, (0, 1))
            factors.append("*i")
        elif pick < 0.85:
            c = rng.randint(1, 9)
            coeff = _cmul(coeff, (c, 0))
            factors.append(f"*{c}")
        else:
            c, m = rng.randint(1, 9), rng.randint(0, 4)
            den = c * c + m * m
            coeff = _cmul(coeff, (Fraction(c, den), Fraction(m, den)))  # 1/(c - m i)
            factors.append(f"/({c} - {m}*i)" if m else f"/{c}")
    if factors[0][0] == "/":
        factors.insert(0, "*1")
    text = "".join(factors)[1:]
    if rng.random() < 0.3:
        text, coeff = "-" + text, (-coeff[0], -coeff[1])
    return text, tuple(key), coeff


def _render_monomial(key: tuple, coeff: tuple, n: int) -> str:
    re, im = coeff
    parts = [f"(({re.numerator})/{re.denominator} + ({im.numerator})/{im.denominator}*i)"]
    for j in range(n):
        var = "z" if n == 1 else f"z{j + 1}"
        a, b = key[2 * j], key[2 * j + 1]
        parts += [f"{var}**{a}"] * bool(a) + [f"conj({var})**{b}"] * bool(b)
    return "*".join(parts)


def test_products_of_monomials_follow_itos_table():
    rng = random.Random(32)
    texts = []
    for k in range(150):
        n = 1 + k % 3
        text, key, coeff = _random_product(rng, n, 6)
        cap = sum(key) + rng.randint(0, 2)
        want = _ito_expansion({key: coeff})
        for double_literals in (False, True):
            assert parse_potential(text, n, cap, double_literals).coeffs == want, text
        texts.append(text)
    joined = " ".join(texts)
    assert all(piece in joined for piece in ("**", "conj(", "*i", "/(", "-"))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            key = tuple(a + b for a, b in zip(kp, kq))
            x, y = out.get(key, (0, 0))
            c = _cmul(cp, cq)
            out[key] = (x + c[0], y + c[1])
    return {key: c for key, c in out.items() if c != (0, 0)}


def test_a_product_of_sums_is_the_sum_of_its_monomials():
    rng = random.Random(33)
    for k in range(45):
        n = 1 + k % 3
        terms = [_random_product(rng, n, 2) for _ in range(rng.randint(2, 3))]
        power = rng.randint(1, 3)
        other, other_key, other_coeff = _random_product(rng, n, 2)
        text = f"({' + '.join(t for t, _, _ in terms)})**{power}*({other})"
        base: dict = {}
        for _, key, c in terms:
            x, y = base.get(key, (0, 0))
            base[key] = (x + c[0], y + c[1])
        base = {key: c for key, c in base.items() if c != (0, 0)}
        poly = {(0,) * (2 * n): (Fraction(1), Fraction(0))}
        for _ in range(power):
            poly = _poly_mul(poly, base)
        poly = _poly_mul(poly, {other_key: other_coeff})
        cap = max(sum(key) for _, key, _ in terms) * power + sum(other_key)
        expanded = " + ".join(_render_monomial(key, c, n) for key, c in poly.items()) or "0"
        got = parse_potential(text, n, cap)
        assert got == parse_potential(expanded, n, cap), text
        assert got.coeffs == _ito_expansion(poly), text
    assert parse_potential("(z1+z2)**2*conj(z1)", 2, 3) == parse_potential(
        "z1**2*conj(z1) + 2*z1*z2*conj(z1) + z2**2*conj(z1)", 2, 3)


def test_lelong_u_is_the_potential_without_its_pluriharmonic_terms():
    """ddbar H_{p,q} = sum_{i,j} p_i q_j H_{p-e_i,q-e_j} dz_i ^ dzbar_j vanishes
    exactly when |p| = 0 or |q| = 0, and those terms span the kernel, so the
    minimal-norm u is w with them removed, ||u||^2 = sum |c_{p,q}|^2 p! q!
    and ||ddbar u||^2 = sum |c_{p,q}|^2 p! q! |p| |q|.  Neither side uses the
    solver or the spectrum."""
    rng = random.Random(34)
    kept_terms = 0
    for k in range(90):
        n, cap = SIZES[k % len(SIZES)]
        products = [_random_product(rng, n, cap - 2) for _ in range(rng.randint(1, 4))]
        for m, (text, key, c) in enumerate(products):
            if rng.random() < 0.7:  # times z_a conj(z_b)
                a, b = rng.randint(1, n), rng.randint(1, n)
                key = tuple(v + (i == 2 * a - 2) + (i == 2 * b - 1) for i, v in enumerate(key))
                text = (f"z*conj(z)*({text})" if n == 1
                        else f"z{a}*conj(z{b})*({text})")
                products[m] = text, key, c
        monomials: dict = {}
        for _, key, (re, im) in products:
            x, y = monomials.get(key, (0, 0))
            monomials[key] = (x + re, y + im)
        kept = {key: c for key, c in _ito_expansion(monomials).items()
                if any(key[0::2]) and any(key[1::2])}
        text = " + ".join(t for t, _, _ in products)
        u, report = solve_poincare_lelong_full(ddbar(parse_potential(text, n, cap)))
        assert u == ItoField(2 * n, cap, None, kept), text
        kept_terms += len(kept)
        levels = [((c.re ** 2 + c.im ** 2) * math.prod(map(math.factorial, key)),
                   sum(key[0::2]) * sum(key[1::2])) for key, c in kept.items()]
        out_sq = Fraction(sum(w for w, _ in levels))
        in_sq = Fraction(sum(w * pq for w, pq in levels))
        final = report.to_json()["final"]
        assert final["output_norm_sq"] == str(out_sq), text
        assert final["input_norm_sq"] == str(in_sq), text
        assert final["ratio"] == str(out_sq / in_sq if in_sq else Fraction(0)), text
    assert kept_terms > 120
