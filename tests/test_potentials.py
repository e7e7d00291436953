import random
from fractions import Fraction

import pytest

from gauss_hodge import potentials
from gauss_hodge.errors import DomainError
from gauss_hodge.fields import ScalarField
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
