"""A small expression parser for polynomial potentials on C^n.

Grammar (case-sensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom (('**' | '^') integer)?
    atom   := integer | 'i' | variable | 'conj' '(' expr ')' | '(' expr ')'

Variables are ``z`` (only when n = 1) or ``z1`` .. ``zn``.  Division is only
allowed by constant subexpressions, keeping everything polynomial.  A variable,
product or power of degree above the capacity is refused before it is built;
no other step raises the degree, so the result is not checked again.

The parser's values are sparse polynomials in z and zbar: maps from keys
(a_1, b_1, ..., a_n, b_n) for prod_j z_j^{a_j} zbar_j^{b_j} to coefficients.
Products add exponents, conj swaps each (a_j, b_j) and conjugates the
coefficient, and sums act on coefficients.  The result is converted once, at
the end, to a complex field on R^{2n} under z_j = x_{2j-1} + i x_{2j} over
Ito's complex Hermite basis H_{p,q} (an ItoField), one complex pair at a
time through Ito's table (Ito 1952)

    z^a zbar^b = sum_k k! C(a,k) C(b,k) H_{a-k,b-k},

whose weights are integers.  The field stays over H_{p,q}: ddbar of it is an
ItoForm, which is what the Poincare-Lelong pipeline solves in.

In float mode each integer literal is read as the nearest double, as a JSON
number would be, and a literal beyond the double range is refused; the
arithmetic on the literals is exact either way.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import DomainError
from .fields import (COMPLEX, ItoField, _accumulate, _convert_pairs, _finish, _identity_rule,
                     _swap_pairs)
from .scalars import IMAG_UNIT, QC, coerce_scalar, json_int

# re.ASCII: \d is 0-9 only, so a digit of another script cannot tokenize; the
# skipped whitespace stays Unicode's
_TOKEN = re.compile(r"(?u:\s*)(\*\*|[()+\-*/^]|conj|i\b|z\d*|\d+)", re.ASCII)


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise DomainError(f"cannot tokenize potential near {text[pos:pos + 12]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def _degree(poly: dict):
    """Largest total degree present, or None for the zero polynomial."""
    return max(map(sum, poly), default=None)


class _Parser:
    def __init__(self, tokens: list[str], n: int, capacity: int, double_literals: bool):
        self.tokens = tokens + [None]  # the sentinel that peek reads at the end
        self.pos = 0
        self.n = n
        self.capacity = capacity
        self.double_literals = double_literals

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise DomainError("unexpected end of potential expression")
        if expected is not None and tok != expected:
            raise DomainError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def check_degree(self, degree: int):
        """Refuse a variable (degree 1) or a product (the sum of its factors'
        degrees) before it is built when its degree exceeds the capacity."""
        if degree > self.capacity:
            raise DomainError(f"potential degree {degree} exceeds capacity {self.capacity}")

    def constant(self, value) -> dict:
        value = coerce_scalar(value, True)
        return {(0,) * (2 * self.n): value} if value else {}

    def literal(self, tok: str) -> dict:
        """An integer literal, read as the nearest double in float mode."""
        value = int(tok)
        if self.double_literals:
            try:
                value = Fraction(float(value))
            except OverflowError:
                raise DomainError(f"integer {tok[:12]}... in potential is too large "
                                  f"for float mode") from None
        return self.constant(value)

    def variable(self, j: int) -> dict:
        if j < 1 or j > self.n:
            raise DomainError(f"variable z{j} outside 1..{self.n}")
        self.check_degree(1)
        key = [0] * (2 * self.n)
        key[2 * j - 2] = 1
        # the constructor, not a shared constant: bench/test_bench.py counts QC
        # constructions, and this is the only one on the lelong path
        return {tuple(key): QC(1)}

    def multiply(self, p: dict, q: dict) -> dict:
        """The product: each pair of monomials adds its exponents.  Two
        monomials make one key sum and one QC product."""
        if len(p) == 1 == len(q):
            (kp, vp), (kq, vq) = *p.items(), *q.items()
            return {tuple(map(add, kp, kq)): vp * vq}
        acc: dict = {}
        for kp, vp in p.items():
            _accumulate(acc, q.items(), lambda kq: ((tuple(map(add, kp, kq)), 1),), vp)
        return _finish(acc, self.capacity)

    def parse(self) -> dict:
        out = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing tokens in potential: {self.tokens[self.pos:-1]}")
        return out

    def expr(self) -> dict:
        """A sum of terms; a lone term is returned as built, already reduced."""
        first = self.term()
        if self.peek() not in ("+", "-"):
            return first
        acc: dict = {}
        _accumulate(acc, first.items(), _identity_rule)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            _accumulate(acc, self.term().items(), _identity_rule, sign)
        return _finish(acc, self.capacity)

    def term(self) -> dict:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                self.check_degree((_degree(out) or 0) + (_degree(rhs) or 0))
                out = self.multiply(out, rhs)
            else:
                if not rhs:
                    raise DomainError("division by zero in potential")
                if _degree(rhs) != 0:
                    raise DomainError("division is only allowed by constants")
                const = next(iter(rhs.values()))
                out = _scale(out, QC(1) / const)
        return out

    def factor(self) -> dict:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.power()
        return out if sign == 1 else _scale(out, -1)

    def power(self) -> dict:
        base = self.atom()
        if self.peek() in ("**", "^"):
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise DomainError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            k = int(exp_tok)
            self.check_degree((_degree(base) or 0) * k)
            # by squaring from the base itself; every square has degree at most
            # that of the result
            out = None
            while k:
                if k & 1:
                    out = base if out is None else self.multiply(out, base)
                k >>= 1
                if k:
                    base = self.multiply(base, base)
            return self.constant(1) if out is None else out
        return base

    def atom(self) -> dict:
        tok = self.take()
        if tok.isdigit():
            return self.literal(tok)
        if tok == "i":
            return self.constant(IMAG_UNIT)
        if tok == "conj":
            self.take("(")
            inner = self.expr()
            self.take(")")
            swap = _swap_pairs(2 * self.n)
            return {swap(key): val.conjugate() for key, val in inner.items()}
        if tok == "(":
            inner = self.expr()
            self.take(")")
            return inner
        if tok.startswith("z"):
            if tok == "z":
                if self.n != 1:
                    raise DomainError("plain 'z' is only valid when n = 1; use z1..zn")
                return self.variable(1)
            return self.variable(int(tok[1:]))
        raise DomainError(f"unexpected token {tok!r} in potential")


def _scale(poly: dict, s) -> dict:
    """s times a polynomial, for a nonzero s."""
    return {key: s * val for key, val in poly.items()}


@lru_cache(maxsize=None)
def _monomial_to_ito(a: int, b: int) -> tuple:
    """z^a zbar^b in one complex pair as ((p, q), weight) pairs over H_{p,q}:
    sum_k k! C(a,k) C(b,k) H_{a-k,b-k}, with integer weights."""
    return tuple(((a - k, b - k), math.factorial(k) * math.comb(a, k) * math.comb(b, k))
                 for k in range(min(a, b) + 1))


def parse_potential(text: str, n: int, capacity: int,
                    double_literals: bool = False) -> ItoField:
    """Parse a polynomial in z1..zn (and conj) into a complex field on R^{2n}
    over H_{p,q}; ``double_literals`` reads each integer literal as the
    nearest double, as float mode does."""
    if json_int(n, "n") < 1 or json_int(capacity, "capacity") < 0:
        raise DomainError(f"potential needs n >= 1 and capacity >= 0, got {n}, {capacity}")
    tokens = _tokenize(text)
    if not tokens:
        raise DomainError("empty potential expression")
    try:
        parsed = _Parser(tokens, n, capacity, double_literals).parse()
    except RecursionError:
        raise DomainError("potential nests too deeply") from None
    return ItoField._trusted(2 * n, capacity, COMPLEX,
                             _convert_pairs(parsed, 2 * n, _monomial_to_ito))
