"""A small expression parser for polynomial potentials on C^n.

Grammar (case-sensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom (('**' | '^') integer)?
    atom   := integer | 'i' | variable | 'conj' '(' expr ')' | '(' expr ')'

Variables are ``z`` (only when n = 1) or ``z1`` .. ``zn``.  Division is only
allowed by constant subexpressions, keeping everything polynomial.  The
result is an exact complex field on R^{2n} under z_j = x_{2j-1} + i x_{2j}.
"""

from __future__ import annotations

import re

from .errors import DomainError
from .fields import COMPLEX, ScalarField
from .scalars import QC

_TOKEN = re.compile(r"\s*(\*\*|[()+\-*/^]|conj|i\b|z\d*|\d+)")


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


class _Parser:
    def __init__(self, tokens: list[str], n: int, capacity: int, exact: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.capacity = capacity
        self.exact = exact

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise DomainError("unexpected end of potential expression")
        if expected is not None and tok != expected:
            raise DomainError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def check_degree(self, degree: int):
        """Refuse a product before it is built when its degree, which is the
        sum of its factors' degrees, exceeds the capacity."""
        if degree > self.capacity:
            raise DomainError(f"potential degree {degree} exceeds capacity {self.capacity}")

    def constant(self, value) -> ScalarField:
        return ScalarField.constant(value, 2 * self.n, self.capacity, COMPLEX, self.exact)

    def variable(self, j: int) -> ScalarField:
        if j < 1 or j > self.n:
            raise DomainError(f"variable z{j} outside 1..{self.n}")
        x = ScalarField.coordinate(2 * j - 1, 2 * self.n, self.capacity, COMPLEX, self.exact)
        y = ScalarField.coordinate(2 * j, 2 * self.n, self.capacity, COMPLEX, self.exact)
        return x + y.scale(QC(0, 1) if self.exact else 1j)

    def parse(self) -> ScalarField:
        out = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing tokens in potential: {self.tokens[self.pos:]}")
        return out

    def expr(self) -> ScalarField:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> ScalarField:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                # multiply() widens the capacity; clamped once at the end
                self.check_degree((out.degree or 0) + (rhs.degree or 0))
                out = out.multiply(rhs)
            else:
                if rhs.is_zero():
                    raise DomainError("division by zero in potential")
                const = _as_constant(rhs)
                if const is None:
                    raise DomainError("division is only allowed by constants")
                out = out.scale(QC(1) / const if self.exact else 1 / const)
        return out

    def factor(self) -> ScalarField:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.power()
        return out if sign == 1 else -out

    def power(self) -> ScalarField:
        base = self.atom()
        if self.peek() in ("**", "^"):
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise DomainError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            k = int(exp_tok)
            self.check_degree((base.degree or 0) * k)
            # by squaring; every square has degree at most that of the result
            out = self.constant(1)
            while k:
                if k & 1:
                    out = out.multiply(base)
                k >>= 1
                if k:
                    base = base.multiply(base)
            return out
        return base

    def atom(self) -> ScalarField:
        tok = self.take()
        if tok.isdigit():
            return self.constant(int(tok))
        if tok == "i":
            return self.constant(QC(0, 1) if self.exact else 1j)
        if tok == "conj":
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner.conjugate()
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


def _as_constant(field: ScalarField):
    deg = field.degree
    if deg != 0:
        return None
    return next(iter(field.coeffs.values()))


def parse_potential(text: str, n: int, capacity: int, exact: bool = True) -> ScalarField:
    """Parse a polynomial in z1..zn (and conj) into a complex field on R^{2n}."""
    if n < 1:
        raise DomainError("potential needs n >= 1")
    tokens = _tokenize(text)
    if not tokens:
        raise DomainError("empty potential expression")
    parsed = _Parser(tokens, n, capacity, exact).parse()
    top = parsed.degree or 0
    if top > capacity:
        raise DomainError(f"potential degree {top} exceeds capacity {capacity}")
    return parsed.with_capacity(capacity)
