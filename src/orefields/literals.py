"""Text literals for field elements and infix element expressions.

Field-element literals accepted on the command line:

    rat:p | rat:p/q              rational (reduced mod l in characteristic l)
    quad:(a+b*sqrt(d))/c         element of QQ(sqrt(d)), integer a, b, d, c
    param:<expr in a>            rational function in the parameter a
    ff:l^n:c0,c1,...             element of GF(l^n), n >= 2, ascending coefficients

Infix expressions (for param literals and for elements in x, y, z, t) use
integer literals, named atoms, +, -, *, /, ^ and parentheses; see the
README for the full grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import FieldElem, GF, QQ, Qsqrt, _qdiv, with_parameter
from .orbits import Mat2Z

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class ExprError(ValueError):
    pass


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        pos = m.end()
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("int", int(num)))
        elif name is not None:
            tokens.append(("name", name))
        elif sym.strip():
            tokens.append(("op", sym))
    return tokens


class _Parser:
    """Recursive-descent parser over +, -, *, /, ^ and parentheses; the
    environment supplies the named atoms, so the same grammar evaluates
    field elements, rational functions and skew polynomials (left-to-right
    order of noncommuting products is preserved)."""

    def __init__(self, tokens, env, one):
        self.tokens = tokens
        self.pos = 0
        self.env = env
        self.one = one

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, sym):
        kind, val = self.take()
        if kind != "op" or val != sym:
            raise ExprError(f"expected {sym!r}")

    def parse(self):
        value = self.sum()
        if self.pos != len(self.tokens):
            raise ExprError("trailing input in expression")
        return value

    def sum(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        value = self.product()
        if negate:
            value = -value
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.product()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def product(self):
        value = self.power()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.power()
                value = value * rhs if val == "*" else value / rhs
            else:
                return value

    def power(self):
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ExprError("exponent must be an integer")
            return base ** (sign * val)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return self.one * val
        if kind == "name":
            if val not in self.env:
                raise ExprError(f"unknown name {val!r}")
            return self.env[val]
        if kind == "op" and val == "(":
            value = self.sum()
            self.expect(")")
            return value
        if kind == "op" and val == "-":
            return -self.atom()
        raise ExprError(f"unexpected token {val!r}")


def parse_expression(text: str, env: dict, one):
    """Evaluate an infix expression against named atoms; `one` is the
    multiplicative unit used to embed integer literals."""
    return _Parser(tokenize(text), env, one).parse()


_QUAD = re.compile(
    r"^\(?(-?\d+)\s*([+-])\s*(\d+)\*sqrt\((-?\d+)\)\)?(?:/(-?\d+))?$")


def parse_field_literal(text: str, char: int = 0) -> FieldElem:
    """Parse one of the rat:/quad:/param:/ff: literals; `char` selects the
    prime field behind rat: and param: literals.  A literal that divides by
    zero is a ValueError naming it, like any other malformed literal."""
    try:
        return _parse_field_literal(text, char)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in element literal {text!r}") from exc


def _parse_field_literal(text: str, char: int) -> FieldElem:
    if text == "param":
        text = "param:a"
    if ":" not in text:
        raise ValueError(f"malformed element literal {text!r}")
    head, _, body = text.partition(":")
    if head == "rat":
        frac = Fraction(body)
        field = QQ() if char == 0 else GF(char)
        return field.coerce(frac)
    if head == "quad":
        if char != 0:
            raise ValueError("quad literals require characteristic 0")
        m = _QUAD.match(body.replace(" ", ""))
        if not m:
            raise ValueError(f"malformed quad literal {body!r}")
        a, sign, b, d, c = m.groups()
        a, b, d = int(a), int(b), int(d)
        c = int(c) if c else 1
        if sign == "-":
            b = -b
        field = Qsqrt(d)
        return FieldElem(field, (_qdiv(a, c), _qdiv(b, c)))
    if head == "param":
        base = QQ() if char == 0 else GF(char)
        field = with_parameter(base)
        body = body.strip() or "a"
        return parse_expression(body, {"a": field.gen()}, field.one())
    if head == "ff":
        m = re.match(r"^(\d+)\^(\d+):(.+)$", body)
        if not m:
            raise ValueError(f"malformed ff literal {body!r}")
        ell, n, coeffs = int(m.group(1)), int(m.group(2)), m.group(3)
        if char and char != ell:
            raise ValueError(f"ff literal characteristic {ell} != --char {char}")
        field = GF(ell, n)
        if n < 2:       # GF(l) itself is written rat:
            raise ValueError("extension degree must be at least 2")
        vec = [int(c) % ell for c in coeffs.split(",")]
        if len(vec) > n:
            raise ValueError(f"coefficient vector longer than degree {n}")
        return FieldElem(field, field._pad(tuple(vec)))
    raise ValueError(f"unknown literal kind {head!r}")


def parse_matrix(text: str) -> Mat2Z:
    """n,q,m,r with the action (n*w + q)/(m*w + r)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("matrix literal needs four comma-separated integers")
    n, q, m, r = (int(p) for p in parts)
    return Mat2Z(n, q, m, r)


def parse_ratfunc(text: str, ctx, extra_env=None):
    """Infix expression in the two context variables (plus any extra named
    atoms, e.g. the parameter a) as a rational function."""
    v1, v2 = ctx.vars
    env = {v1: ctx.monomial(1, 0), v2: ctx.monomial(0, 1)}
    if hasattr(ctx.field, "gen"):
        env.setdefault("a", ctx.const(ctx.field.gen()))
    if extra_env:
        env.update(extra_env)
    return parse_expression(text, env, ctx.one())


def parse_skew(text: str, pres, extra_env=None):
    """Infix expression in x and the presentation's coefficient variables
    as a skew polynomial; product order is preserved."""
    v1, v2 = pres.ctx.vars
    env = {
        "x": pres.x,
        v1: pres.y,
        v2: pres.z,
    }
    if hasattr(pres.ctx.field, "gen"):
        env.setdefault("a", pres.embed(pres.ctx.const(pres.ctx.field.gen())))
    if extra_env:
        env.update(extra_env)
    return parse_expression(text, env, pres.embed(pres.ctx.one()))
