"""Text literals for field elements and infix element expressions.

Field-element literals accepted on the command line:

    rat:p | rat:p/q              integer p, positive q (reduced mod l in characteristic l)
    quad:(a+b*sqrt(d))/c         element of QQ(sqrt(d)), integer a, b, d, c
    param:<expr in a>            rational function in the parameter a
    ff:l^n:c0,c1,...             element of GF(l^n), n >= 2, ascending coefficients

Infix expressions (for param literals and for elements in x, y, z, t) use
integer literals, named atoms, +, -, *, /, ^ and parentheses; see the
README for the full grammar.  A run of signs applies to the whole power
after it, wherever it stands, so a sign binds looser than ^ and tighter
than * and /: -a^2 = -(a^2) and a*-a^2 = -(a^3).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import (
    FieldElem, GF, ParameterField, QQ, QuadraticField, Qsqrt, RationalField, _qdiv,
    with_parameter,
)
from .orbits import Mat2Z

# one token per match: (integer, name, symbol), exactly one of them nonempty
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")

# Bounds on the estimated size of a power in an expression, checked before
# it is computed.  Every param: literal of the CLI tests, the verification
# scripts and the benchmark workloads has degree at most 2 in a and
# integers of at most 3 bits, and the suites themselves raise alpha to the
# power l^2 (by substitution, so that degree costs no product).  A power
# is built by square and multiply on dense polynomials, whose cost grows
# with the square of the degree and with the bit length: over QQ,
# (a+1)^1024 took 0.24 s, ((a+1)/(a-1))^512 0.7 s and ((a+1)/(a-1))^1024
# 3.1 s, and over GF(7) ((a+1)/(a-1))^1024 took 0.12 s (Python 3.11, a
# 2-vCPU VM).  1024 is 512 times the largest degree the suites are given
# and keeps every power within a few seconds; param:a^99999999999 would
# otherwise run for minutes and fill memory.
MAX_POWER_DEGREE = 1024
MAX_POWER_BITS = 1024


class ExprError(ValueError):
    pass


def _rep_size(K, rep) -> tuple:
    """(degree in a, bits) of a raw rep of K; bits is the largest
    bit length of a rational number in it, numerator and denominator
    together, and 0 in characteristic l, where numbers do not grow."""
    if isinstance(K, ParameterField):
        if not rep[0]:
            return 0, 0
        sizes = [_rep_size(K.base, c) for c in rep[0] + rep[1]]
        return max(len(rep[0]), len(rep[1])) - 1, max(b for _, b in sizes)
    if isinstance(K, QuadraticField):
        return 0, max(map(_bits, rep))
    if isinstance(K, RationalField):
        return 0, _bits(rep)
    return 0, 0


def _bits(q) -> int:
    q = Fraction(q)
    return abs(q.numerator).bit_length() + q.denominator.bit_length() - 1


def _size(value) -> tuple:
    """(degree, bits) of an expression value: its total degree in a and in
    the variables of a rational function or a skew polynomial, and the
    largest bit length of `_rep_size`."""
    if isinstance(value, FieldElem):
        return _rep_size(value.field, value.rep)
    coeffs = getattr(value, "coeffs", None)      # a skew polynomial
    if coeffs is not None:
        sizes = [(k + d, b) for k, c in coeffs.items() for d, b in [_size(c)]]
    else:                                        # a rational function
        K = value.ctx.field
        sizes = [(i + j + d, b) for p in (value.num, value.den)
                 for (i, j), c in p.items() for d, b in [_rep_size(K, c)]]
    return tuple(map(max, zip(*sizes))) if sizes else (0, 0)


def _check_power(value, n: int):
    """Refuse value^n when its estimated size, |n| times that of value,
    passes MAX_POWER_DEGREE or MAX_POWER_BITS."""
    degree, bits = _size(value)
    if abs(n) * degree > MAX_POWER_DEGREE or abs(n) * bits > MAX_POWER_BITS:
        raise ExprError(f"power ^{n} of a value of degree {degree} with {bits}-bit numbers "
                        f"passes the bound of degree {MAX_POWER_DEGREE} or "
                        f"{MAX_POWER_BITS}-bit numbers")


def parse_expression(text: str, env: dict, one):
    """Evaluate an infix expression against named atoms by recursive
    descent over expression -> term -> factor -> atom (a factor reads its
    signs and its power itself); `one` is the multiplicative unit used to
    embed integer literals.  Products keep their left-to-right order, so
    the same grammar evaluates field elements, rational functions and skew
    polynomials.  Nesting deeper than the interpreter's stack allows is an
    ExprError."""
    tokens = _TOKEN.findall(text) + [("", "", None)]     # None marks the end
    pos = 0

    def take(*symbols):
        # consume the next token and return its symbol if it is one of symbols
        nonlocal pos
        if tokens[pos][2] in symbols:
            pos += 1
            return tokens[pos - 1][2]

    def expression():
        value = term()
        while op := take("+", "-"):
            value = value + term() if op == "+" else value - term()
        return value

    def term():
        value = factor()
        while op := take("*", "/"):
            value = value * factor() if op == "*" else value / factor()
        return value

    def factor():
        # { "+" | "-" } power, with power = atom [ "^" ["-"] integer ]
        nonlocal pos
        negate = False
        while op := take("+", "-"):
            negate ^= op == "-"
        value = atom()
        if take("^"):
            sign = -1 if take("-") else 1
            if not tokens[pos][0]:
                raise ExprError("exponent must be an integer")
            pos += 1
            n = sign * int(tokens[pos - 1][0])
            _check_power(value, n)
            value = value ** n
        return -value if negate else value

    def atom():
        nonlocal pos
        integer, name, symbol = tokens[pos]
        pos += 1
        if integer:
            return one * int(integer)
        if name:
            if name not in env:
                raise ExprError(f"unknown name {name!r}")
            return env[name]
        if symbol == "(":
            value = expression()
            if not take(")"):
                raise ExprError("expected ')'")
            return value
        raise ExprError(f"unexpected token {symbol!r}")

    try:
        value = expression()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
    if pos != len(tokens) - 1:
        raise ExprError("trailing input in expression")
    return value


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
        m = re.fullmatch(r"([+-]?\d+)(?:/(\d+))?", body.strip())
        if not m:
            raise ValueError(f"malformed rat literal {body!r}")
        field = QQ() if char == 0 else GF(char)
        return field.coerce(Fraction(int(m[1]), int(m[2] or 1)))
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
