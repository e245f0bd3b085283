"""Truncated formal pseudodifferential operators k(v1,v2)((u; delta)).

A series is a finite map exponent -> coefficient together with a
precision N: coefficients are exact for every exponent <= N and unknown
beyond.  The commutation law is

    u*a = a*u + sum_{j>=1} delta^j(a) u^{j+1}

for coefficients a, and u^{-1}*a = a*u^{-1} - delta(a), which is exact.
So the series are the completion of the skew polynomials k(v1,v2)[x; D]
at v = -deg_x, through the dictionary x = u^-1, D = -delta, on
{x-degree: coefficient} dicts with negative degrees, cut at x-degree -N.
A product fixes N first and runs the product dispatcher of skew
polynomials, `skewpoly._skew_product`, with the floor -N: the closed
forms where they apply (a right factor with constant coefficients, such
as u or u - c, a constant or a coefficient on the left, and constant
coefficients against one eigenvector term g_j u^k, whose infinite sum is
cut at the floor), and the one Ore product loop otherwise.  The inverse
runs that loop directly, on the side of a b = 1 or b a = 1 on which it
forms no derivative where it can (see `pdo_inv`).  Coercion, sums,
differences, negation and powers are those of `skewpoly.OreSum`, as for
skew polynomials.  Every operation propagates
precision pessimistically, so all stored coefficients are exact.
"""

from __future__ import annotations

import math

from .fields import _join_terms
from .ratfunc import Derivation, RatFunc2
from .skewpoly import OreSum, SkewPoly, _skew_product, _terms

DEFAULT_PRECISION = 8


class PdoSeries(OreSum):
    """sum_n a_n u^n with left coefficients, exact through exponent prec."""

    __slots__ = ("prec",)
    _noun = _adjective = "series"
    terms = OreSum.coeffs       # the series' name for {exponent: coefficient}

    def __init__(self, derivation: Derivation, terms=None, prec: int = DEFAULT_PRECISION):
        self.derivation = derivation
        self.prec = prec
        cleaned = {}
        for n, c in (terms or {}).items():
            if n <= prec and not c.is_zero():
                cleaned[n] = c
        self.terms = cleaned

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero(cls, derivation, prec=DEFAULT_PRECISION):
        return cls(derivation, {}, prec)

    @classmethod
    def one(cls, derivation, prec=DEFAULT_PRECISION):
        return cls(derivation, {0: derivation.ctx.one()}, prec)

    @classmethod
    def u(cls, derivation, prec=DEFAULT_PRECISION, power: int = 1):
        return cls(derivation, {power: derivation.ctx.one()}, prec)

    @classmethod
    def from_ratfunc(cls, derivation, f: RatFunc2, prec=DEFAULT_PRECISION):
        return cls(derivation, {0: f}, prec)

    def _like(self, terms, other=None):
        prec = self.prec if other is None else min(self.prec, other.prec)
        return PdoSeries(self.derivation, terms, prec)

    def _top(self, other):
        return min(self.prec, other.prec)

    # -- structure ---------------------------------------------------------------
    def valuation(self):
        """Least exponent with a (known) nonzero coefficient; +infinity if
        the series is zero through its precision."""
        return min(self.terms) if self.terms else math.inf

    def truncate(self, prec: int) -> PdoSeries:
        return PdoSeries(self.derivation, self.terms, min(self.prec, prec))

    def is_zero_mod_prec(self):
        return not self.terms

    def approx_eq(self, other) -> bool:
        """Equality of all coefficients through the weaker precision."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare a series with {type(other).__name__} {other!r}")
        n = min(self.prec, o.prec)
        keys = {k for k in self.terms if k <= n} | {k for k in o.terms if k <= n}
        zero = self.ctx.zero()
        return all(self.terms.get(k, zero) == o.terms.get(k, zero) for k in keys)

    # -- arithmetic ----------------------------------------------------------------
    # bound here, not only inherited, for the tracer of perfbench/spans.py
    # (see SkewPoly)
    __add__ = __radd__ = OreSum.__add__
    __sub__, __rsub__, __neg__ = OreSum.__sub__, OreSum.__rsub__, OreSum.__neg__
    __rmul__, __pow__ = OreSum.__rmul__, OreSum.__pow__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        bounds = [self.prec + o.prec + 1]
        if o.terms:
            bounds.append(self.prec + min(o.terms))
        if self.terms:
            bounds.append(o.prec + min(self.terms))
        N = min(bounds)
        prod = _skew_product(_flip(self.terms), _flip(o.terms), self.derivation.negate(), -N)
        return PdoSeries(self.derivation, _flip(prod), N)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.prec == o.prec and self.terms == o.terms

    __hash__ = None

    def inverse(self) -> PdoSeries:
        return pdo_inv(self)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * pdo_inv(o)

    def __str__(self):
        parts = []
        for n in sorted(self.terms):
            c = str(self.terms[n])
            if any(op in c[1:] for op in "+-/"):
                c = f"({c})"
            if n == 0:
                parts.append(c)
            else:
                us = "u" if n == 1 else f"u^{n}"
                parts.append(us if c == "1" else f"{c}*{us}")
        parts.append(f"O(u^{self.prec + 1})")
        return _join_terms(parts)

    def __repr__(self):
        return f"<pdo {self}>"


def _flip(terms: dict) -> dict:
    """{-n: c} for {n: c}: u-exponents as x-degrees, x being u^-1, and
    back."""
    return {-n: c for n, c in terms.items()}


# ---------------------------------------------------------------------------
# operation-style entry points

def pdo_mul(a: PdoSeries, b: PdoSeries) -> PdoSeries:
    return a * b


def pdo_valuation(a: PdoSeries):
    return a.valuation()


def pdo_from_skew(f: SkewPoly, prec: int = DEFAULT_PRECISION) -> PdoSeries:
    """Image of sum f_i x^i under x -> u^{-1}; exact and finite, since the
    coefficients already sit on the left.  The series derivation is
    delta = -D for the skew derivation D, so that u^{-1} a = a u^{-1} + D(a)
    matches x a = a x + D(a)."""
    return PdoSeries(f.derivation.negate(), _flip(f.coeffs), prec)


def pdo_inv(a: PdoSeries, prec: int | None = None) -> PdoSeries:
    """Two-sided inverse up to precision; valuation negates.

    Solves a * b = 1, or b * a = 1 for the same b, one coefficient at a
    time.  With v = v(a), order e needs only the coefficient e + v of the
    product of a with b_{-v} u^{-v} + ... + b_{e-1} u^{e-1}; b_e enters it
    through the leading term a_v alone, on either side, k(v1, v2) being
    commutative, so b_e = -a_v^{-1} [u^(e + v)] and the system is
    triangular over k(v1, v2).  Each new b_e u^e is multiplied by a once,
    cut at u^(target + v); the terms of the product wait in one list per
    exponent, which is summed once, when the loop reads it.  The order-0
    term a_v b_e would land on the exponent just read, and is not formed.

    The side is the one on which the derivation costs least.  In a * b,
    delta^j falls on each b_e, formed once per order j.  In b * a it falls
    on the coefficients of a, and where each is a constant or a Laurent
    monomial under a scaling derivation (`Derivation.eigenvalue`), as in
    u + y, delta^j(a_n) = lambda^j a_n is a weight, with no derivative
    formed; so that side is solved there, and a * b = 1 everywhere else.

    a, known through u^N, determines its inverse through u^(N - 2v) and no
    further, which is the default precision and the largest one accepted.
    """
    if not a.terms:
        raise ZeroDivisionError("inverse of a series that is zero through its precision")
    va = min(a.terms)
    known = a.prec - 2 * va
    target = known if prec is None else prec
    if target < -va:
        raise ValueError("insufficient precision to express the inverse")
    if target > known:
        raise ValueError(f"the inverse is determined only through u^{known}, "
                         f"not u^{target}")
    D, ax, floor = a.derivation.negate(), _flip(a.terms), -(target + va)
    left = all(c.is_constant() or D.eigenvalue(c) is not None for c in ax.values())

    def scatter(bx, pending, top):
        """The terms of b_e u^e times a (b * a where left, else a * b)."""
        return _terms(*((bx, ax) if left else (ax, bx)), D, pending, 0, floor, top)

    lead_inv = a.terms[va].inverse()
    terms = {-va: lead_inv}
    pending = scatter({va: lead_inv}, {}, -1)
    for e in range(-va + 1, target + 1):
        slot = pending.pop(-e - va, None)
        prod = RatFunc2.weighted_sum(slot) if slot else None
        if prod is not None and not prod.is_zero():
            terms[e] = lead_inv * -prod
            scatter({-e: terms[e]}, pending, -e - va - 1)
    return PdoSeries(a.derivation, terms, target)


def leading_constraint_check(Xinv: PdoSeries, Y: PdoSeries, Z: PdoSeries,
                             beta, D: Derivation) -> RatFunc2:
    """Extract the leading data c1 = [u]Xinv, y0 = [1]Y, z0 = [1]Z and test
    the first-order constraints c1 = D(y0)/y0, beta*c1 = D(z0)/z0, along
    with the full commutation identities
        Y*Xinv - Xinv*Y = Xinv*Y*Xinv
        Z*Xinv - Xinv*Z = beta * Xinv*Z*Xinv
    through the available precision.  Returns c1, or raises
    ArithmeticError naming the first constraint that fails; inputs of the
    wrong shape are a ValueError."""
    field = D.ctx.field
    beta = field.coerce(beta)
    delta = D.negate()
    for series in (Xinv, Y, Z):
        if series.derivation != delta:
            raise ValueError("series must carry the commutation derivation -D")
    if min(p.prec for p in (Xinv, Y, Z)) < 1:
        raise ValueError("precision too low to extract the leading constraint")
    if Xinv.valuation() != 1:
        raise ValueError(f"X^-1 must have valuation 1, got {Xinv.valuation()}")
    if Y.valuation() != 0 or Z.valuation() != 0:
        raise ValueError("Y and Z must have valuation 0")

    c1 = Xinv.coefficient(1)
    y0 = Y.coefficient(0)
    z0 = Z.coefficient(0)
    if y0.is_constant():
        raise ArithmeticError("y0 is a constant; it must generate a nontrivial eigenline")
    if z0.is_constant():
        raise ArithmeticError("z0 is a constant; it must generate a nontrivial eigenline")
    if D(y0) / y0 != c1:
        raise ArithmeticError("c1 != D(y0)/y0")
    if D(z0) / z0 != beta * c1:
        raise ArithmeticError("beta*c1 != D(z0)/z0")
    XY, XZ = Xinv * Y, Xinv * Z
    if not (Y * Xinv - XY - XY * Xinv).is_zero_mod_prec():
        raise ArithmeticError("Y-relation fails at some computed order")
    if not (Z * Xinv - XZ - (XZ * Xinv) * beta).is_zero_mod_prec():
        raise ArithmeticError("Z-relation fails at some computed order")
    return c1
