"""Skew polynomial arithmetic for an Ore extension k(v1,v2)[x; D].

Elements are finite sums sum_i f_i * x^i with left coefficients f_i in
k(v1, v2) and the twisted multiplication x*f = f*x + D(f).  Powers of x
are pushed past coefficients with the iterated-derivation binomial
expansion,

    x^i g = sum_{s <= i} C(i, s) D^s(g) x^(i - s),

so products are exact.  In characteristic l only the orders s with
C(i, s) != 0 mod l are formed, read off the base-l digits of i by Lucas'
theorem, and D^s(g) is taken only at those orders, each from the one
before by `Derivation.power`, until it vanishes.  Where D scales each
term of a Laurent coefficient g (the family g_alpha), that is one step,
lambda^s times each term, not a chain of derivatives.  A commutator
fg - gf leaves out the order-0 terms f_i g_j x^(i+j) of both products,
which are equal because k(v1, v2) is commutative.
"""

from __future__ import annotations

import math

from .fields import _coeff_term, _join_terms, _power
from .ratfunc import Derivation, RatFunc2


def binomial_orders(i: int, ell: int, lowest: int = 0, top: int | None = None):
    """The pairs (s, C(i, s)) with lowest <= s <= min(i, top) and C(i, s)
    nonzero in characteristic ell, in ascending s, the binomial taken mod
    ell.  By Lucas' theorem those s are the ones whose every base-ell digit
    is at most the digit of i, so they are read off the digits of i, not
    found by a scan over 0..i."""
    top = i if top is None else min(i, top)
    if top < lowest:
        return []
    if not ell:
        return [(s, math.comb(i, s)) for s in range(lowest, top + 1)]
    digits = []                     # base-ell digits of i, lowest first
    while i:
        i, d = divmod(i, ell)
        digits.append(d)
    # (s, C(i, s) mod ell) over the digits seen so far, ascending in s
    orders, place = [(0, 1)], 1
    for d in digits:
        orders = [(s + t * place, b * math.comb(d, t) % ell)
                  for t in range(d + 1) for s, b in orders if s + t * place <= top]
        place *= ell
    return [(s, b) for s, b in orders if s >= lowest]


class SkewPoly:
    """sum_i f_i x^i, stored as {degree: coefficient} with no zero values."""

    __slots__ = ("derivation", "coeffs")

    def __init__(self, derivation: Derivation, coeffs=None):
        self.derivation = derivation
        cleaned = {}
        for i, c in (coeffs or {}).items():
            if i < 0:
                raise ValueError("skew polynomials have nonnegative x-degrees")
            if not c.is_zero():
                cleaned[i] = c
        self.coeffs = cleaned

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, derivation):
        return cls(derivation, {})

    @classmethod
    def one(cls, derivation):
        return cls(derivation, {0: derivation.ctx.one()})

    @classmethod
    def x(cls, derivation):
        return cls(derivation, {1: derivation.ctx.one()})

    @classmethod
    def from_coeff(cls, derivation, f):
        if not isinstance(f, RatFunc2):
            f = derivation.ctx.const(f)
        return cls(derivation, {0: f})

    # -- helpers ---------------------------------------------------------------
    @property
    def ctx(self):
        return self.derivation.ctx

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if other.derivation != self.derivation:
                raise ValueError("skew polynomials over different derivations")
            return other
        if isinstance(other, RatFunc2):
            if other.ctx != self.ctx:
                raise ValueError("coefficient from a different context")
            return SkewPoly(self.derivation, {0: other})
        c = self.ctx.field.try_coerce(other)
        if c is None:
            return None
        return SkewPoly.from_coeff(self.derivation, self.ctx.const(other))

    def degree(self):
        return max(self.coeffs) if self.coeffs else -math.inf

    def coefficient(self, i: int) -> RatFunc2:
        return self.coeffs.get(i, self.ctx.zero())

    def is_zero(self):
        return not self.coeffs

    # -- ring operations --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for i, c in o.coeffs.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return SkewPoly(self.derivation, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return SkewPoly(self.derivation, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SkewPoly(self.derivation, _product(self, o, 0))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("skew powers take nonnegative integer exponents")
        return _power(self, n, SkewPoly.one(self.derivation))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def __str__(self):
        parts = []
        for i in sorted(self.coeffs, reverse=True):
            c = str(self.coeffs[i])
            if i == 0:
                if any(op in c[1:] for op in "+-") and not c.startswith("("):
                    c = f"({c})"
                parts.append(c)
            else:
                parts.append(_coeff_term(c, "x" if i == 1 else f"x^{i}"))
        return _join_terms(parts)

    def __repr__(self):
        return f"<skew {self}>"


def _product(f: SkewPoly, g: SkewPoly, lowest: int) -> dict:
    """The terms of order s >= lowest of f g, as {degree: coefficient}:
    each x^i g_j is expanded as sum_s C(i, s) D^s(g_j) x^(i - s), at the
    orders s whose binomial does not vanish in the characteristic, and only
    at order 0 where every g_j is constant.  D^s(g_j) is taken only at
    those orders, each from the one before it by `Derivation.power`, and
    not past its first zero."""
    if not f.coeffs or not g.coeffs:
        return {}
    D = f.derivation
    field = f.ctx.field
    # D kills constants, so against constant g_j only order 0 is listed;
    # all the orders of a dense f of degree near l cost more than the product
    top = 0 if all(gj.is_constant() for gj in g.coeffs.values()) else None
    # the binomials of each f_i, None standing for 1
    weights = {i: [(s, None if b == 1 else field.from_int(b))
                   for s, b in binomial_orders(i, field.char, lowest, top)]
               for i in f.coeffs}
    needed = sorted({s for row in weights.values() for s, _ in row})
    out = {}
    for j, gj in g.coeffs.items():
        ders, d, at = {}, gj, 0
        for s in needed:
            d, at = D.power(d, s - at), s
            if d.is_zero():
                break
            ders[s] = d
        for i, fi in f.coeffs.items():
            for s, scale in weights[i]:
                d = ders.get(s)
                if d is None:
                    break
                c = fi * d if scale is None else fi * d * scale
                k = i - s + j
                prev = out.get(k)
                out[k] = c if prev is None else prev + c
    return out


# ---------------------------------------------------------------------------
# operation-style entry points

def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f * g


def skew_pow(f: SkewPoly, n: int) -> SkewPoly:
    return f ** n


def commutator(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """fg - gf, where f or g may be a coefficient.  The order-0 terms
    f_i g_j x^(i+j) of the two products are equal, k(v1, v2) being
    commutative, so neither product forms them."""
    if not isinstance(f, SkewPoly):
        if not isinstance(g, SkewPoly):
            raise TypeError("a commutator needs a skew polynomial")
        return -commutator(g, f)
    g = f._coerce(g)
    if g is None:
        raise TypeError("cannot take a commutator with a non-coefficient")
    out = _product(f, g, 1)
    for k, c in _product(g, f, 1).items():
        prev = out.get(k)
        out[k] = -c if prev is None else prev - c
    return SkewPoly(f.derivation, out)


def valuation_v(f: SkewPoly):
    """The canonical valuation v = -deg_x; +infinity for zero."""
    if f.is_zero():
        return math.inf
    return -f.degree()


def is_central_against(f: SkewPoly, gens) -> bool:
    """Whether f commutes with every element of gens.  Commuting with a
    generating set certifies centrality in the generated skewfield."""
    return all(commutator(f, g).is_zero() for g in gens)


def subst_x_shift(f: SkewPoly, gamma) -> SkewPoly:
    """Substitute x -> x - gamma in a polynomial with constant coefficients
    (the automorphism x |-> x - gamma of k(x))."""
    ctx = f.ctx
    for c in f.coeffs.values():
        if not c.is_constant():
            raise ValueError("shift substitution needs constant coefficients")
    x = SkewPoly.x(f.derivation)
    shifted = x - ctx.const(ctx.field.coerce(gamma))
    out = SkewPoly.zero(f.derivation)
    for i, c in f.coeffs.items():
        out = out + shifted ** i * c
    return out
