"""Skew polynomial arithmetic for an Ore extension k(v1,v2)[x; D].

Elements are finite sums sum_i f_i * x^i with left coefficients f_i in
k(v1, v2) and the twisted multiplication x*f = f*x + D(f).  Powers of x
are pushed past coefficients with the iterated-derivation binomial
expansion,

    x^i g = sum_{s <= i} C(i, s) D^s(g) x^(i - s),

so products are exact.  In characteristic l the binomials are taken mod l
by Lucas' theorem, and the chain D^s(g) stops at its first zero.
"""

from __future__ import annotations

import math

from .fields import _coeff_term, _join_terms, _power
from .ratfunc import Derivation, RatFunc2


def binomial_mod(n: int, k: int, ell: int) -> int:
    """C(n, k) for ell = 0, else C(n, k) mod the prime ell by Lucas'
    theorem: the product of the binomials of the base-ell digits."""
    if not ell:
        return math.comb(n, k)
    out = 1
    while k:
        n, ni = divmod(n, ell)
        k, ki = divmod(k, ell)
        if ki > ni:
            return 0
        out = out * math.comb(ni, ki) % ell
    return out


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
        D = self.derivation
        if not self.coeffs or not o.coeffs:
            return SkewPoly(D, {})
        imax = max(self.coeffs)
        chains = []
        for j, gj in o.coeffs.items():
            # D^s(gj) for s up to imax, ending before the first zero
            ders = [gj]
            while len(ders) <= imax:
                d = D(ders[-1])
                if d.is_zero():
                    break
                ders.append(d)
            chains.append((j, ders))
        # the C(i, s) that do not vanish in the characteristic, for the
        # orders s some chain reaches; None stands for 1
        field = self.ctx.field
        top = max(len(ders) for _, ders in chains) - 1
        weights = {}
        for i in self.coeffs:
            row = []
            for s in range(min(i, top) + 1):
                b = binomial_mod(i, s, field.char)
                if b:
                    row.append((s, None if b == 1 else field.from_int(b)))
            weights[i] = row
        out = {}
        for j, ders in chains:
            for i, fi in self.coeffs.items():
                for s, scale in weights[i]:
                    if s >= len(ders):
                        break
                    c = fi * ders[s] if scale is None else fi * ders[s] * scale
                    k = i - s + j
                    prev = out.get(k)
                    out[k] = c if prev is None else prev + c
        return SkewPoly(D, out)

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


# ---------------------------------------------------------------------------
# operation-style entry points

def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f * g


def skew_pow(f: SkewPoly, n: int) -> SkewPoly:
    return f ** n


def commutator(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f * g - g * f


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
