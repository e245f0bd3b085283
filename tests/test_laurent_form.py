"""The canonical form of k(y, z): a Laurent polynomial over a monic (grlex)
polynomial that neither y nor z divides, coprime to it.  Monomials are
units, so each value has exactly one such form.

Over QQ, GF(7), GF(3)(a) and QQ(sqrt 2), each drawn value n/d, with n and
d polynomials, is built three ways: by the normalizing constructor from
(n m h) / (d m h), with m a Laurent monomial and h a polynomial; by ring
arithmetic from the same n, d, m and h; and as the inverse of its inverse.
The three must be structurally equal and in the canonical form, and
`as_polynomials` must give sympy's cancel of n / d."""

import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, FieldElem, ParameterField, Qsqrt, with_parameter
from orefields.ratfunc import FunctionField2, RatFunc2, _grlex, _pmul, _pscale

from _support import rand_nonzero

FIELDS = {
    "QQ": QQ,
    "GF7": lambda: GF(7),
    "GF3(a)": lambda: with_parameter(GF(3)),
    "QQ(sqrt2)": lambda: Qsqrt(2),
}
ROUNDS = 25


def coeff(rng, K):
    """A nonzero coefficient; in K(a) a polynomial in a of degree <= 2, so
    that sympy can read it over GF(3)[a]."""
    if not isinstance(K, ParameterField):
        return rand_nonzero(rng, K).rep
    a = K.gen()
    while True:
        c = sum((a ** k * rng.randint(0, 2) for k in range(3)), K.zero())
        if not c.is_zero():
            return c.rep


def poly(rng, K, terms=3, maxdeg=2):
    """A nonzero polynomial dict with up to `terms` terms."""
    return {(rng.randint(0, maxdeg), rng.randint(0, maxdeg)): coeff(rng, K)
            for _ in range(rng.randint(1, terms))}


def draws(K, seed):
    """(n, d, m, h): polynomials n, d and h, and a Laurent monomial m."""
    rng = random.Random(seed)
    for _ in range(ROUNDS):
        m = {(rng.randint(-3, 3), rng.randint(-3, 3)): coeff(rng, K)}
        yield poly(rng, K), poly(rng, K), m, poly(rng, K, terms=2)


def as_ratfunc(ctx, p):
    """The dict p as a sum of monomials, by ring arithmetic."""
    out = ctx.zero()
    for (i, j), c in p.items():
        out = out + ctx.monomial(i, j, FieldElem(ctx.field, c))
    return out


def built_three_ways(ctx, n, d, m, h):
    K = ctx.field
    mh = _pmul(K, m, h)
    by_constructor = RatFunc2(ctx, _pmul(K, n, mh), _pmul(K, d, mh))
    N, D, M, H = (as_ratfunc(ctx, p) for p in (n, d, m, h))
    by_arithmetic = (N * M * H) / (H * D * M)
    return by_constructor, by_arithmetic, by_constructor.inverse().inverse()


def assert_canonical(f):
    K = f.ctx.field
    den = f.den
    assert den[max(den, key=_grlex)] == K._one_rep(), str(f)
    assert all(i >= 0 and j >= 0 for i, j in den), str(f)
    assert any(i == 0 for i, _ in den) and any(j == 0 for _, j in den), str(f)
    assert all(not K._is_zero(c) for c in f.num.values()), str(f)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_three_constructions_give_one_canonical_form(name):
    ctx = FunctionField2(FIELDS[name]())
    for n, d, m, h in draws(ctx.field, f"laurent-form-{name}"):
        first, *others = built_three_ways(ctx, n, d, m, h)
        assert_canonical(first)
        for f in others:
            assert (f.num, f.den) == (first.num, first.den), (str(first), str(f))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_polynomial_view_matches_sympy_cancel(name):
    sympy = pytest.importorskip("sympy")
    Y, Z, A = sympy.symbols("y z a")
    K = FIELDS[name]()
    ctx = FunctionField2(K)
    param = isinstance(K, ParameterField)
    gens, opts = {
        "QQ": ((Y, Z), {"domain": "QQ"}),
        "GF7": ((Y, Z), {"modulus": 7}),
        "GF3(a)": ((Y, Z, A), {"modulus": 3}),
        "QQ(sqrt2)": ((Y, Z), {"extension": sympy.sqrt(2)}),
    }[name]

    def to_sympy(c):
        if param:
            num, den = c
            assert den == (1,)
            return sum((int(x) * A ** k for k, x in enumerate(num)), sympy.Integer(0))
        if K.char:
            return sympy.Integer(c)
        if isinstance(c, tuple):
            return to_sympy(c[0]) + to_sympy(c[1]) * sympy.sqrt(2)
        return sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)

    def from_sympy(c, k=0):
        """The rep of c a^k."""
        if param:
            return (K.gen() ** k * int(c)).rep
        if K.char:
            return K._from_int(int(c))
        if name == "QQ(sqrt2)":
            c = sympy.expand(c)
            b = c.coeff(sympy.sqrt(2))
            return (QQ()._from_fraction(Fraction(str(c - b * sympy.sqrt(2)))),
                    QQ()._from_fraction(Fraction(str(b))))
        return K._from_fraction(Fraction(str(c)))

    def to_poly(p):
        expr = sum((to_sympy(c) * Y ** i * Z ** j for (i, j), c in p.items()), sympy.Integer(0))
        return sympy.Poly(expr, *gens, **opts)

    def to_dict(P):
        out = {}
        for mono, c in P.terms():
            key, c = mono[:2], from_sympy(c, *mono[2:])
            out[key] = K._add(out[key], c) if key in out else c
        return {ij: c for ij, c in out.items() if not K._is_zero(c)}

    for n, d, m, h in draws(K, f"laurent-form-{name}"):
        f = built_three_ways(ctx, n, d, m, h)[0]
        p, q = to_poly(n).cancel(to_poly(d), include=True)
        num, den = to_dict(p), to_dict(q)
        unit = K._inv(den[max(den, key=_grlex)])
        assert f.as_polynomials() == (_pscale(K, num, unit), _pscale(K, den, unit)), str(f)
