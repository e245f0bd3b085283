"""The bivariate kernel against independent oracles.

`_pgcd` and the RatFunc2 normal form, read as the coprime polynomials of
k[y, z] with the denominator monic in grlex (`as_polynomials`), are
compared with sympy's gcd and cancel over QQ, GF(7) and QQ(sqrt 2), on
seeded polynomials that share factors such as (yz + c)^k; both sides are
made monic in grlex, so they agree up to a unit.  RatFunc2 arithmetic and
derivations over K(a) are checked for the field and Leibniz laws with
coefficients drawn from all of K, so that w and sqrt(2) appear in them."""

import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, QuadraticField, Qsqrt, with_parameter
from orefields.ratfunc import (
    Derivation, FunctionField2, RatFunc2, _grlex, _pgcd, _pscale, scaling_derivation,
)

from _support import rand_elem, rand_param_elem, ref_derivation, ref_ratfunc_mul

sympy = pytest.importorskip("sympy")
Y, Z = sympy.symbols("y z")
SQRT2 = sympy.sqrt(2)

# field, sympy options, rounds (sympy's gcd over QQ<sqrt(2)> is the slow side)
FIELDS = {
    "QQ": (QQ, {"domain": "QQ"}, 12),
    "GF7": (lambda: GF(7), {"modulus": 7}, 12),
    "QQsqrt2": (lambda: Qsqrt(2), {"extension": SQRT2}, 4),
}


def to_sympy(K, rep):
    if K.char:
        return sympy.Integer(rep)
    if isinstance(K, QuadraticField):
        return to_sympy(QQ(), rep[0]) + to_sympy(QQ(), rep[1]) * SQRT2
    return sympy.Rational(rep.numerator, rep.denominator)


def from_sympy(K, c):
    if K.char:
        return int(c) % K.char
    if isinstance(K, QuadraticField):
        c = sympy.expand(c)
        b = c.coeff(SQRT2)
        return (from_sympy(QQ(), sympy.expand(c - b * SQRT2)), from_sympy(QQ(), b))
    return K._from_fraction(Fraction(int(c.p), int(c.q)))


def poly_to_sympy(K, p, opts):
    expr = sum((to_sympy(K, c) * Y ** i * Z ** j for (i, j), c in p.items()), sympy.Integer(0))
    return sympy.Poly(expr, Y, Z, **opts)


def normal_form(K, P, Q):
    """The sympy Polys P and Q as dicts of reps of K, both divided by the
    grlex leading coefficient of Q."""
    num, den = ({m: from_sympy(K, c) for m, c in X.terms() if c != 0} for X in (P, Q))
    unit = K._inv(den[max(den, key=_grlex)])
    return _pscale(K, num, unit), _pscale(K, den, unit)


def rand_poly(rng, ctx, terms=3, maxdeg=2):
    K = ctx.field
    out = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        c = rand_elem(rng, K)
        out = out + ctx.monomial(rng.randint(0, maxdeg), rng.randint(0, maxdeg), c)
    return out if not out.is_zero() else ctx.one()


def shared_factor(rng, ctx):
    """(yz + c)^k or (y + c z + d)^k for a nonzero c."""
    K = ctx.field
    y, z = ctx.gens()
    c = rand_elem(rng, K)
    while c.is_zero():
        c = rand_elem(rng, K)
    base = y * z + c if rng.random() < 0.5 else y + z * c + rand_elem(rng, K)
    return base ** rng.randint(1, 3)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_pgcd_matches_sympy_gcd(name):
    make, opts, rounds = FIELDS[name]
    K = make()
    ctx = FunctionField2(K)
    rng = random.Random(1971)
    for _ in range(rounds):
        h = shared_factor(rng, ctx)
        f = (h * rand_poly(rng, ctx)).num
        g = (h * rand_poly(rng, ctx)).num
        want = poly_to_sympy(K, f, opts).gcd(poly_to_sympy(K, g, opts))
        assert _pgcd(K, f, g) == normal_form(K, want, want)[1]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_normal_form_matches_sympy_cancel(name):
    make, opts, rounds = FIELDS[name]
    K = make()
    ctx = FunctionField2(K)
    rng = random.Random(1972)
    for _ in range(rounds):
        h = shared_factor(rng, ctx)
        n = (h * rand_poly(rng, ctx)).num
        d = (h * rand_poly(rng, ctx)).num
        f = RatFunc2(ctx, n, d)
        p, q = poly_to_sympy(K, n, opts).cancel(poly_to_sympy(K, d, opts), include=True)
        assert f.as_polynomials() == normal_form(K, p, q)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sums_and_products_match_sympy_cancel(name):
    make, opts, rounds = FIELDS[name]
    K = make()
    ctx = FunctionField2(K)
    rng = random.Random(1973)
    for _ in range(rounds):
        h = shared_factor(rng, ctx)
        f = rand_poly(rng, ctx) / (h * rand_poly(rng, ctx, terms=2))
        g = rand_poly(rng, ctx) / (h * rand_poly(rng, ctx, terms=2))
        sf = [poly_to_sympy(K, x, opts) for x in f.as_polynomials()]
        sg = [poly_to_sympy(K, x, opts) for x in g.as_polynomials()]
        for got, (p, q) in ((f + g, (sf[0] * sg[1] + sg[0] * sf[1], sf[1] * sg[1])),
                            (f * g, (sf[0] * sg[0], sf[1] * sg[1]))):
            assert got.as_polynomials() == normal_form(K, *p.cancel(q, include=True))


# ---------------------------------------------------------------------------
# K(a) with coefficients from all of K

PARAM_FIELDS = {
    "GF9(a)": lambda: with_parameter(GF(3, 2)),
    "QQsqrt2(a)": lambda: with_parameter(Qsqrt(2)),
}


def rand_full_poly(rng, ctx):
    """A nonzero polynomial with 1-3 terms of degree <= 2 in each variable."""
    num = ctx.zero()
    while num.is_zero():
        for _ in range(rng.randint(1, 3)):
            num = num + ctx.monomial(rng.randint(0, 2), rng.randint(0, 2),
                                     rand_param_elem(rng, ctx.field))
    return num


def rand_full_ratfunc(rng, ctx):
    """rand_full_poly, over 1 + c y^i z half of the time."""
    num = rand_full_poly(rng, ctx)
    if rng.random() < 0.5:
        return num
    return num / (ctx.monomial(rng.randint(0, 1), 1, rand_param_elem(rng, ctx.field)) + 1)


@pytest.mark.parametrize("name", sorted(PARAM_FIELDS))
def test_generator_reaches_the_whole_base_field(name):
    K = PARAM_FIELDS[name]()
    rng = random.Random(5)
    seen = [rand_param_elem(rng, K) for _ in range(40)]
    assert any(not K.base.in_prime_subfield(c) for e in seen for c in e.rep[0])


@pytest.mark.parametrize("name", sorted(PARAM_FIELDS))
def test_ratfunc_field_laws_over_full_parameter_fields(name):
    K = PARAM_FIELDS[name]()
    ctx = FunctionField2(K)
    rng = random.Random(11)
    for _ in range(10):
        f, g, h = (rand_full_ratfunc(rng, ctx) for _ in range(3))
        assert f * g == ref_ratfunc_mul(f, g)
        assert (f * g) / g == f
        assert (f + g) - g == f
        assert f * (g + h) == f * g + f * h
        assert (f / g) * g == f
        assert f - f == ctx.zero()


@pytest.mark.parametrize("name", sorted(PARAM_FIELDS))
def test_derivations_over_full_parameter_fields(name):
    K = PARAM_FIELDS[name]()
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    rng = random.Random(12)
    derivations = [scaling_derivation(ctx, 1, rand_param_elem(rng, K)),
                   Derivation(ctx, y * rand_param_elem(rng, K), y + z)]
    for D in derivations:
        for _ in range(5):
            f, g = rand_full_ratfunc(rng, ctx), rand_full_poly(rng, ctx)
            assert D(f) == ref_derivation(D, f)
            assert D(f * g) == D(f) * g + f * D(g)
            assert D(f + g) == D(f) + D(g)
