"""Series products through the closed forms of skew products, against the
term-by-term reference product `ref_pdo_mul`, terms and precision both,
over the fields of REF_FIELDS and GF(9)(a): a constant (an int, a
Fraction, a field element or a constant series) on either side, a
coefficient on the left, a right factor with constant coefficients (u,
c u^k, u - c), and constant coefficients against one eigenvector term
g u^k of the scaling derivation, whose infinite sum is cut at the
precision.  None of them runs the Ore product loop `skewpoly._terms`; the
q family and coefficients that are not Laurent monomials still do.  Sums
and differences of series and of skew polynomials are checked against
coefficientwise RatFunc2 arithmetic, with one `RatFunc2.weighted_sum` per
shared coefficient and no negated operand built."""

import contextlib
import math
import random
from fractions import Fraction

import pytest

from orefields import skewpoly
from orefields.fields import ParameterField
from orefields.pdo import PdoSeries
from orefields.ratfunc import Derivation, FunctionField2, RatFunc2, scaling_derivation
from orefields.skewpoly import OreSum, SkewPoly

from _support import (
    REF_FIELDS, counting, rebound, rand_laurent_monomial, rand_nonzero, rand_param_elem,
    rand_poly2, rand_ratfunc, ref_derivation, ref_field, ref_pdo_mul,
)

SERIES_FIELDS = [*REF_FIELDS, "GF9(a)"]


def series_setup(name):
    """(K, alpha, ctx, delta) with delta = -D for the scaling derivation
    D of g_alpha, the derivation of its series."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    return K, K.coerce(alpha), ctx, scaling_derivation(ctx, 1, alpha).negate()


def draw_constant(rng, K):
    """A nonzero constant of k, over K(a) drawn from all of K(a)."""
    draw = rand_param_elem if isinstance(K, ParameterField) else rand_nonzero
    while True:
        c = draw(rng, K)
        if not c.is_zero():
            return c


def draw_coefficient(rng, ctx):
    """A coefficient that is not a constant: a Laurent monomial, a
    polynomial or a fraction."""
    while True:
        c = rng.choice((rand_laurent_monomial, rand_poly2, rand_ratfunc))(rng, ctx)
        if not c.is_constant():
            return c


def rand_series(rng, ctx, d, v, prec):
    """A series of valuation v and precision prec whose coefficients are
    not constants."""
    terms = {v: draw_coefficient(rng, ctx)}
    for n in range(v + 1, prec + 1):
        if rng.random() < 0.5:
            terms[n] = draw_coefficient(rng, ctx)
    return PdoSeries(d, terms, prec)


def const_series(rng, ctx, d, exponents, prec):
    return PdoSeries(d, {n: ctx.const(draw_constant(rng, ctx.field)) for n in exponents}, prec)


def assert_same(got, want, *context):
    assert (got.terms, got.prec) == (want.terms, want.prec), context


def assert_cut(f, g, want):
    """The product dispatcher, given f and g as {x-degree: coefficient}
    with x = u^-1 and the floor -N of want's precision N, forms exactly
    want's terms: none past the precision, which the series would drop."""
    raw = skewpoly._skew_product({-n: c for n, c in f.terms.items()},
                                 {-n: c for n, c in g.terms.items()},
                                 f.derivation.negate(), -want.prec)
    assert {-k: c for k, c in raw.items()} == want.terms, (str(f), str(g))


@contextlib.contextmanager
def outer_calls(fn):
    """The calls of fn, a function that calls itself, inside the block: a
    list with one entry per call not made from inside another, through
    every binding of fn (`rebound`)."""
    calls, depth = [], []

    def counted(*args):
        if not depth:
            calls.append(1)
        depth.append(1)
        try:
            return fn(*args)
        finally:
            depth.pop()
    with rebound(fn, counted):
        yield calls


def left_factors(rng, ctx, d):
    """Series of valuation -2 to 2, coefficients not constant, and two of
    constant coefficients; precisions from 3 to 7."""
    out = [rand_series(rng, ctx, d, v, rng.randint(max(v, 0) + 3, 7)) for v in range(-2, 3)]
    out += [const_series(rng, ctx, d, (-1, 0, 2), 5), const_series(rng, ctx, d, (-2, 1), 6)]
    return out


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_products_with_a_constant_on_either_side(name):
    """a c and c a for an int, a Fraction, a field element and a constant
    series of another precision: the coefficients scaled, at the
    precision N of the reference, which is p + v for the valuation v < 0
    of a and the precision p of c."""
    K, alpha, ctx, d = series_setup(name)
    rng = random.Random(f"series-constant-{name}")
    cases = []
    for a in left_factors(rng, ctx, d):
        for value in (0, 1, -3, Fraction(5, 2), alpha, draw_constant(rng, K)):
            c = PdoSeries(d, {0: ctx.const(value)}, a.prec)
            cases.append((a, value, ref_pdo_mul(a, c), ref_pdo_mul(c, a)))
        for prec in (a.prec - 1, a.prec + 2):
            c = PdoSeries(d, {0: ctx.const(draw_constant(rng, K))}, prec)
            cases.append((a, c, ref_pdo_mul(a, c), ref_pdo_mul(c, a)))
    # the precision p + v of a constant of precision p against a of valuation v < 0
    assert any(right.prec == c.prec + min(a.terms) < min(a.prec, c.prec)
               for a, c, right, _ in cases if isinstance(c, PdoSeries))
    with counting(terms=skewpoly._terms) as calls:
        for a, c, right, left in cases:
            assert_same(a * c, right, str(a), str(c))
            assert_same(c * a, left, str(a), str(c))
    assert not calls


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_a_coefficient_on_the_left(name):
    """c b for a coefficient c that is not a constant: c times each
    coefficient of b, with no derivative, as a series of one term and as a
    RatFunc2 on the left."""
    _, _, ctx, d = series_setup(name)
    rng = random.Random(f"series-left-{name}")
    cases = []
    for b in left_factors(rng, ctx, d):
        for prec in (b.prec, b.prec - 2):
            c = draw_coefficient(rng, ctx)
            cs = PdoSeries(d, {0: c}, prec)
            cases.append((cs, b, ref_pdo_mul(cs, b)))
    with counting(terms=skewpoly._terms, apply=Derivation.__call__) as calls:
        for cs, b, want in cases:
            assert_same(cs * b, want, str(cs), str(b))
            if cs.prec == b.prec:
                assert_same(cs.terms[0] * b, want, str(cs), str(b))
    assert not calls


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_right_factors_with_constant_coefficients(name):
    """a g for g of one constant term (u, c u^k at k = -2 to 2) and of
    several (u - c, a constant series): only order 0 survives, a_i g_j at
    u^(i + j), on series whose coefficients are constants or not."""
    K, _, ctx, d = series_setup(name)
    rng = random.Random(f"series-right-{name}")
    cases = []
    for a in left_factors(rng, ctx, d):
        prec = rng.randint(3, 8)
        gs = [PdoSeries.u(d, prec)]
        gs += [PdoSeries(d, {k: ctx.const(draw_constant(rng, K))}, prec) for k in range(-2, 3)]
        gs += [PdoSeries.u(d, prec) - ctx.const(draw_constant(rng, K)),
               const_series(rng, ctx, d, (-1, 0, 1, 3), prec)]
        cases += [(a, g, ref_pdo_mul(a, g)) for g in gs]
    with counting(terms=skewpoly._terms) as calls:
        for a, g, want in cases:
            assert_same(a * g, want, str(a), str(g))
            assert_cut(a, g, want)
    assert not calls


def eigenvectors(rng, K, ctx, d):
    """Laurent monomials y, z, c y^-1 z^2, and those whose eigenvalue under
    d is 0 (y^l in characteristic l, y^2 z^-1 at alpha = 2); over QQ(sqrt 2)
    only a constant has eigenvalue 0."""
    gs = [ctx.monomial(1, 0), ctx.monomial(0, 1), ctx.monomial(-1, 2, draw_constant(rng, K))]
    zero = [ctx.monomial(2, -1)] + ([ctx.monomial(K.char, 0)] if K.char else [])
    return gs + [m for m in zero if ref_derivation(d, m).is_zero()]


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_constant_series_against_an_eigenvector(name):
    """f g for f with constant coefficients and g = g_j u^k, k = -1 to 2,
    g_j a Laurent monomial: g_j f(x + lambda) u^k with x = u^-1, whose
    infinite sum at u^m, m > 0, is cut at the precision.  u^-l and u^l in
    characteristic l keep only the orders Lucas' theorem leaves.  No
    derivation is applied."""
    K, _, ctx, d = series_setup(name)
    rng = random.Random(f"series-eigen-{name}")
    ell = K.char or 3       # in characteristic 0, the same shapes at 3
    gjs = eigenvectors(rng, K, ctx, d)
    if name != "QQ(sqrt2)":
        assert any(ref_derivation(d, g).is_zero() for g in gjs)
    fs = [PdoSeries.u(d, 6), PdoSeries.u(d, 6, power=-1), PdoSeries.u(d, 2 * ell + 3, power=ell),
          PdoSeries.u(d, 4, power=-ell), const_series(rng, ctx, d, (-2, -1, 0, 1, 3), 6),
          const_series(rng, ctx, d, (1, 2), 5)]
    if ell <= 3:
        fs.append(PdoSeries.u(d, 2, power=-ell * ell))
    cases = []
    for f in fs:
        for gj in gjs:
            for k in range(-1, 3):
                # a low precision, and one that reaches order l of u^l and u^-l
                for prec in (max(k, 0) + 2, max(k, 0) + 2 * ell + 2):
                    g = PdoSeries(d, {k: gj}, prec)
                    cases.append((f, g, ref_pdo_mul(f, g)))
    with counting(terms=skewpoly._terms, apply=Derivation.__call__) as calls:
        for f, g, want in cases:
            assert_same(f * g, want, str(f), str(g))
            assert_cut(f, g, want)
    assert not calls


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_the_loop_forms_the_other_series_products(name):
    """Under the q family's derivation, which scales no monomial, with g
    not a monomial, and with f whose coefficients are not constants, a
    series product still runs the Ore loop, and agrees with the
    reference."""
    K, _, ctx, d = series_setup(name)
    y, z = ctx.gens()
    rng = random.Random(f"series-loop-{name}")
    dq = Derivation(ctx, y, y + z).negate()
    cases = []
    for delta in (d, dq):
        u = PdoSeries.u(delta, 6)
        cases += [(u, PdoSeries(delta, {0: y + z}, 6)),
                  (u - ctx.const(draw_constant(rng, K)), PdoSeries(delta, {1: (y + 1) / z}, 5)),
                  (PdoSeries(delta, {-1: y, 1: z}, 5), PdoSeries(delta, {0: z}, 6)),
                  (u, PdoSeries(delta, {0: y, 2: z}, 6))]
    cases += [(PdoSeries.u(dq, 6), PdoSeries(dq, {0: y}, 6)),
              (PdoSeries.u(dq, 6, power=-1), PdoSeries(dq, {1: z}, 6))]
    cases = [(f, g, ref_pdo_mul(f, g)) for f, g in cases]
    for f, g, want in cases:
        with counting(terms=skewpoly._terms) as calls:
            got = f * g
        assert_same(got, want, str(f), str(g))
        assert calls, (str(f), str(g))


def coefficientwise(a, b, sign):
    """{k: a_k + sign b_k} in RatFunc2 arithmetic, leaving out zeros and,
    for series, the exponents past the weaker precision."""
    zero = a.ctx.zero()
    top = min(a.prec, b.prec) if isinstance(a, PdoSeries) else math.inf
    out = {}
    for k in a.coeffs.keys() | b.coeffs.keys():
        if k > top:
            continue
        ak, bk = a.coeffs.get(k, zero), b.coeffs.get(k, zero)
        c = ak + bk if sign == 1 else ak - bk
        if not c.is_zero():
            out[k] = c
    return out


@pytest.mark.parametrize("name", SERIES_FIELDS)
def test_sums_and_differences_coefficientwise(name):
    """a + b, a - b and b - a for series (precision the weaker one) and
    skew polynomials, a constant or a coefficient on either side of -, and
    a - a = 0: each shared coefficient is one weighted sum, with no
    negated operand and no RatFunc2 sum or difference formed.  A series
    holds no exponent past its precision, so every shared exponent is at
    most the weaker one; a difference negates no term past it either."""
    K, _, ctx, d = series_setup(name)
    rng = random.Random(f"series-sums-{name}")
    D = d.negate()
    pairs = []
    for v in range(-2, 3):
        a = rand_series(rng, ctx, d, v, rng.randint(max(v, 0) + 2, 7))
        b = rand_series(rng, ctx, d, rng.randint(-2, 2), rng.randint(2, 7))
        pairs += [(a, b), (a, a), (a, const_series(rng, ctx, d, (0, 1, 2), 4))]
        c = draw_coefficient(rng, ctx)
        pairs += [(a, PdoSeries(d, {0: c}, a.prec)), (PdoSeries(d, {0: c}, a.prec), a)]
    for _ in range(4):
        f = SkewPoly(D, {i: draw_coefficient(rng, ctx) for i in range(rng.randint(0, 3) + 1)
                         if rng.random() < 0.7} or {0: ctx.one()})
        g = SkewPoly(D, {i: draw_coefficient(rng, ctx) for i in range(3) if rng.random() < 0.7})
        pairs += [(f, g), (f, f), (f, SkewPoly(D, {0: ctx.const(draw_constant(rng, K))}))]
    cases, past = [], 0
    for a, b in pairs:
        prec = min(a.prec, b.prec) if isinstance(a, PdoSeries) else None
        shared = len(a.coeffs.keys() & b.coeffs.keys())
        top = math.inf if prec is None else prec
        # the terms of b, then of a, that a - b, then b - a, negates
        negated = [len([i for i in g.coeffs.keys() - f.coeffs.keys() if i <= top])
                   for f, g in ((a, b), (b, a))]
        past += any(i > top for i in a.coeffs.keys() | b.coeffs.keys())
        cases.append((a, b, prec, shared, negated, coefficientwise(a, b, 1),
                      coefficientwise(a, b, -1), coefficientwise(b, a, -1)))
    assert past     # some pairs hold exponents past their weaker precision
    with outer_calls(RatFunc2.weighted_sum) as sums, \
            counting(negate=OreSum.__neg__, add=RatFunc2.__add__, sub=RatFunc2.__sub__,
                     negate_term=RatFunc2.__neg__) as calls:
        for a, b, prec, shared, negated, plus, minus, reverse in cases:
            for op, want, n in ((lambda: a + b, plus, 0), (lambda: a - b, minus, negated[0]),
                                (lambda: b - a, reverse, negated[1])):
                got = op()
                assert got.coeffs == want, (str(a), str(b))
                if prec is not None:
                    assert got.prec == prec
                # no term past the weaker precision is negated
                assert calls["negate_term"] == n, (str(a), str(b))
                calls["negate_term"] = 0
            assert len(sums) == 3 * shared, (str(a), str(b))
            sums.clear()
    assert not calls["negate"] and not calls["add"] and not calls["sub"]
    # a constant or a coefficient on the other side of a difference
    for a, b, *_ in cases[:6]:
        c = draw_constant(rng, K)
        cs = a._like({0: ctx.const(c)})
        assert (a - c).coeffs == coefficientwise(a, cs, -1)
        assert (c - a).coeffs == coefficientwise(cs, a, -1)
        assert (3 - a).coeffs == coefficientwise(a._like({0: ctx.const(3)}), a, -1)
