"""The n-ary sum of the Ore product loop, `RatFunc2.weighted_sum`, which
forms each output coefficient of a skew or series product with one
reduction: against the pairwise sums of tests/_support.py, on slots that
cancel, slots of one term and binomial weights of -1, and through the
products, commutators and series inverses built on it against
`ref_skew_mul`, `ref_commutator`, `ref_pdo_mul` and `ref_pdo_inv`."""

import random

import pytest

from orefields.pdo import PdoSeries, pdo_inv
from orefields.presentations import CaseSpec, algebra_make
from orefields.ratfunc import RatFunc2
from orefields.skewpoly import SkewPoly, _product, _summed, _terms, commutator

from _support import (
    REF_FIELDS, rand_laurent_monomial, rand_nonzero, rand_poly2, ref_combined, ref_commutator,
    ref_field, ref_pdo_inv, ref_pdo_mul, ref_ratfunc_mul, ref_skew_mul,
)


def g_pres(name):
    field, alpha = ref_field(name)
    return algebra_make(CaseSpec("g", field, field.coerce(alpha)))


def laurent(rng, ctx):
    """A sum of one to three Laurent monomials: a monomial denominator."""
    f = ctx.zero()
    while f.is_zero():
        for _ in range(rng.randint(1, 3)):
            f = f + rand_laurent_monomial(rng, ctx, span=1)
    return f


def non_laurent(rng, ctx):
    """A fraction whose denominator is not a monomial."""
    num = rand_poly2(rng, ctx, maxdeg=1)
    while num.is_zero():
        num = rand_poly2(rng, ctx, maxdeg=1)
    return num / (ctx.monomial(rng.randint(0, 1), 1) + ctx.const(rand_nonzero(rng, ctx.field)))


def rand_weight(rng, K):
    """None (for 1), or the rep of -1, 2 or a random nonzero element."""
    return rng.choice([None, K._from_int(-1), K._from_int(2), rand_nonzero(rng, K).rep])


def ref_weighted_sum(terms):
    """sum c w by the reference product and the reference pairwise sum."""
    ctx = terms[0][0].ctx
    out = ctx.zero()
    for c, w in terms:
        if w is not None:
            c = ref_ratfunc_mul(c, ctx.const(ctx.field.element(w)))
        out = ref_combined(out, c)
    return out


def assert_same(got, want, *context):
    assert (got.num, got.den) == (want.num, want.den), context
    assert str(got) == str(want), context


@pytest.mark.parametrize("name", REF_FIELDS)
def test_weighted_sum_matches_the_pairwise_sum(name):
    ctx = g_pres(name).ctx
    K = ctx.field
    rng = random.Random(f"weighted-sum-{name}")
    for kinds in ((laurent,), (non_laurent,), (laurent, non_laurent)):
        for _ in range(12):
            terms = [(rng.choice(kinds)(rng, ctx), rand_weight(rng, K))
                     for _ in range(rng.randint(1, 5))]
            got = RatFunc2.weighted_sum(terms)
            assert_same(got, ref_weighted_sum(terms), [(str(c), w) for c, w in terms])


@pytest.mark.parametrize("name", REF_FIELDS)
def test_a_one_term_slot_is_its_term_scaled(name):
    ctx = g_pres(name).ctx
    K = ctx.field
    rng = random.Random(f"one-term-{name}")
    for draw in (laurent, non_laurent):
        c = draw(rng, ctx)
        assert RatFunc2.weighted_sum([(c, None)]) is c
        w = rand_nonzero(rng, K)
        assert_same(RatFunc2.weighted_sum([(c, w.rep)]), c * w)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_a_cancelled_slot_is_dropped(name):
    ctx = g_pres(name).ctx
    K = ctx.field
    minus = K._from_int(-1)
    rng = random.Random(f"cancel-{name}")
    for draw in (laurent, non_laurent):
        c, d = draw(rng, ctx), laurent(rng, ctx)
        w = rand_nonzero(rng, K)
        assert RatFunc2.weighted_sum([(c, None), (c, minus)]).is_zero()
        assert RatFunc2.weighted_sum([(c, w.rep), (c * w, minus)]).is_zero()
        assert_same(RatFunc2.weighted_sum([(c, w.rep), (d, None), (c, (-w).rep)]), d)
        pending = {3: [(c, None), (c, minus)], 1: [(d, None)]}
        assert _summed(pending) == {1: d}


@pytest.mark.parametrize("name", REF_FIELDS)
def test_products_leave_out_the_x_degrees_that_cancel(name):
    # x g = g x + D(g), so (x - D(g)/g) g = g x: the x^0 slot receives
    # D(g) and -D(g), and the product has no x^0 key, for a Laurent g and
    # for one that is not
    pres = g_pres(name)
    D, ctx = pres.D, pres.ctx
    y, z = ctx.gens()
    for g in (y * z, y / (y + 1), (y + z) / (z * z + 1)):
        f = SkewPoly.x(D) - D(g) / g
        raw = _product(f.coeffs, {0: g}, D)
        assert raw == {1: g}, str(g)
    # every slot of f f - f f cancels
    f = SkewPoly(D, {0: y / (z + 1), 2: z, 3: y * z})
    pending = _terms(f.coeffs, f.coeffs, D, {}, 1)
    assert pending
    assert _summed(_terms(f.coeffs, f.coeffs, D, pending, 1, sign=-1)) == {}


def weights_seen(monkeypatch):
    """Record the weight of every term that `RatFunc2.weighted_sum` sums."""
    seen = []
    summed = RatFunc2.weighted_sum

    def recording(terms):
        seen.extend(w for _, w in terms)
        return summed(terms)
    monkeypatch.setattr(RatFunc2, "weighted_sum", staticmethod(recording))
    return seen


@pytest.mark.parametrize("name", REF_FIELDS)
def test_weights_of_minus_one(name, monkeypatch):
    # C(-1, s) = (-1)^s in the series product with u = x^-1, and the
    # commutator's second product has its weights negated: both are -1
    # in characteristic 0 and l - 1 in characteristic l.  The coefficients
    # of b are not all Laurent monomials: against an eigenvector of D,
    # the loop folds lambda^s into the weight, and -1 may not show
    pres = g_pres(name)
    D, ctx = pres.D, pres.ctx
    K = ctx.field
    minus = K._from_int(-1)
    y, z = ctx.gens()
    d = D.negate()
    seen = weights_seen(monkeypatch)
    a = PdoSeries(d, {1: y + z, 2: y / (z + 1)}, 6)
    b = PdoSeries(d, {0: (z + 1) / y, 1: y * y}, 6)
    got, want = a * b, ref_pdo_mul(a, b)
    assert (got.terms, got.prec) == (want.terms, want.prec)
    assert minus in seen
    seen.clear()
    f = SkewPoly(D, {1: y, 2: z / (y + 1)})
    g = SkewPoly(D, {0: y * z, 1: ctx.one()})
    assert commutator(f, g) == ref_commutator(f, g)
    assert minus in seen


def rand_skew(rng, D, maxdeg):
    ctx = D.ctx
    coeffs = {i: rng.choice((laurent, non_laurent))(rng, ctx)
              for i in range(maxdeg + 1) if rng.random() < 0.7}
    coeffs[maxdeg] = laurent(rng, ctx)
    return SkewPoly(D, coeffs)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_skew_products_and_commutators_match_reference(name):
    pres = g_pres(name)
    D = pres.D
    rng = random.Random(f"skew-{name}")
    for _ in range(4):
        f, g = rand_skew(rng, D, rng.randint(0, 2)), rand_skew(rng, D, rng.randint(0, 2))
        for a, b in ((f, g), (g, f)):
            assert a * b == ref_skew_mul(a, b), (str(a), str(b))
            assert commutator(a, b) == ref_commutator(a, b), (str(a), str(b))


def rand_series(rng, pres, v, prec, small=False):
    """A series of valuation v with a Laurent monomial leading coefficient
    and up to three more terms: Laurent or not, or with small=True Laurent
    monomials with coefficient 1, 2 or -1, which keep the coefficients of
    a long inverse small."""
    ctx = pres.ctx
    terms = {v: rand_laurent_monomial(rng, ctx, span=1)}
    for n in range(v + 1, min(v + 3, prec) + 1):
        if rng.random() < 0.6:
            if small:
                terms[n] = ctx.monomial(rng.randint(-1, 1), rng.randint(-1, 1),
                                        rng.choice((1, 2, -1)))
            else:
                terms[n] = rng.choice((laurent, non_laurent))(rng, ctx)
    return PdoSeries(pres.D.negate(), terms, prec)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_series_products_and_inverses_match_reference(name):
    pres = g_pres(name)
    rng = random.Random(f"series-{name}")
    for v in (-1, 0, 1):
        # the reference inverse of a fraction that is not Laurent grows fast:
        # three orders past the valuation
        a = rand_series(rng, pres, v, max(v, 0) + 3)
        b = rand_series(rng, pres, rng.randint(-1, 1), 6)
        got, want = a * b, ref_pdo_mul(a, b)
        assert (got.terms, got.prec) == (want.terms, want.prec)
        got, want = pdo_inv(a), ref_pdo_inv(a)
        assert (got.terms, got.prec) == (want.terms, want.prec)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_inverse_of_the_inverse_is_the_series(name):
    pres = g_pres(name)
    rng = random.Random(f"roundtrip-{name}")
    for v, prec in ((1, 24), (0, 24), (-1, 16), (2, 12)):
        a = rand_series(rng, pres, v, prec, small=True)
        back = pdo_inv(pdo_inv(a))
        assert back == a, (str(a), str(back))
    y = pres.ctx.monomial(1, 0)
    for prec in (8, 24):
        a = PdoSeries.u(pres.D.negate(), prec) + PdoSeries.from_ratfunc(pres.D.negate(), y, prec)
        assert pdo_inv(pdo_inv(a)) == a
