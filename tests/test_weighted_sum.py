"""The n-ary sum of the Ore product loop, `RatFunc2.weighted_sum`, which
forms each output coefficient of a skew or series product with one
reduction: against the pairwise sums of tests/_support.py, on slots that
cancel, slots of one term and binomial weights of -1, and through the
products, commutators and series inverses built on it against
`ref_skew_mul`, `ref_commutator`, `ref_pdo_mul` and `ref_pdo_inv`.  The
field's accumulator (`Field._accumulator`) sums over QQ and GF(l) with
no reduction and reduces each coefficient once: sums that cancel
exactly, Fractions that add up to integers and binomial-sized weights
come back in the canonical rep, over those fields and over the fields
that sum with their own `_add` and `_mul`."""

import math
import random
from fractions import Fraction

import pytest

from orefields.fields import (
    GF, QQ, ExtensionField, ParameterField, PrimeField, Qsqrt, QuadraticField, RationalField,
    _ugcd, with_parameter,
)
from orefields.pdo import PdoSeries, pdo_inv
from orefields.presentations import CaseSpec, algebra_make
from orefields.ratfunc import FunctionField2, RatFunc2
from orefields.skewpoly import SkewPoly, _skew_product, _summed, _terms, commutator

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
        raw = _skew_product(f.coeffs, {0: g}, D)
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


# ---------------------------------------------------------------------------
# the accumulator: sums reduced once

NATIVE_FIELDS = {"QQ": QQ, "GF2": lambda: GF(2), "GF3": lambda: GF(3), "GF7": lambda: GF(7)}
GENERIC_FIELDS = {"GF9": lambda: GF(3, 2), "QQ(sqrt2)": lambda: Qsqrt(2),
                  "QQ(a)": lambda: with_parameter(QQ()),
                  "GF3(a)": lambda: with_parameter(GF(3))}
BINOMIAL = math.comb(48, 24)


def is_canonical(K, v):
    """Whether v is the canonical rep of a nonzero element of K."""
    if K._is_zero(v):
        return False
    if isinstance(K, RationalField):
        return type(v) is int or type(v) is Fraction and v.denominator > 1
    if isinstance(K, PrimeField):
        return type(v) is int and 0 <= v < K.char
    if isinstance(K, ExtensionField):
        return (type(v) is tuple and len(v) == K.degree
                and all(type(x) is int and 0 <= x < K.char for x in v))
    if isinstance(K, QuadraticField):
        Q = QQ()
        return type(v) is tuple and len(v) == 2 and all(
            x == 0 and type(x) is int or is_canonical(Q, x) for x in v)
    assert isinstance(K, ParameterField)
    B = K.base
    n, d = v
    return (all(is_canonical(B, x) or x == B._zero_rep() for x in n + d)
            and not B._is_zero(n[-1]) and d[-1] == B._one_rep()
            and len(_ugcd(B, n, d)) == 1)


def weight(K, x):
    """The rep of the int or Fraction x as a weight: None for 1."""
    w = K.coerce(x).rep
    return None if w == K._one_rep() else w


def accumulator_cases(K):
    """Lists of (c, w) that cancel exactly (char(K) equal terms, or weights
    that sum to char(K) or to 0), whose Fraction weights sum to integers,
    whose weights are near C(48, 24), and that mix Laurent and non-Laurent
    terms, each with the reason it is drawn."""
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    ell = K.char
    f = y / z + 1 / (y * y)              # over y^2 z: a shift onto the lcm
    g = y * z + 2                        # over 1
    h = ctx.monomial(-1, 2, 3)           # over y
    frac = y / (z + 1)
    cases = []
    if ell:
        cases += [
            ("char equal terms", [(f, None)] * ell),
            ("char equal terms and one more", [(f, None)] * ell + [(h, None)]),
            ("weights summing to char", [(f, weight(K, ell - 1)), (f, None), (g, None)]),
            ("weights 2 and char - 2",
             [(g, weight(K, 2)), (g, weight(K, ell - 2)), (h, None)] if ell > 2 else
             [(g, None), (g, None), (h, None)]),
        ]
    cases += [
        ("weights summing to 0", [(f, weight(K, 3)), (f, weight(K, -1)), (f, weight(K, -2))]),
        ("a cancelled term beside a shifted one",
         [(y / z, None), (1 / (y * y), None), (y / z, weight(K, -1))]),
        ("binomial weights", [(f, weight(K, BINOMIAL)), (g, weight(K, -BINOMIAL + 1)),
                              (f, weight(K, -BINOMIAL)), (h, weight(K, BINOMIAL - 1))]),
        ("binomial weights that do not cancel",
         [(f, weight(K, BINOMIAL)), (f, weight(K, math.comb(48, 23))), (h, None)]),
        ("mixed Laurent and non-Laurent",
         [(f, None), (frac, weight(K, 2)), (g, weight(K, -1)), (frac, weight(K, -2))]),
        ("a non-Laurent term first", [(frac, None), (h, weight(K, 5)), (h, None)]),
    ]
    if not ell:
        half = y / 2 + z * Fraction(1, 3)
        cases += [
            ("Fractions summing to integers",
             [(half, None), (half, None), (half, weight(K, Fraction(2, 3)))]),
            ("Fraction weights summing to an integer",
             [(f, weight(K, Fraction(1, 3))), (f, weight(K, Fraction(2, 3))), (h, None)]),
            ("Fraction weights summing to 0",
             [(f, weight(K, Fraction(5, 7))), (f, weight(K, Fraction(-5, 7)))]),
        ]
    return cases


def assert_accumulated(K):
    for why, terms in accumulator_cases(K):
        # a weight that vanishes in the characteristic leaves its term out
        terms = [(c, w) for c, w in terms if w is None or not K._is_zero(w)]
        got = RatFunc2.weighted_sum(terms)
        assert_same(got, ref_weighted_sum(terms), why)
        for v in list(got.num.values()) + list(got.den.values()):
            assert is_canonical(K, v), (why, v)


@pytest.mark.parametrize("name", sorted(NATIVE_FIELDS))
def test_native_accumulator_reduces_each_coefficient_once(name, monkeypatch):
    K = NATIVE_FIELDS[name]()
    assert K._accumulator()[2] is not None
    assert_accumulated(K)
    # a sum of Laurent terms calls neither `_add` nor `_mul` of the field
    y, z = FunctionField2(K).gens()
    terms = [(y / z, None), (y + 1, weight(K, BINOMIAL + 1)), (1 / z, weight(K, -1))]

    def refused(self, a, b):
        raise AssertionError("a field method ran in the accumulated sum")
    monkeypatch.setattr(type(K), "_add", refused)
    monkeypatch.setattr(type(K), "_mul", refused)
    got = RatFunc2.weighted_sum(terms)
    monkeypatch.undo()
    assert_same(got, ref_weighted_sum(terms))


def test_integral_sums_over_qq_are_ints():
    K = QQ()
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    got = RatFunc2.weighted_sum([(y * Fraction(1, 3), None), (y * Fraction(2, 3), None),
                                 (z / y, weight(K, Fraction(1, 2))),
                                 (z / y, weight(K, Fraction(3, 2)))])
    assert got == y + 2 * z / y
    assert all(type(v) is int for v in got.num.values()), got.num


@pytest.mark.parametrize("name", sorted(GENERIC_FIELDS))
def test_generic_accumulator_over_the_other_fields(name):
    K = GENERIC_FIELDS[name]()
    assert K._accumulator() == (K._add, K._mul, None)
    assert_accumulated(K)
