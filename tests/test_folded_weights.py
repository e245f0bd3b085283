"""The shortcuts of the Ore product loop on Laurent fractions, each against
the slow references of tests/_support.py over REF_FIELDS:

- `Derivation.power` scales each term of a Laurent element by lambda^s,
  over 1, and drops the terms whose eigenvalue vanishes, which can move
  the numerator's least exponents;
- `skewpoly._terms` folds a constant factor (the 1 of x or u, the
  constants of x - gamma, c x) into the binomial weight instead of
  forming a product;
- `RatFunc2.weighted_sum` drops an entry of its Laurent sum that
  cancels, in part or in full;
- `skewpoly._terms` folds lambda^s into the weight where g_j is a Laurent
  monomial, an eigenvector of a scaling derivation, and lists order 0
  alone where lambda = 0, while a derivation of the q family keeps taking
  D^s(g_j);
- `skewpoly._terms` returns at once where every x-degree of f lies in
  [0, lowest), as in the g f half of a commutator with a coefficient g,
  and not where f has a negative x-degree."""

import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ
from orefields.pdo import PdoSeries, pdo_inv
from orefields.presentations import CaseSpec, algebra_make
from orefields.ratfunc import Derivation, RatFunc2, scaling_derivation
from orefields.skewpoly import SkewPoly, _summed, _terms, commutator

from _support import (
    REF_FIELDS, rand_laurent_monomial, rand_nonzero, rand_ratfunc, ref_combined,
    ref_commutator, ref_derivation, ref_field, ref_pdo_inv, ref_pdo_mul, ref_ratfunc_mul,
    ref_skew_mul,
)


def g_pres(name):
    field, alpha = ref_field(name)
    return algebra_make(CaseSpec("g", field, field.coerce(alpha)))


def rand_const(rng, K):
    """A nonzero constant other than 1, so that a weight it is left out of
    comes out wrong."""
    while True:
        c = rand_nonzero(rng, K)
        if c != K.one():
            return c


def assert_same(got, want, *context):
    assert (got.num, got.den) == (want.num, want.den), context
    assert str(got) == str(want), context


# ---------------------------------------------------------------------------
# Derivation.power on Laurent fractions

def scaling_derivations(pres):
    """The derivation of g_alpha, its negation (the series derivation) and
    two scaling derivations with kernel monomials off the axes in every
    characteristic: y z^-1 for D(y) = y, D(z) = z, and y^-1 z^2 for
    D(y) = 2y, D(z) = z."""
    ctx = pres.ctx
    return [pres.D, pres.D.negate(), scaling_derivation(ctx, 1, 1),
            scaling_derivation(ctx, 2, 1)]


def kernel_keys(D):
    """The exponents (a, b) != (0, 0) in [-3, 3]^2 whose monomial D kills."""
    ctx = D.ctx
    return [(a, b) for a in range(-3, 4) for b in range(-3, 4)
            if (a, b) != (0, 0) and ref_derivation(D, ctx.monomial(a, b)).is_zero()]


def least_exponents(f):
    return min(i for i, _ in f.num), min(j for _, j in f.num)


def reference_power(D, f, s):
    for _ in range(s):
        f = ref_derivation(D, f)
    return f


@pytest.mark.parametrize("name", REF_FIELDS)
def test_laurent_powers_match_iterated_reference_derivation(name):
    pres = g_pres(name)
    ctx, K = pres.ctx, pres.ctx.field
    rng = random.Random(f"laurent-power-{name}")
    moved = 0
    for D in scaling_derivations(pres):
        draws = []
        for _ in range(6):
            f = ctx.zero()
            while f.is_zero():
                for _ in range(rng.randint(1, 4)):
                    f = f + rand_laurent_monomial(rng, ctx, span=3)
            draws.append(f)
        # a killed term that carries the least exponent of y or z: dropping
        # it must move the numerator's least exponents
        for a, b in kernel_keys(D):
            if a < 0 or b < 0:
                rest = ctx.monomial(a + 1, b + 1, rand_nonzero(rng, K))
                draws.append(ctx.monomial(a, b, rand_nonzero(rng, K)) + rest)
        for f in draws:
            assert D.is_diagonal_on(f)
            for s in range(1, 5):
                got, want = D.power(f, s), reference_power(D, f, s)
                assert_same(got, want, str(D), str(f), s)
                if s == 1:
                    assert_same(D(f), want, str(D), str(f))
                    moved += (not got.is_zero()
                              and least_exponents(got) != least_exponents(f))
    # the draws reach a power that drops such a term
    assert moved


# ---------------------------------------------------------------------------
# constant factors folded into the weights

def laurent(rng, ctx):
    f = ctx.zero()
    while f.is_zero():
        for _ in range(rng.randint(1, 3)):
            f = f + rand_laurent_monomial(rng, ctx, span=1)
    return f


def skew_with_constants(rng, D):
    """x, c x, x - gamma, x^2 + c and c x + g with a Laurent g, for random
    constants c and gamma other than 1."""
    ctx = D.ctx
    K = ctx.field

    def const():
        return ctx.const(rand_const(rng, K))
    x = SkewPoly.x(D)
    return [x, x * const(), x - const(), x ** 2 + const(),
            SkewPoly(D, {1: const(), 0: laurent(rng, ctx)})]


@pytest.mark.parametrize("name", REF_FIELDS)
def test_skew_products_with_constant_coefficients_match_reference(name):
    pres = g_pres(name)
    D, ctx = pres.D, pres.ctx
    rng = random.Random(f"constant-skew-{name}")
    consts = skew_with_constants(rng, D)
    others = [SkewPoly(D, {0: laurent(rng, ctx)}),
              SkewPoly(D, {1: laurent(rng, ctx), 0: laurent(rng, ctx)}),
              SkewPoly(D, {2: laurent(rng, ctx), 0: ctx.const(rand_const(rng, ctx.field))})]
    for f in consts:
        for g in others + consts:
            for a, b in ((f, g), (g, f)):
                ab, ba = ref_skew_mul(a, b), ref_skew_mul(b, a)
                assert a * b == ab, (str(a), str(b))
                assert commutator(a, b) == ab - ba, (str(a), str(b))
                assert commutator(a, b) == ref_commutator(a, b), (str(a), str(b))


def series_with_constants(rng, pres, prec):
    """u, c u, u - gamma and u^-1 + c y, as series over -D."""
    d = pres.D.negate()
    ctx, K = pres.ctx, pres.ctx.field

    def const():
        return ctx.const(rand_const(rng, K))
    y = ctx.monomial(1, 0)
    return [PdoSeries(d, {1: ctx.one()}, prec), PdoSeries(d, {1: const()}, prec),
            PdoSeries(d, {1: ctx.one(), 0: -const()}, prec),
            PdoSeries(d, {-1: ctx.one(), 0: const() * y}, prec)]


@pytest.mark.parametrize("name", REF_FIELDS)
def test_series_products_and_inverses_with_constant_coefficients_match_reference(name):
    pres = g_pres(name)
    d, ctx = pres.D.negate(), pres.ctx
    rng = random.Random(f"constant-series-{name}")
    consts = series_with_constants(rng, pres, 6)
    others = [PdoSeries(d, {0: laurent(rng, ctx), 1: laurent(rng, ctx)}, 6),
              PdoSeries(d, {-1: laurent(rng, ctx), 2: laurent(rng, ctx)}, 5)]
    for a in consts:
        for b in others + consts:
            for f, g in ((a, b), (b, a)):
                got, want = f * g, ref_pdo_mul(f, g)
                assert (got.terms, got.prec) == (want.terms, want.prec), (str(f), str(g))
    y, z = ctx.gens()
    for a in consts + [consts[0] + PdoSeries(d, {0: y}, 6),
                       consts[1] + PdoSeries(d, {0: y * z, 2: ctx.const(3)}, 6)]:
        got, want = pdo_inv(a), ref_pdo_inv(a)
        assert (got.terms, got.prec) == (want.terms, want.prec), str(a)


# ---------------------------------------------------------------------------
# weighted sums that cancel

def ref_weighted_sum(terms):
    ctx = terms[0][0].ctx
    out = ctx.zero()
    for c, w in terms:
        if w is not None:
            c = ref_ratfunc_mul(c, ctx.const(ctx.field.element(w)))
        out = ref_combined(out, c)
    return out


@pytest.mark.parametrize("name", REF_FIELDS)
def test_weighted_sums_that_cancel_in_part_and_in_full(name):
    ctx = g_pres(name).ctx
    K = ctx.field
    minus, two = K._from_int(-1), K._from_int(2)
    y, z = ctx.gens()
    rng = random.Random(f"cancel-{name}")
    for _ in range(6):
        f, g = laurent(rng, ctx), laurent(rng, ctx)
        c = rand_const(rng, K)
        cases = [
            [(f, None), (f, minus)],                      # in full
            [(f, c.rep), (f * c, minus), (g, None)],      # in full but g
            [(f, None), (f, minus), (f, two)],            # cancelled, then back
            [(f + g, None), (g, minus)],                  # in part
            [(y / z + f, None), (-f, None), (1 / z, None)],
            [(y + 1 / z, None), (-y, None), (-(1 / z), None)],
        ]
        for terms in cases:
            got = RatFunc2.weighted_sum(terms)
            assert not any(K._is_zero(v) for v in got.num.values())
            assert_same(got, ref_weighted_sum(terms), [(str(t), w) for t, w in terms])


def test_is_constant():
    pres = g_pres("QQ")
    ctx = pres.ctx
    y, z = ctx.gens()
    for f, want in ((ctx.zero(), True), (ctx.one(), True), (ctx.const(3), True),
                    (y, False), (1 / y, False), (y + 1, False), (3 / (y * z), False),
                    (y / (z + 1), False)):
        assert f.is_constant() is want, str(f)


# ---------------------------------------------------------------------------
# eigenvalues of Laurent monomials folded into the weights

def power_calls(monkeypatch):
    """Record the argument of every `Derivation.power` call."""
    seen = []
    power = Derivation.power

    def recording(self, f, s):
        seen.append(f)
        return power(self, f, s)
    monkeypatch.setattr(Derivation, "power", recording)
    return seen


def assert_products_match_reference(fs, gs):
    for f in fs:
        for g in gs:
            for a, b in ((f, g), (g, f)):
                assert a * b == ref_skew_mul(a, b), (str(a), str(b))
                assert commutator(a, b) == ref_commutator(a, b), (str(a), str(b))


def assert_series_match_reference(fs, gs):
    for f in fs:
        for g in gs:
            for a, b in ((f, g), (g, f)):
                got, want = a * b, ref_pdo_mul(a, b)
                assert (got.terms, got.prec) == (want.terms, want.prec), (str(a), str(b))


def mixed_coefficients(rng, ctx):
    """A constant, a Laurent monomial, a Laurent sum and a fraction whose
    denominator is not a monomial."""
    y, z = ctx.gens()
    return [ctx.const(rand_nonzero(rng, ctx.field)), rand_laurent_monomial(rng, ctx),
            laurent(rng, ctx), (y + z) / (z + 1) + rand_ratfunc(rng, ctx, 1)]


# (field, alpha, a Laurent monomial (i, j) whose eigenvalue i + j alpha is 0)
KERNEL_MONOMIALS = [(QQ(), Fraction(2, 3), (2, -3)), (QQ(), 2, (2, -1)), (GF(2), 1, (2, 0)),
                    (GF(3), 2, (3, 0)), (GF(5), 3, (5, 0))]


@pytest.mark.parametrize("field, alpha, ij", KERNEL_MONOMIALS,
                         ids=["QQ:y^2z^-3", "QQ:y^2z^-1", "GF2:y^2", "GF3:y^3", "GF5:y^5"])
def test_monomials_of_eigenvalue_zero_list_order_zero_alone(field, alpha, ij, monkeypatch):
    pres = algebra_make(CaseSpec("g", field, field.coerce(alpha)))
    D, ctx = pres.D, pres.ctx
    rng = random.Random(f"kernel-monomial-{field}")
    g = ctx.monomial(*ij, rand_nonzero(rng, field))
    assert field._is_zero(D.eigenvalue(g))
    seen = power_calls(monkeypatch)
    G = SkewPoly(D, {0: g, 2: ctx.monomial(*ij)})
    fs = [SkewPoly(D, dict(enumerate(mixed_coefficients(rng, ctx)))),
          SkewPoly(D, {3: laurent(rng, ctx), 1: ctx.one()}), SkewPoly.x(D) ** 4]
    # x^3 g = g x^3: only order 0 is listed
    pending = _terms({3: laurent(rng, ctx)}, {0: g}, D, {})
    assert list(pending) == [3] and len(pending[3]) == 1
    # g commutes with x and with the coefficients, so with every skew
    # polynomial
    for f in fs:
        assert commutator(f, SkewPoly(D, {0: g})).is_zero(), str(f)
    assert_products_match_reference(fs, [G])
    # the right factor is all monomials: no D^s is taken for it
    assert not [f for f in seen if f == g or f == ctx.monomial(*ij)]
    d = D.negate()
    series = [PdoSeries(d, {-1: rand_laurent_monomial(rng, ctx), 0: g, 3: laurent(rng, ctx)}, 4),
              PdoSeries(d, {1: ctx.one(), 0: g}, 6)]
    assert_series_match_reference(series, [PdoSeries(d, {0: g, 1: ctx.monomial(*ij)}, 6)])
    for a in series:
        got, want = pdo_inv(a), ref_pdo_inv(a)
        assert (got.terms, got.prec) == (want.terms, want.prec), str(a)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_eigen_monomials_at_negative_x_degrees_match_reference(name, monkeypatch):
    # series: x = u^-1, so u^n is x^-n and C(-n, s) is nonzero at every order
    pres = g_pres(name)
    d, ctx = pres.D.negate(), pres.ctx
    rng = random.Random(f"eigen-series-{name}")
    y, z = ctx.gens()
    monomials = [PdoSeries(d, {1: rand_laurent_monomial(rng, ctx),
                               3: rand_laurent_monomial(rng, ctx)}, 6),
                 PdoSeries(d, {-1: y, 0: rand_laurent_monomial(rng, ctx)}, 5),
                 PdoSeries(d, {2: ctx.monomial(-2, 1, rand_const(rng, ctx.field))}, 7)]
    others = [PdoSeries(d, dict(zip((-1, 0, 1, 2), mixed_coefficients(rng, ctx))), 6),
              PdoSeries(d, {1: ctx.one(), 0: y}, 8)]
    seen = power_calls(monkeypatch)
    for f in others + monomials:
        for g in monomials:
            got, want = f * g, ref_pdo_mul(f, g)
            assert (got.terms, got.prec) == (want.terms, want.prec), (str(f), str(g))
    assert not seen
    assert_series_match_reference(others, others)
    for a in monomials[:2] + [PdoSeries(d, {1: ctx.one(), 0: y}, 12)]:
        got, want = pdo_inv(a), ref_pdo_inv(a)
        assert (got.terms, got.prec) == (want.terms, want.prec), str(a)


@pytest.mark.parametrize("name", ["GF7", "GF3(a)"])
def test_eigen_monomials_at_lucas_sparse_orders_match_reference(name, monkeypatch):
    # in characteristic l, C(i, s) vanishes mod l unless every base-l digit
    # of s is at most that of i: x^l has orders 0 and l only
    pres = g_pres(name)
    D, ctx = pres.D, pres.ctx
    ell = ctx.field.char
    rng = random.Random(f"eigen-lucas-{name}")
    gs = [SkewPoly(D, {0: rand_laurent_monomial(rng, ctx, span=3),
                       1: rand_laurent_monomial(rng, ctx, span=3)}),
          SkewPoly(D, {0: ctx.monomial(1, -1, rand_const(rng, ctx.field))})]
    fs = [SkewPoly(D, {i: c for i, c in zip((ell, ell + 1, 2 * ell - 1),
                                            mixed_coefficients(rng, ctx))}),
          SkewPoly(D, {ell * ell - 1: laurent(rng, ctx), ell: ctx.one()})]
    seen = power_calls(monkeypatch)
    for f in fs:
        for g in gs:
            assert f * g == ref_skew_mul(f, g), (str(f), str(g))
    assert not seen
    assert_products_match_reference(fs, gs)


@pytest.mark.parametrize("coords", ["yz", "yt"])
@pytest.mark.parametrize("name", REF_FIELDS)
def test_the_q_family_takes_every_power_of_its_derivation(name, coords, monkeypatch):
    # D(y) = y, D(z) = y + z (or D(t) = 1) scales no monomial but y^i, so
    # D^s(g_j) is taken by Derivation.power for every g_j, monomials too
    field, _ = ref_field(name)
    pres = algebra_make(CaseSpec("q", field), coords)
    D, ctx = pres.D, pres.ctx
    rng = random.Random(f"q-family-{name}-{coords}")
    g = ctx.monomial(2, -1, rand_const(rng, field))
    assert D.eigenvalue(g) is None
    assert D.eigenvalue(ctx.monomial(3, 0)) is None
    seen = power_calls(monkeypatch)
    fs = [SkewPoly(D, dict(enumerate(mixed_coefficients(rng, ctx)))), SkewPoly.x(D) ** 3]
    gs = [SkewPoly(D, {0: g, 1: rand_laurent_monomial(rng, ctx)})]
    assert fs[0] * gs[0] == ref_skew_mul(fs[0], gs[0])
    assert g in seen
    assert_products_match_reference(fs, gs)
    d = D.negate()
    a = PdoSeries(d, {1: ctx.one(), 0: g}, 6)
    b = PdoSeries(d, {-1: rand_laurent_monomial(rng, ctx), 1: laurent(rng, ctx)}, 6)
    assert_series_match_reference([a], [a, b])
    got, want = pdo_inv(a), ref_pdo_inv(a)
    assert (got.terms, got.prec) == (want.terms, want.prec)


# ---------------------------------------------------------------------------
# no terms where every x-degree of f lies in [0, lowest)

@pytest.mark.parametrize("name", REF_FIELDS)
def test_commutators_with_a_degree_zero_operand_match_reference(name, monkeypatch):
    pres = g_pres(name)
    D, ctx = pres.D, pres.ctx
    rng = random.Random(f"degree-zero-{name}")
    y, z = ctx.gens()
    # a constant, a Laurent monomial, a Laurent sum and a small fraction
    # whose denominator is not a monomial
    coefficients = mixed_coefficients(rng, ctx)[:3] + [(y + z) / (z + 1)]
    fs = [SkewPoly(D, dict(enumerate(mixed_coefficients(rng, ctx)[:3]))), SkewPoly.x(D) ** 3,
          SkewPoly(D, {2: laurent(rng, ctx), 0: ctx.one()})]
    for c in coefficients:
        g = SkewPoly(D, {0: c})
        for f in fs:
            for a, b in ((f, g), (g, f), (f, c), (c, f)):
                assert commutator(a, b) == ref_commutator(a, b), (str(a), str(b))
    # the g f half lists nothing, and takes no eigenvalue and no power
    calls = power_calls(monkeypatch)
    monkeypatch.setattr(Derivation, "eigenvalue", lambda *args: calls.append(args))
    for c in coefficients:
        for f in fs:
            pending = {}
            assert _terms({0: c}, f.coeffs, D, pending, 1) is pending and not pending
            pending = {}
            assert _terms({0: c, 1: c}, f.coeffs, D, pending, 2) is pending and not pending
    assert not calls


@pytest.mark.parametrize("name", REF_FIELDS)
def test_negative_x_degrees_below_lowest_still_list_their_terms(name):
    # x = u^-1: u^n is x^-n, whose binomials C(-n, s) are nonzero at every
    # order s, so f of x-degrees {-1, 0} has terms of order >= 1
    pres = g_pres(name)
    d, ctx = pres.D.negate(), pres.ctx
    D = d.negate()
    rng = random.Random(f"negative-lowest-{name}")
    for _ in range(3):
        f = PdoSeries(d, {1: laurent(rng, ctx), 0: rng.choice(mixed_coefficients(rng, ctx)[:3])},
                      6)
        g = PdoSeries(d, {0: laurent(rng, ctx), 2: rand_laurent_monomial(rng, ctx)}, 6)
        got, want = f * g, ref_pdo_mul(f, g)
        assert (got.terms, got.prec) == (want.terms, want.prec), (str(f), str(g))
        fx = {-n: c for n, c in f.terms.items()}
        gx = {-n: c for n, c in g.terms.items()}
        floor = -got.prec
        higher = _summed(_terms(fx, gx, D, {}, 1, floor))
        assert higher, (str(f), str(g))
        order0 = {}
        for i, fi in fx.items():
            for j, gj in gx.items():
                if i + j >= floor:
                    order0[i + j] = order0.get(i + j, ctx.zero()) + fi * gj
        total = dict(higher)
        for k, c in order0.items():
            total[k] = total.get(k, ctx.zero()) + c
        assert {-k: c for k, c in total.items() if not c.is_zero()} == want.terms
