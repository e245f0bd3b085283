import math
import random
from fractions import Fraction

import pytest

from orefields import pdo
from orefields.fields import GF, QQ, with_parameter
from orefields.orbits import Mat2Z
from orefields.pdo import (
    PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv, pdo_mul, pdo_valuation,
)
from orefields.presentations import CaseSpec, algebra_make, monomial_morphism
from orefields.ratfunc import Derivation
from orefields.skewpoly import SkewPoly, _summed, _terms, binomial_orders
from _support import (
    REF_FIELDS, counting, rand_laurent_monomial, rand_nonzero, rand_poly2, rand_skew, ref_field,
    ref_pdo_inv, ref_pdo_mul, ref_push_coefficient,
)


def g_pres(field, alpha):
    return algebra_make(CaseSpec("g", field, field.coerce(alpha)))


@pytest.fixture
def gen3():
    K = with_parameter(GF(3))
    return g_pres(K, K.gen())


def delta(pres):
    return pres.D.negate()


class TestMul:
    def test_u_times_y_alternates(self, gen3):
        d = delta(gen3)
        u = PdoSeries.u(d, 5)
        y = PdoSeries.from_ratfunc(d, gen3.ctx.monomial(1, 0), 5)
        prod = pdo_mul(u, y)
        ym = gen3.ctx.monomial(1, 0)
        for j in range(5):
            want = ym if j % 2 == 0 else -ym
            assert prod.coefficient(j + 1) == want

    def test_uinv_u_exact(self, gen3):
        d = delta(gen3)
        u = PdoSeries.u(d, 8)
        uinv = PdoSeries.u(d, 8, power=-1)
        assert pdo_mul(uinv, u).approx_eq(PdoSeries.one(d, 8))
        assert pdo_mul(u, uinv).approx_eq(PdoSeries.one(d, 8))

    def test_u_times_one(self, gen3):
        d = delta(gen3)
        u = PdoSeries.u(d, 8)
        assert pdo_mul(u, PdoSeries.one(d, 8)) == u

    def test_valuation_additive_random(self, gen3):
        rng = random.Random(31)
        d = delta(gen3)
        for _ in range(20):
            a = _rand_series(rng, gen3, d)
            b = _rand_series(rng, gen3, d)
            va, vb = pdo_valuation(a), pdo_valuation(b)
            if math.isinf(va) or math.isinf(vb):
                continue
            assert pdo_valuation(pdo_mul(a, b)) == va + vb

    def test_ultrametric_random(self, gen3):
        rng = random.Random(32)
        d = delta(gen3)
        for _ in range(20):
            a = _rand_series(rng, gen3, d)
            b = _rand_series(rng, gen3, d)
            s = a + b
            assert pdo_valuation(s) >= min(pdo_valuation(a), pdo_valuation(b))


class TestRingSurface:
    """Coercion, sums, negation and powers, which series share with skew
    polynomials."""

    def test_coefficient_from_another_context_is_refused(self, gen3):
        t = algebra_make(CaseSpec("q", gen3.case.field), "yt").ctx.monomial(0, 1)
        series = PdoSeries.u(delta(gen3), 4)
        for element in (series, gen3.x):
            for op in (lambda a: a + t, lambda a: t + a, lambda a: a - t,
                       lambda a: t - a, lambda a: a * t, lambda a: t * a):
                with pytest.raises(ValueError, match="coefficient from a different context"):
                    op(element)

    def test_results_carry_the_weaker_precision(self, gen3):
        d = delta(gen3)
        y = gen3.ctx.monomial(1, 0)
        a, b = PdoSeries.u(d, 5), PdoSeries.from_ratfunc(d, y, 3)
        for s in (a + b, b + a, a - b, b - a):
            assert s.prec == 3
        assert (-a).prec == (a + 1).prec == (1 - a).prec == (2 * a).prec == 5
        assert a ** 0 == PdoSeries.one(d, 5)
        assert (y + a).terms == {0: y, 1: gen3.ctx.one()}

    def test_powers_and_derivations_are_checked(self, gen3):
        d = delta(gen3)
        with pytest.raises(ValueError, match="series powers take nonnegative"):
            PdoSeries.u(d, 4) ** -1
        with pytest.raises(ValueError, match="skew powers take nonnegative"):
            gen3.x ** -1
        with pytest.raises(ValueError, match="series over different derivations"):
            PdoSeries.u(d, 4) + PdoSeries.u(gen3.D, 4)
        with pytest.raises(ValueError, match="skew polynomials over different derivations"):
            gen3.x + SkewPoly.x(d)

    def test_approx_eq_refuses_what_it_cannot_coerce(self, gen3):
        series = PdoSeries.u(delta(gen3), 4)
        assert series.approx_eq(series) and not series.approx_eq(1)
        for other in ("u", None, [1]):
            with pytest.raises(TypeError, match="cannot compare a series with"):
                series.approx_eq(other)


def _rand_series(rng, pres, d, prec=8):
    terms = {}
    for n in range(-2, 3):
        if rng.random() < 0.5:
            terms[n] = rand_laurent_monomial(rng, pres.ctx)
    return PdoSeries(d, terms, prec)


class TestFromSkew:
    def test_x_maps_to_uinv(self, gen3):
        img = pdo_from_skew(gen3.x, 8)
        assert img.terms == {-1: gen3.ctx.one()}
        assert pdo_valuation(img) == -1

    def test_coefficient_maps_flat(self, gen3):
        img = pdo_from_skew(gen3.y, 8)
        assert img.terms == {0: gen3.ctx.monomial(1, 0)}
        assert pdo_valuation(img) == 0

    def test_valuations(self, gen3):
        d = delta(gen3)
        assert pdo_valuation(PdoSeries.u(d, 8)) == 1
        assert pdo_valuation(PdoSeries.from_ratfunc(d, gen3.ctx.monomial(-3, 1), 8)) == 0
        mixed = PdoSeries(d, {-1: gen3.ctx.one(), 1: gen3.ctx.const(5)}, 8)
        assert pdo_valuation(mixed) == -1
        assert pdo_valuation(PdoSeries.zero(d, 8)) == math.inf

    def test_defining_relation_maps_to_zero(self, gen3):
        x, y, _ = gen3.gens
        assert pdo_from_skew(x * y - y * x - y, 8).is_zero_mod_prec()

    def test_valuations_agree_with_skew(self, gen3):
        rng = random.Random(33)
        from orefields.skewpoly import valuation_v
        for _ in range(15):
            f = rand_skew(rng, gen3.D)
            assert pdo_valuation(pdo_from_skew(f, 8)) == valuation_v(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_embedding_is_multiplicative(self, gen3, seed):
        rng = random.Random(100 + seed)
        for _ in range(6):
            f = rand_skew(rng, gen3.D)
            g = rand_skew(rng, gen3.D)
            lhs = pdo_from_skew(f * g, 8)
            rhs = pdo_mul(pdo_from_skew(f, 8), pdo_from_skew(g, 8))
            assert lhs.approx_eq(rhs)


class TestInverse:
    def test_scalar_u(self, gen3):
        K = gen3.ctx.field
        gamma = K.gen() * 2 + 1
        d = delta(gen3)
        a = PdoSeries(d, {1: gen3.ctx.const(gamma)}, 8)
        inv = pdo_inv(a)
        assert inv.terms == {-1: gen3.ctx.const(gamma.inverse())}

    def test_geometric_series(self):
        pres = g_pres(QQ(), 2)
        d = delta(pres)
        one = pres.ctx.one()
        a = PdoSeries(d, {0: one, 1: -one}, 6)   # 1 - u
        inv = pdo_inv(a)
        for n in range(inv.prec + 1):
            assert inv.coefficient(n) == one

    def test_roundtrip_random(self, gen3):
        rng = random.Random(34)
        d = delta(gen3)
        for _ in range(10):
            a = _rand_series(rng, gen3, d)
            if a.is_zero_mod_prec():
                continue
            inv = pdo_inv(a)
            n = min(a.prec, inv.prec)
            assert pdo_mul(a, inv).approx_eq(PdoSeries.one(d, n))
            assert pdo_mul(inv, a).approx_eq(PdoSeries.one(d, n))
            back = pdo_inv(inv)
            assert back.approx_eq(a.truncate(back.prec))

    def test_zero_rejected(self, gen3):
        with pytest.raises(ZeroDivisionError):
            pdo_inv(PdoSeries.zero(delta(gen3), 8))

    def test_precision_beyond_determined_rejected(self):
        # 1 - u known through u^4 says nothing about the inverse past u^4
        pres = g_pres(QQ(), 2)
        d = delta(pres)
        one = pres.ctx.one()
        a = PdoSeries(d, {0: one, 1: -one}, 4)
        assert pdo_inv(a, prec=4) == pdo_inv(a)
        with pytest.raises(ValueError):
            pdo_inv(a, prec=5)
        with pytest.raises(ValueError):
            pdo_inv(PdoSeries(d, {2: one}, 4), prec=-3)


class TestPushCoefficient:
    """u^m a = sum_j c(m, j) delta^j(a) u^{m+j} is x^i a = sum_j C(i, j)
    D^j(a) x^(i-j) read through x = u^-1, D = -delta: so c(m, j) is
    (-1)^j C(-m, j), the binomial that `binomial_orders(-m, ...)` lists."""

    def test_closed_forms(self):
        for j in range(8):
            assert ref_push_coefficient(0, j) == (1 if j == 0 else 0)
            for m in range(1, 6):
                assert ref_push_coefficient(m, j) == math.comb(m - 1 + j, j)
                assert ref_push_coefficient(-m, j) == (-1) ** j * math.comb(m, j)

    def test_powers_compose(self):
        # u^(m1+m2) a = u^m1 (u^m2 a): the coefficients convolve
        for m1 in range(-3, 4):
            for m2 in range(-3, 4):
                for j in range(8):
                    assert ref_push_coefficient(m1 + m2, j) == sum(
                        ref_push_coefficient(m1, i) * ref_push_coefficient(m2, j - i)
                        for i in range(j + 1))

    @pytest.mark.parametrize("ell", [0, 2, 3, 7])
    def test_binomial_orders_are_the_push_coefficients(self, ell):
        for m in range(-6, 7):
            for top in range(9):
                want = [(j, (-1) ** j * ref_push_coefficient(m, j)) for j in range(top + 1)]
                want = [(j, c % ell if ell else c) for j, c in want if (c % ell if ell else c)]
                assert binomial_orders(-m, ell, 0, top) == want, (m, top)

    def test_uinv_squared_truncates(self):
        # u^-2 y = y u^-2 - 2 delta(y) u^-1 + delta^2(y): the alternating sum
        # ends at j = 2, well inside the precision
        pres = g_pres(QQ(), 2)
        d = delta(pres)
        y = pres.ctx.monomial(1, 0)
        prod = PdoSeries.u(d, 8, power=-2) * PdoSeries.from_ratfunc(d, y, 8)
        assert prod.prec == 6
        assert prod.terms == {-2: y, -1: d(y) * -2, 0: d(d(y))}


def _series(rng, pres, d, v, prec):
    """A series of valuation v, exact through prec >= v, with up to three
    more terms.  The leading coefficient is a Laurent monomial, the others
    are Laurent monomials or small polynomials, which keeps the gcds of the
    reference inverse small."""
    terms = {v: rand_laurent_monomial(rng, pres.ctx, span=1)}
    for n in range(v + 1, min(v + 3, prec) + 1):
        if rng.random() < 0.6:
            terms[n] = (rand_laurent_monomial(rng, pres.ctx, span=1)
                        if rng.random() < 0.7 else rand_poly2(rng, pres.ctx, maxdeg=1))
    return PdoSeries(d, terms, prec)


class TestAgainstReference:
    """The push-through product and the one-coefficient inverse against the
    term-by-term product and the one-product-per-coefficient inverse."""

    @pytest.mark.parametrize("name", REF_FIELDS)
    def test_mul(self, name):
        field, alpha = ref_field(name)
        pres = g_pres(field, alpha)
        d = delta(pres)
        rng = random.Random(REF_FIELDS.index(name))
        for _ in range(12):
            va, vb = rng.randint(-2, 2), rng.randint(-2, 2)
            a = _series(rng, pres, d, va, rng.randint(max(va, 0), 8))
            b = _series(rng, pres, d, vb, rng.randint(max(vb, 0), 8))
            got, want = a * b, ref_pdo_mul(a, b)
            assert (got.terms, got.prec) == (want.terms, want.prec)

    @pytest.mark.parametrize("name", REF_FIELDS)
    def test_inv(self, name):
        field, alpha = ref_field(name)
        pres = g_pres(field, alpha)
        d = delta(pres)
        rng = random.Random(10 + REF_FIELDS.index(name))
        for v in range(-2, 3):
            a = _series(rng, pres, d, v, rng.randint(max(v, 0), max(v, 0) + 4))
            got, want = pdo_inv(a), ref_pdo_inv(a)
            assert (got.terms, got.prec) == (want.terms, want.prec)
            for prec in (-v, (a.prec - 3 * v) // 2):
                got, want = pdo_inv(a, prec=prec), ref_pdo_inv(a, prec=prec)
                assert (got.terms, got.prec) == (want.terms, want.prec)

    @pytest.mark.parametrize("name", REF_FIELDS)
    def test_negative_exponents_truncate(self, name):
        # m = -k with k < N - base: the alternating sum ends before the
        # precision does, in the product and in the inverse of a series
        # that starts at u^-2
        field, alpha = ref_field(name)
        pres = g_pres(field, alpha)
        d = delta(pres)
        rng = random.Random(20 + REF_FIELDS.index(name))
        for _ in range(4):
            a = _series(rng, pres, d, -2, 4)
            b = _series(rng, pres, d, 0, 8)
            got, want = a * b, ref_pdo_mul(a, b)
            assert got.prec == 4            # N - base = 6 > k = 2 for m = -2, n = 0
            assert (got.terms, got.prec) == (want.terms, want.prec)
            a = a.truncate(2)
            got, want = pdo_inv(a), ref_pdo_inv(a)
            assert (got.terms, got.prec) == (want.terms, want.prec)

    @pytest.mark.parametrize("name", ["GF3", "GF3(a)"])
    def test_binomials_that_vanish_mod_3(self, name):
        # c(2, 2) = C(3, 2) and c(-3, 1) = -C(3, 1) vanish mod 3, so the
        # terms of u^2 and u^-3 skip those orders and take the next ones;
        # the loop's raw terms stop at the x-degree floor -N
        field, alpha = (GF(3), 2) if name == "GF3" else ref_field(name)
        pres = g_pres(field, alpha)
        d = delta(pres)
        rng = random.Random(f"mod-3-{name}")
        for v in range(-3, 3):
            a = _series(rng, pres, d, -3, 9) + _series(rng, pres, d, 2, 9)
            b = _series(rng, pres, d, v, rng.randint(9, 11))
            for f, g in ((a, b), (b, a)):
                got, want = f * g, ref_pdo_mul(f, g)
                assert (got.terms, got.prec) == (want.terms, want.prec)
                raw = _summed(_terms({-n: c for n, c in f.terms.items()},
                                     {-n: c for n, c in g.terms.items()}, d.negate(), {}, 0,
                                     -got.prec))
                assert min(raw) >= -got.prec
                assert {-k: c for k, c in raw.items() if not c.is_zero()} == want.terms
            for s in (a, b):
                got, want = pdo_inv(s), ref_pdo_inv(s)
                assert (got.terms, got.prec) == (want.terms, want.prec)


    # pdo_inv solves b * a = 1 where every coefficient of a is a constant
    # or an eigenvector of the derivation, and a * b = 1 otherwise

    @staticmethod
    def _sides(monkeypatch):
        """Record, for each product `pdo_inv` forms, whether a is its right
        factor (b * a) or its left one (a * b)."""
        seen = []
        terms = pdo._terms

        def recording(f, g, *args):
            seen.append((f, g))
            return terms(f, g, *args)
        monkeypatch.setattr(pdo, "_terms", recording)
        return seen

    @staticmethod
    def _assert_inverse(a, side, seen):
        ax = {-n: c for n, c in a.terms.items()}
        del seen[:]
        got, want = pdo_inv(a), ref_pdo_inv(a)
        assert (got.terms, got.prec) == (want.terms, want.prec), str(a)
        assert seen and all((g if side == "left" else f) == ax for f, g in seen), str(a)
        for prod in (a * got, got * a):
            assert prod.prec >= 0
            assert prod.approx_eq(PdoSeries.one(a.derivation, prod.prec)), str(a)

    @pytest.mark.parametrize("name", REF_FIELDS)
    def test_inverse_sides(self, name, monkeypatch):
        field, alpha = ref_field(name)
        pres = g_pres(field, alpha)
        d, ctx = delta(pres), pres.ctx
        rng = random.Random(f"inverse-sides-{name}")
        seen = self._sides(monkeypatch)
        for v in range(-2, 3):
            prec = rng.randint(max(v, 0) + 2, max(v, 0) + 5)
            terms = {v: rand_laurent_monomial(rng, ctx, span=1)}
            for n in range(v + 1, prec + 1):
                if rng.random() < 0.6:
                    terms[n] = (ctx.const(rand_nonzero(rng, field)) if rng.random() < 0.4
                                else rand_laurent_monomial(rng, ctx, span=1))
            eigen = PdoSeries(d, terms, prec)
            self._assert_inverse(eigen, "left", seen)
            # one coefficient with two terms makes D^s(a_n) a chain; it sits
            # after the leading one, whose inverse would put a polynomial
            # gcd into every order of the reference
            poly = rand_poly2(rng, ctx, maxdeg=1)
            while len(poly.num) < 2:
                poly = poly + rand_poly2(rng, ctx, maxdeg=1)
            n = rng.randint(v + 1, prec)
            self._assert_inverse(PdoSeries(d, {**terms, n: poly}, prec), "right", seen)

    @pytest.mark.parametrize("name", REF_FIELDS)
    def test_the_q_family_inverse_takes_the_right_side(self, name, monkeypatch):
        # D(y) = y, D(z) = y + z is not a scaling derivation: even a series
        # of monomials takes a * b = 1, but one of constants takes b * a = 1
        field, _ = ref_field(name)
        pres = algebra_make(CaseSpec("q", field))
        d, ctx = delta(pres), pres.ctx
        rng = random.Random(f"q-inverse-{name}")
        seen = self._sides(monkeypatch)
        y, z = ctx.gens()
        self._assert_inverse(PdoSeries(d, {1: ctx.one(), 0: z, 2: y / z}, 5), "right", seen)
        self._assert_inverse(PdoSeries(d, {-1: ctx.const(rand_nonzero(rng, field)),
                                           1: ctx.one()}, 4), "left", seen)

    def test_u_plus_y_takes_no_power_of_the_derivation(self):
        pres = g_pres(QQ(), 2)
        d = delta(pres)
        a = PdoSeries.u(d, 24) + PdoSeries.from_ratfunc(d, pres.ctx.monomial(1, 0), 24)
        with counting(power=Derivation.power) as calls:
            b = pdo_inv(a)
        assert not calls
        assert b.prec == 24 and (a * b).approx_eq(PdoSeries.one(d, 24))


class TestLeadingConstraint:
    def test_monomial_morphism_images(self, gen3):
        K = gen3.ctx.field
        phi = monomial_morphism(Mat2Z(1, 0, 2, 1), K.gen())
        Xinv = pdo_inv(pdo_from_skew(phi.x_img, 8))
        Y = pdo_from_skew(phi.y_img, 8)
        Z = pdo_from_skew(phi.z_img, 8)
        c1 = leading_constraint_check(Xinv, Y, Z, phi.beta, gen3.D)
        # c1 = m*alpha + r with m = 2, r = 1
        assert c1 == gen3.ctx.const(K.gen() * 2 + 1)

    def test_constant_y_fails_precondition(self, gen3):
        d = delta(gen3)
        K = gen3.ctx.field
        Xinv = PdoSeries(d, {1: gen3.ctx.const(K.gen())}, 8)
        Y = PdoSeries.one(d, 8)
        Z = PdoSeries.from_ratfunc(d, gen3.ctx.monomial(0, 1), 8)
        with pytest.raises(ArithmeticError, match="y0 is a constant"):
            leading_constraint_check(Xinv, Y, Z, K.gen(), gen3.D)

    def test_perturbed_z_fails_relation(self, gen3):
        K = gen3.ctx.field
        phi = monomial_morphism(Mat2Z(1, 0, 1, 1), K.gen())
        Xinv = pdo_inv(pdo_from_skew(phi.x_img, 8))
        Y = pdo_from_skew(phi.y_img, 8)
        Z = pdo_from_skew(phi.z_img, 8) + PdoSeries.u(delta(gen3), 8)
        with pytest.raises(ArithmeticError, match="Z-relation fails at some computed order"):
            leading_constraint_check(Xinv, Y, Z, phi.beta, gen3.D)

    def test_wrong_valuation_rejected(self, gen3):
        d = delta(gen3)
        u2 = PdoSeries.u(d, 8, power=2)
        Y = pdo_from_skew(gen3.y, 8)
        Z = pdo_from_skew(gen3.z, 8)
        with pytest.raises(ValueError):
            leading_constraint_check(u2, Y, Z, gen3.case.alpha, gen3.D)


def test_precision_propagation():
    pres = g_pres(QQ(), Fraction(1, 2))
    d = delta(pres)
    a = PdoSeries.u(d, 4)              # exact through u^4
    y = PdoSeries.from_ratfunc(d, pres.ctx.monomial(1, 0), 9)
    prod = pdo_mul(a, y)
    # unknown a-terms start at u^5, so the product is exact through u^4
    assert prod.prec == 4
    assert all(n <= prod.prec for n in prod.terms)


def test_mixed_derivations_rejected(gen3):
    other = g_pres(QQ(), 2)
    with pytest.raises(ValueError):
        pdo_mul(PdoSeries.u(delta(gen3), 8), PdoSeries.u(other.D.negate(), 8))
