import random
from fractions import Fraction

import pytest

from orefields.fields import FieldError, GF, QQ, with_parameter
from orefields.ratfunc import (
    Derivation, FunctionField2, derivation_apply, in_frobenius_subfield,
    log_derivative, scaling_derivation,
)
from _support import REF_FIELDS, rand_laurent_monomial, rand_nonzero, rand_ratfunc, ref_field


def d_alpha(ctx, alpha):
    return scaling_derivation(ctx, 1, alpha)


def delta_q(ctx):
    y, z = ctx.gens()
    return Derivation(ctx, y, y + z)


class TestDerivationApply:
    def test_monomial_eigenvalue(self):
        K = with_parameter(QQ())
        ctx = FunctionField2(K)
        D = d_alpha(ctx, K.gen())
        f = ctx.monomial(2, 3)
        assert derivation_apply(D, f) == f * (K.gen() * 3 + 2)

    def test_unipotent_sends_ratio_to_one(self):
        ctx = FunctionField2(QQ())
        D = delta_q(ctx)
        y, z = ctx.gens()
        assert derivation_apply(D, z / y) == ctx.one()

    def test_rational_alpha_kernel_monomial(self):
        ctx = FunctionField2(QQ())
        D = d_alpha(ctx, Fraction(2, 3))
        assert derivation_apply(D, ctx.monomial(2, -3)).is_zero()

    def test_leibniz_random(self):
        rng = random.Random(5)
        K = with_parameter(GF(3))
        ctx = FunctionField2(K)
        D = d_alpha(ctx, K.gen())
        for _ in range(25):
            f, g = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
            assert D(f * g) == D(f) * g + f * D(g)

    def test_quotient_rule_random(self):
        rng = random.Random(6)
        ctx = FunctionField2(QQ())
        D = d_alpha(ctx, Fraction(1, 2))
        for _ in range(25):
            f, g = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
            if g.is_zero():
                continue
            assert D(f / g) * g * g == D(f) * g - f * D(g)


class TestLogDerivative:
    def test_monomial(self):
        K = with_parameter(QQ())
        ctx = FunctionField2(K)
        D = d_alpha(ctx, K.gen())
        a = K.gen()
        assert log_derivative(D, ctx.monomial(2, 3)) == ctx.const(a * 3 + 2)

    def test_constant(self):
        ctx = FunctionField2(QQ())
        D = d_alpha(ctx, 7)
        assert log_derivative(D, ctx.const(5)).is_zero()

    def test_zero_rejected(self):
        ctx = FunctionField2(QQ())
        D = d_alpha(ctx, 7)
        with pytest.raises(ZeroDivisionError):
            log_derivative(D, ctx.zero())

    def test_additive_in_products(self):
        rng = random.Random(7)
        ctx = FunctionField2(QQ())
        D = d_alpha(ctx, Fraction(3, 5))
        for _ in range(20):
            f, g = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
            if f.is_zero() or g.is_zero():
                continue
            assert log_derivative(D, f * g) == log_derivative(D, f) + log_derivative(D, g)


class TestFrobeniusSubfield:
    def test_cubes_member(self):
        ctx = FunctionField2(GF(3))
        y, z = ctx.gens()
        assert in_frobenius_subfield(y ** 3 / (1 + z ** 3))

    def test_y_not_member(self):
        ctx = FunctionField2(GF(3))
        y, _ = ctx.gens()
        assert not in_frobenius_subfield(y)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_powers_are_members(self, ell):
        rng = random.Random(ell)
        ctx = FunctionField2(GF(ell))
        for _ in range(10):
            g = rand_ratfunc(rng, ctx)
            if g.is_zero():
                continue
            assert in_frobenius_subfield(g ** ell)

    def test_char_zero_rejected(self):
        ctx = FunctionField2(QQ())
        with pytest.raises(FieldError):
            in_frobenius_subfield(ctx.one())

    def test_member_killed_by_every_derivation(self):
        rng = random.Random(8)
        K = with_parameter(GF(3))
        ctx = FunctionField2(K)
        y, z = ctx.gens()
        D1 = d_alpha(ctx, K.gen())
        D2 = delta_q(ctx)
        D3 = Derivation(ctx, z, y)
        for _ in range(10):
            g = rand_ratfunc(rng, ctx)
            if g.is_zero():
                continue
            member = g ** 3
            assert in_frobenius_subfield(member)
            for D in (D1, D2, D3):
                assert D(member).is_zero()


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_kernel_two_sided_scaling(ell):
    """Everything built from l-th powers is killed; monomials with some
    exponent nonzero mod l are not, when the ratio parameter is generic."""
    rng = random.Random(20 + ell)
    K = with_parameter(GF(ell))
    ctx = FunctionField2(K)
    D = d_alpha(ctx, K.gen())
    y, z = ctx.gens()
    yl, zl = y ** ell, z ** ell
    for _ in range(15):
        f = (yl ** rng.randint(0, 2)) * (zl ** rng.randint(0, 2)) \
            + zl * rng.randint(0, ell - 1)
        assert D(f).is_zero()
        g = yl / (1 + zl) + zl ** 2
        assert D(g).is_zero()
    for i in range(ell + 1):
        for j in range(ell + 1):
            if i % ell == 0 and j % ell == 0:
                continue
            assert not D(ctx.monomial(i, j)).is_zero()


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_kernel_two_sided_unipotent(ell):
    ctx = FunctionField2(GF(ell))
    D = delta_q(ctx)
    y, z = ctx.gens()
    yl, zl = y ** ell, z ** ell
    rng = random.Random(30 + ell)
    for _ in range(15):
        f = yl ** rng.randint(0, 2) * zl ** rng.randint(0, 2) + yl * zl
        assert D(f).is_zero()
    for i in range(ell + 1):
        for j in range(ell + 1):
            if i % ell == 0 and j % ell == 0:
                continue
            assert not D(ctx.monomial(i, j)).is_zero()


class TestNormalization:
    def test_cancellation(self):
        ctx = FunctionField2(QQ())
        y, z = ctx.gens()
        assert (y ** 2 - z ** 2) / (y - z) == y + z

    def test_denominator_monic_grlex(self):
        ctx = FunctionField2(QQ())
        y, z = ctx.gens()
        f = y / (z * 2 + y * 2)
        lead = max(f.den, key=lambda ij: (ij[0] + ij[1], ij[0]))
        assert f.den[lead] == f.ctx.field._one_rep()

    def test_structural_equality(self):
        ctx = FunctionField2(GF(5))
        y, z = ctx.gens()
        assert (y * z + y) / y == z + 1
        assert y * z ** -2 == y / z ** 2

    def test_negative_exponent_monomials(self):
        ctx = FunctionField2(QQ())
        m = ctx.monomial(-2, 3)
        y, z = ctx.gens()
        assert m * y ** 2 == z ** 3

    def test_subst_powers(self):
        ctx = FunctionField2(QQ())
        y, z = ctx.gens()
        f = y ** 2 * z + 1
        g = f.subst_powers((0, 1), (1, 0))    # swap the variables
        assert g == z ** 2 * y + 1

    def test_subst_powers_negative(self):
        ctx = FunctionField2(QQ())
        y, z = ctx.gens()
        f = y * z
        assert f.subst_powers((1, -1), (0, 1)) == y   # y -> y/z, z -> z

    def test_random_roundtrip_mul_div(self):
        rng = random.Random(9)
        K = with_parameter(GF(2))
        ctx = FunctionField2(K)
        for _ in range(20):
            f = rand_ratfunc(rng, ctx)
            g = rand_laurent_monomial(rng, ctx)
            if f.is_zero():
                continue
            assert (f * g) / f == g


def test_derivation_with_rational_images():
    # images may be genuine fractions; the quotient rule must stay exact
    ctx = FunctionField2(QQ())
    y, z = ctx.gens()
    D = Derivation(ctx, 1 / z, y / (z + 1))
    f = (y + z) / (y * z)
    g = z ** 2 - y
    assert D(f * g) == D(f) * g + f * D(g)
    assert D(f / g) * g * g == D(f) * g - f * D(g)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_constant_rep_of_constants_only(name):
    """constant_rep reads the raw rep of a nonzero constant; zero, a Laurent
    monomial, a polynomial and a fraction over a non-monomial denominator
    give None."""
    K, _ = ref_field(name)
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    rng = random.Random(f"constant-rep-{name}")
    for _ in range(10):
        c = rand_nonzero(rng, K)
        assert ctx.const(c).constant_rep() == c.rep
        assert ctx.monomial(-1, 2, c).constant_rep() is None
    for f in (ctx.zero(), y / z, y + 1, (y + z) ** 2, 1 / (y + 1), z / (y * z + 1)):
        assert f.constant_rep() is None, str(f)


@pytest.mark.parametrize("name", REF_FIELDS)
def test_scaled_is_the_product_with_the_constant(name):
    """f.scaled(w) is f itself for w None or 1; otherwise it equals
    f * const(w) and keeps f's denominator."""
    K, _ = ref_field(name)
    ctx = FunctionField2(K)
    y, _ = ctx.gens()
    rng = random.Random(f"scaled-{name}")
    values = [ctx.zero(), ctx.one(), 1 / (y + 1)]
    values += [rand_ratfunc(rng, ctx) for _ in range(8)]
    values += [rand_laurent_monomial(rng, ctx) for _ in range(4)]
    for f in values:
        assert f.scaled(None) is f and f.scaled(K._one_rep()) is f
        for _ in range(3):
            c = rand_nonzero(rng, K)
            got = f.scaled(c.rep)
            assert got == f * ctx.const(c) and got.den == f.den, (str(f), str(c))
