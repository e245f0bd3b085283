"""The gcd-free fast paths of the arithmetic kernel against reference copies
of the bodies that ran a gcd on every call (tests/_support.py): the
ParameterField product, sum and embeddings, the RatFunc2 product with a
constant factor, the one-step quotient rule of Derivation, and the skew
product that skips the binomials vanishing in the characteristic."""

import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, ParameterField, Qsqrt, with_parameter
from orefields.ratfunc import Derivation, FunctionField2, scaling_derivation
from orefields.skewpoly import SkewPoly

from _support import (
    rand_laurent_monomial, rand_nonzero, rand_ratfunc, ref_derivation,
    ref_param_add, ref_param_from_int, ref_param_mul, ref_ratfunc_mul, ref_skew_mul,
)

BASES = {
    "QQ": QQ,
    "GF7": lambda: GF(7),
    "GF3": lambda: GF(3),
    "QQsqrt2": lambda: Qsqrt(2),
    "GF9": lambda: GF(3, 2),
}

COEFF_FIELDS = {
    "QQ": QQ,
    "GF7": lambda: GF(7),
    "GF3(a)": lambda: with_parameter(GF(3)),
    "QQsqrt2": lambda: Qsqrt(2),
    "GF9(a)": lambda: with_parameter(GF(3, 2)),
}

SHAPES = ("zero", "constant", "polynomial", "fraction")


# ---------------------------------------------------------------------------
# ParameterField

def rand_poly_a(rng, F, deg):
    """A polynomial in the parameter a of degree exactly deg."""
    a = F.gen()
    p = a ** deg * F.coerce(rand_nonzero(rng, F.base))
    for i in range(deg):
        if rng.random() < 0.7:
            p = p + a ** i * F.coerce(rand_nonzero(rng, F.base))
    return p


def rand_param(rng, F, shape):
    if shape == "zero":
        return F.zero()
    if shape == "constant":
        return rand_poly_a(rng, F, 0)
    if shape == "polynomial":
        return rand_poly_a(rng, F, rng.randint(1, 3))
    return rand_poly_a(rng, F, rng.randint(0, 3)) / rand_poly_a(rng, F, rng.randint(1, 3))


@pytest.mark.parametrize("base", sorted(BASES))
def test_param_mul_and_add_match_reference(base):
    F = with_parameter(BASES[base]())
    rng = random.Random(f"param-{base}")
    for _ in range(12):
        for s1 in SHAPES:
            for s2 in SHAPES:
                x, y = rand_param(rng, F, s1), rand_param(rng, F, s2)
                for got, want in ((F._mul(x.rep, y.rep), ref_param_mul(F, x.rep, y.rep)),
                                  (F._add(x.rep, y.rep), ref_param_add(F, x.rep, y.rep))):
                    assert got == want, (s1, s2, str(x), str(y))
                    assert F._str(got) == F._str(want)


@pytest.mark.parametrize("base", sorted(BASES))
def test_param_embeddings_match_reference(base):
    K = BASES[base]()
    F = with_parameter(K)
    for n in range(-9, 10):
        assert F._from_int(n) == ref_param_from_int(F, n)
        assert F._lift(K.from_int(n)) == ref_param_from_int(F, n)
    for f in (Fraction(0), Fraction(2, 5), Fraction(-4, 11)):
        r = K._from_fraction(f)
        if r is not None:
            assert F._from_fraction(f) == F._normalize((r,), (K._one_rep(),))
    if K.char:
        assert F._from_fraction(Fraction(1, K.char)) is None


# ---------------------------------------------------------------------------
# RatFunc2 and Derivation

def rand_coeff(rng, field):
    """A nonzero constant; over K(a) a small polynomial in a, which keeps
    the reference normalizations (gcds against d^2) quick."""
    if not isinstance(field, ParameterField):
        return rand_nonzero(rng, field)
    a = field.gen()
    c = a ** rng.randint(0, 2) * field.from_int(rng.randint(1, 2))
    return c + a ** 3 if rng.random() < 0.5 else c


def rand_shape(rng, ctx, shape):
    if shape == "zero":
        return ctx.zero()
    if shape == "constant":
        return ctx.const(rand_coeff(rng, ctx.field))
    num = ctx.zero()
    while num.is_zero():
        for _ in range(rng.randint(1, 3)):
            num = num + ctx.monomial(rng.randint(0, 2), rng.randint(0, 2),
                                     rand_coeff(rng, ctx.field))
    if shape == "polynomial":
        return num
    # a fraction whose denominator is not a monomial
    den = ctx.monomial(1, 1) + ctx.const(rand_coeff(rng, ctx.field))
    return num / den


def derivations(ctx):
    y, z = ctx.gens()
    one = ctx.one()
    return {
        "scaling": scaling_derivation(ctx, 1, 2),
        "(y, y+z)": Derivation(ctx, y, y + z),
        "(y, 1)": Derivation(ctx, y, one),
        "rational images": Derivation(ctx, y / (z + 1), z * z / (y * y + 2)),
        # D(y + 1) = (y + 1)^3: the numerator of D(1/(y + 1)) has more
        # factors y + 1 than d^2, and cancelling against d^2 must stop there
        "((y+1)^3, z^3)": Derivation(ctx, (y + 1) ** 3, z ** 3),
    }


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_ratfunc_mul_matches_reference(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    rng = random.Random(f"mul-{name}")
    for _ in range(6):
        for s1 in SHAPES:
            for s2 in SHAPES:
                f, g = rand_shape(rng, ctx, s1), rand_shape(rng, ctx, s2)
                got, want = f * g, ref_ratfunc_mul(f, g)
                assert (got.num, got.den) == (want.num, want.den)
                assert str(got) == str(want)


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_derivation_matches_reference(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    rng = random.Random(f"der-{name}")
    for label, D in derivations(ctx).items():
        inputs = [rand_shape(rng, ctx, s) for s in SHAPES for _ in range(3)]
        inputs += [1 / y ** 2, (y + 1) / y ** 3, z / (y * y * (y * z + 2)),
                   (y + z) / (y * z + 2) ** 2, 1 / (y + 1), 1 / (z * (y + 1)),
                   z / (y + 1) ** 2]
        for f in inputs:
            got, want = D(f), ref_derivation(D, f)
            assert (got.num, got.den) == (want.num, want.den), (label, str(f))
            assert str(got) == str(want)


def test_iterated_derivation_of_a_non_monomial_denominator():
    # the chain behind a pdo_inv stall: delta = -D, D = scaling(1, 2) over QQ
    ctx = FunctionField2(QQ())
    y, z = ctx.gens()
    delta = scaling_derivation(ctx, 1, 2).negate()
    f = want = (y * z * (-9) - z * 3 - 12) / (y * z + 3)
    for j in range(1, 7):
        f, want = delta(f), ref_derivation(delta, want)
        assert (f.num, f.den) == (want.num, want.den), j
        assert str(f) == str(want)
    assert f.den == ((y * z + 3) ** 7).num


# ---------------------------------------------------------------------------
# SkewPoly

@pytest.mark.parametrize("field, maxdeg", [
    (GF(3), 4), (with_parameter(GF(3)), 3), (GF(7), 7),
])
def test_skew_mul_matches_reference_where_binomials_vanish(field, maxdeg):
    ctx = FunctionField2(field)
    y, z = ctx.gens()
    rng = random.Random(f"skew-{field}")
    for D in (scaling_derivation(ctx, 1, 2), Derivation(ctx, y, y + z)):
        for _ in range(3):
            f = SkewPoly(D, {maxdeg: rand_laurent_monomial(rng, ctx),
                             rng.randrange(maxdeg): rand_ratfunc(rng, ctx)})
            g = SkewPoly(D, {0: rand_ratfunc(rng, ctx), 1: rand_laurent_monomial(rng, ctx)})
            got, want = f * g, ref_skew_mul(f, g)
            assert got == want
            assert str(got) == str(want)
