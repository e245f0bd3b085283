"""The gcd-free fast paths of the arithmetic kernel against reference copies
of the bodies that ran a gcd on every call (tests/_support.py): the
ParameterField product, sum and embeddings, the RatFunc2 product with a
constant factor, the one-step quotient rule of Derivation, the skew
product that skips the binomials vanishing in the characteristic, and the
Laurent paths: the product by a one-term polynomial, the sum over a
monomial lcm, the diagonal action of a scaling derivation, and the skew
product whose derivative chains stop at zero; and the skew product on the
orders a binomial keeps, with D^s taken directly on Laurent elements,
against the full product, and the commutator that leaves out the order-0
terms against the difference of two full products; and the products of
constant-coefficient polynomials and series, formed on raw reps, against
a double loop of RatFunc2 products; and the closed forms of skew
operations, which run no Ore product loop, against the reference product:
a product with a constant, the commutator of f0 + f1 x with a
coefficient, and a power of a constant-coefficient polynomial; and, where
a Laurent monomial is an eigenvector of a scaling derivation, its products
and commutators with constant-coefficient polynomials, its bracket with
f0 + f1 x, and a coefficient on the left, none of which applies D."""

import math
import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, ParameterField, Qsqrt, with_parameter
from orefields.pdo import PdoSeries, pdo_inv
from orefields.ratfunc import Derivation, FunctionField2, RatFunc2, _pmul, scaling_derivation
from orefields import skewpoly
from orefields.skewpoly import SkewPoly, _summed, _terms, binomial_orders, commutator

from _support import (
    rand_laurent_monomial, rand_nonzero, rand_poly2, rand_ratfunc, ref_combined,
    ref_derivation, ref_param_add, ref_param_from_int, ref_param_mul, ref_param_normalize,
    ref_partial, ref_pmul, ref_binomial_mod, ref_commutator, ref_quotient_rule, ref_ratfunc_mul,
    ref_field, ref_skew_mul, rand_param_elem, REF_FIELDS,
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
def test_param_mul_with_a_constant_numerator_or_unit_denominator(base, monkeypatch):
    # n1/d1 * n2/d2 cancels n1 against d2 and n2 against d1; where either
    # side of a cancel is a constant of K (a constant numerator c/p, the
    # denominator 1 of a polynomial) the gcd is 1 and no Euclid runs.  A
    # constant operand of K(a) scales the other numerator before the
    # product of two polynomials is tried: no `_umul` runs for it
    from orefields import fields
    F = with_parameter(BASES[base]())
    rng = random.Random(f"param-const-{base}")
    gcds, umuls = [], []
    gcd, umul = fields._UPoly.gcd, fields._umul

    def recording(K, a, b):
        gcds.append((a, b))
        return gcd(K, a, b)

    def multiplying(K, a, b):
        umuls.append((a, b))
        return umul(K, a, b)
    monkeypatch.setattr(fields._UPoly, "gcd", recording)
    monkeypatch.setattr(fields, "_umul", multiplying)
    for _ in range(8):
        recips = [rand_param(rng, F, "constant") / rand_poly_a(rng, F, rng.randint(1, 3))
                  for _ in range(2)]
        poly, frac = rand_param(rng, F, "polynomial"), rand_param(rng, F, "fraction")
        consts = [rand_param(rng, F, "constant") for _ in range(2)]
        for x, y in ((recips[0], recips[1]), (recips[0], poly), (poly, frac),
                     (frac, recips[1]), (consts[0], poly), (consts[0], consts[1])):
            for a, b in ((x, y), (y, x)):
                del gcds[:], umuls[:]
                got = F._mul(a.rep, b.rep)
                products = len(umuls)
                assert got == ref_param_mul(F, a.rep, b.rep), (str(a), str(b))
                assert all(len(p) > 1 and len(q) > 1 for p, q in gcds), (str(a), str(b))
                if {x, y} == set(recips):
                    assert not gcds, (str(a), str(b))
                if x is consts[0]:
                    assert not gcds and not products, (str(a), str(b))


@pytest.mark.parametrize("ell", [0, 3, 5])
def test_param_powers_take_their_first_factor_as_it_is(ell, monkeypatch):
    # (n/d)^s = n^s / d^s is reduced where n/d is, so a power runs no gcd;
    # in characteristic l, a^l is one Frobenius substitution and a^(l + 1),
    # a^(l^2 + 2l + 1) are products of such digit factors, also gcd-free
    from orefields import fields
    F = with_parameter(GF(ell) if ell else QQ())
    a = F.gen() / (F.gen() + 1)
    b = (F.gen() ** 2 + 1) / (F.gen() - 1)
    gcds = []
    gcd = fields._UPoly.gcd

    def recording(K, x, y):
        gcds.append((x, y))
        return gcd(K, x, y)
    ns = (1, 2, 5, 6, 9) if not ell else (1, ell, ell + 1, ell * ell + 2 * ell + 1)
    for x in (a, b, F.gen(), F.coerce(2), F.zero()):
        want = F._one_rep()
        for n in range(max(ns) + 1):
            if n in ns:
                monkeypatch.setattr(fields._UPoly, "gcd", recording)
                monkeypatch.setattr(fields, "_ugcd", recording)
                got = F._pow(x.rep, n)
                monkeypatch.undo()
                assert got == want, (str(x), n)
                assert not gcds, (str(x), n)
            want = ref_param_mul(F, want, x.rep)
    assert F._pow(a.rep, 0) == F._one_rep() and F._one_rep() is F._one_rep()


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
            assert F._from_fraction(f) == ref_param_normalize(F, (r,), (K._one_rep(),))
    if K.char:
        assert F._from_fraction(Fraction(1, K.char)) is None


@pytest.mark.parametrize("base", ["GF3", "QQsqrt2"])
def test_param_inverse_takes_no_gcd(base, monkeypatch):
    # num and den of a K(a) rep are coprime, so swapping them needs no gcd
    from orefields import fields
    K = {"GF3": lambda: GF(3), "QQsqrt2": lambda: Qsqrt(2)}[base]()
    F = with_parameter(K)
    rng = random.Random(f"param-inv-{base}")
    elems = [rand_nonzero(rng, F) for _ in range(12)] + [F.gen(), F.gen() + 1, F.one()]

    def no_gcd(*args):
        raise AssertionError("a gcd in a K(a) inversion")
    monkeypatch.setattr(fields, "_ugcd", no_gcd)
    inverses = [e.inverse() for e in elems]
    monkeypatch.undo()
    for e, inv in zip(elems, inverses):
        assert e * inv == F.one()
        assert inv.rep == ref_param_normalize(F, e.rep[1], e.rep[0])


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


def test_laurent_division_by_a_laurent_monomial_takes_no_gcd(monkeypatch):
    from orefields import ratfunc
    ctx = FunctionField2(QQ())
    y, z = ctx.gens()
    f, g = 3 * y ** 2 / z + z, 5 * y * z ** 3

    def no_gcd(*args):
        raise AssertionError("a gcd in a Laurent division")
    monkeypatch.setattr(ratfunc, "_pgcd", no_gcd)
    q = f / g
    monkeypatch.undo()
    assert q * g == f
    assert q == (3 * y ** 2 + z ** 2) / (5 * y * z ** 4)


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


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_partial_is_the_coordinate_derivation(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    rng = random.Random(f"partial-{name}")
    inputs = [rand_shape(rng, ctx, s) for s in SHAPES for _ in range(4)]
    inputs += [1 / y ** 2, z / (y * y * (y * z + 2)), (y + z) / (y * z + 2) ** 2]
    for f in inputs:
        for axis in (0, 1):
            assert_same(f.partial(axis), ref_partial(f, axis), axis, str(f))


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


# ---------------------------------------------------------------------------
# Laurent elements: monomial denominators

def rand_laurent(rng, ctx, terms=3):
    """A sum of up to `terms` Laurent monomials, so a monomial denominator."""
    f = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        f = f + rand_laurent_monomial(rng, ctx)
    return f


def scaling_derivations(ctx):
    """Scaling derivations with distinct eigenvalues on the same monomials,
    one with a zero image, and the series derivation -D of the first."""
    K = ctx.field
    alpha = K.gen() if isinstance(K, ParameterField) else K.from_int(2)
    D = scaling_derivation(ctx, 1, alpha)
    return {"(1, alpha)": D, "-(1, alpha)": D.negate(),
            "(1, 3)": scaling_derivation(ctx, 1, 3), "(2, 0)": scaling_derivation(ctx, 2, 0)}


def assert_same(got, want, *context):
    assert (got.num, got.den) == (want.num, want.den), context
    assert str(got) == str(want), context


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_pmul_by_one_term_matches_reference(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    K = ctx.field
    rng = random.Random(f"pmul-{name}")
    for _ in range(20):
        p = rand_poly2(rng, ctx, maxdeg=3, terms=4).num
        for q in (rand_laurent_monomial(rng, ctx).num, ctx.monomial(2, 1).num,
                  ctx.one().num, {}):
            want = ref_pmul(K, p, q)
            assert _pmul(K, p, q) == want
            assert _pmul(K, q, p) == want


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_laurent_sums_match_reference(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    rng = random.Random(f"laurent-sum-{name}")
    for _ in range(40):
        f, g = rand_laurent(rng, ctx), rand_laurent(rng, ctx)
        for h in (g, -f, ctx.zero(), f * rand_laurent_monomial(rng, ctx)):
            assert_same(f + h, ref_combined(f, h), str(f), str(h))
            assert_same(f - h, ref_combined(f, h, negate=True), str(f), str(h))


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_laurent_sums_strip_the_common_monomial(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    c = ctx.const(rand_nonzero(random.Random(name), ctx.field))
    for f, g, want in (((y + z) / y, -z / y, ctx.one()),
                       (y / z ** 2, (z - y) / z ** 2, 1 / z),
                       (c * y ** 2 / z, (y * z - c * y ** 2) / z, y),
                       ((y + z) / (y * z), -(y + c * z) / (y * z), (1 - c) / y)):
        got = f + g
        assert_same(got, want, str(f), str(g))
        assert_same(got, ref_combined(f, g), str(f), str(g))


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_scaling_derivations_act_diagonally(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    rng = random.Random(f"diag-{name}")
    inputs = [rand_laurent(rng, ctx) for _ in range(12)]
    inputs += [ctx.zero(), ctx.one(), y ** 3 / z ** 2, (y + z) / (y ** 2 * z), z ** 2 / y]
    Ds = scaling_derivations(ctx)
    for label, D in Ds.items():
        assert D._eigen is not None, label
        # the same inputs under each derivation in turn: the eigenvalues of
        # one derivation must not leak into another's
        for f in inputs:
            got = D(f)
            assert_same(got, ref_quotient_rule(D, f), label, str(f))
            assert_same(got, ref_derivation(D, f), label, str(f))
    # the chain D^s(f) of a skew product, each step on a Laurent element
    D = Ds["-(1, alpha)"]
    f = want = inputs[0]
    for s in range(6):
        f, want = D(f), ref_quotient_rule(D, want)
        assert_same(f, want, s)


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_only_scaling_derivations_are_diagonal(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    for D in (Derivation(ctx, y, y + z), Derivation(ctx, y, ctx.one()),
              Derivation(ctx, y * z, z), Derivation(ctx, y / (z + 1), z)):
        assert D._eigen is None
        f = (y + z) / (y * z ** 2)
        assert_same(D(f), ref_quotient_rule(D, f), str(D))


@pytest.mark.parametrize("field, alpha, f", [
    (QQ(), 2, (2, -1)),            # lambda = 2 + (-1)*2 = 0
    (QQ(), Fraction(1, 3), (-1, 3)),
    (GF(7), 3, (1, 2)),            # 1 + 2*3 = 7 = 0 mod 7
    (GF(7), 3, (-3, 1)),
    (GF(3), 1, (3, 0)),
    (GF(3, 2), 2, (4, -2)),
])
def test_vanishing_eigenvalues(field, alpha, f):
    ctx = FunctionField2(field)
    y, z = ctx.gens()
    D = scaling_derivation(ctx, 1, alpha)
    i, j = f
    const = ctx.monomial(i, j, 5)
    assert D(const).is_zero()
    assert D.negate()(const).is_zero()
    # only the term with a nonzero eigenvalue survives, and it keeps its
    # monomial denominator
    g = const + y / z
    assert_same(D(g), ref_quotient_rule(D, g), str(g))
    assert_same(D(g), D(y / z), str(g))


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_skew_mul_by_constant_coefficients_matches_reference(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    rng = random.Random(f"skew-const-{name}")
    for D in (scaling_derivations(ctx)["(1, alpha)"], Derivation(ctx, y, y + z)):
        for _ in range(3):
            f = SkewPoly(D, {i: rand_laurent_monomial(rng, ctx)
                             for i in range(rng.randint(3, 7)) if rng.random() < 0.7})
            f = f + SkewPoly(D, {0: rand_laurent_monomial(rng, ctx)})
            c = SkewPoly(D, {i: ctx.const(rand_nonzero(rng, ctx.field))
                             for i in range(rng.randint(1, 9)) if rng.random() < 0.6})
            c = c + SkewPoly.x(D) ** 3
            for got, want in ((f * c, ref_skew_mul(f, c)), (c * f, ref_skew_mul(c, f)),
                              (c * c, ref_skew_mul(c, c))):
                assert got == want
                assert str(got) == str(want)


@pytest.mark.parametrize("ell", [2, 3, 7, 31])
def test_binomials_mod_l_by_lucas(ell):
    rng = random.Random(ell)
    for i in range(ell * ell + 1):
        orders = range(i + 1)
        if ell > 7:
            # math.comb over every pair takes seconds at l = 31: the orders
            # within one digit of either end, those whose low digit is 0 or
            # that of i, and a seeded sample
            orders = {s for s in orders if s < ell or i - s < ell or s % ell in (0, i % ell)}
            orders = sorted(orders | set(rng.sample(range(i + 1), min(i + 1, 8))))
        for s in orders:
            assert ref_binomial_mod(i, s, ell) == math.comb(i, s) % ell, (i, s)
    assert ref_binomial_mod(ell, ell + 1, ell) == 0


def test_binomials_in_characteristic_0_are_exact():
    for i in range(40):
        assert [ref_binomial_mod(i, s, 0) for s in range(i + 1)] == [
            math.comb(i, s) for s in range(i + 1)]


# ---------------------------------------------------------------------------
# SkewPoly: the orders s >= 1 only in commutators, the orders a binomial
# keeps, and D^s taken directly on Laurent elements

SKEW_FIELDS = {
    "QQ": QQ,
    "GF3": lambda: GF(3),
    "GF7": lambda: GF(7),
    "GF3(a)": lambda: with_parameter(GF(3)),
    "QQsqrt2": lambda: Qsqrt(2),
    "GF9(a)": lambda: with_parameter(GF(3, 2)),
}


def skew_derivations(ctx):
    """Scaling derivations (1, 2), (1, alpha) and its negation, and three
    that are not scaling: (y, y + z), (y, 1) and one with a rational image."""
    K = ctx.field
    y, z = ctx.gens()
    alpha = K.gen() if isinstance(K, ParameterField) else K.from_int(3)
    D = scaling_derivation(ctx, 1, alpha)
    return {"(1, 2)": scaling_derivation(ctx, 1, 2), "(1, alpha)": D,
            "-(1, alpha)": D.negate(), "(y, y + z)": Derivation(ctx, y, y + z),
            "(y, 1)": Derivation(ctx, y, ctx.one()),
            "(y / z, z)": Derivation(ctx, y / z, z)}


def rand_coeffs_skew(rng, D, maxdeg, laurent=True):
    ctx = D.ctx
    draw = rand_laurent if laurent else rand_ratfunc
    coeffs = {i: draw(rng, ctx) for i in range(maxdeg + 1) if rng.random() < 0.7}
    coeffs[maxdeg] = draw(rng, ctx)
    return SkewPoly(D, coeffs)


def assert_same_skew(got, want, *context):
    assert got == want, context
    assert str(got) == str(want), context


@pytest.mark.parametrize("name", sorted(SKEW_FIELDS))
def test_commutator_and_product_match_reference(name):
    ctx = FunctionField2(SKEW_FIELDS[name]())
    rng = random.Random(f"commutator-{name}")
    for label, D in skew_derivations(ctx).items():
        consts = SkewPoly(D, {0: ctx.const(rand_nonzero(rng, ctx.field))})
        for _ in range(2):
            pairs = [
                # degree 0 against degree 0
                (rand_coeffs_skew(rng, D, 0), rand_coeffs_skew(rng, D, 0, laurent=False)),
                (rand_coeffs_skew(rng, D, 2), rand_coeffs_skew(rng, D, 1)),
                (rand_coeffs_skew(rng, D, 1), rand_coeffs_skew(rng, D, 2)),
                (SkewPoly.x(D) ** 3 + consts, rand_coeffs_skew(rng, D, 1)),
                (consts, rand_coeffs_skew(rng, D, 2)),
                (SkewPoly.zero(D), rand_coeffs_skew(rng, D, 1)),
            ]
            for f, g in pairs:
                for a, b in ((f, g), (g, f), (f, f)):
                    assert_same_skew(commutator(a, b), ref_commutator(a, b), label, str(a), str(b))
                    assert_same_skew(a * b, ref_skew_mul(a, b), label, str(a), str(b))


@pytest.mark.parametrize("field, alpha, vanishing", [
    # Laurent monomials whose eigenvalue i + j alpha is 0 in the field
    (GF(3), 2, [(3, 0), (1, 1), (-1, 2)]),
    (GF(7), 3, [(1, 2), (-3, 1), (7, -7)]),
    (with_parameter(GF(3)), None, [(3, 0), (0, -3), (3, 6)]),
    (with_parameter(GF(3, 2)), None, [(-3, 3), (6, 0)]),
], ids=["GF3", "GF7", "GF3(a)", "GF9(a)"])
def test_central_elements_against_laurent_coefficients(field, alpha, vanishing):
    ctx = FunctionField2(field)
    ell = field.char
    y, z = ctx.gens()
    alpha = field.gen() if alpha is None else alpha
    D = scaling_derivation(ctx, 1, alpha)
    x = SkewPoly.x(D)
    rng = random.Random(f"central-{field}")
    coeffs = [ctx.monomial(i, j, rand_nonzero(rng, field)) for i, j in vanishing]
    # and one whose terms do not all vanish: y has eigenvalue 1
    mixed = sum(coeffs[1:], coeffs[0]) + y / z ** 2 + y
    for c in (x ** (ell * ell), x ** ell - x):
        for g in coeffs + [mixed]:
            g = SkewPoly(D, {0: g})
            for a, b in ((c, g), (g, c)):
                assert_same_skew(commutator(a, b), ref_commutator(a, b), str(a), str(b))
                assert_same_skew(a * b, ref_skew_mul(a, b), str(a), str(b))
        assert all(commutator(c, SkewPoly(D, {0: g})).is_zero() for g in coeffs)
    assert not commutator(x ** (ell * ell), SkewPoly(D, {0: mixed})).is_zero()


def test_commutator_skips_the_order_0_terms(monkeypatch):
    """[y, z], [x, x], [x, y] and [y, x] form no coefficient product, where
    the two full products would form two, two, three and three: the
    order-0 terms are left out, and the 1 of x joins the binomial weight
    of D(y) instead of multiplying it."""
    ctx = FunctionField2(QQ())
    D = scaling_derivation(ctx, 1, 2)
    x, y, z = SkewPoly.x(D), SkewPoly(D, {0: ctx.gens()[0]}), SkewPoly(D, {0: ctx.gens()[1]})
    products = []
    mul = RatFunc2.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)
    monkeypatch.setattr(RatFunc2, "__mul__", counted)
    for f, g, n in ((y, z, 0), (x, y, 0), (y, x, 0), (x, x, 0)):
        want = ref_commutator(f, g)
        products.clear()
        assert commutator(f, g) == want
        assert len(products) == n, (str(f), str(g))


def test_commutator_takes_coefficients_on_either_side():
    ctx = FunctionField2(QQ())
    D = scaling_derivation(ctx, 1, 2)
    x, y = SkewPoly.x(D), ctx.gens()[0]
    assert commutator(x, y) == SkewPoly(D, {0: y})
    assert commutator(y, x) == SkewPoly(D, {0: -y})
    assert commutator(x, 3).is_zero() and commutator(3, x).is_zero()
    for a, b in ((x, "y"), ("y", x), (y, y)):
        with pytest.raises(TypeError):
            commutator(a, b)


@pytest.mark.parametrize("name", ["GF3", "GF7", "GF3(a)", "GF9(a)", "QQ", "QQsqrt2"])
def test_derivation_power_matches_iterate(name):
    field = SKEW_FIELDS[name]()
    ctx = FunctionField2(field)
    y, z = ctx.gens()
    ell = field.char or 5
    rng = random.Random(f"power-{name}")
    # y^l and z^-l have eigenvalue 0 under (1, 2) in characteristic l
    inputs = [rand_laurent(rng, ctx) for _ in range(3)]
    inputs += [ctx.monomial(ell, 0, 2), ctx.monomial(ell, -ell) + y ** ell,
               ctx.zero(), ctx.one(), (y + z) / (y ** 2 * z)]
    for label, D in skew_derivations(ctx).items():
        diagonal = label in ("(1, 2)", "(1, alpha)", "-(1, alpha)")
        top = ell * ell if diagonal else 3
        for f in inputs:
            assert D.is_diagonal_on(f) == (diagonal and len(f.den) == 1), label
            want = f
            for s in range(top + 1):
                assert_same(D.power(f, s), want, label, str(f), s)
                want = D(want)
    # D^0 is the identity where every eigenvalue vanishes
    D = scaling_derivation(ctx, 1, 2)
    f = ctx.monomial(ell, 0, 3) if field.char else ctx.monomial(2, -1, 3)
    assert D(f).is_zero()
    assert_same(D.power(f, 0), f)
    assert D.power(f, 1).is_zero() and D.power(f, ell * ell).is_zero()


@pytest.mark.parametrize("ell", [0, 2, 3, 7, 31])
def test_binomial_orders_by_lucas_match_a_scan(ell):
    rng = random.Random(f"orders-{ell}")
    for i in range(max(ell, 5) ** 2 + 1):
        scan = [(s, ref_binomial_mod(i, s, ell)) for s in range(i + 1)]
        scan = [(s, b) for s, b in scan if b]
        assert binomial_orders(i, ell) == scan, i
        lowest, top = rng.randint(0, i + 1), rng.randint(0, i + 1)
        assert binomial_orders(i, ell, lowest, top) == [
            (s, b) for s, b in scan if lowest <= s <= top], (i, lowest, top)
    if ell:
        # l^2 keeps only its two ends; l^2 - 1 keeps every order
        assert binomial_orders(ell * ell, ell) == [(0, 1), (ell * ell, 1)]
        assert len(binomial_orders(ell * ell - 1, ell)) == ell * ell


@pytest.mark.parametrize("ell", [0, 2, 3, 7])
def test_binomial_orders_of_negative_i_match_a_scan(ell):
    # C(i, s) = i (i - 1) ... (i - s + 1) / s!, the generalized binomial
    rng = random.Random(f"negative-orders-{ell}")
    for i in range(-1, -3 * max(ell, 3), -1):
        scan = [(s, math.prod(range(i - s + 1, i + 1)) // math.factorial(s))
                for s in range(30)]
        scan = [(s, b % ell if ell else b) for s, b in scan if (b % ell if ell else b)]
        assert binomial_orders(i, ell, 0, 29) == scan, i
        lowest, top = rng.randint(0, 30), rng.randint(-1, 29)
        assert binomial_orders(i, ell, lowest, top) == [
            (s, b) for s, b in scan if lowest <= s <= top], (i, lowest, top)


# ---------------------------------------------------------------------------
# products of constant-coefficient polynomials and series: commutative, so
# only order 0 survives, formed on raw reps with no RatFunc2 product

CONST_FIELDS = {**COEFF_FIELDS, "GF9": lambda: GF(3, 2), "QQ(a)": lambda: with_parameter(QQ())}


def rand_const_coeffs(rng, ctx, low, high):
    """{i: a nonzero constant} over a random subset of low..high, never
    empty; over K(a) the constants are drawn from all of K(a)."""
    K = ctx.field
    draw = rand_param_elem if isinstance(K, ParameterField) else rand_nonzero
    out = {}
    while not out:
        for i in range(low, high + 1):
            if rng.random() < 0.6:
                c = draw(rng, K)
                if not c.is_zero():
                    out[i] = ctx.const(c)
    return out


def double_loop(f, g, floor, top=math.inf, sign=1):
    """sum of sign * f_i g_j x^(i + j) over floor <= i + j <= top, term by
    term in RatFunc2 arithmetic, leaving out the degrees that cancel."""
    out = {}
    for i, fi in f.items():
        for j, gj in g.items():
            k = i + j
            if floor <= k <= top:
                term = fi * gj if sign == 1 else -(fi * gj)
                out[k] = out[k] + term if k in out else term
    return {k: c for k, c in out.items() if not c.is_zero()}


def no_ratfunc_products(monkeypatch):
    products = []
    mul = RatFunc2.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)
    monkeypatch.setattr(RatFunc2, "__mul__", counted)
    monkeypatch.setattr(RatFunc2, "__rmul__", counted)
    return products


@pytest.mark.parametrize("name", sorted(CONST_FIELDS))
def test_constant_skew_products_match_a_double_loop(name, monkeypatch):
    ctx = FunctionField2(CONST_FIELDS[name]())
    rng = random.Random(f"commuting-{name}")
    y, z = ctx.gens()
    K = ctx.field
    alpha = K.gen() if isinstance(K, ParameterField) else K.from_int(3)
    cases = []
    for D in (scaling_derivation(ctx, 1, alpha), Derivation(ctx, y, y + z)):
        for _ in range(6):
            f = rand_const_coeffs(rng, ctx, 0, rng.randint(0, 6))
            g = rand_const_coeffs(rng, ctx, 0, rng.randint(0, 6))
            cases.append((D, f, g, double_loop(f, g, 0)))
    products = no_ratfunc_products(monkeypatch)
    for D, f, g, want in cases:
        got = SkewPoly(D, f) * SkewPoly(D, g)
        assert got.coeffs == want, (str(SkewPoly(D, f)), str(SkewPoly(D, g)))
        assert commutator(SkewPoly(D, f), SkewPoly(D, g)).is_zero()
    assert not products


@pytest.mark.parametrize("name", sorted(CONST_FIELDS))
def test_constant_series_products_match_a_double_loop(name, monkeypatch):
    """The product of two series cut at a negative floor on the x-degree,
    and the signed and capped terms that the series inverse gathers."""
    ctx = FunctionField2(CONST_FIELDS[name]())
    rng = random.Random(f"commuting-series-{name}")
    K = ctx.field
    alpha = K.gen() if isinstance(K, ParameterField) else K.from_int(3)
    delta = scaling_derivation(ctx, 1, alpha).negate()
    cases = []
    for _ in range(8):
        lf, lg = -rng.randint(0, 5), -rng.randint(0, 5)
        f = rand_const_coeffs(rng, ctx, lf, lf + rng.randint(0, 6))
        g = rand_const_coeffs(rng, ctx, lg, lg + rng.randint(0, 6))
        floor, top = -rng.randint(1, 6), rng.randint(-3, 6)
        cases.append((f, g, floor, top, double_loop(f, g, floor),
                      double_loop(f, g, floor, top, -1)))
    products = no_ratfunc_products(monkeypatch)
    for f, g, floor, top, product, capped in cases:
        assert _summed(_terms(f, g, delta, {}, 0, floor)) == product, (f, g, floor)
        assert _summed(_terms(f, g, delta, {}, 0, floor, top, -1)) == capped, (f, g, top)
        assert _terms(f, g, delta, {}, 1, floor) == {}
    assert not products


@pytest.mark.parametrize("name", ["GF7", "GF9(a)", "QQ(a)", "QQsqrt2"])
def test_inverse_of_a_constant_series(name):
    ctx = FunctionField2(CONST_FIELDS[name]())
    rng = random.Random(f"commuting-inverse-{name}")
    delta = scaling_derivation(ctx, 1, 2).negate()
    for _ in range(4):
        a = PdoSeries(delta, rand_const_coeffs(rng, ctx, -2, 4), 6)
        b = pdo_inv(a)
        for prod in (a * b, b * a):
            assert prod.approx_eq(PdoSeries.one(delta, prod.prec)), str(a)


# ---------------------------------------------------------------------------
# closed forms of skew operations: a product with a constant scales, the
# commutator of f0 + f1 x with a coefficient c is f1 D(c), and a power of a
# constant-coefficient polynomial is taken in k[x]; none runs the Ore loop

CLOSED_FORM_FIELDS = [*REF_FIELDS, "GF9(a)"]


def closed_form_derivations(ctx, alpha):
    """The scaling derivation of g_alpha, and two that are not scaling: the
    q family's (y, y + z) and one with a rational image."""
    y, z = ctx.gens()
    return {"(1, alpha)": scaling_derivation(ctx, 1, alpha),
            "(y, y + z)": Derivation(ctx, y, y + z), "(y / z, z)": Derivation(ctx, y / z, z)}


def field_constants(K, alpha, rng):
    """Constants of k in every form a product takes: zero, one, an int, a
    Fraction, and field elements: alpha (the parameter a, or sqrt(2)) and
    two drawn from all of K."""
    draw = rand_param_elem if isinstance(K, ParameterField) else rand_nonzero
    return [0, 1, -3, Fraction(5, 2), alpha, draw(rng, K), draw(rng, K)]


def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_products_with_a_constant_scale(name, monkeypatch):
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    rng = random.Random(f"closed-scale-{name}")
    cases = []
    for label, D in closed_form_derivations(ctx, alpha).items():
        for value in field_constants(K, alpha, rng):
            c = ctx.const(value)
            ref_c = SkewPoly(D, {0: c})
            for f in (rand_coeffs_skew(rng, D, 2, laurent=False), rand_coeffs_skew(rng, D, 3),
                      SkewPoly.zero(D), ref_c):
                want = ref_skew_mul(f, ref_c), ref_skew_mul(ref_c, f)
                # the constant as it is, as a coefficient and as a skew polynomial
                for cv in (value, c, ref_c):
                    cases.append((f, cv, want, (label, str(f), str(c))))
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    coerced = count_calls(monkeypatch, skewpoly.OreSum, "_coerce")
    consts = count_calls(monkeypatch, FunctionField2, "const")
    for f, cv, (right, left), context in cases:
        coerced.clear()
        consts.clear()
        got = f * cv, cv * f
        # an int, a Fraction or a field element is read by the field, with
        # no coefficient or skew polynomial built for it
        if not isinstance(cv, (RatFunc2, SkewPoly)):
            assert not coerced and not consts, context
        assert_same_skew(got[0], right, *context)
        assert_same_skew(got[1], left, *context)
    assert not terms


def test_products_with_what_the_field_cannot_read_are_type_errors():
    ctx = FunctionField2(QQ())
    x = SkewPoly.x(scaling_derivation(ctx, 1, 2))
    for other in (1.5, True, GF(5).from_int(2), "2", None):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_powers_of_constant_polynomials_in_kx(name, monkeypatch):
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    ell = K.char or 3     # in characteristic 0, the same exponents around 3
    rng = random.Random(f"closed-power-{name}")
    y, z = ctx.gens()
    draw = rand_param_elem if isinstance(K, ParameterField) else rand_nonzero
    D = scaling_derivation(ctx, 1, alpha)
    x = SkewPoly.x(D)
    polys = [x, SkewPoly.one(D), SkewPoly.zero(D), x - ctx.const(alpha), x ** ell - x,
             SkewPoly(D, {i: ctx.const(draw(rng, K)) for i in (0, 1, 2)})]
    # the derivation plays no part: D kills constants
    E = Derivation(ctx, y, y + z)
    polys.append(SkewPoly(E, {i: ctx.const(draw(rng, K)) for i in (0, 2, 3)}))
    cases = []
    for f in polys:
        want, power = {}, SkewPoly.one(f.derivation)
        for n in range(ell * ell + 1):
            want[n] = power
            # constant-coefficient factors commute; the short one goes left,
            # where the reference takes its derivatives
            power = ref_skew_mul(f, power)
        for n in sorted({0, 1, 2, ell - 1, ell, ell + 1, ell * ell}):
            cases.append((f, n, want[n]))
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    for f, n, want in cases:
        assert_same_skew(f ** n, want, str(f), n)
    assert not terms


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_bracket_of_a_linear_polynomial_with_a_coefficient(name, monkeypatch):
    """[f0 + f1 x, c] = f1 D(c) in both orders, for every shape of f0 and
    f1 (zero, one, a constant, a fraction) and of c: a constant, a Laurent
    monomial, a Laurent sum and (y + z)/(z + 1), as a coefficient and as a
    skew polynomial of degree 0."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    rng = random.Random(f"closed-bracket-{name}")
    draw = rand_param_elem if isinstance(K, ParameterField) else rand_nonzero
    cases = []
    for label, D in closed_form_derivations(ctx, alpha).items():
        coeffs = [ctx.zero(), ctx.one(), ctx.const(draw(rng, K)), rand_ratfunc(rng, ctx)]
        cs = [ctx.const(draw(rng, K)), rand_laurent_monomial(rng, ctx), rand_laurent(rng, ctx),
              (y + z) / (z + 1)]
        for f0 in coeffs:
            for f1 in coeffs:
                f = SkewPoly(D, {0: f0, 1: f1})
                for c in cs:
                    cp = SkewPoly(D, {0: c})
                    want = ref_commutator(f, cp)
                    assert want == SkewPoly(D, {0: f1 * D(c)})
                    cases.append((f, c, cp, f1, want, (label, str(f), str(c))))
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    applications = count_calls(monkeypatch, Derivation, "__call__")
    products = no_ratfunc_products(monkeypatch)
    for f, c, cp, f1, want, context in cases:
        for g in (c, cp):
            applications.clear()
            products.clear()
            assert_same_skew(commutator(f, g), want, *context)
            assert_same_skew(commutator(g, f), -want, *context)
            # one application of D per bracket where f1 and c are nonzero,
            # none where f1 is a constant and c a Laurent monomial under the
            # scaling derivation (D(c) = lambda c), and no coefficient
            # product where f1 is a constant
            eigen = (f1.is_constant() and context[0] == "(1, alpha)"
                     and len(c.num) == 1 and len(c.den) == 1)
            assert len(applications) == (0 if f1.is_zero() or c.is_zero() or eigen else 2), context
            assert not products or not f1.is_constant(), context
    assert not terms


@pytest.mark.parametrize("name", ["GF7", "GF3(a)", "QQ"])
def test_constant_series_powers_keep_the_loop(name):
    """A series whose coefficients are constants is raised by repeated
    products, each of which fixes the precision: the power equals them,
    precision included."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    rng = random.Random(f"closed-series-{name}")
    delta = scaling_derivation(ctx, 1, alpha).negate()
    for prec in (3, 6):
        a = PdoSeries(delta, rand_const_coeffs(rng, ctx, -2, 3), prec)
        assert a ** 0 == PdoSeries.one(delta, prec)
        power = a
        for n in range(1, 6):
            got = a ** n
            assert got == power and got.prec == power.prec, (str(a), n)
            power = power * a


# ---------------------------------------------------------------------------
# eigenvector closed forms: where D is a scaling derivation and g_j a
# Laurent monomial, D(g_j) = lambda g_j, so for constant coefficients f_i
# f(x) g_j = g_j f(x + lambda) and [f0 + f1 x, g_j] = f1 lambda g_j; a
# coefficient c on the left scales, c sum g_j x^j = sum (c g_j) x^j.  None
# of them runs the Ore loop or applies D

def eigen_cases(name):
    """(D, fs, gs) over one field: the scaling derivation of g_alpha (over
    QQ also that of alpha = 2/3), the constant-coefficient polynomials of
    the shift identities and the center checks, and Laurent monomials: y,
    z, c y^-1 z^2 and one with lambda = 0 (y^l in characteristic l, y^2
    z^-3 at alpha = 2/3)."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    ell = K.char or 3     # in characteristic 0, the same shapes at 3
    rng = random.Random(f"eigen-{name}")
    alphas = [K.coerce(alpha)] + ([K.coerce(Fraction(2, 3))] if name == "QQ" else [])
    cases = []
    for al in alphas:
        D = scaling_derivation(ctx, 1, al)
        x = SkewPoly.x(D)
        t1 = x ** ell - x
        fs = [x ** i for i in range(8)] + [
            x + 1, x + ctx.const(al), t1, x ** ell - x * ctx.const(al ** (ell - 1)), t1 ** ell]
        gs = [ctx.monomial(1, 0), ctx.monomial(0, 1), ctx.monomial(-1, 2, draw_nonzero(rng, K))]
        if K.char:
            gs.append(ctx.monomial(ell, 0))
        elif al == K.coerce(Fraction(2, 3)):
            gs.append(ctx.monomial(2, -3))
        cases.append((D, fs, gs))
    return cases


def draw_nonzero(rng, K):
    """A nonzero constant, over K(a) drawn from all of K(a)."""
    if not isinstance(K, ParameterField):
        return rand_nonzero(rng, K)
    while True:
        c = rand_param_elem(rng, K)
        if not c.is_zero():
            return c


def ref_eigenvalue(D, g):
    """lambda with D(g) = lambda g, from the reference derivation."""
    lam = ref_ratfunc_mul(ref_derivation(D, g), g.inverse())
    assert lam.is_constant(), str(g)
    return lam


def test_eigen_cases_include_a_vanishing_eigenvalue():
    for name in ("QQ", "GF7", "GF3(a)", "GF9(a)"):
        assert any(ref_eigenvalue(D, g).is_zero()
                   for D, _, gs in eigen_cases(name) for g in gs), name


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_eigenvector_products_and_commutators(name, monkeypatch):
    """f(x) g = g f(x + lambda), g f(x), and [f, g] in both orders, with g a
    coefficient or a skew polynomial of degree 0 or 2, against the
    reference product."""
    cases = []
    for D, fs, gs in eigen_cases(name):
        for f in fs:
            for gc in gs:
                for g in (gc, SkewPoly(D, {0: gc}), SkewPoly(D, {2: gc})):
                    gp = g if isinstance(g, SkewPoly) else SkewPoly(D, {0: g})
                    # g x^2 on the left of f is no closed form
                    gf = None if gp.degree() else ref_skew_mul(gp, f)
                    cases.append((f, g, ref_skew_mul(f, gp), gf, ref_commutator(f, gp),
                                  (str(D), str(f), str(g))))
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    applications = count_calls(monkeypatch, Derivation, "__call__")
    for f, g, fg, gf, bracket, context in cases:
        assert_same_skew(f * g, fg, *context)
        if gf is not None:
            assert_same_skew(g * f, gf, *context)
        assert_same_skew(commutator(f, g), bracket, *context)
        assert_same_skew(commutator(g, f), -bracket, *context)
    assert not terms
    assert not applications


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_x_bracket_with_an_eigenvector(name, monkeypatch):
    """[c0 + c1 x, g] = c1 lambda g for a constant c1, in both orders, with
    no application of D and no coefficient product; where c1 lambda = 1
    (as for [x', y'] = y' in a monomial morphism) the bracket holds g
    itself."""
    K, _ = ref_field(name)
    rng = random.Random(f"eigen-bracket-{name}")
    cases = []
    for D, _, gs in eigen_cases(name):
        ctx = D.ctx
        for gc in gs:
            lam = ref_eigenvalue(D, gc)
            c1s = [ctx.one(), ctx.const(draw_nonzero(rng, K))]
            if not lam.is_zero():
                c1s.append(lam.inverse())
            for c1 in c1s:
                for c0 in (ctx.zero(), ctx.const(draw_nonzero(rng, K)), rand_ratfunc(rng, ctx)):
                    f = SkewPoly(D, {0: c0, 1: c1})
                    g = SkewPoly(D, {0: gc})
                    unit = ref_ratfunc_mul(c1, lam) == ctx.one()
                    cases.append((f, gc, ref_commutator(f, g), unit, (str(f), str(gc))))
    assert any(unit for *_, unit, _ in cases)
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    applications = count_calls(monkeypatch, Derivation, "__call__")
    products = no_ratfunc_products(monkeypatch)
    for f, gc, want, unit, context in cases:
        for g in (gc, SkewPoly(f.derivation, {0: gc})):
            got = commutator(f, g)
            assert_same_skew(got, want, *context)
            assert_same_skew(commutator(g, f), -want, *context)
            if unit:
                assert got.coeffs[0] is gc, context
    assert not terms
    assert not applications
    assert not products


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_a_coefficient_on_the_left_scales(name, monkeypatch):
    """c (sum g_j x^j) = sum (c g_j) x^j for a coefficient c that is not a
    constant, under every derivation, as a coefficient and as a skew
    polynomial of degree 0; a constant g_j scales c, with no product."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    y, _ = ctx.gens()
    rng = random.Random(f"eigen-left-{name}")
    ell = K.char or 3
    cases = []
    for label, D in closed_form_derivations(ctx, alpha).items():
        x = SkewPoly.x(D)
        for c in (rand_laurent_monomial(rng, ctx), rand_laurent(rng, ctx), rand_ratfunc(rng, ctx)):
            if c.is_constant():
                c = c + y
            for g in (rand_coeffs_skew(rng, D, 3), rand_coeffs_skew(rng, D, 2, laurent=False),
                      SkewPoly(D, rand_const_coeffs(rng, ctx, 0, 4)), x ** ell - x):
                want = ref_skew_mul(SkewPoly(D, {0: c}), g)
                const = all(gj.is_constant() for gj in g.coeffs.values())
                cases.append((c, g, want, const, (label, str(c), str(g))))
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    applications = count_calls(monkeypatch, Derivation, "__call__")
    products = no_ratfunc_products(monkeypatch)
    for c, g, want, const, context in cases:
        assert_same_skew(c * g, want, *context)
        products.clear()
        assert_same_skew(SkewPoly(g.derivation, {0: c}) * g, want, *context)
        assert not products or not const, context
    assert not terms
    assert not applications


@pytest.mark.parametrize("name", CLOSED_FORM_FIELDS)
def test_the_loop_runs_off_the_eigenvector_forms(name, monkeypatch):
    """The Ore loop still forms the products and commutators that no
    closed form covers: under the q family's derivation, which scales no
    monomial; with g_j not a monomial; with a coefficient of f that is not
    a constant; and with g of two terms."""
    K, alpha = ref_field(name)
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    Dg = scaling_derivation(ctx, 1, alpha)
    Dq = Derivation(ctx, y, y + z)
    pairs = []
    for D in (Dg, Dq):
        x = SkewPoly.x(D)
        pairs += [(x ** 2, SkewPoly(D, {0: y + z})), (SkewPoly(D, {2: y}), SkewPoly(D, {0: z})),
                  (x ** 3 - x, SkewPoly(D, {0: z, 1: y}))]
    x = SkewPoly.x(Dq)
    pairs += [(x ** 2, SkewPoly(Dq, {0: y})), (x ** 3 - x, SkewPoly(Dq, {0: z}))]
    cases = [(f, g, ref_skew_mul(f, g), ref_commutator(f, g)) for f, g in pairs]
    terms = count_calls(monkeypatch, skewpoly, "_terms")
    for f, g, fg, bracket in cases:
        terms.clear()
        assert_same_skew(f * g, fg, str(f), str(g))
        assert terms, (str(f), str(g))
        terms.clear()
        assert_same_skew(commutator(f, g), bracket, str(f), str(g))
        assert terms, (str(f), str(g))
