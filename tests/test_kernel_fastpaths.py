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
terms against the difference of two full products."""

import math
import random
from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, ParameterField, Qsqrt, with_parameter
from orefields.ratfunc import Derivation, FunctionField2, RatFunc2, _pmul, scaling_derivation
from orefields.skewpoly import SkewPoly, binomial_orders, commutator

from _support import (
    rand_laurent_monomial, rand_nonzero, rand_poly2, rand_ratfunc, ref_combined,
    ref_derivation, ref_param_add, ref_param_from_int, ref_param_mul, ref_pmul,
    ref_binomial_mod, ref_commutator, ref_quotient_rule, ref_ratfunc_mul, ref_skew_mul,
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
    """[y, z] and [x, x] form no coefficient product and [x, y] one, where
    the two full products would form two, two and three."""
    ctx = FunctionField2(QQ())
    D = scaling_derivation(ctx, 1, 2)
    x, y, z = SkewPoly.x(D), SkewPoly(D, {0: ctx.gens()[0]}), SkewPoly(D, {0: ctx.gens()[1]})
    products = []
    mul = RatFunc2.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)
    monkeypatch.setattr(RatFunc2, "__mul__", counted)
    for f, g, n in ((y, z, 0), (x, y, 1), (y, x, 1), (x, x, 0)):
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
