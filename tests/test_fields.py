import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orefields import fields
from orefields.fields import (
    FieldElem, FieldError, FieldSpec, GF, QQ, Qsqrt, arith, frobenius,
    in_prime_subfield, least_irreducible, make_field, norm_to_prime,
    with_parameter,
)
from _support import rand_elem, rand_nonzero, rand_param_elem


def poly_has_root_mod(coeffs, ell):
    # exhaustive root check, the independent oracle for small irreducibility
    for x in range(ell):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % ell
        if acc == 0:
            return True
    return False


class TestMakeField:
    def test_f9_from_spec_poly(self):
        # theta^2 + 1 over GF(3): no roots, hence irreducible
        assert not poly_has_root_mod((1, 0, 1), 3)
        F9 = make_field(FieldSpec(characteristic=3, ext_degree=2, ext_poly=(1, 0, 1)))
        assert F9.char == 3 and F9.degree == 2
        theta = F9.gen()
        assert theta * theta == F9.from_int(-1)

    def test_rationals(self):
        Q = make_field(FieldSpec())
        assert Q.char == 0
        assert Q.coerce(Fraction(1, 2)) + Q.coerce(Fraction(1, 2)) == Q.one()

    def test_f2_parameter(self):
        F2a = make_field(FieldSpec(characteristic=2, parameter=True))
        a = F2a.gen()
        assert not a.is_zero() and (a + a).is_zero()

    def test_default_modulus_is_least(self):
        assert least_irreducible(3, 2) == (1, 0, 1)      # w^2 + 1
        assert least_irreducible(2, 3) == (1, 1, 0, 1)   # w^3 + w + 1

    def test_reducible_poly_rejected(self):
        with pytest.raises(FieldError):
            make_field(FieldSpec(characteristic=3, ext_degree=2, ext_poly=(2, 0, 1)))

    @pytest.mark.parametrize("ell, modulus", [
        (3, (2, 0, 1)),          # w^2 + 2 = (w + 1)(w + 2)
        (5, (6, 5, 1)),          # w^2 + 1 mod 5, after reduction of the coefficients
        (2, (1, 0, 1, 0, 1)),    # (w^2 + w + 1)^2: reducible without a root
    ])
    def test_reducible_supplied_modulus_raises(self, ell, modulus):
        with pytest.raises(FieldError, match="reducible"):
            GF(ell, len(modulus) - 1, modulus)

    def test_default_modulus_is_not_recertified(self, monkeypatch):
        least_irreducible(7, 3)             # found, and certified, once

        def refuse(*args):
            raise AssertionError("the default modulus was certified again")
        monkeypatch.setattr(fields, "_poly_is_irreducible", refuse)
        assert GF(7, 3).modulus == least_irreducible(7, 3)

    def test_non_squarefree_radicand_rejected(self):
        with pytest.raises(FieldError):
            make_field(FieldSpec(sqrt_d=12))
        with pytest.raises(FieldError):
            make_field(FieldSpec(sqrt_d=1))

    def test_composite_characteristic_rejected(self):
        with pytest.raises(FieldError):
            make_field(FieldSpec(characteristic=6))


def trial_division_primes(limit):
    """The primes up to limit, each checked by trial division by the primes
    before it up to its square root."""
    primes = []
    for n in range(2, limit + 1):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    return primes


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestPrimality:
    def test_matches_trial_division_up_to_1e5(self):
        primes = set(trial_division_primes(10**5))
        for n in range(-5, 10**5 + 1):
            assert fields.is_prime(n) == (n in primes), n

    # Carmichael numbers: Fermat pseudoprimes to every base prime to them
    CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
                  41041, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
                  172081, 188461, 252601, 278545, 294409, 314821, 334153,
                  340561, 399001, 410041, 449065, 488881, 512461, 3215031751]

    def test_carmichael_numbers_are_composite(self):
        for n in self.CARMICHAEL:
            assert not fields.is_prime(n), n

    # the least strong pseudoprime to all the prime bases up to the last one
    # given (OEIS A014233)
    STRONG_PSEUDOPRIMES = [
        (2047, 2), (1373653, 3), (25326001, 5), (3215031751, 7),
        (2152302898747, 11), (3474749660383, 13), (341550071728321, 17),
        (3825123056546413051, 23), (318665857834031151167461, 37),
    ]

    @pytest.mark.parametrize("n, last", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_to_small_bases_are_composite(self, n, last):
        assert all(strong_probable_prime(n, a) for a in trial_division_primes(last))
        assert not fields.is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 10**9 + 7, 10**18 + 3, 2**61 - 1,
                                   3317044064679887385961813])
    def test_large_primes(self, n):
        assert fields.is_prime(n)

    @pytest.mark.parametrize("p, q", [(10**9 + 7, 10**9 + 9), (2**31 - 1, 10**9 + 7),
                                      (10**18 + 3, 1000003)])
    def test_large_semiprimes(self, p, q):
        assert not fields.is_prime(p * q)

    def test_beyond_the_exact_bound_is_an_error(self):
        bound = fields.MR_EXACT_BELOW
        assert all(strong_probable_prime(bound, a) for a in fields._MR_BASES)
        for n in (bound, 3317044064679887385962123):
            with pytest.raises(FieldError, match="primality bound"):
                fields.is_prime(n)
        assert not fields.is_prime(2 * bound)
        with pytest.raises(FieldError):
            GF(3317044064679887385962123)


class TestRadicandBound:
    def test_radicands_beyond_the_bound_are_rejected(self):
        for d in (fields.MAX_RADICAND + 1, -fields.MAX_RADICAND - 1, 10**18 + 3):
            with pytest.raises(FieldError, match="exceeds the bound"):
                Qsqrt(d)
            with pytest.raises(FieldError):
                make_field(FieldSpec(sqrt_d=d))

    def test_squarefree_radicands_within_the_bound_are_accepted(self):
        # 2*3*5*...*31 is squarefree, below the bound, and quick to certify
        primorial = 200560490130
        for d in (primorial, -primorial):
            K = Qsqrt(d)
            assert K.gen() * K.gen() == K.from_int(d)


def _trial_division_core(n):
    """n = core * f^2 by plain trial division up to sqrt(n)."""
    core, f, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        core *= p ** (e % 2)
        f *= p ** (e // 2)
        p += 1
    return core * n, f


def _next_prime(n):
    while not fields.is_prime(n):
        n += 1
    return n


class TestSquarefreeCore:
    def test_matches_trial_division_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randrange(1, 10**6) * rng.choice((1, 1, rng.randrange(1, 300) ** 2))
            assert fields.squarefree_core(n) == _trial_division_core(n)

    def test_matches_trial_division_near_10_to_the_12(self):
        # p^2*q with the square prime on either side of the cube root, and
        # the cofactors the cube-root bound leaves: p*q and p^2
        ns = []
        for p0, q0 in ((10**6, 2), (10**4, 10**4), (10**3, 10**6), (100, 10**8),
                       (2, 25 * 10**10)):
            p, q = _next_prime(p0), _next_prime(q0 + 1)
            ns.append(p * p * q)
        big, bigger = _next_prime(10**6), _next_prime(10**6 + 100)
        ns += [big * bigger, big * big, 8 * big * big]
        for n in ns:
            core, f = fields.squarefree_core(n)
            assert (core, f) == _trial_division_core(n)
            assert core * f * f == n

    def test_radicand_with_a_square_above_the_cube_root_is_rejected(self):
        p = _next_prime(10**5)
        with pytest.raises(FieldError, match="not squarefree"):
            Qsqrt(-3 * p * p)
        assert Qsqrt(3 * p * _next_prime(p + 1)).d == 3 * p * _next_prime(p + 1)


class TestExtensionOrderBound:
    def test_orders_beyond_the_bound_are_rejected(self):
        # 2^(10^9) is never formed: the degree alone exceeds the bound
        for ell, n in ((1009, 2), (101, 3), (2, 20), (1000003, 2), (2, 10**9)):
            assert ell ** min(n, 64) > fields.MAX_EXTENSION_ORDER
            with pytest.raises(FieldError, match="more than"):
                GF(ell, n)
            with pytest.raises(FieldError, match="more than"):
                make_field(FieldSpec(characteristic=ell, ext_degree=n))

    def test_orders_within_the_bound_are_accepted(self):
        for ell, n in ((997, 2), (97, 3), (31, 4), (2, 19)):
            assert ell ** n <= fields.MAX_EXTENSION_ORDER
            F = GF(ell, n)
            w = F.gen()
            assert w * w.inverse() == F.one()


class TestArith:
    def test_f9_defining_relation(self):
        F9 = GF(3, 2)
        theta = F9.gen()
        assert arith(theta, theta, "*") == F9.from_int(-1)

    def test_quadratic_norm_identity(self):
        K = Qsqrt(2)
        s = K.gen()
        assert (1 + s) * (1 - s) == K.from_int(-1)

    def test_parameter_self_division(self):
        F2a = with_parameter(GF(2))
        a = F2a.gen()
        assert arith(a, a, "/") == F2a.one()

    def test_division_by_zero(self):
        Q = QQ()
        with pytest.raises(ZeroDivisionError):
            arith(Q.one(), Q.zero(), "/")

    def test_field_mismatch(self):
        with pytest.raises(FieldError):
            GF(3).one() + GF(5).one()


class TestPrimeSubfield:
    def test_parameter_not_in_prime(self):
        assert not in_prime_subfield(with_parameter(GF(5)).gen())

    def test_rational_in_quadratic(self):
        K = Qsqrt(2)
        assert in_prime_subfield(K.coerce(Fraction(3, 4)))
        assert not in_prime_subfield(K.gen())

    def test_generator_not_in_prime(self):
        F9 = GF(3, 2)
        theta = F9.gen()
        # normal form (0, 1) is none of the prime elements (c, 0)
        assert theta.rep not in {(c, 0) for c in range(3)}
        assert not in_prime_subfield(theta)


class TestFrobenius:
    def test_f9_generator(self):
        F9 = GF(3, 2)
        theta = F9.gen()
        sq = theta * theta           # repeated-squaring oracle
        assert frobenius(theta) == sq * theta == -theta

    def test_parameter(self):
        F2a = with_parameter(GF(2))
        a = F2a.gen()
        assert frobenius(a) == a * a

    def test_one(self):
        assert frobenius(GF(7).one()) == GF(7).one()

    def test_characteristic_zero_rejected(self):
        with pytest.raises(FieldError):
            frobenius(QQ().one())

    def test_fermat_on_prime_field(self):
        for ell in (2, 3, 5, 7):
            F = GF(ell)
            for v in range(ell):
                assert frobenius(F.from_int(v)) == F.from_int(v)

    @pytest.mark.parametrize("ell,deg", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
    def test_ring_morphism(self, ell, deg):
        rng = random.Random(11)
        F = GF(ell, deg)
        for _ in range(25):
            a, b = rand_elem(rng, F), rand_elem(rng, F)
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)

    # In K(a) frobenius substitutes a^l for a and raises the base
    # coefficients to the l-th power; x ** n is square and multiply, an
    # independent oracle.  Over GF(l^2) the base power is not the identity,
    # so leaving it out fails these tests.
    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    @pytest.mark.parametrize("deg", [1, 2])
    def test_parameter_field_by_substitution(self, ell, deg):
        K = with_parameter(GF(ell, deg))
        rng = random.Random(f"frobenius-{ell}-{deg}")
        for _ in range(12):
            x = rand_param_elem(rng, K)
            d = rand_param_elem(rng, K)
            if not d.is_zero():
                x = x / d
            assert frobenius(x) == x ** ell, str(x)
            assert frobenius(frobenius(x)) == x ** (ell * ell), str(x)
            if not x.is_zero():
                assert frobenius(x) / x == x ** (ell - 1), str(x)

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    @pytest.mark.parametrize("deg", [1, 2])
    def test_parameter_field_powers_by_base_l_digits(self, ell, deg):
        K = with_parameter(GF(ell, deg))
        rng = random.Random(f"pow-{ell}-{deg}")
        exponents = [0, 1, ell - 1, ell, ell + 1, 2 * ell * ell + ell - 1,
                     ell ** 3, rng.randrange(ell ** 3)]
        for _ in range(6):
            x = rand_param_elem(rng, K)
            for n in exponents:
                assert K.element(K._pow(x.rep, n)) == x ** n, (str(x), n)

    def test_parameter_field_over_a_non_prime_base_moves_its_coefficients(self):
        F9 = GF(3, 2)
        K = with_parameter(F9)
        a, w = K.gen(), K.coerce(F9.gen())
        x = (w * a + 1) / (a * a + w)
        assert frobenius(x) == (-w * a ** 3 + 1) / (a ** 6 - w)

    def test_parameter_field_of_characteristic_zero_rejected(self):
        with pytest.raises(FieldError):
            frobenius(with_parameter(QQ()).gen())


class TestNorm:
    def test_f9_generator(self):
        F9 = GF(3, 2)
        theta = F9.gen()
        # power oracle: theta * theta^3 = theta^4
        assert norm_to_prime(theta) == GF(3).from_int((theta ** 4).rep[0])
        assert norm_to_prime(theta) == GF(3).one()

    def test_norm_of_one(self):
        assert norm_to_prime(GF(5, 2).one()) == GF(5).one()

    def test_kernel_size_f9(self):
        F9 = GF(3, 2)
        kernel = [e for e in F9.all_elements()
                  if not e.is_zero() and norm_to_prime(e) == GF(3).one()]
        assert len(kernel) == 4

    def test_requires_extension(self):
        with pytest.raises(FieldError):
            norm_to_prime(GF(5).one())

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    @pytest.mark.parametrize("deg", [2, 3])
    def test_multiplicative_and_surjective(self, ell, deg):
        F = GF(ell, deg)
        Fp = GF(ell)
        values = set()
        elems = list(F.all_elements())
        for e in elems:
            if not e.is_zero():
                values.add(norm_to_prime(e).rep)
        assert values == set(range(1, ell))
        rng = random.Random(ell * 10 + deg)
        for _ in range(30):
            a, b = rand_nonzero(rng, F), rand_nonzero(rng, F)
            assert norm_to_prime(a * b) == norm_to_prime(a) * norm_to_prime(b)


FIELDS = [
    QQ(),
    GF(5),
    GF(3, 2),
    Qsqrt(2),
    Qsqrt(-3),
    with_parameter(GF(2)),
    with_parameter(QQ()),
    with_parameter(Qsqrt(2)),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_field_axioms_random(field):
    rng = random.Random(hash(str(field)) & 0xFFFF)
    for _ in range(20):
        a, b, c = (rand_elem(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero() == a
        assert a * field.one() == a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == field.one()


@given(st.fractions(max_denominator=20), st.fractions(max_denominator=20),
       st.fractions(max_denominator=20), st.fractions(max_denominator=20))
def test_quadratic_field_axioms_hypothesis(a1, b1, a2, b2):
    K = Qsqrt(5)
    u = FieldElem(K, (a1, b1))
    v = FieldElem(K, (a2, b2))
    assert u + v == v + u
    assert u * v == v * u
    if not v.is_zero():
        assert (u / v) * v == u


@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
def test_prime_field_hypothesis(x, y):
    F = GF(7)
    a, b = F.from_int(x), F.from_int(y)
    assert a + b == F.from_int(x + y)
    assert a * b == F.from_int(x * y)


def test_in_prime_subfield_matches_frobenius_fixed_points():
    # inside GF(l), frobenius is the identity, so membership is preserved
    F25 = GF(5, 2)
    for e in F25.all_elements():
        if in_prime_subfield(e):
            assert frobenius(e) == e


def test_elements_are_hashable_and_canonical():
    K = with_parameter(GF(3))
    a = K.gen()
    lhs = (a ** 2 - 1) / (a - 1)
    rhs = a + 1
    assert lhs == rhs and hash(lhs) == hash(rhs)


def test_frobenius_preserves_prime_subfield_membership():
    for ell, deg in ((2, 2), (3, 2), (5, 2), (2, 3)):
        F = GF(ell, deg)
        for e in F.all_elements():
            assert in_prime_subfield(frobenius(e)) == in_prime_subfield(e)
