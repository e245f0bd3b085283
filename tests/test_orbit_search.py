"""The orbit witness search and the finite orbit enumeration against the
reference copies in tests/_support.py, the discrete-log table behind the
enumeration, the transitivity scope of `orbits finite`, and continued
fractions with long periods."""

import itertools
import math
import random

import pytest

from orefields import orbits
from orefields.fields import GF, QQ, Qsqrt, in_prime_subfield, with_parameter
from orefields.orbits import (
    Mat2Z, QuadIrr, _discrete_logs, _solved_witness, _sqrt_mod, cf_expand, finite_orbits,
    homographic, transitivity_scope, valued_iso_classify,
)
from orefields.presentations import CaseSpec

from _support import (
    rand_elem, ref_finite_field_orbit_witness, ref_finite_orbits,
    ref_search_small_matrices,
)


def classify_witness(alpha, beta):
    """The witness matrix of valued_iso_classify, reduced mod l in
    characteristic l, or None.  Every witness must have integer det +-1,
    make an invertible morphism and send alpha to beta."""
    K = alpha.field
    verdict = valued_iso_classify(CaseSpec("g", K, alpha), CaseSpec("g", K, beta))
    if verdict.verdict == "unknown-open":
        return None
    assert verdict.verdict == "isomorphic-sufficient"
    W = verdict.witness.matrix
    assert W.unimodular and verdict.witness.invertible
    assert homographic(W, alpha) == beta
    ell = K.char
    return Mat2Z(*(x % ell for x in W.entries())) if ell else W


def assert_box_witness(alpha, beta):
    """Where the box scan with entries <= 3 finds a witness, the one
    valued_iso_classify returns: the same matrix in characteristic 0, and
    in characteristic l some witness (the lift's integers differ from the
    box's)."""
    want = ref_search_small_matrices(alpha, beta, 3)
    got = classify_witness(alpha, beta)
    if want is not None:
        assert got is not None
        if alpha.field.char == 0:
            assert got == want
    return want


def rand_box_matrix(rng, bound):
    while True:
        W = Mat2Z(*(rng.randint(-bound, bound) for _ in range(4)))
        if W.unimodular:
            return W


def rand_outside_prime(rng, field):
    while True:
        e = rand_elem(rng, field)
        if not in_prime_subfield(e):
            return e


PARAM_BASES = [
    pytest.param(QQ, id="QQ"),
    pytest.param(lambda: GF(3), id="GF3"),
    pytest.param(lambda: GF(7), id="GF7"),
    pytest.param(lambda: Qsqrt(2), id="Qsqrt2"),
    pytest.param(lambda: GF(3, 2), id="GF9"),
]


class TestParameterFieldSearch:
    @pytest.mark.parametrize("make_base", PARAM_BASES)
    def test_same_witness_as_reference(self, make_base):
        K = with_parameter(make_base())
        rng = random.Random(71)
        for trial in range(6):
            alpha = rand_outside_prime(rng, K)
            kind = trial % 3
            if kind == 0:
                W = rand_box_matrix(rng, 3)
                try:
                    beta = homographic(W, alpha)
                except ZeroDivisionError:
                    continue
            elif kind == 1:
                beta = rand_outside_prime(rng, K)
            else:
                beta = alpha
            if in_prime_subfield(beta):
                continue
            want = assert_box_witness(alpha, beta)
            if kind != 1:
                assert want is not None

    @pytest.mark.parametrize("make_base", PARAM_BASES)
    def test_non_constant_denominators(self, make_base):
        K = with_parameter(make_base())
        a = K.gen()
        one = K.one()
        two = K.from_int(2)
        alphas = [(a + one) / (a - two), (a * a + one) / (a + one), a / (a * a + two)]
        for alpha in alphas:
            if in_prime_subfield(alpha):
                continue
            for W in (Mat2Z(2, 1, 1, 1), Mat2Z(0, -1, 1, 3), Mat2Z(-3, 2, -1, 1)):
                beta = homographic(W, alpha)
                assert assert_box_witness(alpha, beta) is not None

    def test_rational_witness_denominators_are_cleared(self):
        K = with_parameter(QQ())
        a = K.gen()
        alpha = (a * K.coerce(2) / 3 + K.coerce(1) / 5) / (a + K.coerce(7) / 4)
        beta = homographic(Mat2Z(1, -2, 1, -1), alpha)
        assert classify_witness(alpha, beta) == ref_search_small_matrices(alpha, beta, 3)

    @pytest.mark.parametrize("base", [Qsqrt(2), GF(3, 2)], ids=str)
    def test_base_field_generator_in_coefficients(self, base):
        K = with_parameter(base)
        g = K.coerce(base.gen())
        alpha = (K.gen() + g) / (K.gen() * g - 1)
        for W in (Mat2Z(3, 1, 2, 1), Mat2Z(1, 1, 0, 1), Mat2Z(1, 3, 1, 2)):
            beta = homographic(W, alpha)
            assert assert_box_witness(alpha, beta) is not None


FINITE_FIELDS = [(ell, k) for ell in (2, 3, 5, 7, 11, 13) for k in (2, 3)]


class TestFiniteFieldSearch:
    @pytest.mark.parametrize("ell, k", FINITE_FIELDS)
    def test_image_under_random_matrix(self, ell, k):
        F = GF(ell, k)
        rng = random.Random(ell * 10 + k)
        for _ in range(2):
            alpha = rand_outside_prime(rng, F)
            W = rand_box_matrix(rng, 5)
            beta = homographic(W, alpha)
            want = ref_finite_field_orbit_witness(alpha, beta)
            assert want is not None
            assert classify_witness(alpha, beta) == want

    @pytest.mark.parametrize("ell, k", FINITE_FIELDS)
    def test_beta_equal_to_alpha(self, ell, k):
        F = GF(ell, k)
        alpha = rand_outside_prime(random.Random(ell + k), F)
        want = ref_finite_field_orbit_witness(alpha, alpha)
        assert want is not None
        assert classify_witness(alpha, alpha) == want

    @pytest.mark.parametrize("ell", [5, 13])
    def test_beta_outside_the_orbit(self, ell):
        # GF(l^3) minus GF(l) splits into two slpm orbits for l = 1 mod 4
        F = GF(ell, 3)
        rng = random.Random(ell)
        alpha = rand_outside_prime(rng, F)
        found = 0
        for _ in range(40):
            beta = rand_outside_prime(rng, F)
            want = ref_finite_field_orbit_witness(alpha, beta)
            assert classify_witness(alpha, beta) == want
            if want is None:
                found += 1
                if found == 2:
                    break
        assert found == 2

    @pytest.mark.parametrize("ell, k", FINITE_FIELDS)
    def test_random_pairs(self, ell, k):
        # for l = 1 mod 4 at k = 3 the two slpm orbits make some pairs
        # separated, which the loop must meet
        F = GF(ell, k)
        rng = random.Random(1000 * ell + k)
        separated = 0
        for _ in range(6):
            alpha, beta = rand_outside_prime(rng, F), rand_outside_prime(rng, F)
            want = ref_finite_field_orbit_witness(alpha, beta)
            assert _solved_witness(alpha, beta) == want
            assert classify_witness(alpha, beta) == want
            separated += want is None
        assert (separated > 0) == (k == 3 and ell % 4 == 1)

    def test_random_pairs_at_ell_101(self):
        # _group_matrices(101) has 10^8 entries; for k = 2 the lexicographic
        # scan is walked lazily instead: each (n, q) fixes m*alpha + r as
        # (n*alpha + q)/beta, whose coordinates in the basis (alpha, 1) are m, r
        F = GF(101, 2)
        rng = random.Random(101)
        for _ in range(3):
            alpha, beta = rand_outside_prime(rng, F), rand_outside_prime(rng, F)
            (a0, a1), want = alpha.rep, None
            for n, q in itertools.product(range(101), repeat=2):
                g0, g1 = ((alpha * n + q) / beta).rep
                m = g1 * pow(a1, -1, 101) % 101
                r = (g0 - m * a0) % 101
                if (n * r - q * m) % 101 in (1, 100):
                    want = Mat2Z(n, q, m, r)
                    break
            assert want is not None and homographic(want, alpha) == beta
            assert _solved_witness(alpha, beta) == want
            assert classify_witness(alpha, beta) == want

    @pytest.mark.parametrize("field", [GF(5, 2), with_parameter(QQ())], ids=str)
    def test_match_without_exact_witness_is_refused(self, field, monkeypatch):
        # the rows of beta = alpha + 1 put x -> x + 1 in the kernel, which
        # does not send alpha to alpha + 2; exact re-verification refuses it
        rows = orbits._witness_rows
        monkeypatch.setattr(orbits, "_witness_rows", lambda a, b: rows(a, a + 1))
        alpha = field.gen()
        with pytest.raises(ArithmeticError, match="verification"):
            _solved_witness(alpha, alpha + 2)


def primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestSqrtMod:
    # the primes below 200 include p = 2 and the p = 1 mod 8 (17, 41, 73,
    # 97, 113, 137, 193) on which Tonelli-Shanks takes more than one step
    @pytest.mark.parametrize("p", primes_below(200))
    def test_against_brute_force(self, p):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            root = _sqrt_mod(a, p)
            if a in squares:
                assert root is not None and root * root % p == a
            else:
                assert root is None


class TestExactSolver:
    @pytest.mark.parametrize("W", [Mat2Z(5, 2, 2, 1), Mat2Z(55, 34, 34, 21)], ids=str)
    def test_witness_outside_the_box(self, W):
        # the sign twin with negative first entry, the first of +-W that a
        # scan in lexicographic order would meet
        K = with_parameter(QQ())
        a = K.gen()
        for alpha in (a, (a * a + 1) / (a + 3)):
            beta = homographic(W, alpha)
            assert ref_search_small_matrices(alpha, beta, 3) is None
            assert classify_witness(alpha, beta) == Mat2Z(*(-x for x in W.entries()))

    def test_no_witness_when_the_kernel_determinant_is_not_a_unit(self):
        K = with_parameter(QQ())
        alpha = K.gen()
        assert classify_witness(alpha, homographic(Mat2Z(2, 1, 1, 1), alpha) * 2) is None
        assert classify_witness(alpha, homographic(Mat2Z(2, 0, 0, 1), alpha)) is None

    def test_constants_of_a_quadratic_parameter_field(self):
        # a kernel plane: alpha and beta are constants, decided by gl2z_equivalent
        K = with_parameter(Qsqrt(2))
        root2 = K.coerce(Qsqrt(2).gen())
        assert classify_witness(root2, root2 + 1) is not None
        assert classify_witness(root2, (root2 * 5 + 2) / (root2 * 2 + 1)) is not None
        assert classify_witness(root2, root2 / 3) is None

    @pytest.mark.parametrize("ell", [3, 5, 7, 11])
    def test_witness_exactly_when_plus_or_minus_det_is_a_square(self, ell):
        # beta = M . alpha for a residue matrix M of det d: the brute-force
        # scan of every residue matrix of det +-1 finds a witness exactly
        # when d or -d is a square mod l, and the solver returns its first
        K = with_parameter(GF(ell))
        alpha = K.gen()
        rng = random.Random(ell)
        squares = {x * x % ell for x in range(1, ell)}
        for d in range(1, ell):
            while True:
                M = Mat2Z(*(rng.randrange(ell) for _ in range(4)))
                if M.det % ell == d:
                    break
            beta = homographic(M, alpha)
            want = ref_finite_field_orbit_witness(alpha, beta)
            assert (want is not None) == (d in squares or -d % ell in squares)
            assert classify_witness(alpha, beta) == want

    @pytest.mark.parametrize("make_base", PARAM_BASES)
    def test_every_parameter_field_witness_is_in_gl2z(self, make_base):
        # images under matrices with entries up to 20, of det +-1 in the
        # prime field but of any integer det in characteristic l
        K = with_parameter(make_base())
        ell = K.char
        rng = random.Random(13)
        for _ in range(4):
            alpha = rand_outside_prime(rng, K)
            while True:
                M = Mat2Z(*(rng.randint(-20, 20) for _ in range(4)))
                if (M.det % ell if ell else M.det) in ({1, ell - 1} if ell else {1, -1}):
                    break
            try:
                beta = homographic(M, alpha)
            except ZeroDivisionError:
                continue
            W = classify_witness(alpha, beta)
            assert W is not None
            if not ell:
                assert W in (M, Mat2Z(*(-x for x in M.entries())))


class TestFiniteOrbits:
    @pytest.mark.parametrize("ell, k", FINITE_FIELDS)
    @pytest.mark.parametrize("group", ["sl", "slpm"])
    def test_same_orbits_as_reference(self, ell, k, group):
        assert finite_orbits(ell, k, group) == ref_finite_orbits(ell, k, group)


class TestDiscreteLogs:
    @pytest.mark.parametrize("ell, k", FINITE_FIELDS)
    def test_bijection_and_homomorphism(self, ell, k):
        F = GF(ell, k)
        q = ell ** k
        logs = _discrete_logs(F)
        nonzero = [e.rep for e in F.all_elements() if not e.is_zero()]
        assert sorted(logs) == sorted(nonzero)
        assert sorted(logs.values()) == list(range(q - 1))
        rng = random.Random(q)
        for _ in range(50):
            x, y = rng.choice(nonzero), rng.choice(nonzero)
            assert logs[F._mul(x, y)] == (logs[x] + logs[y]) % (q - 1)


NOT_TRANSITIVE = [(3, 3, "sl"), (5, 3, "sl"), (5, 3, "slpm"), (7, 3, "sl"),
                  (11, 3, "sl"), (13, 3, "sl"), (13, 3, "slpm")]


class TestTransitivityScope:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("group", ["sl", "slpm"])
    def test_claimed_exactly_where_transitive(self, ell, k, group):
        claimed = transitivity_scope(ell, k, group) is None
        assert claimed == ((ell, k, group) not in NOT_TRANSITIVE)
        if claimed:
            assert finite_orbits(ell, k, group).transitive

    def test_reason_names_the_condition(self):
        assert transitivity_scope(5, 3, "slpm") == \
            "transitivity is only claimed for l = 3 mod 4; l = 5"
        assert "slpm" in transitivity_scope(7, 3, "sl")


class TestLongPeriods:
    @pytest.mark.parametrize("D, period", [(99991, 436), (1000003, 458)])
    def test_sqrt_against_sympy(self, D, period):
        sympy_cf = pytest.importorskip("sympy.ntheory.continued_fraction")
        expected = sympy_cf.continued_fraction_periodic(0, 1, D)
        cf = cf_expand(QuadIrr(0, D, 1))
        assert len(cf.period) == period
        assert list(cf.preperiod) == expected[:-1]
        assert list(cf.period) == expected[-1]

    def test_shifted_surd_against_sympy(self):
        sympy_cf = pytest.importorskip("sympy.ntheory.continued_fraction")
        expected = sympy_cf.continued_fraction_periodic(-7, 3, 1726)
        cf = cf_expand(QuadIrr(-7, 1726, 3))
        assert list(cf.preperiod) == expected[:-1]
        assert list(cf.period) == expected[-1]
