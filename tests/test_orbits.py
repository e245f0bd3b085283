import math
import random
from fractions import Fraction

import pytest

from _support import counting, ref_floor
from orefields import orbits
from orefields.fields import FieldElem, GF, QQ, Qsqrt, with_parameter
from orefields.orbits import (
    MAX_ORBIT_ELL, ContFrac, ImagQuadPoint, Mat2Z, QuadIrr,
    brute_force_witness, cf_expand, finite_orbits, fundamental_domain_reduce,
    gl2z_equivalent, homographic, tail_equivalent, transitivity_report,
    valued_iso_classify,
)
from orefields.presentations import CaseSpec


SQRT2 = QuadIrr(0, 2, 1)
SQRT3 = QuadIrr(0, 3, 1)
GOLDEN = QuadIrr(1, 5, 2)
ONE_PLUS_SQRT2 = QuadIrr(1, 2, 1)


def rand_unimodular(rng, max_len=4, entry_bound=10):
    while True:
        W = Mat2Z.identity()
        for _ in range(rng.randint(1, max_len)):
            if rng.random() < 0.6:
                W = W * Mat2Z.translation(rng.randint(-3, 3))
            else:
                W = W * Mat2Z.inversion()
            if rng.random() < 0.3:
                W = W * Mat2Z.reflection()
        if max(abs(e) for e in W.entries()) <= entry_bound and W != Mat2Z.identity():
            return W


class TestHomographic:
    def test_translation(self):
        K = Qsqrt(2)
        assert homographic(Mat2Z(1, 1, 0, 1), K.gen()) == K.gen() + 1

    def test_inversion_of_sqrt2(self):
        K = Qsqrt(2)
        val = homographic(Mat2Z(0, 1, 1, 0), K.gen())
        assert val == K.gen() / 2

    def test_denominator_zero_rejected(self):
        Q = QQ()
        with pytest.raises(ZeroDivisionError):
            homographic(Mat2Z(1, 0, 1, -2), Q.coerce(2))

    def test_action_axioms(self):
        rng = random.Random(50)
        K = Qsqrt(5)
        alpha = K.gen() + Fraction(1, 2)
        assert homographic(Mat2Z.identity(), alpha) == alpha
        for _ in range(20):
            M1, M2 = rand_unimodular(rng), rand_unimodular(rng)
            lhs = homographic(M1 * M2, alpha)
            rhs = homographic(M1, homographic(M2, alpha))
            assert lhs == rhs


class TestContFrac:
    def test_sqrt2(self):
        cf = cf_expand(SQRT2)
        assert cf.preperiod == (1,) and cf.period == (2,)

    def test_golden_ratio(self):
        cf = cf_expand(GOLDEN)
        assert cf.preperiod == () and cf.period == (1,)

    def test_sqrt3(self):
        cf = cf_expand(SQRT3)
        assert cf.preperiod == (1,) and cf.period == (1, 2)

    def test_one_plus_sqrt2(self):
        cf = cf_expand(ONE_PLUS_SQRT2)
        assert cf.preperiod == () and cf.period == (2,)

    @pytest.mark.parametrize("surd", [SQRT2, SQRT3, GOLDEN, QuadIrr(-7, 13, 3),
                                      QuadIrr(5, 19, -2)])
    def test_reconstruction_certificate(self, surd):
        """Independent validity check: every digit is >= 1 past the head,
        convergent matrices are unimodular, and pushing the i-th complete
        quotient through the convergent matrix recovers the value exactly."""
        cf = cf_expand(surd)
        total = len(cf.preperiod) + len(cf.period)
        digits = cf.digits(total)
        assert all(a >= 1 for a in digits[1:])
        d0, _ = surd.core()
        field = Qsqrt(d0)
        value = surd.to_field_elem(field)
        for i in range(total + 1):
            M = cf.convergent_matrix(i)
            assert M.unimodular
            tau = cf.complete_quotient(i).to_field_elem(field)
            assert homographic(M, tau) == value

    def test_period_state_recurs(self):
        cf = cf_expand(QuadIrr(-7, 13, 3))
        i0 = len(cf.preperiod)
        assert cf.complete_quotient(i0) == cf.complete_quotient(i0 + len(cf.period))

    def test_normalization_invariant(self):
        q = QuadIrr(1, 8, 3)    # 3 does not divide 8 - 1; gets rescaled
        assert (q.D - q.P * q.P) % q.Q == 0


class TestTailEquivalent:
    def test_sqrt2_shift(self):
        W = tail_equivalent(cf_expand(SQRT2), cf_expand(ONE_PLUS_SQRT2))
        assert W is not None and W.unimodular
        field = Qsqrt(2)
        assert homographic(W, SQRT2.to_field_elem(field)) == \
            ONE_PLUS_SQRT2.to_field_elem(field)

    def test_sqrt2_vs_sqrt3(self):
        assert tail_equivalent(cf_expand(SQRT2), cf_expand(SQRT3)) is None

    def test_self_gives_identity(self):
        W = tail_equivalent(cf_expand(SQRT2), cf_expand(SQRT2))
        assert W == Mat2Z.identity()


class TestFundamentalDomain:
    def test_translate_of_corner(self):
        K = Qsqrt(-3)
        tau = ImagQuadPoint(K.coerce(5) + (1 + K.gen()) / 2)
        red, M = fundamental_domain_reduce(tau)
        assert red.elem == (1 + K.gen()) / 2
        assert M == Mat2Z.translation(-5)

    def test_half_i_inverts(self):
        K = Qsqrt(-1)
        tau = ImagQuadPoint(K.gen() / 2)
        red, M = fundamental_domain_reduce(tau)
        assert red.elem == K.gen() * 2
        assert M == Mat2Z.inversion()

    def test_i_fixed(self):
        K = Qsqrt(-1)
        tau = ImagQuadPoint(K.gen())
        red, M = fundamental_domain_reduce(tau)
        assert red == tau and M == Mat2Z.identity()

    def test_unit_circle_left_of_the_axis_inverts(self):
        # |tau| = 1 with Re tau < 0 is the one boundary arc outside the
        # domain: -1/tau = -conj(tau) is its mirror image
        K = Qsqrt(-1)
        tau = ImagQuadPoint((K.coerce(-5) + K.gen() * 12) / 13)
        red, M = fundamental_domain_reduce(tau)
        assert red.elem == (K.coerce(5) + K.gen() * 12) / 13
        assert M == Mat2Z.inversion() and red.is_reduced()
        shifted = ImagQuadPoint((K.coerce(8) + K.gen() * 12) / 13)
        red, M = fundamental_domain_reduce(shifted)
        assert red.elem == (K.coerce(5) + K.gen() * 12) / 13
        assert M == Mat2Z.inversion() * Mat2Z.translation(-1)

    def test_idempotent(self):
        rng = random.Random(51)
        for d in (-1, -2, -3, -7, -11):
            K = Qsqrt(d)
            for _ in range(8):
                x = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                y = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                tau = ImagQuadPoint(FieldElem(K, (x, y)))
                red, M = fundamental_domain_reduce(tau)
                assert red.is_reduced()
                assert red.apply(M.inverse()).elem == tau.elem or \
                    homographic(M, tau.elem) == red.elem
                again, M2 = fundamental_domain_reduce(red)
                assert again == red and M2 == Mat2Z.identity()

    def test_iterations_within_the_bound_from_the_imaginary_part(self):
        """Each iteration of the reduction but the last inverts, so it runs
        at most (inversions + 1) iterations, which stay within
        3 floor(1/Im tau) + 2 for points with Im tau down to 10^-4."""
        rng = random.Random(4417)
        for _ in range(400):
            d = rng.choice((-1, -2, -3, -7, -11, -15))
            K = Qsqrt(d)
            b = Fraction(rng.randint(1, 9), 10 ** rng.randint(0, 4))     # Im tau >= 10^-4
            a = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 3))
            tau = ImagQuadPoint(FieldElem(K, (a, b)))
            bound = 3 * math.isqrt(1 // (b * b * -d)) + 2      # exact: Im^2 = b^2 |d|
            with counting(inversion=Mat2Z.inversion) as calls:
                red, M = fundamental_domain_reduce(tau)
            assert red.is_reduced() and homographic(M, tau.elem) == red.elem
            assert calls["inversion"] + 1 <= bound, (tau, calls["inversion"], bound)

    def test_real_input_rejected(self):
        K = Qsqrt(-1)
        with pytest.raises(ValueError):
            ImagQuadPoint(K.coerce(2))

    def test_lower_half_plane_rejected(self):
        K = Qsqrt(-1)
        with pytest.raises(ValueError):
            ImagQuadPoint(-K.gen())


class TestGl2zEquivalent:
    def test_sqrt2_family(self):
        verdict = gl2z_equivalent(SQRT2, ONE_PLUS_SQRT2)
        assert verdict.equivalent and verdict.witness is not None

    def test_sqrt2_vs_sqrt3(self):
        assert not gl2z_equivalent(SQRT2, SQRT3).equivalent

    def test_i_vs_1_plus_i(self):
        K = Qsqrt(-1)
        verdict = gl2z_equivalent(K.gen(), K.gen() + 1)
        assert verdict.equivalent
        assert homographic(verdict.witness, K.gen()) == K.gen() + 1

    def test_i_vs_2i(self):
        K = Qsqrt(-1)
        assert not gl2z_equivalent(K.gen(), K.gen() * 2).equivalent

    def test_prime_subfield_rejected(self):
        K = Qsqrt(2)
        with pytest.raises(ValueError):
            gl2z_equivalent(K.coerce(2), K.gen())

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            gl2z_equivalent(SQRT2, Qsqrt(-1).gen())

    def test_cross_validation_real(self):
        rng = random.Random(52)
        for _ in range(10):
            W = rand_unimodular(rng)
            alpha = QuadIrr(rng.randint(-4, 4), [2, 3, 5, 7][rng.randrange(4)],
                            rng.choice([1, 2, -1]))
            field = Qsqrt(alpha.core()[0])
            image = homographic(W, alpha.to_field_elem(field))
            verdict = gl2z_equivalent(alpha, QuadIrr.from_field_elem(image))
            assert verdict.equivalent

    def test_cross_validation_imaginary(self):
        rng = random.Random(53)
        for _ in range(12):
            d = rng.choice([-1, -2, -3, -7, -11])
            K = Qsqrt(d)
            x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            y = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            alpha = FieldElem(K, (x, y))
            W = rand_unimodular(rng)
            beta = homographic(W, alpha)
            verdict = gl2z_equivalent(alpha, beta)
            assert verdict.equivalent
            assert homographic(verdict.witness, alpha) == beta

    def test_asymmetric_class_reflection_not_equivalent(self):
        # for discriminant -23 the reduced points (+-1 + sqrt(-23))/4 lie in
        # distinct orbits, so a point and its reflection are inequivalent
        K = Qsqrt(-23)
        tau = (K.gen() - 1) / 4
        mirror = (K.gen() + 1) / 4
        assert not gl2z_equivalent(tau, mirror).equivalent
        assert brute_force_witness(tau, mirror, 10) is None

    def test_rule_against_brute_force_50_pairs(self):
        """Stated oracle for the imaginary-case rule: agreement with
        exhaustive unimodular search at entry bound 10 on 50 random pairs."""
        rng = random.Random(54)
        checked = 0
        while checked < 50:
            d = rng.choice([-1, -2, -3, -7, -11, -23])
            K = Qsqrt(d)
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            y = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            alpha = FieldElem(K, (x, y))
            if checked % 2 == 0:
                W = rand_unimodular(rng, max_len=3, entry_bound=6)
                beta = homographic(W, alpha)
            else:
                x2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                y2 = Fraction(rng.randint(1, 4), rng.randint(1, 2))
                beta = FieldElem(K, (x2, y2))
            verdict = gl2z_equivalent(alpha, beta)
            found = brute_force_witness(alpha, beta, 10)
            if verdict.equivalent:
                assert found is not None or \
                    max(abs(e) for e in verdict.witness.entries()) > 10
                assert homographic(verdict.witness, alpha) == beta
            else:
                assert found is None
            checked += 1


class TestFiniteOrbits:
    def test_l3_k2_sl(self):
        rep = finite_orbits(3, 2, "sl")
        assert rep.group_order == 24
        assert [(o.size, o.stabilizer_order) for o in rep.orbits] == [(6, 4)]

    def test_report_is_an_immutable_value(self):
        a, b = finite_orbits(3, 2, "sl"), finite_orbits(3, 2, "sl")
        assert a is not b and a == b and a != finite_orbits(3, 2, "slpm")
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.orbits = []
        with pytest.raises(AttributeError):
            a.orbits[0].size = 0
        assert a == b

    def test_l2_k3_sl(self):
        rep = finite_orbits(2, 3, "sl")
        assert rep.transitive and rep.orbits[0].size == 6

    def test_l3_k3_slpm(self):
        rep = finite_orbits(3, 3, "slpm")
        assert rep.group_order == 48
        assert [(o.size, o.stabilizer_order) for o in rep.orbits] == [(24, 2)]

    def test_partition_counts(self):
        for ell, k in ((3, 2), (5, 2), (3, 3)):
            rep = finite_orbits(ell, k, "sl")
            assert sum(o.size for o in rep.orbits) == ell ** k - ell

    def test_char2_f8_table_verbatim(self):
        F8 = GF(2, 3)
        w = F8.gen()
        table = [
            (Mat2Z(1, 1, 0, 1), 3),
            (Mat2Z(1, 0, 1, 1), 5),
            (Mat2Z(0, 1, 1, 0), 6),
            (Mat2Z(0, 1, 1, 1), 4),
            (Mat2Z(1, 1, 1, 0), 2),
        ]
        for M, power in table:
            assert homographic(M, w) == w ** power

    def test_bound_rejected(self):
        # the least prime above the bound (MAX_ORBIT_ELL = 53: 59)
        nxt = next(p for p in range(MAX_ORBIT_ELL + 1, 2 * MAX_ORBIT_ELL)
                   if all(p % d for d in range(2, p)))
        with pytest.raises(ValueError, match="enumeration bound"):
            finite_orbits(nxt, 2, "sl")
        with pytest.raises(ValueError):
            finite_orbits(3, 4, "sl")


class TestTransitivityReport:
    def test_l3_all_pass(self):
        rep = transitivity_report(3)
        assert all(s == "pass" for _, s, _ in rep.checks)

    def test_l5_k3_out_of_scope(self):
        rep = transitivity_report(5)
        assert all(s != "fail" for _, s, _ in rep.checks)
        statuses = {name: s for name, s, _ in rep.checks}
        assert statuses["GF(5^3) slpm action"] == "out-of-scope"
        assert statuses["GF(5^2) sl action"] == "pass"

    def test_l2_both_extensions(self):
        rep = transitivity_report(2)
        assert all(s != "fail" for _, s, _ in rep.checks) and len(rep.checks) == 3


class TestValuedIsoClassify:
    def test_sqrt2_vs_one_plus_sqrt2(self):
        K = Qsqrt(2)
        a = CaseSpec("g", K, K.gen())
        b = CaseSpec("g", K, K.gen() + 1)
        verdict = valued_iso_classify(a, b)
        assert verdict.verdict == "valued-isomorphic"
        assert verdict.witness.beta == K.gen() + 1

    def test_sqrt2_vs_sqrt3(self):
        a = CaseSpec("g", Qsqrt(2), Qsqrt(2).gen())
        b = CaseSpec("g", Qsqrt(3), Qsqrt(3).gen())
        assert valued_iso_classify(a, b).verdict == "not-valued-isomorphic"

    def test_sqrt2_vs_unipotent(self):
        a = CaseSpec("g", Qsqrt(2), Qsqrt(2).gen())
        b = CaseSpec("q", QQ())
        verdict = valued_iso_classify(a, b)
        assert verdict.verdict == "not-valued-isomorphic"

    def test_rational_pair_isomorphic(self):
        Q = QQ()
        a = CaseSpec("g", Q, Q.coerce(Fraction(2, 3)))
        b = CaseSpec("g", Q, Q.coerce(5))
        assert valued_iso_classify(a, b).verdict == "isomorphic"

    def test_rational_vs_irrational(self):
        K = Qsqrt(2)
        a = CaseSpec("g", K, K.coerce(2))
        b = CaseSpec("g", K, K.gen())
        assert valued_iso_classify(a, b).verdict == "not-isomorphic"

    def test_finite_field_sufficiency(self):
        F9 = GF(3, 2)
        theta = F9.gen()
        a = CaseSpec("g", F9, theta)
        b = CaseSpec("g", F9, theta + 1)
        verdict = valued_iso_classify(a, b)
        assert verdict.verdict == "isomorphic-sufficient" and verdict.one_sided

    def test_q_vs_q(self):
        assert valued_iso_classify(CaseSpec("q", QQ()),
                                   CaseSpec("q", QQ())).verdict == "isomorphic"

    def test_charl_g_vs_q_open(self):
        K = with_parameter(GF(3))
        a = CaseSpec("g", K, K.gen())
        b = CaseSpec("q", GF(3))
        assert valued_iso_classify(a, b).verdict == "unknown-open"

    def test_param_identity_witness(self):
        K = with_parameter(QQ())
        a = CaseSpec("g", K, K.gen())
        b = CaseSpec("g", K, K.gen() + 2)
        verdict = valued_iso_classify(a, b)
        assert verdict.verdict == "isomorphic-sufficient"


class TestEdgeCases:
    def test_negative_quadratic_expansion(self):
        minus_sqrt2 = QuadIrr(0, 2, -1)
        cf = cf_expand(minus_sqrt2)
        assert cf.preperiod == (-2, 1, 1) and cf.period == (2,)

    def test_negative_quadratic_tail_equivalence(self):
        W = tail_equivalent(cf_expand(QuadIrr(0, 2, -1)),
                            cf_expand(QuadIrr(0, 2, 1)))
        assert W is not None
        field = Qsqrt(2)
        assert homographic(W, -field.gen()) == field.gen()

    def test_imag_quad_point_inputs(self):
        K = Qsqrt(-1)
        a = ImagQuadPoint(K.gen())
        b = ImagQuadPoint(K.gen() + 1)
        verdict = gl2z_equivalent(a, b)
        assert verdict.equivalent
        assert homographic(verdict.witness, K.gen()) == K.gen() + 1
        assert not gl2z_equivalent(a, ImagQuadPoint(K.gen() * 2)).equivalent

    def test_two_orbit_case_l5_k3(self):
        rep = finite_orbits(5, 3, "slpm")
        assert [(o.size, o.stabilizer_order) for o in rep.orbits] == \
               [(60, 4), (60, 4)]

    def test_inequivalent_finite_parameters_stay_open(self):
        F125 = GF(5, 3)
        w = F125.gen()
        a = CaseSpec("g", F125, w ** 2)
        b = CaseSpec("g", F125, w ** 2 * 2)
        verdict = valued_iso_classify(a, b)
        assert verdict.verdict == "unknown-open" and verdict.one_sided


def test_cf_certificate_fuzz():
    """50 random surds: every expansion passes the exact reconstruction
    certificate and the state at the period start recurs."""
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        D = rng.randint(2, 120)
        import math as _math
        if _math.isqrt(D) ** 2 == D:
            continue
        P = rng.randint(-15, 15)
        Q = rng.choice([1, -1, 2, -2, 3, 5])
        surd = QuadIrr(P, D, Q)
        cf = cf_expand(surd)
        total = len(cf.preperiod) + len(cf.period)
        digits = cf.digits(total)
        assert all(a >= 1 for a in digits[1:])
        d0, _ = surd.core()
        field = Qsqrt(d0)
        value = surd.to_field_elem(field)
        for i in (0, 1, total, total + 1):
            M = cf.convergent_matrix(i)
            assert M.unimodular
            assert homographic(M, cf.complete_quotient(i).to_field_elem(field)) == value
        i0 = len(cf.preperiod)
        assert cf.complete_quotient(i0) == cf.complete_quotient(i0 + len(cf.period))
        checked += 1


class TestFloor:
    def test_closed_form_matches_sign_comparisons(self):
        """Large surds, half of them within about 1/(2k|Q|) of an integer
        (D = k^2 +- 1, P = m*Q - k), with negative Q and with D scaled by
        Q^2 where Q does not divide D - P^2."""
        rng = random.Random(31)
        scaled = negative = 0
        for i in range(4000):
            Q = rng.choice((-1, 1)) * rng.randint(1, 10 ** 9)
            if i % 2:
                k = rng.randint(2, 10 ** 15)
                D = k * k + rng.choice((-1, 1))
                P = rng.randint(-10 ** 3, 10 ** 3) * Q - k
            else:
                D = rng.randint(2, 10 ** 30)
                if math.isqrt(D) ** 2 == D:
                    continue
                P = rng.randint(-10 ** 12, 10 ** 12)
            q = QuadIrr(P, D, Q)
            scaled += q.D != D
            negative += q.Q < 0
            assert q.floor() == ref_floor(q)
        assert scaled > 1000 and negative > 1000

    def test_small_surds(self):
        for D in range(2, 60):
            if math.isqrt(D) ** 2 == D:
                continue
            for P in range(-8, 9):
                for Q in (*range(-7, 0), *range(1, 8)):
                    q = QuadIrr(P, D, Q)
                    assert q.floor() == ref_floor(q)


class TestDiscriminantBound:
    # the discriminant of the primitive minimal polynomial over ZZ
    @pytest.mark.parametrize("surd, disc", [
        (QuadIrr(0, 2, 1), 8),          # x^2 - 2
        (QuadIrr(1, 5, 2), 5),          # x^2 - x - 1
        (QuadIrr(2, 20, 4), 5),         # the same number
        (QuadIrr(1, 8, 3), 288),        # 9x^2 - 6x - 7, D rescaled to 72
        (QuadIrr(5, 19, -2), 76),       # 2x^2 + 10x + 3
        (QuadIrr(-7, 13, 3), 52),       # 3x^2 + 14x + 12
    ])
    def test_bound_is_on_the_primitive_discriminant(self, surd, disc, monkeypatch):
        """Every complete quotient has the discriminant of the value: each
        expands at the bound disc and is refused at disc - 1."""
        cf = cf_expand(surd)
        quotients = [cf.complete_quotient(i)
                     for i in range(len(cf.preperiod) + len(cf.period) + 1)]
        monkeypatch.setattr(orbits, "MAX_CF_DISCRIMINANT", disc)
        for tau in quotients:
            cf_expand(tau)
        monkeypatch.setattr(orbits, "MAX_CF_DISCRIMINANT", disc - 1)
        for tau in quotients:
            with pytest.raises(ValueError, match=f"discriminant {disc} of "):
                cf_expand(tau)
