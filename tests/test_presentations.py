import random
from fractions import Fraction

import pytest

from orefields import presentations
from orefields.fields import GF, QQ, FieldSpec, Qsqrt, with_parameter
from orefields.orbits import Mat2Z, OrbitData, homographic
from orefields.presentations import (
    CaseSpec, Morphism, Presentation, UnsupportedCaseError, algebra_make,
    central_element_c, centralizer_pair_check, claimed_center, frobenius_embedding,
    gk_classify, monomial_morphism, translation_invariant_t, verification_run,
    weyl_triple,
)
from orefields.skewpoly import SkewPoly, commutator, is_central_against, subst_x_shift


def g_case(field, alpha):
    return CaseSpec("g", field, field.coerce(alpha))


class TestAlgebraMake:
    def test_scaling_with_sqrt2(self):
        K = Qsqrt(2)
        pres = algebra_make(g_case(K, K.gen()))
        x, _, z = pres.gens
        assert commutator(x, z) == z * K.gen()

    def test_unipotent_char3(self):
        pres = algebra_make(CaseSpec("q", GF(3)))
        x, y, z = pres.gens
        assert commutator(x, z) == y + z

    def test_alpha_one(self):
        pres = algebra_make(g_case(QQ(), 1))
        x, _, z = pres.gens
        assert commutator(x, z) == z

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            g_case(QQ(), 0)

    def test_classification(self):
        assert g_case(QQ(), Fraction(2, 3)).classification == "char0-rational"
        assert g_case(Qsqrt(2), Qsqrt(2).gen()).classification == "char0-irrational"
        assert g_case(GF(5), 2).classification == "charl-prime-subfield"
        K = with_parameter(GF(5))
        assert g_case(K, K.gen()).classification == "charl-generic"
        assert CaseSpec("q", QQ()).classification == "q-char0"
        assert CaseSpec("q", GF(3)).classification == "q-charl"


class TestValueRecords:
    @pytest.mark.parametrize("make, field", [
        (lambda: Mat2Z(2, 1, 1, 1), "q"),
        (lambda: CaseSpec("g", QQ(), QQ().from_int(2)), "alpha"),
        (lambda: FieldSpec(characteristic=3, ext_degree=2), "ext_degree"),
        (lambda: OrbitData("w", 6, 4), "size"),
    ])
    def test_immutable_and_equal_by_value(self, make, field):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    def test_fields_in_order_with_defaults(self):
        assert Mat2Z(1, 2, 3, 4).entries() == (1, 2, 3, 4)
        assert CaseSpec("q", GF(3)).alpha is None
        spec = FieldSpec(5)
        assert (spec.characteristic, spec.ext_degree, spec.ext_poly, spec.sqrt_d,
                spec.parameter) == (5, None, None, None, False)
        assert FieldSpec(5) != FieldSpec(5, parameter=True)


class TestVerificationRun:
    def test_outside_a_run_every_call_builds_afresh(self):
        case = CaseSpec("q", GF(3))
        assert algebra_make(case) is not algebra_make(case)
        assert claimed_center(case) is not claimed_center(case)

    def test_inside_a_run_equal_arguments_share_one_object(self):
        K = with_parameter(GF(3))
        with verification_run():
            # equal by value, built from distinct field objects
            pres = algebra_make(g_case(K, K.gen()))
            assert algebra_make(g_case(with_parameter(GF(3)), K.gen())) is pres
            assert algebra_make(CaseSpec("q", GF(3)), "yt") is not algebra_make(
                CaseSpec("q", GF(3)))
            c = central_element_c(3, K.gen())
            assert central_element_c(3, K.gen()) is c
            center = claimed_center(g_case(K, K.gen()))
            assert claimed_center(g_case(K, K.gen())) is center
            assert center.generators[-1][1] is c
        assert algebra_make(g_case(K, K.gen())) is not pres

    def test_equal_distinct_cases_share_one_presentation(self):
        a, b = CaseSpec("q", GF(3)), CaseSpec("q", GF(3))
        assert a is not b and a == b
        with verification_run():
            assert algebra_make(a) is algebra_make(b)

    def test_a_raising_construction_raises_again(self, monkeypatch):
        calls = []

        def broken(self):
            calls.append(self.case)
            raise ArithmeticError("injected failure")
        case = CaseSpec("q", GF(3))
        with verification_run():
            with pytest.raises(UnsupportedCaseError):
                central_element_c(5, GF(5).coerce(2))
            with pytest.raises(UnsupportedCaseError):
                central_element_c(5, GF(5).coerce(2))
            monkeypatch.setattr(Presentation, "_verify_brackets", broken)
            for _ in range(2):
                with pytest.raises(ArithmeticError, match="injected"):
                    algebra_make(case)
        assert calls == [case, case]

    def test_runs_nest_and_the_store_is_dropped_on_exit(self):
        case = CaseSpec("q", GF(3))
        with pytest.raises(RuntimeError):
            with verification_run():
                outer = algebra_make(case)
                with verification_run():
                    assert algebra_make(case) is not outer
                assert algebra_make(case) is outer
                raise RuntimeError("run crashed")
        assert presentations._run_store is None


class TestClaimedCenter:
    def test_char0_rational(self):
        # claimed_center raises unless every generator is central
        report = claimed_center(g_case(QQ(), Fraction(2, 3)))
        assert [label for label, _ in report.generators] == ["y^2*z^-3"]
        pres = algebra_make(g_case(QQ(), Fraction(2, 3)))
        assert report.generators[0][1] == pres.coeff_monomial(2, -3)

    def test_char0_irrational_empty(self):
        K = Qsqrt(2)
        report = claimed_center(g_case(K, K.gen()))
        assert report and report.generators == []

    def test_char5_prime_subfield(self):
        report = claimed_center(g_case(GF(5), 2))
        assert [label for label, _ in report.generators] == ["x^5-x", "y^5", "y^-2*z"]

    def test_q_char3(self):
        report = claimed_center(CaseSpec("q", GF(3)))
        assert [label for label, _ in report.generators] == ["y^3", "z^3", "(x^3-x)^3"]


class TestCentralElement:
    def test_char2_closed_form(self):
        K = with_parameter(GF(2))
        a = K.gen()
        c = central_element_c(2, a)
        pres = algebra_make(g_case(K, a))
        mu = a ** 2 + a
        lam = a ** 2 + a + 1
        x = pres.x
        expected = x ** 4 + x ** 2 * pres.ctx.const(lam) + x * pres.ctx.const(mu)
        assert c == expected
        assert is_central_against(c, pres.gens)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_central_and_forms_agree(self, ell):
        # central_element_c verifies both closed forms and centrality itself
        K = with_parameter(GF(ell))
        c = central_element_c(ell, K.gen())
        assert c.degree() == ell * ell

    def test_prime_subfield_alpha_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            central_element_c(3, GF(3).from_int(2))


class TestTranslationInvariant:
    def test_char3_gamma_one(self):
        F3 = GF(3)
        t = translation_invariant_t(F3.one(), 3)
        pres = algebra_make(g_case(F3, 1))
        assert t == pres.x ** 3 - pres.x
        assert subst_x_shift(t, F3.one()) == t

    def test_shift_by_alpha_drops_by_first_power(self):
        # direct expansion: the invariant of x -> x-1 moves by a^l - a under
        # x -> x-a, not by (a^l - a)^(l-1)
        K = with_parameter(GF(3))
        a = K.gen()
        pres = algebra_make(g_case(K, a))
        t1 = pres.x ** 3 - pres.x
        shifted = subst_x_shift(t1, a)
        assert shifted == t1 - pres.ctx.const(a ** 3 - a)
        assert shifted != t1 - pres.ctx.const((a ** 3 - a) ** 2)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_c_from_invariant(self, ell):
        K = with_parameter(GF(ell))
        a = K.gen()
        pres = algebra_make(g_case(K, a))
        t1 = translation_invariant_t(K.one(), ell)
        t1 = SkewPoly(pres.D, {i: c.to_context(pres.ctx) for i, c in t1.coeffs.items()})
        mu = (a ** ell - a) ** (ell - 1)
        assert t1 ** ell - t1 * pres.ctx.const(mu) == central_element_c(ell, a)

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            translation_invariant_t(GF(3).zero(), 3)


class TestWeylTriple:
    def test_char5_prime_subfield(self):
        triple = weyl_triple(g_case(GF(5), 2))
        pres = algebra_make(g_case(GF(5), 2))
        assert commutator(triple.P, triple.Q) == SkewPoly.one(pres.D)
        assert triple.P == pres.x * pres.ctx.monomial(-1, 0)

    def test_char0_rational_canonical(self):
        case = g_case(QQ(), Fraction(2, 3))
        triple = weyl_triple(case)
        pres = algebra_make(case)
        assert commutator(triple.P, triple.Q) == SkewPoly.one(pres.D)
        for _, c in triple.centrals:
            assert commutator(triple.P, c).is_zero()
            assert commutator(triple.Q, c).is_zero()

    def test_char0_rational_alternate_bezout(self):
        # the recipe also works with the pair (u, v) = (-1, 1) for 2/3
        case = g_case(QQ(), Fraction(2, 3))
        pres = algebra_make(case)
        yprime = pres.ctx.monomial(1, -1)          # y' = y z^-1, lambda = 1/3
        P = SkewPoly(pres.D, {1: yprime.inverse() * 3})
        Q = pres.embed(yprime)
        assert commutator(P, Q) == SkewPoly.one(pres.D)

    def test_charl_generic_factor(self):
        K = with_parameter(GF(3))
        case = g_case(K, K.gen())
        triple = weyl_triple(case)
        pres = algebra_make(case)
        assert commutator(triple.P, pres.z) == SkewPoly.one(pres.D)

    def test_q_charl_factor(self):
        triple = weyl_triple(CaseSpec("q", GF(3)))
        assert triple.recipe == "centralizer-factor"

    @pytest.mark.parametrize("make_case, recipe, labels", [
        (lambda: g_case(QQ(), Fraction(2, 3)), "rational-reparametrization", ["y^2*z^-3"]),
        (lambda: g_case(GF(5), 2), "prime-subfield", ["x^5-x", "y^5", "y^-2*z"]),
        (lambda: g_case(with_parameter(GF(3)), with_parameter(GF(3)).gen()),
         "centralizer-factor", ["y^3", "z^3", "c"]),
        (lambda: CaseSpec("q", GF(3)), "centralizer-factor", ["y^3", "t^3", "(x^3-x)^3"]),
    ])
    def test_central_data(self, make_case, recipe, labels):
        case = make_case()
        triple = weyl_triple(case)
        pres = algebra_make(case, coords="yt" if case.algebra == "q" else "yz")
        ell = case.field.char
        x = pres.x
        expected = {
            "y^2*z^-3": pres.coeff_monomial(2, -3),
            "x^5-x": x ** 5 - x, "y^5": pres.coeff_monomial(5, 0),
            "y^-2*z": pres.coeff_monomial(-2, 1),
            "y^3": pres.coeff_monomial(3, 0), "z^3": pres.coeff_monomial(0, 3),
            "t^3": pres.coeff_monomial(0, 3), "(x^3-x)^3": (x ** 3 - x) ** 3,
        }
        if "c" in labels:
            expected["c"] = central_element_c(ell, case.alpha)
        assert triple.recipe == recipe
        assert [label for label, _ in triple.centrals] == labels
        for label, c in triple.centrals:
            assert c == expected[label]

    def test_char0_irrational_rejected(self):
        K = Qsqrt(2)
        with pytest.raises(UnsupportedCaseError):
            weyl_triple(g_case(K, K.gen()))

    def test_q_char0_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            weyl_triple(CaseSpec("q", QQ()))


class TestMonomialMorphism:
    def test_identity(self):
        K = Qsqrt(2)
        phi = monomial_morphism(Mat2Z.identity(), K.gen())
        pres = phi.target
        assert phi.x_img == pres.x and phi.y_img == pres.y and phi.z_img == pres.z
        assert phi.beta == K.gen()

    def test_antidiagonal_inverts_alpha(self):
        K = with_parameter(QQ())
        a = K.gen()
        phi = monomial_morphism(Mat2Z(0, 1, 1, 0), a)
        assert phi.beta == a.inverse()
        pres = phi.target
        assert phi.y_img == pres.z and phi.z_img == pres.y
        assert commutator(phi.x_img, phi.z_img) == phi.z_img * phi.beta
        assert phi.invertible

    def test_diag_2_1_not_invertible(self):
        K = with_parameter(QQ())
        a = K.gen()
        phi = monomial_morphism(Mat2Z(2, 0, 0, 1), a)
        assert phi.beta == a * 2
        assert not phi.invertible

    def test_determinant_zero_in_char3_rejected(self):
        K = with_parameter(GF(3))
        with pytest.raises(ValueError):
            monomial_morphism(Mat2Z(1, 2, 1, 2), K.gen())

    def test_beta_matches_homographic(self):
        rng = random.Random(40)
        K = Qsqrt(3)
        alpha = K.gen() + 1
        for _ in range(10):
            M = Mat2Z(rng.randint(-4, 4), rng.randint(-4, 4),
                      rng.randint(-4, 4), rng.randint(-4, 4))
            if M.det == 0:
                continue
            phi = monomial_morphism(M, alpha)
            assert phi.beta == homographic(M, alpha)

    def test_random_relation_preservation(self):
        rng = random.Random(41)
        for K in (with_parameter(QQ()), with_parameter(GF(3))):
            a = K.gen()
            count = 0
            while count < 12:
                M = Mat2Z(rng.randint(-5, 5), rng.randint(-5, 5),
                          rng.randint(-5, 5), rng.randint(-5, 5))
                if K.from_int(M.det).is_zero():
                    continue
                monomial_morphism(M, a)   # construction verifies relations
                count += 1


class TestComposition:
    def test_desk_check(self):
        # frozen orientation: applying M1's substitution after M2's equals
        # the substitution of M2 * M1
        K = with_parameter(QQ())
        a = K.gen()
        M1 = Mat2Z(2, 0, 0, 1)
        M2 = Mat2Z(0, 1, 1, 0)
        phi1 = monomial_morphism(M1, a)
        phi2 = monomial_morphism(M2, phi1.beta)
        composite = phi1.compose(phi2)
        direct = monomial_morphism(M2 * M1, a)
        assert composite.matrix == Mat2Z(0, 1, 2, 0)
        assert composite.x_img == direct.x_img
        assert composite.y_img == direct.y_img
        assert composite.z_img == direct.z_img
        assert composite.beta == direct.beta

    def test_random_pairs(self):
        rng = random.Random(42)
        K = with_parameter(GF(3))
        a = K.gen()
        done = 0
        while done < 10:
            M1 = Mat2Z(rng.randint(-3, 3), rng.randint(-3, 3),
                       rng.randint(-3, 3), rng.randint(-3, 3))
            M2 = Mat2Z(rng.randint(-3, 3), rng.randint(-3, 3),
                       rng.randint(-3, 3), rng.randint(-3, 3))
            if K.from_int(M1.det).is_zero() or K.from_int(M2.det).is_zero():
                continue
            phi1 = monomial_morphism(M1, a)
            try:
                phi2 = monomial_morphism(M2, phi1.beta)
            except ZeroDivisionError:
                continue
            composite = phi1.compose(phi2)
            direct = monomial_morphism(M2 * M1, a)
            assert (composite.x_img, composite.y_img, composite.z_img) == \
                   (direct.x_img, direct.y_img, direct.z_img)
            done += 1


class TestFrobeniusEmbedding:
    def test_beta_equal_alpha_is_identity(self):
        K = with_parameter(GF(3))
        a = K.gen()
        psi = frobenius_embedding(a, a, 3)
        assert psi.x_img == psi.target.x

    def test_char2_square(self):
        K = with_parameter(GF(2))
        a = K.gen()
        psi = frobenius_embedding(a, a ** 2, 2)
        pres = psi.target
        assert psi.x_img == pres.x ** 2
        assert commutator(psi.x_img, pres.y) == pres.y
        assert commutator(psi.x_img, pres.z) == pres.z * (a ** 2)

    def test_char3_random_betas(self):
        rng = random.Random(43)
        K = with_parameter(GF(3))
        a = K.gen()
        for _ in range(10):
            beta = a * rng.randint(0, 2) + rng.randint(0, 2) + a ** 2 * rng.randint(0, 2)
            if beta.is_zero():
                beta = K.one()
            frobenius_embedding(a, beta, 3)   # construction verifies

    def test_prime_subfield_alpha_rejected(self):
        with pytest.raises(UnsupportedCaseError):
            frobenius_embedding(GF(3).from_int(2), GF(3).one(), 3)


class TestCentralizerPair:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_scaling_generic(self, ell):
        K = with_parameter(GF(ell))
        # raises unless all nine cross-commutators vanish and both inner
        # witnesses hold
        L, Lp = centralizer_pair_check(g_case(K, K.gen()))
        assert len(L) * len(Lp) == 9
        assert all(commutator(a, b).is_zero() for _, a in L for _, b in Lp)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_unipotent(self, ell):
        L, Lp = centralizer_pair_check(CaseSpec("q", GF(ell)))
        assert len(L) * len(Lp) == 9

    def test_x_cubed_t_commutes_char3(self):
        pres = algebra_make(CaseSpec("q", GF(3)), coords="yt")
        x, _, t = pres.gens
        assert commutator(x ** 3, t).is_zero()

    def test_inapplicable_case(self):
        with pytest.raises(UnsupportedCaseError):
            centralizer_pair_check(g_case(GF(5), 2))


class TestGKClassify:
    def test_char0_irrational_no(self):
        K = Qsqrt(2)
        verdict = gk_classify(g_case(K, K.gen()))
        assert not verdict.weyl_equivalent and verdict.weyl is None

    def test_char5_prime_yes(self):
        verdict = gk_classify(g_case(GF(5), 2))
        assert verdict.weyl_equivalent and verdict.weyl is not None
        assert verdict.dimension_over_center == "5^2"

    def test_q_char0_no(self):
        verdict = gk_classify(CaseSpec("q", QQ()))
        assert not verdict.weyl_equivalent

    def test_charl_generic_no(self):
        K = with_parameter(GF(2))
        verdict = gk_classify(g_case(K, K.gen()))
        assert not verdict.weyl_equivalent
        assert verdict.dimension_over_center == "2^4"


def test_morphism_images_have_required_degrees():
    K = with_parameter(GF(3))
    a = K.gen()
    phi = monomial_morphism(Mat2Z(1, 1, 1, 2), a)
    assert phi.x_img.degree() == 1
    assert phi.y_img.degree() == 0 and phi.z_img.degree() == 0
    psi = frobenius_embedding(a, a + 1, 3)
    assert psi.x_img.degree() == 3


def test_broken_morphism_rejected():
    K = with_parameter(QQ())
    a = K.gen()
    pres = algebra_make(g_case(K, a))
    with pytest.raises(ArithmeticError):
        Morphism(target=pres, beta=a, x_img=pres.x, y_img=pres.y,
                 z_img=pres.y, tag="custom")


def test_morphism_apply_is_multiplicative():
    """Pushing products through a monomial embedding: the image of a product
    (computed with the source derivation) equals the product of the images
    (computed with the target derivation)."""
    rng = random.Random(77)
    K = with_parameter(QQ())
    a = K.gen()
    phi = monomial_morphism(Mat2Z(1, 1, 1, 2), a)
    source = algebra_make(CaseSpec("g", K, phi.beta))
    from _support import rand_skew
    for _ in range(8):
        f, g = rand_skew(rng, source.D), rand_skew(rng, source.D)
        assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)
        assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)


def test_morphism_apply_fixes_generator_images():
    K = with_parameter(GF(3))
    a = K.gen()
    phi = monomial_morphism(Mat2Z(2, 1, 1, 1), a)
    source = algebra_make(CaseSpec("g", K, phi.beta))
    assert phi.apply(source.x) == phi.x_img
    assert phi.apply(source.y) == phi.y_img
    assert phi.apply(source.z) == phi.z_img
