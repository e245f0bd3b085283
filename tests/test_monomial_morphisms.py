"""The paths of monomial morphisms that run no gcd where nothing can cancel,
against the bodies that ran one (tests/_support.py): the cancel step of
K(a) against an operand of degree 1, decided by one evaluation; the sum
of reduced fractions where one denominator is 1; the
exponent substitution of a Laurent element, reduced by a monomial; the
homography of a K(a) element by a matrix whose determinant is nonzero in
k, which needs only the monic step; the set-up of a derivation whose
images have denominator 1; the image of a skew polynomial under a
monomial morphism, summed once per x-degree; and the composite of two,
verified once and checked against the pushed images."""

import random

import pytest

from orefields import fields, ratfunc
from orefields.fields import GF, QQ, Qsqrt, _UPoly, _frac_cancel, _umul, with_parameter
from orefields.orbits import Mat2Z, homographic
from orefields.presentations import CaseSpec, Morphism, algebra_make, monomial_morphism
from orefields.ratfunc import Derivation, FunctionField2, RatFunc2, scaling_derivation
from orefields.skewpoly import SkewPoly

from _support import (
    counting, rand_elem, rand_laurent_monomial, rand_nonzero, rand_poly2, rand_ratfunc, rand_skew,
    ref_combined, ref_derivation, ref_derivation_weights, ref_frac_cancel, ref_homographic,
    ref_morphism_apply, ref_param_add, ref_subst_powers,
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
}


def upoly(K, coeffs):
    """The trimmed tuple of the reps of coeffs, lowest degree first."""
    reps = [K.coerce(c).rep for c in coeffs]
    while reps and K._is_zero(reps[-1]):
        reps.pop()
    return tuple(reps)


# ---------------------------------------------------------------------------
# the cancel step against an operand of degree 1

@pytest.mark.parametrize("base", sorted(BASES))
def test_linear_cancel_matches_euclid(base):
    K = BASES[base]()
    rng = random.Random(29)
    zero = K._zero_rep()
    cases = []
    for degree in range(7):
        for _ in range(6):
            c1 = rand_nonzero(rng, K).rep          # a lead other than 1 as a rule
            t0 = zero if rng.random() < 0.25 else rand_elem(rng, K).rep
            lin = (K._neg(K._mul(c1, t0)), c1)     # c1 (t - t0); t0 = 0 is a root at 0
            other = tuple(rand_elem(rng, K).rep for _ in range(degree)) + (rand_nonzero(rng, K).rep,)
            if degree and rng.random() < 0.5:      # one that t - t0 divides
                other = _umul(K, other[1:], (K._neg(t0), K._one_rep()))
            cases += [(lin, other), (other, lin)]
    dividing = 0
    for a, b in cases:
        want = ref_frac_cancel(_UPoly, K, a, b)
        dividing += want != (a, b)
        with counting(gcd=_UPoly.gcd, quo=_UPoly.quo) as calls:
            assert _frac_cancel(_UPoly, K, a, b) == want, (a, b)
        assert not calls, (a, b)
    assert dividing > 10 and len(cases) - dividing > 10


@pytest.mark.parametrize("base", sorted(BASES))
def test_sums_over_a_unit_denominator_run_no_gcd(base):
    # n1 + n2/d2 = (n1 d2 + n2)/d2 shares no factor with d2: eigenvalues
    # i + j alpha of a non-polynomial alpha are such sums
    F = with_parameter(BASES[base]())
    rng = random.Random(17)
    a = F.gen()
    for _ in range(30):
        poly = a * rand_nonzero(rng, F.base) + rand_elem(rng, F.base)
        frac = rand_elem(rng, F) / (a * a + a + rand_nonzero(rng, F.base))
        if frac.is_zero():
            continue
        for x, y in ((poly, frac), (frac, poly)):
            want = ref_param_add(F, x.rep, y.rep)
            with counting(gcd=_UPoly.gcd) as calls:
                assert F._add(x.rep, y.rep) == want
            assert not calls
    ctx = FunctionField2(QQ())
    for _ in range(10):
        f, g = rand_poly2(rng, ctx), rand_ratfunc(rng, ctx)
        if len(g.den) > 1 and not f.is_zero():
            assert f + g == ref_combined(f, g) and g - f == ref_combined(g, f, negate=True)


def test_linear_cancel_of_two_linear_operands():
    K = QQ()
    lin = upoly(K, [-6, 2])                  # 2 (t - 3)
    assert _frac_cancel(_UPoly, K, lin, upoly(K, [-9, 3])) == ((2,), (3,))
    assert _frac_cancel(_UPoly, K, upoly(K, [-9, 3]), lin) == ((3,), (2,))
    assert _frac_cancel(_UPoly, K, lin, upoly(K, [1, 1])) == (lin, upoly(K, [1, 1]))
    # a root at 0: t divides t^3 + t but not t^2 + 1
    t = upoly(K, [0, 1])
    assert _frac_cancel(_UPoly, K, t, upoly(K, [0, 1, 0, 1])) == ((1,), upoly(K, [1, 0, 1]))
    assert _frac_cancel(_UPoly, K, upoly(K, [1, 0, 1]), t) == (upoly(K, [1, 0, 1]), t)


# ---------------------------------------------------------------------------
# the exponent substitution of Laurent elements

MATRICES = [
    ((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((-1, 3), (1, -2)),
    ((2, 0), (0, 1)), ((1, 1), (1, -1)), ((-2, 0), (1, 1)),         # det +-2
    ((1, 1), (1, 1)), ((2, -2), (1, -1)), ((0, 0), (1, 2)), ((0, 0), (0, 0)),   # det 0
]


def laurent_elements(rng, ctx):
    y, z = ctx.gens()
    one = ctx.one()
    out = [ctx.zero(), one, y, z, y - z, y + z, y * y - y * z + z * z, (y - z) / (y * z ** 2),
           one - y / z, y ** -3 * z ** 2 - y ** 2 * z ** -3]
    for _ in range(8):
        f = ctx.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + rand_laurent_monomial(rng, ctx, span=3)
        out.append(f)
    return out


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_laurent_substitution_matches_normalize(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    rng = random.Random(29)
    collided = 0
    for f in laurent_elements(rng, ctx):
        assert len(f.den) == 1
        for e1, e2 in MATRICES:
            want = ref_subst_powers(f, e1, e2)
            with counting(gcd=ratfunc._pgcd, normalize=RatFunc2._normalize) as calls:
                got = f.subst_powers(e1, e2)
            assert not calls, (str(f), e1, e2)
            assert (got.num, got.den) == (want.num, want.den), (str(f), e1, e2)
            collided += len(got.num) < len(f.num)
    assert collided     # colliding exponents, summed and some cancelled


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_substitution_of_other_fractions_keeps_the_gcd_path(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    rng = random.Random(7)
    for _ in range(12):
        f = rand_ratfunc(rng, ctx)
        for e1, e2 in MATRICES[:8]:      # det != 0: no denominator maps to 0
            got, want = f.subst_powers(e1, e2), ref_subst_powers(f, e1, e2)
            assert (got.num, got.den) == (want.num, want.den)


# ---------------------------------------------------------------------------
# homographies in K(a)

HOMOGRAPHY_MATRICES = [Mat2Z(1, 0, 0, 1), Mat2Z(1, 1, 0, 1), Mat2Z(0, -1, 1, 0),
                       Mat2Z(2, 1, 1, 1), Mat2Z(1, -2, 1, -1), Mat2Z(3, 1, 1, 5),
                       Mat2Z(1, 2, 2, 4), Mat2Z(2, 0, 0, 1), Mat2Z(1, 0, 1, -2),
                       Mat2Z(0, 1, 1, 0), Mat2Z(5, 3, 2, 7), Mat2Z(1, -1, 0, 1)]


def parameter_values(K):
    a = K.gen()
    return [a, a + 1, a * 2, 1 / a, (a * a + 1) / (a - 1), (a + 2) / (a * a + a + 1),
            K.from_int(1), K.from_int(2), K.from_int(3)]


@pytest.mark.parametrize("base", sorted(BASES))
def test_homography_matches_the_field_formula(base):
    K = with_parameter(BASES[base]())
    vanishing = 0
    for alpha in parameter_values(K):
        for M in HOMOGRAPHY_MATRICES:
            try:
                want = ref_homographic(M, alpha)
            except ZeroDivisionError:
                vanishing += 1
                with pytest.raises(ZeroDivisionError):
                    homographic(M, alpha)
                continue
            with counting(cancel=fields._frac_cancel) as calls:
                assert homographic(M, alpha).rep == want.rep, (str(alpha), M)
            # an invertible matrix over k leaves nothing to cancel
            assert not calls or K.base._is_zero(K.base._from_int(M.det)), (str(alpha), M)
    assert vanishing     # m alpha + r = 0 for a constant alpha: 1 * 2 - 2 = 0


def test_homography_where_the_determinant_vanishes_in_k():
    # det [3 1; 1 5] = 14 = 0 mod 7: (3a + 1)/(a + 5) = 3 in GF(7)(a), which
    # only the gcd finds
    K = with_parameter(GF(7))
    beta = homographic(Mat2Z(3, 1, 1, 5), K.gen())
    assert beta.rep == K.from_int(3).rep
    assert homographic(Mat2Z(3, 1, 1, 5), K.gen() * 2 + 1) == K.from_int(3)
    # over QQ the same matrix is invertible, and nothing cancels
    Q = with_parameter(QQ())
    assert str(homographic(Mat2Z(3, 1, 1, 5), Q.gen())) == "(3*a+1)/(a+5)"


def test_homography_of_a_non_polynomial_alpha():
    K = with_parameter(GF(31))
    a = K.gen()
    alpha = (a * a + 1) / (a - 1)
    for M in HOMOGRAPHY_MATRICES:
        try:
            want = ref_homographic(M, alpha)
        except ZeroDivisionError:
            continue
        assert homographic(M, alpha).rep == want.rep
    with pytest.raises(ZeroDivisionError):
        homographic(Mat2Z(1, 0, 1, -2), K.from_int(2))


def test_homography_to_zero_is_the_zero_rep():
    K = with_parameter(QQ())
    beta = homographic(Mat2Z(1, -1, 0, 1), K.from_int(1))
    assert beta.is_zero() and beta.rep == K.zero().rep


# ---------------------------------------------------------------------------
# derivations whose images have denominator 1

def derivations(ctx):
    K = ctx.field
    y, z = ctx.gens()
    one = ctx.one()
    out = [scaling_derivation(ctx, 1, 2), scaling_derivation(ctx, 0, 1),
           Derivation(ctx, y, y + z), Derivation(ctx, y, one), Derivation(ctx, y * z, z * z - y)]
    if K.char != 3:
        out.append(scaling_derivation(ctx, 1, K.from_int(3)))
    return out + [D.negate() for D in out]


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_unit_denominator_derivation_matches_the_general_formula(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    rng = random.Random(3)
    for D in derivations(ctx):
        want = ref_derivation_weights(D.image_of_y, D.image_of_z)
        with counting(gcd=ratfunc._pgcd, quo=ratfunc._pdivexact, mul=ratfunc._pmul) as calls:
            fresh = Derivation(ctx, D.image_of_y, D.image_of_z)
        assert not calls
        assert (fresh._e, fresh._wy, fresh._wz) == want
        assert fresh._wy is D.image_of_y.num and fresh._wz is D.image_of_z.num
        # the shared numerators are not mutated by applying D
        images = [(dict(D.image_of_y.num), dict(D.image_of_z.num))]
        for _ in range(6):
            f = rand_ratfunc(rng, ctx)
            assert fresh(f) == ref_derivation(fresh, f)
        assert images == [(D.image_of_y.num, D.image_of_z.num)]


@pytest.mark.parametrize("name", sorted(COEFF_FIELDS))
def test_derivation_with_image_denominators_keeps_the_lcm(name):
    ctx = FunctionField2(COEFF_FIELDS[name]())
    y, z = ctx.gens()
    for iy, iz in ((y / (z + 1), z), (y, z / (y + 1)), (1 / (y + z), y / (z * (y + z)))):
        D = Derivation(ctx, iy, iz)
        assert (D._e, D._wy, D._wz) == ref_derivation_weights(iy, iz)


# ---------------------------------------------------------------------------
# morphism images

MORPHISM_FIELDS = {
    "QQ(a)": lambda: with_parameter(QQ()),
    "GF7(a)": lambda: with_parameter(GF(7)),
    "GF3(a)": lambda: with_parameter(GF(3)),
}

UNIMODULAR = [Mat2Z(1, 1, 0, 1), Mat2Z(0, -1, 1, 0), Mat2Z(2, 1, 1, 1), Mat2Z(1, -2, 1, -1),
              Mat2Z(-1, 0, 0, 1)]


def skew_samples(rng, D):
    ctx = D.ctx
    y, z = ctx.gens()
    out = [SkewPoly.zero(D), SkewPoly.one(D), SkewPoly.x(D),
           SkewPoly(D, {0: y + z, 2: (y - z) / (y * z)}),
           SkewPoly(D, {1: (y + 1) / (z + y), 3: ctx.one()})]
    out += [rand_skew(rng, D, maxdeg=3) for _ in range(5)]
    return out


@pytest.mark.parametrize("name", sorted(MORPHISM_FIELDS))
def test_apply_matches_the_running_sum(name):
    K = MORPHISM_FIELDS[name]()
    rng = random.Random(11)
    alpha = K.gen()
    for M in UNIMODULAR:
        phi = monomial_morphism(M, alpha)
        samples = skew_samples(rng, phi.target.D)
        wants = [ref_morphism_apply(phi, f) for f in samples]
        with counting(from_coeff=SkewPoly.from_coeff, zero=SkewPoly.zero,
                      add=SkewPoly.__add__) as calls:
            gots = [phi.apply(f) for f in samples]
        assert not calls, M
        assert gots == wants, M


@pytest.mark.parametrize("name", sorted(MORPHISM_FIELDS))
def test_apply_with_a_linear_x_image(name):
    # x' = c0 + c1 x with c1 = (m alpha + r)^-1 and a constant c0 keeps all
    # three brackets; its powers have several coefficients
    K = MORPHISM_FIELDS[name]()
    rng = random.Random(5)
    alpha = K.gen()
    pres = algebra_make(CaseSpec("g", K, alpha))
    for M in UNIMODULAR:
        c1 = pres.ctx.const((alpha * M.m + M.r).inverse())
        phi = Morphism(target=pres, beta=homographic(M, alpha),
                       x_img=SkewPoly(pres.D, {0: pres.ctx.const(2), 1: c1}),
                       y_img=pres.coeff_monomial(M.r, M.m), z_img=pres.coeff_monomial(M.q, M.n),
                       tag="monomial", matrix=M, invertible=True)
        for f in skew_samples(rng, pres.D):
            assert phi.apply(f) == ref_morphism_apply(phi, f)


def test_composites_match_the_matrix_product():
    K = with_parameter(QQ())
    alpha = K.gen()
    for M1 in UNIMODULAR:
        for M2 in UNIMODULAR:
            phi1 = monomial_morphism(M1, alpha)
            phi2 = monomial_morphism(M2, phi1.beta)
            composite, direct = phi1.compose(phi2), monomial_morphism(M2 * M1, alpha)
            assert (composite.x_img, composite.y_img, composite.z_img) == \
                (direct.x_img, direct.y_img, direct.z_img)
            assert composite.beta == direct.beta == ref_homographic(M2 * M1, alpha)


def test_a_composite_is_verified_once_and_checked_image_by_image():
    K = with_parameter(GF(7))
    alpha = K.gen()
    M1, M2 = Mat2Z(1, 1, 0, 1), Mat2Z(0, 1, 1, 0)
    phi1 = monomial_morphism(M1, alpha)
    phi2 = monomial_morphism(M2, phi1.beta)
    with counting(verify=Morphism.verify_relations) as calls:
        assert phi1.compose(phi2).matrix == M2 * M1
    assert calls["verify"] == 1     # the direct morphism's brackets, not a composite's too
    # an inner morphism whose data is not what its matrix gives
    for name, wrong, message in (("beta", phi2.beta + 1, "beta"),
                                 ("x_img", phi2.x_img * 2, "x image"),
                                 ("y_img", phi2.z_img, "y image"),
                                 ("z_img", phi2.y_img, "z image")):
        right = getattr(phi2, name)
        setattr(phi2, name, wrong)
        with pytest.raises(ArithmeticError, match=message):
            phi1.compose(phi2)
        setattr(phi2, name, right)
