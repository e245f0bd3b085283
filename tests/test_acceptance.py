"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here is exact symbolic computation; 'tolerance' is literal
equality of canonical forms.  Stated runtime budgets are asserted.
"""

import random
import time
from fractions import Fraction

import pytest

from orefields.fields import (
    FieldElem, GF, QQ, Qsqrt, with_parameter, frobenius, norm_to_prime,
)
from orefields.orbits import (
    ImagQuadPoint, Mat2Z, QuadIrr, brute_force_witness, cf_expand,
    finite_orbits, fundamental_domain_reduce, gl2z_equivalent, homographic,
    tail_equivalent, transitivity_report, valued_iso_classify,
)
from orefields.pdo import (
    PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv, pdo_mul,
)
from orefields.presentations import (
    CaseSpec, algebra_make, central_element_c, centralizer_pair_check,
    claimed_center, frobenius_embedding, monomial_morphism, weyl_triple,
)
from orefields.ratfunc import Derivation, FunctionField2, in_frobenius_subfield, \
    scaling_derivation
from orefields.skewpoly import SkewPoly, commutator, valuation_v
from _support import rand_elem, rand_laurent_monomial, rand_nonzero, rand_ratfunc, \
    rand_skew


class Budget:
    def __init__(self, number, description, seconds=None):
        self.number = number
        self.description = description
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"ACCEPTANCE {self.number}: PASS ({elapsed:.2f}s) - {self.description}")
        if self.seconds is not None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)")


def g_case(field, alpha):
    return CaseSpec("g", field, field.coerce(alpha))


def test_criterion_01_presentation_relations():
    budget = Budget(1, "presentation bracket relations across the case grid", 1.0)
    alphas = []
    for char in (0, 2, 3, 5):
        if char == 0:
            alphas.append(QQ().coerce(Fraction(2, 3)))
            alphas.append(Qsqrt(2).gen())
            alphas.append(with_parameter(QQ()).gen())
        else:
            K = GF(char)
            frac = Fraction(2, 3)
            if frac.denominator % char and frac.numerator % char:
                alphas.append(K.coerce(frac))
            alphas.append(with_parameter(K).gen())
    for alpha in alphas:
        case = g_case(alpha.field, alpha)
        pres = algebra_make(case)
        x, y, z = pres.gens
        assert commutator(x, y) == y
        assert commutator(x, z) == z * alpha
        assert commutator(y, z).is_zero()
    for char in (0, 3):
        qcase = CaseSpec("q", QQ() if char == 0 else GF(char))
        pres = algebra_make(qcase)
        x, y, z = pres.gens
        assert commutator(x, y) == y
        assert commutator(x, z) == y + z
        assert commutator(y, z).is_zero()
        prest = algebra_make(qcase, coords="yt")
        assert commutator(prest.x, prest.z) == SkewPoly.one(prest.D)
    budget.done()


def test_criterion_02_shift_identity_suite():
    budget = Budget(2, "x^i y = y(x+1)^i, x^i z = z(x+a)^i and the l-power "
                       "invariant identities", 5.0)
    K = with_parameter(QQ())
    a = K.gen()
    pres = algebra_make(g_case(K, a))
    x, y, z = pres.gens
    ac = pres.embed(pres.ctx.const(a))
    for i in range(1, 7):
        assert x ** i * y == y * (x + 1) ** i
        assert x ** i * z == z * (x + ac) ** i
    for ell in (2, 3, 5):
        Kl = with_parameter(GF(ell))
        al = Kl.gen()
        presl = algebra_make(g_case(Kl, al))
        xl, yl, zl = presl.gens
        t1 = xl ** ell - xl
        ta = xl ** ell - xl * presl.ctx.const(al ** (ell - 1))
        assert t1 * yl == yl * t1
        assert ta * zl == zl * ta
    budget.done()


def test_criterion_03_central_element():
    budget = Budget(3, "degree-l^2 element is central and both closed forms "
                       "agree, l in {2,3,5}, transcendental parameter", 30.0)
    for ell in (2, 3, 5):
        K = with_parameter(GF(ell))
        # construction asserts centrality against {x, y, z} and the equality
        # of the power form with the product form
        c = central_element_c(ell, K.gen())
        assert c.degree() == ell * ell
    budget.done()


def test_criterion_04_center_generators():
    budget = Budget(4, "center generating sets have zero commutators with "
                       "x, y, z for all listed cases")
    # claimed_center raises ArithmeticError on a generator that is not central
    for ell in (2, 3, 5):
        for a in range(1, ell):
            assert claimed_center(g_case(GF(ell), a)).generators, f"l={ell}, a={a}"
        K = with_parameter(GF(ell))
        assert claimed_center(g_case(K, K.gen())).generators
        assert claimed_center(CaseSpec("q", GF(ell))).generators
    budget.done()


def test_criterion_05_weyl_triples():
    budget = Budget(5, "[P,Q] = 1 with central annihilation for all four recipes")
    for alpha in (Fraction(2, 3), Fraction(-5, 4)):
        triple = weyl_triple(g_case(QQ(), alpha))
        pres = algebra_make(g_case(QQ(), alpha))
        assert commutator(triple.P, triple.Q) == SkewPoly.one(pres.D)
        for _, c in triple.centrals:
            assert commutator(triple.P, c).is_zero()
            assert commutator(triple.Q, c).is_zero()
    weyl_triple(g_case(GF(5), 2))
    for ell in (2, 3):
        K = with_parameter(GF(ell))
        weyl_triple(g_case(K, K.gen()))
        weyl_triple(CaseSpec("q", GF(ell)))
    budget.done()


def test_criterion_06_morphism_suite():
    budget = Budget(6, "monomial and l-power embeddings preserve relations; "
                       "composition matches the matrix product")
    rng = random.Random(0)
    for K in (with_parameter(QQ()), with_parameter(GF(3))):
        a = K.gen()
        built = 0
        while built < 25:
            M = Mat2Z(rng.randint(-5, 5), rng.randint(-5, 5),
                      rng.randint(-5, 5), rng.randint(-5, 5))
            if K.from_int(M.det).is_zero():
                continue
            phi = monomial_morphism(M, a)    # construction verifies brackets
            assert phi.beta == homographic(M, a)
            built += 1
    for ell in (2, 3):
        K = with_parameter(GF(ell))
        a = K.gen()
        built = 0
        while built < 10:
            beta = sum((a ** i * rng.randint(0, ell - 1) for i in range(3)),
                       K.zero())
            if beta.is_zero():
                continue
            frobenius_embedding(a, beta, ell)
            built += 1
    K = with_parameter(QQ())
    a = K.gen()
    done = 0
    while done < 10:
        M1 = Mat2Z(rng.randint(-3, 3), rng.randint(-3, 3),
                   rng.randint(-3, 3), rng.randint(-3, 3))
        M2 = Mat2Z(rng.randint(-3, 3), rng.randint(-3, 3),
                   rng.randint(-3, 3), rng.randint(-3, 3))
        if M1.det == 0 or M2.det == 0:
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
    budget.done()


def test_criterion_07_mutual_centralizers():
    budget = Budget(7, "nine vanishing cross-commutators and two nonzero "
                       "witnesses for both families, l in {2,3}")
    # centralizer_pair_check raises ArithmeticError on a cross-commutator that
    # does not vanish or an inner witness that fails
    for ell in (2, 3):
        K = with_parameter(GF(ell))
        for case in (g_case(K, K.gen()), CaseSpec("q", GF(ell))):
            L, Lp = centralizer_pair_check(case)
            assert len(L) * len(Lp) == 9
    budget.done()


def test_criterion_08_pdo_suite():
    budget = Budget(8, "series valuation, embedding multiplicativity, inverse "
                       "round trips, leading-constraint extraction", 30.0)
    cases = [g_case(QQ(), Fraction(2, 3)), None]
    K3 = with_parameter(GF(3))
    cases[1] = g_case(K3, K3.gen())
    rng = random.Random(0)
    for case in cases:
        pres = algebra_make(case)
        delta = pres.D.negate()
        assert PdoSeries.u(delta, 8).valuation() == 1
        for _ in range(25):
            f, g = rand_skew(rng, pres.D), rand_skew(rng, pres.D)
            lhs = pdo_from_skew(f * g, 8)
            rhs = pdo_mul(pdo_from_skew(f, 8), pdo_from_skew(g, 8))
            assert lhs.approx_eq(rhs)
        for _ in range(5):
            terms = {n: rand_laurent_monomial(rng, pres.ctx)
                     for n in range(rng.randint(-1, 0), 2)}
            series = PdoSeries(delta, terms, 8)
            if series.is_zero_mod_prec():
                continue
            inv = pdo_inv(series)
            n = min(series.prec, inv.prec)
            assert pdo_mul(series, inv).approx_eq(PdoSeries.one(delta, n))
            assert pdo_mul(inv, series).approx_eq(PdoSeries.one(delta, n))
    K = with_parameter(GF(3))
    a = K.gen()
    pres = algebra_make(g_case(K, a))
    delta = pres.D.negate()
    checked = 0
    while checked < 10:
        M = Mat2Z(rng.randint(-4, 4), rng.randint(-4, 4),
                  rng.randint(-4, 4), rng.randint(-4, 4))
        if K.from_int(M.det).is_zero():
            continue
        phi = monomial_morphism(M, a)
        Xinv = pdo_inv(pdo_from_skew(phi.x_img, 8))
        Y = pdo_from_skew(phi.y_img, 8)
        Z = pdo_from_skew(phi.z_img, 8)
        c1 = leading_constraint_check(Xinv, Y, Z, phi.beta, pres.D)
        assert c1 == pres.ctx.const(a * M.m + M.r)
        # mutations: a constant y0 breaks the eigenline precondition, and a
        # constant u-term on Z breaks the commutation identity
        if checked % 2 == 0:
            with pytest.raises(ArithmeticError, match="y0 is a constant"):
                leading_constraint_check(Xinv, PdoSeries.one(delta, 8), Z, phi.beta, pres.D)
        else:
            wrong = Z + PdoSeries.u(delta, 8) * rng.randint(1, 2)
            with pytest.raises(ArithmeticError, match="Z-relation fails"):
                leading_constraint_check(Xinv, Y, wrong, phi.beta, pres.D)
        checked += 1
    budget.done()


def test_criterion_09_finite_orbits():
    budget = Budget(9, "orbit sizes, stabilizers, the char-2 table, and norm "
                       "surjectivity", 60.0)
    for ell in (3, 5, 7):
        rep = finite_orbits(ell, 2, "sl")
        assert [(o.size, o.stabilizer_order) for o in rep.orbits] == \
               [(ell * ell - ell, ell + 1)]
    for ell in (3, 7):
        rep = finite_orbits(ell, 3, "slpm")
        assert [(o.size, o.stabilizer_order) for o in rep.orbits] == \
               [(ell ** 3 - ell, 2)]
    assert finite_orbits(2, 2, "sl").transitive
    assert finite_orbits(2, 3, "sl").transitive
    F8 = GF(2, 3)
    w = F8.gen()
    table = [(Mat2Z(1, 1, 0, 1), 3), (Mat2Z(1, 0, 1, 1), 5),
             (Mat2Z(0, 1, 1, 0), 6), (Mat2Z(0, 1, 1, 1), 4),
             (Mat2Z(1, 1, 1, 0), 2)]
    for M, power in table:
        assert homographic(M, w) == w ** power
    for ell in (2, 3, 5, 7):
        F = GF(ell, 2)
        norms = {}
        kernel = 0
        for e in F.all_elements():
            if e.is_zero():
                continue
            n = norm_to_prime(e)
            norms[n.rep] = norms.get(n.rep, 0) + 1
            kernel += n.rep == 1
        assert set(norms) == set(range(1, ell))
        assert kernel == ell + 1
    budget.done()


def test_criterion_10_valued_classification():
    budget = Budget(10, "equivalence verdicts with verified witnesses and "
                        "the frozen continued-fraction periods")
    K2 = Qsqrt(2)
    verdict = valued_iso_classify(CaseSpec("g", K2, K2.gen()),
                                  CaseSpec("g", K2, K2.gen() + 1))
    assert verdict.verdict == "valued-isomorphic"
    assert verdict.witness.beta == K2.gen() + 1
    assert not gl2z_equivalent(QuadIrr(0, 2, 1), QuadIrr(0, 3, 1)).equivalent

    Ki = Qsqrt(-1)
    i = Ki.gen()
    res = gl2z_equivalent(i, i + 1)
    assert res.equivalent and homographic(res.witness, i) == i + 1
    assert not gl2z_equivalent(i, i * 2).equivalent
    assert brute_force_witness(i, i * 2, 20) is None

    sep = valued_iso_classify(CaseSpec("g", K2, K2.gen()), CaseSpec("q", QQ()))
    assert sep.verdict == "not-valued-isomorphic"

    assert cf_expand(QuadIrr(0, 2, 1)).period == (2,)
    assert cf_expand(QuadIrr(0, 2, 1)).preperiod == (1,)
    assert cf_expand(QuadIrr(1, 5, 2)).period == (1,)
    assert cf_expand(QuadIrr(0, 3, 1)).period == (1, 2)
    budget.done()


def test_criterion_11_property_suites():
    budget = Budget(11, "exact property suites on 200 seeded random "
                        "instances each", 60.0)
    rng = random.Random(0)

    # field axioms, 200 instances spread over the tower
    tower = [QQ(), GF(7), GF(3, 2), Qsqrt(-3), with_parameter(GF(2)),
             with_parameter(QQ())]
    for n in range(200):
        field = tower[n % len(tower)]
        a, b, c = (rand_elem(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a

    # Leibniz rule for both derivation families
    K3 = with_parameter(GF(3))
    ctx3 = FunctionField2(K3)
    D3 = scaling_derivation(ctx3, 1, K3.gen())
    ctxq = FunctionField2(QQ())
    yq, zq = ctxq.gens()
    Dq = Derivation(ctxq, yq, yq + zq)
    for n in range(200):
        ctx, D = (ctx3, D3) if n % 2 == 0 else (ctxq, Dq)
        f, g = rand_ratfunc(rng, ctx), rand_ratfunc(rng, ctx)
        assert D(f * g) == D(f) * g + f * D(g)

    # valuation additivity (skew and series sides)
    pres = algebra_make(g_case(K3, K3.gen()))
    delta = pres.D.negate()
    for n in range(200):
        f, g = rand_skew(rng, pres.D, maxdeg=1), rand_skew(rng, pres.D, maxdeg=1)
        assert valuation_v(f * g) == valuation_v(f) + valuation_v(g)
        if n % 4 == 0:
            sf = pdo_from_skew(f, 6)
            sg = pdo_from_skew(g, 6)
            assert pdo_mul(sf, sg).valuation() == sf.valuation() + sg.valuation()

    # frobenius-subfield membership, both directions
    ctx = FunctionField2(GF(3))
    y, z = ctx.gens()
    for n in range(200):
        g = rand_ratfunc(rng, ctx)
        if g.is_zero():
            continue
        assert in_frobenius_subfield(g ** 3)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        if i % 3 == 0 and j % 3 == 0:
            continue
        assert not in_frobenius_subfield(ctx.monomial(i, j) + g ** 3)

    # two-sided kernel samples for both derivations
    for n in range(200):
        if n % 2 == 0:
            f = (ctx3.monomial(3, 0) + 1) ** rng.randint(1, 2) / \
                (ctx3.monomial(0, 3) + 1)
            assert D3(f).is_zero()
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            if (i % 3, j % 3) != (0, 0):
                assert not D3(ctx3.monomial(i, j)).is_zero()
        else:
            ctxl = FunctionField2(GF(3))
            yl, zl = ctxl.gens()
            Dl = Derivation(ctxl, yl, yl + zl)
            f = (yl ** 3) ** rng.randint(1, 2) * (zl ** 3) + 1
            assert Dl(f).is_zero()
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            if (i % 3, j % 3) != (0, 0):
                assert not Dl(ctxl.monomial(i, j)).is_zero()
    budget.done()
