"""Presentations of the two skewfield families and their verified
structure: claimed central elements, Weyl-generator triples, the explicit
embeddings between presentations, mutual-centralizer checks, and the
Weyl-skewfield classification table.

Every constructed object re-verifies its defining bracket relations with
exact skew arithmetic; nothing here is trusted without a computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import fields
from .fields import Field, FieldElem, FieldError
from .orbits import Mat2Z, homographic
from .ratfunc import Derivation, FunctionField2, RatFunc2, scaling_derivation
from .skewpoly import SkewPoly, commutator, is_central_against, subst_x_shift


class UnsupportedCaseError(ValueError):
    """The requested construction does not exist for this case."""


@dataclass(frozen=True)
class CaseSpec:
    """One algebra case: the scaling family ('g', with parameter alpha) or
    the unipotent family ('q')."""

    algebra: str
    field: Field
    alpha: FieldElem | None = None

    def __post_init__(self):
        if self.algebra not in ("g", "q"):
            raise ValueError("algebra must be 'g' or 'q'")
        if self.algebra == "g":
            if self.alpha is None or self.alpha.field != self.field:
                raise ValueError("the 'g' family needs alpha in the coefficient field")
            if self.alpha.is_zero():
                raise ValueError("alpha must be nonzero")
        elif self.alpha is not None:
            raise ValueError("the 'q' algebra takes no parameter")

    @property
    def classification(self) -> str:
        char = self.field.char
        if self.algebra == "q":
            return "q-char0" if char == 0 else "q-charl"
        rational = fields.in_prime_subfield(self.alpha)
        if char == 0:
            return "char0-rational" if rational else "char0-irrational"
        return "charl-prime-subfield" if rational else "charl-generic"


class Presentation:
    """Generators x, y, z of one skewfield presentation, with the ambient
    derivation; bracket relations are verified at construction."""

    def __init__(self, case: CaseSpec, coords: str = "yz"):
        self.case = case
        self.coords = coords
        k = case.field
        if case.algebra == "g":
            if coords != "yz":
                raise ValueError("the 'g' family uses (y, z) coordinates")
            ctx = FunctionField2(k, ("y", "z"))
            D = scaling_derivation(ctx, 1, case.alpha)
        elif coords == "yz":
            ctx = FunctionField2(k, ("y", "z"))
            yv, zv = ctx.gens()
            D = Derivation(ctx, yv, yv + zv)
        elif coords == "yt":
            ctx = FunctionField2(k, ("y", "t"))
            yv, _ = ctx.gens()
            D = Derivation(ctx, yv, ctx.one())
        else:
            raise ValueError(f"unknown coordinate system {coords!r}")
        self.ctx = ctx
        self.D = D
        self.x = SkewPoly.x(D)
        self.y = SkewPoly.from_coeff(D, ctx.monomial(1, 0))
        self.z = SkewPoly.from_coeff(D, ctx.monomial(0, 1))
        self._verify_brackets()

    def _verify_brackets(self):
        case = self.case
        x, y, z = self.x, self.y, self.z
        if commutator(y, z) != SkewPoly.zero(self.D):
            raise ArithmeticError("[y, z] != 0")
        if commutator(x, y) != y:
            raise ArithmeticError("[x, y] != y")
        got = commutator(x, z)
        if case.algebra == "g":
            want = z * case.alpha
        elif self.coords == "yz":
            want = y + z
        else:
            want = SkewPoly.one(self.D)
        if got != want:
            raise ArithmeticError("[x, z] bracket mismatch")

    @property
    def gens(self):
        return (self.x, self.y, self.z)

    def embed(self, f) -> SkewPoly:
        """A coefficient as a degree-0 skew polynomial."""
        return SkewPoly.from_coeff(self.D, f)

    def coeff_monomial(self, i: int, j: int, c=1) -> SkewPoly:
        return self.embed(self.ctx.monomial(i, j, c))


def algebra_make(case: CaseSpec, coords: str = "yz") -> Presentation:
    return Presentation(case, coords)


# ---------------------------------------------------------------------------
# centers

@dataclass
class CenterReport:
    case: CaseSpec
    generators: list          # (label, SkewPoly) pairs
    all_central: bool
    notes: str = ""


def claimed_center(case: CaseSpec) -> CenterReport:
    """The generating set of the center for the given case, with every
    generator checked to commute with x, y and z.  Maximality of the
    center is recorded, not recomputed."""
    pres = algebra_make(case)
    ell = case.field.char
    gens: list = []
    notes = ""
    cls = case.classification
    if cls == "char0-rational":
        frac: Fraction = case.field.prime_subfield_value(case.alpha.rep)
        p, q = frac.numerator, frac.denominator
        gens.append((f"y^{p}*z^{-q}", pres.coeff_monomial(p, -q)))
    elif cls == "char0-irrational":
        notes = "center reduces to the constants; no generators beyond k"
    elif cls == "charl-prime-subfield":
        a = case.field.prime_subfield_value(case.alpha.rep)
        gens.append((f"x^{ell}-x", pres.x ** ell - pres.x))
        gens.append((f"y^{ell}", pres.coeff_monomial(ell, 0)))
        gens.append((f"y^-{a}*z", pres.coeff_monomial(-a, 1)))
    elif cls == "charl-generic":
        c = central_element_c(ell, case.alpha)
        gens.append((f"y^{ell}", pres.coeff_monomial(ell, 0)))
        gens.append((f"z^{ell}", pres.coeff_monomial(0, ell)))
        gens.append(("c", c))
    elif cls == "q-charl":
        gens.append((f"y^{ell}", pres.coeff_monomial(ell, 0)))
        gens.append((f"z^{ell}", pres.coeff_monomial(0, ell)))
        gens.append((f"(x^{ell}-x)^{ell}", (pres.x ** ell - pres.x) ** ell))
    else:  # q-char0
        notes = "center reduces to the constants; no generators beyond k"
    ok = all(is_central_against(g, pres.gens) for _, g in gens)
    return CenterReport(case, gens, ok, notes)


def central_element_c(ell: int, alpha: FieldElem) -> SkewPoly:
    """The degree-l^2 central element c = x^(l^2) + lambda*x^l + mu*x with
    mu = (alpha^l - alpha)^(l-1) and lambda = -mu - 1; also certifies the
    product form (x^l - x)^l - mu*(x^l - x) and centrality against
    {x, y, z}."""
    k = alpha.field
    if k.char != ell:
        raise FieldError(f"alpha must live in characteristic {ell}")
    if fields.in_prime_subfield(alpha):
        raise UnsupportedCaseError("alpha in the prime subfield degenerates mu")
    case = CaseSpec("g", k, alpha)
    pres = algebra_make(case)
    mu = (alpha ** ell - alpha) ** (ell - 1)
    lam = -mu - 1
    x = pres.x
    c = x ** (ell * ell) + x ** ell * const_coeff(pres, lam) + x * const_coeff(pres, mu)
    t1 = x ** ell - x
    c_alt = t1 ** ell - t1 * const_coeff(pres, mu)
    if c != c_alt:
        raise ArithmeticError("the two closed forms of c disagree")
    if not is_central_against(c, pres.gens):
        raise ArithmeticError("c fails to commute with a generator")
    return c


def const_coeff(pres: Presentation, value: FieldElem) -> RatFunc2:
    return pres.ctx.const(value)


def translation_invariant_t(gamma: FieldElem, ell: int) -> SkewPoly:
    """t_gamma = x^l - gamma^(l-1) x, the shift-invariant of x |-> x - gamma;
    certifies the invariance and the product-of-translates closed form."""
    k = gamma.field
    if k.char != ell:
        raise FieldError(f"gamma must live in characteristic {ell}")
    if gamma.is_zero():
        raise ValueError("gamma must be nonzero")
    pres = algebra_make(CaseSpec("g", k, gamma))
    x = pres.x
    t = x ** ell - x * const_coeff(pres, gamma ** (ell - 1))
    if subst_x_shift(t, gamma) != t:
        raise ArithmeticError("t_gamma is not invariant under x -> x - gamma")
    prod = SkewPoly.one(pres.D)
    for i in range(ell):
        prod = prod * (x - const_coeff(pres, gamma * i))
    if prod != t:
        raise ArithmeticError("product of translates does not match x^l - gamma^(l-1) x")
    return t


# ---------------------------------------------------------------------------
# Weyl triples

@dataclass
class WeylTriple:
    case: CaseSpec
    P: SkewPoly
    Q: SkewPoly
    centrals: list            # (label, SkewPoly) pairs
    recipe: str


def check_weyl(triple: WeylTriple) -> bool:
    """Recompute [P, Q] = 1 and the commutators of P and Q with each listed
    central element; True, or ArithmeticError naming the first failure."""
    P, Q = triple.P, triple.Q
    if commutator(P, Q) != SkewPoly.one(P.derivation):
        raise ArithmeticError("[P, Q] != 1")
    for label, c in triple.centrals:
        if not commutator(P, c).is_zero() or not commutator(Q, c).is_zero():
            raise ArithmeticError(f"{label} is not annihilated by the pair")
    return True


def weyl_triple(case: CaseSpec) -> WeylTriple:
    """A verified pair [P, Q] = 1 together with commuting 'central' data,
    for the cases that carry one."""
    cls = case.classification
    ell = case.field.char
    if cls == "char0-rational":
        pres = algebra_make(case)
        frac: Fraction = case.field.prime_subfield_value(case.alpha.rep)
        p, q = frac.numerator, frac.denominator
        u = pow(p % q, -1, q) if q > 1 else 0
        v = (1 - p * u) // q
        yprime = pres.ctx.monomial(v, u)
        lam = case.field.coerce(Fraction(v)) + case.alpha * case.field.from_int(u)
        P = SkewPoly(pres.D, {1: yprime.inverse() * lam.inverse()})
        Q = pres.embed(yprime)
        centrals = [(f"y^{p}*z^{-q}", pres.coeff_monomial(p, -q))]
        triple = WeylTriple(case, P, Q, centrals, "rational-reparametrization")
    elif cls == "charl-prime-subfield":
        pres = algebra_make(case)
        a = case.field.prime_subfield_value(case.alpha.rep)
        P = pres.x * pres.ctx.monomial(-1, 0)
        Q = pres.y
        centrals = [
            (f"x^{ell}-x", pres.x ** ell - pres.x),
            (f"y^{ell}", pres.coeff_monomial(ell, 0)),
            (f"y^-{a}*z", pres.coeff_monomial(-a, 1)),
        ]
        triple = WeylTriple(case, P, Q, centrals, "prime-subfield")
    elif cls == "charl-generic":
        pres = algebra_make(case)
        gamma = case.alpha ** ell - case.alpha
        tprime = (pres.x ** ell - pres.x) * pres.ctx.monomial(0, -1, gamma.inverse())
        P, Q = tprime, pres.z
        centrals = [
            (f"y^{ell}", pres.coeff_monomial(ell, 0)),
            (f"z^{ell}", pres.coeff_monomial(0, ell)),
            ("c", central_element_c(ell, case.alpha)),
        ]
        triple = WeylTriple(case, P, Q, centrals, "centralizer-factor")
    elif cls == "q-charl":
        pres = algebra_make(case, coords="yt")
        P = pres.z                     # the variable t in (y, t) coordinates
        Q = pres.x ** ell - pres.x
        centrals = [
            (f"y^{ell}", pres.coeff_monomial(ell, 0)),
            (f"t^{ell}", pres.coeff_monomial(0, ell)),
            (f"(x^{ell}-x)^{ell}", Q ** ell),
        ]
        triple = WeylTriple(case, P, Q, centrals, "centralizer-factor")
    else:
        raise UnsupportedCaseError(f"no Weyl pair exists for case {cls}")
    check_weyl(triple)
    return triple


# ---------------------------------------------------------------------------
# morphisms between presentations

@dataclass
class Morphism:
    """An algebra morphism into a 'g'-presentation, recorded by the images
    of the source generators; the source bracket relations are verified at
    construction."""

    target: Presentation
    beta: FieldElem
    x_img: SkewPoly
    y_img: SkewPoly
    z_img: SkewPoly
    tag: str
    matrix: Mat2Z | None = None
    invertible: bool | None = None

    def __post_init__(self):
        self.verify_relations()

    def verify_relations(self):
        ell = self.target.case.field.char
        if self.y_img.degree() != 0 or self.z_img.degree() != 0:
            raise ArithmeticError("y and z images must have zero x-degree")
        allowed = {1} if self.tag == "monomial" else {1, ell}
        if self.x_img.degree() not in allowed:
            raise ArithmeticError("x image has a wrong x-degree")
        if commutator(self.y_img, self.z_img) != SkewPoly.zero(self.target.D):
            raise ArithmeticError("morphism breaks [y', z'] = 0")
        if commutator(self.x_img, self.y_img) != self.y_img:
            raise ArithmeticError("morphism breaks [x', y'] = y'")
        if commutator(self.x_img, self.z_img) != self.z_img * self.beta:
            raise ArithmeticError("morphism breaks [x', z'] = beta z'")
        return True

    def apply(self, f: SkewPoly) -> SkewPoly:
        """Push a skew polynomial through the morphism.  Supported when
        the coefficient images are monomials (tag 'monomial')."""
        if self.tag != "monomial":
            raise UnsupportedCaseError("apply() needs monomial coefficient images")
        M = self.matrix
        out = SkewPoly.zero(self.target.D)
        for i, c in f.coeffs.items():
            mapped = c.to_context(self.target.ctx).subst_powers((M.r, M.m), (M.q, M.n))
            out = out + SkewPoly.from_coeff(self.target.D, mapped) * self.x_img ** i
        return out

    def compose(self, inner: "Morphism") -> "Morphism":
        """self o inner: apply inner first.  For monomial morphisms the
        composite is the monomial morphism of the matrix product
        inner.matrix * self.matrix."""
        if self.tag != "monomial" or inner.tag != "monomial":
            raise UnsupportedCaseError("composition is supported for monomial morphisms")
        return Morphism(
            target=self.target,
            beta=inner.beta,
            x_img=self.apply(inner.x_img),
            y_img=self.apply(inner.y_img),
            z_img=self.apply(inner.z_img),
            tag="monomial",
            matrix=inner.matrix * self.matrix,
            invertible=(self.invertible and inner.invertible),
        )


def monomial_morphism(M: Mat2Z, alpha: FieldElem) -> Morphism:
    """The embedding of the beta-presentation into the alpha-presentation,
    beta = (n*alpha + q)/(m*alpha + r), sending x' to (m*alpha+r)^{-1} x and
    the commuting generators to the monomials given by the matrix rows.
    Flagged invertible exactly when det M = +-1."""
    k = alpha.field
    if k.from_int(M.det).is_zero():
        raise ValueError(f"det M = {M.det} vanishes in {k}")
    denom = alpha * k.from_int(M.m) + k.from_int(M.r)
    if denom.is_zero():
        raise ZeroDivisionError("m*alpha + r = 0")
    beta = homographic(M, alpha)
    pres = algebra_make(CaseSpec("g", k, alpha))
    return Morphism(
        target=pres,
        beta=beta,
        x_img=SkewPoly(pres.D, {1: pres.ctx.const(denom.inverse())}),
        y_img=pres.coeff_monomial(M.r, M.m),
        z_img=pres.coeff_monomial(M.q, M.n),
        tag="monomial",
        matrix=M,
        invertible=M.unimodular,
    )


def frobenius_embedding(alpha: FieldElem, beta: FieldElem, ell: int) -> Morphism:
    """The embedding of the beta-presentation into the alpha-presentation
    in characteristic l that sends x' to a combination of x^l and x and
    fixes y, z; its image has codimension l."""
    k = alpha.field
    if k.char != ell:
        raise FieldError(f"alpha must live in characteristic {ell}")
    if fields.in_prime_subfield(alpha):
        raise UnsupportedCaseError("alpha in the prime subfield makes x^l - x central")
    beta = k.coerce(beta)
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    denom = alpha ** ell - alpha
    A = (beta - alpha) / denom
    B = (alpha ** ell - beta) / denom
    pres = algebra_make(CaseSpec("g", k, alpha))
    coeffs = {}
    if not A.is_zero():
        coeffs[ell] = pres.ctx.const(A)
    if not B.is_zero():
        coeffs[1] = pres.ctx.const(B)
    return Morphism(
        target=pres,
        beta=beta,
        x_img=SkewPoly(pres.D, coeffs),
        y_img=pres.y,
        z_img=pres.z,
        tag="frobenius-power",
    )


# ---------------------------------------------------------------------------
# mutual centralizers

@dataclass
class CentralizerReport:
    case: CaseSpec
    cross_commutators: list   # (label_L, label_Lp, vanishes)
    witnesses: list           # (label, nonzero)
    ok: bool


def centralizer_pair_check(case: CaseSpec) -> CentralizerReport:
    """All nine cross-commutators between the two centralizing factors
    vanish, while each factor keeps one genuinely non-commuting pair."""
    cls = case.classification
    ell = case.field.char
    if cls == "charl-generic":
        pres = algebra_make(case)
        alpha = case.alpha
        xlx = pres.x ** ell - pres.x
        xlax = pres.x ** ell - pres.x * const_coeff(pres, alpha ** (ell - 1))
        L = [("z", pres.z), (f"y^{ell}", pres.coeff_monomial(ell, 0)), (f"x^{ell}-x", xlx)]
        Lp = [("y", pres.y), (f"z^{ell}", pres.coeff_monomial(0, ell)),
              (f"x^{ell}-a^{ell - 1}*x", xlax)]
        w1 = commutator(xlx, pres.z) - pres.z * (alpha ** ell - alpha)
        w2 = commutator(xlax, pres.y) - pres.y * (1 - alpha ** (ell - 1))
        witnesses = [
            (f"[x^{ell}-x, z] = (a^{ell}-a) z != 0",
             w1.is_zero() and not (alpha ** ell - alpha).is_zero()),
            (f"[x^{ell}-a^{ell - 1}x, y] = (1-a^{ell - 1}) y != 0",
             w2.is_zero() and not (1 - alpha ** (ell - 1)).is_zero()),
        ]
    elif cls == "q-charl":
        pres = algebra_make(case, coords="yt")
        t = pres.z
        xlx = pres.x ** ell - pres.x
        xl = pres.x ** ell
        L = [("t", t), (f"y^{ell}", pres.coeff_monomial(ell, 0)), (f"x^{ell}-x", xlx)]
        Lp = [("y", pres.y), (f"t^{ell}", pres.coeff_monomial(0, ell)), (f"x^{ell}", xl)]
        witnesses = [
            (f"[x^{ell}-x, t] = -1 != 0",
             commutator(xlx, t) == -SkewPoly.one(pres.D)),
            (f"[x^{ell}, y] = y != 0", commutator(xl, pres.y) == pres.y),
        ]
    else:
        raise UnsupportedCaseError(f"no centralizer pair for case {cls}")
    cross = []
    for la, a in L:
        for lb, b in Lp:
            cross.append((la, lb, commutator(a, b).is_zero()))
    ok = all(v for _, _, v in cross) and all(v for _, v in witnesses)
    return CentralizerReport(case, cross, witnesses, ok)


# ---------------------------------------------------------------------------
# classification table

@dataclass
class GKVerdict:
    case: CaseSpec
    weyl_equivalent: bool
    center_description: str
    dimension_over_center: str | None
    weyl: WeylTriple | None
    center: CenterReport = dc_field(repr=False, default=None)


def gk_classify(case: CaseSpec) -> GKVerdict:
    """Whether the skewfield of the case admits a Weyl presentation, with
    the verified Weyl pair attached where it does.  The dimension claims
    over the center are recorded metadata, not recomputed."""
    cls = case.classification
    ell = case.field.char
    center = claimed_center(case)
    if not center.all_central:
        raise ArithmeticError("claimed center failed its commutator checks")
    table = {
        "char0-rational": (True, "k(y^p z^-q)", None),
        "char0-irrational": (False, "k", None),
        "charl-prime-subfield": (True, f"k(x^{ell}-x, y^{ell}, y^-a z)", f"{ell}^2"),
        "charl-generic": (False, f"k(y^{ell}, z^{ell}, c)", f"{ell}^4"),
        "q-char0": (False, "k", None),
        "q-charl": (False, f"k(y^{ell}, z^{ell}, (x^{ell}-x)^{ell})", f"{ell}^4"),
    }
    gk, desc, dim = table[cls]
    triple = weyl_triple(case) if gk else None
    return GKVerdict(case, gk, desc, dim, triple, center)
