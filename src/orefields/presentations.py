"""Presentations of the two skewfield families and their verified
structure: claimed central elements, Weyl-generator triples, the explicit
embeddings between presentations, mutual-centralizer checks, and the
Weyl-skewfield classification table.

Every constructed object verifies its defining bracket relations with
exact skew arithmetic; nothing here is trusted without a computation.
Every verifier has one contract: it returns the object it verified, or
raises ArithmeticError naming the first identity that failed.  The
command line runs each verifier inside its check, so that message is the
check's witness.
Inside `verification_run()` a presentation, claimed center or central
element c is built and verified once, at its first construction, and the
verified object is reused for the rest of the run; outside a run every
call builds and verifies afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from . import fields
from .fields import Field, FieldElem, FieldError, ValueRecord
from .orbits import Mat2Z, homographic
from .ratfunc import Derivation, FunctionField2, RatFunc2, scaling_derivation
from .skewpoly import SkewPoly, commutator, is_central_against, subst_x_shift


class UnsupportedCaseError(ValueError):
    """The requested construction does not exist for this case; the CLI
    records it as an out-of-scope check whose claim is the message."""


# verified objects of the current verification run, by construction and
# arguments; None outside a run
_run_store: dict | None = None


@contextmanager
def verification_run():
    """Scope in which `algebra_make`, `claimed_center` and
    `central_element_c` build and verify each distinct argument tuple once
    and return the same verified object on later calls.  The store is
    dropped on exit, also on an exception, so nothing outlives the run."""
    global _run_store
    outer, _run_store = _run_store, {}
    try:
        yield
    finally:
        _run_store = outer


def _once_per_run(key, build):
    """build() outside a run; inside one, build() at the first call with
    this key and its stored result after.  A build that raises stores
    nothing, so the next call raises again."""
    if _run_store is None:
        return build()
    if key not in _run_store:
        _run_store[key] = build()
    return _run_store[key]


class CaseSpec(ValueRecord):
    """One algebra case: the scaling family ('g', with parameter alpha) or
    the unipotent family ('q').  Immutable, equal and hashed by value, so
    equal cases share the objects of a verification run."""

    __slots__ = ("algebra", "field", "alpha")

    def __init__(self, algebra: str, field: Field, alpha: FieldElem | None = None):
        if algebra not in ("g", "q"):
            raise ValueError("algebra must be 'g' or 'q'")
        if algebra == "g":
            if alpha is None or alpha.field != field:
                raise ValueError("the 'g' family needs alpha in the coefficient field")
            if alpha.is_zero():
                raise ValueError("alpha must be nonzero")
        elif alpha is not None:
            raise ValueError("the 'q' algebra takes no parameter")
        init = object.__setattr__
        init(self, "algebra", algebra)
        init(self, "field", field)
        init(self, "alpha", alpha)

    def _fields(self):
        return (self.algebra, self.field, self.alpha)

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
    derivation; bracket relations are verified at construction, which
    `algebra_make` does once per verification run."""

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
    return _once_per_run(("presentation", case, coords), lambda: Presentation(case, coords))


# ---------------------------------------------------------------------------
# centers

class CenterReport:
    __slots__ = ("case", "generators")

    def __init__(self, case: CaseSpec, generators: list):
        self.case = case
        self.generators = generators  # (label, SkewPoly) pairs


def claimed_center(case: CaseSpec) -> CenterReport:
    """The generating set of the center for the given case, with every
    generator checked to commute with x, y and z; ArithmeticError names
    the first one that does not.  Maximality of the center is recorded,
    not recomputed."""
    return _once_per_run(("center", case), lambda: _claimed_center(case))


def _claimed_center(case: CaseSpec) -> CenterReport:
    pres = algebra_make(case)
    ell = case.field.char
    gens: list = []
    cls = case.classification
    if cls == "char0-rational":
        frac: Fraction | int = case.field.prime_subfield_value(case.alpha.rep)
        p, q = frac.numerator, frac.denominator
        gens.append((f"y^{p}*z^{-q}", pres.coeff_monomial(p, -q)))
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
    # char0-irrational and q-char0: the center reduces to the constants
    for label, g in gens:
        if not is_central_against(g, pres.gens):
            raise ArithmeticError(f"center generator {label} fails to commute with x, y, z")
    return CenterReport(case, gens)


def central_element_c(ell: int, alpha: FieldElem) -> SkewPoly:
    """The degree-l^2 central element c = x^(l^2) + lambda*x^l + mu*x with
    mu = (alpha^l - alpha)^(l-1) and lambda = -mu - 1; also certifies the
    product form (x^l - x)^l - mu*(x^l - x) and centrality against
    {x, y, z}."""
    # the field is part of the key: alpha compares equal to its lift into
    # a larger field
    return _once_per_run(("c", ell, alpha.field, alpha), lambda: _central_element_c(ell, alpha))


def _central_element_c(ell: int, alpha: FieldElem) -> SkewPoly:
    k = alpha.field
    if k.char != ell:
        raise FieldError(f"alpha must live in characteristic {ell}")
    if fields.in_prime_subfield(alpha):
        raise UnsupportedCaseError("alpha in the prime subfield degenerates mu")
    case = CaseSpec("g", k, alpha)
    pres = algebra_make(case)
    # mu = (alpha^l - alpha)^(l-1) = (alpha^(l^2) - alpha^l) / (alpha^l - alpha),
    # as the l-th power is additive
    al = fields.frobenius(alpha)
    mu = (fields.frobenius(al) - al) / (al - alpha)
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
    t = x ** ell - x * const_coeff(pres, fields.frobenius(gamma) / gamma)
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

class WeylTriple:
    __slots__ = ("case", "P", "Q", "centrals", "recipe")

    def __init__(self, case: CaseSpec, P: SkewPoly, Q: SkewPoly, centrals: list, recipe: str):
        self.case = case
        self.P = P
        self.Q = Q
        self.centrals = centrals      # (label, SkewPoly) pairs
        self.recipe = recipe


def check_weyl(triple: WeylTriple) -> WeylTriple:
    """Recompute [P, Q] = 1 and the commutators of P and Q with each listed
    central element; the triple, or ArithmeticError naming the first
    failure."""
    P, Q = triple.P, triple.Q
    if commutator(P, Q) != SkewPoly.one(P.derivation):
        raise ArithmeticError("[P, Q] != 1")
    for label, c in triple.centrals:
        if not commutator(P, c).is_zero() or not commutator(Q, c).is_zero():
            raise ArithmeticError(f"{label} is not annihilated by the pair")
    return triple


def weyl_triple(case: CaseSpec) -> WeylTriple:
    """A verified pair [P, Q] = 1 together with commuting 'central' data,
    for the cases that carry one."""
    cls = case.classification
    ell = case.field.char
    if cls == "char0-rational":
        pres = algebra_make(case)
        frac: Fraction | int = case.field.prime_subfield_value(case.alpha.rep)
        p, q = frac.numerator, frac.denominator
        u = pow(p % q, -1, q) if q > 1 else 0
        v = (1 - p * u) // q
        yprime = pres.ctx.monomial(v, u)
        lam = case.field.coerce(Fraction(v)) + case.alpha * case.field.from_int(u)
        P = SkewPoly(pres.D, {1: yprime.inverse() * lam.inverse()})
        Q = pres.embed(yprime)
        recipe = "rational-reparametrization"
    elif cls == "charl-prime-subfield":
        pres = algebra_make(case)
        P = pres.x * pres.ctx.monomial(-1, 0)
        Q = pres.y
        recipe = "prime-subfield"
    elif cls == "charl-generic":
        pres = algebra_make(case)
        gamma = fields.frobenius(case.alpha) - case.alpha
        tprime = (pres.x ** ell - pres.x) * pres.ctx.monomial(0, -1, gamma.inverse())
        P, Q = tprime, pres.z
        recipe = "centralizer-factor"
    elif cls == "q-charl":
        pres = algebra_make(case, coords="yt")
        P = pres.z                     # the variable t in (y, t) coordinates
        Q = pres.x ** ell - pres.x
        centrals = [
            (f"y^{ell}", pres.coeff_monomial(ell, 0)),
            (f"t^{ell}", pres.coeff_monomial(0, ell)),
            (f"(x^{ell}-x)^{ell}", Q ** ell),
        ]
        recipe = "centralizer-factor"
    else:
        raise UnsupportedCaseError(f"no Weyl pair exists for case {cls}")
    if cls != "q-charl":    # the central data are the claimed center's generators
        centrals = list(claimed_center(case).generators)
    return check_weyl(WeylTriple(case, P, Q, centrals, recipe))


# ---------------------------------------------------------------------------
# morphisms between presentations

class Morphism:
    """An algebra morphism into a 'g'-presentation, recorded by the images
    of the source generators; the source bracket relations are verified at
    construction."""

    __slots__ = ("target", "beta", "x_img", "y_img", "z_img", "tag", "matrix", "invertible")

    def __init__(self, target: Presentation, beta: FieldElem, x_img: SkewPoly,
                 y_img: SkewPoly, z_img: SkewPoly, tag: str, matrix: Mat2Z | None = None,
                 invertible: bool | None = None):
        self.target = target
        self.beta = beta
        self.x_img = x_img
        self.y_img = y_img
        self.z_img = z_img
        self.tag = tag
        self.matrix = matrix
        self.invertible = invertible
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
        return self

    def apply(self, f: SkewPoly) -> SkewPoly:
        """Push a skew polynomial through the morphism.  Supported when
        the coefficient images are monomials (tag 'monomial').  The image
        of sum f_i x^i is sum subst(f_i) x'^i, formed on coefficient dicts:
        each subst(f_i) times each coefficient of x'^i joins the terms of
        its x-degree, and each degree is summed once by `weighted_sum`.
        Where x' = c x with c a constant (every monomial morphism and
        composite of them), x'^i is c^i x^i: c^i is taken in k and is the
        weight of subst(f_i), with no product formed."""
        if self.tag != "monomial":
            raise UnsupportedCaseError("apply() needs monomial coefficient images")
        M = self.matrix
        D = self.target.D
        K = D.ctx.field
        c = self.x_img.coeffs.get(1)
        scaled = self.x_img.coeffs.keys() == {1} and c.is_constant()
        pending = {}
        for i, fi in f.coeffs.items():
            mapped = fi.to_context(D.ctx).subst_powers((M.r, M.m), (M.q, M.n))
            if scaled:
                terms = [(i, mapped, K._pow(c.num[(0, 0)], i))]
            else:
                terms = [(j, mapped * p, None) for j, p in (self.x_img ** i).coeffs.items()]
            for j, g, w in terms:
                pending.setdefault(j, []).append((g, w))
        return SkewPoly(D, {j: RatFunc2.weighted_sum(terms) for j, terms in pending.items()})

    def compose(self, inner: "Morphism") -> "Morphism":
        """self o inner: apply inner first.  For monomial morphisms the
        composite is the monomial morphism of the matrix product
        inner.matrix * self.matrix, which is built (and its brackets
        verified) once; the images of inner's generators under self must
        equal its images, or an ArithmeticError names the first that
        differs.  That direct morphism is returned."""
        if self.tag != "monomial" or inner.tag != "monomial":
            raise UnsupportedCaseError("composition is supported for monomial morphisms")
        direct = monomial_morphism(inner.matrix * self.matrix, self.target.case.alpha)
        if direct.beta != inner.beta:
            raise ArithmeticError("composite beta differs from the direct morphism's")
        for name in ("x_img", "y_img", "z_img"):
            if self.apply(getattr(inner, name)) != getattr(direct, name):
                raise ArithmeticError(f"composite {name[0]} image differs from the direct morphism's")
        return direct


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
        raise UnsupportedCaseError("no x^l-combination embedding exists for a parameter "
                                   "in the prime subfield")
    beta = k.coerce(beta)
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    al = fields.frobenius(alpha)
    denom = al - alpha
    A = (beta - alpha) / denom
    B = (al - beta) / denom
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

def centralizer_pair_check(case: CaseSpec) -> tuple:
    """The two centralizing factors, as lists of (label, SkewPoly)
    generators: all nine cross-commutators between them vanish, while
    each factor keeps one genuinely non-commuting pair.  ArithmeticError
    names the first cross-commutator or inner witness that fails."""
    cls = case.classification
    ell = case.field.char
    if cls == "charl-generic":
        pres = algebra_make(case)
        alpha = case.alpha
        al = fields.frobenius(alpha)
        al1 = al / alpha                # alpha^(l-1)
        xlx = pres.x ** ell - pres.x
        xlax = pres.x ** ell - pres.x * const_coeff(pres, al1)
        L = [("z", pres.z), (f"y^{ell}", pres.coeff_monomial(ell, 0)), (f"x^{ell}-x", xlx)]
        Lp = [("y", pres.y), (f"z^{ell}", pres.coeff_monomial(0, ell)),
              (f"x^{ell}-a^{ell - 1}*x", xlax)]
        w1 = commutator(xlx, pres.z) - pres.z * (al - alpha)
        w2 = commutator(xlax, pres.y) - pres.y * (1 - al1)
        witnesses = [
            (f"[x^{ell}-x, z] = (a^{ell}-a) z != 0",
             w1.is_zero() and not (al - alpha).is_zero()),
            (f"[x^{ell}-a^{ell - 1}x, y] = (1-a^{ell - 1}) y != 0",
             w2.is_zero() and not (1 - al1).is_zero()),
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
    for la, a in L:
        for lb, b in Lp:
            if not commutator(a, b).is_zero():
                raise ArithmeticError(f"[{la}, {lb}] != 0")
    for label, holds in witnesses:
        if not holds:
            raise ArithmeticError(f"inner witness fails: {label}")
    return L, Lp


# ---------------------------------------------------------------------------
# classification table

class GKVerdict:
    __slots__ = ("weyl_equivalent", "center_description", "dimension_over_center", "weyl")

    def __init__(self, weyl_equivalent: bool, center_description: str,
                 dimension_over_center: str | None, weyl: WeylTriple | None):
        self.weyl_equivalent = weyl_equivalent
        self.center_description = center_description
        self.dimension_over_center = dimension_over_center
        self.weyl = weyl


def gk_classify(case: CaseSpec) -> GKVerdict:
    """Whether the skewfield of the case admits a Weyl presentation, with
    the verified Weyl pair attached where it does.  The claimed center is
    verified first; the dimension claims over the center are recorded
    metadata, not recomputed."""
    cls = case.classification
    ell = case.field.char
    claimed_center(case)
    table = {
        "char0-rational": (True, "k(y^p z^-q)", None),
        "char0-irrational": (False, "k", None),
        "charl-prime-subfield": (True, f"k(x^{ell}-x, y^{ell}, y^-a z)", f"{ell}^2"),
        "charl-generic": (False, f"k(y^{ell}, z^{ell}, c)", f"{ell}^4"),
        "q-char0": (False, "k", None),
        "q-charl": (False, f"k(y^{ell}, z^{ell}, (x^{ell}-x)^{ell})", f"{ell}^4"),
    }
    gk, desc, dim = table[cls]
    return GKVerdict(gk, desc, dim, weyl_triple(case) if gk else None)
