"""Seeded random generators for field elements, rational functions and
skew polynomials, shared across the test modules, slow reference copies
of kernel routines that the fast ones must agree with, and a counter of
the calls of kernel functions."""

import collections
import contextlib
import itertools
import math
import sys
from fractions import Fraction

from orefields import fields
from orefields.fields import (
    GF, QQ, ExtensionField, Field, FieldElem, ParameterField, PrimeField, QuadraticField,
    Qsqrt, RationalField, _UPoly, _frac_monic, _uadd, _udivmod, _ugcd, _umul,
    _utrim, in_prime_subfield, with_parameter,
)
from orefields.orbits import ContFrac, FiniteOrbitReport, Mat2Z, OrbitData
from orefields.pdo import PdoSeries
from orefields.ratfunc import (
    FunctionField2, RatFunc2, _PPoly, _is_one, _padd, _pdivexact, _pgcd, _pmul, _pneg, _ppartial,
)
from orefields.skewpoly import SkewPoly


# ---------------------------------------------------------------------------
# call counting by identity: a function is found wherever orefields binds
# it, so an import under another module's name or a class attribute that
# aliases it is counted with no list of its names

METHODS = (staticmethod, classmethod)


def _bindings(fn):
    """(owner, name, value) for each binding of fn: a global of a module of
    orefields, or an attribute, plain, static or class method, of a class
    defined in one.  A bound class method stands for its function."""
    fn = getattr(fn, "__func__", fn)
    modules = {name: m for name, m in list(sys.modules.items())
               if name == "orefields" or name.startswith("orefields.")}
    owners = {id(m): m for m in modules.values()}
    for m in modules.values():
        owners.update((id(v), v) for v in vars(m).values()
                      if isinstance(v, type) and v.__module__ in modules)
    return [(owner, name, value) for owner in owners.values()
            for name, value in vars(owner).items()
            if value is fn or isinstance(value, METHODS) and value.__func__ is fn]


@contextlib.contextmanager
def rebound(fn, wrap):
    """wrap in place of fn at every binding of fn inside the block (a static
    or class method stays one); every binding is restored on exit.  A
    function bound nowhere is a LookupError, so a renamed kernel function
    fails its count instead of reading 0."""
    found = _bindings(fn)
    if not found:
        raise LookupError(f"{fn!r} is bound in no module or class of orefields")
    for owner, name, value in found:
        setattr(owner, name, type(value)(wrap) if isinstance(value, METHODS) else wrap)
    try:
        yield
    finally:
        for owner, name, value in found:
            setattr(owner, name, value)


@contextlib.contextmanager
def counting(**functions):
    """A Counter of the calls of each function inside the block, by its
    keyword, through every binding (`rebound`)."""
    calls = collections.Counter()

    def counter(key, fn):
        fn = getattr(fn, "__func__", fn)

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted
    with contextlib.ExitStack() as stack:
        for key, fn in functions.items():
            stack.enter_context(rebound(fn, counter(key, fn)))
        yield calls


def rand_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_elem(rng, field):
    if isinstance(field, RationalField):
        return field.coerce(rand_fraction(rng))
    if isinstance(field, PrimeField):
        return field.from_int(rng.randrange(field.char))
    if isinstance(field, ExtensionField):
        return field.element(tuple(rng.randrange(field.char)
                                   for _ in range(field.degree)))
    if isinstance(field, QuadraticField):
        return field.element((rand_fraction(rng), rand_fraction(rng)))
    if isinstance(field, ParameterField):
        a = field.gen()
        num = field.zero()
        for i in range(rng.randint(1, 3)):
            num = num + a ** i * rand_base_int(rng, field)
        den = field.one()
        if rng.random() < 0.4:
            den = a + rand_nonzero_base_int(rng, field)
        return num / den
    raise TypeError(f"no generator for {field}")


def rand_param_elem(rng, field):
    """A random element of the parameter field K(a) whose coefficients are
    drawn from all of K (rand_elem's K(a) branch draws them from the prime
    field only), so that w turns up over GF(3^2) and sqrt(2) over QQ(sqrt 2)."""
    a = field.gen()
    num = field.zero()
    for i in range(rng.randint(1, 3)):
        num = num + a ** i * field.coerce(rand_elem(rng, field.base))
    den = field.one()
    if rng.random() < 0.4:
        den = a + field.coerce(rand_nonzero(rng, field.base))
    return num / den


def rand_base_int(rng, field):
    if field.char:
        return field.from_int(rng.randrange(field.char))
    return field.coerce(rand_fraction(rng, 4))


def rand_nonzero_base_int(rng, field):
    while True:
        c = rand_base_int(rng, field)
        if not c.is_zero():
            return c


def rand_nonzero(rng, field):
    while True:
        e = rand_elem(rng, field)
        if not e.is_zero():
            return e


def rand_poly2(rng, ctx, maxdeg=2, terms=3):
    out = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        i, j = rng.randint(0, maxdeg), rng.randint(0, maxdeg)
        out = out + ctx.monomial(i, j, rand_nonzero(rng, ctx.field))
    return out


def rand_ratfunc(rng, ctx, maxdeg=2):
    num = rand_poly2(rng, ctx, maxdeg)
    while num.is_zero():
        num = rand_poly2(rng, ctx, maxdeg)
    if rng.random() < 0.5:
        return num
    den = ctx.one() + ctx.monomial(rng.randint(0, 1), rng.randint(0, 1),
                                   rand_nonzero(rng, ctx.field))
    if den.is_zero():
        den = ctx.one()
    return num / den


def rand_laurent_monomial(rng, ctx, span=2):
    return ctx.monomial(rng.randint(-span, span), rng.randint(-span, span),
                        rand_nonzero(rng, ctx.field))


def rand_skew(rng, D, maxdeg=2):
    ctx = D.ctx
    coeffs = {}
    for i in range(maxdeg + 1):
        if rng.random() < 0.7:
            coeffs[i] = rand_laurent_monomial(rng, ctx)
    if not coeffs:
        coeffs[0] = ctx.one()
    return SkewPoly(D, coeffs)


def fmt_ctx(field, names=("y", "z")):
    return FunctionField2(field, names)


# ---------------------------------------------------------------------------
# reference series arithmetic: the term-by-term product with one branch per
# sign of the u-exponent, and the inverse that forms one full product per
# new coefficient.  Slow and independent of the product dispatcher
# orefields.skewpoly._skew_product, its closed forms and its Ore product
# loop `_terms`, which the series run through x = u^-1 and which must agree
# with them exactly.

REF_FIELDS = ["QQ", "GF7", "GF3(a)", "QQ(sqrt2)"]


def ref_field(name):
    """The coefficient field and the alpha of g_alpha for each name of
    REF_FIELDS and for GF9(a), on which the series and the closed forms are
    checked against the references."""
    if name == "QQ":
        return QQ(), 2
    if name == "GF7":
        return GF(7), 3
    if name in ("GF3(a)", "GF9(a)"):
        K = with_parameter(GF(3) if name == "GF3(a)" else GF(3, 2))
        return K, K.gen()
    K = Qsqrt(2)
    return K, K.gen()


def ref_push_coefficient(m, j):
    """c(m, j) = (-1)^j C(-m, j), the integer in u^m a = sum_j c(m, j)
    delta^j(a) u^{m+j}: C(m-1+j, j) for m > 0, (-1)^j C(k, j) for m = -k,
    and [j = 0] for m = 0."""
    if m > 0:
        return math.comb(m - 1 + j, j)
    return -math.comb(-m, j) if j % 2 else math.comb(-m, j)


def ref_pdo_mul(a, b):
    D = a.derivation
    field = a.ctx.field
    bounds = [a.prec + b.prec + 1]
    if b.terms:
        bounds.append(a.prec + min(b.terms))
    if a.terms:
        bounds.append(b.prec + min(a.terms))
    N = min(bounds)
    out = {}

    def accum(n, c):
        if c.is_zero():
            return
        prev = out.get(n)
        s = c if prev is None else prev + c
        if s.is_zero():
            out.pop(n, None)
        else:
            out[n] = s

    for m, am in a.terms.items():
        for n, bn in b.terms.items():
            base = m + n
            if base > N:
                continue
            if m == 0:
                accum(base, am * bn)
            elif m > 0:
                d = bn
                for j in range(N - base + 1):
                    if j > 0:
                        d = D(d)
                    if d.is_zero():
                        break
                    accum(base + j, am * d * field.from_int(math.comb(m - 1 + j, j)))
            else:
                k = -m
                d = bn
                for j in range(k + 1):
                    if j > 0:
                        d = D(d)
                    if base + j > N:
                        break
                    if d.is_zero():
                        break
                    sign = -1 if j % 2 else 1
                    accum(base + j, am * d * field.from_int(sign * math.comb(k, j)))
    return PdoSeries(D, out, N)


def ref_pdo_inv(a, prec=None):
    if not a.terms:
        raise ZeroDivisionError("inverse of a series that is zero through its precision")
    va = min(a.terms)
    target = a.prec - 2 * va if prec is None else prec
    if target < -va:
        raise ValueError("insufficient precision to express the inverse")
    D = a.derivation
    lead_inv = a.terms[va].inverse()
    terms = {-va: lead_inv}
    for e in range(-va + 1, target + 1):
        partial = PdoSeries(D, terms, e)
        prod = ref_pdo_mul(a, partial).coefficient(e + va)
        want = a.ctx.one() if e + va == 0 else a.ctx.zero()
        delta = want - prod
        if not delta.is_zero():
            terms[e] = lead_inv * delta
    return PdoSeries(D, terms, target)


# ---------------------------------------------------------------------------
# the cancel step of reduced fractions by the kernel's gcd whatever the
# degrees (Euclid in K[a]), and the paths of monomial morphisms as they
# were before they ran no gcd where nothing can cancel: the exponent
# substitution normalized by a gcd, the homography by field operations
# with Euclid in every K(a) product and sum, the derivation set-up by the
# lcm of the image denominators, and the morphism image as a running sum
# of skew products.

def ref_frac_cancel(P, K, a, b):
    """a and b divided by their gcd, for nonzero a and b, by the kernel's
    gcd unless an operand is a constant."""
    if P.is_const(a) or P.is_const(b):
        return a, b
    g = P.gcd(K, a, b)
    if P.is_one(g):
        return a, b
    return P.quo(K, a, g), P.quo(K, b, g)


@contextlib.contextmanager
def euclid_cancel():
    """Every cancel step of K(a) products and sums (`fields._frac_add`,
    `fields._frac_mul`) by `ref_frac_cancel` inside the block."""
    fast, fields._frac_cancel = fields._frac_cancel, ref_frac_cancel
    try:
        yield
    finally:
        fields._frac_cancel = fast


def ref_subst_powers(f, e1, e2):
    """v1 -> v1^a1 v2^b1, v2 -> v1^a2 v2^b2 on numerator and denominator,
    both shifted onto exponents >= 0, with colliding terms added, and the
    quotient normalized by a gcd."""
    (a1, b1), (a2, b2) = e1, e2
    K = f.ctx.field

    def mapped(p):
        return [((a1 * i + a2 * j, b1 * i + b2 * j), c) for (i, j), c in p.items()]

    mn, md = mapped(f.num), mapped(f.den)
    si = -min(0, min(i for (i, _), _ in mn + md))
    sj = -min(0, min(j for (_, j), _ in mn + md))

    def collect(terms):
        out = {}
        for (i, j), c in terms:
            ij = (i + si, j + sj)
            out[ij] = K._add(out[ij], c) if ij in out else c
        return {ij: c for ij, c in out.items() if not K._is_zero(c)}

    return RatFunc2(f.ctx, collect(mn), collect(md))


def ref_homographic(M, alpha):
    """(n alpha + q) / (m alpha + r) by field operations, each K(a)
    product and sum cancelled by Euclid."""
    k = alpha.field
    with euclid_cancel():
        den = alpha * k.from_int(M.m) + k.from_int(M.r)
        if den.is_zero():
            raise ZeroDivisionError("homographic denominator vanishes")
        return (alpha * k.from_int(M.n) + k.from_int(M.q)) / den


def ref_derivation_weights(image_of_y, image_of_z):
    """(E, E*D(v1), E*D(v2)) with E the lcm of the image denominators, by
    a gcd and exact divisions whatever the denominators."""
    K = image_of_y.ctx.field
    ey, ez = image_of_y.den, image_of_z.den
    e = _pmul(K, ey, _pdivexact(K, ez, _pgcd(K, ey, ez)))
    return (e, _pmul(K, image_of_y.num, _pdivexact(K, e, ey)),
            _pmul(K, image_of_z.num, _pdivexact(K, e, ez)))


def ref_morphism_apply(phi, f):
    """The image of f under a monomial morphism phi as a running sum of
    skew products subst(f_i) * x'^i."""
    M = phi.matrix
    D = phi.target.D
    out = SkewPoly.zero(D)
    for i, c in f.coeffs.items():
        mapped = ref_subst_powers(c.to_context(phi.target.ctx), (M.r, M.m), (M.q, M.n))
        out = out + SkewPoly.from_coeff(D, mapped) * phi.x_img ** i
    return out


# ---------------------------------------------------------------------------
# reference kernel bodies: the ParameterField product and sum with a gcd on
# every call and the integer embedding through a full normalization; the
# RatFunc2 product by cross-cancellation whatever its factors; the
# derivation as two partials, two products and a sum; the skew product
# that forms every (i, s) term, the scalar binomial mod l whose nonzero
# orders it enumerates, and the commutator from two full products; and
# the general polynomial product, sum and quotient rule that the Laurent
# paths bypass.  The fast paths in orefields must return the same
# canonical reps.

def ref_param_mul(F, a, b):
    K = F.base
    n1, d1 = a
    n2, d2 = b
    if not n1 or not n2:
        return F._zero_rep()
    g1 = _ugcd(K, n1, d2)
    if len(g1) > 1:
        n1 = _udivmod(K, n1, g1)[0]
        d2 = _udivmod(K, d2, g1)[0]
    g2 = _ugcd(K, n2, d1)
    if len(g2) > 1:
        n2 = _udivmod(K, n2, g2)[0]
        d1 = _udivmod(K, d1, g2)[0]
    return _frac_monic(_UPoly, K, _umul(K, n1, n2), _umul(K, d1, d2))


def ref_param_add(F, a, b):
    K = F.base
    n1, d1 = a
    n2, d2 = b
    if d1 == d2:
        num = _uadd(K, n1, n2)
        if not num:
            return F._zero_rep()
        h = _ugcd(K, num, d1)
        if len(h) > 1:
            num = _udivmod(K, num, h)[0]
            den = _udivmod(K, d1, h)[0]
        else:
            den = d1
        return _frac_monic(_UPoly, K, num, den)
    g = _ugcd(K, d1, d2)
    if len(g) > 1:
        d1p = _udivmod(K, d1, g)[0]
        d2p = _udivmod(K, d2, g)[0]
    else:
        d1p, d2p = d1, d2
    num = _uadd(K, _umul(K, n1, d2p), _umul(K, n2, d1p))
    if not num:
        return F._zero_rep()
    den = _umul(K, _umul(K, g, d1p), d2p)
    h = _ugcd(K, num, g)
    if len(h) > 1:
        num = _udivmod(K, num, h)[0]
        den = _udivmod(K, den, h)[0]
    return _frac_monic(_UPoly, K, num, den)


def ref_param_normalize(F, num, den):
    """The reduced K(a) rep of num/den: trimmed, cancelled by a gcd, and
    with a monic denominator."""
    K = F.base
    num, den = _utrim(K, num), _utrim(K, den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return F._zero_rep()
    num, den = ref_frac_cancel(_UPoly, K, num, den)
    return _frac_monic(_UPoly, K, num, den)


def ref_param_from_int(F, n):
    return ref_param_normalize(F, (F.base._from_int(n),), (F.base._one_rep(),))


def ref_ratfunc_mul(f, g):
    if f.is_zero() or g.is_zero():
        return f.ctx.zero()
    field = f.ctx.field
    n1, d2 = ref_frac_cancel(_PPoly, field, f.num, g.den)
    n2, d1 = ref_frac_cancel(_PPoly, field, g.num, f.den)
    return RatFunc2(f.ctx, *_frac_monic(_PPoly, field, _pmul(field, n1, n2), _pmul(field, d1, d2)),
                    _normalized=True)


def ref_partial(f, axis):
    """The partial derivative (D(n) d - n D(d)) / d^2 by a full
    normalization, independent of `Derivation`."""
    K = f.ctx.field
    dn, dd = _ppartial(K, f.num, axis), _ppartial(K, f.den, axis)
    num = _padd(K, ref_pmul(K, dn, f.den), _pneg(K, ref_pmul(K, f.num, dd)))
    return RatFunc2(f.ctx, num, ref_pmul(K, f.den, f.den))


def ref_derivation(D, f):
    return (ref_ratfunc_mul(ref_partial(f, 0), D.image_of_y)
            + ref_ratfunc_mul(ref_partial(f, 1), D.image_of_z))


def ref_pmul(K, p, q):
    """The product of polynomial dicts term by term, whatever their sizes."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            ij = (i1 + i2, j1 + j2)
            t = K._mul(c1, c2)
            out[ij] = K._add(out[ij], t) if ij in out else t
    return {ij: c for ij, c in out.items() if not K._is_zero(c)}


def ref_combined(f, g, negate=False):
    """f + g (f - g with negate) by the denominator gcd and a gcd of the
    numerator against it, whatever the denominators, on the coprime
    polynomials of k[v1, v2] (`as_polynomials`), with the normalizing
    constructor giving the canonical form."""
    ctx, K = f.ctx, f.ctx.field
    (n1, d1), (n2, d2) = f.as_polynomials(), g.as_polynomials()
    if d1 == d2:
        num = _padd(K, n1, _pneg(K, n2) if negate else n2)
        if not num:
            return ctx.zero()
        return RatFunc2(ctx, *ref_frac_cancel(_PPoly, K, num, d1))
    h = _pgcd(K, d1, d2)
    d1p, d2p = _pdivexact(K, d1, h), _pdivexact(K, d2, h)
    rhs = ref_pmul(K, n2, d1p)
    num = _padd(K, ref_pmul(K, n1, d2p), _pneg(K, rhs) if negate else rhs)
    if not num:
        return ctx.zero()
    den = ref_pmul(K, ref_pmul(K, h, d1p), d2p)
    c = _pgcd(K, num, h)
    return RatFunc2(ctx, _pdivexact(K, num, c), _pdivexact(K, den, c))


def ref_quotient_rule(D, f):
    """D(n/d) = (E D(n) d - n E D(d)) / (E d^2) from the partials of n and d,
    whatever D is, reduced by gcds against d and E, on the coprime
    polynomials of k[v1, v2] (`as_polynomials`) for D with polynomial
    images, with the normalizing constructor giving the canonical form."""
    ctx, K = f.ctx, f.ctx.field

    def scaled(p):
        return _padd(K, ref_pmul(K, _ppartial(K, p, 0), D._wy),
                     ref_pmul(K, _ppartial(K, p, 1), D._wz))

    n, d = f.as_polynomials()
    num = _padd(K, ref_pmul(K, scaled(n), d), _pneg(K, ref_pmul(K, n, scaled(d))))
    if not num:
        return ctx.zero()
    g1 = _pgcd(K, num, d)
    num = _pdivexact(K, num, g1)
    g2 = _pgcd(K, num, g1)
    num = _pdivexact(K, num, g2)
    den = ref_pmul(K, _pdivexact(K, d, g1), _pdivexact(K, d, g2))
    if not _is_one(D._e):
        num, e = ref_frac_cancel(_PPoly, K, num, D._e)
        den = ref_pmul(K, den, e)
    return RatFunc2(ctx, num, den)


def ref_binomial_mod(n, k, ell):
    """C(n, k) for ell = 0, else C(n, k) mod the prime ell by Lucas'
    theorem: the product of the binomials of the base-ell digits."""
    if not ell:
        return math.comb(n, k)
    out = 1
    while k:
        n, ni = divmod(n, ell)
        k, ki = divmod(k, ell)
        if ki > ni:
            return 0
        out = out * math.comb(ni, ki) % ell
    return out


def ref_skew_mul(f, g):
    D = f.derivation
    field = f.ctx.field
    out = {}
    if not f.coeffs or not g.coeffs:
        return SkewPoly(D, {})
    imax = max(f.coeffs)
    for j, gj in g.coeffs.items():
        ders = [gj]
        for _ in range(imax):
            ders.append(ref_derivation(D, ders[-1]))
        for i, fi in f.coeffs.items():
            for s in range(i + 1):
                if ders[s].is_zero():
                    continue
                c = ref_ratfunc_mul(ref_ratfunc_mul(fi, ders[s]),
                                    f.ctx.const(field.from_int(math.comb(i, s))))
                k = i - s + j
                prev = out.get(k)
                out[k] = c if prev is None else prev + c
    return SkewPoly(D, out)


def ref_commutator(f, g):
    """fg - gf from two full reference products, the order-0 terms
    included, subtracted coefficient by coefficient in RatFunc2, so that
    neither the product nor the difference under test is used; f or g may
    be a coefficient."""
    D = (f if isinstance(f, SkewPoly) else g).derivation
    f, g = (h if isinstance(h, SkewPoly) else SkewPoly.from_coeff(D, h) for h in (f, g))
    fg, gf = ref_skew_mul(f, g).coeffs, ref_skew_mul(g, f).coeffs
    zero = D.ctx.zero()
    return SkewPoly(D, {k: fg.get(k, zero) - gf.get(k, zero) for k in fg.keys() | gf.keys()})


def ref_floor(q):
    """floor((P + sqrt(D))/Q) of a QuadIrr by exact sign comparisons: from
    the guess (P + isqrt(D)) // Q, step down while the value is not above
    the guess and up while it is above guess + 1."""
    def above(n):
        # value > n; sign of (P + sqrt(D)) - n*Q, never zero
        s = n * q.Q - q.P
        positive = s < 0 or q.D > s * s
        return positive if q.Q > 0 else not positive

    a = (q.P + math.isqrt(q.D)) // q.Q
    while not above(a):
        a -= 1
    while above(a + 1):
        a += 1
    return a


def ref_cf_expand(alpha):
    """The continued fraction of a QuadIrr by the walk of `QuadIrr.step`,
    one validated QuadIrr per digit; the period closes at the first
    complete quotient seen before, equal by value."""
    seen = {}
    digits = []
    tau = alpha
    for i in itertools.count():
        if tau in seen:
            i0 = seen[tau]
            return ContFrac(alpha, tuple(digits[:i0]), tuple(digits[i0:]))
        seen[tau] = i
        a, tau = tau.step()
        digits.append(a)


# ---------------------------------------------------------------------------
# reference orbit searches: the witness searches that divide in the field
# for every candidate matrix, and the orbit enumeration on FieldElem
# arithmetic with a memo of inverses.  orefields.orbits tests candidates
# with integer dot products and builds orbits from raw-rep tables; both
# must return the same witness and the same orbit list.

def ref_group_matrices(ell, group):
    """Every (a, b, c, d) in [0, l)^4 with ad - bc = 1 mod l ("sl") or
    = +-1 mod l ("slpm"), in lexicographic order, by testing all l^4."""
    want = {1 % ell} if group == "sl" else {1 % ell, (-1) % ell}
    return [m for m in itertools.product(range(ell), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % ell in want]


def ref_search_small_matrices(alpha, beta, bound):
    rng = range(-bound, bound + 1)
    k = alpha.field
    for n, q, m, r in itertools.product(rng, repeat=4):
        if n * r - q * m not in (1, -1):
            continue
        den = alpha * k.from_int(m) + k.from_int(r)
        if den.is_zero():
            continue
        if (alpha * k.from_int(n) + k.from_int(q)) / den == beta:
            return Mat2Z(n, q, m, r)
    return None


def ref_finite_field_orbit_witness(alpha, beta):
    ell = alpha.field.char
    for a, b, c, d in ref_group_matrices(ell, "slpm"):
        k = alpha.field
        den = alpha * k.from_int(c) + k.from_int(d)
        if den.is_zero():
            continue
        if (alpha * k.from_int(a) + k.from_int(b)) / den == beta:
            return Mat2Z(a, b, c, d)
    return None


def ref_finite_orbits(ell, k, group="sl", bound=13):
    if k not in (2, 3):
        raise ValueError("extension degree must be 2 or 3")
    if group not in ("sl", "slpm"):
        raise ValueError("group must be 'sl' or 'slpm'")
    if ell > bound:
        raise ValueError(f"l = {ell} exceeds the enumeration bound {bound}")
    field = GF(ell, k)
    mats = ref_group_matrices(ell, group)
    order = len(mats)
    points = [e for e in field.all_elements() if not in_prime_subfield(e)]
    inv_memo = {}

    def act(mat, theta):
        a, b, c, d = mat
        den = theta * c + d
        key = den.rep
        inv = inv_memo.get(key)
        if inv is None:
            inv = den.inverse()
            inv_memo[key] = inv
        return (theta * a + b) * inv

    seen = set()
    orbits = []
    for point in points:
        if point.rep in seen:
            continue
        orbit = set()
        stab = 0
        for mat in mats:
            image = act(mat, point)
            orbit.add(image.rep)
            if image.rep == point.rep:
                stab += 1
        if len(orbit) * stab != order:
            raise ArithmeticError("orbit-stabilizer count mismatch")
        seen |= orbit
        orbits.append(OrbitData(str(point), len(orbit), stab))
    if sum(o.size for o in orbits) != len(points):
        raise ArithmeticError("orbits do not partition the point set")
    return FiniteOrbitReport(ell, k, group, order, tuple(orbits), len(points))


# ---------------------------------------------------------------------------
# reference rational fields: the RationalField and QuadraticField bodies
# with every rational value stored as a Fraction, integral or not.  The
# fields of orefields store an integral value as an int; both must give
# equal values.  Their keys differ from those of QQ and QQ(sqrt d), so that
# elements of the two never mix.

class RefRationalField(Field):
    char = 0

    def _zero_rep(self):
        return Fraction(0)

    def _one_rep(self):
        return Fraction(1)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _from_int(self, n):
        return Fraction(n)

    def _from_fraction(self, f):
        return Fraction(f)

    def in_prime_subfield(self, rep):
        return True

    def prime_subfield_value(self, rep):
        return rep

    def _key(self):
        return ("ref-QQ",)

    def __str__(self):
        return "refQQ"


class RefQuadraticField(Field):
    char = 0

    def __init__(self, d):
        self.d = d

    def _zero_rep(self):
        return (Fraction(0), Fraction(0))

    def _one_rep(self):
        return (Fraction(1), Fraction(0))

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (a[0] * b[0] + a[1] * b[1] * self.d, a[0] * b[1] + a[1] * b[0])

    def _inv(self, a):
        nrm = a[0] * a[0] - a[1] * a[1] * self.d
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero")
        return (a[0] / nrm, -a[1] / nrm)

    def _is_zero(self, a):
        return a[0] == 0 and a[1] == 0

    def _from_int(self, n):
        return (Fraction(n), Fraction(0))

    def _from_fraction(self, f):
        return (Fraction(f), Fraction(0))

    def gen(self):
        return FieldElem(self, (Fraction(0), Fraction(1)))

    def in_prime_subfield(self, rep):
        return rep[1] == 0

    def prime_subfield_value(self, rep):
        return rep[0] if rep[1] == 0 else None

    def _key(self):
        return ("ref-quad", self.d)

    def __str__(self):
        return f"refQQ(sqrt({self.d}))"
