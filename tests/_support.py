"""Seeded random generators for field elements, rational functions and
skew polynomials, shared across the test modules, and slow reference
copies of kernel routines that the fast ones must agree with."""

import itertools
import math
from fractions import Fraction

from orefields.fields import (
    GF, ExtensionField, ParameterField, PrimeField, QuadraticField, RationalField,
    _uadd, _udivmod, _ugcd, _umul, in_prime_subfield,
)
from orefields.orbits import FiniteOrbitReport, Mat2Z, OrbitData, _group_matrices
from orefields.pdo import PdoSeries
from orefields.ratfunc import (
    FunctionField2, RatFunc2, _is_one, _padd, _pdivexact, _pgcd, _pmul, _pneg, _ppartial,
)
from orefields.skewpoly import SkewPoly


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
# new coefficient.  Slow and independent of orefields.pdo's push-through
# loop, which must agree with them exactly.

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
    return F._monic(_umul(K, n1, n2), _umul(K, d1, d2))


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
        return F._monic(num, den)
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
    return F._monic(num, den)


def ref_param_from_int(F, n):
    return F._normalize((F.base._from_int(n),), (F.base._one_rep(),))


def ref_ratfunc_mul(f, g):
    if f.is_zero() or g.is_zero():
        return f.ctx.zero()
    field = f.ctx.field
    n1, d2 = RatFunc2._cancel(f.num, g.den, field)
    n2, d1 = RatFunc2._cancel(g.num, f.den, field)
    return RatFunc2(f.ctx, _pmul(field, n1, n2), _pmul(field, d1, d2), _normalized=True)._monic()


def ref_derivation(D, f):
    return (ref_ratfunc_mul(f.partial(0), D.image_of_y)
            + ref_ratfunc_mul(f.partial(1), D.image_of_z))


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
    numerator against it, whatever the denominators."""
    ctx, K = f.ctx, f.ctx.field
    d1, d2 = f.den, g.den
    if d1 == d2:
        num = _padd(K, f.num, _pneg(K, g.num) if negate else g.num)
        if not num:
            return ctx.zero()
        num, den = RatFunc2._cancel(num, d1, K)
        return RatFunc2(ctx, num, den, _normalized=True)._monic()
    h = _pgcd(K, d1, d2)
    d1p, d2p = _pdivexact(K, d1, h), _pdivexact(K, d2, h)
    rhs = ref_pmul(K, g.num, d1p)
    num = _padd(K, ref_pmul(K, f.num, d2p), _pneg(K, rhs) if negate else rhs)
    if not num:
        return ctx.zero()
    den = ref_pmul(K, ref_pmul(K, h, d1p), d2p)
    c = _pgcd(K, num, h)
    num, den = _pdivexact(K, num, c), _pdivexact(K, den, c)
    return RatFunc2(ctx, num, den, _normalized=True)._monic()


def ref_quotient_rule(D, f):
    """D(n/d) = (E D(n) d - n E D(d)) / (E d^2) from the partials of n and d,
    whatever D is, reduced by gcds against d and E."""
    ctx, K = f.ctx, f.ctx.field

    def scaled(p):
        return _padd(K, ref_pmul(K, _ppartial(K, p, 0), D._wy),
                     ref_pmul(K, _ppartial(K, p, 1), D._wz))

    n, d = f.num, f.den
    num = _padd(K, ref_pmul(K, scaled(n), d), _pneg(K, ref_pmul(K, n, scaled(d))))
    if not num:
        return ctx.zero()
    g1 = _pgcd(K, num, d)
    num = _pdivexact(K, num, g1)
    g2 = _pgcd(K, num, g1)
    num = _pdivexact(K, num, g2)
    den = ref_pmul(K, _pdivexact(K, d, g1), _pdivexact(K, d, g2))
    if not _is_one(D._e):
        num, e = RatFunc2._cancel(num, D._e, K)
        den = ref_pmul(K, den, e)
    return RatFunc2(ctx, num, den, _normalized=True)


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
    """fg - gf from two full products, the order-0 terms included."""
    return f * g - g * f


# ---------------------------------------------------------------------------
# reference orbit searches: the witness searches that divide in the field
# for every candidate matrix, and the orbit enumeration on FieldElem
# arithmetic with a memo of inverses.  orefields.orbits tests candidates
# with integer dot products and builds orbits from raw-rep tables; both
# must return the same witness and the same orbit list.

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
    for a, b, c, d in _group_matrices(ell, "slpm"):
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
    mats = _group_matrices(ell, group)
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
    return FiniteOrbitReport(ell, k, group, order, orbits, len(points))
