"""Bivariate rational functions over an exact coefficient field.

Elements of k(v1, v2) are kept in the canonical form of the fraction field
of the Laurent ring k[v1^±1, v2^±1], whose units are the monomials
c v1^i v2^j: a numerator that is a Laurent polynomial dict
{(i, j): coefficient} with signed exponents, over a coprime denominator
polynomial that neither v1 nor v2 divides, normalized to leading
coefficient 1 under graded lexicographic order (v1 > v2).  So the
representation of each value is unique and equality is structural, and a
Laurent element is exactly one whose denominator is 1 (`_is_one`), as a
polynomial is.  `RatFunc2.as_polynomials` gives the coprime fraction over
k[v1, v2] that the form stands for, through which values are printed.
The coefficients are raw reps of k (an int or a Fraction over QQ, an int
over GF(l), a tuple over GF(l^n) or QQ(sqrt d), or a K(a) pair),
operated on by the field's payload methods; the `_p*` helpers take k
explicitly, and `FieldElem` appears only where a value enters or leaves
(`const`, `monomial`, coercion, `constant_value`).  The gcd views a
polynomial as one in v1 over k[v2] and runs the primitive PRS (Brown
1971) on the univariate helpers of `fields`; `_PPoly` hands it, and the
exact division, each Laurent operand over its monomial content.

Derivations are determined by their images on the two variables and
extend to fractions by the quotient rule, taken in one step on the
polynomial dicts: for reduced n/d,

    D(n/d) = (D(n) d - n D(d)) / d^2,

and since gcd(n, d) = 1 a common factor of the new numerator and d^2 can
only be a factor of d.  So the result is reduced by two gcds against d and
its divisors, never by a gcd against d^2 or a full normalization (see
`Derivation.__call__`).

Products with a constant factor only scale a numerator: a reduced
fraction times a unit stays reduced.  `RatFunc2.constant_rep` reads the
raw rep of a constant and `RatFunc2.scaled` forms such a product, for
`__mul__`, the one-term sums of `weighted_sum` and the closed forms of
`orefields.skewpoly`, so no other module reads the numerator and
denominator dicts.

Laurent elements never need a gcd: the product of two is the product of
their numerators, a sum of them one merge of their numerators (an n-ary
sum, `RatFunc2.weighted_sum`, in one pass: over QQ and GF(l) its
coefficients are multiplied and added natively and each is reduced once),
both over 1, and a scaling derivation D(v1) = c1 v1, D(v2) = c2 v2
(the family g_alpha and its series derivation -D) is diagonal on
monomials: D(v1^i v2^j) = (i c1 + j c2) v1^i v2^j.  Each derivation
detects that once, from its images, and caches the eigenvalues it meets
and their powers.
`Derivation.power` takes D^s of a Laurent element under such a derivation
in one step, as lambda^s times each term.
"""

from __future__ import annotations

from operator import itemgetter

from .fields import (
    Field, FieldElem, FieldError, _coeff_term, _frac_add, _frac_cancel, _frac_monic, _frac_mul,
    _frac_str, _join_terms, _power, _settled, _udivmod, _ugcd, _umul, _usub,
)


def _grlex(ij):
    return (ij[0] + ij[1], ij[0])


# ---------------------------------------------------------------------------
# polynomial dicts: {(i, j): rep of K}, no zero values.  Numerators are
# Laurent polynomials, with signed exponents; the recursive view and the
# gcd below take exponents >= 0

def _ptrim(K, p):
    return {ij: c for ij, c in p.items() if not K._is_zero(c)}


def _padd(K, p, q):
    out = dict(p)
    for ij, c in q.items():
        s = out.get(ij)
        s = c if s is None else K._add(s, c)
        if K._is_zero(s):
            out.pop(ij, None)
        else:
            out[ij] = s
    return out


def _pneg(K, p):
    return {ij: K._neg(c) for ij, c in p.items()}


def _pmul(K, p, q):
    if len(p) == 1:
        p, q = q, p
    if len(q) == 1:
        # a one-term operand shifts the exponents, and scales unless it is 1
        ((di, dj), c), = q.items()
        if c == K._one_rep():
            return _pshift(p, di, dj)
        return {(i + di, j + dj): K._mul(v, c) for (i, j), v in p.items()}
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            ij = (i1 + i2, j1 + j2)
            s = out.get(ij)
            t = K._mul(c1, c2)
            out[ij] = t if s is None else K._add(s, t)
    return _ptrim(K, out)


def _pscale(K, p, c):
    if K._is_zero(c):
        return {}
    return {ij: K._mul(v, c) for ij, v in p.items()}


def _plead(p):
    """The leading coefficient under grlex."""
    return p[max(p, key=_grlex)]


def _pshift(p, di, dj):
    return {(i + di, j + dj): c for (i, j), c in p.items()}


def _ppartial(K, p, axis):
    # (i, j) -> (i - 1, j) or (i, j - 1) is injective, so terms never collide
    out = {}
    for (i, j), c in p.items():
        e = i if axis == 0 else j
        if e == 0:
            continue
        k = K._mul(K._from_int(e), c)
        if not K._is_zero(k):
            out[(i - 1, j) if axis == 0 else (i, j - 1)] = k
    return out


def _is_one(g):
    """Whether a monic polynomial (a normalized gcd, say) is 1."""
    return len(g) == 1 and (0, 0) in g


def _content(p):
    """(mi, mj), the least exponents of a nonzero Laurent polynomial p: its
    content v1^mi v2^mj, a unit, over which p is a polynomial that neither
    v1 nor v2 divides."""
    return min(p)[0], min(p, key=itemgetter(1))[1]


# recursive view: polynomial in v1 with coefficients in k[v2], used for gcd.
# v2-polynomials are the trimmed little-endian tuples of reps that the
# univariate helpers of `fields` work on; the top row of a view is nonzero.

def _to_rec(K, p):
    rows = {}
    for (i, j), c in p.items():
        rows.setdefault(i, {})[j] = c
    zero = K._zero_rep()
    rec = []
    for i in range(max(rows) + 1 if rows else 0):
        row = rows.get(i, {})
        rec.append(tuple(row.get(j, zero) for j in range(max(row) + 1)) if row else ())
    return rec


def _from_rec(K, rec):
    return {(i, j): c for i, row in enumerate(rec) for j, c in enumerate(row)
            if not K._is_zero(c)}


def _rec_trim(rec):
    rec = list(rec)
    while rec and not rec[-1]:
        rec.pop()
    return rec


def _rec_content(K, rec):
    g = ()
    for row in rec:
        g = _ugcd(K, g, row)
        if len(g) == 1:
            break
    return g


def _rec_primitive(K, rec):
    g = _rec_content(K, rec)
    if len(g) <= 1:
        return rec, g
    return [_udivmod(K, row, g)[0] for row in rec], g


def _rec_sub_shifted(K, A, B, c):
    """A - v1^(deg A - deg B) * c * B, with the top row cancelled away."""
    shift = len(A) - len(B)
    sub = [()] * shift + [_umul(K, row, c) for row in B]
    return _rec_trim([_usub(K, a, s) for a, s in zip(A, sub)])


def _rec_prem(K, A, B):
    """Pseudo-remainder of A by B in (k[v2])[v1]: repeatedly scale by the
    leading coefficient of B and cancel; the degree drops every step."""
    lb = B[-1]
    while A and len(A) >= len(B):
        la = A[-1]
        A = _rec_sub_shifted(K, [_umul(K, row, lb) for row in A], B, la)
    return A


def _pgcd(K, p, q):
    """gcd in k[v1, v2], normalized with leading grlex coefficient 1."""
    p, q = _ptrim(K, p), _ptrim(K, q)
    if not p or not q:
        src = p or q
        if not src:
            return {}
        return _pscale(K, src, K._inv(_plead(src)))

    if len(p) == 1 or len(q) == 1:
        mi = min(min(i for (i, _) in p), min(i for (i, _) in q))
        mj = min(min(j for (_, j) in p), min(j for (_, j) in q))
        return {(mi, mj): K._one_rep()}

    A, B = _to_rec(K, p), _to_rec(K, q)
    if len(A) < len(B):
        A, B = B, A
    A, ca = _rec_primitive(K, A)
    B, cb = _rec_primitive(K, B)
    cont = _ugcd(K, ca, cb)
    # primitive PRS
    while True:
        if len(B) == 1:
            # B is a v2-polynomial; primitive => gcd of the y-parts is 1
            g = [(K._one_rep(),)]
            break
        R = _rec_prem(K, A, B)
        if not R:
            g, _ = _rec_primitive(K, B)
            break
        R, _ = _rec_primitive(K, R)
        A, B = B, R
    if len(cont) != 1:
        g = [_umul(K, row, cont) for row in g]
    out = _from_rec(K, g)
    return _pscale(K, out, K._inv(_plead(out)))


def _pdivexact(K, p, g):
    """Exact division p / g in k[v1, v2] (g must divide p)."""
    if len(g) == 1:
        (gi, gj), gc = next(iter(g.items()))
        if gc == K._one_rep():
            return _pshift(p, -gi, -gj)
        inv = K._inv(gc)
        return {(i - gi, j - gj): K._mul(c, inv) for (i, j), c in p.items()}
    A, B = _to_rec(K, p), _to_rec(K, g)
    Q = [()] * (len(A) - len(B) + 1)
    while A and len(A) >= len(B):
        qrow, rrow = _udivmod(K, A[-1], B[-1])
        if rrow:
            raise ArithmeticError("inexact polynomial division")
        Q[len(A) - len(B)] = qrow
        A = _rec_sub_shifted(K, A, B, qrow)
    if A:
        raise ArithmeticError("inexact polynomial division")
    return _from_rec(K, Q)


def _pstr(K, p, vars):
    parts = []
    for i, j in sorted(p, key=_grlex, reverse=True):
        mono = []
        if i:
            mono.append(vars[0] if i == 1 else f"{vars[0]}^{i}")
        if j:
            mono.append(vars[1] if j == 1 else f"{vars[1]}^{j}")
        parts.append(_coeff_term(K._str(p[(i, j)]), "*".join(mono)))
    return _join_terms(parts)


class _PPoly:
    """The bivariate kernel on Laurent polynomial dicts, for
    `fields._frac_*`.  A monomial is a unit, so gcd and quo take each
    Laurent operand over its content (`_content`), and `_pgcd` and
    `_pdivexact` work in k[v1, v2]."""

    add = _padd
    mul = _pmul
    scale = _pscale
    is_one = is_const = _is_one     # the one term of either sits at (0, 0)
    str = _pstr
    lead = _plead

    @staticmethod
    def gcd(K, p, q):
        """The monic gcd of nonzero p and q, a polynomial neither v1 nor v2
        divides."""
        (pi, pj), (qi, qj) = _content(p), _content(q)
        return _pgcd(K, _pshift(p, -pi, -pj), _pshift(q, -qi, -qj))

    @staticmethod
    def quo(K, p, g):
        """p / g for a polynomial g that divides p and that neither v1 nor
        v2 divides."""
        mi, mj = _content(p)
        return _pshift(_pdivexact(K, _pshift(p, -mi, -mj), g), mi, mj)


# ---------------------------------------------------------------------------

class FunctionField2:
    """Context object for k(v1, v2): the coefficient field plus variable
    names.  All rational functions carry a reference to their context."""

    def __init__(self, field: Field, varnames=("y", "z")):
        if len(varnames) != 2 or varnames[0] == varnames[1]:
            raise ValueError("need two distinct variable names")
        self.field = field
        self.vars = tuple(varnames)

    def _key(self):
        return (self.field._key(), self.vars)

    def __eq__(self, other):
        return self is other or (isinstance(other, FunctionField2)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        return f"{self.field}({self.vars[0]},{self.vars[1]})"

    def zero(self):
        return RatFunc2(self, {}, {(0, 0): self.field._one_rep()}, _normalized=True)

    def one(self):
        return self._const(self.field._one_rep())

    def _const(self, c) -> RatFunc2:
        """The constant with rep c."""
        if self.field._is_zero(c):
            return self.zero()
        return RatFunc2(self, {(0, 0): c}, {(0, 0): self.field._one_rep()}, _normalized=True)

    def const(self, value) -> RatFunc2:
        return self._const(self.field.coerce(value).rep)

    def monomial(self, i: int, j: int, coeff=1) -> RatFunc2:
        c = self.field.coerce(coeff).rep
        if self.field._is_zero(c):
            return self.zero()
        return RatFunc2(self, {(i, j): c}, {(0, 0): self.field._one_rep()}, _normalized=True)

    def var(self, name: str) -> RatFunc2:
        if name == self.vars[0]:
            return self.monomial(1, 0)
        if name == self.vars[1]:
            return self.monomial(0, 1)
        raise ValueError(f"unknown variable {name!r} in {self}")

    def gens(self):
        return self.monomial(1, 0), self.monomial(0, 1)


class RatFunc2:
    """A normalized fraction: a Laurent polynomial over a monic polynomial
    that neither variable divides."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den, _normalized=False):
        self.ctx = ctx
        if _normalized:
            self.num, self.den = num, den
            return
        self.num, self.den = self._normalize(ctx, num, den)

    @staticmethod
    def _normalize(ctx, num, den):
        K = ctx.field
        num, den = _ptrim(K, num), _ptrim(K, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return {}, {(0, 0): K._one_rep()}
        # the denominator's content is a unit: it moves into the numerator
        mi, mj = _content(den)
        if mi or mj:
            num = _pshift(num, -mi, -mj)
            den = _pshift(den, -mi, -mj)
        return _frac_monic(_PPoly, K, *_frac_cancel(_PPoly, K, num, den))

    # -- construction helpers ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFunc2):
            if other.ctx != self.ctx:
                raise ValueError("mixed rational-function contexts")
            return other
        c = self.ctx.field.try_coerce(other)
        return None if c is None else self.ctx._const(c)

    # -- arithmetic ----------------------------------------------------------
    # products and sums of reduced fractions are re-reduced by operand-size
    # gcds (`fields._frac_add`, `fields._frac_mul`), never by a gcd of the
    # full products

    def _combined(self, o):
        """self + o for operands not both Laurent (`weighted_sum` adds those)."""
        frac = _frac_add(_PPoly, self.ctx.field, self.num, self.den, o.num, o.den)
        return self.ctx.zero() if frac is None else RatFunc2(self.ctx, *frac, _normalized=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc2.weighted_sum([(self, None), (o, None)])

    __radd__ = __add__

    @staticmethod
    def weighted_sum(terms):
        """sum c w over a nonempty list of pairs (c, w), c a fraction and w
        a nonzero raw rep of k or None for 1, reduced once.  The numerators
        of the Laurent c, those over 1, scaled by w, are merged with the
        field's accumulator (`Field._accumulator`), unreduced over QQ and
        GF(l), and each coefficient of the merge is then made canonical
        once and dropped if it is zero: a Laurent element over 1.  The
        other c add to it pairwise."""
        if len(terms) == 1:
            (c, w), = terms
            return c.scaled(w)
        ctx = terms[0][0].ctx
        K = ctx.field
        add, mul, canon = K._accumulator()
        num, others = {}, []
        get = num.get
        for c, w in terms:
            if not _is_one(c.den):
                others.append((c, w))
                continue
            for ij, v in c.num.items():
                if w is not None:
                    v = mul(v, w)
                s = get(ij)
                num[ij] = v if s is None else add(s, v)
        out = RatFunc2(ctx, _settled(K, canon, num), {(0, 0): K._one_rep()}, _normalized=True)
        for c, w in others:
            out = out._combined(c.scaled(w))
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        neg = RatFunc2(self.ctx, _pneg(self.ctx.field, o.num), o.den, _normalized=True)
        return RatFunc2.weighted_sum([(self, None), (neg, None)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.ctx.zero()
        # a nonzero constant scales the other factor (`scaled`)
        c = o.constant_rep()
        if c is not None:
            return self.scaled(c)
        c = self.constant_rep()
        if c is not None:
            return o.scaled(c)
        return RatFunc2(self.ctx, *_frac_mul(_PPoly, self.ctx.field, self.num, self.den,
                                             o.num, o.den), _normalized=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc2(self.ctx, _pneg(self.ctx.field, self.num), dict(self.den),
                        _normalized=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _power(self.inverse(), -n, self.ctx.one())
        return _power(self, n, self.ctx.one())

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        # the numerator's content is a unit: it moves into the new numerator
        mi, mj = _content(self.num)
        num, den = _pshift(self.den, -mi, -mj), _pshift(self.num, -mi, -mj)
        return RatFunc2(self.ctx, *_frac_monic(_PPoly, self.ctx.field, num, den),
                        _normalized=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    # -- structure -----------------------------------------------------------
    def is_zero(self):
        return not self.num

    def is_constant(self):
        num = self.num
        return _is_one(self.den) and (not num or len(num) == 1 and (0, 0) in num)

    def constant_rep(self):
        """The raw rep of k of a nonzero constant, None for any other value."""
        num = self.num
        if len(num) == 1 and (0, 0) in num and _is_one(self.den):
            return num[(0, 0)]
        return None

    def scaled(self, w) -> RatFunc2:
        """self times the constant with the nonzero raw rep w of k, self
        itself where w is None or 1: the numerator scaled over the same
        denominator, since a reduced fraction times a unit stays reduced."""
        K = self.ctx.field
        if w is None or w == K._one_rep():
            return self
        return RatFunc2(self.ctx, _pscale(K, self.num, w), self.den, _normalized=True)

    def constant_value(self) -> FieldElem | None:
        if not self.is_constant():
            return None
        K = self.ctx.field
        return FieldElem(K, self.num[(0, 0)] if self.num else K._zero_rep())

    def partial(self, axis: int) -> RatFunc2:
        """Partial derivative with respect to variable 0 or 1: the
        coordinate derivation, D(v1) = 1 and D(v2) = 0 or the reverse."""
        ctx = self.ctx
        one, zero = ctx.one(), ctx.zero()
        return Derivation(ctx, *((one, zero) if axis == 0 else (zero, one)))(self)

    def subst_powers(self, e1, e2) -> RatFunc2:
        """Substitute v1 -> v1^a1 v2^b1 and v2 -> v1^a2 v2^b2 where
        e1 = (a1, b1), e2 = (a2, b2); negative exponents allowed.  Terms
        whose exponents the map sends to one place (a singular matrix)
        are added.  The image of a Laurent element is the image of its
        numerator, over 1: no gcd is run.  Any other fraction is
        normalized."""
        a1, b1 = e1
        a2, b2 = e2
        K = self.ctx.field

        def mapped(p):
            out = {}
            for (i, j), c in p.items():
                ij = (a1 * i + a2 * j, b1 * i + b2 * j)
                out[ij] = K._add(out[ij], c) if ij in out else c
            return _ptrim(K, out)

        if _is_one(self.den):
            return RatFunc2(self.ctx, mapped(self.num), self.den, _normalized=True)
        return RatFunc2(self.ctx, mapped(self.num), mapped(self.den))

    def to_context(self, ctx: FunctionField2) -> RatFunc2:
        """The same function viewed in another context with the same field
        (variable renaming only)."""
        if ctx.field != self.ctx.field:
            raise ValueError("contexts have different coefficient fields")
        return RatFunc2(ctx, dict(self.num), dict(self.den), _normalized=True)

    def as_polynomials(self):
        """(n, d), the coprime polynomials of k[v1, v2] with d monic in grlex
        and n/d this value: numerator and denominator times the monomial
        that clears the numerator's negative exponents."""
        num, den = self.num, self.den
        mi, mj = _content(num) if num else (0, 0)
        mi, mj = min(mi, 0), min(mj, 0)
        if mi or mj:
            return _pshift(num, -mi, -mj), _pshift(den, -mi, -mj)
        return num, den

    def __str__(self):
        return _frac_str(_PPoly, self.ctx.field, *self.as_polynomials(), self.ctx.vars)

    def __repr__(self):
        return f"<{self.ctx.vars[0]},{self.ctx.vars[1]}-ratfunc {self}>"


# ---------------------------------------------------------------------------
# derivations

class Derivation:
    """A k-derivation of k(v1, v2), determined by its images of the two
    context variables; image_of_y and image_of_z refer to the first and
    second variable of the context in order."""

    __slots__ = ("ctx", "image_of_y", "image_of_z", "_wy", "_wz", "_e", "_eigen", "_neg")

    def __init__(self, ctx: FunctionField2, image_of_y: RatFunc2, image_of_z: RatFunc2):
        """D from its images.  It keeps E, the lcm of the image
        denominators, and the polynomials E*D(v1) and E*D(v2).  Where both
        denominators are 1 (every scaling derivation, the q family's in
        both coordinate systems, and their negations), E = 1 and those
        polynomials are the image numerators themselves, shared with the
        images and never mutated: no gcd, exact division or product is
        formed."""
        if image_of_y.ctx != ctx or image_of_z.ctx != ctx:
            raise ValueError("derivation images must live in the given context")
        self.ctx = ctx
        self.image_of_y = image_of_y
        self.image_of_z = image_of_z
        K = ctx.field
        ey, ez = image_of_y.den, image_of_z.den
        if _is_one(ey) and _is_one(ez):
            self._e, self._wy, self._wz = ey, image_of_y.num, image_of_z.num
        else:
            self._e = _pmul(K, ey, _pdivexact(K, ez, _pgcd(K, ey, ez)))
            self._wy = _pmul(K, image_of_y.num, _pdivexact(K, self._e, ey))
            self._wz = _pmul(K, image_of_z.num, _pdivexact(K, self._e, ez))
        # a scaling derivation, D(v1) = c1 v1 and D(v2) = c2 v2 (c1 or c2 may
        # be 0), has each Laurent monomial v1^i v2^j as an eigenvector with
        # eigenvalue i c1 + j c2, which `_eigenvalue` forms and caches by
        # (i, j), and its powers by ((i, j), s)
        self._eigen = self._neg = None
        if (_is_one(self._e) and self._wy.keys() <= {(1, 0)}
                and self._wz.keys() <= {(0, 1)}):
            zero = K._zero_rep()
            self._eigen = ({}, {}, self._wy.get((1, 0), zero), self._wz.get((0, 1), zero))

    def _diagonal(self, n, s=1):
        """D^s(n) for a scaling derivation, a Laurent polynomial n and
        s >= 1: each term c v1^i v2^j of n times lambda^s, where lambda =
        i c1 + j c2 is its eigenvalue (`_eigenvalue`), with the terms whose
        eigenvalue vanishes dropped."""
        K = self.ctx.field
        cache = self._eigen[0]
        out = {}
        for key, c in n.items():
            lam = cache.get(key)
            if lam is None:
                lam = self._eigenvalue(key)
            if not K._is_zero(lam):
                if s != 1:
                    lam = self._eigenvalue(key, s)
                out[key] = K._mul(c, lam)
        return out

    def _eigenvalue(self, key, s=1):
        """lambda^s, s >= 1, for the eigenvalue lambda = a c1 + b c2 of
        v1^a v2^b, key = (a, b), under a scaling derivation, as a raw rep of
        k: lambda is cached by key, and lambda^s, by the field's `_pow`, by
        (key, s)."""
        cache, powers, c1, c2 = self._eigen
        lam = cache.get(key)
        if lam is None:
            K = self.ctx.field
            lam = cache[key] = K._add(K._mul(K._from_int(key[0]), c1),
                                      K._mul(K._from_int(key[1]), c2))
        if s == 1:
            return lam
        lam_s = powers.get((key, s))
        if lam_s is None:
            lam_s = powers[key, s] = self.ctx.field._pow(lam, s)
        return lam_s

    def eigenkey(self, f: RatFunc2):
        """The exponents (i, j) by which `_eigenvalue` reads lambda^s, where
        D is a scaling derivation and f = c v1^i v2^j a Laurent monomial;
        None for any other f or D."""
        if self._eigen is None or len(f.num) != 1 or not _is_one(f.den):
            return None
        key, = f.num
        return key

    def eigenvalue(self, f: RatFunc2, s: int = 1):
        """The raw rep of lambda^s, s >= 1, where D(f) = lambda f for a
        scaling derivation D and f = c v1^i v2^j a Laurent monomial:
        lambda = i c1 + j c2, so that D^s(f) = lambda^s f.  None for any
        other f or D."""
        key = self.eigenkey(f)
        return None if key is None else self._eigenvalue(key, s)

    def is_diagonal_on(self, f: RatFunc2) -> bool:
        """Whether D is a scaling derivation and f a Laurent element, so
        that `power` takes D^s(f) term by term."""
        return self._eigen is not None and _is_one(f.den)

    def power(self, f: RatFunc2, s: int) -> RatFunc2:
        """D^s(f).  Where D is diagonal on f, each term c v1^i v2^j of the
        Laurent element f is multiplied by lambda^s, with lambda^s by the
        field's `_pow` (in K(a) of characteristic l, Frobenius
        substitutions on the base-l digits of s), formed once per monomial
        and s; D^0 is the identity even where lambda = 0.  Otherwise D is
        applied s times, or until it gives 0."""
        if f.ctx != self.ctx:
            raise ValueError("element from a different context")
        if s == 0 or not self.is_diagonal_on(f):
            return self.iterate(f, s)
        return RatFunc2(self.ctx, self._diagonal(f.num, s), f.den, _normalized=True)

    def _scaled(self, p):
        """E*D(p) for a Laurent polynomial p, itself one."""
        if self._eigen is not None:
            return self._diagonal(p)
        K = self.ctx.field
        return _padd(K, _pmul(K, _ppartial(K, p, 0), self._wy),
                     _pmul(K, _ppartial(K, p, 1), self._wz))

    def __call__(self, f: RatFunc2) -> RatFunc2:
        """D(n/d) = N / (E d^2) with N = E*D(n)*d - n*E*D(d), reduced.

        A prime p that divides N and E d^2 divides d or E.  Against d two
        operand-size gcds suffice: with e = v_p(d) and m = v_p(N),
        g1 = gcd(N, d) takes min(m, e) factors p, and g2 = gcd(N/g1, g1)
        takes min(m - e, e) more when m > e, so g1*g2 = gcd(N, d^2) and
        the denominator left is (d/g1)*(d/g2).  (Repeating g <- gcd(N, g)
        beyond g2 would take more factors than d^2 holds when m > 2e.)
        One more gcd cancels against E, which is 1 unless an image has a
        denominator.  d, the gcds and E are monic, so the denominator is,
        and neither v1 nor v2 divides any of them.  Where d = 1, as for
        every Laurent element, no gcd is run against it."""
        if f.ctx != self.ctx:
            raise ValueError("element from a different context")
        K = self.ctx.field
        n, d = f.num, f.den
        if _is_one(d):
            num, den = self._scaled(n), d
        else:
            num = _padd(K, _pmul(K, self._scaled(n), d),
                        _pneg(K, _pmul(K, n, self._scaled(d))))
            if not num:
                return self.ctx.zero()
            g1 = _PPoly.gcd(K, num, d)
            num = _PPoly.quo(K, num, g1)
            g2 = _PPoly.gcd(K, num, g1)
            num = _PPoly.quo(K, num, g2)
            den = _pmul(K, _pdivexact(K, d, g1), _pdivexact(K, d, g2))
        if not num:
            return self.ctx.zero()
        if not _is_one(self._e):
            num, e = _frac_cancel(_PPoly, K, num, self._e)
            den = _pmul(K, den, e)
        return RatFunc2(self.ctx, num, den, _normalized=True)

    def iterate(self, f: RatFunc2, n: int) -> RatFunc2:
        """D^n(f) by n applications of D, stopping at a zero."""
        for _ in range(n):
            if f.is_zero():
                break
            f = self(f)
        return f

    def negate(self) -> "Derivation":
        """-D, built once; -(-D) is D itself, so the two share their caches."""
        if self._neg is None:
            self._neg = Derivation(self.ctx, -self.image_of_y, -self.image_of_z)
            self._neg._neg = self
        return self._neg

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Derivation) and self.ctx == other.ctx
            and self.image_of_y == other.image_of_y and self.image_of_z == other.image_of_z)

    __hash__ = None

    def __str__(self):
        v1, v2 = self.ctx.vars
        return f"D({v1})={self.image_of_y}, D({v2})={self.image_of_z}"


def scaling_derivation(ctx: FunctionField2, c1, c2) -> Derivation:
    """The derivation sending v1 -> c1*v1 and v2 -> c2*v2."""
    y, z = ctx.gens()
    return Derivation(ctx, y * ctx.field.coerce(c1), z * ctx.field.coerce(c2))


def derivation_apply(D: Derivation, f: RatFunc2) -> RatFunc2:
    return D(f)


def log_derivative(D: Derivation, f: RatFunc2) -> RatFunc2:
    """D(f)/f for nonzero f: additive in products."""
    if f.is_zero():
        raise ZeroDivisionError("logarithmic derivative of zero")
    return D(f) / f


def in_frobenius_subfield(f: RatFunc2) -> bool:
    """Whether f lies in k(v1^l, v2^l) in characteristic l, decided by
    vanishing of both partial derivatives."""
    if f.ctx.field.char == 0:
        raise FieldError("frobenius subfield requires positive characteristic")
    return f.partial(0).is_zero() and f.partial(1).is_zero()
