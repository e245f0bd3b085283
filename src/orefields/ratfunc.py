"""Bivariate rational functions over an exact coefficient field.

Elements of k(v1, v2) are kept as reduced fractions of polynomial dicts
{(i, j): coefficient} with the denominator normalized to leading
coefficient 1 under graded lexicographic order (v1 > v2), so the
representation of each value is unique and equality is structural.

Derivations are determined by their images on the two variables and
extend to fractions by the quotient rule, taken in one step on the
polynomial dicts: for reduced n/d,

    D(n/d) = (D(n) d - n D(d)) / d^2,

and since gcd(n, d) = 1 a common factor of the new numerator and d^2 can
only be a factor of d.  So the result is reduced by two gcds against d and
its divisors, never by a gcd against d^2 or a full normalization (see
`Derivation.__call__`).

Products with a constant factor only scale a numerator: a reduced
fraction times a unit stays reduced.
"""

from __future__ import annotations

from .fields import Field, FieldElem, FieldError


def _grlex(ij):
    return (ij[0] + ij[1], ij[0])


# ---------------------------------------------------------------------------
# polynomial dicts: {(i, j): FieldElem}, no zero values, exponents >= 0

def _ptrim(p):
    return {ij: c for ij, c in p.items() if not c.is_zero()}


def _padd(p, q):
    out = dict(p)
    for ij, c in q.items():
        s = out.get(ij)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(ij, None)
        else:
            out[ij] = s
    return out


def _pneg(p):
    return {ij: -c for ij, c in p.items()}


def _pmul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            ij = (i1 + i2, j1 + j2)
            s = out.get(ij)
            s = c1 * c2 if s is None else s + c1 * c2
            out[ij] = s
    return _ptrim(out)


def _pscale(p, c):
    if c.is_zero():
        return {}
    return {ij: v * c for ij, v in p.items()}


def _plead(p):
    ij = max(p, key=_grlex)
    return ij, p[ij]


def _pshift(p, di, dj):
    return {(i + di, j + dj): c for (i, j), c in p.items()}


def _ppartial(p, axis, field):
    out = {}
    for (i, j), c in p.items():
        e = i if axis == 0 else j
        if e == 0:
            continue
        k = field.from_int(e) * c
        if k.is_zero():
            continue
        ij = (i - 1, j) if axis == 0 else (i, j - 1)
        out[ij] = out.get(ij, field.zero()) + k
    return _ptrim(out)


def _is_monomial(p):
    return len(p) == 1


def _is_one(g):
    """Whether a monic polynomial (a normalized gcd, say) is 1."""
    return len(g) == 1 and (0, 0) in g


# recursive view: polynomial in v1 with coefficients in k[v2], used for gcd.
# v2-polynomials are trimmed little-endian tuples of FieldElem.

def _ztrim(c):
    c = list(c)
    while c and c[-1].is_zero():
        c.pop()
    return tuple(c)


def _zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _ztrim(out)


def _zmul(a, b, zero):
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ztrim(out)


def _zscale(a, s):
    if s.is_zero():
        return ()
    return _ztrim([x * s for x in a])


def _zdivmod(a, b):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = list(a)
    inv = b[-1].inverse()
    db = len(b) - 1
    quo = [b[-1].field.zero()] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        da = len(a) - 1
        c = a[-1] * inv
        quo[da - db] = c
        for i in range(len(b)):
            a[da - db + i] = a[da - db + i] - c * b[i]
        while a and a[-1].is_zero():
            a.pop()
    return _ztrim(quo), _ztrim(a)


def _zgcd(a, b):
    a, b = _ztrim(a), _ztrim(b)
    while b:
        a, b = b, _zdivmod(a, b)[1]
    if not a:
        return ()
    return _zscale(a, a[-1].inverse())


def _to_rec(p, field):
    if not p:
        return []
    dy = max(i for (i, j) in p)
    dz = {}
    for (i, j), c in p.items():
        dz.setdefault(i, {})[j] = c
    rec = []
    zero = field.zero()
    for i in range(dy + 1):
        row = dz.get(i, {})
        if row:
            m = max(row)
            rec.append(tuple(row.get(j, zero) for j in range(m + 1)))
        else:
            rec.append(())
    return rec


def _from_rec(rec):
    out = {}
    for i, row in enumerate(rec):
        for j, c in enumerate(row):
            if not c.is_zero():
                out[(i, j)] = c
    return out


def _rec_trim(rec):
    rec = list(rec)
    while rec and not rec[-1]:
        rec.pop()
    return rec


def _rec_content(rec):
    g = ()
    for row in rec:
        g = _zgcd(g, row)
        if len(g) == 1:
            break
    return g


def _rec_primitive(rec, field):
    g = _rec_content(rec)
    if len(g) <= 1:
        return rec, g
    return [_zdivmod(row, g)[0] for row in rec], g


def _rec_prem(A, B, field):
    """Pseudo-remainder of A by B in (k[v2])[v1]: repeatedly scale by the
    leading coefficient of B and cancel; the degree drops every step."""
    A = _rec_trim(list(A))
    B = _rec_trim(list(B))
    lb = B[-1]
    zero = field.zero()
    minus_one = field.from_int(-1)
    while A and len(A) >= len(B):
        la = A[-1]
        shift = len(A) - len(B)
        A = [_zmul(row, lb, zero) for row in A]
        sub = [()] * shift + [_zmul(row, la, zero) for row in B]
        A = [_zadd(a, _zscale(s, minus_one)) for a, s in zip(A, sub)]
        A = _rec_trim(A)
    return A


def _pgcd(p, q, field):
    """gcd in k[v1, v2], normalized with leading grlex coefficient 1."""
    p, q = _ptrim(p), _ptrim(q)
    if not p:
        src = q
    elif not q:
        src = p
    else:
        src = None
    if src is not None:
        if not src:
            return {}
        _, lead = _plead(src)
        return _pscale(src, lead.inverse())

    if _is_monomial(p) or _is_monomial(q):
        mi = min(min(i for (i, _) in p), min(i for (i, _) in q))
        mj = min(min(j for (_, j) in p), min(j for (_, j) in q))
        return {(mi, mj): field.one()}

    A = _rec_trim(_to_rec(p, field))
    B = _rec_trim(_to_rec(q, field))
    if len(A) < len(B):
        A, B = B, A
    A, ca = _rec_primitive(A, field)
    B, cb = _rec_primitive(B, field)
    cont = _zgcd(ca, cb)
    # primitive PRS
    while True:
        if len(B) == 1:
            # B is a v2-polynomial; primitive => gcd of the y-parts is 1
            g = [(field.one(),)]
            break
        R = _rec_prem(A, B, field)
        if not R:
            g, _ = _rec_primitive(B, field)
            break
        R, _ = _rec_primitive(R, field)
        A, B = B, R
    zero = field.zero()
    g = [_zmul(row, cont, zero) for row in g] if len(cont) != 1 else g
    out = _from_rec(g)
    if not out:
        return {}
    _, lead = _plead(out)
    return _pscale(out, lead.inverse())


def _pdivexact(p, g, field):
    """Exact division p / g in k[v1, v2] (g must divide p)."""
    if len(g) == 1:
        (gi, gj), gc = next(iter(g.items()))
        if gc.is_one():
            return _pshift(p, -gi, -gj)
        inv = gc.inverse()
        return {(i - gi, j - gj): c * inv for (i, j), c in p.items()}
    A = _rec_trim(_to_rec(p, field))
    B = _rec_trim(_to_rec(g, field))
    zero = field.zero()
    Q = [()] * (len(A) - len(B) + 1)
    while A and len(A) >= len(B):
        qrow, rrow = _zdivmod(A[-1], B[-1])
        if rrow:
            raise ArithmeticError("inexact polynomial division")
        shift = len(A) - len(B)
        Q[shift] = qrow
        sub = [()] * shift + [_zmul(row, qrow, zero) for row in B]
        A = [_zadd(a, _zscale(s, field.from_int(-1))) for a, s in zip(A, sub)]
        A = _rec_trim(A)
    if A:
        raise ArithmeticError("inexact polynomial division")
    return _from_rec(Q)


def _pstr(p, vars):
    if not p:
        return "0"
    parts = []
    for ij in sorted(p, key=_grlex, reverse=True):
        c = p[ij]
        i, j = ij
        mono = []
        if i == 1:
            mono.append(vars[0])
        elif i > 1:
            mono.append(f"{vars[0]}^{i}")
        if j == 1:
            mono.append(vars[1])
        elif j > 1:
            mono.append(f"{vars[1]}^{j}")
        m = "*".join(mono)
        s = str(c)
        if not m:
            parts.append(s)
            continue
        if s == "1":
            parts.append(m)
        elif s == "-1":
            parts.append(f"-{m}")
        else:
            if any(op in s[1:] for op in "+-/"):
                s = f"({s})"
            parts.append(f"{s}*{m}")
    out = parts[0]
    for t in parts[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


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
        return isinstance(other, FunctionField2) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        return f"{self.field}({self.vars[0]},{self.vars[1]})"

    def zero(self):
        return RatFunc2(self, {}, {(0, 0): self.field.one()}, _normalized=True)

    def one(self):
        one = self.field.one()
        return RatFunc2(self, {(0, 0): one}, {(0, 0): one}, _normalized=True)

    def const(self, value) -> RatFunc2:
        c = self.field.coerce(value)
        if c.is_zero():
            return self.zero()
        return RatFunc2(self, {(0, 0): c}, {(0, 0): self.field.one()}, _normalized=True)

    def monomial(self, i: int, j: int, coeff=1) -> RatFunc2:
        c = self.field.coerce(coeff)
        if c.is_zero():
            return self.zero()
        one = self.field.one()
        num = {(max(i, 0), max(j, 0)): c}
        den = {(max(-i, 0), max(-j, 0)): one}
        return RatFunc2(self, num, den, _normalized=True)

    def var(self, name: str) -> RatFunc2:
        if name == self.vars[0]:
            return self.monomial(1, 0)
        if name == self.vars[1]:
            return self.monomial(0, 1)
        raise ValueError(f"unknown variable {name!r} in {self}")

    def gens(self):
        return self.monomial(1, 0), self.monomial(0, 1)


class RatFunc2:
    """A normalized fraction of bivariate polynomials."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den, _normalized=False):
        self.ctx = ctx
        if _normalized:
            self.num, self.den = num, den
            return
        self.num, self.den = self._normalize(ctx, num, den)

    @staticmethod
    def _normalize(ctx, num, den):
        field = ctx.field
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return {}, {(0, 0): field.one()}
        # cheap common monomial factor first
        mi = min(min(i for (i, _) in num), min(i for (i, _) in den))
        mj = min(min(j for (_, j) in num), min(j for (_, j) in den))
        if mi or mj:
            num = _pshift(num, -mi, -mj)
            den = _pshift(den, -mi, -mj)
        g = _pgcd(num, den, field)
        if g and not _is_one(g):
            num = _pdivexact(num, g, field)
            den = _pdivexact(den, g, field)
        _, lead = _plead(den)
        if not lead.is_one():
            inv = lead.inverse()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        return num, den

    # -- construction helpers ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFunc2):
            if other.ctx != self.ctx:
                raise ValueError("mixed rational-function contexts")
            return other
        c = self.ctx.field.try_coerce(other)
        if c is None:
            return None
        return self.ctx.const(FieldElem(self.ctx.field, c))

    # -- arithmetic ----------------------------------------------------------
    # products and sums of reduced fractions are re-reduced by operand-size
    # gcds (cross-cancellation), never by a gcd of the full products

    @staticmethod
    def _cancel(p, q, field):
        g = _pgcd(p, q, field)
        if g and not _is_one(g):
            return _pdivexact(p, g, field), _pdivexact(q, g, field)
        return p, q

    def _combined(self, o, negate):
        field = self.ctx.field
        d1, d2 = self.den, o.den
        if d1 == d2:
            rhs = _pneg(o.num) if negate else o.num
            num = _padd(self.num, rhs)
            if not num:
                return self.ctx.zero()
            num, den = self._cancel(num, d1, field)
            return RatFunc2(self.ctx, num, den, _normalized=True)._monic()
        g = _pgcd(d1, d2, field)
        trivial = _is_one(g)
        d1p = d1 if trivial else _pdivexact(d1, g, field)
        d2p = d2 if trivial else _pdivexact(d2, g, field)
        rhs = _pmul(o.num, d1p)
        num = _padd(_pmul(self.num, d2p), _pneg(rhs) if negate else rhs)
        if not num:
            return self.ctx.zero()
        den = _pmul(_pmul(g, d1p), d2p)
        if not trivial:
            h = _pgcd(num, g, field)
            if not _is_one(h):
                num = _pdivexact(num, h, field)
                den = _pdivexact(den, h, field)
        return RatFunc2(self.ctx, num, den, _normalized=True)._monic()

    def _monic(self):
        _, lead = _plead(self.den)
        if lead.is_one():
            return self
        inv = lead.inverse()
        return RatFunc2(self.ctx, _pscale(self.num, inv),
                        _pscale(self.den, inv), _normalized=True)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combined(o, negate=False)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combined(o, negate=True)

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
        # a nonzero constant scales the other numerator; a reduced fraction
        # times a unit stays reduced, and its denominator stays monic
        if o.is_constant():
            return RatFunc2(self.ctx, _pscale(self.num, o.num[(0, 0)]), self.den,
                            _normalized=True)
        if self.is_constant():
            return RatFunc2(self.ctx, _pscale(o.num, self.num[(0, 0)]), o.den,
                            _normalized=True)
        field = self.ctx.field
        n1, d2 = self._cancel(self.num, o.den, field)
        n2, d1 = self._cancel(o.num, self.den, field)
        return RatFunc2(self.ctx, _pmul(n1, n2), _pmul(d1, d2),
                        _normalized=True)._monic()

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_zero():
            return self.ctx.zero()
        field = self.ctx.field
        n1, n2 = self._cancel(self.num, o.num, field)
        d1, d2 = self._cancel(o.den, self.den, field)
        return RatFunc2(self.ctx, _pmul(n1, d1), _pmul(d2, n2),
                        _normalized=True)._monic()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc2(self.ctx, _pneg(self.num), dict(self.den), _normalized=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc2(self.ctx, dict(self.den), dict(self.num),
                        _normalized=True)._monic()

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
        return (not self.num or self.num.keys() == {(0, 0)}) and self.den.keys() == {(0, 0)}

    def constant_value(self) -> FieldElem | None:
        if not self.is_constant():
            return None
        if not self.num:
            return self.ctx.field.zero()
        return self.num[(0, 0)]

    def partial(self, axis: int) -> RatFunc2:
        """Partial derivative with respect to variable 0 or 1."""
        dn = _ppartial(self.num, axis, self.ctx.field)
        dd = _ppartial(self.den, axis, self.ctx.field)
        num = _padd(_pmul(dn, self.den), _pneg(_pmul(self.num, dd)))
        return RatFunc2(self.ctx, num, _pmul(self.den, self.den))

    def subst_powers(self, e1, e2) -> RatFunc2:
        """Substitute v1 -> v1^a1 v2^b1 and v2 -> v1^a2 v2^b2 where
        e1 = (a1, b1), e2 = (a2, b2); negative exponents allowed."""
        a1, b1 = e1
        a2, b2 = e2

        def mapped(p):
            return [((a1 * i + a2 * j, b1 * i + b2 * j), c) for (i, j), c in p.items()]

        mn, md = mapped(self.num), mapped(self.den)
        everything = [ij for ij, _ in mn] + [ij for ij, _ in md]
        si = -min(0, min(i for (i, _) in everything))
        sj = -min(0, min(j for (_, j) in everything))

        def collect(terms):
            out = {}
            for (i, j), c in terms:
                ij = (i + si, j + sj)
                out[ij] = out.get(ij, self.ctx.field.zero()) + c
            return _ptrim(out)

        return RatFunc2(self.ctx, collect(mn), collect(md))

    def to_context(self, ctx: FunctionField2) -> RatFunc2:
        """The same function viewed in another context with the same field
        (variable renaming only)."""
        if ctx.field != self.ctx.field:
            raise ValueError("contexts have different coefficient fields")
        return RatFunc2(ctx, dict(self.num), dict(self.den), _normalized=True)

    def __str__(self):
        ns = _pstr(self.num, self.ctx.vars)
        if self.den.keys() == {(0, 0)} and self.den[(0, 0)].is_one():
            return ns
        ds = _pstr(self.den, self.ctx.vars)
        if any(op in ns[1:] for op in "+-"):
            ns = f"({ns})"
        if any(op in ds[1:] for op in "+-*"):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"<{self.ctx.vars[0]},{self.ctx.vars[1]}-ratfunc {self}>"


# ---------------------------------------------------------------------------
# derivations

class Derivation:
    """A k-derivation of k(v1, v2), determined by its images of the two
    context variables; image_of_y and image_of_z refer to the first and
    second variable of the context in order."""

    __slots__ = ("ctx", "image_of_y", "image_of_z", "_wy", "_wz", "_e")

    def __init__(self, ctx: FunctionField2, image_of_y: RatFunc2, image_of_z: RatFunc2):
        if image_of_y.ctx != ctx or image_of_z.ctx != ctx:
            raise ValueError("derivation images must live in the given context")
        self.ctx = ctx
        self.image_of_y = image_of_y
        self.image_of_z = image_of_z
        # E = lcm of the image denominators, and E*D(v1), E*D(v2) as polynomials
        field = ctx.field
        ey, ez = image_of_y.den, image_of_z.den
        self._e = _pmul(ey, _pdivexact(ez, _pgcd(ey, ez, field), field))
        self._wy = _pmul(image_of_y.num, _pdivexact(self._e, ey, field))
        self._wz = _pmul(image_of_z.num, _pdivexact(self._e, ez, field))

    def _scaled(self, p):
        """E*D(p) for a polynomial p, itself a polynomial."""
        field = self.ctx.field
        return _padd(_pmul(_ppartial(p, 0, field), self._wy),
                     _pmul(_ppartial(p, 1, field), self._wz))

    def __call__(self, f: RatFunc2) -> RatFunc2:
        """D(n/d) = N / (E d^2) with N = E*D(n)*d - n*E*D(d), reduced.

        A prime p that divides N and E d^2 divides d or E.  Against d two
        operand-size gcds suffice: with e = v_p(d) and m = v_p(N),
        g1 = gcd(N, d) takes min(m, e) factors p, and g2 = gcd(N/g1, g1)
        takes min(m - e, e) more when m > e, so g1*g2 = gcd(N, d^2) and
        the denominator left is (d/g1)*(d/g2).  (Repeating g <- gcd(N, g)
        beyond g2 would take more factors than d^2 holds when m > 2e.)
        One more gcd cancels against E, which is 1 unless an image has a
        denominator.  d, the gcds and E are monic, so the denominator is."""
        if f.ctx != self.ctx:
            raise ValueError("element from a different context")
        field = self.ctx.field
        n, d = f.num, f.den
        if _is_one(d):
            num, den = self._scaled(n), d
        else:
            num = _padd(_pmul(self._scaled(n), d), _pneg(_pmul(n, self._scaled(d))))
            if not num:
                return self.ctx.zero()
            g1 = _pgcd(num, d, field)
            num = _pdivexact(num, g1, field)
            g2 = _pgcd(num, g1, field)
            num = _pdivexact(num, g2, field)
            den = _pmul(_pdivexact(d, g1, field), _pdivexact(d, g2, field))
        if not num:
            return self.ctx.zero()
        if not _is_one(self._e):
            num, e = RatFunc2._cancel(num, self._e, field)
            den = _pmul(den, e)
        return RatFunc2(self.ctx, num, den, _normalized=True)

    def iterate(self, f: RatFunc2, n: int) -> RatFunc2:
        for _ in range(n):
            f = self(f)
        return f

    def negate(self) -> "Derivation":
        return Derivation(self.ctx, -self.image_of_y, -self.image_of_z)

    def __eq__(self, other):
        return (isinstance(other, Derivation) and self.ctx == other.ctx
                and self.image_of_y == other.image_of_y
                and self.image_of_z == other.image_of_z)

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
