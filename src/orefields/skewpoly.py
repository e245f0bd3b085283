"""Skew polynomial arithmetic for an Ore extension k(v1,v2)[x; D], with
the ring surface (`OreSum`), the one product dispatcher (`_skew_product`)
and the one Ore product loop, which the series of `orefields.pdo` share.

Elements are finite sums sum_i f_i * x^i with left coefficients f_i in
k(v1, v2) and the twisted multiplication x*f = f*x + D(f).  Powers of x
are pushed past coefficients with the iterated-derivation binomial
expansion (Ore 1933),

    x^i g = sum_{s >= 0} C(i, s) D^s(g) x^(i - s),

so products are exact.  For i >= 0 the sum ends at s = i.  For i < 0
C(i, s) is the generalized binomial, the sum is infinite, and the product
is that of the completion k(v1, v2)((u; delta)): series enter
`_skew_product` through the dictionary x = u^-1, D = -delta, and are cut
at a floor on the x-degree.  In characteristic l only the orders s with C(i, s) != 0
mod l are formed, read off the base-l digits of i by Lucas' theorem when
i >= 0, and D^s(g) is taken only at those orders, each from the one
before by `Derivation.power`, until it vanishes.  Where D scales each
term of a Laurent coefficient g (the family g_alpha), that is one step,
lambda^s times each term, not a chain of derivatives.  The terms of each
power of x, coefficient products with binomial weights, are summed at
once by `RatFunc2.weighted_sum`, so each coefficient is reduced once.
A factor that is a constant of k (the 1 of x or of u, the constants of
x - gamma) is folded into the binomial weight, with no product formed.
So is the eigenvalue of a Laurent monomial g under such a D: D^s(g) =
lambda^s g, so f_i g is formed once for all orders s and lambda^s, which
the derivation caches, joins the weight of each, and where lambda = 0
only order 0 is listed.  A commutator fg - gf leaves out the order-0
terms f_i g_j x^(i+j) of both products, which are equal because
k(v1, v2) is commutative, and sums the terms of fg with those of gf,
signs flipped, once per power of x; where f or g is a coefficient, its
product with the other from the left has no other terms, and is not
scanned.

Where every coefficient of both factors is a constant of k (x^l - x, the
central element c, the translates x - i gamma), D kills them all, so the
factors commute and only order 0 survives.  That product is formed on the
raw reps of k: each coefficient sum f_i g_j x^(i+j) is added up with the
field's own product and sum, then made one constant of k(v1, v2), with no
product or reduction of fractions (`_kx_product`).  In the loop, the test
for it rides on the one for constant g_j, so the terms of a series
inverse, whose coefficients are not constant, pay no extra scan.

Coefficients are read only through the surface of `RatFunc2`: the raw rep
of a constant by `RatFunc2.constant_rep`, and a product with a constant,
which scales the numerator over the same denominator, by
`RatFunc2.scaled`.  No dict of a fraction is read or built here.

Products and other operations that have closed forms from the defining
relations of the extension do not enter the loop, for skew polynomials
and series alike:

- a product whose right factor has constant coefficients g_j (x^l - x,
  u, u - c, a constant c of k) has only order 0, since D kills each g_j:
  f_i g_j at x-degree i + j.  One term c x^j scales each f_i by c
  (`RatFunc2.scaled`), with no sum; where every f_i is a constant too,
  the product is formed on raw reps as above; otherwise the terms of each
  x-degree are summed once;
- a product with a constant c of k on the left is g's coefficients
  scaled by c, since D(c) = 0 makes c central; an int, a Fraction or a
  field element, on either side of a skew polynomial, is read by the
  field, with no coefficient or skew polynomial built for it;
- a coefficient c on the left multiplies each coefficient:
  c sum g_j x^j = sum (c g_j) x^j, a constant g_j scaling c;
- the commutator of f0 + f1 x with a coefficient c is f1 D(c), since f0
  and c commute and x c - c x = D(c): one application of D, with a
  constant f1 joined to the sign as one weight;
- a power of a polynomial whose coefficients are all constants is taken
  in k[x], which is commutative: square and multiply on
  {degree: raw rep} dicts, the sums of each product made with the field's
  accumulator, as in `_kx_product`, and wrapped as coefficients once; in
  characteristic l, f^l is the Frobenius sum f_i^l x^(i l), so the
  exponent is taken by its base-l digits.

Where D is a scaling derivation (the family g_alpha) and g is a Laurent
monomial, g is an eigenvector, D(g) = lambda g with lambda read from the
derivation's cache, and the defining relation reads x g = g (x + lambda).
Three more closed forms follow, with D never applied:

- f(x) g = g f(x + lambda) for f with constant coefficients: the
  coefficients of f(x + lambda), sums of f_i C(i, s) lambda^s at the
  orders Lucas' theorem keeps, are formed on raw reps with the field's
  accumulator and made canonical once, and g is scaled once per power of
  x (`_shifted`); the commutator [f, g] = g (f(x + lambda) - f(x)) is the
  same sum from order 1, in either order of the arguments;
- [f0 + f1 x, g] = f1 lambda g for a constant f1: one product in k, which
  scales g, and g itself where f1 lambda = 1, as for [x', y'] = y' in a
  monomial morphism;
- g on the left is the coefficient case above.

The products of x^i with y and z in the shift identities, the commutators
of the center and centralizer checks with y and z, and the brackets of
every monomial morphism take these forms, and so do the products of the
embedded generators u, Y and Z in the commutation identities of the
series.  A series product fixes its precision N before it calls
`_skew_product` with the floor -N on the x-degree, and each closed form
keeps only the x-degrees at or above the floor.  In `_shifted`, whose f_i
may sit at negative x-degrees i, (x + lambda)^i is an infinite sum, and
its orders stop at s = i + j - floor, so u^k is cut at the precision.

Sums and differences add the coefficients of each power of x with one
`RatFunc2.weighted_sum`, the subtrahend's weighted by -1, with no negated
copy of it built.
"""

from __future__ import annotations

import math

from .fields import _coeff_term, _frobenius_power, _join_terms, _power, _settled
from .ratfunc import Derivation, RatFunc2


def binomial_orders(i: int, ell: int, lowest: int = 0, top: int | None = None):
    """The pairs (s, C(i, s)) with lowest <= s <= min(i, top) and C(i, s)
    nonzero in characteristic ell, in ascending s, the binomial taken mod
    ell.  By Lucas' theorem those s are the ones whose every base-ell digit
    is at most the digit of i, so they are read off the digits of i, not
    found by a scan over 0..i.

    For i < 0, C(i, s) = (-1)^s C(s - i - 1, s) is nonzero for every s
    over the integers, so top is required; the orders up to it are found
    by a scan, top being bounded by a series precision."""
    if i < 0:
        orders = ((s, -math.comb(s - i - 1, s) if s % 2 else math.comb(s - i - 1, s))
                  for s in range(lowest, top + 1))
        return [(s, b % ell if ell else b) for s, b in orders if not ell or b % ell]
    top = i if top is None else min(i, top)
    if top < lowest:
        return []
    if not ell:
        return [(s, math.comb(i, s)) for s in range(lowest, top + 1)]
    digits = []                     # base-ell digits of i, lowest first
    while i:
        i, d = divmod(i, ell)
        digits.append(d)
    # (s, C(i, s) mod ell) over the digits seen so far, ascending in s
    orders, place = [(0, 1)], 1
    for d in digits:
        orders = [(s + t * place, b * math.comb(d, t) % ell)
                  for t in range(d + 1) for s, b in orders if s + t * place <= top]
        place *= ell
    return [(s, b) for s, b in orders if s >= lowest]


class OreSum:
    """What skew polynomials and series share: sum_i f_i x^i (or u^i) over
    one derivation, stored as {exponent: coefficient} with no zero values,
    coerced, added, negated, multiplied from the right and raised to
    powers alike.  A subclass gives `_like(coeffs, other)`, an element of
    its own class with those coefficients (a series takes the weaker
    precision of self and other), its own `__mul__` and `__eq__`, and the
    nouns of its error messages; a series also gives `_top(other)`, the
    largest exponent that `_like(coeffs, other)` keeps."""

    __slots__ = ("derivation", "coeffs")

    @property
    def ctx(self):
        return self.derivation.ctx

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.derivation != self.derivation:
                raise ValueError(f"{self._noun} over different derivations")
            return other
        if isinstance(other, RatFunc2):
            if other.ctx != self.ctx:
                raise ValueError("coefficient from a different context")
            return self._like({0: other})
        if self.ctx.field.try_coerce(other) is None:
            return None
        return self._like({0: self.ctx.const(other)})

    def _top(self, other):
        return math.inf

    def coefficient(self, i: int) -> RatFunc2:
        return self.coeffs.get(i, self.ctx.zero())

    def __add__(self, other):
        return self._plus(other, None)

    def __sub__(self, other):
        K = self.ctx.field
        return self._plus(other, K._neg(K._one_rep()))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _plus(self, other, w):
        """self + other for w = None, self - other for w the raw rep of -1:
        each coefficient that both hold is one `RatFunc2.weighted_sum`, the
        weight w on other's, with no negated copy of other built.  A term
        of other past `_top` is skipped, since the result drops it."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        top = self._top(o)
        out = dict(self.coeffs)
        for i, c in o.coeffs.items():
            if i > top:
                continue
            s = out.get(i)
            if s is None:
                out[i] = c if w is None else -c
                continue
            s = RatFunc2.weighted_sum([(s, None), (c, w)])
            if s.is_zero():
                del out[i]
            else:
                out[i] = s
        return self._like(out, o)

    def __neg__(self):
        return self._like({i: -c for i, c in self.coeffs.items()})

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"{self._adjective} powers take nonnegative integer exponents")
        return _power(self, n, self._like({0: self.ctx.one()}))


class SkewPoly(OreSum):
    """sum_i f_i x^i, stored as {degree: coefficient} with no zero values."""

    __slots__ = ()
    _noun, _adjective = "skew polynomials", "skew"

    def __init__(self, derivation: Derivation, coeffs=None):
        self.derivation = derivation
        cleaned = {}
        for i, c in (coeffs or {}).items():
            if i < 0:
                raise ValueError("skew polynomials have nonnegative x-degrees")
            if not c.is_zero():
                cleaned[i] = c
        self.coeffs = cleaned

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, derivation):
        return cls(derivation, {})

    @classmethod
    def one(cls, derivation):
        return cls(derivation, {0: derivation.ctx.one()})

    @classmethod
    def x(cls, derivation):
        return cls(derivation, {1: derivation.ctx.one()})

    @classmethod
    def from_coeff(cls, derivation, f):
        if not isinstance(f, RatFunc2):
            f = derivation.ctx.const(f)
        return cls(derivation, {0: f})

    # -- helpers ---------------------------------------------------------------
    def _like(self, coeffs, other=None):
        return SkewPoly(self.derivation, coeffs)

    def degree(self):
        return max(self.coeffs) if self.coeffs else -math.inf

    def is_zero(self):
        return not self.coeffs

    # -- ring operations --------------------------------------------------------
    # The shared operations are bound in the class body, not only
    # inherited: the tracer of perfbench/spans.py finds each entry point in
    # the class's own __dict__.
    __add__ = __radd__ = OreSum.__add__
    __sub__, __rsub__, __neg__ = OreSum.__sub__, OreSum.__rsub__, OreSum.__neg__

    def __mul__(self, other):
        D = self.derivation
        if not isinstance(other, (SkewPoly, RatFunc2)):
            return self._times_constant(other)
        return SkewPoly(D, _skew_product(self.coeffs, self._coerce(other).coeffs, D))

    def __rmul__(self, other):
        # other is a coefficient or a constant: a skew polynomial on the
        # left multiplies by its own __mul__
        D = self.derivation
        if not isinstance(other, RatFunc2):
            return self._times_constant(other)
        return SkewPoly(D, _skew_product(self._coerce(other).coeffs, self.coeffs, D))

    def _times_constant(self, other):
        """self scaled by an int, a Fraction or a field element, which is
        central; NotImplemented where k cannot read it."""
        K = self.ctx.field
        w = K.try_coerce(other)
        if w is None:
            return NotImplemented
        return SkewPoly(self.derivation, _scaled(K, self.coeffs, w))

    def __pow__(self, n):
        # constant coefficients commute, so the power is taken in k[x]
        reps = _constants(self.coeffs)
        if reps is None or not isinstance(n, int) or n < 0:
            return OreSum.__pow__(self, n)
        ctx = self.ctx
        return SkewPoly(self.derivation,
                        {k: ctx._const(c) for k, c in _kx_power(ctx.field, reps, n).items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def __str__(self):
        parts = []
        for i in sorted(self.coeffs, reverse=True):
            c = str(self.coeffs[i])
            if i == 0:
                if any(op in c[1:] for op in "+-") and not c.startswith("("):
                    c = f"({c})"
                parts.append(c)
            else:
                parts.append(_coeff_term(c, "x" if i == 1 else f"x^{i}"))
        return _join_terms(parts)

    def __repr__(self):
        return f"<skew {self}>"


def _skew_product(f: dict, g: dict, D: Derivation, floor: int = 0) -> dict:
    """f g for skew polynomials or series given as {x-degree: coefficient},
    at the x-degrees >= floor (a series product passes -N for precision N;
    the default 0 cuts nothing from a product of polynomials).  By a closed
    form where every g_j is a constant (only order 0 survives: f_i g_j at
    x-degree i + j), where f is a constant or one coefficient, or where f
    has constant coefficients and g is an eigenvector term of D
    (`_shifted`); by the Ore product loop otherwise."""
    K = D.ctx.field
    gconst = _constants(g)
    if gconst is not None:
        if len(gconst) == 1:
            # one constant term c x^j: f x^j scaled by c, with no sum
            (j, c), = gconst.items()
            return {i + j: fi.scaled(c) for i, fi in f.items() if i + j >= floor}
        fconst = _constants(f)
        if fconst is not None:
            return {k: D.ctx._const(c) for k, c in _kx_product(K, fconst, gconst, floor).items()}
        one, pending = K._one_rep(), {}
        for j, c in gconst.items():
            w = None if c == one else c
            for i, fi in f.items():
                if i + j >= floor:
                    pending.setdefault(i + j, []).append((fi, w))
        return _summed(pending)
    c = _scalar(K, f)
    if c is not None:
        return _scaled(K, g, c, floor)
    if f.keys() == {0}:
        # a coefficient on the left: c sum g_j x^j = sum (c g_j) x^j
        c = f[0]
        return {j: c * gj if (w := gj.constant_rep()) is None else c.scaled(w)
                for j, gj in g.items() if j >= floor}
    shifted = _shifted(f, g, D, floor=floor)
    return _summed(_terms(f, g, D, {}, 0, floor)) if shifted is None else shifted


def _constants(f: dict):
    """{i: the raw rep of f_i} where every f_i is a constant of k (an
    empty dict for f = 0), None for any other f; the scan stops at the
    first coefficient that is not a constant."""
    out = {}
    for i, c in f.items():
        out[i] = rep = c.constant_rep()
        if rep is None:
            return None
    return out


def _terms(f: dict, g: dict, D: Derivation, pending: dict, lowest: int = 0,
           floor: int = 0, top: float = math.inf, sign: int = 1) -> dict:
    """The terms of sign * f g of order s >= lowest and x-degree k in
    [floor, top], appended to pending[k] as pairs (f_i D^s(g_j), w) for
    `RatFunc2.weighted_sum`, where w is the raw rep of sign * C(i, s), or
    None for 1; where f_i or g_j is a constant c of k, the pair is the
    other factor with weight w c (None for 1), and no product is formed.
    Each x^i g_j is expanded as sum_s C(i, s) D^s(g_j) x^(i - s + j), at
    the orders s whose binomial does not vanish in the characteristic, and
    only at order 0 where every g_j is constant; where every f_i is
    constant too, that order is formed on raw reps (`_kx_product`) and
    appended as one constant per x-degree with weight None.  D^s(g_j) is
    taken only at those orders, each from the one before it by
    `Derivation.power`, not past its first zero and not past the floor.
    Where g_j is an eigenvector of D, D^s(g_j) is not formed: the pair is
    (f_i g_j, w lambda^s), with f_i g_j formed once for all s.  The
    monomial key of g_j (`Derivation.eigenkey`) is taken once, and
    lambda^s is read by it from the derivation's cache at each order; the
    orders stop after 0 where lambda = 0.

    Where every x-degree of f lies in [0, lowest), C(i, s) = 0 for each
    s >= lowest, so there are no terms and nothing is scanned: in a
    commutator with a coefficient c, the half c g."""
    if not f or not g or 0 <= min(f) and max(f) < lowest:
        return pending
    K = D.ctx.field
    # the rep of each constant coefficient, None for the others
    fconst = {i: c.constant_rep() for i, c in f.items()}
    gconst = {j: c.constant_rep() for j, c in g.items()}
    # D kills constants, so against constant g_j only order 0 is listed;
    # all the orders of a dense f of degree near l cost more than the product
    const = None not in gconst.values()
    if const and None not in fconst.values():
        if lowest == 0:
            for k, c in _kx_product(K, fconst, gconst, floor, top).items():
                pending.setdefault(k, []).append((D.ctx._const(c if sign == 1 else K._neg(c)),
                                                  None))
        return pending
    gtop = max(g) - floor
    weights = {i: [(s, None if sign * b == 1 else K._from_int(sign * b))
                   for s, b in binomial_orders(i, K.char, lowest, 0 if const else i + gtop)]
               for i in f}
    needed = sorted({s for row in weights.values() for s, _ in row})
    ftop = max(f) - floor
    for j, gj in g.items():
        # ders[s] = (d, c) with D^s(g_j) = c d, c a raw rep of k or None for
        # 1.  An eigenvector g_j of D keeps d = g_j and c = lambda^s, read by
        # its key; after order 0 it stops where lambda = 0
        key = D.eigenkey(gj)
        lam = None if key is None else D._eigenvalue(key)
        ders, d, at = {}, gj, 0
        for s in needed:
            if s > ftop + j:
                break
            if lam is None:
                d, at = D.power(d, s - at), s
                if d.is_zero():
                    break
                ders[s] = (d, None)
            elif s and K._is_zero(lam):
                break
            else:
                ders[s] = (gj, D._eigenvalue(key, s) if s else None)
        gc = gconst[j]          # a constant g_j has only order 0: D^0(g_j) = g_j
        for i, fi in f.items():
            fc = fconst[i]
            prod = of = None    # fi * d for the d last met: once per (i, j) for an eigenvector
            for s, w in weights[i]:
                k = i - s + j
                e = ders.get(s)
                if k < floor or e is None:
                    break
                if k <= top:
                    d, c = e
                    if c is not None:
                        w = _folded(K, w, c)
                    if fc is not None:
                        term = (d, _folded(K, w, fc))
                    elif gc is not None:
                        term = (fi, _folded(K, w, gc))
                    else:
                        if d is not of:
                            prod, of = fi * d, d
                        term = (prod, w)
                    pending.setdefault(k, []).append(term)
    return pending


def _folded(K, w, c):
    """w c for a weight w (None for 1) and the rep c of a constant, None for 1."""
    wc = c if w is None else K._mul(w, c)
    return None if wc == K._one_rep() else wc


def _kx_product(K, f: dict, g: dict, floor: int = 0, top: float = math.inf) -> dict:
    """The product of f and g in k[x, x^-1], given and returned as
    {degree: raw rep of k}, at the degrees k in [floor, top]: each sum of
    f_i g_j over i + j = k is formed with the field's accumulator
    (`Field._accumulator`) and made canonical once, and the k whose sum is
    0 are left out.  Only the pairs that occur are visited, so a sparse
    factor such as x^l - x costs its number of terms, not its degree."""
    add, mul, canon = K._accumulator()
    sums = {}
    for i, a in f.items():
        for j, b in g.items():
            k = i + j
            if floor <= k <= top:
                ab = mul(a, b)
                sums[k] = add(sums[k], ab) if k in sums else ab
    return _settled(K, canon, sums)


def _shifted(f: dict, g: dict, D: Derivation, lowest: int = 0, sign: int = 1, floor: int = 0):
    """The terms of order s >= lowest and x-degree >= floor of sign * f g,
    where every f_i is a constant of k and g = g_j x^j is one term whose
    g_j is an eigenvector of D, D(g_j) = lambda g_j (`Derivation.eigenkey`);
    None for any other f, g or D.  Then x^i g_j = g_j (x + lambda)^i, so
    f g = g_j f(x + lambda) x^j: the coefficient of x^(k + j) is g_j times
    the sum of sign f_i C(i, s) lambda^s over i - s = k, formed on raw reps
    with the field's accumulator at the orders `binomial_orders` keeps, with
    lambda^s from the derivation's cache, and made canonical once; g_j is
    then scaled once per x-degree.  The orders stop at s = i + j - floor,
    the last whose x-degree is kept: for a series, whose f_i may sit at
    negative x-degrees i, (x + lambda)^i is an infinite sum, cut there at
    the precision.  From order 1 (lowest = 1) that is the commutator
    [f, g] = g_j (f(x + lambda) - f(x)) x^j; where lambda = 0 only order 0
    is listed."""
    if len(g) != 1:
        return None
    (j, gj), = g.items()
    key = D.eigenkey(gj)
    reps = None if key is None else _constants(f)
    if reps is None:
        return None
    K = D.ctx.field
    lam = D._eigenvalue(key)
    cap = 0 if K._is_zero(lam) else math.inf
    add, mul, canon = K._accumulator()
    sums = {}
    for i, a in reps.items():
        for s, b in binomial_orders(i, K.char, lowest, min(cap, i + j - floor)):
            v = mul(a, D._eigenvalue(key, s)) if s else a
            if sign * b != 1:
                v = mul(v, K._from_int(sign * b))
            k = i - s
            sums[k] = add(sums[k], v) if k in sums else v
    return {k + j: gj.scaled(c) for k, c in _settled(K, canon, sums).items()}


def _kx_power(K, f: dict, n: int) -> dict:
    """f^n in k[x] for n >= 0, f given and returned as {degree: raw rep of
    k}, by square and multiply over `_kx_product`.  In characteristic l,
    f^l = sum f_i^l x^(i l) (the Frobenius of a commutative ring), so n is
    taken by its base-l digits d_k: f^n is the product of the powers
    (f^(l^k))^(d_k), each f^(l^k) formed from the one before by the
    field's Frobenius on the coefficients, with no product
    (`fields._frobenius_power`)."""
    ell = K.char
    return _frobenius_power(f, n, ell, {0: K._one_rep()}, lambda a, b: _kx_product(K, a, b),
                            lambda g: {i * ell: K._frobenius(c) for i, c in g.items()})


def _scalar(K, f: dict):
    """The raw rep of c where f = {0: c} is a constant c of k (the zero
    rep where f is empty), None for any other f."""
    if not f:
        return K._zero_rep()
    return f[0].constant_rep() if f.keys() == {0} else None


def _scaled(K, f: dict, w, floor: int = 0) -> dict:
    """{i: f_i w} for a raw rep w of k, at the x-degrees i >= floor: a
    product with a constant."""
    if K._is_zero(w):
        return {}
    return {i: c.scaled(w) for i, c in f.items() if i >= floor}


def _x_bracket(D: Derivation, f1, c, sign: int) -> dict:
    """{0: sign f1 D(c)}, the commutator of f0 + f1 x with a coefficient
    c (negated for sign = -1), or {} where it is 0; f1 or c is None where
    it is 0.  A constant f1 and the sign are one weight of D(c), with no
    product formed; where c is also an eigenvector of D, D(c) = lambda c,
    and that weight times lambda scales c itself, with D not applied."""
    if f1 is None or c is None:
        return {}
    K = D.ctx.field
    w = f1.constant_rep()
    if w is not None:
        if sign != 1:
            w = K._neg(w)
        key = D.eigenkey(c)
        if key is not None:
            lam = D._eigenvalue(key)
            return {} if K._is_zero(lam) else {0: c.scaled(K._mul(w, lam))}
        d = D(c)
        return {} if d.is_zero() else {0: d.scaled(w)}
    d = D(c)
    if d.is_zero():
        return {}
    p = f1 * d
    return {0: p if sign == 1 else -p}


def _summed(pending: dict) -> dict:
    """{k: the sum of pending[k]}, leaving out the k whose terms cancel; a
    single term c w, which is nonzero, is c scaled by w
    (`RatFunc2.scaled`), with no sum formed."""
    out = {}
    for k, terms in pending.items():
        if len(terms) == 1:
            (c, w), = terms
            out[k] = c.scaled(w)
            continue
        c = RatFunc2.weighted_sum(terms)
        if not c.is_zero():
            out[k] = c
    return out


# ---------------------------------------------------------------------------
# operation-style entry points

def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f * g


def skew_pow(f: SkewPoly, n: int) -> SkewPoly:
    return f ** n


def commutator(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """fg - gf, where f or g may be a coefficient.  The order-0 terms
    f_i g_j x^(i+j) of the two products are equal, k(v1, v2) being
    commutative, so neither product forms them.  Where one side is
    f0 + f1 x and the other a coefficient c, that leaves f1 D(c), formed
    directly, with the sign of the side c is on.  Where one side has
    constant coefficients and the other is one term g_j x^j with g_j an
    eigenvector of D, it is g_j (f(x + lambda) - f(x)) x^j (`_shifted`)."""
    if not isinstance(f, SkewPoly):
        if not isinstance(g, SkewPoly):
            raise TypeError("a commutator needs a skew polynomial")
        return -commutator(g, f)
    g = f._coerce(g)
    if g is None:
        raise TypeError("cannot take a commutator with a non-coefficient")
    D = f.derivation
    sides = ((f.coeffs, g.coeffs, 1), (g.coeffs, f.coeffs, -1))
    for a, b, sign in sides:
        if b.keys() <= {0} and a.keys() <= {0, 1}:
            return SkewPoly(D, _x_bracket(D, a.get(1), b.get(0), sign))
    for a, b, sign in sides:
        shifted = _shifted(a, b, D, 1, sign)
        if shifted is not None:
            return SkewPoly(D, shifted)
    pending = _terms(f.coeffs, g.coeffs, D, {}, 1)
    return SkewPoly(D, _summed(_terms(g.coeffs, f.coeffs, D, pending, 1, sign=-1)))


def valuation_v(f: SkewPoly):
    """The canonical valuation v = -deg_x; +infinity for zero."""
    if f.is_zero():
        return math.inf
    return -f.degree()


def is_central_against(f: SkewPoly, gens) -> bool:
    """Whether f commutes with every element of gens.  Commuting with a
    generating set certifies centrality in the generated skewfield."""
    return all(commutator(f, g).is_zero() for g in gens)


def subst_x_shift(f: SkewPoly, gamma) -> SkewPoly:
    """Substitute x -> x - gamma in a polynomial with constant coefficients
    (the automorphism x |-> x - gamma of k(x))."""
    ctx = f.ctx
    for c in f.coeffs.values():
        if not c.is_constant():
            raise ValueError("shift substitution needs constant coefficients")
    x = SkewPoly.x(f.derivation)
    shifted = x - ctx.const(ctx.field.coerce(gamma))
    out = SkewPoly.zero(f.derivation)
    for i, c in f.coeffs.items():
        out = out + shifted ** i * c
    return out
