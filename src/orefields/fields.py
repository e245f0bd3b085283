"""Exact arithmetic in a tower of coefficient fields.

Supported fields: the rationals QQ; prime fields GF(l); finite extensions
GF(l^n) modulo an irreducible polynomial; quadratic extensions QQ(sqrt(d))
with d a squarefree integer (positive or negative); and rational-function
fields K(a) in one transcendental parameter over any of the previous.

Every element is stored in a canonical normal form, so equality is
structural and decidable.  A rational value, an element of QQ or a
component of a QQ(sqrt(d)) pair, is an int exactly when it is integral and
otherwise a Fraction with denominator greater than 1; `_qq` and `_qdiv`
keep it so.  All integer arithmetic is arbitrary precision; there is no
floating point anywhere, so raw reps are never divided with `/`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Invalid field specification, or arithmetic between mixed fields."""


# Miller-Rabin on these bases is exact below the least strong pseudoprime
# to all of them (Sorenson and Webster 2017, Math. Comp. 86).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, ..., 41.  An n at or
    above MR_EXACT_BELOW with no factor among those bases is a FieldError,
    since the test no longer decides it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_EXACT_BELOW:
        raise FieldError(f"{n} is beyond the exact primality bound {MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_core(n: int) -> tuple:
    """n = core * f^2 for n >= 1, with core squarefree; returns (core, f).

    Trial division runs only while p^3 <= n.  The cofactor left then has
    every prime factor above its cube root, so it is 1, a prime, a product
    of two distinct primes or the square of a prime, and only a square is
    not squarefree."""
    core, f = 1, 1
    p = 2
    while p * p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            core *= p
        f *= p ** (e // 2)
        p += 1
    r = math.isqrt(n)
    if r * r == n:
        return core, f * r
    return core * n, f


# ---------------------------------------------------------------------------
# elements

class FieldElem:
    """An element of a Field, kept in the field's canonical normal form."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        # returns a rep, or None to let the reflected operator run
        rep = self.field.try_coerce(other)
        if rep is not None:
            return rep
        if isinstance(other, FieldElem):
            if other.field.try_coerce(self) is not None:
                return None
            raise FieldError(f"mixed fields: {self.field} and {other.field}")
        return None

    def __add__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElem(self.field, self.field._add(self.rep, rep))

    __radd__ = __add__

    def __sub__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElem(self.field, self.field._add(self.rep, self.field._neg(rep)))

    def __rsub__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElem(self.field, self.field._add(rep, self.field._neg(self.rep)))

    def __mul__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        return FieldElem(self.field, self.field._mul(self.rep, rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        if self.field._is_zero(rep):
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.field, self.field._mul(self.rep, self.field._inv(rep)))

    def __rtruediv__(self, other):
        rep = self._coerce(other)
        if rep is None:
            return NotImplemented
        if self.field._is_zero(self.rep):
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.field, self.field._mul(rep, self.field._inv(self.rep)))

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.rep))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _power(self.inverse(), -n, self.field.one())
        return _power(self, n, self.field.one())

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FieldElem(self.field, self.field._inv(self.rep))

    def is_zero(self):
        return self.field._is_zero(self.rep)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            rep = self._coerce(other)
        except FieldError:
            return False
        if rep is None:
            return NotImplemented
        return self.rep == rep

    def __hash__(self):
        return hash((self.field._key(), self.rep))

    def __repr__(self):
        return f"<{self.field}: {self}>"

    def __str__(self):
        return self.field._str(self.rep)


def _power(base, n, one, mul=operator.mul):
    """base^n for n >= 0 by square and multiply, one for n = 0; mul
    multiplies two values (a field's `_mul` for raw reps).  The first
    factor is taken as it is, not multiplied into one."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if result is None else result


# ---------------------------------------------------------------------------
# printing sums of terms

def _coeff_term(s, mono):
    """The term with coefficient string s and monomial mono ("" for 1)."""
    if not mono:
        return s
    if s == "1":
        return mono
    if s == "-1":
        return f"-{mono}"
    if any(op in s[1:] for op in "+-/"):
        s = f"({s})"
    return f"{s}*{mono}"


def _join_terms(parts):
    """Join term strings with "+", except before a term that starts with "-"."""
    if not parts:
        return "0"
    return parts[0] + "".join(t if t.startswith("-") else "+" + t for t in parts[1:])


# ---------------------------------------------------------------------------
# univariate polynomial helpers over a base field K.
# Polynomials are trimmed little-endian tuples of raw reps; () is zero.
# Reps are canonical, so a rep is zero exactly when it equals K._zero_rep().

def _utrim(K, c):
    c = list(c)
    while c and K._is_zero(c[-1]):
        c.pop()
    return tuple(c)


def _uadd(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    zero = K._zero_rep()
    for i, x in enumerate(b):
        if x != zero:
            out[i] = K._add(out[i], x)
    return _utrim(K, out)


def _uneg(K, a):
    return tuple(K._neg(x) for x in a)


def _usub(K, a, b):
    return _uadd(K, a, _uneg(K, b))


def _umul(K, a, b):
    # zero entries are skipped in both factors: a power a^k of the parameter
    # is a tuple of k zeros and a one
    if not a or not b:
        return ()
    zero = K._zero_rep()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                if y != zero:
                    out[i + j] = K._add(out[i + j], K._mul(x, y))
    # the top entry is the product of the two leading coefficients, nonzero
    # over a field, so trimmed factors give a trimmed product
    return tuple(out)


def _uscale(K, a, s):
    # for trimmed a and s != 0 the top entry a[-1] * s is nonzero
    if K._is_zero(s):
        return ()
    return tuple([K._mul(x, s) for x in a])


def _udivmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = K._inv(b[-1])
    db = len(b) - 1
    quo = [K._zero_rep()] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        coeff = K._mul(a[-1], inv_lead)
        quo[da - db] = coeff
        for i in range(len(b)):
            a[da - db + i] = K._add(a[da - db + i], K._neg(K._mul(coeff, b[i])))
        while a and K._is_zero(a[-1]):
            a.pop()
    return _utrim(K, quo), _utrim(K, a)


def _ugcd(K, a, b):
    a, b = _utrim(K, a), _utrim(K, b)
    while b:
        a, b = b, _udivmod(K, a, b)[1]
    return _uscale(K, a, K._inv(a[-1])) if a else ()


def _uxgcd(K, a, b):
    """Extended gcd: returns (g, s, t) with g monic and s*a + t*b = g."""
    r0, r1 = _utrim(K, a), _utrim(K, b)
    s0, s1 = (K._one_rep(),), ()
    t0, t1 = (), (K._one_rep(),)
    while r1:
        q, r = _udivmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _usub(K, s0, _umul(K, q, s1))
        t0, t1 = t1, _usub(K, t0, _umul(K, q, t1))
    if not r0:
        return (), s0, t0
    lead = r0[-1]
    inv = K._inv(lead)
    return _uscale(K, r0, inv), _uscale(K, s0, inv), _uscale(K, t0, inv)


def _ustr(K, c, var):
    parts = []
    for i in range(len(c) - 1, -1, -1):
        if not K._is_zero(c[i]):
            mono = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            parts.append(_coeff_term(K._str(c[i]), mono))
    return _join_terms(parts)


# ---------------------------------------------------------------------------
# reduced fractions n/d, gcd(n, d) = 1 and d monic, over a polynomial
# kernel P with coefficients in K (Henrici 1956, JACM 3; Knuth, TAOCP 2,
# 4.5.1).  P, `_UPoly` below or `ratfunc._PPoly`, names the kernel's add,
# mul, gcd (monic), quo (exact), scale, lead, is_one (of a monic
# polynomial), is_const (of a nonzero polynomial) and str.  Quotients and
# products of monic polynomials are monic, so sums and products of reduced
# fractions need no monic step.

class _UPoly:
    """The univariate kernel on trimmed little-endian tuples."""

    add = _uadd
    mul = _umul
    gcd = _ugcd
    scale = _uscale
    str = _ustr
    lead = operator.itemgetter(-1)

    @staticmethod
    def quo(K, a, b):
        return _udivmod(K, a, b)[0]

    @staticmethod
    def is_one(g):
        return len(g) < 2

    @staticmethod
    def is_const(p):
        return len(p) == 1


def _frac_cancel(P, K, a, b):
    """a and b divided by their gcd, for nonzero a and b; against a
    constant operand the gcd is 1, and no Euclid is run.  Nor is it in the
    univariate kernel against an operand of degree 1, c (t - t0): the gcd
    is t - t0 or 1 as the other operand vanishes at t0 or not, which one
    Horner pass decides (`_linear_cancel`)."""
    if P.is_const(a) or P.is_const(b):
        return a, b
    if P is _UPoly and (len(a) == 2 or len(b) == 2):
        return _linear_cancel(K, a, b)
    g = P.gcd(K, a, b)
    if P.is_one(g):
        return a, b
    return P.quo(K, a, g), P.quo(K, b, g)


def _linear_cancel(K, a, b):
    """`_frac_cancel` on tuples where a or b, say l = c (t - t0), has
    degree 1 and the other, f, degree at least 1.  Ruffini's synthetic
    division of f by t - t0, top coefficient first, leaves f(t0) as its
    last value: nonzero, f and l are coprime and are returned unchanged;
    zero, the gcd is t - t0, l / (t - t0) = c, and f / (t - t0) is the
    quotient the same pass formed."""
    first = len(a) == 2
    lin, f = (a, b) if first else (b, a)
    t0 = K._neg(K._mul(lin[0], K._inv(lin[1])))
    acc = f[-1]
    quo = [acc]
    for c in f[-2::-1]:
        acc = K._add(c, K._mul(acc, t0))
        quo.append(acc)
    if not K._is_zero(quo.pop()):
        return a, b
    quo = tuple(reversed(quo))
    return ((lin[1],), quo) if first else (quo, (lin[1],))


def _frac_monic(P, K, num, den):
    """num/den with both scaled so that den is monic."""
    lead = P.lead(den)
    if lead == K._one_rep():
        return num, den
    inv = K._inv(lead)
    return P.scale(K, num, inv), P.scale(K, den, inv)


def _frac_add(P, K, n1, d1, n2, d2):
    """n1/d1 + n2/d2 reduced, or None where it is 0.  With g = gcd(d1, d2),
    d1 = g d1' and d2 = g d2', the sum is (n1 d2' + n2 d1') / (g d1' d2'),
    and a common factor of that numerator and denominator divides g: one
    more gcd, against g alone, reduces it.  Where d1 or d2 is 1, so is g,
    and no gcd is run."""
    if d1 == d2:
        num = P.add(K, n1, n2)
        return _frac_cancel(P, K, num, d1) if num else None
    g = d1 if P.is_one(d1) else d2 if P.is_one(d2) else P.gcd(K, d1, d2)
    trivial = P.is_one(g)
    if not trivial:
        d1, d2 = P.quo(K, d1, g), P.quo(K, d2, g)
    num = P.add(K, P.mul(K, n1, d2), P.mul(K, n2, d1))
    if not num:
        return None
    if not trivial:
        num, g = _frac_cancel(P, K, num, g)
    return num, P.mul(K, P.mul(K, g, d1), d2)


def _frac_mul(P, K, n1, d1, n2, d2):
    """n1/d1 * n2/d2 reduced by cross-cancellation: each numerator against
    the other denominator, never a gcd of the full products."""
    n1, d2 = _frac_cancel(P, K, n1, d2)
    n2, d1 = _frac_cancel(P, K, n2, d1)
    return P.mul(K, n1, n2), P.mul(K, d1, d2)


def _frac_str(P, K, num, den, var):
    """The string n/d, or n alone where d = 1; a numerator with a sign or a
    term after its first character, and a denominator with a sign, a term
    or a product, are parenthesised."""
    ns = P.str(K, num, var)
    if P.is_one(den):
        return ns
    ds = P.str(K, den, var)
    if any(op in ns[1:] for op in "+-"):
        ns = f"({ns})"
    if any(op in ds[1:] for op in "+-*"):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ---------------------------------------------------------------------------
# field classes

def _qq(x):
    """The canonical rational rep of an int or Fraction x: an int when x is
    integral, otherwise the Fraction itself, so that integral values add
    and multiply as ints, with no gcd."""
    if x.__class__ is int or x.denominator != 1:
        return x
    return x.numerator


def _qdiv(a, b):
    """a / b as a canonical rational rep, for int or Fraction a and b != 0.
    Raw rational reps are never divided with `/`, which gives a float on
    two ints."""
    return _qq(Fraction(a, b))


class Field:
    """Base class.  Subclasses implement payload-level arithmetic on reps."""

    char = 0

    # payload interface -----------------------------------------------------
    def _zero_rep(self):
        raise NotImplementedError

    def _one_rep(self):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _pow(self, a, n):
        return _power(a, n, self._one_rep(), self._mul)

    def _homographic(self, a, n, q, m, r):
        """(n a + q) / (m a + r), ZeroDivisionError where m a + r = 0."""
        den = self._add(self._mul(a, self._from_int(m)), self._from_int(r))
        if self._is_zero(den):
            raise ZeroDivisionError("homographic denominator vanishes")
        num = self._add(self._mul(a, self._from_int(n)), self._from_int(q))
        return self._mul(num, self._inv(den))

    def _accumulator(self):
        """(add, mul, canon) for sums of products that are reduced once
        (delayed reduction): add and mul take reps or values they returned,
        and canon maps such a value to its canonical rep.  QQ and GF(l) add
        and multiply natively and reduce with `_qq` or `x % l`; here add and
        mul are `_add` and `_mul`, whose values are canonical, and canon is
        None."""
        return self._add, self._mul, None

    def _frobenius(self, a):
        # a^l in characteristic l; see `frobenius`
        return self._pow(a, self.char)

    def _is_zero(self, a):
        raise NotImplementedError

    def _from_int(self, n):
        raise NotImplementedError

    def _from_fraction(self, f):
        return None

    def _lift(self, elem):
        # lift an element of another field into this one, or None
        return None

    def _str(self, a):
        return str(a)

    def _key(self):
        raise NotImplementedError

    # public surface ---------------------------------------------------------
    def element(self, rep):
        return FieldElem(self, rep)

    def zero(self):
        return FieldElem(self, self._zero_rep())

    def one(self):
        return FieldElem(self, self._one_rep())

    def from_int(self, n: int):
        return FieldElem(self, self._from_int(n))

    def try_coerce(self, value):
        if isinstance(value, FieldElem):
            if value.field == self:
                return value.rep
            return self._lift(value)
        if isinstance(value, bool):
            return None
        if isinstance(value, int):
            return self._from_int(value)
        if isinstance(value, Fraction):
            return self._from_fraction(value)
        return None

    def coerce(self, value) -> FieldElem:
        rep = self.try_coerce(value)
        if rep is None:
            raise FieldError(f"cannot interpret {value!r} in {self}")
        return FieldElem(self, rep)

    def in_prime_subfield(self, rep) -> bool:
        raise NotImplementedError

    def prime_subfield_value(self, rep):
        """The element as a value of the prime field, else None: in char 0
        the canonical rational rep (an int when integral, else a Fraction),
        in char l an int in [0, l)."""
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())


class RationalField(Field):
    """The rational numbers, elements stored in the canonical rational rep:
    an int when the value is integral, otherwise a Fraction whose
    denominator is greater than 1 (see `_qq`)."""

    char = 0

    def _zero_rep(self):
        return 0

    def _one_rep(self):
        return 1

    def _add(self, a, b):
        return _qq(a + b)

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return _qq(a * b)

    def _inv(self, a):
        return _qdiv(1, a)

    def _accumulator(self):
        return operator.add, operator.mul, _qq

    def _is_zero(self, a):
        return a == 0

    def _from_int(self, n):
        return _qq(n)

    def _from_fraction(self, f):
        return _qq(f)

    def in_prime_subfield(self, rep):
        return True

    def prime_subfield_value(self, rep):
        return rep

    def _key(self):
        return ("QQ",)

    def __str__(self):
        return "QQ"


class PrimeField(Field):
    """GF(l) for prime l, elements stored as ints in [0, l)."""

    def __init__(self, ell: int):
        if not is_prime(ell):
            raise FieldError(f"characteristic {ell} is not prime")
        self.char = ell

    def _zero_rep(self):
        return 0

    def _one_rep(self):
        return 1

    def _add(self, a, b):
        return (a + b) % self.char

    def _neg(self, a):
        return (-a) % self.char

    def _mul(self, a, b):
        return (a * b) % self.char

    def _inv(self, a):
        return pow(a, -1, self.char)

    def _accumulator(self):
        return operator.add, operator.mul, self.char.__rmod__    # x -> x % l

    def _frobenius(self, a):
        return a

    def _is_zero(self, a):
        return a == 0

    def _from_int(self, n):
        return n % self.char

    def _from_fraction(self, f):
        if f.denominator % self.char == 0:
            return None
        return (f.numerator * pow(f.denominator, -1, self.char)) % self.char

    def in_prime_subfield(self, rep):
        return True

    def prime_subfield_value(self, rep):
        return rep

    def _key(self):
        return ("GF", self.char)

    def __str__(self):
        return f"GF({self.char})"


def _poly_is_irreducible(base: PrimeField, poly) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    poly = _utrim(base, poly)
    n = len(poly) - 1
    if n < 1:
        return False
    if not base._is_zero(poly[-1]) and poly[-1] != 1:
        return False
    ell = base.char
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(ell), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _udivmod(base, poly, divisor)[1]:
                return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(ell: int, n: int) -> tuple:
    """Lexicographically least monic irreducible of degree n over GF(l).

    Coefficient tuples (a_{n-1}, ..., a_0) are compared in that order, so
    the result is deterministic across runs.
    """
    base = PrimeField(ell)
    for coeffs in itertools.product(range(ell), repeat=n):
        poly = tuple(reversed(coeffs)) + (1,)
        if _poly_is_irreducible(base, poly):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {n} over GF({ell})")


# the largest l^n an ExtensionField accepts.  Two costs grow with it: the
# search for the defining polynomial, which trial-divides by the sum over
# d <= n/2 of l^d monic divisors, and the orbit witness of
# `orbits.valued_iso_classify`, which tries up to l^2 <= l^n kernel
# vectors.  On a 2-vCPU x86_64 VM at l^n near 10^6 the first took 0.1 s or
# less for every n from 2 to 19, and all l^2 tries at l = 997 took 0.44 s
MAX_EXTENSION_ORDER = 10**6


class ExtensionField(Field):
    """GF(l^n), elements stored as length-n tuples of ints (ascending powers
    of the generator w, reduced modulo the defining polynomial)."""

    def __init__(self, ell: int, degree: int, modulus=None):
        if not is_prime(ell):
            raise FieldError(f"characteristic {ell} is not prime")
        if degree < 2:
            raise FieldError("extension degree must be at least 2")
        # 2^degree > the bound from this degree on, so l^degree is not formed
        if degree >= MAX_EXTENSION_ORDER.bit_length() or ell ** degree > MAX_EXTENSION_ORDER:
            raise FieldError(f"GF({ell}^{degree}) has more than {MAX_EXTENSION_ORDER} elements")
        self.char = ell
        self.degree = degree
        self.base = PrimeField(ell)
        if modulus is None:
            # irreducible by construction: certified when it was found
            modulus = least_irreducible(ell, degree)
        else:
            modulus = tuple(c % ell for c in modulus)
            if len(_utrim(self.base, modulus)) - 1 != degree:
                raise FieldError("defining polynomial has the wrong degree")
            if modulus[-1] != 1:
                raise FieldError("defining polynomial must be monic")
            if not _poly_is_irreducible(self.base, modulus):
                raise FieldError("defining polynomial is reducible")
        self.modulus = modulus

    def _pad(self, c):
        return tuple(c) + (0,) * (self.degree - len(c))

    def _zero_rep(self):
        return (0,) * self.degree

    def _one_rep(self):
        return self._pad((1,))

    def _add(self, a, b):
        ell = self.char
        return tuple((x + y) % ell for x, y in zip(a, b))

    def _neg(self, a):
        ell = self.char
        return tuple((-x) % ell for x in a)

    def _mul(self, a, b):
        # schoolbook product on the int tuples, then x^i for i >= n is
        # replaced by -x^(i-n) * (modulus - x^n), from the top down
        ell, n, mod = self.char, self.degree, self.modulus
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i] % ell
            if c:
                for j in range(n):
                    prod[i - n + j] -= c * mod[j]
        return tuple(c % ell for c in prod[:n])

    def _inv(self, a):
        at = _utrim(self.base, a)
        if not at:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _uxgcd(self.base, at, self.modulus)
        if len(g) != 1:
            raise FieldError("element not invertible; modulus reducible?")
        return self._pad(_uscale(self.base, s, self.base._inv(g[0])))

    def _is_zero(self, a):
        return all(x == 0 for x in a)

    def _from_int(self, n):
        return self._pad((n % self.char,))

    def _from_fraction(self, f):
        r = self.base._from_fraction(f)
        return None if r is None else self._pad((r,))

    def _lift(self, elem):
        if isinstance(elem.field, PrimeField) and elem.field.char == self.char:
            return self._pad((elem.rep,))
        return None

    def gen(self):
        return FieldElem(self, self._pad((0, 1)))

    def in_prime_subfield(self, rep):
        return all(x == 0 for x in rep[1:])

    def prime_subfield_value(self, rep):
        return rep[0] if self.in_prime_subfield(rep) else None

    def all_elements(self):
        for coeffs in itertools.product(range(self.char), repeat=self.degree):
            yield FieldElem(self, coeffs)

    def _str(self, a):
        return _ustr(self.base, _utrim(self.base, a), "w")

    def _key(self):
        return ("GF", self.char, self.degree, self.modulus)

    def __str__(self):
        return f"GF({self.char}^{self.degree})"


# squarefree_core trial-divides up to the cube root of |d|, about 10^4 steps
# at the bound
MAX_RADICAND = 10**12


class QuadraticField(Field):
    """QQ(sqrt(d)) for a squarefree integer d (d < 0 allowed), elements
    stored as pairs (a, b) meaning a + b*sqrt(d), each component in the
    canonical rational rep of RationalField."""

    char = 0

    def __init__(self, d: int):
        if d in (0, 1):
            raise FieldError("radicand must not be 0 or 1")
        if abs(d) > MAX_RADICAND:
            raise FieldError(f"radicand {d} exceeds the bound {MAX_RADICAND} in absolute value")
        if squarefree_core(abs(d))[1] != 1:
            raise FieldError(f"radicand {d} is not squarefree")
        self.d = d

    def _zero_rep(self):
        return (0, 0)

    def _one_rep(self):
        return (1, 0)

    def _add(self, a, b):
        return (_qq(a[0] + b[0]), _qq(a[1] + b[1]))

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (_qq(a[0] * b[0] + a[1] * b[1] * self.d), _qq(a[0] * b[1] + a[1] * b[0]))

    def _inv(self, a):
        nrm = a[0] * a[0] - a[1] * a[1] * self.d
        if nrm == 0:
            raise ZeroDivisionError("inverse of zero")
        return (_qdiv(a[0], nrm), _qdiv(-a[1], nrm))

    def _is_zero(self, a):
        return a[0] == 0 and a[1] == 0

    def _from_int(self, n):
        return (_qq(n), 0)

    def _from_fraction(self, f):
        return (_qq(f), 0)

    def gen(self):
        return FieldElem(self, (0, 1))

    def conjugate(self, elem: FieldElem) -> FieldElem:
        return FieldElem(self, (elem.rep[0], -elem.rep[1]))

    def in_prime_subfield(self, rep):
        return rep[1] == 0

    def prime_subfield_value(self, rep):
        return rep[0] if rep[1] == 0 else None

    def _str(self, a):
        ra, rb = a
        if rb == 0:
            return str(ra)
        root = f"sqrt({self.d})"
        if rb == 1:
            s = root
        elif rb == -1:
            s = f"-{root}"
        else:
            rbs = str(rb)
            if "/" in rbs or rb < 0:
                rbs = f"({rbs})"
            s = f"{rbs}*{root}"
        if ra == 0:
            return s
        return f"{ra}+{s}" if not s.startswith("-") else f"{ra}{s}"

    def _key(self):
        return ("quad", self.d)

    def __str__(self):
        return f"QQ(sqrt({self.d}))"


class ParameterField(Field):
    """K(a): rational functions in one transcendental parameter over a base
    field K.  Reps are pairs (num, den) of trimmed little-endian tuples of
    base reps, with den monic and gcd(num, den) = 1.

    A constant c of K is ((c,), (1,)), and is worked on through its base
    rep, with no polynomial kernel: a factor equal to one returns the other
    operand, and the product or sum of two constants, and the power or
    inverse of one, is one operation of K.

    A gcd is computed only where a common factor can occur.  When one
    operand is a nonzero constant c of K, or both denominators are 1, the
    product c*n over d (resp. n1*n2) and the sum n1 + n2 over 1 are
    already reduced with a monic denominator, so they are returned as they
    are; that rep is the canonical one, because it is unique.  So are
    powers n^s / d^s (`_pow`), and a homography of an element by a matrix
    whose determinant is nonzero in K needs only the monic step
    (`_homographic`).  The cancel step of products and sums runs no Euclid
    against an operand of degree 1 (`_linear_cancel`)."""

    def __init__(self, base: Field):
        if isinstance(base, ParameterField):
            raise FieldError("only one transcendental parameter is supported")
        self.base = base
        self.char = base.char
        one = (base._one_rep(),)
        self._zero, self._one = ((), one), (one, one)

    def _zero_rep(self):
        return self._zero

    def _one_rep(self):
        return self._one

    def _add(self, a, b):
        K = self.base
        n1, d1 = a
        n2, d2 = b
        if not n1:
            return b
        if not n2:
            return a
        if len(d1) == 1 and len(d2) == 1:
            if len(n1) == 1 and len(n2) == 1:
                c = K._add(n1[0], n2[0])
                return self._zero if K._is_zero(c) else ((c,), d1)
            return (_uadd(K, n1, n2), d1)
        return _frac_add(_UPoly, K, n1, d1, n2, d2) or self._zero

    def _neg(self, a):
        return (_uneg(self.base, a[0]), a[1])

    def _mul(self, a, b):
        one = self._one
        if a == one:
            return b
        if b == one:
            return a
        K = self.base
        n1, d1 = a
        n2, d2 = b
        if not n1 or not n2:
            return self._zero
        if len(d1) == 1 and len(n1) == 1:
            if len(d2) == 1 and len(n2) == 1:
                # no zero divisors: the product of two constants is nonzero
                return ((K._mul(n1[0], n2[0]),), d1)
            return (_uscale(K, n2, n1[0]), d2)
        if len(d2) == 1 and len(n2) == 1:
            return (_uscale(K, n1, n2[0]), d1)
        if len(d1) == 1 and len(d2) == 1:
            return (_umul(K, n1, n2), d1)
        return _frac_mul(_UPoly, K, n1, d1, n2, d2)

    def _inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of zero")
        if len(num) == 1 and len(den) == 1:
            return ((self.base._inv(num[0]),), den)
        return _frac_monic(_UPoly, self.base, den, num)   # already coprime

    def _frobenius(self, a):
        # n/d -> n^sigma(a^l) / d^sigma(a^l); see `frobenius`
        K, ell = self.base, self.char
        zero = K._zero_rep()

        def spread(p):
            out = [zero] * (ell * (len(p) - 1) + 1) if p else []
            for i, c in enumerate(p):
                if c != zero:
                    out[i * ell] = K._frobenius(c)
            return tuple(out)

        return (spread(a[0]), spread(a[1]))

    def _pow(self, a, n):
        # a = n/d with gcd(n, d) = 1, so gcd(n^s, d^s) = 1 and d^s is monic:
        # a power of a, and a product of two, is taken numerator by numerator
        # and denominator by denominator, with no gcd.  In characteristic l,
        # a^n = prod_k sigma_k(a)^(d_k) over the base-l digits d_k of n, with
        # sigma_k(a) = a^(l^k) by substitution.  A nonzero constant c of K
        # gives c^n in K
        K, ell = self.base, self.char
        if len(a[0]) == 1 and len(a[1]) == 1:
            return ((K._pow(a[0][0], n),), a[1])

        def mul(x, y):
            return (_umul(K, x[0], y[0]), _umul(K, x[1], y[1]))
        if not ell:
            return _power(a, n, self._one, mul)
        out = None
        while n:
            n, d = divmod(n, ell)
            if d:
                ad = _power(a, d, self._one, mul)
                out = ad if out is None else mul(out, ad)
            if n:
                a = self._frobenius(a)
        return self._one if out is None else out

    def _homographic(self, a, n, q, m, r):
        # a = p/s with gcd(p, s) = 1, so (n a + q) / (m a + r) = A / B with
        # A = n p + q s and B = m p + r s.  Where det = n r - q m is nonzero
        # in K, a common factor of A and B divides r A - q B = det p and
        # n B - m A = det s, hence gcd(p, s) = 1: A / B is reduced, and only
        # the monic step is left (if A = 0, B divides p and s and is a
        # constant).  Where det vanishes in K the general path reduces.
        K = self.base
        if K._is_zero(K._from_int(n * r - q * m)):
            return Field._homographic(self, a, n, q, m, r)
        p, s = a

        def comb(u, v):
            return _uadd(K, _uscale(K, p, K._from_int(u)), _uscale(K, s, K._from_int(v)))
        den = comb(m, r)
        if not den:
            raise ZeroDivisionError("homographic denominator vanishes")
        return _frac_monic(_UPoly, K, comb(n, q), den)

    def _is_zero(self, a):
        return not a[0]

    def _constant(self, r):
        K = self.base
        return ((r,) if not K._is_zero(r) else (), (K._one_rep(),))

    def _from_int(self, n):
        return self._constant(self.base._from_int(n))

    def _from_fraction(self, f):
        r = self.base._from_fraction(f)
        return None if r is None else self._constant(r)

    def _lift(self, elem):
        rep = self.base.try_coerce(elem)
        return None if rep is None else self._constant(rep)

    def gen(self):
        K = self.base
        return FieldElem(self, ((K._zero_rep(), K._one_rep()), (K._one_rep(),)))

    def in_prime_subfield(self, rep):
        num, den = rep
        if len(den) != 1 or len(num) > 1:
            return False
        return not num or self.base.in_prime_subfield(num[0])

    def prime_subfield_value(self, rep):
        if not self.in_prime_subfield(rep):
            return None
        num, _ = rep
        if not num:
            return self.base.prime_subfield_value(self.base._zero_rep())
        return self.base.prime_subfield_value(num[0])

    def _str(self, a):
        return _frac_str(_UPoly, self.base, *a, "a")

    def _key(self):
        return ("param", self.base._key())

    def __str__(self):
        return f"{self.base}(a)"


# ---------------------------------------------------------------------------
# field descriptions and element-level operations

class ValueRecord:
    """Base of the immutable records: equal and hashed by the tuple that
    `_fields` returns, with assignment and deletion raising
    AttributeError.  A subclass declares its fields in __slots__ and sets
    each one in __init__ through object.__setattr__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")


class FieldSpec(ValueRecord):
    """Describes one member of the supported tower.

    characteristic: 0 or a prime l.
    ext_degree / ext_poly: finite extension GF(l^n); poly optional
        (ascending coefficients, monic), defaults to the lexicographically
        least irreducible of that degree.
    sqrt_d: quadratic radicand for QQ(sqrt(d)); char 0 only.
    parameter: adjoin one transcendental parameter a on top.
    """

    __slots__ = ("characteristic", "ext_degree", "ext_poly", "sqrt_d", "parameter")

    def __init__(self, characteristic: int = 0, ext_degree: int | None = None,
                 ext_poly: tuple | None = None, sqrt_d: int | None = None,
                 parameter: bool = False):
        init = object.__setattr__
        init(self, "characteristic", characteristic)
        init(self, "ext_degree", ext_degree)
        init(self, "ext_poly", ext_poly)
        init(self, "sqrt_d", sqrt_d)
        init(self, "parameter", parameter)

    def _fields(self):
        return (self.characteristic, self.ext_degree, self.ext_poly, self.sqrt_d,
                self.parameter)


def make_field(spec: FieldSpec) -> Field:
    if spec.characteristic < 0:
        raise FieldError("negative characteristic")
    if spec.characteristic == 0:
        if spec.ext_degree is not None or spec.ext_poly is not None:
            raise FieldError("finite extensions require positive characteristic")
        base = QuadraticField(spec.sqrt_d) if spec.sqrt_d is not None else RationalField()
    else:
        if not is_prime(spec.characteristic):
            raise FieldError(f"characteristic {spec.characteristic} is composite")
        if spec.sqrt_d is not None:
            raise FieldError("quadratic radicands are supported in characteristic 0 only")
        if spec.ext_degree is not None and spec.ext_degree > 1:
            base = ExtensionField(spec.characteristic, spec.ext_degree, spec.ext_poly)
        else:
            base = PrimeField(spec.characteristic)
    if spec.parameter:
        return ParameterField(base)
    return base


def arith(a: FieldElem, b: FieldElem, op: str) -> FieldElem:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def in_prime_subfield(a: FieldElem) -> bool:
    return a.field.in_prime_subfield(a.rep)


def frobenius(a: FieldElem) -> FieldElem:
    """a -> a^l in characteristic l > 0.  GF(l) is fixed pointwise and
    GF(l^n) takes the l-th power by square and multiply.  In K(a) the l-th
    power is additive, so (sum c_i a^i)^l = sum sigma(c_i) a^(il) with sigma
    the l-th power on K (the identity over GF(l), not over GF(l^n)): an
    element n/d maps to n^sigma(a^l) / d^sigma(a^l), a substitution with no
    product of polynomials.  That quotient is already canonical: sigma
    fixes 1, so the denominator stays monic, and n^l and d^l stay
    coprime."""
    if a.field.char == 0:
        raise FieldError("frobenius requires positive characteristic")
    return FieldElem(a.field, a.field._frobenius(a.rep))


def norm_to_prime(a: FieldElem) -> FieldElem:
    """Product of the frobenius conjugates a * a^l * ... * a^(l^(k-1)),
    landing in the prime field GF(l)."""
    field = a.field
    if not isinstance(field, ExtensionField):
        raise FieldError("norm_to_prime requires a finite extension field")
    result = a
    conj = a
    for _ in range(field.degree - 1):
        conj = frobenius(conj)
        result = result * conj
    value = field.prime_subfield_value(result.rep)
    if value is None:
        raise FieldError("norm did not land in the prime field")
    return PrimeField(field.char).from_int(value)


# convenience constructors used throughout the package and tests

def QQ() -> RationalField:
    return RationalField()


def GF(ell: int, degree: int = 1, modulus=None) -> Field:
    if degree == 1:
        return PrimeField(ell)
    return ExtensionField(ell, degree, modulus)


def Qsqrt(d: int) -> QuadraticField:
    return QuadraticField(d)


def with_parameter(base: Field) -> ParameterField:
    return ParameterField(base)
