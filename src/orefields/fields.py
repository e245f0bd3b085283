"""Exact arithmetic in a tower of coefficient fields.

Supported fields: the rationals QQ; prime fields GF(l); finite extensions
GF(l^n) modulo an irreducible polynomial; quadratic extensions QQ(sqrt(d))
with d a squarefree integer (positive or negative); and rational-function
fields K(a) in one transcendental parameter over any of the previous.

Every element is stored in a canonical normal form, so equality is
structural and decidable.  All integer arithmetic is arbitrary precision;
there is no floating point anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Invalid field specification, or arithmetic between mixed fields."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


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
    """base^n for n >= 0 by square and multiply, starting from one; mul
    multiplies two values (a field's `_mul` for raw reps)."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


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

def _utrim(K, c):
    c = list(c)
    while c and K._is_zero(c[-1]):
        c.pop()
    return tuple(c)


def _uadd(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = K._add(out[i], x)
    return _utrim(K, out)


def _uneg(K, a):
    return tuple(K._neg(x) for x in a)


def _usub(K, a, b):
    return _uadd(K, a, _uneg(K, b))


def _umul(K, a, b):
    if not a or not b:
        return ()
    out = [K._zero_rep()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if K._is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = K._add(out[i + j], K._mul(x, y))
    return _utrim(K, out)


def _uscale(K, a, s):
    if K._is_zero(s):
        return ()
    return _utrim(K, [K._mul(x, s) for x in a])


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


def _umonic(K, a):
    """Return (monic multiple of a, leading coefficient)."""
    if not a:
        return (), K._one_rep()
    lead = a[-1]
    return _uscale(K, a, K._inv(lead)), lead


def _ugcd(K, a, b):
    a, b = _utrim(K, a), _utrim(K, b)
    while b:
        a, b = b, _udivmod(K, a, b)[1]
    return _umonic(K, a)[0]


def _ucancel(K, a, b):
    """a and b divided by their gcd."""
    g = _ugcd(K, a, b)
    if len(g) > 1:
        return _udivmod(K, a, g)[0], _udivmod(K, b, g)[0]
    return a, b


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
# field classes

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
        """The element as a Fraction (char 0) or int (char l), else None."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class RationalField(Field):
    """The rational numbers, elements stored as Fraction."""

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


class ExtensionField(Field):
    """GF(l^n), elements stored as length-n tuples of ints (ascending powers
    of the generator w, reduced modulo the defining polynomial)."""

    def __init__(self, ell: int, degree: int, modulus=None):
        if not is_prime(ell):
            raise FieldError(f"characteristic {ell} is not prime")
        if degree < 2:
            raise FieldError("extension degree must be at least 2")
        self.char = ell
        self.degree = degree
        self.base = PrimeField(ell)
        if modulus is None:
            modulus = least_irreducible(ell, degree)
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


class QuadraticField(Field):
    """QQ(sqrt(d)) for a squarefree integer d (d < 0 allowed), elements
    stored as pairs (a, b) of Fractions meaning a + b*sqrt(d)."""

    char = 0

    def __init__(self, d: int):
        if d in (0, 1):
            raise FieldError("radicand must not be 0 or 1")
        if not is_squarefree(d):
            raise FieldError(f"radicand {d} is not squarefree")
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

    A gcd is computed only where a common factor can occur.  When both
    denominators are 1, or one operand is a nonzero constant c of K, the
    product n1*n2 (resp. c*n over d) and the sum n1 + n2 over 1 are already
    reduced with a monic denominator, so they are returned as they are;
    that rep is the canonical one, because it is unique."""

    def __init__(self, base: Field, varname: str = "a"):
        if isinstance(base, ParameterField):
            raise FieldError("only one transcendental parameter is supported")
        self.base = base
        self.char = base.char
        self.varname = varname

    def _normalize(self, num, den):
        K = self.base
        num, den = _utrim(K, num), _utrim(K, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ((), (K._one_rep(),))
        num, den = _ucancel(K, num, den)
        den, lead = _umonic(K, den)
        num = _uscale(K, num, K._inv(lead))
        return (num, den)

    def _zero_rep(self):
        return ((), (self.base._one_rep(),))

    def _one_rep(self):
        return ((self.base._one_rep(),), (self.base._one_rep(),))

    def _add(self, a, b):
        # denominator-gcd form: keeps every gcd at operand size
        K = self.base
        n1, d1 = a
        n2, d2 = b
        if not n1:
            return b
        if not n2:
            return a
        if len(d1) == 1 and len(d2) == 1:
            return (_uadd(K, n1, n2), d1)
        if d1 == d2:
            num = _uadd(K, n1, n2)
            if not num:
                return self._zero_rep()
            return self._monic(*_ucancel(K, num, d1))
        g = _ugcd(K, d1, d2)
        if len(g) > 1:
            d1p = _udivmod(K, d1, g)[0]
            d2p = _udivmod(K, d2, g)[0]
        else:
            d1p, d2p = d1, d2
        num = _uadd(K, _umul(K, n1, d2p), _umul(K, n2, d1p))
        if not num:
            return self._zero_rep()
        den = _umul(K, _umul(K, g, d1p), d2p)
        h = _ugcd(K, num, g)
        if len(h) > 1:
            num = _udivmod(K, num, h)[0]
            den = _udivmod(K, den, h)[0]
        return self._monic(num, den)

    def _neg(self, a):
        return (_uneg(self.base, a[0]), a[1])

    def _mul(self, a, b):
        # cross-cancellation keeps products of reduced fractions reduced
        K = self.base
        n1, d1 = a
        n2, d2 = b
        if not n1 or not n2:
            return self._zero_rep()
        if len(d1) == 1 and len(d2) == 1:
            return (_umul(K, n1, n2), d1)
        if len(d1) == 1 and len(n1) == 1:
            return (_uscale(K, n2, n1[0]), d2)
        if len(d2) == 1 and len(n2) == 1:
            return (_uscale(K, n1, n2[0]), d1)
        n1, d2 = _ucancel(K, n1, d2)
        n2, d1 = _ucancel(K, n2, d1)
        return self._monic(_umul(K, n1, n2), _umul(K, d1, d2))

    def _monic(self, num, den):
        K = self.base
        den, lead = _umonic(K, den)
        if not K._is_zero(K._add(lead, K._neg(K._one_rep()))):
            num = _uscale(K, num, K._inv(lead))
        return (num, den)

    def _inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of zero")
        return self._normalize(a[1], a[0])

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
        num, den = a
        ns = _ustr(self.base, num, self.varname)
        if den == (self.base._one_rep(),):
            return ns
        ds = _ustr(self.base, den, self.varname)
        if any(op in ns[1:] for op in "+-"):
            ns = f"({ns})"
        if any(op in ds[1:] for op in "+-*"):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def _key(self):
        return ("param", self.base._key(), self.varname)

    def __str__(self):
        return f"{self.base}({self.varname})"


# ---------------------------------------------------------------------------
# field descriptions and element-level operations

@dataclass(frozen=True)
class FieldSpec:
    """Describes one member of the supported tower.

    characteristic: 0 or a prime l.
    ext_degree / ext_poly: finite extension GF(l^n); poly optional
        (ascending coefficients, monic), defaults to the lexicographically
        least irreducible of that degree.
    sqrt_d: quadratic radicand for QQ(sqrt(d)); char 0 only.
    parameter: adjoin one transcendental parameter a on top.
    """

    characteristic: int = 0
    ext_degree: int | None = None
    ext_poly: tuple | None = None
    sqrt_d: int | None = None
    parameter: bool = False


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
    """a -> a^l in characteristic l > 0."""
    ell = a.field.char
    if ell == 0:
        raise FieldError("frobenius requires positive characteristic")
    return a ** ell


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


def with_parameter(base: Field, varname: str = "a") -> ParameterField:
    return ParameterField(base, varname)
