"""Homographic action of integer 2x2 matrices and the orbit-equivalence
decision procedures: continued fractions for real quadratic irrationals,
fundamental-domain reduction for imaginary quadratic points, exhaustive
orbit enumeration over small finite fields, and the classification
wrapper that ties verdicts to verified witness morphisms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import fields
from .fields import (
    GF, ExtensionField, FieldElem, ParameterField, QuadraticField, ValueRecord,
    _qdiv, _umul, squarefree_core,
)

# Stated bounds.  The largest discriminant `cf_expand` takes is 4d for
# sqrt(d) at the largest radicand: sqrt(999044821003), of discriminant
# 3.996 * 10^12, has period 944,646 and expands in 1.1 s at 223 MB peak RSS
# (`orbits cf`, start-up included, Python 3.11, 2-vCPU VM).
MAX_CF_DISCRIMINANT = 4 * fields.MAX_RADICAND
# The largest l whose orbits `finite_orbits` enumerates.  Its cost grows
# about as l^3, the order of the group and the number of points:
# `orbits finite --ext 3 --group slpm`, the largest case, took 0.14 s at
# l = 13, 0.20 s at l = 31, 0.51 s at l = 47 and 0.76 s at l = 53, with
# 112 MB peak RSS there, start-up included (Python 3.11, a 2-vCPU VM).
# The bound was set when the group was found by testing all l^4 matrices,
# as the largest prime enumerated in under 5 s, the budget of
# `cli.MAX_SKEW_CHAR`; it is kept, since memory, which grows as l^3 with
# the group's index pairs, is now the larger cost.
MAX_ORBIT_ELL = 53


# ---------------------------------------------------------------------------
# integer 2x2 matrices acting by (n*w + q)/(m*w + r)

class Mat2Z(ValueRecord):
    """The integer matrix [n q; m r]; immutable, equal and hashed by its
    entries."""

    __slots__ = ("n", "q", "m", "r")

    @property
    def det(self) -> int:
        return self.n * self.r - self.q * self.m

    @property
    def unimodular(self) -> bool:
        return self.det in (1, -1)

    @classmethod
    def identity(cls) -> "Mat2Z":
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int) -> "Mat2Z":
        return cls(1, k, 0, 1)

    @classmethod
    def inversion(cls) -> "Mat2Z":
        # w -> -1/w
        return cls(0, -1, 1, 0)

    @classmethod
    def reflection(cls) -> "Mat2Z":
        # w -> -w, determinant -1
        return cls(-1, 0, 0, 1)

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.n * other.n + self.q * other.m,
            self.n * other.q + self.q * other.r,
            self.m * other.n + self.r * other.m,
            self.m * other.q + self.r * other.r,
        )

    def inverse(self) -> "Mat2Z":
        d = self.det
        if d not in (1, -1):
            raise ValueError("only unimodular matrices invert over the integers")
        return Mat2Z(d * self.r, -d * self.q, -d * self.m, d * self.n)

    def entries(self):
        return self._fields(self)

    def __str__(self):
        return f"[{self.n} {self.q}; {self.m} {self.r}]"

    __repr__ = __str__


def homographic(M: Mat2Z, alpha: FieldElem) -> FieldElem:
    """(n*alpha + q)/(m*alpha + r) in the field of alpha, by the field's
    `_homographic`: in K(a), where det M is nonzero in K, the quotient of
    n p + q s by m p + r s for alpha = p/s is already reduced, and no gcd
    is run (see `ParameterField._homographic`)."""
    k = alpha.field
    return FieldElem(k, k._homographic(alpha.rep, *M.entries()))


# ---------------------------------------------------------------------------
# real quadratic irrationals and continued fractions

class QuadIrr:
    """(P + sqrt(D))/Q with integer P, Q, D; D > 0 not a square, Q != 0,
    normalized so that Q divides D - P^2 (continued-fraction-ready form)."""

    __slots__ = ("P", "D", "Q")

    def __init__(self, P: int, D: int, Q: int):
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if D <= 0 or math.isqrt(D) ** 2 == D:
            raise ValueError("D must be positive and not a perfect square")
        if (D - P * P) % Q != 0:
            P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
        self.P, self.D, self.Q = P, D, Q

    def floor(self) -> int:
        # f < sqrt(D) < f + 1 puts the value strictly between (P + f)/Q and
        # (P + f + 1)/Q, consecutive multiples of 1/|Q| with no integer
        # strictly between them, so its floor is that of the smaller one
        f = math.isqrt(self.D)
        return (self.P + f) // self.Q if self.Q > 0 else (self.P + f + 1) // self.Q

    def step(self):
        """One continued-fraction step: returns (digit, next complete quotient)."""
        a = self.floor()
        P1 = a * self.Q - self.P
        Q1 = (self.D - P1 * P1) // self.Q
        return a, QuadIrr(P1, self.D, Q1)

    def core(self):
        return squarefree_core(self.D)

    def to_field_elem(self, field: QuadraticField | None = None) -> FieldElem:
        d0, f = self.core()
        if field is None:
            field = QuadraticField(d0)
        elif field.d != d0:
            raise ValueError("field radicand does not match")
        return FieldElem(field, (_qdiv(self.P, self.Q), _qdiv(f, self.Q)))

    @classmethod
    def from_field_elem(cls, elem: FieldElem) -> "QuadIrr":
        field = elem.field
        if not isinstance(field, QuadraticField) or field.d <= 0:
            raise ValueError("need an element of a real quadratic field")
        a, b = elem.rep
        if b == 0:
            raise ValueError("element is rational")
        L = math.lcm(a.denominator, b.denominator)
        P, f, Q = int(a * L), int(b * L), L
        if f < 0:
            P, f, Q = -P, -f, -Q
        return cls(P, field.d * f * f, Q)

    def __eq__(self, other):
        if not isinstance(other, QuadIrr):
            return NotImplemented
        d1, f1 = self.core()
        d2, f2 = other.core()
        return (d1 == d2 and self.P * other.Q == other.P * self.Q
                and f1 * other.Q == f2 * self.Q)

    def __hash__(self):
        d0, f = self.core()
        pq = Fraction(self.P, self.Q)
        fq = Fraction(f, self.Q)
        return hash((d0, pq, fq))

    def __str__(self):
        return f"({self.P}+sqrt({self.D}))/{self.Q}"

    __repr__ = __str__


class PeriodNotFound(RuntimeError):
    """The continued fraction did not close within the term bound."""


class ContFrac:
    """Continued fraction of a quadratic irrational: digits are
    preperiod + (period repeated); period detected as the first recurring
    complete-quotient state, hence minimal."""

    __slots__ = ("value", "preperiod", "period")

    def __init__(self, value: QuadIrr, preperiod: tuple, period: tuple):
        self.value = value
        self.preperiod = preperiod
        self.period = period

    def digits(self, count: int):
        out = list(self.preperiod)
        while len(out) < count:
            out.extend(self.period)
        return out[:count]

    def convergent_matrix(self, i: int) -> Mat2Z:
        """The unimodular matrix taking the i-th complete quotient back to
        the value: columns (p_{i-1}, p_{i-2}; q_{i-1}, q_{i-2})."""
        p1, p2, q1, q2 = 1, 0, 0, 1
        for a in self.digits(i):
            p1, p2 = a * p1 + p2, p1
            q1, q2 = a * q1 + q2, q1
        return Mat2Z(p1, p2, q1, q2)

    def complete_quotient(self, i: int) -> QuadIrr:
        """The i-th complete quotient, i steps from the value."""
        tau = self.value
        for _ in range(i):
            _, tau = tau.step()
        return tau

    def __str__(self):
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"[{pre};({per})]" if pre else f"[({per})]"


def cf_expand(alpha: QuadIrr) -> ContFrac:
    """Exact expansion with minimal period, by the P-Q recurrence on
    complete quotients; eventual periodicity is guaranteed for quadratic
    irrationals.

    The recurrence runs on plain ints: from (P + sqrt(D))/Q the digit is
    a = floor((P + f)/Q) with f = isqrt(D) (`QuadIrr.floor`), and the next
    complete quotient is (P' + sqrt(D))/Q' with P' = a*Q - P and
    Q' = (D - P'^2)/Q.  D is the same for every complete quotient and
    D - P'^2 = Q*Q', so each one is already in the normalized form of
    `QuadIrr` and f is taken once; no `QuadIrr` is built per step.

    alpha is a root of Q x^2 - 2P x + (P^2 - D)/Q, whose primitive part has
    discriminant 4D/g^2, g the gcd of the coefficients.  Unimodular
    substitutions keep it, so every complete quotient has it; above
    MAX_CF_DISCRIMINANT the expansion raises ValueError.

    The term bound comes from D and the starting (P, Q).  A
    complete quotient (P + sqrt(D))/Q is reduced (greater than 1, with
    conjugate in (-1, 0)) after a number of steps logarithmic in |P| + |Q|,
    because the convergent denominators grow at least like the Fibonacci
    numbers, and its successors stay reduced.  A reduced one has
    0 < P < sqrt(D) and sqrt(D) - P < Q < sqrt(D) + P, which leaves fewer
    than 2D states, so the period is shorter than 2D terms."""
    P, D, Q = alpha.P, alpha.D, alpha.Q
    g = math.gcd(Q, 2 * P, (P * P - D) // Q)
    disc = 4 * D // (g * g)
    if disc > MAX_CF_DISCRIMINANT:
        raise ValueError(f"the discriminant {disc} of {alpha} exceeds the bound "
                         f"{MAX_CF_DISCRIMINANT} of the continued-fraction expansion")
    max_terms = 2 * D + 2 * (abs(P) + abs(Q)).bit_length() + 8
    f = math.isqrt(D)
    # every complete quotient has the D of alpha, so (P, Q) is its state
    seen = {}
    digits = []
    for i in range(max_terms):
        if (P, Q) in seen:
            i0 = seen[P, Q]
            return ContFrac(alpha, tuple(digits[:i0]), tuple(digits[i0:i]))
        seen[P, Q] = i
        a = (P + f) // Q if Q > 0 else (P + f + 1) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        digits.append(a)
    raise PeriodNotFound(f"no period within {max_terms} terms")


def tail_equivalent(a: ContFrac, b: ContFrac) -> Mat2Z | None:
    """If the two expansions share a tail, return a verified unimodular
    witness W with W . a = b, built from convergent matrices; else None.

    A rotation of b's period equal to a's is enough: from the start of a's
    period and the matching place in b's, both expand to the same purely
    periodic sequence of positive digits, so those complete quotients are
    one number, and W = Mb Ma^-1 takes a to b."""
    if len(a.period) != len(b.period):
        return None
    ia = len(a.preperiod)
    for rot in range(len(b.period)):
        if b.period[rot:] + b.period[:rot] != a.period:
            continue
        W = b.convergent_matrix(len(b.preperiod) + rot) * a.convergent_matrix(ia).inverse()
        if homographic(W, a.value.to_field_elem()) == b.value.to_field_elem():
            return W
    return None


# ---------------------------------------------------------------------------
# imaginary quadratic points and fundamental-domain reduction

class ImagQuadPoint:
    """An element (a + b*sqrt(d))/c with d < 0 and positive imaginary part,
    stored exactly as a quadratic-field element."""

    __slots__ = ("elem",)

    def __init__(self, elem: FieldElem):
        field = elem.field
        if not isinstance(field, QuadraticField) or field.d >= 0:
            raise ValueError("need an element of an imaginary quadratic field")
        if elem.rep[1] == 0:
            raise ValueError("point is real")
        if elem.rep[1] < 0:
            raise ValueError("point lies in the lower half-plane")
        self.elem = elem

    @classmethod
    def from_element(cls, elem: FieldElem):
        """Normalize into the upper half-plane; returns (point, conjugated)."""
        conjugated = isinstance(elem.field, QuadraticField) and elem.rep[1] < 0
        return cls(elem.field.conjugate(elem) if conjugated else elem), conjugated

    @property
    def field(self) -> QuadraticField:
        return self.elem.field

    @property
    def re(self) -> Fraction:
        return self.elem.rep[0]

    @property
    def norm2(self) -> Fraction:
        a, b = self.elem.rep
        return a * a - b * b * self.field.d

    def apply(self, M: Mat2Z) -> "ImagQuadPoint":
        return ImagQuadPoint(homographic(M, self.elem))

    def reflect(self) -> "ImagQuadPoint":
        """-conj(tau), again in the upper half-plane."""
        a, b = self.elem.rep
        return ImagQuadPoint(FieldElem(self.field, (-a, b)))

    def is_reduced(self) -> bool:
        half = Fraction(1, 2)
        if not (-half < self.re <= half):
            return False
        if self.norm2 > 1:
            return True
        return self.norm2 == 1 and self.re >= 0

    def __eq__(self, other):
        if not isinstance(other, ImagQuadPoint):
            return NotImplemented
        return self.field.d == other.field.d and self.elem.rep == other.elem.rep

    def __hash__(self):
        return hash((self.field.d, self.elem.rep))

    def __str__(self):
        return str(self.elem)

    __repr__ = __str__


def fundamental_domain_reduce(tau: ImagQuadPoint):
    """Reduce into the fundamental domain |Re| <= 1/2, |tau| >= 1 (with
    Re > -1/2, and Re >= 0 on the unit circle); returns (reduced, M) with
    det M = 1 and reduced = M . tau.

    Im never decreases in the loop, so each point visited is M . tau with
    |c tau + d| <= 1 for the bottom row (c, d) of M, and each inversion
    strictly lowers |c tau + d|.  Up to sign at most 3 floor(1/Im tau) + 1
    pairs (c, d) qualify, so the loop ends within 3 floor(1/Im tau) + 2
    iterations; for tau = a + b sqrt(d), Im^2 = b^2 |d| gives
    floor(1/Im tau) exactly.  Past that bound it is an ArithmeticError."""
    b = tau.elem.rep[1]
    M = Mat2Z.identity()
    t = tau
    for _ in range(3 * math.isqrt(1 // (b * b * -tau.field.d)) + 2):
        n = math.ceil(t.re - Fraction(1, 2))
        if n:
            shift = Mat2Z.translation(-n)
            t = t.apply(shift)
            M = shift * M
        n2 = t.norm2
        if n2 > 1:
            return t, M
        if n2 == 1:
            if t.re >= 0:
                return t, M
            S = Mat2Z.inversion()
            return t.apply(S), S * M
        S = Mat2Z.inversion()
        t = t.apply(S)
        M = S * M
    raise ArithmeticError("fundamental-domain reduction passed its iteration bound")


# ---------------------------------------------------------------------------
# equivalence under the homographic action of integer matrices

class EquivVerdict:
    __slots__ = ("equivalent", "witness", "kind", "detail")

    def __init__(self, equivalent: bool, witness: Mat2Z | None, kind: str, detail: str = ""):
        self.equivalent = equivalent
        self.witness = witness
        self.kind = kind
        self.detail = detail

    def __bool__(self):
        return self.equivalent


def _as_quadirr(value) -> QuadIrr:
    return value if isinstance(value, QuadIrr) else QuadIrr.from_field_elem(value)


def gl2z_equivalent(a, b) -> EquivVerdict:
    """Whether a and b lie in one orbit of the unimodular homographic
    action.  Real quadratic inputs are compared through continued-fraction
    tails; imaginary ones through fundamental-domain reduction, matching
    reduced points directly for inputs on the same side of the real axis
    and against the reflected reduction for opposite sides.  Positive
    verdicts always carry a witness verified by exact application."""
    real = []
    for x in (a, b):
        if isinstance(x, FieldElem) and fields.in_prime_subfield(x):
            raise ValueError("prime-subfield input: use the Weyl classification path")
        real.append(isinstance(x, QuadIrr) or (isinstance(x, FieldElem)
                                               and isinstance(x.field, QuadraticField)
                                               and x.field.d > 0))
    if real[0] != real[1]:
        raise ValueError("mixed real/imaginary inputs")
    if real[0]:
        W = tail_equivalent(cf_expand(_as_quadirr(a)), cf_expand(_as_quadirr(b)))
        if W is None:
            return EquivVerdict(False, None, "real", "continued fractions share no tail")
        return EquivVerdict(True, W, "real", "shared continued-fraction tail")

    # each input as (point in the upper half-plane, conjugated, element)
    (pa, sa, elem_a), (pb, sb, elem_b) = (
        (x, False, x.elem) if isinstance(x, ImagQuadPoint)
        else (*ImagQuadPoint.from_element(x), x) for x in (a, b))
    if pa.field.d != pb.field.d:
        return EquivVerdict(False, None, "imaginary", "different quadratic fields")

    ra, Ma = fundamental_domain_reduce(pa)
    rb, Mb = fundamental_domain_reduce(pb)
    if sa == sb:
        if ra == rb:
            W = Mb.inverse() * Ma
            if homographic(W, elem_a) != elem_b:
                raise ArithmeticError("witness verification failed")
            return EquivVerdict(True, W, "imaginary", "reduced points coincide")
        return EquivVerdict(False, None, "imaginary", "reduced points differ")
    rh, C = fundamental_domain_reduce(pa.reflect())
    if rb == rh:
        W = Mb.inverse() * C * Mat2Z.reflection()
        if homographic(W, elem_a) != elem_b:
            raise ArithmeticError("witness verification failed")
        return EquivVerdict(True, W, "imaginary",
                            "reduced point matches the reflected reduction")
    return EquivVerdict(False, None, "imaginary",
                        "reduced point differs from the reflected reduction")


def brute_force_witness(a: FieldElem, b: FieldElem, bound: int) -> Mat2Z | None:
    """Exhaustive search over unimodular matrices with entries bounded by
    the given value; integer arithmetic only.  Imaginary quadratic inputs."""
    fa, fb = a.field, b.field
    if not (isinstance(fa, QuadraticField) and isinstance(fb, QuadraticField)):
        raise ValueError("brute force expects quadratic-field elements")
    if fa.d != fb.d:
        return None
    d = fa.d
    a1, a2 = a.rep
    b1, b2 = b.rep
    L = math.lcm(a1.denominator, a2.denominator)
    A1, A2, C = int(a1 * L), int(a2 * L), L
    L = math.lcm(b1.denominator, b2.denominator)
    B1, B2, E = int(b1 * L), int(b2 * L), L

    def matches(n, q, m, r):
        U1 = n * A1 + q * C
        U2 = n * A2
        V1 = m * A1 + r * C
        V2 = m * A2
        # (U1 + U2 s)/(V1 + V2 s) == (B1 + B2 s)/E with s = sqrt(d)
        return (E * U1 == B1 * V1 + B2 * V2 * d
                and E * U2 == B1 * V2 + B2 * V1)

    rng = range(-bound, bound + 1)
    for n in rng:
        for q in rng:
            if n == 0:
                # det = -q*m must be +-1, so q, m in {1, -1}
                if q not in (1, -1):
                    continue
                for m in (1, -1):
                    for r in rng:
                        if matches(0, q, m, r):
                            return Mat2Z(0, q, m, r)
                continue
            for m in rng:
                for sign in (1, -1):
                    num = sign + q * m
                    if num % n:
                        continue
                    r = num // n
                    if abs(r) > bound:
                        continue
                    if matches(n, q, m, r):
                        return Mat2Z(n, q, m, r)
    return None


# ---------------------------------------------------------------------------
# finite-field orbit enumeration

class OrbitData(ValueRecord):
    __slots__ = ("representative", "size", "stabilizer_order")


class FiniteOrbitReport(ValueRecord):
    __slots__ = ("ell", "ext_degree", "group", "group_order", "orbits", "point_count")

    @property
    def transitive(self) -> bool:
        return len(self.orbits) == 1


def _group_matrices(ell: int, group: str):
    """Yield the matrices (a, b, c, d) over GF(l), entries in [0, l), with
    ad - bc = 1 ("sl") or ad - bc = +-1 ("slpm"), each once and in no
    particular order.

    For each target t and each (a, b, c) the equation is solved for d when
    a != 0, d = (t + bc)/a; when a = 0 it reads -bc = t, so b != 0 fixes
    c = -t/b and d is free.  That lists the l(l^2 - 1) matrices of each
    determinant in O(l^3) steps instead of testing all l^4 candidates.  A
    generator, so that `finite_orbits` holds only its index pairs."""
    targets = {1 % ell} if group == "sl" else {1 % ell, (-1) % ell}
    for t in targets:
        for b in range(1, ell):
            c = -t * pow(b, -1, ell) % ell
            yield from [(0, b, c, d) for d in range(ell)]
        for a in range(1, ell):
            inv = pow(a, -1, ell)
            yield from [(a, b, c, (t + b * c) * inv % ell) for b in range(ell) for c in range(ell)]


def _prime_divisors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _discrete_logs(field: ExtensionField) -> dict:
    """The discrete-log table of GF(q)^*, q = l^k with k = 2 or 3: a dict
    from each nonzero rep to its exponent in 0..q-2.

    The base g is the first element in `all_elements` order with
    g^((q-1)/p) != 1 for every prime p dividing q - 1, a generator of the
    cyclic group GF(q)^*.  Its powers are walked by the GF(l)-linear map
    x -> x*g, whose columns w^i * g are formed once, so each step is k^2
    products of ints mod l and no field product.  The q - 1 powers are
    checked to be distinct and to return to 1, so the table is a bijection
    onto 0..q-2 and log(xy) = log x + log y mod q - 1."""
    ell, k = field.char, field.degree
    if k not in (2, 3):
        raise ValueError("extension degree must be 2 or 3")
    n = ell ** k - 1
    one, mul = field._one_rep(), field._mul
    primes = _prime_divisors(n)
    g = next((e.rep for e in field.all_elements()
              if not field._is_zero(e.rep)
              and all(fields._power(e.rep, n // p, one, mul) != one for p in primes)),
             None)
    if g is None:
        raise ArithmeticError(f"no element of {field} passes the generator test")
    w = field.gen().rep
    logs = {}
    if k == 2:
        # x0 + x1*w -> x0*g + x1*(w g)
        (a0, a1), (b0, b1) = g, mul(w, g)
        x0, x1 = one
        for i in range(n):
            logs[x0, x1] = i
            x0, x1 = (x0 * a0 + x1 * b0) % ell, (x0 * a1 + x1 * b1) % ell
        x = (x0, x1)
    else:
        # x0 + x1*w + x2*w^2 -> x0*g + x1*(w g) + x2*(w^2 g)
        wg = mul(w, g)
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = g, wg, mul(w, wg)
        x0, x1, x2 = one
        for i in range(n):
            logs[x0, x1, x2] = i
            x0, x1, x2 = ((x0 * a0 + x1 * b0 + x2 * c0) % ell,
                          (x0 * a1 + x1 * b1 + x2 * c1) % ell,
                          (x0 * a2 + x1 * b2 + x2 * c2) % ell)
        x = (x0, x1, x2)
    if len(logs) != n or x != one:
        raise ArithmeticError(f"the powers of {field._str(g)} do not cycle through {field}^*")
    return logs


def finite_orbits(ell: int, k: int, group: str = "sl") -> FiniteOrbitReport:
    """Decompose GF(l^k) minus GF(l) into orbits of SL2 (or SL2 with
    determinant +-1) over GF(l) acting by homography, with stabilizer
    orders; the orbit-stabilizer product is asserted for every orbit.

    Orbits are built on discrete logs (`_discrete_logs`, one table per
    call).  For each orbit representative theta the logs L[a, b] of the
    l^2 - 1 values a*theta + b are tabulated once, each value formed on
    the coordinates of theta: scaled by a mod l, with b added to the
    constant coordinate.  So the image (a*theta + b)/(c*theta + d) is the
    integer (L[a, b] - L[c, d]) mod q - 1: no field product or inverse per
    matrix or per value.  An orbit is the set of the images of theta over
    `_group_matrices`, and its stabilizer the number of images equal to
    theta, so the order of the matrices does not matter.  Orbits, the
    points already seen and stabilizers are kept as logs."""
    if k not in (2, 3):
        raise ValueError("extension degree must be 2 or 3")
    if group not in ("sl", "slpm"):
        raise ValueError("group must be 'sl' or 'slpm'")
    if ell > MAX_ORBIT_ELL:
        raise ValueError(f"l = {ell} exceeds the enumeration bound {MAX_ORBIT_ELL}")
    field = GF(ell, k)
    # (a*l + b, c*l + d): indices of numerator and denominator in the table
    pairs = [(a * ell + b, c * ell + d) for a, b, c, d in _group_matrices(ell, group)]
    order = len(pairs)
    points = [e.rep for e in field.all_elements() if not field.in_prime_subfield(e.rep)]
    logs = _discrete_logs(field)
    n = len(logs)
    zeros = (0,) * (k - 1)

    seen = set()
    orbits = []
    for theta in points:
        t = logs[theta]
        if t in seen:
            continue
        # L[a*l + b] = log(a*theta + b), L[0] for the zero value; c*theta + d
        # = 0 with theta outside GF(l) forces c = d = 0, which is excluded
        # by invertibility
        L = [None] + [logs[(b,) + zeros] for b in range(1, ell)]
        for a in range(1, ell):
            c0, rest = a * theta[0], tuple(a * x % ell for x in theta[1:])
            L += [logs[((c0 + b) % ell,) + rest] for b in range(ell)]
        images = [(L[i] - L[j]) % n for i, j in pairs]
        orbit = set(images)
        stab = images.count(t)
        if len(orbit) * stab != order:
            raise ArithmeticError("orbit-stabilizer count mismatch")
        seen |= orbit
        orbits.append(OrbitData(field._str(theta), len(orbit), stab))
    if sum(o.size for o in orbits) != len(points):
        raise ArithmeticError("orbits do not partition the point set")
    return FiniteOrbitReport(ell, k, group, order, tuple(orbits), len(points))


class TransitivityReport:
    __slots__ = ("ell", "checks")

    def __init__(self, ell: int, checks: list):
        self.ell = ell
        self.checks = checks          # (name, status, detail), status pass/fail/out-of-scope


def transitivity_scope(ell: int, k: int, group: str) -> str | None:
    """None where the theory claims that the group acts transitively on
    GF(l^k) minus GF(l): k = 2, or k = 3 with l = 2, or k = 3 with the
    slpm group and l = 3 mod 4.  Elsewhere the reason it makes no claim."""
    if k == 2 or ell == 2 or (group == "slpm" and ell % 4 == 3):
        return None
    if group == "slpm":
        return f"transitivity is only claimed for l = 3 mod 4; l = {ell}"
    return f"transitivity on GF(l^3) is only claimed for l = 2 or the slpm group; l = {ell}"


def transitivity_report(ell: int) -> TransitivityReport:
    """Orbit transitivity and stabilizer counts for the cases the theory
    covers, plus exhaustive norm-map surjectivity."""
    checks = []

    def orbit_check(k, group, size, stab):
        rep = finite_orbits(ell, k, group)
        ok = (rep.transitive and rep.orbits[0].size == size
              and rep.orbits[0].stabilizer_order == stab)
        checks.append((
            f"GF({ell}^{k}) {group} action",
            "pass" if ok else "fail",
            f"orbits={[(o.size, o.stabilizer_order) for o in rep.orbits]}, |G|={rep.group_order}",
        ))

    if ell == 2:
        orbit_check(2, "sl", 2, 3)
        orbit_check(3, "sl", 6, 1)
    else:
        orbit_check(2, "sl", ell * ell - ell, ell + 1)
        reason = transitivity_scope(ell, 3, "slpm")
        if reason is None:
            orbit_check(3, "slpm", ell ** 3 - ell, 2)
        else:
            checks.append((f"GF({ell}^3) slpm action", "out-of-scope", reason))

    field = GF(ell, 2)
    images = {}
    kernel = 0
    for e in field.all_elements():
        if e.is_zero():
            continue
        n = fields.norm_to_prime(e)
        images[n.rep] = images.get(n.rep, 0) + 1
        if n.rep == 1:
            kernel += 1
    surjective = set(images) == set(range(1, ell))
    ok = surjective and kernel == ell + 1
    checks.append((
        f"norm GF({ell}^2) -> GF({ell})",
        "pass" if ok else "fail",
        f"surjective={surjective}, kernel size={kernel} (expected {ell + 1})",
    ))
    return TransitivityReport(ell, checks)


# ---------------------------------------------------------------------------
# classification wrapper

class ClassifyVerdict:
    __slots__ = ("verdict", "one_sided", "witness", "detail")

    def __init__(self, verdict: str, one_sided: bool, witness=None, detail: str = ""):
        # isomorphic | valued-isomorphic | not-isomorphic | not-valued-isomorphic |
        # isomorphic-sufficient | unknown-open
        self.verdict = verdict
        self.one_sided = one_sided
        self.witness = witness        # Morphism, on every positive orbit verdict
        self.detail = detail


def _prime_coords(K, x) -> tuple:
    """The coordinates of a rep of K over the prime field of K."""
    return x if isinstance(K, (ExtensionField, QuadraticField)) else (x,)


def _witness_rows(alpha: FieldElem, beta: FieldElem) -> list:
    """Integer rows (A, B, C, D) such that (n*alpha + q)/(m*alpha + r) = beta
    exactly when n*A + q*B + m*C + r*D vanishes (mod l in characteristic l)
    for every row, provided m*alpha + r != 0.

    With alpha = na/da and beta = nb/db (da = db = 1 outside K(a)), the
    equation beta*(m*alpha + r) = n*alpha + q reads
    n*P1 + q*P2 - m*P3 - r*P4 = 0 for P1 = na*db, P2 = da*db, P3 = na*nb,
    P4 = da*nb, which is linear over the prime field in (n, q, m, r); one
    row per prime-field coordinate of the P_i, denominators cleared row
    by row in characteristic 0."""
    field = alpha.field
    if isinstance(field, ParameterField):
        K = field.base
        (na, da), (nb, db) = alpha.rep, beta.rep
        polys = [_umul(K, na, db), _umul(K, da, db), _umul(K, na, nb), _umul(K, da, nb)]
    else:
        K = field
        polys = [(alpha.rep,), (K._one_rep(),), (K._mul(alpha.rep, beta.rep),),
                 (beta.rep,)]
    width = max(map(len, polys))
    zero = K._zero_rep()
    cols = [[c for i in range(width)
             for c in _prime_coords(K, p[i] if i < len(p) else zero)]
            for p in polys]
    ell = field.char
    rows = []
    for p1, p2, p3, p4 in zip(*cols):
        row = (p1, p2, -p3, -p4)
        if ell:
            row = tuple(x % ell for x in row)
        else:
            den = math.lcm(*(x.denominator for x in row))
            row = tuple(int(x * den) for x in row)
        if any(row):
            rows.append(row)
    return rows


def _rref(rows, ell: int) -> tuple:
    """Reduced row echelon form over the prime field, QQ in Fractions for
    l = 0 and GF(l) otherwise: (nonzero rows, pivot columns), each row
    scaled to 1 at its pivot."""
    if ell:
        def inv(x): return pow(x, -1, ell)
        def red(x): return x % ell
    else:
        def inv(x): return 1 / Fraction(x)
        def red(x): return x
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        top = len(pivots)
        rows[top], rows[i] = rows[i], rows[top]
        scale = inv(rows[top][col])
        rows[top] = [red(x * scale) for x in rows[top]]
        for j, row in enumerate(rows):
            if j != top and row[col]:
                f = row[col]
                rows[j] = [red(x - f * y) for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p, or None when a is not a
    square mod p (Tonelli-Shanks: O(log p) products mod p after the search
    for a non-square z, which meets one after two tries on average)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # invariant: r^2 = a*t with t of order dividing 2^e, c of order 2^e
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _solved_witness(alpha: FieldElem, beta: FieldElem) -> Mat2Z | None:
    """The orbit witness [n q; m r] with (n*alpha + q)/(m*alpha + r) = beta,
    as a Mat2Z, or None; alpha and beta lie outside the prime field of one
    field, GF(l^k) or K(a).  A match is re-verified by exact application,
    and a mismatch raises ArithmeticError.

    The candidates are the kernel of the rows of `_witness_rows` over the
    prime field.  Each nonzero kernel vector is an invertible matrix:
    m*alpha + r != 0 for (m, r) != (0, 0), so (n, q) = c*(m, r) would make
    beta = c a prime-field element.  With W0 in the kernel, the kernel is
    W0 times the matrices M with M . alpha = alpha (and 0), which solve
    m*alpha^2 + (r - n)*alpha - q = 0.  So the kernel is a plane when alpha
    has degree 2 over the prime field (in GF(l^2), or a constant of K(a)
    in a quadratic K), and at most a line otherwise: in GF(l^3), and for a
    non-constant alpha of K(a), which is transcendental, only the scalars
    fix alpha.

    In characteristic 0 (K(a) only) the integer points of a kernel line
    are the multiples of its primitive integer vector v, so a GL2(Z)
    witness exists exactly when det v = +-1, and it is then v or -v: the
    one with negative first nonzero entry is returned.  A kernel plane
    means that alpha and beta are constants in a quadratic K, and
    `gl2z_equivalent` decides them.

    In characteristic l the result is the lexicographically least matrix
    in [0, l)^4 with det = +-1 mod l, whose integer det may be anything;
    `valued_iso_classify` lifts it.  With the kernel basis in reduced
    echelon form, s*v1 + t*v2 for s, t in [0, l) runs through the kernel
    in lexicographic order, and det(s*v1 + t*v2) is the quadratic form
    s^2 det v1 + s t P(v1, v2) + t^2 det v2, P the polarization of det.
    On a line the least s with s^2 det v1 = +-1 is the least of the at most
    four square roots (`_sqrt_mod`), at any l; on a plane, which needs
    l^2 <= MAX_EXTENSION_ORDER field elements, at most l^2 values of the
    form are tried."""
    ell = alpha.field.char
    rows, pivots = _rref(_witness_rows(alpha, beta), ell)
    kernel = []
    for f in (c for c in range(4) if c not in pivots):
        v = [0] * 4
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[f] % ell if ell else -row[f]
        kernel.append(v)
    if len(kernel) > 2:
        raise ArithmeticError("witness rows of rank below 2")
    W = None
    if not ell and len(kernel) == 2:
        K = alpha.field.base
        W = gl2z_equivalent(FieldElem(K, alpha.rep[0][0]), FieldElem(K, beta.rep[0][0])).witness
    elif not ell and kernel:
        den = math.lcm(*(x.denominator for x in kernel[0]))
        v = [int(x * den) for x in kernel[0]]
        g = math.gcd(*v) * (1 if next(x for x in v if x) < 0 else -1)
        M = Mat2Z(*(x // g for x in v))
        W = M if M.unimodular else None
    elif kernel:
        basis, _ = _rref(kernel, ell)
        v1 = basis[0]
        det1 = v1[0] * v1[3] - v1[1] * v1[2]
        units = {1 % ell, -1 % ell}
        if len(basis) == 1:
            roots = [_sqrt_mod(u * pow(det1, -1, ell), ell) for u in units] if det1 % ell else []
            s = min((x for root in roots if root is not None for x in (root, -root % ell)),
                    default=None)
            if s is not None:
                W = Mat2Z(*(s * x % ell for x in v1))
        else:
            v2 = basis[1]
            det2 = v2[0] * v2[3] - v2[1] * v2[2]
            polar = v1[0] * v2[3] + v2[0] * v1[3] - v1[1] * v2[2] - v2[1] * v1[2]
            s, t = next(((s, t) for s in range(ell) for t in range(ell)
                         if (s * (s * det1 + t * polar) + t * t * det2) % ell in units),
                        (None, None))
            if s is not None:
                W = Mat2Z(*((s * x + t * y) % ell for x, y in zip(v1, v2)))
    if W is not None and homographic(W, alpha) != beta:
        raise ArithmeticError("witness verification failed")
    return W


def valued_iso_classify(caseA, caseB) -> ClassifyVerdict:
    """Decide (valued) isomorphism of the two cases where the theory
    decides it, and report one-sided or open verdicts elsewhere.  Positive
    orbit verdicts return the verified monomial morphism as witness.

    Over GF(l^k) and K(a) the orbit witness is solved exactly from the
    linear rows of `_witness_rows` over the prime field (`_solved_witness`).
    In characteristic l the solved matrix W0 has entries in [0, l) and
    det W0 = e mod l, e = +-1, and it is lifted to an integer matrix of
    det e congruent to W0 mod l, which acts as W0 does; such a lift exists
    because SL2(Z) -> SL2(Z/l) is onto.  So every positive verdict carries
    a GL2(Z) witness, and `unknown-open` means that none exists."""
    from . import presentations as pres_mod

    char = caseA.field.char
    if caseB.field.char != char:
        return ClassifyVerdict("not-isomorphic", False,
                               detail="different characteristics")

    if caseA.algebra == "q" and caseB.algebra == "q":
        return ClassifyVerdict("isomorphic", False, detail="identical presentations")

    if caseA.algebra != caseB.algebra:
        g_case = caseA if caseA.algebra == "g" else caseB
        if fields.in_prime_subfield(g_case.alpha):
            return ClassifyVerdict(
                "not-isomorphic", False,
                detail="one side has a Weyl presentation, the other never does")
        if char == 0:
            return ClassifyVerdict(
                "not-valued-isomorphic", False,
                detail="the unipotent family is separated from every scaling "
                       "skewfield with irrational parameter as valued skewfields")
        return ClassifyVerdict(
            "unknown-open", True,
            detail="no separation result applies in positive characteristic "
                   "for parameters outside the prime field")

    alpha, beta = caseA.alpha, caseB.alpha
    in_a, in_b = fields.in_prime_subfield(alpha), fields.in_prime_subfield(beta)
    if in_a and in_b:
        return ClassifyVerdict("isomorphic", False,
                               detail="both sides are Weyl skewfields")
    if in_a != in_b:
        return ClassifyVerdict("not-isomorphic", False,
                               detail="exactly one side is a Weyl skewfield")

    if caseA.field != caseB.field:
        if (char == 0 and isinstance(caseA.field, QuadraticField)
                and isinstance(caseB.field, QuadraticField)):
            return ClassifyVerdict(
                "not-valued-isomorphic", False,
                detail="parameters generate different quadratic fields, so no "
                       "integer homographic witness can exist")
        return ClassifyVerdict("unknown-open", True,
                               detail="parameters live in different coefficient fields")

    if isinstance(caseA.field, QuadraticField):
        # both lie in one field, off its prime field: raises only on a refused discriminant
        verdict = gl2z_equivalent(alpha, beta)
        if verdict.equivalent:
            morphism = pres_mod.monomial_morphism(verdict.witness, alpha)
            if morphism.beta != beta:
                raise ArithmeticError("witness parameter mismatch")
            return ClassifyVerdict("valued-isomorphic", False, morphism,
                                   verdict.detail)
        return ClassifyVerdict("not-valued-isomorphic", False,
                               detail=verdict.detail)

    W = _solved_witness(alpha, beta)
    if W is None:
        return ClassifyVerdict("unknown-open", True, detail="no orbit witness; necessity is open")
    if not W.unimodular:
        # m != 0 (replace 0 by l); r moved by multiples of l until it is
        # prime to m, fewer than m steps as l is prime to m or r0 != 0 mod
        # l; n*r - q*m = e from n = e/r mod m; then (n + t*m, q + t*r) keeps
        # det e, and the t in [0, l) that puts n at n0 mod l (q at q0 if l
        # divides m) gives the other entry too, as det = e mod l
        n0, q0, m, r = W.entries()
        e = 1 if W.det % char == 1 else -1
        m = m or char
        while math.gcd(m, r) != 1:
            r += char
        n = e * pow(r, -1, m) % m
        q = (n * r - e) // m
        t = ((n0 - n) * pow(m, -1, char) if m % char else (q0 - q) * pow(r, -1, char)) % char
        W = Mat2Z(n + t * m, q + t * r, m, r)
        if not W.unimodular or homographic(W, alpha) != beta:
            raise ArithmeticError("lifted witness verification failed")
    return ClassifyVerdict("isomorphic-sufficient", True, pres_mod.monomial_morphism(W, alpha),
                           "orbit witness over the prime field")
