"""Known-answer oracles for the orefields CLI, written without orefields.

Each oracle recomputes an answer from first principles with integers and
fractions only: continued-fraction periods by the PQa recurrence, exact
arithmetic in Q(sqrt(d)), GF(l^k) and univariate rational functions,
and closed-form orbit data for the finite homographic actions.
`check_op` compares one CLI result against the oracle named by the op's
expectation and says whether, and why, the op failed.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# continued fractions of (P + sqrt(D))/Q by the PQa recurrence

def cf_period(P: int, D: int, Q: int):
    """(preperiod, period) of the regular continued fraction of
    (P + sqrt(D))/Q, D > 0 not a square, Q != 0.  The period starts at the
    first recurring (P, Q) state, so both parts are minimal."""
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = math.isqrt(D)
    seen, digits = {}, []
    while (P, Q) not in seen:
        seen[P, Q] = len(digits)
        # floor((P + sqrt(D))/Q): sqrt(D) is irrational, so for Q < 0 the
        # quotient is never an integer and rounds down past (P + s)/|Q|
        a = (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    i0 = seen[P, Q]
    return tuple(digits[:i0]), tuple(digits[i0:])


def cf_str(pre, per) -> str:
    body = "(" + ",".join(map(str, per)) + ")"
    return f"[{','.join(map(str, pre))};{body}]" if pre else f"[{body}]"


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt(d)): a value is (a, b) meaning a + b*sqrt(d)

def q_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def q_inv(x, d):
    n = x[0] * x[0] - x[1] * x[1] * d
    if n == 0:
        raise ZeroDivisionError("zero in Q(sqrt(d))")
    return (x[0] / n, -x[1] / n)


def q_act(W, x, d):
    """(n*x + q)/(m*x + r) for W = (n, q, m, r)."""
    n, q, m, r = W
    num = (n * x[0] + q, n * x[1])
    den = (m * x[0] + r, m * x[1])
    return q_mul(num, q_inv(den, d), d)


def q_literal(x, d) -> str:
    """The CLI literal quad:(A+-B*sqrt(d))/C of a + b*sqrt(d), b != 0."""
    a, b = Fraction(x[0]), Fraction(x[1])
    c = math.lcm(a.denominator, b.denominator)
    A, B = int(a * c), int(b * c)
    sign = "+" if B > 0 else "-"
    return f"quad:({A}{sign}{abs(B)}*sqrt({d}))/{c}"


def q_discriminant(x, d) -> int:
    """Discriminant of the primitive integral form with root a + b*sqrt(d).
    The unimodular homographic action preserves it."""
    a, b = Fraction(x[0]), Fraction(x[1])
    coeffs = (Fraction(1), -2 * a, a * a - b * b * d)
    L = math.lcm(*(c.denominator for c in coeffs))
    A, B, C = (int(c * L) for c in coeffs)
    g = math.gcd(A, B, C)
    A, B, C = A // g, B // g, C // g
    return B * B - 4 * A * C


def is_squarefree(n: int) -> bool:
    n = abs(n)
    return n > 1 and all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# GF(l^k), k in {2, 3}: elements are ascending coefficient tuples of length k

def least_irreducible(ell: int, k: int):
    """The defining polynomial the CLI documents: the lexicographically
    least monic irreducible of degree k, with coefficient tuples
    (a_{k-1}, ..., a_0) compared in that order.  For k <= 3 irreducible
    means having no root in GF(l).  Returned ascending, monic term last."""
    if k not in (2, 3):
        raise ValueError("only degrees 2 and 3")
    for high_first in itertools.product(range(ell), repeat=k):
        poly = tuple(reversed(high_first)) + (1,)
        if all(sum(c * x ** i for i, c in enumerate(poly)) % ell for x in range(ell)):
            return poly
    raise ValueError("no irreducible polynomial")


class GFq:
    def __init__(self, ell: int, k: int):
        self.ell, self.k = ell, k
        self.modulus = least_irreducible(ell, k)
        self._inverses = {}

    def elem(self, coeffs):
        v = [c % self.ell for c in coeffs] + [0] * self.k
        return tuple(v[:self.k])

    def scalar(self, c):
        return self.elem([c])

    def add(self, x, y):
        return tuple((a + b) % self.ell for a, b in zip(x, y))

    def mul(self, x, y):
        ell, k, mod = self.ell, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % ell
            if c:
                for i in range(k + 1):
                    prod[top - k + i] -= c * mod[i]
        return tuple(c % ell for c in prod[:k])

    def pow(self, x, n):
        out = self.scalar(1)
        while n:
            if n & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            n >>= 1
        return out

    def inv(self, x):
        if not any(x):
            raise ZeroDivisionError("zero in GF(l^k)")
        inv = self._inverses.get(x)
        if inv is None:
            inv = self._inverses[x] = self.pow(x, self.ell ** self.k - 2)
        return inv

    def act(self, W, x):
        n, q, m, r = W
        num = self.add(self.mul(self.scalar(n), x), self.scalar(q))
        den = self.add(self.mul(self.scalar(m), x), self.scalar(r))
        return self.mul(num, self.inv(den))

    def in_prime_field(self, x) -> bool:
        return not any(x[1:])

    def orbit(self, x):
        """Orbit of x under SL2 with determinant +-1 over GF(l), which is
        generated by the translation, the inversion and diag(1, -1)."""
        gens = ((1, 1, 0, 1), (0, -1, 1, 0), (1, 0, 0, -1))
        seen, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for W in gens:
                z = self.act(W, y)
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        return seen


def finite_orbit_expectation(ell: int, k: int, group: str):
    """(group order, point count, [(orbit size, stabilizer order), ...]).

    PGL2(GF(l)) acts transitively on the points of degree 2 and simply
    transitively on those of degree 3.  The group maps onto PGL2 when l = 2
    or when it is SL2 +-1 with -1 a non-square (l = 3 mod 4); otherwise its
    image is PSL2, of index 2, which is still transitive on degree 2 and
    splits degree 3 into two orbits."""
    sl_order = ell * (ell * ell - 1)
    order = sl_order if (group == "sl" or ell == 2) else 2 * sl_order
    points = ell ** k - ell
    if ell == 2 or k == 2 or (group == "slpm" and ell % 4 == 3):
        return order, points, [(points, order // points)]
    half = points // 2
    return order, points, [(half, order // half)] * 2


# ---------------------------------------------------------------------------
# univariate polynomials over Q (mod == 0) or GF(mod): ascending lists

def p_trim(p, mod):
    p = [c % mod for c in p] if mod else list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(p, q, mod):
    n = max(len(p), len(q))
    return p_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)], mod)


def p_mul(p, q, mod):
    out = [0] * (len(p) + len(q))
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return p_trim(out, mod)


def p_scale(p, c, mod):
    return p_trim([c * a for a in p], mod)


def p_expr(p) -> str:
    """An infix expression in a for the CLI's param: literals."""
    terms = [f"({c})*a^{i}" for i, c in enumerate(p) if c]
    return "+".join(terms) or "0"


def r_act(W, num, den, mod):
    """(n*f + q)/(m*f + r) for f = num/den, as an unreduced pair."""
    n, q, m, r = W
    return (p_add(p_scale(num, n, mod), p_scale(den, q, mod), mod),
            p_add(p_scale(num, m, mod), p_scale(den, r, mod), mod))


# ---------------------------------------------------------------------------
# checking CLI results

_MATRIX = re.compile(r"^\[(-?\d+) (-?\d+); (-?\d+) (-?\d+)\]$")


def parse_matrix(text):
    m = _MATRIX.match(text or "")
    if not m:
        return None
    return tuple(int(g) for g in m.groups())


def _unimodular(W):
    return W[0] * W[3] - W[1] * W[2] in (1, -1)


def _frac_pair(pair):
    return (Fraction(pair[0]), Fraction(pair[1]))


def witness_problem(exp, W):
    """None when W maps the expectation's alpha exactly onto its beta."""
    if W is None:
        return "missing or malformed witness matrix"
    kind = exp["field"]
    if kind == "quad":
        if not _unimodular(W):
            return f"witness {W} is not unimodular"
        d = exp["d"]
        try:
            image = q_act(W, _frac_pair(exp["alpha"]), d)
        except ZeroDivisionError:
            return f"witness {W} sends alpha to infinity"
        return None if image == _frac_pair(exp["beta"]) else f"witness {W} does not map alpha to beta"
    if kind == "ff":
        ell = exp["ell"]
        if (W[0] * W[3] - W[1] * W[2]) % ell not in (1, ell - 1):
            return f"witness {W} has determinant outside +-1 mod {ell}"
        F = GFq(ell, exp["k"])
        try:
            image = F.act(W, tuple(exp["alpha"]))
        except ZeroDivisionError:
            return f"witness {W} sends alpha to infinity"
        return None if image == tuple(exp["beta"]) else f"witness {W} does not map alpha to beta"
    if kind == "param":
        if not _unimodular(W):
            return f"witness {W} is not unimodular"
        mod = exp["mod"]
        a_num, a_den = ([Fraction(c) for c in p] for p in exp["alpha"])
        b_num, b_den = ([Fraction(c) for c in p] for p in exp["beta"])
        num, den = r_act(W, a_num, a_den, mod)
        if not den:
            return f"witness {W} sends alpha to infinity"
        if p_mul(num, b_den, mod) != p_mul(den, b_num, mod):
            return f"witness {W} does not map alpha to beta"
        return None
    return f"unknown field kind {kind!r}"


def _check_clean(exp, doc):
    bad = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    if bad or doc["summary"]["fail"]:
        return f"fail statuses: {', '.join(bad) or doc['summary']['fail']}"
    return None


def _check_cf(exp, doc):
    pre, per = cf_period(exp["P"], exp["D"], exp["Q"])
    got = doc["checks"][0].get("witness")
    want = cf_str(pre, per)
    return None if got == want else f"expansion {got} != {want}"


def _check_finite(exp, doc):
    order, points, closed = finite_orbit_expectation(exp["ell"], exp["ext"], exp["group"])
    orbits = []
    transitive_claim = None
    for c in doc["checks"]:
        if c["name"].startswith("orbit-of-"):
            m = re.match(r"^size (\d+), stabilizer order (\d+), \|G\| = (\d+)$", c["claim"])
            if not m:
                return f"unparsable orbit record {c['claim']!r}"
            size, stab, g = map(int, m.groups())
            if g != order:
                return f"|G| = {g}, expected {order}"
            if size * stab != order:
                return f"orbit-stabilizer fails: {size} * {stab} != {order}"
            orbits.append((size, stab))
        elif c["name"] == "transitive":
            transitive_claim = c["claim"]
    if sum(s for s, _ in orbits) != points:
        return f"orbit sizes sum to {sum(s for s, _ in orbits)}, expected {points}"
    if sorted(orbits) != sorted(closed):
        return f"orbits {orbits}, expected {closed}"
    want = f"single orbit: {len(closed) == 1}"
    return None if transitive_claim == want else f"transitive record {transitive_claim!r} != {want!r}"


def _check_equiv(exp, doc):
    rec = doc["checks"][0]
    m = re.match(r"^equivalent: (True|False) ", rec["claim"])
    if not m:
        return f"unparsable verdict {rec['claim']!r}"
    got = m.group(1) == "True"
    if got != exp["equivalent"]:
        return f"equivalent {got}, expected {exp['equivalent']}"
    if got:
        return witness_problem(exp, parse_matrix(rec.get("witness")))
    return None


def _check_classify(exp, doc):
    rec = doc["checks"][0]
    verdict = rec["claim"].split(":", 1)[0].replace(" (one-sided)", "")
    if verdict != exp["verdict"]:
        return f"verdict {verdict}, expected {exp['verdict']}"
    want_status = "open-question" if verdict == "unknown-open" else "pass"
    if rec["status"] != want_status:
        return f"status {rec['status']}, expected {want_status}"
    if verdict in ("valued-isomorphic", "isomorphic-sufficient"):
        return witness_problem(exp, parse_matrix(rec.get("witness")))
    return None


_CHECKS = {
    "clean": _check_clean,
    "cf": _check_cf,
    "finite": _check_finite,
    "equiv": _check_equiv,
    "classify": _check_classify,
}


def check_op(exp, result):
    """Classify one CLI result against the oracle.

    Returns (failure, wrong): failure is None for a correct answer, else
    the reason the op failed; wrong is True when the program claimed
    success (exit 0) for an answer the oracle rejects."""
    if result.get("error"):
        return f"raised {result['error']}", False
    try:
        doc = json.loads(result["out"])
    except (ValueError, KeyError):
        return "output is not JSON", result.get("code") == 0
    try:
        problem = _CHECKS[exp["kind"]](exp, doc)
    except (KeyError, IndexError, TypeError) as exc:
        problem = f"output lacks the expected records ({exc!r})"
    if problem is not None:
        return problem, result.get("code") == 0
    if result.get("code") != 0:
        return f"exit code {result.get('code')}", False
    return None, False
