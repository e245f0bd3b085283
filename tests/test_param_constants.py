"""The constants of K in K(a), worked on through their base reps: a
product with one is the other operand, and the product or sum of two
constants, the power of one and its inverse are one operation of K, with
no call of the univariate polynomial kernel (`_umul`, `_uscale`, `_uadd`
and their `_UPoly` names), against `ref_param_mul` and `ref_param_add`.
A sum c + (-c) is the zero rep.  And the kernel's products, which no
longer trim, give trimmed tuples for trimmed factors over a field."""

import random

import pytest

from orefields import fields
from orefields.fields import GF, QQ, Qsqrt, _utrim, with_parameter

from _support import rand_nonzero, ref_param_add, ref_param_mul

BASES = {
    "GF2": lambda: GF(2),
    "GF3": lambda: GF(3),
    "GF7": lambda: GF(7),
    "QQ": QQ,
    "QQsqrt2": lambda: Qsqrt(2),
    "GF9": lambda: GF(3, 2),
}


def guard_kernel(monkeypatch, K):
    """Make the polynomial kernel over K raise while guard["on"] is set;
    calls over another field (GF(9) inverts through GF(3) tuples) pass."""
    guard = {"on": False}

    def guarded(fn):
        def call(L, *args):
            if guard["on"] and L is K:
                raise AssertionError(f"{fn.__name__} on a constant of K")
            return fn(L, *args)
        return call
    for name in ("_umul", "_uscale", "_uadd"):
        monkeypatch.setattr(fields, name, guarded(getattr(fields, name)))
    for name in ("mul", "scale", "add"):
        monkeypatch.setattr(fields._UPoly, name, guarded(getattr(fields._UPoly, name)))
    return guard


def operands(rng, F):
    """(kind, rep) pairs: one and -1 ("unit"), zero, constants,
    polynomials and fractions in a."""
    a = F.gen()

    def poly(deg):
        p = a ** deg * F.coerce(rand_nonzero(rng, F.base))
        for i in range(deg):
            if rng.random() < 0.7:
                p = p + a ** i * F.coerce(rand_nonzero(rng, F.base))
        return p
    out = [("unit", F.one()), ("unit", -F.one()), ("zero", F.zero())]
    out += [("constant", poly(0)) for _ in range(3)]
    out += [("polynomial", poly(rng.randint(1, 3))) for _ in range(3)]
    out += [("fraction", poly(rng.randint(0, 2)) / poly(rng.randint(1, 2))) for _ in range(3)]
    return [(kind, e.rep) for kind, e in out]


CONSTANT = {"unit", "constant"}


@pytest.mark.parametrize("base", sorted(BASES))
def test_products_and_sums_of_constants_match_reference(base, monkeypatch):
    F = with_parameter(BASES[base]())
    rng = random.Random(f"param-constants-{base}")
    ops = operands(rng, F)
    cases = [(ka, a, kb, b, ref_param_mul(F, a, b), ref_param_add(F, a, b))
             for ka, a in ops for kb, b in ops]
    guard = guard_kernel(monkeypatch, F.base)
    for ka, a, kb, b, product, total in cases:
        # the kernel is barred where one operand is one or zero, or both
        # are constants (-1 included): a product, and for a sum both constant
        constants = {ka, kb} <= CONSTANT
        guard["on"] = a == F._one or b == F._one or "zero" in (ka, kb) or constants
        assert F._mul(a, b) == product, (ka, a, kb, b)
        guard["on"] = "zero" in (ka, kb) or constants
        assert F._add(a, b) == total, (ka, a, kb, b)
        guard["on"] = False
    # one times anything is that operand, on either side
    for _, b in ops:
        assert F._mul(F._one, b) == b == F._mul(b, F._one)


@pytest.mark.parametrize("base", sorted(BASES))
def test_a_constant_and_its_negative_sum_to_the_zero_rep(base, monkeypatch):
    F = with_parameter(BASES[base]())
    rng = random.Random(f"param-cancel-{base}")
    consts = [rep for kind, rep in operands(rng, F) if kind in CONSTANT]
    negs = [F._neg(c) for c in consts]
    guard = guard_kernel(monkeypatch, F.base)
    guard["on"] = True
    for c, n in zip(consts, negs):
        assert F._add(c, n) == F._add(n, c) == F._zero_rep() == ((), (F.base._one_rep(),))


@pytest.mark.parametrize("base", sorted(BASES))
def test_powers_and_inverses_of_constants(base, monkeypatch):
    F = with_parameter(BASES[base]())
    K = F.base
    rng = random.Random(f"param-powers-{base}")
    ell = F.char or 3
    consts = [rep for kind, rep in operands(rng, F) if kind in CONSTANT]
    want = {}
    for c in consts:
        for n in (ell, ell * ell + 1, 0):
            power = K._one_rep()
            for _ in range(n):
                power = K._mul(power, c[0][0])
            want[c, n] = ((power,), (K._one_rep(),))
    guard = guard_kernel(monkeypatch, K)
    guard["on"] = True
    for (c, n), power in want.items():
        assert F._pow(c, n) == power, (c, n)
    for c in consts:
        inv = F._inv(c)
        assert len(inv[0]) == 1 and inv[1] == (K._one_rep(),)
        assert K._mul(c[0][0], inv[0][0]) == K._one_rep()


def ref_umul(K, a, b):
    """The schoolbook product, trimmed afterwards."""
    out = [K._zero_rep()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = K._add(out[i + j], K._mul(x, y))
    return _utrim(K, out)


@pytest.mark.parametrize("name", [*sorted(BASES), "GF3(a)"])
def test_kernel_products_of_trimmed_tuples_are_trimmed(name):
    K = with_parameter(GF(3)) if name == "GF3(a)" else BASES[name]()
    rng = random.Random(f"kernel-trim-{name}")

    def trimmed():
        # zeros inside, a nonzero top coefficient
        coeffs = [rand_nonzero(rng, K).rep if rng.random() < 0.6 else K._zero_rep()
                  for _ in range(rng.randint(0, 4))]
        return tuple(coeffs) + (rand_nonzero(rng, K).rep,) if rng.random() < 0.9 else ()
    for _ in range(60):
        a, b = trimmed(), trimmed()
        s = rng.choice([K._zero_rep(), K._one_rep(), rand_nonzero(rng, K).rep])
        product, scaled = fields._umul(K, a, b), fields._uscale(K, a, s)
        assert product == ref_umul(K, a, b) == _utrim(K, product)
        assert scaled == ref_umul(K, a, (s,) if not K._is_zero(s) else ()) == _utrim(K, scaled)
