"""The canonical rational rep over QQ, QQ(sqrt d) and their parameter fields.

Every rational component of a rep is an int exactly when it is integral,
otherwise a Fraction with denominator greater than 1, and never a float.
Random sequences of + - * /, inverses, powers and integer and Fraction
coercions are run side by side in each field and in a copy of it built on
the Fraction-only reference fields of `_support`; the values must agree."""

import random
from fractions import Fraction

import pytest

from orefields.fields import QQ, Qsqrt, with_parameter

from _support import RefQuadraticField, RefRationalField

FIELDS = {
    "QQ": (QQ, RefRationalField),
    "QQsqrt2": (lambda: Qsqrt(2), lambda: RefQuadraticField(2)),
    "QQsqrt-3": (lambda: Qsqrt(-3), lambda: RefQuadraticField(-3)),
    "QQ(a)": (lambda: with_parameter(QQ()), lambda: with_parameter(RefRationalField())),
    "QQsqrt2(a)": (lambda: with_parameter(Qsqrt(2)),
                   lambda: with_parameter(RefQuadraticField(2))),
}

FRACTIONS = [Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(-6, 3),
             Fraction(2, 3), Fraction(0)]
INTS = [0, 1, -1, 2, -3, 6]


def rational_leaves(rep):
    """Every rational component of a rep, walking the nested tuples."""
    if isinstance(rep, tuple):
        for x in rep:
            yield from rational_leaves(x)
    else:
        yield rep


def assert_canonical(rep):
    for x in rational_leaves(rep):
        assert type(x) in (int, Fraction), f"{x!r} in {rep!r} is a {type(x).__name__}"
        if type(x) is Fraction:
            assert x.denominator > 1, f"integral {x!r} in {rep!r} is a Fraction"


def atoms(F):
    """Generators and integer and Fraction constants of F, each coerced
    through a different entry point."""
    out = [F.zero(), F.one()]
    out += [F.from_int(n) for n in INTS]
    out += [F.coerce(f) for f in FRACTIONS]
    base = getattr(F, "base", F)
    if hasattr(base, "gen"):
        out.append(F.coerce(base.gen()))
    if base is not F:
        out.append(F.gen())
    return out


def random_op(rng):
    """A random operation on two elements, with its constants drawn here so
    that it can be replayed in the reference field."""
    kind = rng.choice(["+", "-", "*", "/", "inv", "neg", "pow", "int", "frac"])
    n, f, k = rng.choice(INTS), rng.choice(FRACTIONS), rng.choice([2, 3, -1, -2])
    return {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "inv": lambda a, b: a.inverse(),
        "neg": lambda a, b: -a,
        "pow": lambda a, b: a ** k,
        "int": lambda a, b: n * a + n - b * n,
        "frac": lambda a, b: f - a * f + b / (f or 1),
    }[kind]


@pytest.mark.parametrize("name", FIELDS)
def test_reps_are_canonical_and_agree_with_fractions(name):
    make, make_ref = FIELDS[name]
    F, R = make(), make_ref()
    for seed in range(6):
        rng = random.Random(seed)
        pool = list(zip(atoms(F), atoms(R)))
        for x, xr in pool:
            assert_canonical(x.rep)
            assert x.rep == xr.rep
        for _ in range(80):
            (x, xr), (y, yr) = rng.choice(pool), rng.choice(pool)
            op = random_op(rng)
            try:
                z = op(x, y)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(xr, yr)
                continue
            zr = op(xr, yr)
            assert_canonical(z.rep)
            assert z.rep == zr.rep, f"{z} != {zr}"
            if sum(1 for _ in rational_leaves(z.rep)) <= 24:
                pool.append((z, zr))


@pytest.mark.parametrize("name", FIELDS)
def test_integral_results_of_fraction_arithmetic_are_ints(name):
    F = FIELDS[name][0]()
    half, third = F.coerce(Fraction(1, 2)), F.coerce(Fraction(1, 3))
    for z, want in ((half + half, 1), (third * 3, 1), (half.inverse(), 2),
                    (F.from_int(-1).inverse(), -1), (F.coerce(Fraction(4, 2)), 2)):
        assert_canonical(z.rep)
        assert z == want
