"""The call counter of the work budgets, the probes and the tests
(`_support.counting`, on `_support.rebound`): a function is counted
through every name under which a module of orefields, or a class defined
in one, binds it (a static or class method staying one), every binding is
back after the block, and a function bound nowhere is an error, so that a
renamed kernel function fails its budget instead of counting 0.  Then the
gcd column of `scripts/probe_centers.py`, which counts one gcd once."""

import os
import sys

import pytest

from orefields import fields, orbits, pdo, ratfunc, skewpoly
from orefields.fields import QQ, _UPoly
from orefields.ratfunc import FunctionField2, RatFunc2, _PPoly, scaling_derivation
from orefields.skewpoly import SkewPoly

from _support import counting

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))

import probe_centers  # noqa: E402

# (owner, name) of each binding that the tests below rebind
BINDINGS = [(skewpoly, "_terms"), (pdo, "_terms"), (fields, "_umul"), (ratfunc, "_umul"),
            (orbits, "_umul"), (_UPoly, "mul"), (RatFunc2, "weighted_sum"), (_PPoly, "gcd"),
            (SkewPoly, "zero")]


def kernel_functions():
    return {"terms": skewpoly._terms, "umul": fields._umul,
            "wsum": RatFunc2.weighted_sum, "pgcd": _PPoly.gcd, "zero": SkewPoly.zero}


def bound():
    return [vars(owner)[name] for owner, name in BINDINGS]


def poly(*monomials):
    """The polynomial of k[y, z] over QQ with the monomials (i, j), each
    with coefficient 1, as a raw rep."""
    return {ij: QQ()._from_int(1) for ij in monomials}


def test_every_binding_is_counted():
    K = QQ()
    ctx = FunctionField2(K)
    y, z = ctx.gens()
    D = scaling_derivation(ctx, 1, 2)
    one = (K._from_int(1), K._from_int(1))
    p, q = poly((0, 0), (1, 0)), poly((0, 0), (1, 0), (0, 1), (1, 1))
    with counting(**kernel_functions()) as calls:
        # the loop under its own module's name and as pdo imports it
        for terms in (skewpoly._terms, pdo._terms):
            terms({1: y}, {0: z}, D, {})
        # the univariate product as the K(a) kernel's mul and by three imports
        for mul in (fields._umul, ratfunc._umul, orbits._umul, _UPoly.mul):
            mul(K, one, one)
        assert calls["umul"] == 4
        # static methods, called on the class and on an instance
        assert isinstance(vars(RatFunc2)["weighted_sum"], staticmethod)
        assert isinstance(vars(_PPoly)["gcd"], staticmethod)
        RatFunc2.weighted_sum([(y, None), (z, None)])
        y.weighted_sum([(y, None), (z, None)])
        assert _PPoly.gcd(K, p, q) == p
        # a class method, which stays one
        assert isinstance(vars(SkewPoly)["zero"], classmethod)
        assert SkewPoly.zero(D).is_zero() and SkewPoly.x(D).zero(D).is_zero()
    assert (calls["terms"], calls["wsum"], calls["pgcd"], calls["zero"]) == (2, 2, 1, 2)


def test_every_binding_is_back_after_the_block():
    before = bound()
    with counting(**kernel_functions()):
        assert all(now is not then for now, then in zip(bound(), before))
    assert all(now is then for now, then in zip(bound(), before))
    with pytest.raises(ZeroDivisionError):
        with counting(**kernel_functions()):
            raise ZeroDivisionError
    assert all(now is then for now, then in zip(bound(), before))


def test_a_function_bound_nowhere_is_an_error():
    before = bound()
    with pytest.raises(LookupError):
        with counting(lost=lambda: None):
            pass
    # the functions rebound before the lost one are back too
    with pytest.raises(LookupError):
        with counting(**kernel_functions(), lost=lambda: None):
            pass
    assert all(now is then for now, then in zip(bound(), before))


def test_one_sum_of_fractions_counts_each_gcd_once():
    """(y + 1)/(z + 2) + z/(y + 3) over QQ reduces its sum by one bivariate
    gcd, whose contents take three univariate gcds; `_PPoly.gcd` calls
    `_pgcd` and is no second gcd."""
    ctx = FunctionField2(QQ())
    y, z = ctx.gens()
    f, g = (y + 1) / (z + 2), z / (y + 3)
    with counting(pgcd=ratfunc._pgcd, ugcd=fields._ugcd) as calls:
        total = f + g
    assert calls == {"pgcd": 1, "ugcd": 3}
    with probe_centers.counted() as (counts, _):
        assert f + g == total
    assert counts["gcd"] == 4
