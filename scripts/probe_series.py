#!/usr/bin/env python3
"""Time and count the series inverse and the `leading-constraint` check on
the cases of the pdo-precision benchmark: for each case and precision N,
a = u + y in k(y,z)((u; delta)) is inverted twice, pdo_inv(pdo_inv(a)), as
the `inverse-roundtrip` check of `orefields.cli pdo` does.  One line per
run: the best of --repeat timings, and, from one more run, the RatFunc2
products, the sums (`RatFunc2.weighted_sum`, through which `+` and `-`
go), the coefficient entries those sums add up (the sum of
len(c.num) over the terms c of each call; it does not depend on how the
sum is formed), the monomial-content scans of the Laurent form
(`ratfunc._content`), the `Derivation.power` calls and the calls of
the coefficient field's product (`_mul` of its class, on raw reps; in K(a)
the products of K(a), not of K).  Over QQ and GF(l) the sums multiply and
add natively (`Field._accumulator`), so "k mul" leaves out their
products; "entries" counts that work.  Next to them, the `leading-constraint`
check as the CLI runs it (the monomial morphism of the matrix 1,1,0,1,
then Xinv, Y and Z, the six series products and the differences of the
commutation identities): the best of --repeat timings ("lc ms"), and the
calls of the Ore product loop `skewpoly._terms` ("lc loop") and of
`RatFunc2.weighted_sum` ("lc sums") in one more run.  The counts do not
depend on the machine.  Each function is counted wherever orefields binds
it (`tests/_support.py`, `counting`).

    PYTHONPATH=src python scripts/probe_series.py --precisions 8,16,24,32,48
"""

import argparse
import contextlib
import os
import sys
import time

from orefields import presentations, ratfunc, skewpoly
from orefields.cli import Config
from orefields.literals import parse_matrix
from orefields.pdo import PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv
from orefields.ratfunc import Derivation, RatFunc2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from _support import counting, rebound  # noqa: E402

# (char, --alpha), as in the pdo-precision workload of perfbench/workloads.py
CASES = [(0, "rat:2"), (3, "param"), (7, "rat:3"), (0, "quad:(0+1*sqrt(2))/1")]


def setup(char, alpha):
    alpha = Config(char=char, alpha=alpha).alpha_elem()
    return alpha, presentations.algebra_make(presentations.CaseSpec("g", alpha.field, alpha))


def series(pres, prec):
    y = PdoSeries.from_ratfunc(pres.D, pres.ctx.monomial(1, 0), prec)
    return PdoSeries.u(pres.D, prec) + y


def leading_constraint(alpha, pres, prec):
    """The `leading-constraint` check of `orefields.cli pdo` at the default
    matrix."""
    phi = presentations.monomial_morphism(parse_matrix("1,1,0,1"), alpha)
    Xinv = pdo_inv(pdo_from_skew(phi.x_img, prec))
    Y = pdo_from_skew(phi.y_img, prec)
    Z = pdo_from_skew(phi.z_img, prec)
    return leading_constraint_check(Xinv, Y, Z, phi.beta, pres.D)


def best_of(repeat, fn):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        t = time.perf_counter() - start
        best = t if best is None else min(best, t)
    return best


@contextlib.contextmanager
def counted(field):
    """Count, inside the block, the RatFunc2 products, the sums and the
    entries they add up, the content scans, the `Derivation.power` calls
    and the products of field, each through every binding
    (`_support.counting`); yields the counts by column."""
    weighted_sum = RatFunc2.weighted_sum
    with counting(products=RatFunc2.__mul__, scans=ratfunc._content, powers=Derivation.power,
                  k_mul=type(field)._mul) as counts:

        def tallied(terms):
            counts["sums"] += 1
            counts["entries"] += sum(len(c.num) for c, _ in terms)
            return weighted_sum(terms)

        with rebound(weighted_sum, tallied):
            yield counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--precisions", default="8,16,24,32,48")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'char':>4} {'alpha':22} {'N':>3} {'ms':>9} {'products':>9} "
          f"{'sums':>7} {'entries':>8} {'scans':>7} {'D^s':>7} {'k mul':>7} "
          f"{'lc ms':>8} {'lc loop':>7} {'lc sums':>7}")
    for char, alpha in CASES:
        elem, pres = setup(char, alpha)
        for prec in map(int, args.precisions.split(",")):
            a = series(pres, prec)
            best = best_of(args.repeat, lambda: pdo_inv(pdo_inv(a)))
            back = pdo_inv(pdo_inv(a))
            if not back.approx_eq(a.truncate(back.prec)):
                raise SystemExit(f"inverse roundtrip fails: char {char}, {alpha}, N = {prec}")
            with counted(a.ctx.field) as counts:
                pdo_inv(pdo_inv(a))
            lc_best = best_of(args.repeat, lambda: leading_constraint(elem, pres, prec))
            with counting(loop=skewpoly._terms, sums=RatFunc2.weighted_sum) as lc:
                leading_constraint(elem, pres, prec)
            print(f"{char:>4} {alpha:22} {prec:>3} {best * 1000:9.2f} "
                  f"{counts['products']:>9} {counts['sums']:>7} {counts['entries']:>8} "
                  f"{counts['scans']:>7} {counts['powers']:>7} {counts['k_mul']:>7} "
                  f"{lc_best * 1000:8.2f} {lc['loop']:>7} {lc['sums']:>7}")


if __name__ == "__main__":
    main()
