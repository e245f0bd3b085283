#!/usr/bin/env python3
"""Time and count the series inverse and the `leading-constraint` check on
the cases of the pdo-precision benchmark: for each case and precision N,
a = u + y in k(y,z)((u; delta)) is inverted twice, pdo_inv(pdo_inv(a)), as
the `inverse-roundtrip` check of `orefields.cli pdo` does.  One line per
run: the best of --repeat timings, and, from one more run, the RatFunc2
products, the sums
(`RatFunc2.weighted_sum`, through which `+` and `-` go; "-" where the
sources have none), the coefficient entries those sums add up (the sum of
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
depend on the machine.

    PYTHONPATH=src python scripts/probe_series.py --precisions 8,16,24,32,48
"""

import argparse
import time

from orefields import pdo, presentations, ratfunc, skewpoly
from orefields.cli import Config
from orefields.literals import parse_matrix
from orefields.pdo import PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv
from orefields.ratfunc import Derivation, RatFunc2

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


def counted(targets, tallies=None):
    """Wrap the attributes (owner, name) in targets, an owner being a class
    or a module, with call counters; tallies maps a name to (key, size),
    and each call of it also adds size(*args) to counts[key].  Returns the
    counts by name and key, the names found and a function that restores
    them."""
    tallies = tallies or {}
    counts = {name: 0 for _, name in targets}
    counts.update({key: 0 for key, _ in tallies.values()})
    saved = {(owner, name): vars(owner)[name] for owner, name in targets
             if name in vars(owner)}

    def wrap(name, fn):
        key, size = tallies.get(name, (None, None))

        def inner(*args, **kwargs):
            counts[name] += 1
            if key:
                counts[key] += size(*args)
            return fn(*args, **kwargs)
        return inner

    for (owner, name), attr in saved.items():
        if isinstance(attr, staticmethod):
            setattr(owner, name, staticmethod(wrap(name, attr.__func__)))
        else:
            setattr(owner, name, wrap(name, attr))

    def restore():
        for (owner, name), attr in saved.items():
            setattr(owner, name, attr)
    return counts, {name for _, name in saved}, restore


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
            counts, present, restore = counted(
                [(RatFunc2, name) for name in ("__mul__", "__rmul__", "weighted_sum")]
                + [(ratfunc, "_content"), (Derivation, "power"),
                   (type(a.ctx.field), "_mul")],
                {"weighted_sum": ("entries", lambda terms: sum(len(c.num) for c, _ in terms))})
            try:
                pdo_inv(pdo_inv(a))
            finally:
                restore()
            sums, entries = ((counts["weighted_sum"], counts["entries"])
                             if "weighted_sum" in present else ("-", "-"))
            lc_best = best_of(args.repeat, lambda: leading_constraint(elem, pres, prec))
            lc, _, restore = counted([(skewpoly, "_terms"), (pdo, "_terms"),
                                      (RatFunc2, "weighted_sum")])
            try:
                leading_constraint(elem, pres, prec)
            finally:
                restore()
            print(f"{char:>4} {alpha:22} {prec:>3} {best * 1000:9.2f} "
                  f"{counts['__mul__'] + counts['__rmul__']:>9} {sums:>7} {entries:>8} "
                  f"{counts['_content']:>7} {counts['power']:>7} {counts['_mul']:>7} "
                  f"{lc_best * 1000:8.2f} {lc['_terms']:>7} {lc['weighted_sum']:>7}")


if __name__ == "__main__":
    main()
