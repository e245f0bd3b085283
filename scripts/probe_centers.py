#!/usr/bin/env python3
"""Time `verify all` check by check on a list of (characteristic, alpha)
cases, and count the calls of the Ore product loop `skewpoly._terms`,
the applications of a derivation, `Derivation.__call__`, and the gcds:
the calls of univariate Euclid (`fields._ugcd`, in K(a) and in the
contents of bivariate gcds) plus those of the bivariate gcd
`ratfunc._pgcd`. One row per check, four columns per case: the best of
--repeat runs of the check's own time, in ms, and the `_terms` calls,
the applications of D and the gcds that the check made, counted on one
more run. A row "outside checks" counts the calls that no check made
(work a suite does between its checks). Then the whole run, the `_terms`
calls by kind: commutative, where every coefficient of both factors is a
constant (x^l - x, the central element c, the translates x - i gamma),
and Ore, where some coefficient is not, the applications of D and the
gcds. The counts do not depend on the machine.

    PYTHONPATH=src python scripts/probe_centers.py --chars 61,101,151

--chars l1,l2 is short for the cases l1:param l2:param.  The cases of the
benchmark's verify-grid workload, at its seed 19:

    PYTHONPATH=src python scripts/probe_centers.py --seed 19 --cases \\
        0:rat:2/3 "0:quad:(0+1*sqrt(2))/1" 0:param 2:param 3:param 5:param 7:param
"""

import argparse
import time

from orefields import fields, pdo, ratfunc, skewpoly
from orefields.cli import Config, Report, run_suite
from orefields.ratfunc import Derivation

OUTSIDE = "outside checks"


# the gcds, as (owner, name): univariate Euclid as the K(a) kernel's gcd
# and as ratfunc imports it, and the bivariate gcd by its module global
# and as the bivariate kernel's gcd
GCDS = ((fields._UPoly, "gcd"), (ratfunc, "_ugcd"), (ratfunc, "_pgcd"), (ratfunc._PPoly, "gcd"))


def counted():
    """Wrap the Ore product loop `_terms`, in skewpoly and where pdo
    imports it, with a counter of its calls by kind, `Derivation.__call__`
    and the gcds (`GCDS`) with counters of their calls, and `Report.run`
    with a counter of the calls of all three that each check makes;
    returns the counts by kind ("commutative", "Ore", "D" and "gcd"), the
    (_terms, D, gcd) counts by check, and a function that restores them
    all."""
    counts = {"commutative": 0, "Ore": 0, "D": 0, "gcd": 0}
    by_check = {}
    loop, apply, run = skewpoly._terms, Derivation.__call__, Report.run
    gcds = [getattr(owner, name) for owner, name in GCDS]

    def inner(f, g, *args, **kwargs):
        const = all(c.is_constant() for c in (*f.values(), *g.values()))
        counts["commutative" if const else "Ore"] += 1
        return loop(f, g, *args, **kwargs)

    def applied(self, f):
        counts["D"] += 1
        return apply(self, f)

    def gcd_counter(fn):
        def gcd(*args):
            counts["gcd"] += 1
            return fn(*args)
        return gcd

    def total():
        return counts["commutative"] + counts["Ore"], counts["D"], counts["gcd"]

    def check(self, name, *args, **kwargs):
        before = total()
        try:
            return run(self, name, *args, **kwargs)
        finally:
            old = by_check.get(name, (0, 0, 0))
            by_check[name] = tuple(o + t - b for o, t, b in zip(old, total(), before))

    skewpoly._terms = pdo._terms = inner
    Derivation.__call__ = applied
    Report.run = check
    for (owner, name), fn in zip(GCDS, gcds):
        setattr(owner, name, gcd_counter(fn))

    def restore():
        skewpoly._terms = pdo._terms = loop
        Derivation.__call__ = apply
        Report.run = run
        for (owner, name), fn in zip(GCDS, gcds):
            setattr(owner, name, fn)
        by_check[OUTSIDE] = tuple(t - sum(n[k] for n in by_check.values())
                                  for k, t in enumerate(total()))
    return counts, by_check, restore


def parse_case(text):
    char, alpha = text.split(":", 1)
    return int(char), alpha


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chars", default="61,101,151",
                        help="characteristics l, each run with --alpha param")
    parser.add_argument("--cases", nargs="+", metavar="CHAR:ALPHA",
                        help="(characteristic, alpha literal) cases, in place of --chars")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if args.cases:
        cases = [parse_case(text) for text in args.cases]
    else:
        cases = [(int(ell), "param") for ell in args.chars.split(",")]
    labels = [f"{char}:{alpha}" for char, alpha in cases]
    rows, terms, totals, kinds = {}, {}, {}, {}
    for label, (char, alpha) in zip(labels, cases):
        cfg = Config(char=char, alpha=alpha, seed=args.seed)
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = run_suite("all", cfg)
            total = (time.perf_counter() - start) * 1000.0
            if report.failures:
                raise SystemExit(f"{label}: {len(report.failures)} checks fail")
            totals[label] = min(totals.get(label, total), total)
            for c in report.checks:
                best = rows.setdefault(c.name, {}).get(label, c.runtime_ms)
                rows[c.name][label] = min(best, c.runtime_ms)
        counts, by_check, restore = counted()
        try:
            run_suite("all", cfg)
        finally:
            restore()
        kinds[label] = counts
        for name, n in by_check.items():
            terms.setdefault(name, {})[label] = n

    width = max(map(len, [*rows, OUTSIDE, "commutative _terms"]))
    cell = [max(29, len(label)) for label in labels]
    print(f"{'':{width}} " + " ".join(f"{label:>{w}}" for label, w in zip(labels, cell)))
    print(f"{'check':{width}} "
          + " ".join(f"{'ms':>{w - 20}}{'_terms':>8}{'D':>6}{'gcd':>6}" for w in cell))
    for name in [*rows, OUTSIDE]:
        cells = []
        for label, w in zip(labels, cell):
            ms = rows.get(name, {}).get(label)
            n, d, g = terms.get(name, {}).get(label, ("-", "-", "-"))
            cells.append(f"{'-' if ms is None else f'{ms:.1f}':>{w - 20}}{n:>8}{d:>6}{g:>6}")
        print(f"{name:{width}} " + " ".join(cells))
    print((f"{'whole run (ms)':{width}} "
           + " ".join(f"{totals[label]:{w - 20}.1f}{'':20}"
                      for label, w in zip(labels, cell))).rstrip())
    for kind in ("commutative", "Ore"):
        print(f"{kind + ' _terms':{width}} "
              + " ".join(f"{kinds[label][kind]:>{w}}" for label, w in zip(labels, cell)))
    print(f"{'_terms calls':{width}} "
          + " ".join(f"{kinds[label]['commutative'] + kinds[label]['Ore']:>{w}}"
                     for label, w in zip(labels, cell)))
    print(f"{'D applications':{width}} "
          + " ".join(f"{kinds[label]['D']:>{w}}" for label, w in zip(labels, cell)))
    print(f"{'gcd calls':{width}} "
          + " ".join(f"{kinds[label]['gcd']:>{w}}" for label, w in zip(labels, cell)))


if __name__ == "__main__":
    main()
