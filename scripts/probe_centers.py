#!/usr/bin/env python3
"""Time `verify all` check by check on a list of (characteristic, alpha)
cases, and count the calls of the Ore product loop `skewpoly._terms` and
the applications of a derivation, `Derivation.__call__`.  One row per
check, three columns per case: the best of --repeat runs of the check's
own time, in ms, and the `_terms` calls and the applications of D that the
check made, counted on one more run.  A row "outside checks" counts the
calls that no check made (work a suite does between its checks).  Then
the whole run, the `_terms` calls by kind: commutative, where every
coefficient of both factors is a constant (x^l - x, the central element
c, the translates x - i gamma), and Ore, where some coefficient is not,
and the applications of D.  The counts do not depend on the machine.

    PYTHONPATH=src python scripts/probe_centers.py --chars 61,101,151

--chars l1,l2 is short for the cases l1:param l2:param.  The cases of the
benchmark's verify-grid workload, at its seed 19:

    PYTHONPATH=src python scripts/probe_centers.py --seed 19 --cases \\
        0:rat:2/3 "0:quad:(0+1*sqrt(2))/1" 0:param 2:param 3:param 5:param 7:param
"""

import argparse
import time

from orefields import pdo, skewpoly
from orefields.cli import Config, Report, run_suite
from orefields.ratfunc import Derivation

OUTSIDE = "outside checks"


def counted():
    """Wrap the Ore product loop `_terms`, in skewpoly and where pdo
    imports it, with a counter of its calls by kind, `Derivation.__call__`
    with a counter of its calls, and `Report.run` with a counter of the
    calls of both that each check makes; returns the counts by kind
    ("commutative", "Ore" and "D"), the (_terms, D) counts by check, and a
    function that restores all three."""
    counts = {"commutative": 0, "Ore": 0, "D": 0}
    by_check = {}
    loop, apply, run = skewpoly._terms, Derivation.__call__, Report.run

    def inner(f, g, *args, **kwargs):
        const = all(c.is_constant() for c in (*f.values(), *g.values()))
        counts["commutative" if const else "Ore"] += 1
        return loop(f, g, *args, **kwargs)

    def applied(self, f):
        counts["D"] += 1
        return apply(self, f)

    def total():
        return counts["commutative"] + counts["Ore"], counts["D"]

    def check(self, name, *args, **kwargs):
        before = total()
        try:
            return run(self, name, *args, **kwargs)
        finally:
            old = by_check.get(name, (0, 0))
            by_check[name] = tuple(o + t - b for o, t, b in zip(old, total(), before))

    skewpoly._terms = pdo._terms = inner
    Derivation.__call__ = applied
    Report.run = check

    def restore():
        skewpoly._terms = pdo._terms = loop
        Derivation.__call__ = apply
        Report.run = run
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
    cell = [max(23, len(label)) for label in labels]
    print(f"{'':{width}} " + " ".join(f"{label:>{w}}" for label, w in zip(labels, cell)))
    print(f"{'check':{width}} "
          + " ".join(f"{'ms':>{w - 14}}{'_terms':>8}{'D':>6}" for w in cell))
    for name in [*rows, OUTSIDE]:
        cells = []
        for label, w in zip(labels, cell):
            ms = rows.get(name, {}).get(label)
            n, d = terms.get(name, {}).get(label, ("-", "-"))
            cells.append(f"{'-' if ms is None else f'{ms:.1f}':>{w - 14}}{n:>8}{d:>6}")
        print(f"{name:{width}} " + " ".join(cells))
    print((f"{'whole run (ms)':{width}} "
           + " ".join(f"{totals[label]:{w - 14}.1f}{'':14}"
                      for label, w in zip(labels, cell))).rstrip())
    for kind in ("commutative", "Ore"):
        print(f"{kind + ' _terms':{width}} "
              + " ".join(f"{kinds[label][kind]:>{w}}" for label, w in zip(labels, cell)))
    print(f"{'_terms calls':{width}} "
          + " ".join(f"{kinds[label]['commutative'] + kinds[label]['Ore']:>{w}}"
                     for label, w in zip(labels, cell)))
    print(f"{'D applications':{width}} "
          + " ".join(f"{kinds[label]['D']:>{w}}" for label, w in zip(labels, cell)))


if __name__ == "__main__":
    main()
