#!/usr/bin/env python3
"""Time `verify all --alpha param` check by check at a list of
characteristics l, and count its skew products by kind: commutative, where
every coefficient of both factors is a constant (x^l - x, the central
element c, the translates x - i gamma), and Ore, where some coefficient is
not.  One row per check, one column per l: the best of --repeat runs of
each check's own time, in ms; then the whole run and the two product
counts, taken from one more run.  The counts do not depend on the machine.

    PYTHONPATH=src python scripts/probe_centers.py --chars 61,101,151
"""

import argparse
import time

from orefields import pdo, skewpoly
from orefields.cli import Config, run_suite


def counted():
    """Wrap the Ore product loop `_terms`, in skewpoly and where pdo
    imports it, with a counter of its calls by kind; returns the counts and
    a function that restores the loop."""
    counts = {"commutative": 0, "Ore": 0}
    loop = skewpoly._terms

    def inner(f, g, *args, **kwargs):
        const = all(c.is_constant() for c in (*f.values(), *g.values()))
        counts["commutative" if const else "Ore"] += 1
        return loop(f, g, *args, **kwargs)

    skewpoly._terms = pdo._terms = inner

    def restore():
        skewpoly._terms = pdo._terms = loop
    return counts, restore


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chars", default="61,101,151")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    chars = list(map(int, args.chars.split(",")))
    rows, totals, products = {}, {}, {}
    for ell in chars:
        cfg = Config(char=ell, alpha="param")
        for _ in range(args.repeat):
            start = time.perf_counter()
            report = run_suite("all", cfg)
            total = (time.perf_counter() - start) * 1000.0
            if report.failures:
                raise SystemExit(f"l = {ell}: {len(report.failures)} checks fail")
            totals[ell] = min(totals.get(ell, total), total)
            for c in report.checks:
                best = rows.setdefault(c.name, {}).get(ell, c.runtime_ms)
                rows[c.name][ell] = min(best, c.runtime_ms)
        counts, restore = counted()
        try:
            run_suite("all", cfg)
        finally:
            restore()
        products[ell] = counts

    width = max(map(len, rows))
    print(f"{'check (ms)':{width}} " + " ".join(f"{'l = ' + str(ell):>10}" for ell in chars))
    for name, by_char in rows.items():
        cells = (f"{by_char[ell]:10.1f}" if ell in by_char else f"{'-':>10}" for ell in chars)
        print(f"{name:{width}} " + " ".join(cells))
    print(f"{'whole run (ms)':{width}} " + " ".join(f"{totals[ell]:10.1f}" for ell in chars))
    for kind in ("commutative", "Ore"):
        print(f"{kind + ' products':{width}} "
              + " ".join(f"{products[ell][kind]:>10}" for ell in chars))


if __name__ == "__main__":
    main()
