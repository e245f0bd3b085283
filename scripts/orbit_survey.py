#!/usr/bin/env python3
"""Survey the finite homographic orbits for every prime l up to --max-ell
(at most the enumeration bound orbits.MAX_ORBIT_ELL): orbit sizes,
stabilizer orders and norm-map data, plus the char-2 table on GF(8)."""

import argparse

from orefields.fields import GF, is_prime
from orefields.orbits import (
    MAX_ORBIT_ELL, Mat2Z, finite_orbits, homographic, transitivity_report,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ell", type=int, default=7)
    args = parser.parse_args()
    if args.max_ell > MAX_ORBIT_ELL:
        parser.error(f"--max-ell {args.max_ell} exceeds the enumeration bound {MAX_ORBIT_ELL}")

    primes = [p for p in range(2, args.max_ell + 1) if is_prime(p)]
    for ell in primes:
        print(f"== l = {ell}")
        for k in (2, 3):
            for group in ("sl", "slpm"):
                rep = finite_orbits(ell, k, group)
                shape = ", ".join(f"size {o.size} (stab {o.stabilizer_order})"
                                  for o in rep.orbits)
                print(f"  GF({ell}^{k}) {group:4} |G|={rep.group_order:5}  {shape}")
        tr = transitivity_report(ell)
        for name, status, detail in tr.checks:
            print(f"  [{status}] {name}: {detail}")
        print()

    print("== GF(8) action table (w^3 = w + 1)")
    F8 = GF(2, 3)
    w = F8.gen()
    mats = [Mat2Z(1, 1, 0, 1), Mat2Z(1, 0, 1, 1), Mat2Z(0, 1, 1, 0),
            Mat2Z(0, 1, 1, 1), Mat2Z(1, 1, 1, 0)]
    powers = {tuple((w ** k).rep): k for k in range(1, 8)}
    for M in mats:
        image = homographic(M, w)
        print(f"  {M} . w = w^{powers[tuple(image.rep)]}")


if __name__ == "__main__":
    main()
