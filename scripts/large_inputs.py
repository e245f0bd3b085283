#!/usr/bin/env python3
"""Large characteristics, radicands, precisions and literals: CLI argv that
must finish (exit 0), or end in a usage error (exit 2), within a time
limit.  `LARGE_INPUTS` holds each as (argv, timeout in s, expected exit
code); `probe_reach.py` reads the same list.  Run as a script, it runs
each argv as `python -m orefields.cli` in a subprocess under its timeout,
stdout discarded, prints one line per argv and exits 1 if any ends in
another exit code than it expects or passes its timeout.  Standard
library only.

    PYTHONPATH=src python scripts/large_inputs.py
"""

import subprocess
import sys
import time

# nesting past the interpreter's stack
DEEP = "param:" + "(" * 300 + "a" + ")" * 300

LARGE_INPUTS = [(argv.split(), timeout, code) for argv, timeout, code in [
    ("verify all --char 61 --alpha param", 120, 0),
    # the largest characteristic the skew suites accept (cli.MAX_SKEW_CHAR)
    ("verify all --char 307 --alpha param", 120, 0),
    ("pdo --char 1000000000000000003 --precision 2", 30, 0),
    ("pdo --char 3 --alpha param --precision 64", 60, 0),
    # sums in K(a) over a denominator gcd, at a size where a slowdown shows
    ("verify all --char 31 --alpha param:(a^2+1)/(a-1)", 60, 0),
    ("verify all --char 1000000007", 30, 2),
    ("orbits cf --alpha quad:(0+1*sqrt(1000000000000000003))/1", 30, 2),
    ("classify --char 1000003 --caseA g:ff:1000003^2:1,1 --caseB g:ff:1000003^2:2,1", 30, 2),
    ("orbits cf --alpha quad:(0+1000000007*sqrt(2))/1", 30, 2),
    ("classify --caseA g:quad:(0+1000000007*sqrt(2))/1 --caseB g:quad:(1+1*sqrt(2))/1", 30, 2),
    # a missing element or a degree-1 ff: literal is a usage error, not a
    # traceback (exit 1)
    ("orbits cf --char 0", 30, 2),
    ("orbits equiv --alpha quad:(0+1*sqrt(-1))/1", 30, 2),
    ("pdo --char 0 --alpha ff:13^1:1", 30, 2),
    ("classify --char 13 --caseA g:ff:13^1:5 --caseB q", 30, 2),
    # nesting past the interpreter's stack and a rat: body outside
    # integer ["/" positive] are usage errors, not a traceback or a false
    # fail (exit 1)
    (f"pdo --precision 2 --alpha {DEEP}", 30, 2),
    ("verify centers --alpha rat:1e5000", 30, 2),
    # an ff: literal needs the matching --char, also against --char 0
    ("verify all --alpha ff:997^2:1,1", 30, 2),
    # a power whose estimated size passes the bound is refused before it is
    # computed
    ("pdo --alpha param:(a^1000)^1000", 30, 2),
    # a precision above cli.MAX_PRECISION is refused before any series is
    # built; the bound itself finishes on the slowest benchmark case
    ("pdo --precision 129", 30, 2),
    ("verify all --precision 100000", 30, 2),
    ("pdo --char 0 --alpha quad:(0+1*sqrt(2))/1 --precision 128", 60, 0),
    # the slowest argv at the bound: alpha in QQ(a), whose size
    # MAX_PRECISION does not count
    ("pdo --char 0 --alpha param --precision 128", 60, 0),
    # powers lambda^s of a non-polynomial alpha in QQ(a), taken with no gcd
    ("pdo --char 0 --alpha param:(a^2+1)/(a-1) --precision 128", 60, 0),
    ("classify --char 101 --caseA g:ff:101^2:1,1 --caseB g:ff:101^2:3,1", 30, 0),
    ("classify --char 1000000007 --caseA g:param:a --caseB g:param:(5*a+2)/(3*a+7)", 30, 0),
]]


def main():
    failed = 0
    for argv, timeout, want in LARGE_INPUTS:
        start = time.perf_counter()
        try:
            code = subprocess.run([sys.executable, "-m", "orefields.cli", *argv],
                                  stdout=subprocess.DEVNULL, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            code = f"timeout {timeout} s"
        ok = code == want
        failed += not ok
        print(f"{'ok' if ok else 'FAIL':4} {time.perf_counter() - start:7.2f} s  exit {code} "
              f"(want {want})  {' '.join(argv)[:100]}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
