"""Work budgets: counts of the kernel's work on fixed CLI runs, which do
not depend on the machine.  A change that makes the kernel do more work
on these runs fails here, however fast the machine it runs on; a change
that does less lowers the budget in the same change.

The runs are the seven `verify all` argv of the benchmark's verify-grid
workload and the four `pdo` argv of its pdo-precision workload, at
--seed 19.  The counts are the calls of the Ore product loop
`skewpoly._terms`, the sums of fractions (`RatFunc2.weighted_sum`, through
which every RatFunc2 sum, difference and loop sum goes), the applications
of a derivation (`Derivation.__call__`), the polynomial divisions of
Euclid and of exact quotients in K[a] (`fields._udivmod`, the module
global that `_ugcd` and `_UPoly.quo` look up, and its import in
`ratfunc`), the bivariate gcds (`ratfunc._pgcd`, by its module global
and as `_PPoly.gcd`), the products of the univariate polynomial kernel
(`fields._umul` and `fields._uscale`, by their module globals, the
imports of `_umul` in `ratfunc` and `orbits`, and as `_UPoly.mul` and
`_UPoly.scale`), and the bracket checks of morphisms
(`Morphism.verify_relations`)."""

import contextlib
import io

from orefields import fields, orbits, pdo, ratfunc, skewpoly
from orefields.cli import main
from orefields.presentations import Morphism
from orefields.ratfunc import Derivation, RatFunc2

VERIFY_GRID = [["verify", "all", "--char", str(char), "--alpha", alpha, "--seed", "19"]
               for char, alpha in [(0, "rat:2/3"), (0, "quad:(0+1*sqrt(2))/1"), (0, "param"),
                                   (2, "param"), (3, "param"), (5, "param"), (7, "param")]]
PDO_PRECISION = [["pdo", "--char", str(char), "--alpha", alpha, "--precision", str(n),
                  "--seed", "19"]
                 for char, alpha, n in [(0, "rat:2", 24), (3, "param", 16), (7, "rat:3", 24),
                                        (0, "quad:(0+1*sqrt(2))/1", 16)]]

# the totals over the seven verify-grid runs; at the closed forms for
# Laurent monomial coefficients _terms and Derivation.__call__ were 245 and
# 294, before them 543 and 679; at the gcd-free monomial morphisms
# _udivmod and _pgcd were 44 and 0, before them 345 and 65; at the series
# products through the skew closed forms _terms and weighted_sum were 176
# and 399, before them 245 and 793; at the constants of K(a) worked on
# through their base reps and each composite morphism verified once,
# _umul/_uscale and verify_relations were 1,063 and 123, before them
# 3,748 and 158 (one verify_relations fewer per composition draw)
BUDGET = {"_terms": 176, "weighted_sum": 399, "Derivation.__call__": 294, "_udivmod": 44,
          "_pgcd": 0, "_umul/_uscale": 1063, "verify_relations": 123}
# the totals over the four pdo-precision runs: 128 and 768 before the
# series products went through the skew closed forms
PDO_BUDGET = {"_terms": 96, "weighted_sum": 336}


def counting(monkeypatch, counts, key, owners, name):
    """Wrap owner.name, the same function under every owner, with a
    counter of its calls in counts[key]; a static method stays one."""
    fn = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    for owner in owners:
        static = isinstance(vars(owner).get(name), staticmethod)
        monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)


def counted_runs(monkeypatch, argvs):
    """The counts of BUDGET over the CLI runs argvs, each of which must
    exit 0."""
    counts = dict.fromkeys(BUDGET, 0)
    # pdo imports the loop by name, so both module names are wrapped
    counting(monkeypatch, counts, "_terms", (skewpoly, pdo), "_terms")
    counting(monkeypatch, counts, "weighted_sum", (RatFunc2,), "weighted_sum")
    counting(monkeypatch, counts, "Derivation.__call__", (Derivation,), "__call__")
    counting(monkeypatch, counts, "_udivmod", (fields, ratfunc), "_udivmod")
    counting(monkeypatch, counts, "_pgcd", (ratfunc,), "_pgcd")
    counting(monkeypatch, counts, "_pgcd", (ratfunc._PPoly,), "gcd")
    counting(monkeypatch, counts, "_umul/_uscale", (fields, ratfunc, orbits), "_umul")
    counting(monkeypatch, counts, "_umul/_uscale", (fields._UPoly,), "mul")
    counting(monkeypatch, counts, "_umul/_uscale", (fields,), "_uscale")
    counting(monkeypatch, counts, "_umul/_uscale", (fields._UPoly,), "scale")
    counting(monkeypatch, counts, "verify_relations", (Morphism,), "verify_relations")
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, argv
    return counts


def test_verify_grid_stays_within_its_work_budget(monkeypatch):
    counts = counted_runs(monkeypatch, VERIFY_GRID)
    assert counts["_terms"] and counts["Derivation.__call__"] and counts["_udivmod"]
    assert counts["_umul/_uscale"] and counts["verify_relations"]
    for key, budget in BUDGET.items():
        assert counts[key] <= budget, (key, counts[key], budget)


def test_pdo_precision_stays_within_its_work_budget(monkeypatch):
    counts = counted_runs(monkeypatch, PDO_PRECISION)
    assert counts["_terms"] and counts["weighted_sum"]
    for key, budget in PDO_BUDGET.items():
        assert counts[key] <= budget, (key, counts[key], budget)
