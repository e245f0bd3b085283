"""Work budgets: counts of the kernel's work on fixed CLI runs, which do
not depend on the machine.  Each budget is the exact count, so a change
that makes the kernel do more work on these runs fails here, however fast
the machine it runs on, and so does one whose count falls, whether it
does less work, and sets the new count in the same change, or no longer
counts a call path.

The runs are the seven `verify all` argv of the benchmark's verify-grid
workload and the four `pdo` argv of its pdo-precision workload, at
--seed 19.  The counts are the calls of the Ore product loop
`skewpoly._terms`, the sums of fractions (`RatFunc2.weighted_sum`, through
which every RatFunc2 sum, difference and loop sum goes), the applications
of a derivation (`Derivation.__call__`), the polynomial divisions of
Euclid and of exact quotients in K[a] (`fields._udivmod`), the bivariate
gcds (`ratfunc._pgcd`), the normalizations of a fraction
(`RatFunc2._normalize`, which no Laurent element needs), the products of
the univariate polynomial kernel (`fields._umul` and `fields._uscale`),
and the bracket checks of morphisms (`Morphism.verify_relations`).  Each
function is counted wherever orefields binds it (`_support.counting`), so
no import or class attribute that aliases it is missed.

The orbit layer has budgets of its own: the field products of GF(l^k)
(`ExtensionField._mul`) over the 17 `orbits finite` argv of the
orbits-classify workload, the cases l <= 13 whose action is transitive,
and the `QuadIrr`s built (`QuadIrr.__init__`) over a fixed list of 120
`orbits cf` argv drawn like that workload's."""

import contextlib
import io
import random

from orefields import fields, orbits, ratfunc, skewpoly
from orefields.cli import main
from orefields.presentations import Morphism
from orefields.ratfunc import Derivation, RatFunc2

from _support import counting

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
# 3,748 and 158 (one verify_relations fewer per composition draw).  Every
# k(y, z) element these runs form is a Laurent element, a fraction over 1,
# so no fraction is normalized and no bivariate gcd is run on either
# workload
BUDGET = {"_terms": 176, "weighted_sum": 399, "Derivation.__call__": 294, "_udivmod": 44,
          "_pgcd": 0, "RatFunc2._normalize": 0, "_umul/_uscale": 1063, "verify_relations": 123}
# the totals over the four pdo-precision runs: 128 and 768 before the
# series products went through the skew closed forms
PDO_BUDGET = {"_terms": 96, "weighted_sum": 336, "_pgcd": 0, "RatFunc2._normalize": 0}

# the transitive `orbits finite` cases of the orbits-classify workload
ORBITS_FINITE = [["orbits", "finite", "--ell", str(ell), "--ext", str(ext), "--group", group]
                 for ell in (2, 3, 5, 7, 11, 13) for ext in (2, 3) for group in ("sl", "slpm")
                 if orbits.transitivity_scope(ell, ext, group) is None]


def orbits_cf_argv(count, seed=19):
    """count `orbits cf` argv for (P + sqrt(d))/Q, squarefree d <= 10^5,
    |P| <= 30 and |Q| <= 60 dividing d - P^2, as orbits-classify draws
    them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 10 ** 5)
        if fields.squarefree_core(d)[1] != 1:
            continue
        P = rng.randint(-30, 30)
        Q = rng.choice([q for q in range(1, 61) if (d - P * P) % q == 0]) * rng.choice((1, -1))
        out.append(["orbits", "cf", "--alpha", f"quad:({P}+1*sqrt({d}))/{Q}"])
    return out


ORBITS_CF = orbits_cf_argv(120)

# ExtensionField._mul was 4,844 over ORBITS_FINITE and QuadIrr.__init__
# 12,043 over ORBITS_CF before the orbit layer ran on ints: a product per
# log-table step and per affine value, and a QuadIrr per continued-fraction
# digit.  Of the 1,471 products now, 1,449 are the generator test of
# `_discrete_logs` and 22 form the columns of its linear step; each
# `orbits cf` builds one QuadIrr
ORBIT_BUDGET = {"ExtensionField._mul": 1471, "QuadIrr.__init__": 120}


def counted_runs(argvs):
    """The counts of BUDGET over the CLI runs argvs, each of which must
    exit 0."""
    with counting(**{"_terms": skewpoly._terms, "weighted_sum": RatFunc2.weighted_sum,
                     "Derivation.__call__": Derivation.__call__, "_udivmod": fields._udivmod,
                     "_pgcd": ratfunc._pgcd, "RatFunc2._normalize": RatFunc2._normalize,
                     "_umul": fields._umul, "_uscale": fields._uscale,
                     "verify_relations": Morphism.verify_relations}) as calls:
        run_clean(argvs)
    calls["_umul/_uscale"] = calls.pop("_umul", 0) + calls.pop("_uscale", 0)
    return calls


def run_clean(argvs):
    """Run the CLI on each argv, which must exit 0, from an empty cache of
    defining polynomials (`fields.least_irreducible`, whose search
    divides by `_udivmod`), so that no count depends on the tests that ran
    before in the process."""
    fields.least_irreducible.cache_clear()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, argv


def assert_counts(counts, budget):
    assert {key: counts[key] for key in budget} == budget


def test_verify_grid_stays_within_its_work_budget():
    assert_counts(counted_runs(VERIFY_GRID), BUDGET)


def test_pdo_precision_stays_within_its_work_budget():
    assert_counts(counted_runs(PDO_PRECISION), PDO_BUDGET)


def test_orbit_layer_stays_within_its_work_budget():
    with counting(**{"ExtensionField._mul": fields.ExtensionField._mul,
                     "QuadIrr.__init__": orbits.QuadIrr.__init__}) as counts:
        run_clean(ORBITS_FINITE + ORBITS_CF)
    assert len(ORBITS_FINITE) == 17 and len({tuple(a) for a in ORBITS_CF}) == 120
    assert_counts(counts, ORBIT_BUDGET)
