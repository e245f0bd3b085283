"""Work budgets: counts of the kernel's work on fixed CLI runs, which do
not depend on the machine.  A change that makes the kernel do more work
on these runs fails here, however fast the machine it runs on; a change
that does less lowers the budget in the same change.

The runs are the seven `verify all` argv of the benchmark's verify-grid
workload at --seed 19.  The counts are the calls of the Ore product loop
`skewpoly._terms` and the applications of a derivation
(`Derivation.__call__`)."""

import contextlib
import io

from orefields import pdo, skewpoly
from orefields.cli import main
from orefields.ratfunc import Derivation

VERIFY_GRID = [(0, "rat:2/3"), (0, "quad:(0+1*sqrt(2))/1"), (0, "param"), (2, "param"),
               (3, "param"), (5, "param"), (7, "param")]

# the totals over the seven runs; at the closed forms for Laurent
# monomial coefficients they were 245 and 294, before them 543 and 679
BUDGET = {"_terms": 245, "Derivation.__call__": 294}


def counting(monkeypatch, counts, key, owners, name):
    """Wrap owner.name, the same function under every owner, with a
    counter of its calls in counts[key]."""
    fn = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    for owner in owners:
        monkeypatch.setattr(owner, name, counted)


def test_verify_grid_stays_within_its_work_budget(monkeypatch):
    counts = dict.fromkeys(BUDGET, 0)
    # pdo imports the loop by name, so both module names are wrapped
    counting(monkeypatch, counts, "_terms", (skewpoly, pdo), "_terms")
    counting(monkeypatch, counts, "Derivation.__call__", (Derivation,), "__call__")
    for char, alpha in VERIFY_GRID:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", "all", "--char", str(char), "--alpha", alpha, "--seed", "19"])
        assert code == 0, (char, alpha)
    assert counts["_terms"] and counts["Derivation.__call__"]
    for key, budget in BUDGET.items():
        assert counts[key] <= budget, (key, counts[key], budget)
