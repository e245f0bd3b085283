"""Self-tests of the benchmark's oracles, generators and span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import spans
import workloads
from oracles import (GFq, cf_period, cf_str, check_op, finite_orbit_expectation,
                     least_irreducible, q_act, q_discriminant, q_literal, witness_problem)


# -- continued fractions -------------------------------------------------------

@pytest.mark.parametrize("D, expansion", [
    (2, "[1;(2)]"),
    (3, "[1;(1,2)]"),
    (7, "[2;(1,1,1,4)]"),
    (13, "[3;(1,1,1,1,6)]"),
])
def test_sqrt_expansions(D, expansion):
    assert cf_str(*cf_period(0, D, 1)) == expansion


def test_golden_ratio_is_purely_periodic():
    assert cf_period(1, 5, 2) == ((), (1,))


def test_sqrt_period_shape():
    # sqrt(D) = [a0; (a1, ..., a1, 2*a0)] with a palindromic middle
    for D in range(2, 400):
        if math.isqrt(D) ** 2 == D:
            continue
        pre, per = cf_period(0, D, 1)
        assert pre == (math.isqrt(D),)
        assert per[-1] == 2 * pre[0] and per[:-1] == per[:-1][::-1]


def test_expansion_converges_to_the_value():
    rng = random.Random(3)
    for _ in range(200):
        D = rng.randint(2, 10 ** 5)
        if math.isqrt(D) ** 2 == D:
            continue
        P, Q = rng.randint(-40, 40), rng.choice([-1, 1]) * rng.randint(1, 40)
        pre, per = cf_period(P, D, Q)
        digits = list(pre) + list(per) * (1 + 12 // len(per))
        value = Fraction(digits[-1])
        for a in reversed(digits[:-1]):
            value = a + 1 / value
        assert abs(float(value) - (P + math.sqrt(D)) / Q) < 1e-9


# -- quadratic fields -------------------------------------------------------------

def test_discriminant_is_a_unimodular_invariant():
    g = workloads._Gen(5)
    for d in (2, 7, 99991, -1, -5, -1534):
        x = g.surd(d)
        for _ in range(20):
            assert q_discriminant(q_act(g.unimodular(), x, d), d) == q_discriminant(x, d)


def test_quad_literal():
    assert q_literal((Fraction(1, 2), Fraction(-1, 3)), 7) == "quad:(3-2*sqrt(7))/6"


# -- finite fields and orbits -------------------------------------------------------

def test_defining_polynomials():
    # w^3 = w + 1 in GF(8), as the CLI documents
    assert least_irreducible(2, 3) == (1, 1, 0, 1)
    assert least_irreducible(2, 2) == (1, 1, 1)
    F = GFq(2, 3)
    w = F.elem([0, 1])
    assert F.pow(w, 3) == F.add(w, F.scalar(1))


@pytest.mark.parametrize("ell, k", [(3, 2), (5, 3), (13, 2)])
def test_field_inverse(ell, k):
    F = GFq(ell, k)
    for coeffs in [(1,), (0, 1), (2, 1, 1)][: k + 1]:
        x = F.elem(coeffs)
        assert F.mul(x, F.inv(x)) == F.scalar(1)


@pytest.mark.parametrize("ell, transitive", [(3, True), (5, False), (7, True)])
def test_degree_three_orbits_match_closed_form(ell, transitive):
    F = GFq(ell, 3)
    orbit = F.orbit(F.elem([0, 1]))
    _, points, closed = finite_orbit_expectation(ell, 3, "slpm")
    assert len(orbit) == closed[0][0]
    assert (len(closed) == 1) == transitive == (len(orbit) == points)


def test_closed_forms_are_consistent():
    for ell in (2, 3, 5, 7, 11, 13):
        for k in (2, 3):
            for group in ("sl", "slpm"):
                order, points, closed = finite_orbit_expectation(ell, k, group)
                assert sum(s for s, _ in closed) == points
                assert all(s * t == order for s, t in closed)


# -- checking CLI results -------------------------------------------------------------

def _result(doc, code=0, error=None):
    return {"out": json.dumps(doc), "code": code, "error": error}


def _record_doc(name, claim, status="pass", witness=None):
    fails = int(status == "fail")
    return {"checks": [{"name": name, "claim": claim, "status": status, "witness": witness}],
            "summary": {"pass": 1 - fails, "fail": fails}}


def test_cf_check_accepts_the_right_expansion_and_counts_a_corrupted_one():
    exp = {"kind": "cf", "P": 0, "D": 7, "Q": 1}
    assert check_op(exp, _result(_record_doc("expansion", "", witness="[2;(1,1,1,4)]"))) == (None, False)
    problem, wrong = check_op(exp, _result(_record_doc("expansion", "", witness="[2;(1,1,4)]")))
    assert problem and wrong


def test_crashes_and_exit_codes_fail_without_being_wrong():
    exp = {"kind": "cf", "P": 0, "D": 7, "Q": 1}
    problem, wrong = check_op(exp, {"out": "", "code": None, "error": "PeriodNotFound: x"})
    assert problem.startswith("raised") and not wrong
    doc = _record_doc("expansion", "", witness="[2;(1,1,1,4)]")
    assert check_op(exp, _result(doc, code=1)) == ("exit code 1", False)


def test_verify_fail_status_is_a_failure():
    doc = _record_doc("composition-convention", "", status="fail")
    problem, wrong = check_op({"kind": "clean"}, _result(doc, code=1))
    assert "composition-convention" in problem and not wrong
    assert check_op({"kind": "clean"}, _result(doc, code=0))[1]


def test_finite_check():
    exp = {"kind": "finite", "ell": 3, "ext": 2, "group": "sl"}
    doc = {"checks": [
        {"name": "orbit-of-w", "claim": "size 6, stabilizer order 4, |G| = 24", "status": "pass"},
        {"name": "transitive", "claim": "single orbit: True", "status": "pass"}]}
    assert check_op(exp, _result(doc)) == (None, False)
    doc["checks"][0]["claim"] = "size 6, stabilizer order 4, |G| = 48"
    assert check_op(exp, _result(doc))[0]


def test_witness_checks():
    d = 7
    alpha = (Fraction(0), Fraction(1))
    W = (2, 5, 1, 3)
    exp = {"field": "quad", "d": d, "alpha": ["0", "1"],
           "beta": [str(c) for c in q_act(W, alpha, d)]}
    assert witness_problem(exp, W) is None
    assert witness_problem(exp, (1, 1, 0, 1)) is not None
    F = GFq(5, 3)
    a = F.elem([0, 1])
    exp = {"field": "ff", "ell": 5, "k": 3, "alpha": list(a),
           "beta": list(F.act((0, 1, 4, 0), a))}
    assert witness_problem(exp, (0, 1, 4, 0)) is None
    assert witness_problem(exp, (1, 1, 0, 1)) is not None
    num, den = [1, 2], [3]
    exp = {"field": "param", "mod": 0, "alpha": [num, den],
           "beta": list(oracles.r_act((2, 1, 1, 1), num, den, 0))}
    assert witness_problem(exp, (-2, -1, -1, -1)) is None
    assert witness_problem(exp, (1, 1, 0, 1)) is not None


# -- workloads ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded_and_repeat_no_argv(name):
    ops = workloads.WORKLOADS[name](7)
    assert ops == workloads.WORKLOADS[name](7)
    assert len({tuple(op["argv"]) for op in ops}) == len(ops)


def test_orbits_classify_covers_every_verdict():
    verdicts = {op["exp"]["verdict"] for op in workloads.orbits_classify(11)
                if op["exp"]["kind"] == "classify"}
    assert verdicts == {"isomorphic", "valued-isomorphic", "not-isomorphic",
                        "not-valued-isomorphic", "isomorphic-sufficient", "unknown-open"}


def test_orbits_classify_leaves_out_inputs_the_program_fails_on():
    ops = workloads.orbits_classify(3)
    finite = [op["exp"] for op in ops if op["exp"]["kind"] == "finite"]
    assert len(finite) == 17
    assert all(len(finite_orbit_expectation(e["ell"], e["ext"], e["group"])[2]) == 1
               for e in finite)
    for op in ops:
        exp = op["exp"]
        if exp["kind"] == "cf":
            pre, per = cf_period(exp["P"], exp["D"], exp["Q"])
            assert len(pre) + len(per) <= workloads.CF_MAX_TERMS
    assert all((5, "rat:2") != case for case in workloads.VERIFY_CASES)


# -- spans ----------------------------------------------------------------------------

def test_self_time_is_duration_minus_child_cover():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    def inner_same_layer():
        traced_leaf()

    def root():
        time.sleep(0.01)
        traced_leaf()
        traced_pair()

    traced_leaf = tracer.wrap(leaf, "fields.mul")
    traced_pair = tracer.wrap(inner_same_layer, "fields.pow")
    tracer.wrap(root, "cli.main")()
    m = tracer.metrics()
    # the same-layer call inside fields.pow is counted but opens no span
    assert m["counts"] == {"fields.mul": 2, "fields.pow": 1, "cli.main": 1}
    assert m["spans"] == 3
    fields_s = m["metrics"]["fields.self_s"][0]
    cli_s = m["metrics"]["cli.self_s"][0]
    assert 0.04 <= fields_s < 0.06 and 0.01 <= cli_s < 0.02
    assert math.isclose(fields_s + cli_s, m["inclusive_s"]["cli"], rel_tol=1e-9)


def test_tracer_finds_every_entry_point_and_keeps_the_output():
    src = Path(__file__).resolve().parents[1] / "src"
    if not (src / "orefields").is_dir():
        pytest.skip("no orefields sources next to the benchmark")
    sys.path.insert(0, str(src))
    import orefields.cli
    import worker
    argv = ["orbits", "cf", "--alpha", "quad:(0+1*sqrt(7))/1"]
    plain, _, _ = worker.run_op(orefields.cli.main, argv)
    tracer = spans.Tracer()
    tracer.install()
    traced, _, _ = worker.run_op(orefields.cli.main, argv)
    assert tracer.missing == []
    assert traced["sha"] == plain["sha"] and traced["code"] == plain["code"] == 0
    assert tracer.counts["cli.main"] == 1 and tracer.counts["orbits.cf_expand"] == 1
