import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

from orefields.cli import (
    MAX_SKEW_CHAR, Config, Report, build_parser, emit, main, run_suite,
)
from orefields.literals import (
    ExprError, parse_expression, parse_field_literal, parse_matrix,
)
from orefields.fields import GF, Qsqrt, with_parameter
from orefields.orbits import Mat2Z


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestLiterals:
    def test_rat(self):
        assert parse_field_literal("rat:2/3").rep.numerator == 2
        assert parse_field_literal("rat:2/3", 5) == GF(5).from_int(4)

    def test_quad(self):
        K = Qsqrt(2)
        assert parse_field_literal("quad:(0+1*sqrt(2))/1") == K.gen()
        assert parse_field_literal("quad:(1-2*sqrt(2))/3") == (1 - K.gen() * 2) / 3

    def test_param(self):
        K = with_parameter(GF(3))
        a = K.gen()
        assert parse_field_literal("param", 3) == a
        assert parse_field_literal("param:(a^2+1)/(a-1)", 3) == (a ** 2 + 1) / (a - 1)

    def test_ff(self):
        F9 = GF(3, 2)
        assert parse_field_literal("ff:3^2:0,1") == F9.gen()

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_field_literal("nope:1")
        with pytest.raises(ValueError):
            parse_field_literal("quad:(1+sqrt(2))/1")

    def test_matrix(self):
        assert parse_matrix("1,2,3,4") == Mat2Z(1, 2, 3, 4)
        with pytest.raises(ValueError):
            parse_matrix("1,2,3")

    def test_expression_parser(self):
        K = with_parameter(GF(5))
        a = K.gen()
        env = {"a": a}
        assert parse_expression("-a^2 + 3*a - 1", env, K.one()) == -a ** 2 + a * 3 - 1
        assert parse_expression("(a+1)/(a-1)", env, K.one()) == (a + 1) / (a - 1)
        assert parse_expression("a^-1", env, K.one()) == a.inverse()
        with pytest.raises(ExprError):
            parse_expression("a +", env, K.one())
        with pytest.raises(ExprError):
            parse_expression("b", env, K.one())


class TestEmit:
    def test_empty_report(self):
        payload = json.loads(emit(Report("demo", {}), "json"))
        assert payload["checks"] == []
        assert payload["summary"]["fail"] == 0

    def test_passing_check(self):
        report = Report("demo", {})
        report.run("ok", "one equals one", lambda: 1 == 1)
        payload = json.loads(emit(report, "json"))
        assert payload["checks"][0]["status"] == "pass"

    def test_failing_check_sets_failures(self):
        report = Report("demo", {})
        report.run("bad", "one equals two", lambda: 1 == 2)
        assert report.failures
        text = emit(report, "text")
        assert "[fail] bad" in text


class TestDriver:
    def test_verify_centers_passes(self):
        code, out = run_main(["verify", "centers", "--char", "5",
                              "--alpha", "rat:2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert any(c["status"] == "out-of-scope" for c in payload["checks"])

    def test_verify_all_char2_param(self):
        code, out = run_main(["verify", "all", "--char", "2", "--alpha", "param"])
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0

    def test_verify_morphisms_quad(self):
        code, _ = run_main(["verify", "morphisms", "--char", "0",
                            "--alpha", "quad:(0+1*sqrt(2))/1",
                            "--matrix", "1,1,0,1"])
        assert code == 0

    def test_failing_matrix_gives_exit_1(self):
        code, out = run_main(["verify", "morphisms", "--char", "3",
                              "--alpha", "param", "--matrix", "1,2,1,2"])
        assert code == 1
        assert json.loads(out)["summary"]["fail"] >= 1

    def test_bad_literal_gives_exit_2(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(["verify", "centers", "--alpha", "garbage"])
        assert code == 2

    @pytest.mark.parametrize("precision", ["0", "-2"])
    def test_precision_below_one_gives_exit_2(self, precision):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["pdo", "--char", "0", "--alpha", "rat:2",
                         "--precision", precision])
        assert code == 2
        assert out.getvalue() == ""
        assert "--precision must be at least 1" in err.getvalue()

    @pytest.mark.parametrize("seed", range(10))
    def test_composition_convention_skips_draws_without_morphism(self, seed):
        # for alpha = 2 in GF(5), some draws have m*alpha + r = 0 (seed 1
        # among these); such a draw has no morphism and must not count as a
        # refutation
        code, out = run_main(["verify", "morphisms", "--char", "5",
                              "--alpha", "rat:2", "--seed", str(seed)])
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["composition-convention"]["status"] == "pass"

    def test_orbits_finite(self):
        code, out = run_main(["orbits", "finite", "--ell", "3", "--ext", "2",
                              "--group", "sl"])
        assert code == 0
        payload = json.loads(out)
        assert any("size 6" in c["claim"] for c in payload["checks"])

    def test_orbits_cf(self):
        code, out = run_main(["orbits", "cf",
                              "--alpha", "quad:(0+1*sqrt(2))/1"])
        assert code == 0
        assert "[1;(2)]" in out

    def test_orbits_equiv(self):
        code, out = run_main(["orbits", "equiv",
                              "--alpha", "quad:(0+1*sqrt(2))/1",
                              "--beta", "quad:(1+1*sqrt(2))/1"])
        assert code == 0
        assert json.loads(out)["checks"][0]["witness"] is not None

    def test_classify(self):
        code, out = run_main(["classify", "--char", "0",
                              "--caseA", "g:quad:(0+1*sqrt(2))/1",
                              "--caseB", "q"])
        assert code == 0
        assert "not-valued-isomorphic" in out

    def test_pdo_command(self):
        code, out = run_main(["pdo", "--char", "3", "--alpha", "param",
                              "--precision", "6"])
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0

    def test_json_deterministic(self):
        argv = ["verify", "all", "--char", "2", "--alpha", "param", "--seed", "0"]
        _, out1 = run_main(argv)
        _, out2 = run_main(argv)
        assert out1 == out2

    # sha256 of the JSON report (with its final newline), taken before the
    # series product and inverse were rewritten on the push-through loop
    @pytest.mark.parametrize("char, alpha, digest", [
        ("0", "rat:2", "d0cd6ae509104d7646fd22200543542f6ba19b269eef3b926957517e92b0c667"),
        ("3", "param", "ee40ea7fa635533d65587849e3618ad8ca630462d0a3d18439eb207d7e82fdf5"),
        ("7", "rat:3", "546321a35060f7f59233421f775c3e4de2603530639784f44553c9fb74891e30"),
    ])
    def test_pdo_json_is_pinned(self, char, alpha, digest):
        code, out = run_main(["pdo", "--char", char, "--alpha", alpha,
                              "--precision", "8", "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline) of the four
    # benchmark pdo cases at the benchmark's precisions, taken before the
    # Laurent paths of RatFunc2, Derivation and SkewPoly
    @pytest.mark.parametrize("char, alpha, precision, digest", [
        ("0", "rat:2", "24", "9b5cf1366840bda5d6cb3ad3196e726b68ced1bc464b32caec06226afed704aa"),
        ("3", "param", "16", "6cde25f11c7fb9cbe85e06509fe41878c4a379e6f7fc5fce2c734924335c6f8b"),
        ("7", "rat:3", "24", "13dc98a3ba4daa67140650605f7c60e71384b96fd1c5b9d739670e38ce80813a"),
        ("0", "quad:(0+1*sqrt(2))/1", "16",
         "676cba74fa73d566b06b9c5193689a9a86e51243ff06a96d0d8bca3f8f547d45"),
    ])
    def test_pdo_json_at_benchmark_precision_is_pinned(self, char, alpha, precision, digest):
        code, out = run_main(["pdo", "--char", char, "--alpha", alpha,
                              "--precision", precision, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline), taken before the
    # gcd-free fast paths in ParameterField, RatFunc2 and Derivation
    @pytest.mark.parametrize("char, alpha, seed, digest", [
        ("0", "param", "0", "2b2eba7a47ec92f28de1b45c2afce33ac5e447fe6849d3d7894101f193067236"),
        ("7", "param", "0", "595dbe992b35296e58ba3d4aaaf00eb170207153d44d39671b2cf9027ed92589"),
        ("0", "quad:(0+1*sqrt(2))/1", "0",
         "4912bdeb51976e609418c7b7f62d5eea7a09cf4d7188b175339a32bad2540e1f"),
        ("3", "param", "11", "03adab39b39dcc9782f4c95024a2b7a7de0a77e47e99212c1a4031d6a652dbf1"),
    ])
    def test_verify_all_json_is_pinned(self, char, alpha, seed, digest):
        code, out = run_main(["verify", "all", "--char", char, "--alpha", alpha,
                              "--seed", seed, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline) at characteristics
    # where products by x^l and x^(l^2) dominate, taken before skew products
    # took D^s only at the orders whose binomial survives mod l
    @pytest.mark.parametrize("char, alpha, seed, digest", [
        ("31", "param", "0", "f3d994f43d1cc46f29fe44981b1ed57bca1832d1afc769c24ab097dd492e2ce2"),
        ("41", "rat:2", "0", "1f38335f5603b40fa35710b489999d57bc2a8429ebd5e97cc53faaf421071bb0"),
    ])
    def test_verify_all_json_at_large_char_is_pinned(self, char, alpha, seed, digest):
        code, out = run_main(["verify", "all", "--char", char, "--alpha", alpha,
                              "--seed", seed, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite", ["all", "presentations", "centers", "morphisms"])
    def test_char_above_the_skew_bound_is_a_usage_error(self, suite, capsys):
        char = next(p for p in range(MAX_SKEW_CHAR + 1, 2 * MAX_SKEW_CHAR)
                    if all(p % d for d in range(2, p)))
        argvs = [["verify", suite, "--char", str(char), "--alpha", "rat:2"],
                 ["verify", suite, "--char", "1000000007", "--alpha", "param"]]
        if suite != "morphisms":    # without --alpha, morphisms builds nothing
            argvs.append(["verify", suite, "--char", "1000000007"])
        for argv in argvs:
            code, out = run_main(argv)
            assert code == 2 and out == ""
            assert "exceeds the bound" in capsys.readouterr().err

    def test_suites_without_skew_powers_ignore_the_bound(self):
        for argv in (["verify", "pdo", "--char", "1000000007"],
                     ["verify", "orbits", "--char", "1000000007"],
                     ["verify", "morphisms", "--char", "1000000007"]):
            code, out = run_main(argv)
            assert code == 0
            assert json.loads(out)["summary"]["fail"] == 0

    # sha256 of the JSON report (with its final newline), taken before the
    # witness searches became a linear test over the prime field
    @pytest.mark.parametrize("char, case_a, case_b, digest", [
        ("13", "g:ff:13^3:5,7,4", "g:ff:13^3:9,2,8",
         "6dd2968c46dfe77d067b69ef4c226595d732c41bbdaa5678a0301450036aec94"),
        ("0", "g:param:((1)*a^0+(-1)*a^1)/((1)*a^1)",
         "g:param:((2)*a^0+(-3)*a^1)/((1)*a^0+(-1)*a^1)",
         "133e81eafc210a8d0424951e67cde342d230bd1075793eb191d29adb0b680304"),
        ("0", "g:param:((1)*a^0+(2)*a^1)/((3)*a^1)", "g:param:(-3)*a^0+(-2)*a^1+(2)*a^2",
         "1f6a9bac8e92e804d87b87392aa27fc39cda3b741f96bc617050acfcbbcb85b2"),
        ("5", "g:param:((4)*a^0+(4)*a^1)/((3)*a^0+(2)*a^1)",
         "g:param:((3)*a^0+(4)*a^1)/((3)*a^0+(1)*a^1)",
         "f1f96da81d3240cd4c0be38a0360fa2e4ce10ca7875f7b12f63e495492947fa1"),
    ])
    def test_classify_json_is_pinned(self, char, case_a, case_b, digest):
        code, out = run_main(["classify", "--char", char, "--caseA", case_a,
                              "--caseB", case_b, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # taken before the transitive record learned the scope of the claim
    @pytest.mark.parametrize("ell, ext, group, digest", [
        ("2", "3", "sl", "f636b94964abe29ee114038708b9410830e3696a30a22f3a3881feec1b5da469"),
        ("7", "3", "slpm", "d62c5e10ef6247f4ffb639aa9b934d0782b53f18ec00b193ac15966ce2dd7860"),
        ("13", "2", "sl", "8ee2f641a914539111a07d1fd7969ae1ee4ca39c9f690a6a85c0144e55780586"),
        ("11", "3", "slpm", "580a1d73314bca8d938ff5f274a7e9610f39ca7446ba83cc8e92a59b906c11e0"),
    ])
    def test_transitive_orbits_json_is_pinned(self, ell, ext, group, digest):
        code, out = run_main(["orbits", "finite", "--ell", ell, "--ext", ext,
                              "--group", group, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("ell, group", [
        ("3", "sl"), ("5", "sl"), ("5", "slpm"), ("7", "sl"), ("11", "sl"),
        ("13", "sl"), ("13", "slpm"),
    ])
    def test_unclaimed_transitivity_is_out_of_scope(self, ell, group):
        code, out = run_main(["orbits", "finite", "--ell", ell, "--ext", "3",
                              "--group", group])
        assert code == 0
        record = json.loads(out)["checks"][-1]
        assert record["name"] == "transitive"
        assert record["status"] == "out-of-scope"
        assert record["claim"].startswith("single orbit: False (transitivity ")
        assert "orbit sizes=[" in record["claim"]

    @pytest.mark.parametrize("argv", [
        ["orbits", "cf", "--alpha", "quad:(0+1*sqrt(99991))/1"],
        ["orbits", "equiv", "--alpha", "quad:(0+1*sqrt(99991))/1",
         "--beta", "quad:(1+1*sqrt(99991))/1"],
        ["classify", "--caseA", "g:quad:(0+1*sqrt(99991))/1",
         "--caseB", "g:quad:(1+1*sqrt(99991))/1"],
    ])
    def test_long_period_commands_exit_0(self, argv):
        code, out = run_main(argv)
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0

    @pytest.mark.parametrize("alpha", [
        "rat:1/0", "quad:(1+1*sqrt(2))/0", "param:1/(a-a)",
    ])
    def test_zero_denominator_literal_is_a_usage_error(self, alpha, capsys):
        code, out = run_main(["verify", "centers", "--alpha", alpha])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(alpha) in err

    def test_text_format(self):
        code, out = run_main(["verify", "presentations", "--char", "3",
                              "--alpha", "param", "--format", "text"])
        assert code == 0
        assert out.startswith("suite presentations")

    def test_parser_surface(self):
        parser = build_parser()
        args = parser.parse_args(["verify", "centers", "--char", "5",
                                  "--alpha", "rat:2", "--format", "text"])
        assert args.suite == "centers" and args.fmt == "text"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("wat", Config())


class TestElementExpressions:
    def test_parse_ratfunc(self):
        from orefields.literals import parse_ratfunc
        from orefields.ratfunc import FunctionField2
        K = with_parameter(GF(3))
        ctx = FunctionField2(K)
        y, z = ctx.gens()
        a = ctx.const(K.gen())
        assert parse_ratfunc("y^2*z - 1", ctx) == y ** 2 * z - 1
        assert parse_ratfunc("(y + a)/(z - a)", ctx) == (y + a) / (z - a)

    def test_parse_skew_preserves_order(self):
        from orefields.literals import parse_skew
        from orefields.presentations import CaseSpec, algebra_make
        K = with_parameter(GF(3))
        pres = algebra_make(CaseSpec("g", K, K.gen()))
        f = parse_skew("x*y - y*x", pres)
        assert f == pres.y                       # the bracket [x, y] = y
        g = parse_skew("(x + y)^2", pres)
        assert g == (pres.x + pres.y) ** 2

    def test_parse_skew_t_coordinates(self):
        from orefields.literals import parse_skew
        from orefields.presentations import CaseSpec, algebra_make
        pres = algebra_make(CaseSpec("q", GF(3)), coords="yt")
        f = parse_skew("x*t - t*x", pres)
        assert f == pres.embed(pres.ctx.one())


class TestConstructionFailuresAreChecks:
    """A construction that raises inside a check is that check's `fail`
    (exit 1), and the checks that need its result are skipped."""

    @staticmethod
    def _raise(*args, **kwargs):
        raise ArithmeticError("injected failure")

    def _checks(self, argv):
        code, out = run_main(argv)
        return code, {c["name"]: c for c in json.loads(out)["checks"]}

    def test_bracket_failure_fails_the_bracket_checks(self, monkeypatch):
        from orefields import presentations
        monkeypatch.setattr(presentations.Presentation, "_verify_brackets", self._raise)
        code, checks = self._checks(["verify", "presentations", "--char", "3",
                                     "--alpha", "param"])
        assert code == 1
        for name in ("g-brackets", "q-brackets", "q-t-bracket"):
            assert checks[name]["status"] == "fail"
            assert checks[name]["witness"] == "injected failure"
        assert not any(name.startswith(("shift-identity", "invariant-commutes", "q-invariant"))
                       for name in checks)

    def test_classification_failure_fails_its_check(self, monkeypatch):
        from orefields import presentations
        monkeypatch.setattr(presentations, "gk_classify", self._raise)
        code, checks = self._checks(["verify", "centers", "--char", "0", "--alpha", "rat:2"])
        assert code == 1
        for label in ("g", "q"):
            assert checks[f"{label}-center"]["status"] == "pass"
            assert checks[f"{label}-weyl-classification"]["status"] == "fail"
            assert checks[f"{label}-weyl-classification"]["witness"] == "injected failure"
        assert not any(name.endswith(("weyl-pair", "dimension-over-center")) for name in checks)

    @pytest.mark.parametrize("broken, witness", [
        (lambda t: dataclasses.replace(t, Q=t.P), "[P, Q] != 1"),
        (lambda t: dataclasses.replace(t, centrals=t.centrals + [("QP", t.Q * t.P)]),
         "QP is not annihilated by the pair"),
    ])
    def test_weyl_pair_failure_fails_the_weyl_pair(self, monkeypatch, broken, witness):
        from orefields import presentations
        weyl_triple = presentations.weyl_triple
        monkeypatch.setattr(presentations, "weyl_triple",
                            lambda case: broken(weyl_triple(case)))
        code, checks = self._checks(["verify", "centers", "--char", "0",
                                     "--alpha", "rat:2/3"])
        assert code == 1
        assert checks["g-weyl-classification"]["status"] == "pass"
        assert checks["g-weyl-pair"]["status"] == "fail"
        assert checks["g-weyl-pair"]["witness"] == witness

    def test_arithmetic_failure_fails_the_leading_constraint(self, monkeypatch):
        from orefields import cli
        monkeypatch.setattr(cli, "leading_constraint_check", self._raise)
        code, checks = self._checks(["pdo", "--char", "0", "--alpha", "rat:2",
                                     "--precision", "4"])
        assert code == 1
        assert checks["leading-constraint"]["status"] == "fail"
        assert checks["leading-constraint"]["witness"] == "injected failure"
        assert checks["inverse-roundtrip"]["status"] == "pass"

    def test_value_error_leaves_the_leading_constraint_out_of_scope(self, monkeypatch):
        from orefields import cli

        def raise_value_error(*args, **kwargs):
            raise ValueError("injected scope")
        monkeypatch.setattr(cli, "leading_constraint_check", raise_value_error)
        code, checks = self._checks(["pdo", "--char", "0", "--alpha", "rat:2",
                                     "--precision", "4"])
        assert code == 0
        assert checks["leading-constraint"]["status"] == "out-of-scope"
