import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from orefields.cli import (
    MAX_PRECISION, MAX_SKEW_CHAR, SUITES, Config, Report, build_parser, emit, main, run_suite,
)
from orefields.literals import (
    ExprError, parse_expression, parse_field_literal, parse_matrix,
)
from orefields.fields import GF, QQ, Qsqrt, with_parameter
from orefields.orbits import MAX_ORBIT_ELL, Mat2Z
from orefields.presentations import UnsupportedCaseError, WeylTriple


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_python(args, timeout):
    """A fresh interpreter on this checkout's orefields."""
    import orefields
    src = os.path.dirname(os.path.dirname(os.path.abspath(orefields.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + args, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


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


class TestExpressionGrammar:
    # a run of signs applies to the whole power after it, wherever it stands
    @pytest.mark.parametrize("text, value", [
        ("-3^2", lambda a: QQ().from_int(-9)),
        ("-a^2", lambda a: -(a ** 2)),
        ("2*-3^2", lambda a: QQ().from_int(-18)),
        ("a*-a^2", lambda a: -(a ** 3)),
        ("a--a^2", lambda a: a + a ** 2),
        ("a+-a^2", lambda a: a - a ** 2),
        ("a/-a^2", lambda a: -a.inverse()),
        ("2*+3", lambda a: QQ().from_int(6)),
        ("--a", lambda a: a),
        ("-a*a", lambda a: -(a ** 2)),
        ("(-a)^2", lambda a: a ** 2),
        ("a^-2", lambda a: a.inverse() ** 2),
    ])
    def test_sign_binds_looser_than_power_and_tighter_than_product(self, text, value):
        a = with_parameter(QQ()).gen()
        assert parse_field_literal("param:" + text) == value(a)

    @pytest.mark.parametrize("depth", [300, 10 ** 4])
    def test_deep_nesting_is_a_usage_error(self, depth, capsys):
        alpha = "param:" + "(" * depth + "a" + ")" * depth
        code, out = run_main(["orbits", "cf", "--alpha", alpha])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: expression nested too deeply\n"

    def test_long_sign_runs_parse(self):
        a = with_parameter(QQ()).gen()
        assert parse_field_literal("param:" + "-" * 10 ** 4 + "a") == a
        assert parse_field_literal("param:a*" + "-" * (10 ** 4 + 1) + "a^2") == -(a ** 3)

    @pytest.mark.parametrize("text, value", [
        ("rat:2/3", Fraction(2, 3)), ("rat:-7", -7), ("rat:+3", 3), ("rat: 4/6 ", Fraction(2, 3)),
        ("rat:0/5", 0), ("rat:-12/8", Fraction(-3, 2)),
    ])
    def test_rat_grammar(self, text, value):
        assert parse_field_literal(text) == QQ().coerce(value)

    @pytest.mark.parametrize("body", [
        "1e5", "1.5", "1_000", "-3/-4", "3/+4", "", "2/", "/3", "1 / 2", "2^3", "1e5000",
    ])
    def test_rat_outside_grammar_is_malformed(self, body):
        with pytest.raises(ValueError, match="malformed rat literal"):
            parse_field_literal("rat:" + body)

    # the size of a power, |n| times the degree and the bit length of its
    # base, is bounded before it is computed
    @pytest.mark.parametrize("char, alpha", [
        ("0", "param:a^99999999999"), ("5", "param:a^99999999999"),
        ("0", "param:(a^1000)^1000"), ("5", "param:(a^1000)^1000"),
        ("0", "param:2^99999999999"), ("0", "param:(a+1)^-1025"),
        ("0", "param:(1/3+a)^600"),
    ])
    def test_oversized_powers_are_a_usage_error(self, char, alpha, capsys):
        for argv in (["verify", "centers", "--char", char, "--alpha", alpha],
                     ["pdo", "--char", char, "--alpha", alpha]):
            start = time.perf_counter()
            code, out = run_main(argv)
            assert code == 2 and out == ""
            assert time.perf_counter() - start < 5, argv
            assert "passes the bound" in capsys.readouterr().err

    def test_powers_within_the_bounds_are_computed(self):
        a = with_parameter(QQ()).gen()
        assert parse_field_literal("param:(a^512)^2") == a ** 1024
        assert parse_field_literal("param:2^512") == with_parameter(QQ()).from_int(2 ** 512)
        assert parse_field_literal("param:0^99999999999") == 0
        # in characteristic l a constant does not grow
        assert parse_field_literal("param:2^99999999999", 5) == pow(2, 99999999999, 5)
        b = with_parameter(GF(7)).gen()
        assert parse_field_literal("param:(a+1)^1024", 7) == (b + 1) ** 1024

    def test_huge_rat_exponent_is_a_usage_error(self, capsys):
        # Fraction('1e5000') made an integer too long to print: a false fail
        code, out = run_main(["verify", "centers", "--alpha", "rat:1e5000"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: malformed rat literal '1e5000'\n"


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

    def test_check_returning_none_fails(self):
        # a check lambda that forgets its return verifies nothing
        report = Report("demo", {})
        assert report.run("silent", "checks nothing", lambda: None) is None
        assert [c.status for c in report.checks] == ["fail"]
        assert report.failures

    def test_failing_check_sets_failures(self):
        report = Report("demo", {})
        report.run("bad", "one equals two", lambda: 1 == 2)
        assert report.failures
        text = emit(report, "text")
        assert "[fail] bad" in text

    def test_unsupported_case_is_out_of_scope(self):
        # a construction the library refuses for a case records its reason
        # as the claim, with no witness, and is not a failure
        def refuse():
            raise UnsupportedCaseError("no such construction for this case")
        report = Report("demo", {})
        assert report.run("refused", "the construction holds", refuse) is None
        payload = json.loads(emit(report, "json"))
        assert payload["checks"] == [{"name": "refused",
                                      "claim": "no such construction for this case",
                                      "status": "out-of-scope", "witness": None}]
        assert not report.failures


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

    def test_failing_matrix_gives_exit_1(self, monkeypatch):
        # a morphism that breaks a bracket relation refutes the claim; a
        # matrix with no morphism, such as 1,2,1,2 (det M = 0), is out of
        # scope instead (test_matrix_with_no_morphism_is_out_of_scope)
        from orefields import presentations

        def broken(self):
            raise ArithmeticError("morphism breaks [x', y'] = y'")
        monkeypatch.setattr(presentations.Morphism, "verify_relations", broken)
        code, out = run_main(["verify", "morphisms", "--char", "3",
                              "--alpha", "param", "--matrix", "1,2,1,1"])
        assert code == 1
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "monomial-morphism"]
        assert check["status"] == "fail"
        assert check["witness"] == "morphism breaks [x', y'] = y'"

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

    @pytest.mark.parametrize("precision", [MAX_PRECISION + 1, 100000])
    @pytest.mark.parametrize("command", [["pdo"], ["verify", "pdo"], ["verify", "all"]])
    def test_precision_above_the_bound_gives_exit_2(self, command, precision, monkeypatch):
        # refused before any series is built
        from orefields import cli
        monkeypatch.setattr(cli, "run_suite", None)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + ["--char", "0", "--alpha", "rat:2",
                                   "--precision", str(precision)])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (f"error: --precision {precision} exceeds the bound "
                                  f"{MAX_PRECISION}\n")

    def test_precision_at_the_bound_is_accepted(self, monkeypatch):
        from orefields import cli
        monkeypatch.setattr(cli, "run_suite", lambda name, cfg: Report(name, cfg.case_dict()))
        code, out = run_main(["pdo", "--precision", str(MAX_PRECISION)])
        assert code == 0
        assert json.loads(out)["case"]["precision"] == MAX_PRECISION

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

    # sha256 of the JSON report (with its final newline), taken before a
    # verification run built each presentation, claimed center and central
    # element once; char 5 rat:2 is charl-prime-subfield, whose Weyl
    # classification reuses the claimed center
    @pytest.mark.parametrize("char, alpha, seed, digest", [
        ("5", "rat:2", "0", "21004cdb95199ce42c73adc47c7873c9cba6a14099b22e8eaefd15b79e17f066"),
        ("2", "param", "19", "7a02b11ed64f4fa9ee9c6aaa5de35c5094bf08cadd4080240610c3e3d43fab68"),
    ])
    def test_verify_all_json_with_reused_objects_is_pinned(self, char, alpha, seed, digest):
        code, out = run_main(["verify", "all", "--char", char, "--alpha", alpha,
                              "--seed", seed, "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline) of the benchmark
    # argv not pinned above, and of the series at higher precisions, taken
    # before the Ore product loop folded constant factors into its weights
    @pytest.mark.parametrize("argv, digest", [
        ("verify all --char 0 --alpha rat:2/3 --seed 19",
         "a7662db3bc582f37307645c5057b7fa475afd4317b32980fd9339d7ffd3a3927"),
        ("verify all --char 5 --alpha param --seed 19",
         "f03c87fd72b2a85260cf1c7430beb2731c762a2e47b2cb9fe9699a8f8c709171"),
        ("pdo --char 0 --alpha rat:2 --precision 32",
         "5362cb8c605af546817500496b36f23f575ee0e538edfb03a57c30dcb8d6d78c"),
        ("pdo --char 3 --alpha param --precision 32",
         "c0ac7f55992dda33afe04ac36d4ef0ac48d7b04c09bee0869c6959dd75684022"),
        ("pdo --char 7 --alpha rat:3 --precision 32",
         "7f6d297f31ce10f0cb975e74efe523f709a40fb652d763410cc5a1efc411c322"),
        ("pdo --char 0 --alpha quad:(0+1*sqrt(2))/1 --precision 32",
         "aedb4e3a9f3a8485877602459bb214ec6b30a259451c2ddb02549d5b85e637ea"),
        ("pdo --char 3 --alpha param --precision 64",
         "4abb117a08395da4197aff99e7ba946cb31fd8231d18f64fbe4be12145cbdd77"),
    ])
    def test_benchmark_and_long_series_json_is_pinned(self, argv, digest):
        code, out = run_main(argv.split() + ["--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline) of three reports
    # with an out-of-scope construction, taken before Report.run recorded
    # UnsupportedCaseError: the leading constraint at m*alpha + r = 0, and
    # the Frobenius embedding of a parameter in the prime subfield
    @pytest.mark.parametrize("argv, digest", [
        ("pdo --char 0 --alpha rat:2 --matrix 1,0,1,-2 --precision 4",
         "2a0df4c1849c54b5837679be3062952945f069204d24fd83782d86ac0d145dfe"),
        ("verify morphisms --char 5 --alpha rat:2",
         "f5ebb99dba5112a7902cb9d972e469f5400c0b4472f4eff5a760be232a40f4f8"),
        ("verify all --char 5 --alpha rat:2 --seed 19",
         "ad4b80d75de3f79f3608ebdae5902ed191296b8e1e76627b94708edfacabe7e5"),
    ])
    def test_out_of_scope_json_is_pinned(self, argv, digest):
        code, out = run_main(argv.split() + ["--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the JSON report (with its final newline), taken before K(a)
    # and k(y, z) shared one reduced-fraction algorithm: each alpha has a
    # denominator other than 1, so sums in K(a) go over a denominator gcd
    @pytest.mark.parametrize("argv, digest", [
        ("verify all --char 7 --alpha param:(a^2+1)/(a-1) --seed 19",
         "14566ee1045f5410350f44a2919a196021e565d7e4f90aba30af2ea2cf4f2757"),
        ("pdo --char 0 --alpha param:(a^2+1)/(a-1) --precision 16",
         "3f938a7fd4a82e0a0203f30e17e845ea788289481ea6bb577d85c463400d0952"),
        ("verify all --char 0 --alpha param:(a^3+1)/(a^2-1) --seed 19",
         "66d15ba844f840711410d04277a402ed362445f7ca4e1bb86f3222857e1716c7"),
    ])
    def test_parameter_with_a_denominator_json_is_pinned(self, argv, digest):
        code, out = run_main(argv.split() + ["--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "rat:2", "--matrix", "1,0,0,0"], "det M = 0 vanishes in QQ"),
        (["--alpha", "rat:2", "--matrix", "1,0,1,-2"], "m*alpha + r = 0"),
        (["--char", "5", "--alpha", "param", "--matrix", "5,0,0,1"],
         "det M = 5 vanishes in GF(5)(a)"),
        (["--char", "3", "--alpha", "param", "--matrix", "1,2,1,2"],
         "det M = 0 vanishes in GF(3)(a)"),
    ])
    def test_matrix_with_no_morphism_is_out_of_scope(self, flags, message):
        # a matrix with no morphism refutes nothing, in both suites that
        # build one
        for argv, name in ((["verify", "morphisms"], "monomial-morphism"),
                           (["pdo", "--precision", "4"], "leading-constraint")):
            code, out = run_main(argv + flags)
            assert code == 0
            checks = {c["name"]: c for c in json.loads(out)["checks"]}
            assert checks[name] == {"name": name, "claim": message,
                                    "status": "out-of-scope", "witness": None}

    @pytest.mark.parametrize("suite", ["morphisms", "all"])
    @pytest.mark.parametrize("beta", ["rat:0", "rat:5"])
    def test_zero_beta_is_a_usage_error(self, suite, beta, capsys):
        # never replaced by alpha: the Frobenius embedding needs beta != 0
        code, out = run_main(["verify", suite, "--char", "5", "--alpha", "param",
                              "--beta", beta])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: --beta must be nonzero, got {beta}\n"

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

    def test_large_prime_characteristic_finishes(self):
        code, out = run_main(["pdo", "--char", "1000000000000000003", "--precision", "2"])
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0

    @pytest.mark.parametrize("argv, message", [
        (["pdo", "--char", "3317044064679887385962123", "--precision", "2"],
         "primality bound"),
        (["orbits", "cf", "--alpha", "quad:(0+1*sqrt(1000000000000000003))/1"],
         "exceeds the bound"),
        (["classify", "--char", "1000003", "--caseA", "g:ff:1000003^2:1,1",
          "--caseB", "g:ff:1000003^2:2,1"],
         "more than"),
    ])
    def test_arguments_beyond_the_field_bounds_are_usage_errors(self, argv, message, capsys):
        code, out = run_main(argv)
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["orbits", "cf", "--char", "0"], "orbits cf needs --alpha"),
        (["orbits", "equiv", "--alpha", "quad:(0+1*sqrt(-1))/1"],
         "orbits equiv needs --alpha and --beta"),
        (["pdo", "--char", "0", "--alpha", "ff:13^1:1"],
         "extension degree must be at least 2"),
        (["classify", "--char", "13", "--caseA", "g:ff:13^1:5", "--caseB", "q"],
         "extension degree must be at least 2"),
    ])
    def test_missing_element_or_degree_one_ff_is_a_usage_error(self, argv, message, capsys):
        code, out = run_main(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "centers", "--alpha", "ff:5^2:1,1"], "5 != --char 0"),
        (["verify", "all", "--alpha", "ff:997^2:1,1"], "997 != --char 0"),
        (["verify", "centers", "--char", "3", "--alpha", "ff:5^2:1,1"], "5 != --char 3"),
        (["pdo", "--char", "0", "--alpha", "ff:5^2:1,1", "--precision", "2"], "5 != --char 0"),
        (["orbits", "equiv", "--alpha", "quad:(0+1*sqrt(2))/1", "--beta", "ff:5^2:1,1"],
         "5 != --char 0"),
        (["classify", "--caseA", "g:ff:5^2:1,1", "--caseB", "q"], "5 != --char 0"),
        (["classify", "--char", "0", "--caseA", "q", "--caseB", "g:ff:7^2:1,1"],
         "7 != --char 0"),
    ])
    def test_ff_literal_needs_its_characteristic_as_char(self, argv, message, capsys):
        # an ff: literal never runs beside a q case built in characteristic
        # 0, nor slips past the skew-power bound
        code, out = run_main(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: ff literal characteristic {message}\n"

    def test_equivalence_across_the_unit_circle(self):
        code, out = run_main(["orbits", "equiv", "--alpha", "quad:(-5+12*sqrt(-1))/13",
                              "--beta", "quad:(5+12*sqrt(-1))/13"])
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["claim"] == "equivalent: True (reduced points coincide)"
        assert check["witness"] == "[0 -1; 1 0]"

    @pytest.mark.parametrize("argv, witness", [
        (["--char", "0", "--caseA", "g:param:a", "--caseB", "g:param:(5*a+2)/(2*a+1)"],
         "[-5 -2; -2 -1]"),
        (["--char", "5", "--caseA", "g:ff:5^2:0,1", "--caseB", "g:ff:5^2:0,3"], "[5 6; 4 5]"),
    ])
    def test_orbit_witness_is_in_gl2z(self, argv, witness):
        # outside the old box of entries <= 3, and the lift of the residue
        # witness [0 1; 4 0], whose integer det is -4
        code, out = run_main(["classify"] + argv)
        assert code == 0
        check, = json.loads(out)["checks"]
        assert check["status"] == "pass" and check["witness"] == witness

    def test_orbit_witness_over_a_parameter_field_at_large_char_finishes(self):
        # the kernel line is solved by a square root mod l; a walk over its
        # l multiples would not finish
        out = run_python(["-m", "orefields.cli", "classify", "--char", "1000000007",
                          "--caseA", "g:param:a", "--caseB", "g:param:(5*a+2)/(3*a+7)"], 30)
        assert out.returncode == 0
        check, = json.loads(out.stdout)["checks"]
        W = Mat2Z(*map(int, check["witness"].strip("[]").replace(";", "").split()))
        assert check["status"] == "pass" and W.unimodular
        # a multiple of [5 2; 3 7] mod l, the only witnesses there are
        ell = 1000000007
        s = W.n * pow(5, -1, ell) % ell
        assert [x % ell for x in W.entries()] == [s * x % ell for x in (5, 2, 3, 7)]

    def test_orbit_witness_over_a_large_prime_field_finishes(self):
        code, out = run_main(["classify", "--char", "101", "--caseA", "g:ff:101^2:1,1",
                              "--caseB", "g:ff:101^2:3,1"])
        assert code == 0
        check, = json.loads(out)["checks"]
        assert check["status"] == "pass" and check["witness"] == "[1 2; 0 1]"

    def test_suites_without_skew_powers_ignore_the_bound(self):
        for argv in (["verify", "pdo", "--char", "1000000007"],
                     ["verify", "orbits", "--char", "1000000007"],
                     ["verify", "morphisms", "--char", "1000000007"]):
            code, out = run_main(argv)
            assert code == 0
            assert json.loads(out)["summary"]["fail"] == 0

    # sha256 of the JSON report (with its final newline).  The ff: digest
    # was taken before the witness searches became a linear test over the
    # prime field; the param: digests when K(a) moved from a scan of small
    # matrices to the exact solver (new detail strings, and the char-5
    # witness is the least residue matrix, [1 1; 2 3], not [-3 2; -1 1])
    @pytest.mark.parametrize("char, case_a, case_b, digest", [
        ("13", "g:ff:13^3:5,7,4", "g:ff:13^3:9,2,8",
         "6dd2968c46dfe77d067b69ef4c226595d732c41bbdaa5678a0301450036aec94"),
        ("0", "g:param:((1)*a^0+(-1)*a^1)/((1)*a^1)",
         "g:param:((2)*a^0+(-3)*a^1)/((1)*a^0+(-1)*a^1)",
         "044940d4d3b6491386da607349df397d680ce100a5dae2820d7ca22b992878d4"),
        ("0", "g:param:((1)*a^0+(2)*a^1)/((3)*a^1)", "g:param:(-3)*a^0+(-2)*a^1+(2)*a^2",
         "f43d40e908ecb44fc78b4c296a6b7967c023cd084a31295472999e85151379a4"),
        ("5", "g:param:((4)*a^0+(4)*a^1)/((3)*a^0+(2)*a^1)",
         "g:param:((3)*a^0+(4)*a^1)/((3)*a^0+(1)*a^1)",
         "5e179b009b34860670aa75227584d1acfe4437c6c240ee68dd31367df11083c5"),
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

    def test_orbit_enumeration_bound(self, capsys):
        # the bound itself runs, in a fresh interpreter for its memory; the
        # next prime is a usage error
        nxt = next(p for p in range(MAX_ORBIT_ELL + 1, 2 * MAX_ORBIT_ELL)
                   if all(p % d for d in range(2, p)))
        code, out = run_main(["orbits", "finite", "--ell", str(nxt), "--ext", "3",
                              "--group", "slpm"])
        assert code == 2 and out == ""
        assert "exceeds the enumeration bound" in capsys.readouterr().err
        done = run_python(["-m", "orefields.cli", "orbits", "finite", "--ell",
                           str(MAX_ORBIT_ELL), "--ext", "3", "--group", "slpm"], 120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["summary"]["fail"] == 0

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

    # sha256 of the JSON report (with its final newline), taken before the
    # continued-fraction floor became a closed form and tails were matched
    # by period rotation alone; a negative Q with D scaled by Q^2, an
    # equivalent real pair, an imaginary pair on opposite sides of the
    # real axis, and the real pair as a classification
    @pytest.mark.parametrize("argv, digest", [
        (["orbits", "cf", "--alpha", "quad:(3+2*sqrt(7))/-5"],
         "bd61d8a777a70e0b6e94c7803a03d35bf7fb07718ae7f9599a6c15035d9e8c69"),
        (["orbits", "equiv", "--alpha", "quad:(3+2*sqrt(7))/-5",
          "--beta", "quad:(80+2*sqrt(7))/135"],
         "1c4c2a79dd7571a579db7098c953e0e05a76929ffea1a891045aeebd2360a60d"),
        (["orbits", "equiv", "--alpha", "quad:(2+1*sqrt(-7))/5",
          "--beta", "quad:(112-5*sqrt(-7))/161"],
         "341cda2cb559def79a33a65acdf79b9e576c7e34fb6989b0796b5416ffea0d73"),
        (["classify", "--char", "0", "--caseA", "g:quad:(3+2*sqrt(7))/-5",
          "--caseB", "g:quad:(80+2*sqrt(7))/135"],
         "d796c6a66999c2b61f2971e0dd2aa283b5f5a6b5dd9d6524ad6c5332aba0b8a9"),
    ])
    def test_quadratic_orbit_json_is_pinned(self, argv, digest):
        code, out = run_main(argv + ["--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["orbits", "cf", "--alpha", "quad:(0+1000000007*sqrt(2))/1"],
        ["orbits", "equiv", "--alpha", "quad:(0+1000000007*sqrt(2))/1",
         "--beta", "quad:(1+1*sqrt(2))/1"],
        ["classify", "--caseA", "g:quad:(0+1000000007*sqrt(2))/1",
         "--caseB", "g:quad:(1+1*sqrt(2))/1"],
        ["orbits", "cf", "--alpha", "quad:(1+1*sqrt(2))/100000000"],
    ])
    def test_discriminant_above_the_bound_is_a_usage_error(self, argv, capsys):
        code, out = run_main(argv)
        assert code == 2 and out == ""
        assert "exceeds the bound 4000000000000" in capsys.readouterr().err

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

    def test_parse_ratfunc_power_bound_reads_polynomial_degrees(self):
        # the size of y^2/z^3 is degree 3, that of its coprime numerator and
        # denominator in k[y, z]: not 5 (|2| + |-3|), nor -1 (2 - 3)
        from orefields.literals import MAX_POWER_DEGREE, parse_ratfunc
        from orefields.ratfunc import FunctionField2
        ctx = FunctionField2(QQ())
        y, z = ctx.gens()
        assert 300 * 3 <= MAX_POWER_DEGREE < 400 * 3
        assert parse_ratfunc("(y^2/z^3)^300", ctx) == y ** 600 / z ** 900
        for text in ("(y^2/z^3)^400", "(1/y)^2000"):
            with pytest.raises(ExprError):
                parse_ratfunc(text, ctx)

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

    @pytest.mark.parametrize("argv", [
        ["pdo", "--char", "0", "--alpha", "rat:2", "--precision", "4"],
        ["verify", "all", "--char", "3", "--alpha", "param"],
    ])
    def test_bracket_failure_fails_the_relation_image(self, monkeypatch, argv):
        # the series checks need the presentation, so they are skipped
        from orefields import presentations
        monkeypatch.setattr(presentations.Presentation, "_verify_brackets", self._raise)
        code, checks = self._checks(argv)
        assert code == 1
        assert checks["relation-image"]["status"] == "fail"
        assert checks["relation-image"]["witness"] == "injected failure"
        assert not any(name in checks for name in (
            "u-valuation", "uinv-u", "inverse-roundtrip", "leading-constraint"))

    @pytest.mark.parametrize("suite", ["orbits", "all"])
    def test_transitivity_failure_fails_a_check(self, monkeypatch, suite):
        # an ArithmeticError in the orbit report is a failed check with its
        # message, not a traceback; the other suites still run
        from orefields import orbits
        monkeypatch.setattr(orbits, "transitivity_report", self._raise)
        code, checks = self._checks(["verify", suite, "--char", "3", "--alpha", "param"])
        assert code == 1
        assert checks["orbit-transitivity"]["status"] == "fail"
        assert checks["orbit-transitivity"]["witness"] == "injected failure"
        assert checks["orbit-necessity"]["status"] == "open-question"
        assert [c["name"] for c in checks.values() if c["status"] == "fail"] == [
            "orbit-transitivity"]
        if suite == "all":
            assert checks["g-center"]["status"] == "pass"

    def test_an_ell_with_no_field_stays_a_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["verify", "orbits", "--ell", "4"])
        assert code == 2
        assert "not prime" in err.getvalue()

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
        (lambda t: WeylTriple(t.case, t.P, t.P, t.centrals, t.recipe), "[P, Q] != 1"),
        (lambda t: WeylTriple(t.case, t.P, t.Q, t.centrals + [("QP", t.Q * t.P)], t.recipe),
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

    def test_wrong_z_series_fails_the_leading_constraint(self, monkeypatch):
        from orefields import cli
        from orefields.pdo import PdoSeries
        check = cli.leading_constraint_check

        def with_wrong_z(Xinv, Y, Z, beta, D):
            return check(Xinv, Y, Z + PdoSeries.u(Z.derivation, Z.prec), beta, D)
        monkeypatch.setattr(cli, "leading_constraint_check", with_wrong_z)
        code, checks = self._checks(["pdo", "--char", "0", "--alpha", "rat:2",
                                     "--precision", "4"])
        assert code == 1
        lc = checks["leading-constraint"]
        assert lc["status"] == "fail"
        assert lc["witness"] == "Z-relation fails at some computed order"
        assert lc["claim"].startswith("the lowest-order data of the embedded generators")

    def test_non_central_generator_fails_the_center(self, monkeypatch):
        # c replaced by x, which does not commute with y
        from orefields import presentations
        monkeypatch.setattr(presentations, "central_element_c", lambda ell, alpha:
                            presentations.algebra_make(
                                presentations.CaseSpec("g", alpha.field, alpha)).x)
        code, checks = self._checks(["verify", "centers", "--char", "3", "--alpha", "param"])
        assert code == 1
        center = checks["g-center"]
        assert center["status"] == "fail"
        assert center["witness"] == "center generator c fails to commute with x, y, z"
        assert center["claim"] == "center generators commute with x, y, z"
        assert not any(name.startswith("g-") and name != "g-center" for name in checks)
        for name in ("central-element-forms", "shift-invariant", "centralizer-pair",
                     "brauer-class-order"):
            assert name not in checks
        assert checks["q-center"]["status"] == "pass"
        assert checks["q-centralizer-pair"]["status"] == "pass"

    def test_broken_cross_commutator_fails_the_centralizer_pair(self, monkeypatch):
        # [x^3 - x, y] = 0 made to read y
        from orefields import presentations
        commutator = presentations.commutator
        monkeypatch.setattr(presentations, "commutator", lambda a, b:
                            commutator(a, b) + b if a.degree() > 1 else commutator(a, b))
        code, checks = self._checks(["verify", "centers", "--char", "3", "--alpha", "param"])
        assert code == 1
        for name in ("centralizer-pair", "q-centralizer-pair"):
            assert checks[name]["status"] == "fail"
            assert checks[name]["witness"] == "[x^3-x, y] != 0"
        assert checks["central-element-forms"]["status"] == "pass"

    def test_value_error_fails_the_leading_constraint(self, monkeypatch):
        # only the construction of the morphism is converted to out-of-scope:
        # a ValueError raised while the constraint is checked refutes it
        from orefields import cli

        def raise_value_error(*args, **kwargs):
            raise ValueError("injected failure")
        monkeypatch.setattr(cli, "leading_constraint_check", raise_value_error)
        code, checks = self._checks(["pdo", "--char", "0", "--alpha", "rat:2",
                                     "--precision", "4"])
        assert code == 1
        assert checks["leading-constraint"]["status"] == "fail"
        assert checks["leading-constraint"]["witness"] == "injected failure"

    def test_unsupported_frobenius_embedding_is_out_of_scope(self, monkeypatch):
        from orefields import presentations

        def refuse(*args, **kwargs):
            raise UnsupportedCaseError("injected scope")
        monkeypatch.setattr(presentations, "frobenius_embedding", refuse)
        code, checks = self._checks(["verify", "morphisms", "--char", "5", "--alpha", "param"])
        assert code == 0
        assert checks["frobenius-embedding"] == {
            "name": "frobenius-embedding", "claim": "injected scope",
            "status": "out-of-scope", "witness": None}

    def test_value_error_fails_the_frobenius_embedding(self, monkeypatch):
        # only UnsupportedCaseError is out of scope: a plain ValueError
        # raised inside a check refutes it
        from orefields import presentations

        def raise_value_error(*args, **kwargs):
            raise ValueError("injected failure")
        monkeypatch.setattr(presentations, "frobenius_embedding", raise_value_error)
        code, checks = self._checks(["verify", "morphisms", "--char", "5", "--alpha", "param"])
        assert code == 1
        fe = checks["frobenius-embedding"]
        assert fe["status"] == "fail"
        assert fe["witness"] == "injected failure"
        assert fe["claim"] == "the x^l-combination embedding preserves all three brackets"


class TestVerificationRunScope:
    """One `run_suite` call builds and verifies each presentation, claimed
    center and central element c once; nothing it built outlives it."""

    def test_each_key_is_built_once(self, monkeypatch):
        from orefields import presentations
        builds = collections.Counter()
        init = presentations.Presentation.__init__

        def counting_init(self, case, coords="yz"):
            builds[(case, coords)] += 1
            init(self, case, coords)
        certified = []
        certify = presentations._central_element_c

        def counting_certify(ell, alpha):
            certified.append((ell, alpha))
            return certify(ell, alpha)
        monkeypatch.setattr(presentations.Presentation, "__init__", counting_init)
        monkeypatch.setattr(presentations, "_central_element_c", counting_certify)
        report = run_suite("all", Config(char=7, alpha="param"))
        assert not report.failures
        # g at alpha and at the morphisms' betas, q in (y, z) and (y, t)
        assert len(builds) >= 4
        assert set(builds.values()) == {1}
        assert len(certified) == 1

    def test_a_later_run_verifies_afresh(self, monkeypatch):
        from orefields import presentations
        assert not run_suite("presentations", Config(char=3, alpha="param")).failures

        def broken(self):
            raise ArithmeticError("injected failure")
        monkeypatch.setattr(presentations.Presentation, "_verify_brackets", broken)
        checks = {c.name: c for c in
                  run_suite("presentations", Config(char=3, alpha="param")).checks}
        for name in ("g-brackets", "q-brackets", "q-t-bracket"):
            assert checks[name].status == "fail"
            assert checks[name].witness == "injected failure"

    def test_the_store_is_dropped_when_a_run_raises(self, monkeypatch):
        from orefields import presentations

        def raising_suite(cfg, report):
            presentations.algebra_make(presentations.CaseSpec("q", GF(3)))
            raise RuntimeError("suite crashed")
        monkeypatch.setitem(SUITES, "presentations", raising_suite)
        with pytest.raises(RuntimeError):
            run_suite("presentations", Config(char=3))
        assert presentations._run_store is None


class TestStartup:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # every verdict pays the import of the CLI in a fresh process, and
        # these two are what a dataclass decoration costs there
        code = ("import sys, orefields.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        out = run_python(["-c", code], 60)
        assert out.returncode == 0
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# main(argv) over random subcommands, flags and literals.  Characteristics,
# radicands and extension orders stay far inside the stated bounds
# (MAX_SKEW_CHAR, MAX_ORBIT_ELL, MAX_RADICAND, MAX_EXTENSION_ORDER), so every
# draw is quick; what is drawn is the grammar, not the size.

SMALL = st.integers(-12, 12)
PARAM_EXPR = st.recursive(
    st.sampled_from(["a", "1", "2", "(a+1)", "(a-a)"]),
    # a sign may follow any operator; nesting goes past the interpreter's stack
    lambda e: st.builds("({}{}{})".format, e,
                        st.sampled_from(["+", "-", "*", "/", "+-", "--", "*-", "/-", "*+"]), e)
    | st.builds("{}^{}".format, e, st.integers(-3, 3))
    | st.builds(lambda e, n: "(" * n + e + ")" * n, e, st.sampled_from([1, 301, 10 ** 4])),
    max_leaves=4)
QUAD = st.builds("quad:({}{}{}*sqrt({}))/{}".format, SMALL, st.sampled_from("+-"),
                 st.integers(0, 6), st.integers(-30, 30), st.integers(0, 6))
IRRATIONAL_QUAD = st.builds(
    "quad:({}{}{}*sqrt({}))/{}".format, SMALL, st.sampled_from("+-"), st.integers(1, 6),
    st.sampled_from([d for d in sorted(range(-30, 31), key=lambda d: (d < 0, abs(d)))
                     if d not in (0, 1) and all(d % (p * p) for p in (2, 3, 5))]),
    st.integers(1, 6))
LITERAL = st.one_of(
    st.builds("rat:{}".format, SMALL),
    st.builds("rat:{}/{}".format, SMALL, st.integers(0, 6)),
    QUAD,
    st.just("param"),
    st.builds("param:{}".format, PARAM_EXPR),
    st.builds("ff:{}^{}:{}".format, st.sampled_from([2, 3, 4, 5, 7, 13]), st.integers(0, 3),
              st.lists(st.integers(-3, 14), min_size=1, max_size=4).map(
                  lambda v: ",".join(map(str, v)))),
    st.sampled_from(["", "garbage", "rat:", "quad:(1+1*sqrt(2))", "ff:3^2", "param:(a+"]),
)
MATRIX = st.lists(st.integers(-3, 3), min_size=3, max_size=5).map(
    lambda v: ",".join(map(str, v)))
FLAGS = st.fixed_dictionaries({}, optional={
    "--char": st.integers(-2, 31),
    "--alpha": LITERAL,
    "--beta": LITERAL,
    "--matrix": MATRIX,
    "--ell": st.integers(-1, 13),
    "--ext": st.integers(-1, 4),
    "--group": st.sampled_from(["sl", "slpm"]),
    "--precision": st.integers(-1, 6),
    "--seed": st.integers(0, 50),
    "--format": st.sampled_from(["json", "text"]),
}).map(lambda flags: [f"{k}={v}" for k, v in flags.items()])
CASE = st.just("q") | st.builds("g:{}".format, LITERAL)
COMMAND = st.one_of(
    st.sampled_from(sorted(SUITES) + ["all"]).map(lambda s: ["verify", s]),
    # quadratic elements first, as cf and equiv need; a drawn flag may override them
    st.builds(lambda c, a, b: ["orbits", c, f"--alpha={a}", f"--beta={b}"],
              st.sampled_from(["finite", "cf", "equiv"]), IRRATIONAL_QUAD, IRRATIONAL_QUAD),
    st.builds(lambda a, b: ["classify", f"--caseA={a}", f"--caseB={b}"], CASE, CASE),
    st.just(["pdo"]),
)


@given(argv=st.builds(list.__add__, COMMAND, FLAGS))
@example(argv=["orbits", "cf", "--char", "0"])
@example(argv=["orbits", "equiv", "--alpha", "quad:(0+1*sqrt(-1))/1"])
@example(argv=["pdo", "--char", "0", "--alpha", "ff:13^1:1"])
@example(argv=["classify", "--char", "13", "--caseA", "g:ff:13^1:5", "--caseB", "q"])
@example(argv=["orbits", "cf", "--alpha", "param:" + "(" * 300 + "a" + ")" * 300])
@example(argv=["pdo", "--alpha", "param:" + "-" * 3000 + "a"])
@example(argv=["verify", "centers", "--alpha", "rat:1e5000"])
def test_main_ends_in_a_verdict_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
    else:
        assert out.getvalue() and err.getvalue() == "", argv
