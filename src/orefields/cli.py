"""Batch command line driver.

Subcommands expose each verification suite and decision procedure with
machine-readable output:

    verify {presentations,centers,morphisms,pdo,orbits,all} [flags]
    orbits {finite,cf,equiv} [flags]
    classify --caseA .. --caseB .. [flags]
    pdo [flags]

All configuration is via flags; identical flags produce byte-identical
JSON.  The exit code is 0 exactly when no check failed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__, fields, orbits, presentations
from .fields import FieldElem, GF, QQ
from .literals import parse_field_literal, parse_matrix
from .pdo import PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv
from .skewpoly import commutator


class Check:
    __slots__ = ("name", "claim", "status", "witness", "runtime_ms")

    def __init__(self, name: str, claim: str, status: str, witness: str | None = None,
                 runtime_ms: float | None = None):
        self.name = name
        self.claim = claim
        self.status = status          # pass | fail | out-of-scope | open-question
        self.witness = witness
        self.runtime_ms = runtime_ms


class Report:
    __slots__ = ("suite", "case", "checks")

    def __init__(self, suite: str, case: dict, checks: list | None = None):
        self.suite = suite
        self.case = case
        self.checks = [] if checks is None else checks

    def run(self, name, claim, fn, witness=None):
        """Execute fn; a truthy result is a pass, falsy or raising is a fail,
        except that an UnsupportedCaseError is out-of-scope, its message the
        claim.  Returns fn's result on a pass, else None."""
        start = time.perf_counter()
        note = witness
        result = None
        try:
            result = fn()
            status = "pass" if result else "fail"
        except presentations.UnsupportedCaseError as exc:
            claim, status, note = str(exc), "out-of-scope", None
        except (ArithmeticError, ValueError) as exc:
            status, note = "fail", str(exc)
        ms = (time.perf_counter() - start) * 1000.0
        self.checks.append(Check(name, claim, status, note, ms))
        return result if status == "pass" else None

    def record(self, name, claim, status, witness=None):
        self.checks.append(Check(name, claim, status, witness, 0.0))

    @property
    def failures(self):
        return [c for c in self.checks if c.status == "fail"]


def emit(report: Report, fmt: str = "json") -> str:
    """Serialize a report; JSON output is deterministic (volatile timing
    lives only in the text format)."""
    if fmt == "json":
        payload = {
            "version": __version__,
            "suite": report.suite,
            "case": report.case,
            "checks": [
                {"name": c.name, "claim": c.claim, "status": c.status,
                 "witness": c.witness}
                for c in report.checks
            ],
            "summary": {
                "pass": sum(c.status == "pass" for c in report.checks),
                "fail": sum(c.status == "fail" for c in report.checks),
                "out-of-scope": sum(c.status == "out-of-scope" for c in report.checks),
                "open-question": sum(c.status == "open-question" for c in report.checks),
            },
        }
        return json.dumps(payload, indent=2)
    lines = [f"suite {report.suite} (tool {__version__})"]
    for key, value in report.case.items():
        lines.append(f"  case {key}: {value}")
    for c in report.checks:
        t = f" [{c.runtime_ms:.1f}ms]" if c.runtime_ms else ""
        w = f" :: {c.witness}" if c.witness else ""
        lines.append(f"[{c.status}] {c.name}: {c.claim}{w}{t}")
    bad = len(report.failures)
    lines.append(f"{len(report.checks)} checks, {bad} failures")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# configuration

class Config:
    # one common command-line option per field, under the same name
    __slots__ = ("char", "alpha", "beta", "matrix", "ell", "ext", "group", "precision",
                 "seed", "fmt")

    def __init__(self, char: int = 0, alpha: str | None = None, beta: str | None = None,
                 matrix: str = "1,1,0,1", ell: int = 3, ext: int = 2, group: str = "sl",
                 precision: int = 8, seed: int = 0, fmt: str = "json"):
        self.char = char
        self.alpha = alpha
        self.beta = beta
        self.matrix = matrix
        self.ell = ell
        self.ext = ext
        self.group = group
        self.precision = precision
        self.seed = seed
        self.fmt = fmt

    def alpha_elem(self) -> FieldElem | None:
        if self.alpha is None:
            return None
        return _parse_literal(self.alpha, self.char)

    def beta_elem(self) -> FieldElem | None:
        if self.beta is None:
            return None
        beta = _parse_literal(self.beta, self.char)
        if beta.is_zero():
            raise ValueError(f"--beta must be nonzero, got {self.beta}")
        return beta

    def case_dict(self) -> dict:
        return {
            "char": self.char,
            "alpha": self.alpha,
            "beta": self.beta,
            "matrix": self.matrix,
            "precision": self.precision,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# suites

# The largest characteristic l at which the suites that build x^l and
# x^(l^2) (presentations, centers and, given --alpha, morphisms, for its
# Frobenius embedding) run.  `verify all --alpha param` is the slowest of
# the default literals: its skew products carry elements of K(a) of degree
# up to l^2 in a.  With Frobenius powers in K(a) taken by substitution and
# products of constant-coefficient skew polynomials formed on raw reps, it
# took 0.7 s at l = 151, 1.1 s at l = 199, 2.3 s at l = 251, 2.9-3.8 s at
# l = 307 (three runs), 3.5-5.0 s at l = 331, 4.2-5.4 s at l = 353 and
# 6.2 s at l = 401 (Python 3.11, a 2-vCPU VM whose speed drifts by about
# 20 %); --alpha rat:2 and --alpha ff:307^2:0,1 took 1.4 and 2.3 s at
# l = 307.  307 is the largest l measured whose every run stayed under
# 5 s; above it these suites exit 2 instead of running for minutes (or,
# at l near 10^9, for ever).
MAX_SKEW_CHAR = 307


# The largest --precision N accepted; the series work grows about as N^2.
# At N = 128 `pdo` took at most 2.2 s on the four pdo-precision benchmark
# cases and 6.0 s with --alpha param over QQ (Python 3.11, a 2-vCPU VM).
MAX_PRECISION = 128


def _check_skew_char(cfg: Config):
    """Refuse a characteristic above MAX_SKEW_CHAR, for a suite about to
    build x^l and x^(l^2)."""
    if cfg.char > MAX_SKEW_CHAR:
        raise ValueError(f"characteristic {cfg.char} exceeds the bound {MAX_SKEW_CHAR} "
                         "of the suites that build x^l and x^(l^2)")


def _no_morphism_out_of_scope(fn):
    """fn, with the ValueError or ZeroDivisionError of a matrix with no
    morphism (det M = 0 in k, or m*alpha + r = 0), which refutes nothing,
    raised as an UnsupportedCaseError; other ArithmeticErrors still fail."""
    def run():
        try:
            return fn()
        except (ValueError, ZeroDivisionError) as exc:
            raise presentations.UnsupportedCaseError(str(exc)) from exc
    return run


def suite_presentations(cfg: Config, report: Report):
    _check_skew_char(cfg)
    # a Presentation verifies its brackets when it is constructed
    gcase = None if cfg.alpha is None else _parse_case("g:" + cfg.alpha, cfg.char)
    pres = None
    if gcase is not None:
        pres = report.run("g-brackets",
                          "generators satisfy [x,y]=y, [x,z]=alpha z, [y,z]=0",
                          lambda: presentations.algebra_make(gcase))
    if pres is not None:
        x, y, z = pres.gens
        ac = pres.embed(pres.ctx.const(gcase.alpha))
        for i in range(1, 7):
            xi = x ** i
            report.run(f"shift-identity-y-{i}",
                       f"x^{i} y = y (x+1)^{i}",
                       lambda xi=xi, i=i: xi * y == y * (x + 1) ** i)
            report.run(f"shift-identity-z-{i}",
                       f"x^{i} z = z (x+alpha)^{i}",
                       lambda xi=xi, i=i: xi * z == z * (x + ac) ** i)
        if cfg.char:
            ell = cfg.char
            al = gcase.alpha
            t1 = x ** ell - x
            ta = x ** ell - x * pres.ctx.const(fields.frobenius(al) / al)
            report.run("invariant-commutes-y", f"(x^{ell}-x) y = y (x^{ell}-x)",
                       lambda: commutator(t1, y).is_zero())
            report.run("invariant-commutes-z",
                       f"(x^{ell}-alpha^{ell - 1}x) z = z (x^{ell}-alpha^{ell - 1}x)",
                       lambda: commutator(ta, z).is_zero())
    qcase = _parse_case("q", cfg.char)
    report.run("q-brackets",
               "generators satisfy [x,y]=y, [x,z]=y+z, [y,z]=0",
               lambda: presentations.algebra_make(qcase))
    presqt = report.run("q-t-bracket", "in (y,t) coordinates [x,t]=1",
                        lambda: presentations.algebra_make(qcase, coords="yt"))
    if presqt is not None and cfg.char:
        ell = cfg.char
        xq, tq = presqt.x, presqt.z

        def invariant_shift():
            t1 = xq ** ell - xq
            return t1 * tq == tq * t1 - 1
        report.run("q-invariant-shift", f"(x^{ell}-x) t = t (x^{ell}-x) - 1", invariant_shift)


def suite_centers(cfg: Config, report: Report):
    _check_skew_char(cfg)
    texts = ["q"] if cfg.alpha is None else ["g:" + cfg.alpha, "q"]
    for case in [_parse_case(text, cfg.char) for text in texts]:
        label = case.algebra
        # a claim that names what its step built is set once the step returns
        center = report.run(f"{label}-center", "center generators commute with x, y, z",
                            lambda: presentations.claimed_center(case))
        if center is None:
            continue
        names = ", ".join(lbl for lbl, _ in center.generators) or "(constants only)"
        report.checks[-1].claim = f"claimed center generators all central: {names}"
        verdict = report.run(f"{label}-weyl-classification",
                             "Weyl presentation and center classified",
                             lambda: presentations.gk_classify(case))
        if verdict is None:
            continue
        report.checks[-1].claim = (f"Weyl presentation exists: {verdict.weyl_equivalent}; "
                                   f"center {verdict.center_description}")
        if verdict.dimension_over_center:
            report.record(
                f"{label}-dimension-over-center",
                f"dimension {verdict.dimension_over_center} over the center: "
                "recorded, not recomputed",
                "out-of-scope")
        if verdict.weyl is not None:
            report.run(f"{label}-weyl-pair",
                       "[P,Q]=1 and the listed central elements commute with both",
                       lambda: presentations.check_weyl(verdict.weyl))
        classification = case.classification
        if classification == "charl-generic":
            ell = case.field.char
            report.run("central-element-forms",
                       "both closed forms of the degree-l^2 central element agree "
                       "and it is central",
                       lambda: presentations.central_element_c(ell, case.alpha))
            report.run("shift-invariant",
                       "x^l - gamma^(l-1) x is the product of the shifted copies "
                       "of x and is shift-invariant",
                       lambda: presentations.translation_invariant_t(case.alpha, ell))
            report.run("centralizer-pair",
                       "all nine cross-commutators vanish, both inner witnesses nonzero",
                       lambda: presentations.centralizer_pair_check(case))
            report.record(
                "brauer-class-order",
                "order of the skewfield class in the Brauer group of the center: "
                "recorded, not recomputed",
                "out-of-scope")
        elif classification == "q-charl":
            report.run("q-centralizer-pair",
                       "all nine cross-commutators vanish, both inner witnesses nonzero",
                       lambda: presentations.centralizer_pair_check(case))


def suite_morphisms(cfg: Config, report: Report):
    alpha = cfg.alpha_elem()
    if alpha is None:
        report.record("monomial-morphism", "no --alpha given", "out-of-scope")
        return
    _check_skew_char(cfg)
    M = parse_matrix(cfg.matrix)
    report.run("monomial-morphism",
               f"matrix {M} induces an embedding preserving all three brackets",
               _no_morphism_out_of_scope(lambda: presentations.monomial_morphism(M, alpha)),
               witness=str(M))
    rng = random.Random(cfg.seed)
    def random_unimodular():
        W = orbits.Mat2Z.identity()
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(-2, 2)
            W = W * (orbits.Mat2Z.translation(k) if rng.random() < 0.7
                     else orbits.Mat2Z.inversion())
        return W
    def composition_holds():
        for _ in range(5):
            M1, M2 = random_unimodular(), random_unimodular()
            try:
                phi1 = presentations.monomial_morphism(M1, alpha)
                phi2 = presentations.monomial_morphism(M2, phi1.beta)
            except (ZeroDivisionError, ValueError):
                continue    # a draw with no morphism (m*alpha + r = 0) tests nothing
            # builds the direct morphism of M2 * M1 and raises an
            # ArithmeticError where the applied images differ from its own;
            # unguarded: once phi1 and phi2 exist, its denominator
            # (m2*beta + r2)(m1*alpha + r1) is nonzero
            phi1.compose(phi2)
        return True
    report.run("composition-convention",
               "composing monomial substitutions matches the matrix product",
               composition_holds)
    if cfg.char:
        beta = alpha if cfg.beta is None else cfg.beta_elem()
        report.run("frobenius-embedding",
                   "the x^l-combination embedding preserves all three brackets",
                   lambda: presentations.frobenius_embedding(alpha, beta, cfg.char))


def suite_pdo(cfg: Config, report: Report):
    alpha = cfg.alpha_elem()
    if alpha is None:
        alpha = QQ().coerce(2) if cfg.char == 0 else GF(cfg.char).coerce(1)
    case = presentations.CaseSpec("g", alpha.field, alpha)
    N = cfg.precision

    def relation_image():
        # a Presentation verifies its brackets when it is constructed
        pres = presentations.algebra_make(case)
        x, y, z = pres.gens
        if not pdo_from_skew(x * y - y * x - y, N).is_zero_mod_prec():
            raise ArithmeticError("xy - yx - y != 0 in the series field")
        return pres
    pres = report.run("relation-image",
                      "the defining relation xy - yx - y maps to 0 in the series field",
                      relation_image)
    if pres is None:
        return
    u = PdoSeries.u(pres.D, N)
    report.run("u-valuation", "v(u) = 1", lambda: u.valuation() == 1)
    report.run("uinv-u", "u^-1 * u = 1 exactly",
               lambda: (PdoSeries.u(pres.D, N, power=-1) * u).approx_eq(
                   PdoSeries.one(pres.D, N)))
    a = u + PdoSeries.from_ratfunc(pres.D, pres.ctx.monomial(1, 0), N)

    def inverse_roundtrip():
        back = pdo_inv(pdo_inv(a))
        return back.approx_eq(a.truncate(back.prec))
    report.run("inverse-roundtrip", "inv(inv(a)) agrees with a to precision",
               inverse_roundtrip)
    M = parse_matrix(cfg.matrix)

    def leading_constraint():
        # only a matrix with no morphism is out of scope; an error of the
        # series or of the constraint check refutes the claim
        phi = _no_morphism_out_of_scope(lambda: presentations.monomial_morphism(M, alpha))()
        Xinv = pdo_inv(pdo_from_skew(phi.x_img, N))
        Y = pdo_from_skew(phi.y_img, N)
        Z = pdo_from_skew(phi.z_img, N)
        return leading_constraint_check(Xinv, Y, Z, phi.beta, pres.D)
    c1 = report.run("leading-constraint",
                    "the lowest-order data of the embedded generators satisfies "
                    "c1 = D(y0)/y0 and beta c1 = D(z0)/z0, with the full "
                    "commutation identities to precision",
                    leading_constraint)
    if c1 is not None:
        report.checks[-1].witness = f"c1={c1}"


def suite_orbits(cfg: Config, report: Report):
    # an ArithmeticError while the report is computed is a failed check
    # with its message; a ValueError (an --ell with no field or over the
    # enumeration bound) stays a usage error
    try:
        trep = orbits.transitivity_report(cfg.ell)
    except ArithmeticError as exc:
        report.record("orbit-transitivity", "the orbit and norm-map checks over "
                      f"GF({cfg.ell}^k) are computed", "fail", str(exc))
    else:
        for name, status, detail in trep.checks:
            report.record(name, detail, status)
    report.record("orbit-necessity",
                  "whether orbit equivalence is necessary for plain isomorphism "
                  "is an open question",
                  "open-question")


SUITES = {
    "presentations": suite_presentations,
    "centers": suite_centers,
    "morphisms": suite_morphisms,
    "pdo": suite_pdo,
    "orbits": suite_orbits,
}

def run_suite(name: str, cfg: Config) -> Report:
    """Run one suite, or all of them, as one verification run: each
    presentation, claimed center and central element is built and verified
    once, at its first use, and reused for the rest of the run."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    report = Report(name, cfg.case_dict())
    cfg.beta_elem()     # a zero or malformed --beta is refused before any check runs
    with presentations.verification_run():
        for suite in SUITES.values() if name == "all" else [SUITES[name]]:
            suite(cfg, report)
    return report


# ---------------------------------------------------------------------------
# orbit and classification commands

def cmd_orbits(args, cfg: Config) -> Report:
    report = Report(f"orbits-{args.orbits_cmd}", cfg.case_dict())
    if args.orbits_cmd == "finite":
        rep = orbits.finite_orbits(cfg.ell, cfg.ext, cfg.group)
        for o in rep.orbits:
            report.record(
                f"orbit-of-{o.representative}",
                f"size {o.size}, stabilizer order {o.stabilizer_order}, "
                f"|G| = {rep.group_order}",
                "pass")
        reason = orbits.transitivity_scope(cfg.ell, cfg.ext, cfg.group)
        if rep.transitive or reason is None:
            report.record("transitive", f"single orbit: {rep.transitive}",
                          "pass" if rep.transitive else "fail")
        else:
            report.record("transitive",
                          f"single orbit: False ({reason}), "
                          f"orbit sizes={[o.size for o in rep.orbits]}",
                          "out-of-scope")
    elif args.orbits_cmd == "cf":
        alpha = cfg.alpha_elem()
        if alpha is None:
            raise ValueError("orbits cf needs --alpha")
        q = orbits.QuadIrr.from_field_elem(alpha)
        cf = orbits.cf_expand(q)
        report.record("expansion", f"{q} = {cf}", "pass",
                      witness=str(cf))
    elif args.orbits_cmd == "equiv":
        alpha, beta = cfg.alpha_elem(), cfg.beta_elem()
        if alpha is None or beta is None:
            raise ValueError("orbits equiv needs --alpha and --beta")
        verdict = orbits.gl2z_equivalent(alpha, beta)
        report.record("equivalence",
                      f"equivalent: {verdict.equivalent} ({verdict.detail})",
                      "pass",
                      witness=str(verdict.witness) if verdict.witness else None)
    return report


def _parse_literal(text: str, char: int) -> FieldElem:
    """An element literal of characteristic --char; an ff: literal of
    another characteristic, also under --char 0, is a usage error."""
    elem = parse_field_literal(text, char)
    if elem.field.char != char:
        raise ValueError(f"ff literal characteristic {elem.field.char} != --char {char}")
    return elem


def _parse_case(text: str, char: int) -> presentations.CaseSpec:
    if text == "q":
        field = QQ() if char == 0 else GF(char)
        return presentations.CaseSpec("q", field)
    if text.startswith("g:"):
        alpha = _parse_literal(text[2:], char)
        return presentations.CaseSpec("g", alpha.field, alpha)
    raise ValueError(f"case literal must be 'q' or 'g:<alpha literal>', got {text!r}")


def cmd_classify(args, cfg: Config) -> Report:
    report = Report("classify", cfg.case_dict())
    caseA = _parse_case(args.caseA, cfg.char)
    caseB = _parse_case(args.caseB, cfg.char)
    verdict = orbits.valued_iso_classify(caseA, caseB)
    status = "open-question" if verdict.verdict == "unknown-open" else "pass"
    witness = str(verdict.witness.matrix) if verdict.witness is not None else None
    report.record("verdict",
                  f"{verdict.verdict}"
                  f"{' (one-sided)' if verdict.one_sided else ''}: {verdict.detail}",
                  status, witness)
    return report


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orefields",
        description="verification suites and orbit classification for "
                    "skew polynomial skewfields")
    d = Config()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="fmt", choices=("json", "text"),
                        default=d.fmt)
    common.add_argument("--char", type=int, default=d.char)
    common.add_argument("--alpha", default=d.alpha)
    common.add_argument("--beta", default=d.beta)
    common.add_argument("--matrix", default=d.matrix)
    common.add_argument("--ell", type=int, default=d.ell)
    common.add_argument("--ext", type=int, default=d.ext)
    common.add_argument("--group", choices=("sl", "slpm"), default=d.group)
    common.add_argument("--precision", type=int, default=d.precision)
    common.add_argument("--seed", type=int, default=d.seed)

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])

    p_orbits = sub.add_parser("orbits", parents=[common])
    p_orbits.add_argument("orbits_cmd", choices=("finite", "cf", "equiv"))

    p_classify = sub.add_parser("classify", parents=[common])
    p_classify.add_argument("--caseA", required=True)
    p_classify.add_argument("--caseB", required=True)

    sub.add_parser("pdo", parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every subparser inherits the common options, one per Config field
    cfg = Config(**{name: getattr(args, name) for name in Config.__slots__})
    try:
        if cfg.precision < 1:
            raise ValueError(f"--precision must be at least 1, got {cfg.precision}")
        if cfg.precision > MAX_PRECISION:
            raise ValueError(f"--precision {cfg.precision} exceeds the bound {MAX_PRECISION}")
        if args.command == "verify":
            report = run_suite(args.suite, cfg)
        elif args.command == "orbits":
            report = cmd_orbits(args, cfg)
        elif args.command == "classify":
            report = cmd_classify(args, cfg)
        elif args.command == "pdo":
            report = run_suite("pdo", cfg)
        else:
            raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit(report, cfg.fmt))
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
