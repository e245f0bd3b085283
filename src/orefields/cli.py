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
from dataclasses import dataclass, field as dc_field, fields as dc_fields

from . import __version__, fields, orbits, presentations
from .fields import FieldElem, GF, QQ
from .literals import parse_field_literal, parse_matrix
from .pdo import PdoSeries, leading_constraint_check, pdo_from_skew, pdo_inv
from .skewpoly import commutator


@dataclass
class Check:
    name: str
    claim: str
    status: str               # pass | fail | out-of-scope | open-question
    witness: str | None = None
    runtime_ms: float | None = None


@dataclass
class Report:
    suite: str
    case: dict
    checks: list = dc_field(default_factory=list)

    def run(self, name, claim, fn, witness=None):
        """Execute fn; a truthy result is a pass, falsy or raising is a fail.
        Returns fn's result on a pass, else None."""
        start = time.perf_counter()
        note = witness
        result = None
        try:
            result = fn()
            status = "pass" if result or result is None else "fail"
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

@dataclass
class Config:
    char: int = 0
    alpha: str | None = None
    beta: str | None = None
    matrix: str = "1,1,0,1"
    ell: int = 3
    ext: int = 2
    group: str = "sl"
    precision: int = 8
    seed: int = 0
    fmt: str = "json"

    def alpha_elem(self) -> FieldElem | None:
        if self.alpha is None:
            return None
        return parse_field_literal(self.alpha, self.char)

    def beta_elem(self) -> FieldElem | None:
        if self.beta is None:
            return None
        return parse_field_literal(self.beta, self.char)

    def case_dict(self) -> dict:
        return {
            "char": self.char,
            "alpha": self.alpha,
            "beta": self.beta,
            "matrix": self.matrix,
            "precision": self.precision,
            "seed": self.seed,
        }


def _g_case(cfg: Config):
    alpha = cfg.alpha_elem()
    if alpha is None:
        return None
    return presentations.CaseSpec("g", alpha.field, alpha)


def _q_case(cfg: Config):
    field = QQ() if cfg.char == 0 else GF(cfg.char)
    return presentations.CaseSpec("q", field)


# ---------------------------------------------------------------------------
# suites

# The largest characteristic l at which the suites that build x^l and
# x^(l^2) (presentations, centers and, given --alpha, morphisms, for
# its Frobenius embedding) run.  Their cost grows about as l^3, from the K(a) elements
# of degree l^2 in a under --alpha param, the slowest case: `verify all
# --alpha param` took 1.3 s at l = 101, 3.6 s at l = 151, 7.4 s at
# l = 199 and 16.7 s at l = 251 (one run each, Python 3.11, a 2-vCPU VM;
# --alpha rat:2 took 0.6, 1.1, 2.6 and 3.6 s).  151 keeps those suites
# within a few seconds; above it they exit 2 instead of running for
# minutes (or, at l near 10^9, for ever).
MAX_SKEW_CHAR = 151


def _check_skew_char(cfg: Config):
    """Refuse a characteristic above MAX_SKEW_CHAR, for a suite about to
    build x^l and x^(l^2)."""
    if cfg.char > MAX_SKEW_CHAR:
        raise ValueError(f"characteristic {cfg.char} exceeds the bound {MAX_SKEW_CHAR} "
                         "of the suites that build x^l and x^(l^2)")


def suite_presentations(cfg: Config, report: Report):
    _check_skew_char(cfg)
    # a Presentation verifies its brackets when it is constructed
    gcase = _g_case(cfg)
    pres = None
    if gcase is not None:
        pres = report.run("g-brackets",
                          "generators satisfy [x,y]=y, [x,z]=alpha z, [y,z]=0",
                          lambda: presentations.algebra_make(gcase))
    if pres is not None:
        x, y, z = pres.gens
        for i in range(1, 7):
            xi = x ** i
            report.run(f"shift-identity-y-{i}",
                       f"x^{i} y = y (x+1)^{i}",
                       lambda xi=xi, i=i: xi * y == y * (x + 1) ** i)
            ac = pres.embed(pres.ctx.const(gcase.alpha))
            report.run(f"shift-identity-z-{i}",
                       f"x^{i} z = z (x+alpha)^{i}",
                       lambda xi=xi, i=i, ac=ac: xi * z == z * (x + ac) ** i)
        if cfg.char:
            ell = cfg.char
            al = gcase.alpha
            t1 = x ** ell - x
            ta = x ** ell - x * pres.ctx.const(al ** (ell - 1))
            report.run("invariant-commutes-y", f"(x^{ell}-x) y = y (x^{ell}-x)",
                       lambda: commutator(t1, y).is_zero())
            report.run("invariant-commutes-z",
                       f"(x^{ell}-alpha^{ell - 1}x) z = z (x^{ell}-alpha^{ell - 1}x)",
                       lambda: commutator(ta, z).is_zero())
    qcase = _q_case(cfg)
    report.run("q-brackets",
               "generators satisfy [x,y]=y, [x,z]=y+z, [y,z]=0",
               lambda: presentations.algebra_make(qcase))
    presqt = report.run("q-t-bracket", "in (y,t) coordinates [x,t]=1",
                        lambda: presentations.algebra_make(qcase, coords="yt"))
    if presqt is not None and cfg.char:
        ell = cfg.char
        xq, tq = presqt.x, presqt.z
        report.run("q-invariant-shift", f"(x^{ell}-x) t = t (x^{ell}-x) - 1",
                   lambda: (xq ** ell - xq) * tq == tq * (xq ** ell - xq) - 1)


def suite_centers(cfg: Config, report: Report):
    _check_skew_char(cfg)
    for case in filter(None, (_g_case(cfg), _q_case(cfg))):
        label = case.algebra
        try:
            center = presentations.claimed_center(case)
        except (ValueError, ArithmeticError) as exc:
            report.record(f"{label}-center", "center generators commute with x, y, z",
                          "fail", str(exc))
            continue
        names = ", ".join(lbl for lbl, _ in center.generators) or "(constants only)"
        report.run(f"{label}-center",
                   f"claimed center generators all central: {names}",
                   lambda center=center: center.all_central)
        try:
            verdict = presentations.gk_classify(case)
        except (ValueError, ArithmeticError) as exc:
            report.record(f"{label}-weyl-classification",
                          "Weyl presentation and center classified", "fail", str(exc))
            continue
        report.run(f"{label}-weyl-classification",
                   f"Weyl presentation exists: {verdict.weyl_equivalent}; "
                   f"center {verdict.center_description}",
                   lambda verdict=verdict: verdict.weyl_equivalent == (verdict.weyl is not None))
        if verdict.dimension_over_center:
            report.record(
                f"{label}-dimension-over-center",
                f"dimension {verdict.dimension_over_center} over the center: "
                "recorded, not recomputed",
                "out-of-scope")
        if verdict.weyl is not None:
            report.run(f"{label}-weyl-pair",
                       "[P,Q]=1 and the listed central elements commute with both",
                       lambda verdict=verdict: presentations.check_weyl(verdict.weyl))
        if case.algebra == "g" and cfg.char and case.classification == "charl-generic":
            ell = cfg.char
            report.run("central-element-forms",
                       "both closed forms of the degree-l^2 central element agree "
                       "and it is central",
                       lambda case=case: presentations.central_element_c(
                           ell, case.alpha) is not None)
            report.run("shift-invariant",
                       "x^l - gamma^(l-1) x is the product of the shifted copies "
                       "of x and is shift-invariant",
                       lambda case=case: presentations.translation_invariant_t(
                           case.alpha, ell) is not None)
            report.run("centralizer-pair",
                       "all nine cross-commutators vanish, both inner witnesses nonzero",
                       lambda case=case: presentations.centralizer_pair_check(case).ok)
        if case.algebra == "q" and cfg.char:
            report.run("q-centralizer-pair",
                       "all nine cross-commutators vanish, both inner witnesses nonzero",
                       lambda case=case: presentations.centralizer_pair_check(case).ok)
        if case.algebra == "g" and cfg.char and case.classification == "charl-generic":
            report.record(
                "brauer-class-order",
                "order of the skewfield class in the Brauer group of the center: "
                "recorded, not recomputed",
                "out-of-scope")


def suite_morphisms(cfg: Config, report: Report):
    alpha = cfg.alpha_elem()
    if alpha is None:
        report.record("monomial-morphism", "no --alpha given", "out-of-scope")
        return
    _check_skew_char(cfg)
    M = parse_matrix(cfg.matrix)
    report.run("monomial-morphism",
               f"matrix {M} induces an embedding preserving all three brackets",
               lambda: presentations.monomial_morphism(M, alpha) is not None,
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
            composite = phi1.compose(phi2)
            # unguarded: once phi1 and phi2 exist, the denominator
            # (m2*beta + r2)(m1*alpha + r1) of the direct morphism is nonzero
            direct = presentations.monomial_morphism(M2 * M1, alpha)
            if (composite.x_img != direct.x_img or composite.y_img != direct.y_img
                    or composite.z_img != direct.z_img):
                return False
        return True
    report.run("composition-convention",
               "composing monomial substitutions matches the matrix product",
               composition_holds)
    if cfg.char:
        if fields.in_prime_subfield(alpha):
            report.record("frobenius-embedding",
                          "no x^l-combination embedding exists for a parameter "
                          "in the prime subfield",
                          "out-of-scope")
        else:
            beta = cfg.beta_elem() or alpha
            report.run("frobenius-embedding",
                       "the x^l-combination embedding preserves all three brackets",
                       lambda: presentations.frobenius_embedding(
                           alpha, beta, cfg.char) is not None)


def suite_pdo(cfg: Config, report: Report):
    alpha = cfg.alpha_elem()
    if alpha is None:
        alpha = QQ().coerce(2) if cfg.char == 0 else GF(cfg.char).coerce(1)
    case = presentations.CaseSpec("g", alpha.field, alpha)
    pres = presentations.algebra_make(case)
    N = cfg.precision
    x, y, z = pres.gens
    report.run("relation-image",
               "the defining relation xy - yx - y maps to 0 in the series field",
               lambda: pdo_from_skew(x * y - y * x - y, N).is_zero_mod_prec())
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
    claim = ("the lowest-order data of the embedded generators satisfies "
             "c1 = D(y0)/y0 and beta c1 = D(z0)/z0, with the full "
             "commutation identities to precision")
    try:
        phi = presentations.monomial_morphism(M, alpha)
        Xinv = pdo_inv(pdo_from_skew(phi.x_img, N))
        Y = pdo_from_skew(phi.y_img, N)
        Z = pdo_from_skew(phi.z_img, N)
        lc = leading_constraint_check(Xinv, Y, Z, phi.beta, pres.D)
        report.run("leading-constraint", claim, lambda: lc.ok, witness=f"c1={lc.c1}")
    except (ValueError, ZeroDivisionError) as exc:
        report.record("leading-constraint", str(exc), "out-of-scope")
    except ArithmeticError as exc:
        # exact arithmetic that refutes itself (an inexact division, say)
        report.record("leading-constraint", claim, "fail", witness=str(exc))


def suite_orbits(cfg: Config, report: Report):
    trep = orbits.transitivity_report(cfg.ell)
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
    report = Report(name, cfg.case_dict())
    if name == "all":
        for suite in SUITES.values():
            suite(cfg, report)
    elif name in SUITES:
        SUITES[name](cfg, report)
    else:
        raise ValueError(f"unknown suite {name!r}")
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
        q = orbits.QuadIrr.from_field_elem(alpha)
        cf = orbits.cf_expand(q)
        report.record("expansion", f"{q} = {cf}", "pass",
                      witness=str(cf))
    elif args.orbits_cmd == "equiv":
        alpha, beta = cfg.alpha_elem(), cfg.beta_elem()
        verdict = orbits.gl2z_equivalent(alpha, beta)
        report.record("equivalence",
                      f"equivalent: {verdict.equivalent} ({verdict.detail})",
                      "pass",
                      witness=str(verdict.witness) if verdict.witness else None)
    return report


def _parse_case(text: str, char: int) -> presentations.CaseSpec:
    if text == "q":
        field = QQ() if char == 0 else GF(char)
        return presentations.CaseSpec("q", field)
    if text.startswith("g:"):
        alpha = parse_field_literal(text[2:], char)
        return presentations.CaseSpec("g", alpha.field, alpha)
    raise ValueError(f"case literal must be 'q' or 'g:<alpha literal>', got {text!r}")


def cmd_classify(args, cfg: Config) -> Report:
    report = Report("classify", cfg.case_dict())
    caseA = _parse_case(args.caseA, cfg.char)
    caseB = _parse_case(args.caseB, cfg.char)
    verdict = orbits.valued_iso_classify(caseA, caseB)
    status = "open-question" if verdict.verdict == "unknown-open" else "pass"
    witness = None
    if verdict.witness is not None:
        matrix = getattr(verdict.witness, "matrix", verdict.witness)
        witness = str(matrix)
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
    cfg = Config(**{f.name: getattr(args, f.name) for f in dc_fields(Config)})
    try:
        if cfg.precision < 1:
            raise ValueError(f"--precision must be at least 1, got {cfg.precision}")
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
