"""Spans and counts at the public entry points of the orefields modules.

`Tracer.install()` wraps those entry points in place, from outside the
program.  Every wrapped call increments a deterministic count.  A call
also opens a span (name, start, end, parent) when it crosses into another
layer, or when its entry point is pinned; calls inside the same layer
(FieldElem.__pow__ calling __mul__, say) are counted without a span,
which leaves each layer's self time unchanged.  Spans live in flat arrays
in memory and are written out by `dump` after the traced pass; `metrics`
derives self time as a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, class or None, attribute, count name); the layer is the part of
# the count name before the first dot
ENTRY_POINTS = [
    *[("fields", "FieldElem", a, "fields.add") for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
    *[("fields", "FieldElem", a, "fields.mul") for a in ("__mul__", "__rmul__")],
    *[("fields", "FieldElem", a, "fields.inv") for a in ("__truediv__", "__rtruediv__", "inverse")],
    ("fields", "FieldElem", "__neg__", "fields.neg"),
    ("fields", "FieldElem", "__pow__", "fields.pow"),
    *[("fields", None, f, "fields." + f) for f in (
        "in_prime_subfield", "frobenius", "norm_to_prime", "arith", "make_field",
        "QQ", "GF", "Qsqrt", "with_parameter")],
    *[("ratfunc", "RatFunc2", a, "ratfunc.add") for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
    *[("ratfunc", "RatFunc2", a, "ratfunc.mul") for a in ("__mul__", "__rmul__")],
    *[("ratfunc", "RatFunc2", a, "ratfunc.div") for a in ("__truediv__", "__rtruediv__", "inverse")],
    ("ratfunc", "RatFunc2", "__neg__", "ratfunc.neg"),
    ("ratfunc", "RatFunc2", "__pow__", "ratfunc.pow"),
    ("ratfunc", "RatFunc2", "partial", "ratfunc.partial"),
    ("ratfunc", "RatFunc2", "subst_powers", "ratfunc.subst_powers"),
    ("ratfunc", "RatFunc2", "to_context", "ratfunc.to_context"),
    ("ratfunc", "Derivation", "__call__", "ratfunc.derivation"),
    ("ratfunc", "Derivation", "iterate", "ratfunc.iterate"),
    ("ratfunc", "Derivation", "negate", "ratfunc.negate"),
    *[("ratfunc", None, f, "ratfunc." + f) for f in (
        "scaling_derivation", "derivation_apply", "log_derivative", "in_frobenius_subfield")],
    *[("skewpoly", "SkewPoly", a, "skewpoly.add") for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
    *[("skewpoly", "SkewPoly", a, "skewpoly.mul") for a in ("__mul__", "__rmul__")],
    ("skewpoly", "SkewPoly", "__neg__", "skewpoly.neg"),
    ("skewpoly", "SkewPoly", "__pow__", "skewpoly.pow"),
    *[("skewpoly", None, f, "skewpoly." + f) for f in (
        "skew_mul", "skew_pow", "commutator", "valuation_v", "is_central_against",
        "subst_x_shift")],
    *[("pdo", "PdoSeries", a, "pdo.add") for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
    *[("pdo", "PdoSeries", a, "pdo.mul") for a in ("__mul__", "__rmul__")],
    ("pdo", "PdoSeries", "__neg__", "pdo.neg"),
    ("pdo", "PdoSeries", "__pow__", "pdo.pow"),
    ("pdo", "PdoSeries", "approx_eq", "pdo.approx_eq"),
    ("pdo", None, "pdo_inv", "pdo.inv"),
    *[("pdo", None, f, "pdo." + f) for f in (
        "pdo_mul", "pdo_valuation", "pdo_from_skew", "leading_constraint_check")],
    *[("presentations", None, f, "presentations." + f) for f in (
        "algebra_make", "claimed_center", "central_element_c", "const_coeff",
        "translation_invariant_t", "weyl_triple", "monomial_morphism",
        "frobenius_embedding", "centralizer_pair_check", "gk_classify")],
    *[("presentations", "Presentation", a, "presentations." + a) for a in ("embed", "coeff_monomial")],
    *[("presentations", "Morphism", a, "presentations." + a) for a in (
        "apply", "compose", "verify_relations")],
    ("orbits", None, "cf_expand", "orbits.cf_expand"),
    ("orbits", None, "finite_orbits", "orbits.finite_orbits"),
    ("orbits", None, "gl2z_equivalent", "orbits.equiv"),
    ("orbits", None, "valued_iso_classify", "orbits.classify"),
    *[("orbits", None, f, "orbits." + f) for f in (
        "transitivity_report", "tail_equivalent", "fundamental_domain_reduce",
        "brute_force_witness", "homographic")],
    *[("literals", None, f, "literals." + f) for f in (
        "parse_field_literal", "parse_matrix", "parse_expression", "parse_ratfunc",
        "parse_skew")],
    ("cli", None, "main", "cli.main"),
]

# entry points that always open a span, so that series products inside an
# inversion and nested inversions stay visible
PINNED = {"pdo.mul", "pdo.inv"}

LAYERS = ("cli", "literals", "presentations", "orbits", "pdo", "skewpoly", "ratfunc", "fields")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]           # open spans, innermost last
        self.layers = [""]          # layer of each open span
        self.max_terms = 0          # largest num + den term count of a RatFunc2 result
        self.const_muls = 0         # RatFunc2 products with a constant operand
        self.scalar_muls = 0        # SkewPoly products with an x-degree-0 operand
        self.inv_coeffs = 0         # series coefficients produced by pdo_inv
        self.missing: list[str] = []  # entry points absent from the program

    # -- hooks measured where the work happens ------------------------------
    def _ratfunc_result(self, args, result):
        num = getattr(result, "num", None)
        if num is not None and getattr(result, "den", None) is not None:
            n = len(num) + len(result.den)
            if n > self.max_terms:
                self.max_terms = n

    def _ratfunc_mul(self, args):
        a, b = args
        if (not hasattr(b, "num") or a.is_constant() or b.is_constant()):
            self.const_muls += 1

    def _skew_mul(self, args):
        if any(not hasattr(p, "coeffs") or not (p.coeffs.keys() - {0}) for p in args):
            self.scalar_muls += 1

    def _inv_result(self, args, result):
        if result.terms:
            self.inv_coeffs += result.prec - min(result.terms) + 1

    def _hooks(self, key):
        before = after = None
        if key.startswith("ratfunc."):
            after = self._ratfunc_result
        if key == "ratfunc.mul":
            before = self._ratfunc_mul
        elif key == "skewpoly.mul":
            before = self._skew_mul
        elif key == "pdo.inv":
            after = self._inv_result
        return before, after

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, key):
        layer = key.split(".", 1)[0]
        pinned = key in PINNED
        if key not in self.counts:
            self.counts[key] = 0
            self.names.append(key)
        nid = self.names.index(key)
        before, after = self._hooks(key)
        counts, stack, layers = self.counts, self.stack, self.layers
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(args)
            if layers[-1] == layer and not pinned:
                result = fn(*args, **kwargs)
            else:
                idx = len(s_name)
                s_name.append(nid)
                s_parent.append(stack[-1])
                s_start.append(0.0)
                s_end.append(0.0)
                stack.append(idx)
                layers.append(layer)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    s_end[idx] = clock()
                    s_start[idx] = t0
                    stack.pop()
                    layers.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Wrap every entry point of the imported orefields modules.  Module
        functions are also replaced wherever another module imported them
        by name.  Entry points the program no longer has are listed in
        `missing` and count 0."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "orefields" or name.startswith("orefields.")}
        replaced = {}
        for mod_name, owner, attr, key in ENTRY_POINTS:
            mod = modules.get(f"orefields.{mod_name}")
            holder = mod if owner is None else getattr(mod, owner, None)
            fn = vars(holder).get(attr) if holder is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{owner + '.' if owner else ''}{attr}")
            elif owner is None:
                replaced[id(fn)] = (fn, self.wrap(fn, key))
            else:
                setattr(holder, attr, self.wrap(fn, key))
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])

    # -- results -------------------------------------------------------------
    def dump(self, path):
        """Write the spans: one JSON header line, then the name, parent,
        start and end arrays in machine byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def metrics(self):
        """Per-layer counts and times of the recorded pass."""
        names = self.names
        layer_of = [LAYERS.index(n.split(".", 1)[0]) for n in names]
        inv_id = names.index("pdo.inv") if "pdo.inv" in names else -1
        mul_id = names.index("pdo.mul") if "pdo.mul" in names else -1
        n = len(self.span_name)
        cover = [0.0] * n
        mask = [0] * n              # layers of the span's ancestors, as bits
        in_inv = [False] * n        # the span has a pdo.inv ancestor
        self_s = [0.0] * len(LAYERS)
        inclusive = [0.0] * len(LAYERS)
        inv_total = 0.0
        inv_muls = 0
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        # parents precede their children, so one forward pass sets the
        # ancestor data and one backward pass collects the child cover
        for i in range(n):
            p = s_parent[i]
            if p >= 0:
                mask[i] = mask[p] | (1 << layer_of[s_name[p]])
                in_inv[i] = in_inv[p] or s_name[p] == inv_id
        for i in range(n - 1, -1, -1):
            dur = s_end[i] - s_start[i]
            p = s_parent[i]
            if p >= 0:
                cover[p] += dur
            nid = s_name[i]
            lay = layer_of[nid]
            self_s[lay] += dur - cover[i]
            if not mask[i] >> lay & 1:
                inclusive[lay] += dur
            if nid == inv_id and not in_inv[i]:
                inv_total += dur
            elif nid == mul_id and in_inv[i]:
                inv_muls += 1
        c = Counter(self.counts)    # entry points never called read 0
        pres_calls = sum(v for k, v in c.items() if k.startswith("presentations."))
        out = {
            "pdo.inv.total_s": (inv_total, "s"),
            "pdo.inv.calls": (c["pdo.inv"], "count"),
            "pdo.mul.calls": (c["pdo.mul"], "count"),
            "pdo.self_s": (self_s[LAYERS.index("pdo")], "s"),
            "pdo.inv.mul_per_coeff": (inv_muls / self.inv_coeffs if self.inv_coeffs else 0.0,
                                      "ratio"),
            "ratfunc.derivation.calls": (c["ratfunc.derivation"], "count"),
            "ratfunc.partial.calls": (c["ratfunc.partial"], "count"),
            "fields.mul.calls": (c["fields.mul"], "count"),
            "fields.add.calls": (c["fields.add"], "count"),
            "fields.inv.calls": (c["fields.inv"], "count"),
            "fields.self_s": (self_s[LAYERS.index("fields")], "s"),
            "ratfunc.mul.calls": (c["ratfunc.mul"], "count"),
            "ratfunc.add.calls": (c["ratfunc.add"], "count"),
            "ratfunc.div.calls": (c["ratfunc.div"], "count"),
            "ratfunc.self_s": (self_s[LAYERS.index("ratfunc")], "s"),
            "ratfunc.mul.const_ratio": (self.const_muls / c["ratfunc.mul"] if c["ratfunc.mul"] else 0.0,
                                        "ratio"),
            "skewpoly.mul.calls": (c["skewpoly.mul"], "count"),
            "skewpoly.pow.calls": (c["skewpoly.pow"], "count"),
            "skewpoly.self_s": (self_s[LAYERS.index("skewpoly")], "s"),
            "skewpoly.mul.scalar_ratio": (self.scalar_muls / c["skewpoly.mul"] if c["skewpoly.mul"] else 0.0,
                                          "ratio"),
            "presentations.calls": (pres_calls, "count"),
            "presentations.self_s": (self_s[LAYERS.index("presentations")], "s"),
            "orbits.cf_expand.calls": (c["orbits.cf_expand"], "count"),
            "orbits.finite_orbits.calls": (c["orbits.finite_orbits"], "count"),
            "orbits.equiv.calls": (c["orbits.equiv"], "count"),
            "orbits.classify.calls": (c["orbits.classify"], "count"),
            "orbits.self_s": (self_s[LAYERS.index("orbits")], "s"),
            "literals.self_s": (self_s[LAYERS.index("literals")], "s"),
            "cli.self_s": (self_s[LAYERS.index("cli")], "s"),
            "ratfunc.max_terms": (self.max_terms, "count"),
        }
        return {"metrics": out, "counts": dict(self.counts), "spans": n,
                "missing": self.missing,
                "inclusive_s": dict(zip(LAYERS, inclusive))}
