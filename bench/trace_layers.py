"""Spans and counts around the calls into each flagcalc layer.

The program is not changed: ``Tracer.install`` replaces public functions
and methods with timing wrappers from here, in every flagcalc module that
holds a reference to them (``divdiff.divide_by_difference`` as well as
``rings.divide_by_difference``), and ``uninstall`` puts the originals back.

Spans are kept in memory (name, start, end, parent, job) and written out
at the end.  A span's self time is its duration minus the time its child
spans cover, wrappers included, so the cost of tracing itself falls in no
layer; spans nest strictly because the client is single-threaded.
"""

from __future__ import annotations

import gzip
import random
import statistics
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

MODULES = ("flagcalc", "flagcalc.rings", "flagcalc.perms", "flagcalc.fgl",
           "flagcalc.divdiff", "flagcalc.families", "flagcalc.hecke",
           "flagcalc.porteous", "flagcalc.flagring", "flagcalc.cli")

# span name -> (module, qualified names) of the wrapped callables
LAYERS = {
    "rings.mul": ("rings", ["SparsePoly.__mul__", "SparsePoly.__rmul__"]),
    "rings.init": ("rings", ["SparsePoly.__init__"]),
    "rings.add": ("rings", ["SparsePoly.__add__", "SparsePoly.__radd__",
                            "SparsePoly.__sub__", "SparsePoly.__rsub__",
                            "SparsePoly.__neg__"]),
    "rings.substitute": ("rings", ["SparsePoly.substitute"]),
    "rings.divide": ("rings", ["divide_by_difference"]),
    "rings.truncate": ("rings", ["SparsePoly.truncate"]),
    "rings.series_subst": ("rings", ["TruncatedSeries.substitute_into"]),
    "rings.reciprocal": ("rings", ["series_reciprocal"]),
    "rings.render": ("rings", ["SparsePoly.to_text", "SparsePoly.to_latex",
                               "SparsePoly.to_json_obj"]),
    "perms": ("perms", [
        "identity", "longest_element", "transposition", "apply_word",
        "is_minimal", "all_reduced_words", "lex_smallest_reduced_word",
        "all_permutations", "nu_triple", "rank_function",
        "Permutation.length", "Permutation.inverse", "Permutation.compose",
        "Permutation.right_multiply", "Permutation.right_descents",
        "Permutation.embed", "Permutation.one_line",
        "Permutation.from_one_line"]),
    "divdiff.phi": ("divdiff", ["OperatorContext.phi_beta",
                                "OperatorContext.partial",
                                "OperatorContext.pi_op",
                                "OperatorContext.phi_param"]),
    "divdiff.A": ("divdiff", ["OperatorContext.A_op"]),
    "fgl.sum_series": ("fgl", ["FormalGroupLaw.sum_series"]),
    "fgl.inverse_series": ("fgl", ["FormalGroupLaw.inverse_series"]),
    "fgl.build": ("fgl", ["make_additive", "make_multiplicative",
                          "make_universal_rational"]),
    "families.beta_poly": ("families", ["beta_poly"]),
    "families.h_top": ("families", ["h_top"]),
    "families.bott_samelson": ("families", ["bott_samelson_class",
                                            "bott_samelson_initial"]),
    "families.specialize": ("families", ["double_schubert",
                                         "double_grothendieck",
                                         "beta_poly_via_word"]),
    "hecke.mul": ("hecke", ["HeckeElement.__mul__"]),
    "hecke.gen": ("hecke", ["HeckeElement.mul_by_generator"]),
    "hecke.scale": ("hecke", ["HeckeElement.scale"]),
    "porteous.specialize": ("porteous", ["specialize_nu"]),
    "porteous.to_elementary": ("porteous", ["to_elementary"]),
    "porteous.from_elementary": ("porteous", ["from_elementary"]),
    "porteous.symmetry": ("porteous", ["check_rect_symmetry"]),
    "flagring.reduce": ("flagring", ["FlagRingPresentation.reduce"]),
    "cli.parse": ("cli", ["parse_poly"]),
}

FAMILY_CALLS = ("families.beta_poly", "families.bott_samelson",
                "families.specialize")
MUL_SAMPLE = 32   # operand pairs kept for the sympy reference row


class Tracer:
    def __init__(self, seed: int):
        self.job = -1
        self.names: list = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack: list = []          # [span index, ns covered by children]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_terms = 0
        self.a_seen: set = set()
        self.family_depth = 0
        self.family_ops = 0
        self._family_entry = 0
        self.mul_sample: list = []
        self.mul_rng = random.Random(seed)
        self._saved: list = []

    # -- hooks: counts taken where the work happens ---------------------------

    def _hooks(self, name: str):
        counts = self.counts
        if name == "rings.mul":
            def after(args, out):
                if out is None or out is NotImplemented:
                    return
                a, b = args[0], args[1]
                if hasattr(b, "terms"):
                    counts["mul.term_pairs"] += len(a.terms) * len(b.terms)
                    self._sample_pair(a, b)
                else:
                    counts["mul.term_pairs"] += len(a.terms)
                counts["mul.out_terms"] += len(out.terms)
            return None, after
        if name == "rings.init":
            def after(args, out):
                size = len(getattr(args[0], "terms", ()))
                if size > self.peak_terms:
                    self.peak_terms = size
            return None, after
        if name == "rings.truncate":
            def after(args, out):
                if out is None:
                    return
                counts["truncate.in"] += len(args[0].terms)
                counts["truncate.kept"] += len(out.terms)
            return None, after
        if name == "divdiff.phi":
            def before(args):
                counts["phi.in_terms"] += len(args[2].terms)
                self.family_ops += 1
            return before, None
        if name == "divdiff.A":
            def before(args):
                ctx, i = args[0], args[1]
                key = (ctx.fgl.F, i, ctx.D)
                if key in self.a_seen:
                    counts["A.repeats"] += 1
                self.a_seen.add(key)
                self.family_ops += 1
            return before, None
        if name == "flagring.reduce":
            def after(args, out):
                if out is None:
                    return
                counts["reduce.in_terms"] += len(args[1].terms)
                counts["reduce.out_terms"] += len(out.terms)
            return None, after
        if name in FAMILY_CALLS:
            # a family call is a memo hit when no operator ran inside it
            def before(args):
                if self.family_depth == 0:
                    self._family_entry = self.family_ops
                self.family_depth += 1

            def after(args, out):
                self.family_depth -= 1
                if self.family_depth == 0:
                    counts["family.calls"] += 1
                    if self.family_ops == self._family_entry:
                        counts["family.memo_hits"] += 1
            return before, after
        return None, None

    def _sample_pair(self, a, b):
        """Reservoir sample of multiply operand pairs (seeded, so exact)."""
        counts = self.counts
        counts["mul.sampled_from"] += 1
        seen = counts["mul.sampled_from"]
        if len(self.mul_sample) < MUL_SAMPLE:
            self.mul_sample.append((a, b))
        else:
            k = self.mul_rng.randrange(seen)
            if k < MUL_SAMPLE:
                self.mul_sample[k] = (a, b)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        before, after = self._hooks(name)
        clock = time.perf_counter_ns
        stack = self.stack
        calls, self_ns = self.calls, self.self_ns
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            if before is not None:
                before(args)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_job.append(tracer.job)
            s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            out = None
            start = clock()
            s_start.append(start)
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                s_end[idx] = end
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
                if after is not None:
                    after(args, out)
                if stack:
                    # the parent's self time excludes this call and its
                    # bookkeeping, which counts as tracing overhead
                    stack[-1][1] += clock() - enter

        return wrapper

    def install(self):
        modules = [sys.modules[m] for m in MODULES]
        for name, (short, targets) in LAYERS.items():
            module = sys.modules[f"flagcalc.{short}"]
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._saved.append((cls, attr, raw))
                    setattr(cls, attr, new)
                else:
                    fn = getattr(module, target)
                    new = self._wrap(name, fn)
                    # patch the name wherever it is looked up
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._saved.append((mod, key, fn))
                                setattr(mod, key, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- output -------------------------------------------------------------------

    def write_spans(self, path: str):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,job\n")
            names = self.names
            for k in range(len(self.span_start)):
                fh.write(f"{k},{names[self.span_name[k]]},{self.span_start[k]},"
                         f"{self.span_end[k]},{self.span_parent[k]},"
                         f"{self.span_job[k]}\n")

    def aggregate(self) -> dict:
        """Per-layer calls, self seconds and counts for this pass."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        c = self.counts
        out["rings.mul.term_pairs"] = c["mul.term_pairs"]
        out["rings.mul.out_terms"] = c["mul.out_terms"]
        out["rings.peak_terms"] = self.peak_terms
        out["rings.truncate.kept_frac"] = (
            c["truncate.kept"] / c["truncate.in"] if c["truncate.in"] else 1.0)
        out["divdiff.phi.in_terms"] = c["phi.in_terms"]
        a_calls = self.calls["divdiff.A"]
        out["divdiff.A.repeat_frac"] = c["A.repeats"] / a_calls if a_calls else 0.0
        out["families.memo_hit_frac"] = (
            c["family.memo_hits"] / c["family.calls"] if c["family.calls"]
            else 0.0)
        out["flagring.reduce.in_terms"] = c["reduce.in_terms"]
        out["flagring.reduce.out_terms"] = c["reduce.out_terms"]
        out["trace.spans"] = len(self.span_start)
        return out

    # -- sympy reference row ----------------------------------------------------

    def replay_mul_sample(self) -> dict:
        """Multiply the sampled operand pairs again, untraced, with
        flagcalc and with sympy's PolyRing, and compare term for term."""
        from sympy import QQ, ZZ
        from sympy.polys.rings import ring as sympy_ring

        pairs = self.mul_sample
        if not pairs:
            return {"pairs": 0, "flagcalc_s": 0.0, "sympy_s": 0.0,
                    "mismatches": 0, "term_pairs": 0}
        names = sorted({v for pair in pairs for p in pair
                        for mono in p.terms for v, _ in mono}) or ["x"]
        rational = any(isinstance(c, Fraction) for pair in pairs
                       for p in pair for c in p.terms.values())
        domain = QQ if rational else ZZ
        R = sympy_ring(names, domain)[0]
        slot = {v: k for k, v in enumerate(names)}

        def convert(p):
            terms = {}
            for mono, c in p.terms.items():
                exps = [0] * len(names)
                for v, e in mono:
                    exps[slot[v]] = e
                if isinstance(c, Fraction):
                    c = QQ(c.numerator, c.denominator)
                terms[tuple(exps)] = domain.convert(c)
            return R.from_dict(terms)

        theirs = [(convert(a), convert(b)) for a, b in pairs]
        mul = type(pairs[0][0]).__mul__

        def timed(fn, operands):
            t = time.perf_counter()
            products = [fn(a, b) for a, b in operands]
            return time.perf_counter() - t, products

        ours_s, theirs_s = [], []
        for _ in range(3):
            dt, our_products = timed(mul, pairs)
            ours_s.append(dt)
            dt, their_products = timed(lambda a, b: a * b, theirs)
            theirs_s.append(dt)
        mismatches = sum(1 for p, q in zip(our_products, their_products)
                         if convert(p) != q)
        return {"pairs": len(pairs),
                "term_pairs": sum(len(a.terms) * len(b.terms)
                                  for a, b in pairs),
                "flagcalc_s": statistics.median(ours_s),
                "sympy_s": statistics.median(theirs_s),
                "mismatches": mismatches}
