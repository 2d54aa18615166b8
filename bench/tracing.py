"""Outside-in tracing: spans at the boundaries between coxcert's modules.

`install` replaces public names in the namespace of the module that calls
them (for example `coxcert.davis.min_coset_rep`, not the definition in
`coxcert.coxeter`), so each span marks a crossing from one layer into
another.  Some names are also wrapped inside their own module, because the
work they count is called from there: coxeter's `reduce` and `nerve`,
homology's `ChainComplex` and `rank_and_torsion`, models' `farrell_quotient`
and `poset_mapping_cylinder`, presentations' `find_pi1_certificate` and
`_evaluate`, and the `DavisBall` and `Pi1Certificate` methods.  Nothing under
src/ is edited; `uninstall` puts every original back.

A span records its name, start, end, parent span and job id.  Names called
so often that one span per call would swamp the run (marked hot below) are
aggregated per parent: a call count and a total time.  Spans stay in memory
until the run writes them out.  A span's self time is its duration minus the
time covered by its child spans and aggregates.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "simplicial", "homology", "subdivide", "coxeter", "davis", "models",
          "presentations")


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent key, job]
        self.aggregates: dict[tuple, list] = {}  # key -> [name, parent key, job, calls, total]
        self.counts: Counter = Counter()
        self.stack: list = [None]  # keys: span index, or (parent key, name) for aggregates
        self.job: str | None = None
        self.search_relator: str | None = None

    def reset(self) -> None:
        self.spans = []
        self.aggregates = {}
        self.counts = Counter()
        self.stack[:] = [None]

    def _aggregate(self, key: tuple, name: str, parent, seconds: float) -> None:
        agg = self.aggregates.get(key)
        if agg is None:
            agg = self.aggregates[key] = [name, parent, self.job, 0, 0.0]
        agg[3] += 1
        agg[4] += seconds

    def wrap(self, name: str, fn, before=None, after=None):
        """One span per call.  `after` hooks run outside the span and their
        time is charged to a `trace.bookkeeping` child of the parent."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            rec = [name, 0.0, 0.0, stack[-1], self.job]
            self.spans.append(rec)
            stack.append(len(self.spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                t0 = perf_counter()
                after(self, args, result)
                parent = stack[-1]
                self._aggregate((parent, "trace.bookkeeping"), "trace.bookkeeping", parent,
                                perf_counter() - t0)
            return result

        return traced

    def wrap_hot(self, name: str, fn, after=None):
        """Calls aggregated per parent; `after` must be O(1)."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent, name)
            stack.append(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                self._aggregate(key, name, parent, seconds)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def job_call(self, job: str, fn, *args):
        """Run one job as a `cli.main` span."""
        self.job = job
        try:
            return self.wrap("cli.main", fn)(*args)
        finally:
            self.job = None

    # -- summaries -------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per name: call count, total seconds and self seconds."""
        covered: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        for agg in self.aggregates.values():
            covered[agg[1]] += agg[4]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered[i]
        for key, (name, _, _, n, seconds) in self.aggregates.items():
            calls[name] += n
            total[name] += seconds
            self_s[name] += seconds - covered[key]
        return calls, total, self_s

    def dump(self) -> dict:
        """Spans and aggregates as JSON-ready records."""
        spans = [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]
        aggregates = [
            {"key": key, "name": name, "parent": parent, "job": job, "calls": n, "total": seconds}
            for key, (name, parent, job, n, seconds) in self.aggregates.items()
        ]
        return {"spans": spans, "aggregates": aggregates}


# -- hooks ---------------------------------------------------------------------


def _count_ball(tracer, args, ball):
    tracer.counts["davis.cosets"] += len(ball.cosets)
    for c in ball.cosets:
        if len(c.gens) <= 3:
            tracer.counts[f"davis.cosets.t{len(c.gens)}"] += 1


def _count_words(tracer, args, words):
    tracer.counts["coxeter.ball_words"] += len(words)


def _count_moved(tracer, args, rep):
    # every davis call site passes a normal form, so a changed word moved
    if rep != tuple(args[1]):
        tracer.counts["coxeter.min_coset_rep_moved"] += 1


def _count_hit(tracer, args, inside):
    if inside:
        tracer.counts["coxeter.in_special_subgroup_hits"] += 1


def _count_chains(tracer, args, complex_):
    tracer.counts["davis.chains"] += len(complex_.simplices)


def _count_homology_cells(tracer, args, result):
    tracer.counts["homology.cells"] += len(args[0].simplices)


def _count_snf(tracer, args, result):
    rank, torsion = result
    tracer.counts["homology.boundary_nnz"] += sum(len(col) for col in args[0])
    tracer.counts["homology.rank"] += rank
    tracer.counts["homology.torsion_divisors"] += len(torsion)


def _count_loaded(tracer, args, complex_):
    tracer.counts["simplicial.complex_load_cells"] += len(complex_.simplices)


def _count_farrell(tracer, args, complex_):
    tracer.counts["models.farrell_cells"] += len(complex_.simplices)


def _count_contraction(tracer, args, out):
    tracer.counts["subdivide.contraction_vertices_in"] += len(args[0].vertices)
    tracer.counts["subdivide.contraction_vertices_out"] += len(out.vertices)


def _search_starts(tracer, args):
    tracer.search_relator = args[0].relators[0]


def _search_ends(tracer, args, cert):
    tracer.search_relator = None


def _count_candidate(tracer, args, image):
    # the search evaluates the first relator once per candidate image tuple
    if tracer.search_relator is not None and args[0] == tracer.search_relator:
        tracer.counts["presentations.certificate_candidates"] += 1


SPAN, HOT = "span", "hot"

# (calling module, attribute there, span name, kind, hooks)
WRAPS = [
    ("cli", "complex_from_json", "simplicial.complex_from_json", SPAN, {"after": _count_loaded}),
    ("cli", "complex_to_json", "simplicial.complex_to_json", SPAN, {}),
    *[(m, "square_report", "simplicial.square_report", SPAN, {})
      for m in ("cli", "coxeter", "davis", "models", "presentations", "subdivide")],
    ("cli", "homology", "homology.homology", SPAN, {"after": _count_homology_cells}),
    ("models", "homology", "homology.homology", SPAN, {"after": _count_homology_cells}),
    ("homology", "ChainComplex.__init__", "homology.ChainComplex", SPAN, {}),
    ("homology", "rank_and_torsion", "homology.rank_and_torsion", SPAN, {"after": _count_snf}),
    ("cli", "hyperbolicity", "coxeter.hyperbolicity", SPAN, {}),
    ("models", "hyperbolicity", "coxeter.hyperbolicity", SPAN, {}),
    ("cli", "racg_from_flag", "coxeter.racg_from_flag", SPAN, {}),
    ("models", "racg_from_flag", "coxeter.racg_from_flag", SPAN, {}),
    ("cli", "nerve_of", "coxeter.nerve", SPAN, {}),
    ("coxeter", "nerve", "coxeter.nerve", SPAN, {}),
    ("davis", "nerve", "coxeter.nerve", SPAN, {}),
    ("davis", "ball", "coxeter.ball", SPAN, {"after": _count_words}),
    ("davis", "min_coset_rep", "coxeter.min_coset_rep", HOT, {"after": _count_moved}),
    ("davis", "in_special_subgroup", "coxeter.in_special_subgroup", HOT, {"after": _count_hit}),
    ("davis", "reduce", "coxeter.reduce", HOT, {}),
    ("coxeter", "reduce", "coxeter.reduce", HOT, {}),
    ("cli", "davis_ball", "davis.davis_ball", SPAN, {"after": _count_ball}),
    ("cli", "singular_subcomplex", "davis.singular_subcomplex", SPAN, {"after": _count_chains}),
    ("cli", "hash_union_sharp", "davis.hash_union_sharp", SPAN, {"after": _count_chains}),
    ("davis", "DavisBall.realization_dim", "davis.realization_dim", SPAN, {}),
    ("davis", "DavisBall.singular_dim", "davis.singular_dim", SPAN, {}),
    ("davis", "DavisBall.to_json", "davis.to_json", SPAN, {}),
    ("davis", "DavisBall.leq", "davis.leq", HOT, {}),
    ("cli", "farrell_h3_growth", "models.farrell_h3_growth", SPAN, {}),
    ("cli", "farrell_quotient", "models.farrell_quotient", SPAN, {"after": _count_farrell}),
    ("models", "farrell_quotient", "models.farrell_quotient", SPAN, {"after": _count_farrell}),
    ("models", "poset_mapping_cylinder", "models.poset_mapping_cylinder", SPAN, {}),
    ("cli", "main_theorem_report", "models.main_theorem_report", SPAN, {}),
    ("cli", "spine_complex", "presentations.spine_complex", SPAN, {}),
    ("cli", "spine_certificate", "presentations.spine_certificate", SPAN, {}),
    ("cli", "presentation_complex", "presentations.presentation_complex", SPAN, {}),
    ("presentations", "find_pi1_certificate", "presentations.find_pi1_certificate", SPAN,
     {"before": _search_starts, "after": _search_ends}),
    ("presentations", "_evaluate", "presentations._evaluate", HOT, {"after": _count_candidate}),
    ("presentations", "Pi1Certificate.subgroup_order", "presentations.subgroup_order", SPAN, {}),
    ("presentations", "no_square_subdivision", "subdivide.no_square_subdivision", SPAN, {}),
    ("presentations", "contract_flag_no_squares", "subdivide.contract_flag_no_squares", SPAN,
     {"after": _count_contraction}),
    *[(m, "barycentric_subdivision", "subdivide.barycentric_subdivision", SPAN, {})
      for m in ("cli", "davis", "models")],
]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every name in WRAPS; returns what `uninstall` needs."""
    saved = []
    for module, attr, name, kind, hooks in WRAPS:
        owner = importlib.import_module(f"coxcert.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if kind == HOT:
            wrapped = tracer.wrap_hot(name, original, **hooks)
        else:
            wrapped = tracer.wrap(name, original, **hooks)
        saved.append((owner, leaf, original))
        setattr(owner, leaf, wrapped)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, leaf, original in reversed(saved):
        setattr(owner, leaf, original)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in seconds)."""
    calls, total, self_s = tracer.totals()
    c = tracer.counts
    out = {
        "davis.ball_build_s": self_s["davis.davis_ball"],
        "davis.cosets": c["davis.cosets"],
        **{f"davis.cosets.t{k}": c[f"davis.cosets.t{k}"] for k in range(4)},
        "davis.dims_s": total["davis.realization_dim"] + total["davis.singular_dim"],
        "coxeter.ball_s": total["coxeter.ball"],
        "coxeter.ball_words": c["coxeter.ball_words"],
        "coxeter.min_coset_rep_calls": calls["coxeter.min_coset_rep"],
        "coxeter.min_coset_rep_s": total["coxeter.min_coset_rep"],
        "coxeter.min_coset_rep_moved_ratio": _ratio(c["coxeter.min_coset_rep_moved"],
                                                    calls["coxeter.min_coset_rep"]),
        "coxeter.reduce_calls": calls["coxeter.reduce"],
        "coxeter.reduce_s": total["coxeter.reduce"],
        "davis.singular_extract_s": total["davis.singular_subcomplex"],
        "davis.chains": c["davis.chains"],
        "coxeter.in_special_subgroup_calls": calls["coxeter.in_special_subgroup"],
        "coxeter.in_special_subgroup_s": total["coxeter.in_special_subgroup"],
        "coxeter.in_special_subgroup_hit_ratio": _ratio(c["coxeter.in_special_subgroup_hits"],
                                                        calls["coxeter.in_special_subgroup"]),
        "davis.sharp_union_s": total["davis.hash_union_sharp"],
        "davis.leq_calls": calls["davis.leq"],
        "davis.dump_s": total["davis.to_json"],
        "homology.calls": calls["homology.homology"],
        "homology.chain_build_s": total["homology.ChainComplex"],
        "homology.snf_s": total["homology.rank_and_torsion"],
        "homology.cells": c["homology.cells"],
        "homology.boundary_nnz": c["homology.boundary_nnz"],
        "homology.rank": c["homology.rank"],
        "homology.torsion_divisors": c["homology.torsion_divisors"],
        "models.farrell_quotient_s": total["models.farrell_quotient"],
        "models.mapping_cylinder_s": total["models.poset_mapping_cylinder"],
        "models.mapping_cylinder_calls": calls["models.poset_mapping_cylinder"],
        "models.farrell_cells": c["models.farrell_cells"],
        "models.main_theorem_report_s": total["models.main_theorem_report"],
        "subdivide.no_square_subdivision_s": total["subdivide.no_square_subdivision"],
        "subdivide.contraction_s": total["subdivide.contract_flag_no_squares"],
        "subdivide.contraction_vertices_in": c["subdivide.contraction_vertices_in"],
        "subdivide.contraction_vertices_out": c["subdivide.contraction_vertices_out"],
        "subdivide.barycentric_s": total["subdivide.barycentric_subdivision"],
        "simplicial.square_report_s": total["simplicial.square_report"],
        "simplicial.square_report_calls": calls["simplicial.square_report"],
        "simplicial.complex_load_s": total["simplicial.complex_from_json"],
        "simplicial.complex_load_cells": c["simplicial.complex_load_cells"],
        "coxeter.nerve_calls": calls["coxeter.nerve"],
        "coxeter.nerve_s": total["coxeter.nerve"],
        "coxeter.hyperbolicity_s": total["coxeter.hyperbolicity"],
        "presentations.certificate_search_s": total["presentations.find_pi1_certificate"],
        "presentations.certificate_searches": calls["presentations.find_pi1_certificate"],
        "presentations.certificate_candidates": c["presentations.certificate_candidates"],
        "presentations.subgroup_order_calls": calls["presentations.subgroup_order"],
        "presentations.subgroup_order_s": total["presentations.subgroup_order"],
        "cli.jobs": calls["cli.main"],
    }
    layer_self: Counter = Counter()
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"self.{layer}_s"] = layer_self[layer]
    out["trace.bookkeeping_s"] = total["trace.bookkeeping"]
    return out
