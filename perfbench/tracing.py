"""Span tracer that times afsterm's layers from outside the program.

`Tracer.install()` replaces each layer function by a timing wrapper in every
module namespace that calls it (a module that did `from .graph import prune`
looks `prune` up in its own namespace, so that is where the wrapper goes).
Spans are kept in memory as `[layer, start, end, parent, work]` and written
out when the pass ends; `work` is a count taken from the function's result,
such as the number of templates `candidate_templates` returned.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (namespace module, attribute): where callers look each layer function up.
WRAP = [
    ("parser", "parse_afs"),
    # parse_afs imports these from `afs` at call time
    ("afs", "validate_rule"), ("afs", "classify"),
    ("engine", "prove"), ("engine", "verify_proof"),
    ("engine", "complete"), ("engine", "classify"),
    ("engine", "dependency_pairs"),
    ("engine", "approximate_graph"), ("engine", "sccs"), ("engine", "prune"),
    ("engine", "build_constraints"), ("engine", "subterm_criterion"),
    ("engine", "search_poly"), ("engine", "search_rpo"),
    ("engine", "check_certificate"),
    ("prooftext", "render_proof"), ("prooftext", "check_proof_text"),
    ("prooftext", "verify_proof"), ("prooftext", "complete"),
    ("prooftext", "classify"), ("prooftext", "dependency_pairs"),
    ("prooftext", "build_constraints"),
    ("orderings.constraints", "formative_rules"),
    ("orderings.constraints", "usable_rules"),
    ("orderings.constraints", "build_rplus"),
    ("orderings.poly_search", "candidate_templates"),
    ("orderings.poly_search", "compare_terms"),
    ("orderings.poly_search", "nf_geq"),
    ("orderings.poly", "nf_geq"),
    ("orderings.certcheck", "compare_terms"),
    ("orderings.certcheck", "nf_geq"),
    ("orderings.certcheck", "check_projection"),
    ("orderings.certcheck", "check_argfun_rpo"),
    ("orderings.rpo", "orient"),
    ("orderings.rpo", "rpo_greater"), ("orderings.rpo", "rpo_geq"),
]

# Work counts read from a layer function's result.
WORK = {
    "orderings.poly_search.search_poly": lambda r: r is not None,
    "orderings.poly_search.candidate_templates": len,
    "orderings.poly.nf_geq": bool,
    "orderings.subterm.subterm_criterion": lambda r: r is not None,
    "orderings.rpo.search_rpo": lambda r: r is not None,
    "graph.approximate_graph": lambda g: g.edge_count(),
    "dp.dependency_pairs": lambda p: len(p.pairs),
}

# Layers that have a `.self_s` metric for the whole module. `orderings.rpo`
# has none: no workload reaches it, so its time would read 0 on every run.
MODULES = [
    "afs", "selection", "engine", "orderings.constraints",
    "orderings.poly_search", "orderings.subterm", "orderings.certcheck",
]


def layer_name(fn) -> str:
    return f"{fn.__module__.removeprefix('afsterm.')}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn):
        layer = layer_name(fn)
        work = WORK.get(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = int(work(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry of WRAP; names a refactor removed are recorded in
        `missing` and skipped, so their metrics read zero."""
        for module, attr in WRAP:
            mod = importlib.import_module(f"afsterm.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn))

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["layer", "start", "end", "parent", "work"],
                       "spans": self.spans}, out)


def summarize(spans: list[list], lo: int = 0) -> dict:
    """Per-layer calls, self time, inclusive time and work over spans[lo:];
    parents before `lo` are treated as roots."""
    child = defaultdict(float)
    for i in range(lo, len(spans)):
        layer, start, end, parent, _work = spans[i]
        if parent >= lo:
            child[parent] += end - start
    table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0, "work": 0})
    under_prove = 0.0
    for i in range(lo, len(spans)):
        layer, start, end, parent, work = spans[i]
        row = table[layer]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        row["work"] += work
        if layer == "engine.verify_proof" and parent >= lo \
                and spans[parent][0] == "engine.prove":
            under_prove += end - start
    return {"layers": dict(table), "verify_under_prove_s": under_prove}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of the benchmark, zeros included."""
    t = summary["layers"]

    def get(layer: str, key: str):
        return t.get(layer, {}).get(key, 0)

    m: dict = {}
    for layer in ("orderings.poly.compare_terms", "orderings.poly.nf_geq",
                  "graph.approximate_graph", "graph.prune", "graph.sccs"):
        m[f"{layer}.calls"] = get(layer, "calls")
    for layer in ("orderings.poly.compare_terms", "orderings.poly.nf_geq",
                  "orderings.poly_search.candidate_templates",
                  "graph.approximate_graph", "graph.prune", "graph.sccs",
                  "dp.dependency_pairs", "prooftext.check_proof_text",
                  "parser.parse_afs", "prooftext.render_proof"):
        m[f"{layer}.self_s"] = get(layer, "self_s")
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            row["self_s"] for layer, row in t.items()
            if layer.startswith(module + "."))
    calls = get("orderings.poly.nf_geq", "calls")
    m["orderings.poly.nf_geq.true_ratio"] = (
        get("orderings.poly.nf_geq", "work") / calls if calls else 0.0)
    m["orderings.poly_search.calls"] = get("orderings.poly_search.search_poly", "calls")
    m["orderings.poly_search.found"] = get("orderings.poly_search.search_poly", "work")
    m["orderings.poly_search.options"] = get("orderings.poly_search.candidate_templates", "work")
    m["orderings.subterm.calls"] = get("orderings.subterm.subterm_criterion", "calls")
    m["orderings.subterm.found"] = get("orderings.subterm.subterm_criterion", "work")
    m["orderings.rpo.calls"] = get("orderings.rpo.search_rpo", "calls")
    m["orderings.rpo.orient.calls"] = get("orderings.rpo.orient", "calls")
    m["orderings.rpo.compare.calls"] = (get("orderings.rpo.rpo_greater", "calls")
                                        + get("orderings.rpo.rpo_geq", "calls"))
    m["orderings.certcheck.calls"] = get("orderings.certcheck.check_certificate", "calls")
    m["graph.edges"] = get("graph.approximate_graph", "work")
    m["dp.pairs"] = get("dp.dependency_pairs", "work")
    m["engine.verify_proof.s"] = summary["verify_under_prove_s"]
    return m
