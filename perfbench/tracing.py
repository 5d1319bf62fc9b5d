"""Outside-in layer tracing for the benchmark's traced run.

`Tracer.install()` replaces the public functions of every superbgg layer,
and selected methods of its classes, with wrappers that record one span per
call: (name, start, end, parent span, query index).  A function is replaced
in every module namespace that holds it, because `bgg`, `homology` and `cli`
bind names such as `build_irrep`, `get_analysis` and
`build_adjoint_operation` at import time; patching only the defining module
would miss those calls.  Spans stay in memory until `write_spans`.

Span names are `<layer>.<function>`.  Per name the tracer reports calls,
inclusive time `.s` (outermost calls only, so recursion is not counted
twice) and self time `.self_s` (duration minus the time covered by child
spans).  A few probes add counts that are not span counts: weight blocks and
the largest block handled by `block_data`, and the largest chain space.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "bgg", "homology", "chains", "modules", "algebra", "linalg")

# Helpers called once per vector entry or weight coordinate: a span would
# cost more than the call itself, so they run untraced.
UNTRACED = {
    "linalg.vec_iadd", "linalg.vec_scale", "linalg.zeros", "linalg.identity",
    "algebra.wt", "algebra.wt_zero", "algebra.wt_add", "algebra.wt_sub",
    "algebra.wt_neg", "algebra.wt_scale", "algebra.wt_str",
}

# Traced methods: layer -> class -> {method: span suffix}.
METHODS = {
    "homology": {
        "LeviModule": {"act": "levi_act", "express": "levi_express"},
        "KostantAnalysis": {
            "__init__": "analysis_init",
            "block_data": "block_data",
            "homology": "homology",
            "homology_quotient_module": "homology_quotient_module",
            "homology_decomposition": "homology_decomposition",
            "ker_quabla_decomposition": "ker_quabla_decomposition",
            "predicates": "predicates",
            "predicate_summary": "predicate_summary",
        },
    },
    "chains": {
        "ChainComplex": {
            "__init__": "complex_init",
            "space": "space",
            "lower": "lower",
            "raise_": "raise",
            "quabla": "quabla",
            "action_map": "action_map",
        },
        "ChainMap": {"compose": "compose", "add": "add", "block": "map_block"},
    },
    "modules": {
        "HWModule": {"form_positive_definite": "form_positive_definite"},
    },
}

# Counts that are span counts under another name.
SPAN_COUNTS = {
    "chains.complexes_built": "chains.complex_init",
    "homology.analyses_built": "homology.analysis_init",
}


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.query = -1
        self.names: list = []           # span name table
        self._name_ids: dict = {}
        self.span_name: list = []
        self.span_parent: list = []
        self.span_query: list = []
        self.span_outer: list = []      # no enclosing span of the same name
        self.span_start: list = []
        self.span_end: list = []
        self._stack = [-1]
        self._active: list = []         # open spans per name id
        self.counters = {"homology.block_data.blocks": 0,
                         "homology.block_data.block_max": 0,
                         "chains.space.dim_max": 0}
        self._seen_blocks: set = set()
        self._space = None              # untraced ChainComplex.space

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"superbgg.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("superbgg")
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[obj] = self._wrap(name, obj)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        self._space = modules["chains"].ChainComplex.space
        probes = {"homology.block_data": self._probe_block_data,
                  "chains.space": self._probe_space}
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for attr, suffix in methods.items():
                    name = f"{layer}.{suffix}"
                    setattr(cls, attr, self._wrap(name, getattr(cls, attr),
                                                  probes.get(name)))

    def _wrap(self, name: str, fn, probe=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._active.append(0)
        clock = time.perf_counter
        names, parents, queries = self.span_name, self.span_parent, self.span_query
        outer, starts, ends = self.span_outer, self.span_start, self.span_end
        stack, active = self._stack, self._active
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            queries.append(tracer.query)
            outer.append(active[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return traced

    # -- probes (run after the span closed, outside its time) -----------------

    def _probe_block_data(self, args, result) -> None:
        if id(result) in self._seen_blocks:     # cached: no new blocks
            return
        self._seen_blocks.add(id(result))
        analysis, k = args[0], args[1]
        sizes = [len(b) for b in self._space(analysis.cx, k).weight_blocks.values()]
        self.counters["homology.block_data.blocks"] += len(sizes)
        self.counters["homology.block_data.block_max"] = max(
            [self.counters["homology.block_data.block_max"]] + sizes)

    def _probe_space(self, args, result) -> None:
        if result.dim > self.counters["chains.space.dim_max"]:
            self.counters["chains.space.dim_max"] = result.dim

    # -- results ----------------------------------------------------------------

    def _self_times(self) -> list:
        child = [0.0] * len(self.span_name)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        return [self.span_end[i] - self.span_start[i] - child[i]
                for i in range(len(child))]

    def layer_metrics(self) -> dict:
        """{"<span name>.calls" | ".s" | ".self_s": value} plus counters."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for idx, st in enumerate(self._self_times()):
            nid = self.span_name[idx]
            calls[nid] += 1
            own[nid] += st
            if self.span_outer[idx]:
                incl[nid] += self.span_end[idx] - self.span_start[idx]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = incl[nid]
            out[f"{name}.self_s"] = own[nid]
        for metric, span in SPAN_COUNTS.items():
            out[metric] = out[f"{span}.calls"]
        out.update(self.counters)
        return out

    def span_check(self) -> dict:
        """Root span names and the sum of all self times (for the self-test)."""
        roots = sorted({self.names[self.span_name[i]]
                        for i, p in enumerate(self.span_parent) if p < 0})
        return {"roots": roots, "self_sum_s": sum(self._self_times())}

    def write_spans(self, path: str) -> None:
        """Spans as rows [name id, start, end, parent, query] plus the name table."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "query"],
                       "spans": [list(row) for row in zip(
                           self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_query)]}, fh)
