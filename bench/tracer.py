"""Spans around the public functions of the kedge modules, from outside.

The tracer wraps every public function defined in a kedge module, under
every name that binds it: modules such as `removal`, `harness` and
`fragments` import connectivity and generator functions by name, so
patching the defining module alone would miss most calls.  A few methods
are wrapped on their classes as well (graph construction and relabeling,
the fragment and dense-core validators).  A function that returns a
generator is traced step by step through a wrapping iterator, so the work
done inside `iter_tree_embeddings` is charged to it and its yields are
counted.

Spans live in memory as (id, name, parent, op, start, end, busy) and are
written out at the end.  Self time is a span's duration minus the time its
child spans cover, so the self times of all spans add up to the traced
wall time.  Iterator steps are not stored one by one (the tightness
workload makes over a million); each iterator keeps one aggregate span
whose `busy` is the sum of its steps.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

# module -> layer; the rng module counts as part of the generators layer
LAYER_OF_MODULE = {
    "graph": "graph",
    "connectivity": "connectivity",
    "fragments": "fragments",
    "removal": "removal",
    "trees": "trees",
    "generators": "generators",
    "rng": "generators",
    "harness": "harness",
    "io": "io",
}

METHODS = (
    ("graph", "Graph", "__init__"),
    ("graph", "Graph", "induced_subgraph"),
    ("graph", "Graph", "delete_vertices"),
    ("fragments", "Fragment", "validate"),
    ("removal", "HCSubgraph", "validate"),
)

# per-layer metric groups: name -> labels ("module.qualname") it sums over
GROUPS = {
    "graph.subgraph": ("graph.Graph.induced_subgraph", "graph.Graph.delete_vertices"),
    "graph.init": ("graph.Graph.__init__",),
    "connectivity.edge_connectivity": ("connectivity.edge_connectivity",),
    "connectivity.is_k_edge_connected": ("connectivity.is_k_edge_connected",),
    "connectivity.oracle": ("connectivity.edge_connectivity_bruteforce",),
    "connectivity.min_cuts": ("connectivity.enumerate_min_edge_cuts",),
    "connectivity.vertex": (
        "connectivity.vertex_connectivity",
        "connectivity.vertex_cut_below",
        "connectivity.is_k_connected",
    ),
    "fragments.validate": ("fragments.Fragment.validate",),
    "fragments.check_overlap": ("fragments.check_fragment_overlap",),
    "fragments.scan": ("fragments.scan_overlap_cases",),
    "removal.find": (
        "removal.find_removable_vertex",
        "removal.find_removable_edge",
        "removal.find_removable_tree",
    ),
    "removal.embed": ("removal.iter_tree_embeddings", "removal.embed_tree"),
    "removal.dense_core": (
        "removal.extract_connected_subgraph",
        "removal.removable_tree_via_thomassen",
        "removal.HCSubgraph.validate",
    ),
    "trees.enumerate": ("trees.enumerate_trees",),
    "generators.generate": (
        "generators.generate",
        "generators.gen_with_hypotheses",
        "generators.gen_hamiltonian_stack",
    ),
    "io.payload": ("io.graph_payload",),
}

# groups reported by self time alone
SELF_TIME_ONLY = {"fragments.scan", "removal.embed", "trees.enumerate"}

OP = "bench.op"
_MARK = "__bench_traced__"


class Tracer:
    """Installs wrappers on an imported kedge package and records spans."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.spans: list = []
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.returned: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.op_id = -1
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def _enter(self, label: str) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [self._next_id, label, parent, 0.0, 0.0]
        self._next_id += 1
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[3]
        self.self_s[frame[1]] += duration - frame[4]
        if self._stack:
            self._stack[-1][4] += duration
        return end

    def call(self, label: str, fn, args, kwargs):
        frame = self._enter(label)
        self.calls[label] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self._exit(frame)
            self.spans.append(
                (frame[0], label, frame[2], self.op_id, frame[3], end, end - frame[3])
            )
        if type(result) is types.GeneratorType:
            return _Steps(self, label, result, frame[2])
        if result is not None:
            self.returned[label] += 1
        return result

    def op(self, op_id: int, fn, arg):
        """Run one benchmark op under a root span."""
        self.op_id = op_id
        return self.call(OP, fn, (arg,), {})

    # -- installing ---------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if (name == prefix or name.startswith(prefix + ".")) and m is not None
        ]

    def _wrapper(self, label: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(label, fn, args, kwargs)

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = self._modules()
        targets = {}
        for m in modules:
            short = m.__name__[len(prefix):]
            if short not in LAYER_OF_MODULE:
                continue
            for name, obj in vars(m).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == m.__name__
                ):
                    targets[id(obj)] = self._wrapper(f"{short}.{name}", obj)
        for m in modules:
            for name, obj in list(vars(m).items()):
                wrapped = targets.get(id(obj))
                if wrapped is not None:
                    self._patches.append((m, name, obj))
                    setattr(m, name, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrapper(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    def installed_wrappers(self) -> int:
        """How many wrappers are reachable from the package right now."""
        count = 0
        for m in self._modules():
            for obj in vars(m).values():
                if getattr(obj, _MARK, False):
                    count += 1
                if inspect.isclass(obj):
                    count += sum(
                        1 for v in vars(obj).values() if getattr(v, _MARK, False)
                    )
        return count

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for label, s in self.self_s.items():
            if label != OP:
                out[LAYER_OF_MODULE[label.split(".", 1)[0]]] += s
        return out

    def metrics(self) -> dict:
        """Per-layer values over everything traced so far, as plain numbers."""
        out = {}
        for group, labels in GROUPS.items():
            if group not in SELF_TIME_ONLY:
                out[f"{group}.calls"] = sum(self.calls[x] for x in labels)
            out[f"{group}.self_s"] = sum(self.self_s[x] for x in labels)
        layers = self.layer_self_s()
        for layer in sorted(set(LAYER_OF_MODULE.values())):
            out[f"{layer}.self_s"] = layers[layer]
        # a candidate is a residual graph built directly under a finder
        finders = set(GROUPS["removal.find"])
        finder_spans = {span[0] for span in self.spans if span[1] in finders}
        candidates = sum(
            1
            for span in self.spans
            if span[1] == "graph.Graph.delete_vertices" and span[2] in finder_spans
        )
        certificates = sum(self.returned[x] for x in finders)
        out["removal.candidates"] = candidates
        out["removal.hit_ratio"] = certificates / candidates if candidates else 0.0
        out["removal.embeddings"] = self.yields["removal.iter_tree_embeddings"]
        graphs = self.calls["generators.gen_with_hypotheses"]
        out["generators.attempts_per_graph"] = (
            self.calls["generators.gen_hamiltonian_stack"] / graphs if graphs else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id\tname\tparent\top\tstart\tend\tbusy\n")
            for span in sorted(self.spans, key=lambda span: span[0]):
                fh.write("\t".join(map(str, span)) + "\n")


class _Steps:
    """Iterator that charges each step of a traced generator to its function.

    Steps are timed like calls but stored as one aggregate span per
    iterator, which is created with the iterator.
    """

    __slots__ = ("tracer", "label", "gen", "span")

    def __init__(self, tracer: Tracer, label: str, gen, parent: int):
        self.tracer = tracer
        self.label = label
        self.gen = gen
        span_id = tracer._next_id
        tracer._next_id += 1
        self.span = [span_id, label + "/steps", parent, tracer.op_id, 0.0, 0.0, 0.0]
        tracer.spans.append(self.span)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer._enter(self.label)
        frame[0] = self.span[0]  # spans opened inside a step hang off the aggregate
        try:
            item = next(self.gen)
        finally:
            end = tracer._exit(frame)
            span = self.span
            if not span[4]:
                span[4] = frame[3]
            span[5] = end
            span[6] += end - frame[3]
        tracer.yields[self.label] += 1
        return item
