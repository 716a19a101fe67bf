"""Spans around treefree's public functions, recorded from the benchmark's side.

``Tracer.install`` rebinds each listed function wherever a treefree module
holds it (``treefree.embed.bfs_levels``, ``treefree.cli.find_induced``, ...),
so calls between modules and inside a module both pass through a wrapper.
A span is (name, start, end, parent span, item id); spans stay in memory
until the process exits.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# module -> {attribute: span name}.  Several builders share one span name.
_PATTERN_BUILDERS = ("path", "cycle", "t_tree", "tstar_tree", "s_tree", "t8_1", "t8_2", "s8_1",
                     "s8_2", "t8star", "petersen", "heawood", "contracted_heawood", "make")
TRACED = {
    "core": {f: f"core.{f}" for f in ("bfs_levels", "diameter", "stats", "is_c3c4_free")},
    "graphio": {f: f"graphio.{f}" for f in ("parse_graph6", "emit_graph6")},
    "patterns": {f: "patterns.build" for f in _PATTERN_BUILDERS},
    "families": {f: "families.build" for f in ("h1", "h2", "h3", "h4", "gp")},
    # _balls is the ball table; tracing it apart keeps find_induced's self
    # time to the search loop itself
    "embed": {"find_induced": "embed.find_induced", "is_isomorphic": "embed.is_isomorphic",
              "_balls": "embed.balls"},
    "witness": {f: f"witness.{f}" for f in ("iter_vw_paths", "compute_Mk", "compute_L",
                                            "derived_sets", "scan_path_pairs", "verify_ramsey_small")},
    "chromatic": {f: f"chromatic.{f}" for f in ("peel", "chi_exact", "chi_structured")},
    "cli": {f: f"cli.{f}" for f in ("verify_lemma", "scan_corpus", "check_diam_theorem")},
}
GENERATORS = {"witness.iter_vw_paths"}


def _count_hits(counts, args, result):
    counts["embed.hits"] += result is not None


def _count_bytes(counts, args, result):
    counts["graphio.bytes"] += len(args[0])


def _count_core(counts, args, result):
    counts["chromatic.core_vertices"] += len(result.core_vertices)
    counts["chromatic.peeled_from"] += args[0].n


HOOKS = {"embed.find_induced": _count_hits, "graphio.parse_graph6": _count_bytes,
         "chromatic.peel": _count_core}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.item = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def mark(self, item: int) -> None:
        """Attribute the spans that follow to ``item``."""
        self.item = item

    def install(self, modules: dict) -> None:
        """Rebind every listed function in every given module that holds it."""
        wrappers = {}
        for mod_name, table in TRACED.items():
            for attr, name in table.items():
                fn = getattr(modules[mod_name], attr, None)
                if fn is not None:
                    wrap = self._generator if name in GENERATORS else self._function
                    wrappers[id(fn)] = wrap(fn, name)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, self.stack[-1], self.item)

    def _function(self, fn, name):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if hook:
                hook(self.counts, args, result)
            return result

        return traced

    def _generator(self, fn, name):
        """One span per resumption, so time spent by the consumer is not counted."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    idx = self._open()
                    start = perf_counter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, name, start)
                    self.counts[name + ".yields"] += 1
                    yield value

            return resume()

        return traced

    def self_times(self) -> tuple[dict, dict]:
        """Self time per span name, and self time of BFS spans under find_induced."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        under = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            if name == "core.bfs_levels":
                while parent >= 0 and self.spans[parent][0] != "embed.find_induced":
                    parent = self.spans[parent][3]
                if parent >= 0:
                    under["calls"] += 1
                    under["self_s"] += end - start - child[i]
        return own, under


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float,
                  gate_ratio: float) -> dict:
    """Per-layer figures per traced pass; ratios are totals over totals."""
    own, under = tracer.self_times()
    calls, counts = tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    per = {}
    for name in ("core.bfs_levels", "embed.find_induced", "embed.is_isomorphic", "embed.balls",
                 "graphio.parse_graph6", "graphio.emit_graph6", "witness.iter_vw_paths",
                 "chromatic.chi_exact"):
        per[f"{name}.calls"] = (calls[name] / passes, "count")
    for name in ("core.bfs_levels", "core.diameter", "core.stats", "core.is_c3c4_free",
                 "embed.find_induced", "embed.balls", "embed.is_isomorphic", "graphio.parse_graph6",
                 "graphio.emit_graph6", "witness.iter_vw_paths", "witness.derived_sets",
                 "witness.verify_ramsey_small", "chromatic.peel", "chromatic.chi_exact",
                 "families.build", "patterns.build"):
        per[f"{name}.self_s"] = (own[name] / passes, "s")
    modules = defaultdict(float)
    for name, seconds in own.items():
        modules[name.split(".")[0]] += seconds
    for mod in TRACED:
        per[f"{mod}.self_s"] = (modules[mod] / passes, "s")
    traced_total = sum(own.values()) / passes
    per.update({
        "embed.bfs_per_search": (ratio(under["calls"], calls["embed.find_induced"]), "count"),
        "embed.find_induced.bfs_self_s": (under["self_s"] / passes, "s"),
        "embed.hit_ratio": (ratio(counts["embed.hits"], calls["embed.find_induced"]), "ratio"),
        "cli.gate_reject_ratio": (gate_ratio, "ratio"),
        "graphio.bytes_parsed": (counts["graphio.bytes"] / passes, "B"),
        "witness.paths_yielded": (counts["witness.iter_vw_paths.yields"] / passes, "count"),
        "chromatic.core_ratio": (ratio(counts["chromatic.core_vertices"],
                                       counts["chromatic.peeled_from"]), "ratio"),
        "unattributed.self_s": (traced_s - traced_total, "s"),
        "trace.spans": (len(tracer.spans) / passes, "count"),
        "trace.pass_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    })
    return per
