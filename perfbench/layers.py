"""Layer spans recorded from outside the program.

The tracer replaces module attributes that the survey and the CLI call
through with thin wrappers that append one span per call (name, parent
span, start, end) to in-memory arrays.  A layer's time is the self time of
its spans: duration minus the part covered by child spans.  An attribute a
later change removes is skipped, and the metrics of a layer with no wrapped
name left are omitted instead of failing the run.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter_ns

# layer -> (module, attribute) pairs whose calls are that layer's spans
LAYERS = {
    "survey": [("search", "fuglede_survey")],
    "classify": [("search", "classify_set")],
    "zero_set": [(m, "zero_set") for m in ("zn", "cm", "pairs", "search", "cli")],
    "t1t2": [("cm", "check_t1t2")],
    "spectrum": [("search", "find_spectrum")],
    "tile": [("search", "find_tiling_complement")],
    "witness": [
        ("cm", "build_tiling_complement_cm"),
        ("cm", "build_laba_spectrum"),
        ("search", "_dual_certified_spectrum"),
        ("pairs", "verify_spectral_pair"),
        ("pairs", "verify_tiling_pair"),
    ],
    "cyclo": [(m, "cyclotomic") for m in ("zn", "cm", "pairs")],
    "cycles": [("cycles", "lam_leung_decompose")],
    "pairs": [
        ("pairs", name)
        for name in (
            "is_primitive",
            "root_profile",
            "symmetry_check",
            "deficit_bounds_check",
            "required_roots_panel",
        )
    ],
}
ENUM = ("search", "_canonical_of_size")  # a generator: each next() is a span
SEARCH_LAYERS = ("spectrum", "tile")  # their SearchOutcome carries `nodes`


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.nodes = {layer: array("q") for layer in SEARCH_LAYERS}
        self.present = set()

    def layer_id(self, layer):
        if layer not in self.names:
            self.names.append(layer)
        return self.names.index(layer)

    def _open(self, ix):
        i = len(self.start)
        self.name.append(ix)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, layer):
        opened, closed = self._open, self._close
        ix = self.layer_id(layer)
        nodes = self.nodes.get(layer)

        def traced(*args, **kwargs):
            i = opened(ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                closed(i)
            if nodes is not None:
                nodes.append(getattr(out, "nodes", 0))
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer):
        opened, closed = self._open, self._close
        ix = self.layer_id(layer)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = opened(ix)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    closed(i)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every listed attribute that exists in `modules` (name -> module)."""
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    setattr(mod, attr, self.wrap(fn, layer))
                    self.present.add(layer)
        mod = modules.get(ENUM[0])
        fn = getattr(mod, ENUM[1], None)
        if callable(fn):
            setattr(mod, ENUM[1], self.wrap_generator(fn, "enum"))
            self.present.add("enum")

    def self_ms(self):
        """layer -> summed self time in ms, and layer -> list of span durations in ms."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        self_ns = {}
        durations = {}
        for i in range(n):
            layer = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            self_ns[layer] = self_ns.get(layer, 0) + dur - covered[i]
            durations.setdefault(layer, []).append(dur / 1e6)
        return {k: v / 1e6 for k, v in self_ns.items()}, durations

    def calls(self, layer):
        if layer not in self.names:
            return 0
        ix = self.names.index(layer)
        return self.name.count(ix)

    def dump(self):
        """Spans as picklable arrays, for writing out when the run ends."""
        return {
            "names": list(self.names),
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


def write_spans(path, spans):
    t0 = spans["start"][0] if spans["start"] else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\tlayer\tstart_us\tend_us\n")
        names = spans["names"]
        for i, (ix, p, s, e) in enumerate(
            zip(spans["name"], spans["parent"], spans["start"], spans["end"])
        ):
            fh.write(f"{i}\t{p}\t{names[ix]}\t{(s - t0) / 1e3:.3f}\t{(e - t0) / 1e3:.3f}\n")


def layer_metrics(tracer, orbits, memo, spool_bytes, query_kinds):
    """Per-layer metrics of one traced pass.

    `orbits` is the number of sets the pass handled (orbits classified, or
    query calls), `memo` the vanishing memo's cache_info or None, and
    `spool_bytes` the size of the pass's cursor directories.
    """
    self_ms, durations = tracer.self_ms()
    present = tracer.present
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    if "enum" in present:
        enum_ms = self_ms.get("enum", 0.0)
        put("enum.ms", enum_ms, "ms")
        put("enum.us_per_orbit", 1e3 * enum_ms / orbits, "us")
    if {"classify", "zero_set"} & present:
        put("vanish.ms", self_ms.get("classify", 0.0) + self_ms.get("zero_set", 0.0), "ms")
    if "zero_set" in present:
        put("vanish.zero_set_per_orbit", tracer.calls("zero_set") / orbits, "calls/orbit")
    if memo is not None:
        lookups = memo.hits + memo.misses
        put("vanish.memo_hit_ratio", memo.hits / lookups if lookups else 0.0, "ratio")
        put("vanish.memo_entries", memo.currsize, "count")
    if "t1t2" in present:
        put("t1t2.ms", self_ms.get("t1t2", 0.0), "ms")
        put("t1t2.calls", tracer.calls("t1t2"), "count")
    for layer in SEARCH_LAYERS:
        if layer in present:
            nodes = tracer.nodes[layer]
            put(f"{layer}.ms", self_ms.get(layer, 0.0), "ms")
            put(f"{layer}.calls", tracer.calls(layer), "count")
            put(f"{layer}.nodes", sum(nodes), "count")
            put(f"{layer}.nodes_max", max(nodes, default=0), "count")
    for layer in ("witness", "cyclo", "cycles", "pairs"):
        if layer in present:
            put(f"{layer}.ms", self_ms.get(layer, 0.0), "ms")
    if "survey" in present:
        put("survey.other_ms", self_ms.get("survey", 0.0), "ms")
    put("survey.spool_mb", spool_bytes / 2**20, "MB")
    query_self = 0.0
    for kind in query_kinds:
        spans = durations.get(f"query.{kind}", [])
        put(f"query.{kind}_ms", statistics.median(spans) if spans else 0.0, "ms")
        query_self += self_ms.get(f"query.{kind}", 0.0)
    put("query.other_ms", query_self, "ms")
    return out
