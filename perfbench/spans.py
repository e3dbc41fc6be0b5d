"""Spans and counters around the program's layers, installed from outside.

The tracer wraps the public functions one module calls in another (the
names as bound in the caller's namespace), so the program itself carries no
tracing code. A span records its name, layer, start, end, parent span and
operation id; a layer's self time is its spans' time minus the time of
their child spans, so the self times of all layers add up to the time of
the root `cli.main` spans. Counters on hot methods (`Formula.key`,
`EdgeMatrix.compose`, `substitute`, ...) are installed only for a separate
count-only pass, so that they do not distort span times.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module names whose binding is wrapped, attribute, span name, layer)
SPANS = [
    (("cli",), "parse_proof", "prooffile.parse", "prooffile"),
    (("cli",), "serialize_proof", "prooffile.serialize", "prooffile"),
    (("cli", "prover"), "validate_structure", "proofgraph.validate", "proofgraph"),
    (("proofgraph",), "check_rule_instance", "kernel.check", "kernel"),
    (("prover", "proofgraph"), "rule_instance", "kernel.instance", "kernel"),
    (("cli", "prover"), "check_global_trace_condition", "tracecheck.closure", "tracecheck"),
    (("cli", "tracecheck"), "enumerate_basic_cycles", "tracecheck.cycles", "tracecheck"),
    (("cli",), "is_non_overlapping", "tracecheck.cycles", "tracecheck"),
    (("cli",), "prove", "prover.prove", "prover"),
    (("cli", "prover"), "find_counter_model", "semantics.search", "semantics"),
]
# generator functions: one span per resumption
GEN_SPANS = [
    (("prover", "kernel"), "match_sequent", "kernel.match", "kernel"),
]
LAYERS = ("cli", "prooffile", "kernel", "proofgraph", "tracecheck", "prover", "semantics")


def _module(name: str):
    return sys.modules["rtcproof." + name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, layer, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def operation(self, op: int, fn, *args):
        """Run one operation under a root `cli.main` span."""
        self.op = op
        idx = self._open("cli.main", "cli")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.on_result(name, result)
            return result
        return wrapper

    def _gen_span(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer._open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            finally:
                it.close()
        return wrapper

    def on_result(self, name: str, result) -> None:
        if name == "prooffile.parse":
            self.counts["prooffile.nodes"] += len(result.graph.nodes)
        elif name == "kernel.instance":
            self.counts["kernel.instance_returned"] += 1
        elif name == "prover.prove" and hasattr(result, "graph"):
            self.counts["prover.proofs"] += 1
            self.counts["prover.proof_nodes"] += len(result.graph.nodes)

    # -- counters

    def _counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    def _compose_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = tracer.spans[tracer.stack[-1]] if tracer.stack else None
            if top is not None and top[0] == "tracecheck.closure":
                tracer.counts["tracecheck.compose_in_closure"] += 1
            elif top is not None and top[1] == "prover":
                tracer.counts["tracecheck.compose_in_search"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, counting: bool) -> None:
        for modules, attr, name, layer in SPANS:
            wrapped = self._span(getattr(_module(modules[0]), attr), name, layer)
            for m in modules:
                self._patch(_module(m), attr, wrapped)
        for modules, attr, name, layer in GEN_SPANS:
            wrapped = self._gen_span(getattr(_module(modules[0]), attr), name, layer)
            for m in modules:
                self._patch(_module(m), attr, wrapped)
        tc = _module("tracecheck")
        self._patch(tc, "flow_edges", self._counter(tc.flow_edges, "tracecheck.flow_edges"))
        if not counting:
            return
        syntax, prover, semantics = _module("syntax"), _module("prover"), _module("semantics")
        self._patch(syntax.Formula, "key", self._counter(syntax.Formula.key, "syntax.key"))
        original = syntax.substitute
        counted = self._counter(original, "syntax.substitute")
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("rtcproof") \
                    and getattr(m, "substitute", None) is original:
                self._patch(m, "substitute", counted)
        self._patch(tc.EdgeMatrix, "compose", self._compose_counter(tc.EdgeMatrix.compose))
        self._patch(prover, "moves", self._yield_counter(prover.moves, "prover.moves"))
        self._patch(prover, "assemble", self._counter(prover.assemble, "prover.candidates"))
        self._patch(semantics.Evaluator, "__init__",
                    self._counter(semantics.Evaluator.__init__, "semantics.structures"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- aggregation

    def self_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(self seconds per layer, self seconds per span name, root seconds)."""
        child = [0.0] * len(self.spans)
        root_s = 0.0
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root_s += end - start
        by_layer = {layer: 0.0 for layer in LAYERS}
        by_name: dict[str, float] = {}
        for (name, layer, start, end, parent, op), inner in zip(self.spans, child):
            own = end - start - inner
            by_layer[layer] += own
            by_name[name] = by_name.get(name, 0.0) + own
        return by_layer, by_name, root_s
