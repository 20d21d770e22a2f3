"""Per-layer spans recorded from outside trigiso by patching module attributes.

`Tracer.install` replaces each traced function at the place its callers look
it up (the `trigiso` package for the public entry points, the calling module
for everything else, the class for methods) with a wrapper that records a
span: name, start, end, parent span and pair id.  Spans stay in memory until
`write` is called; `remove` restores every original attribute.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import trigiso
import trigiso.coloraut
import trigiso.core
import trigiso.phylo
from trigiso.layers import LayerDecomposition

# (owner, attribute, span name, nested).  A span with nested=False opens only
# when no span of the same name is open, so a recursive function is timed
# once, from its outermost call.
TARGETS = [
    (trigiso, "parse_graph_text", "graphs.parse_graph_text", True),
    (trigiso, "is_isomorphic", "core.is_isomorphic", True),
    (trigiso, "parse_enewick", "phylo.parse_enewick", True),
    (trigiso, "phylo_isomorphic", "phylo.phylo_isomorphic", True),
    (trigiso.core, "build_x", "graphs.build_x", True),
    (trigiso.core, "is_graph_isomorphism", "graphs.is_graph_isomorphism", True),
    (trigiso.core, "layer_sequence", "layers.layer_sequence", True),
    (trigiso.phylo, "layer_sequence", "layers.layer_sequence", True),
    (LayerDecomposition, "b_set", "layers.b_set", True),
    (LayerDecomposition, "kernel_generators", "layers.kernel_generators", True),
    (trigiso.core, "build_structure_tree", "coloraut.build_structure_tree", True),
    (trigiso.core, "annotate", "coloraut.annotate", True),
    (trigiso.core, "cb_tree", "coloraut.cb_tree", True),
    (trigiso.core, "cb", "coloraut.cb", False),
    # The unguided solver that cb_tree falls back to counts as cb.
    (trigiso.coloraut, "_cb", "coloraut.cb", False),
    (trigiso.coloraut, "orbit_partition", "perm.orbit_partition", True),
    (trigiso.coloraut, "two_block_system", "perm.two_block_system", True),
    (trigiso.coloraut, "index2_sgs", "perm.index2_sgs", True),
    (trigiso.coloraut, "is_transitive", "perm.is_transitive", True),
    (trigiso.core, "lift", "core.lift", True),
    (trigiso.phylo, "reduce_to_colored", "phylo.reduce_to_colored", True),
    (trigiso.phylo, "is_network_isomorphism", "phylo.is_network_isomorphism", True),
]

# Span names whose call counts and self times are reported per pair.
CALL_METRICS = [
    "graphs.build_x",
    "graphs.is_graph_isomorphism",
    "layers.layer_sequence",
    "layers.b_set",
    "coloraut.build_structure_tree",
    "perm.orbit_partition",
    "perm.two_block_system",
    "perm.index2_sgs",
    "perm.is_transitive",
    "core.lift",
    "phylo.is_network_isomorphism",
]
SELF_METRICS = [
    "graphs.parse_graph_text",
    "graphs.is_graph_isomorphism",
    "layers.layer_sequence",
    "layers.b_set",
    "layers.kernel_generators",
    "coloraut.build_structure_tree",
    "coloraut.annotate",
    "coloraut.cb_tree",
    "coloraut.cb",
    "perm.orbit_partition",
    "perm.two_block_system",
    "perm.index2_sgs",
    "perm.is_transitive",
    "core.is_isomorphic",
    "core.lift",
    "phylo.parse_enewick",
    "phylo.reduce_to_colored",
    "phylo.phylo_isomorphic",
    "phylo.is_network_isomorphism",
]


class Tracer:
    PAIR_SPAN = "pair"  # the benchmark's own span around one whole decision

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, pair id]
        self.pair_id = -1
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list = []

    def span(self, name: str, fn, nested: bool = True):
        spans, stack, is_open = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not nested and is_open[name]:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pair_id]
            stack.append(len(spans))
            spans.append(record)
            is_open[name] += 1
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                is_open[name] -= 1
                stack.pop()

        return wrapper

    def install(self) -> None:
        for owner, attr, name, nested in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, nested))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self, speed=None) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name, over all recorded spans.

        With `speed`, a list of factors indexed by pair id, each span's self
        seconds are multiplied by its pair's factor.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, pair) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += ((end - start) - child[i]) * (speed[pair] if speed else 1.0)
        return calls, self_s

    def calls_per_pair(self, name: str) -> Counter:
        return Counter(pair for n, _, _, _, pair in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def per_layer_metrics(tracer: Tracer, n_pairs: int, speed=None) -> dict[str, tuple[float, str]]:
    """Per-pair calls and self seconds; `speed` scales each pair's seconds."""
    calls, self_s = tracer.self_times(speed)
    out: dict[str, tuple[float, str]] = {}
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls[name] / n_pairs, "count/pair")
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (self_s[name] / n_pairs, "s/pair")
    out["core.towers_per_pair"] = (calls["layers.layer_sequence"] / n_pairs, "count/pair")
    return out
