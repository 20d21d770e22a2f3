"""Inputs whose towers the reference tests run level by level.

`decide_tower_cases` runs a few decisions and returns every tower they ran,
by case, as the (decomposition, swap) of every call to `core._tower`
(`recorded_towers`), or as those calls (`tower_calls`);
`cfi_tower_cases` does the same for uncolored CFI pairs over K4 and the
cube, negatives included.  `every_level` runs those towers again through
`reference_run_tower`, which filters and lifts at every level, rigid or
not.  The symmetric inputs (a complete binary tree and an uncolored CFI
pair over K4) keep generators in the coset, so the decisions themselves
reach the general level loop too.  `without_class_swap` makes one call
with the swap tower's class swap turned off, and `class_swap_work` records
what a decision's class swaps did and what tower work they left.
"""

import pytest

from trigiso import core, phylo
from trigiso.core import aut_e_generators, is_isomorphic
from trigiso.graphs import LabeledGraph
from trigiso.harness import random_relabeling, random_ternary_graph
from trigiso.layers import LayerDecomposition
from trigiso.phylo import phylo_isomorphic, random_network

from tower_reference import reference_run_tower

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
CUBE = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
# The outer 5-cycle, its spokes, and the inner pentagram.
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


def complete_binary_tree(n_nodes):
    return LabeledGraph(
        range(n_nodes),
        [(i, c) for i in range(n_nodes) for c in (2 * i + 1, 2 * i + 2) if c < n_nodes],
    )


def _cfi(base: list, twisted=()) -> LabeledGraph:
    """Uncolored CFI graph over a cubic base graph, the base edges `twisted` twisted.

    Base vertex v becomes middle nodes 10v + k, one per even subset of its
    three edge slots, and end nodes 10v + 4 + 2·slot + bit; a middle node is
    joined to the end of each slot with bit 1 exactly for the slots in its
    subset, and a base edge joins equal bits of its two ends, or opposite
    bits when twisted.  Over a connected base, two such graphs are
    isomorphic exactly when their twist counts have equal parity, and color
    refinement cannot tell them apart.
    """
    n = 1 + max(map(max, base))
    incident = [[i for i, e in enumerate(base) if v in e] for v in range(n)]

    def end(v, i, bit):  # the end node of base edge i at v
        return 10 * v + 4 + 2 * incident[v].index(i) + bit

    edges = [
        (10 * v + k, end(v, i, int(slot in subset)))
        for v in range(n)
        for k, subset in enumerate([(), (0, 1), (0, 2), (1, 2)])
        for slot, i in enumerate(incident[v])
    ]
    edges += [
        (end(u, i, bit), end(w, i, bit ^ (i in twisted)))
        for i, (u, w) in enumerate(base)
        for bit in (0, 1)
    ]
    return LabeledGraph(range(10 * n), edges)


def tower_calls(decide) -> list:
    """Call `decide()`; return the (view, e, swap, decomposition) of every call to `core._tower`.

    The decomposition is the tower `_tower` built on the refined view,
    whichever path then decided it.
    """
    calls = []
    real_tower, real_layers = core._tower, core.layer_sequence

    def tower(view, e, swap):
        calls.append([view, e, swap])
        return real_tower(view, e, swap)

    def layers(*args):
        calls[-1].append(real_layers(*args))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        for module in (core, phylo):
            mp.setattr(module, "_tower", tower)
        mp.setattr(core, "layer_sequence", layers)
        decide()
    return [tuple(call) for call in calls]


def recorded_towers(decide) -> list:
    """Call `decide()`; return the (decomposition, swap) of every tower it ran (`tower_calls`)."""
    return [(dec, swap) for _, _, swap, dec in tower_calls(decide)]


def without_class_swap(run, *args):
    """`run(*args)` with `core._class_swap` finding nothing, so swap towers take the level loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_class_swap", lambda view, a, b: None)
        return run(*args)


def class_swap_work(decide) -> tuple[list, list, list]:
    """Call `decide()`; return its towers (`recorded_towers`), every `core._class_swap` result,
    and the names of the `LayerDecomposition.b_set` and `lift_or_none` calls, in order."""
    swaps, calls = [], []
    real_swap = core._class_swap

    def class_swap(view, a, b):
        swaps.append(real_swap(view, a, b))
        return swaps[-1]

    def counted(name):
        real = getattr(LayerDecomposition, name)

        def call(dec, *args):
            calls.append(name)
            return real(dec, *args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_class_swap", class_swap)
        for name in ("b_set", "lift_or_none"):
            mp.setattr(LayerDecomposition, name, counted(name))
        towers = recorded_towers(decide)
    return towers, swaps, calls


def decide_tower_cases(n: int, seed: int, record=recorded_towers) -> dict[str, list]:
    """The towers a few decisions run, by case, as `record` returns them.

    "graph": the full edge-fixing group and a relabelled positive of a
    random graph; "network": a network twin; "tree": both for a complete
    binary tree; "cfi": an uncolored CFI pair over K4 with two twists, an
    isomorphic pair whose one tower keeps a 2-group in the coset.
    """
    g = random_ternary_graph(n, seed)
    net = random_network(n // 2 + 1, seed=seed)
    tree = complete_binary_tree(2 ** (seed % 3 + 3) - 1)
    twisted = random_relabeling(_cfi(K4, {seed % 5, seed % 5 + 1}), seed)[0]

    def decide_graph(g):
        aut_e_generators(g, g.sorted_edges()[0])
        assert is_isomorphic(g, random_relabeling(g, seed)[0])

    def decide_network():
        assert phylo_isomorphic(net, net.relabeled_nodes({v: 1000 + v for v in net.nodes}))

    def decide_cfi():
        assert is_isomorphic(_cfi(K4), twisted)

    return {
        "graph": record(lambda: decide_graph(g)),
        "network": record(decide_network),
        "tree": record(lambda: decide_graph(tree)),
        "cfi": record(decide_cfi),
    }


def cfi_tower_cases(record=recorded_towers) -> dict[str, list]:
    """The towers of uncolored CFI decisions over K4 and the cube, by case, as `record` gives them.

    The plain graph against a relabelled copy with one twist (a negative)
    and with two twists (a positive).
    """
    cases = {}
    for name, base in (("k4", K4), ("cube", CUBE)):
        for twists in (1, 2):
            other = random_relabeling(_cfi(base, set(range(twists))), 9)[0]
            cases[f"cfi-{name}-{twists}"] = record(lambda: is_isomorphic(_cfi(base), other))
    return cases


def every_level(cases: dict[str, list]) -> None:
    """Run each recorded tower through `reference_run_tower`, every level filtered."""
    for towers in cases.values():
        for dec, swap in towers:
            reference_run_tower(dec, swap)
