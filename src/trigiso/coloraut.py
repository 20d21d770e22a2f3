"""Color-preserving subcosets of 2-group cosets.

Core problem: given a coset rep·<gens> of a 2-group acting on an indexed
ground set, and a stable subset B of colored points, extract the subset of
coset elements that preserve the color of every point of B.  When nonempty,
that subset is again a coset of the color-preserving subgroup, computed
by the classical recursion (Luks 1982): sequential filtering over orbits,
or an index-2 split along a two-block system.  `cb_images` is the array
entry that every tower level runs; `cb` is its adapter for `Coset`s of
`Permutation`s.

The recursion runs on int arrays, not `Permutation` objects.  A coset is a
pair: the generators as one int32 image array, one row each, and the
representative's row.  B is a sorted index array into the columns; at a
tower level it is B_r = [n, m), a slice of every row.  Every other column
(the nodes, at a tower level) is never read, but rides along and is moved
by every composition and inverse: the level's action on B need not be
faithful, so two elements that agree on B can still differ on the nodes,
and the result must be exact on the whole ground set.  A generator that
fixes every point of B keeps its row: every split keeps it in the index-2
subgroup, and the gather leaves kept rows as they are.  Colors enter as
int codes, compared only for equality: a tower level passes its element
color ids as they are, and `cb` codes the colors of the points and of
their images under the representative, hashable values of any kind, to
dense ints.

Each recursive call first makes the color-multiset cut.  Let S be the
call's point set, stable under the coset's subgroup H.  Every h in H maps S
onto S, so every element rep·h maps S onto rep(S).  An element that
preserves colors on S is a color-preserving bijection from S onto rep(S),
which exists only if S and rep(S) have the same multiset of colors; when
they differ the result is empty, and the call returns None.  When S and
rep(S) have one and the same color, every element preserves colors on S,
and the recursion would return its input unchanged: by induction no branch
of it reports a change.  The call then returns its input at once.  Both
are exactly what the full recursion returns, and the same cut runs on
every orbit of an intransitive call, all orbits at once.

Most calls are on four points, and two fast paths serve them; each stays
because the benchmark's CFI workload runs slower without it.  Four points
read their orbits and the first pairing that every row keeps from lookup
tables, in one pass over the rows' codes.  A transitive four-point split
runs its two branches through the two pairs together (`_pair_step`),
since what a surviving branch does to the generators on a pair does not
depend on its representative: one gather per pair serves both branches.
Both give the general recursion's result, row for row.  Two-point sets,
a few per tower, take the general steps.

`cb_tree` is a reference kept to be compared against `cb`: the same filter
guided by a precomputed structure tree, a binary tree over B to which the
whole group action lifts.  Subtrees that contain no non-neutrally colored
point are skipped, which is sound whenever the coset representative maps B
onto itself, and chains of "facile" nodes are collapsed through their delta
links.  Where filtering has made a stored transitive split intransitive, it
falls back to `cb`'s recursion on the active points.  Both solvers return
the same coset as a set of elements, but the generators may differ: on CFI
splices `cb_tree` can return another generating sequence of the same group.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import perm
from .perm import (
    Coset,
    Permutation,
    compose,
    coset_union,
    inverse,
    inverse_image,
    is_transitive,
    maps_into,
    point_array,
    restricted,
)

ColorSeq = Sequence  # ground-indexed sequence of hashable color values

# The kernel calls its array primitives through these names, where the
# benchmark's tracer patches them to time the orbit, block and index-2 stages
# (as perm.orbit_partition, perm.two_block_system, perm.index2_sgs).  Every
# index-2 gather, the small-set steps' too, goes through `index2_sgs`, so the
# tracer counts them all; `orbit_partition` and `two_block_system` see every
# set but those of four points, whose orbits and blocks come from tables.
orbit_partition = perm.orbit_labels
two_block_system = perm.block_halves
index2_sgs = perm.index2_images


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


def _cb(coset, points: np.ndarray, colors: np.ndarray):
    """Color-preserving part of a coset over a stable point set.

    `coset` is a pair (generators, representative) of int32 image arrays,
    one generator per row; `points` is a sorted index array, stable under
    the generators; `colors` holds an int code for every column.
    Returns (coset or None, changed); when nothing changed the coset is the
    input pair itself.
    """
    s = len(points)
    if not s:
        return coset, False
    gens, rep = coset
    here, there = colors[points], colors.take(rep[points])
    a, b = np.sort(here), np.sort(there)
    if a[0] == a[-1] == b[0] == b[-1]:
        return coset, False
    if (a != b).any():
        return None, True
    images = restricted(gens, points)
    if s == 4:
        code = int(np.bitwise_or.reduce(_ROW4[images @ _BASE4]))
        lab, left = _ORBITS4[code & 63], _KEPT_PAIRING[code >> 6]
    else:
        lab, left = orbit_partition(images), None
    if not lab.any():
        return _split(coset, points, images, left, colors)
    # The cut on every orbit at once; orbits of one color on both sides pass.
    if (np.sort(here * s + lab) != np.sort(there * s + lab)).any():
        return None, True
    varied = np.zeros(s, dtype=bool)
    varied[lab[here != here[lab]]] = True
    # Orbits in order of their minima, each one sorted, by one stable sort.
    grouped = points[np.argsort(lab, kind="stable")]
    size = np.bincount(lab, minlength=s)
    end = np.cumsum(size).tolist()
    roots = np.flatnonzero(varied).tolist()
    return _filter_each(coset, (grouped[end[i] - size[i] : end[i]] for i in roots), colors)


def _split(coset, points, images, left, colors):
    """Index-2 split of a transitive orbit: filter rep·H and rep·tau·H, then merge.

    `left` marks the block of the smallest point, or is None for
    `two_block_system` to find it; H is the block's setwise stabilizer, tau
    the first generator that moves it.  Four points split into two pairs,
    and the two branches run through them together: on a pair, the
    generators a surviving branch leaves depend only on the generators and
    the colors of the two points, never on the representative
    (`_pair_step`).  So each pair makes one gather for both branches, and
    only the representatives and the merge link rep1^-1 rep2 are per branch.
    """
    gens, rep = coset
    if left is None:
        left = two_block_system(images)
    keep = left[images[:, 0]]
    moves = np.flatnonzero(~keep)
    if not len(moves):
        raise ValueError("block system does not split the acting group")
    h = index2_sgs(gens, keep)
    if __debug__:
        # h maps the points onto themselves, so each image is found in them.
        moved = np.searchsorted(points, h[moves, points[0]])
        assert left[moved].all(), "index2_sgs precondition violated"
    reps = (rep, rep.take(gens[moves[0]]))
    halves = points[left], points[~left]
    if len(points) == 4:
        changed = False
        for half in halves:
            h, reps, ch = _pair_step(h, reps, *half.tolist(), colors)
            changed |= ch
        c1, c2 = (None if r is None else (h, r) for r in reps)
    else:
        (c1, ch1), (c2, ch2) = (_filter_each((h, r), halves, colors) for r in reps)
        changed = ch1 or ch2
    if c1 is None or c2 is None:
        return (c2 if c1 is None else c1), True
    if not changed:
        return coset, False
    (h1, rep1), (_, rep2) = c1, c2
    link = inverse_image(rep1).take(rep2)  # rep1^-1 rep2
    if (link == np.arange(len(link))).all():
        return c1, True
    return (np.concatenate([h1, link[None]]), rep1), True


def _filter_each(coset, point_sets, colors):
    """Filter a coset over each stable point set in turn; (coset or None, changed)."""
    changed = False
    for points in point_sets:
        coset, ch = _cb(coset, points, colors)
        changed |= ch
        if coset is None:
            return None, True
    return coset, changed


def _pair_step(gens, reps, p, q, colors):
    """Filter the cosets r·<gens>, r in `reps`, over two points p < q at once.

    Returns (generators, representatives, changed); a representative whose
    coset has no color-preserving element on {p, q} becomes None.  When p
    and q have one color, or no generator swaps them, a coset passes whole
    or not at all.  Otherwise H = <gens> ∩ Stab(p), by one `index2_sgs`
    gather, and r·<gens> keeps r·H or r·tau·H, tau the first generator that
    swaps them: the branch whose image of p has p's color.  So the new
    generators depend on `gens` and the colors of p and q alone, and
    `_split` runs both branches of a four-point split through each half
    with one gather.
    """
    cp, cq = colors[p], colors[q]
    seen = [None if r is None else (colors[r[p]], colors[r[q]]) for r in reps]
    keep = gens[:, p] == p
    if cp == cq or keep.all():
        return gens, [r if c == (cp, cq) else None for r, c in zip(reps, seen)], False
    tau = gens[keep.argmin()]
    reps = [r if c == (cp, cq) else r[tau] if c == (cq, cp) else None for r, c in zip(reps, seen)]
    if all(r is None for r in reps):  # every coset is empty: no gather
        return gens, reps, True
    h = index2_sgs(gens, keep)
    assert (h[:, p] == p).all(), "index2_sgs precondition violated"
    return h, reps, True


def _four_point_tables():
    """`_cb`'s tables for four points, indexed by a row's base-4 code.

    A row g sets bit i for each pair i of _PAIRS4 that some x -- g(x)
    joins, and bit 6 + j for each pairing j of `perm.block_halves` that g
    breaks; OR over the rows, the low six bits give the orbits (each
    point's orbit minimum), the high three the block of 0 in the first
    pairing that every row keeps, or None.
    """
    row = np.zeros(4**4, dtype=np.int64)
    for g in map(np.array, itertools.permutations(range(4))):
        edges = [_PAIRS4.index((min(x, y), max(x, y))) for x, y in enumerate(g.tolist()) if x != y]
        broken = [6 + j for j, mate in enumerate(_PAIRINGS) if (mate[g] != g[mate]).any()]
        row[g @ _BASE4] = sum(1 << i for i in set(edges + broken))
    joined = ([(0, 0)] + [e for i, e in enumerate(_PAIRS4) if mask >> i & 1] for mask in range(64))
    orbits = np.array([perm._join(np.arange(4), *np.array(e).T) for e in joined])
    kept = [[j for j in range(3) if not broken >> j & 1] for broken in range(8)]
    return row, orbits, [_PAIRING_LEFT[j[0]] if j else None for j in kept]


_PAIRS4 = list(itertools.combinations(range(4), 2))
# Partner of each point under the three pairings of four points, and the
# block of 0 in each: {0, 1}, {0, 2}, {0, 3}.
_PAIRINGS = np.array([[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_PAIRING_LEFT = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]], dtype=bool)
_BASE4 = np.array([64, 16, 4, 1])
_ROW4, _ORBITS4, _KEPT_PAIRING = _four_point_tables()


def _color_codes(colors: ColorSeq, idx: np.ndarray) -> np.ndarray:
    """Dense int codes of colors[i] for i in idx: equal colors, equal codes."""
    ids: dict = {}
    return np.array([ids.setdefault(colors[i], len(ids)) for i in idx.tolist()], dtype=np.int64)


def cb_images(gens: np.ndarray, rep: np.ndarray, points: np.ndarray, colors: np.ndarray):
    """Color-preserving part of the coset rep·<gens> over a stable point set.

    The array entry of the solver, which every tower level runs: `gens` is
    a (k, m) int32 image array, one generator per row, `rep` the
    representative's row, `points` a sorted index array and `colors` an int
    code for every column, compared only for equality.  Returns (coset or
    None, changed), the coset a pair (generators, representative) of arrays;
    when nothing changed it is the input pair itself.

    A generator that fixes every point keeps its row in the result, as the
    module docstring says, so the rows need no partition first.
    """
    assert maps_into(gens, points), "B not stable"
    return _cb((gens, rep), points, colors)


def _filter(coset: Coset | None, points, colors: ColorSeq):
    """`cb` with its changed flag: (coset or None, changed).

    Only the colors of the points and of their images under the
    representative are read; they are coded to dense ints for `cb_images`.
    """
    if coset is None:
        return None, True
    rep, m = coset.rep.image, coset.rep.degree
    pts = point_array(points, m)
    gens = np.array([g.image for g in coset.sub], dtype=np.int32).reshape(len(coset.sub), m)
    read = np.concatenate([pts, rep[pts]])
    codes = np.zeros(m, dtype=np.int64)
    codes[read] = _color_codes(colors, read)
    out, changed = cb_images(gens, rep, pts, codes)
    if not changed:
        return coset, False
    if out is None:
        return None, True
    sub = tuple(Permutation(row, _checked=True) for row in out[0])
    return Coset(Permutation(out[1], _checked=True), sub), True


def cb(coset: Coset | None, points, colors: ColorSeq) -> Coset | None:
    """Color-preserving part of a coset over a stable point set.

    Exact for any coset; EMPTY is represented by None.  When nonempty, the
    subgroup part of the result generates the color-preserving subgroup; a
    filter that removes nothing returns the input coset itself.
    """
    return _filter(coset, points, colors)[0]


# ---------------------------------------------------------------------------
# Reference: structure trees
# ---------------------------------------------------------------------------


class StructureTreeNode:
    """One node of a structure tree: a point set plus split bookkeeping.

    Interior nodes are either group-transitive on their content (split along
    a stored two-block system, with the index-2 stabilizer generators and a
    swapping element kept for inspection) or intransitive (split into two
    nontrivial stable subsets).  The annotation pass fills `active`,
    `facile`, and the `delta` shortcut to the nearest non-facile descendant.
    """

    __slots__ = (
        "content",
        "left",
        "right",
        "parent",
        "transitive",
        "block_left",
        "stab_gens",
        "tau",
        "active",
        "facile",
        "delta",
    )

    def __init__(self, content: tuple[int, ...]):
        self.content = content
        self.left: StructureTreeNode | None = None
        self.right: StructureTreeNode | None = None
        self.parent: StructureTreeNode | None = None
        self.transitive = False
        self.block_left: frozenset[int] | None = None
        self.stab_gens: tuple[Permutation, ...] | None = None
        self.tau: Permutation | None = None
        self.active: bool | None = None
        self.facile: bool | None = None
        self.delta: StructureTreeNode | None = None

    def is_leaf(self) -> bool:
        return self.left is None

    def leaves(self):
        if self.is_leaf():
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf() else ("trans" if self.transitive else "intr")
        return f"<{kind} {list(self.content)!r}>"


def _relabel_subtree(node: StructureTreeNode, tau: Permutation, tau_inv: Permutation):
    """Deep copy of a subtree with every content point pushed through tau."""
    copy = StructureTreeNode(tuple(sorted(int(tau.image[x]) for x in node.content)))
    copy.transitive = node.transitive
    if node.block_left is not None:
        copy.block_left = frozenset(int(tau.image[x]) for x in node.block_left)
    if node.stab_gens is not None:
        copy.stab_gens = tuple(compose(tau, compose(g, tau_inv)) for g in node.stab_gens)
    if node.tau is not None:
        copy.tau = compose(tau, compose(node.tau, tau_inv))
    if not node.is_leaf():
        copy.left = _relabel_subtree(node.left, tau, tau_inv)
        copy.right = _relabel_subtree(node.right, tau, tau_inv)
        copy.left.parent = copy
        copy.right.parent = copy
    return copy


def build_structure_tree(
    points, gens: Sequence[Permutation]
) -> StructureTreeNode:
    """Binary tree over a stable point set to which the group action lifts.

    Transitive content splits along a two-block system; the right subtree is
    the relabeling of the left one by an element swapping the blocks.
    Intransitive content splits into two runs of whole orbits.

    Orbits are computed once, at the root, and inherited down the tree.  An
    intransitive node's children keep its generators, so each child takes
    its own run of the parent's orbits.  A transitive node's left child
    acts under the setwise stabilizer of its block, which is transitive on
    that block, so the block is the child's only orbit; `two_block_system`
    re-checks that transitivity when it splits the child.  A point set that
    is not stable under the generators raises ValueError.
    """
    content = tuple(sorted(points))
    if not content:
        raise ValueError("empty point set")

    def build(
        ctt: tuple[int, ...],
        local: tuple[Permutation, ...],
        orbits: list[frozenset[int]],
    ):
        node = StructureTreeNode(ctt)
        if len(ctt) == 1:
            return node
        if len(orbits) > 1:
            # Balanced stable bipartition: whole orbits in min-point order
            # until half the content is covered.  Balance keeps the tree
            # depth logarithmic in the orbit count.
            left_set: set[int] = set()
            for k, orb in enumerate(orbits[:-1], 1):
                left_set |= orb
                if 2 * len(left_set) >= len(ctt):
                    break
            node.left = build(tuple(sorted(left_set)), local, orbits[:k])
            node.right = build(
                tuple(sorted(set(ctt) - left_set)), local, orbits[k:]
            )
        else:
            node.transitive = True
            bl, br = perm.two_block_system(local, ctt)
            if min(ctt) not in bl:
                bl, br = br, bl
            node.block_left = bl
            member = lambda g: int(g.image[min(bl)]) in bl
            tau = next(g for g in local if not member(g))
            h = perm.index2_sgs(local, member)
            node.stab_gens = h
            node.tau = tau
            node.left = build(tuple(sorted(bl)), h, [bl])
            node.right = _relabel_subtree(node.left, tau, inverse(tau))
        node.left.parent = node
        node.right.parent = node
        return node

    gens = tuple(gens)
    if gens:
        orbits = perm.orbit_partition(gens, content)
    else:
        orbits = [frozenset({p}) for p in content]
    return build(content, gens, orbits)


def annotate(
    root: StructureTreeNode, colors: ColorSeq, neutral
) -> StructureTreeNode:
    """Set active/facile flags and delta links, bottom-up.

    A node is active if its content meets a point whose color is not
    `neutral`; an active intransitive interior node with exactly one active
    child is facile, and its delta link jumps to the nearest non-facile
    descendant.
    """

    def visit(node: StructureTreeNode):
        if node.is_leaf():
            node.active = colors[node.content[0]] != neutral
            node.facile = False
            node.delta = node
            return
        visit(node.left)
        visit(node.right)
        node.active = node.left.active or node.right.active
        one_active = node.left.active != node.right.active
        node.facile = bool(node.active and not node.transitive and one_active)
        if node.facile:
            live = node.left if node.left.active else node.right
            node.delta = live.delta
        else:
            node.delta = node

    visit(root)
    return root


# ---------------------------------------------------------------------------
# Reference: the tree-guided solver
# ---------------------------------------------------------------------------


def _filter_singleton(coset: Coset, b: int, colors: ColorSeq):
    # B is stable and a singleton, so every coset element sends b to rep(b).
    if colors[coset.rep(b)] == colors[b]:
        return coset, False
    return None, True


def _transitive_step(coset, block_left, sub_filter):
    """Index-2 split: filter rep·H and rep·tau·H, then merge.

    `sub_filter(c)` filters a coset over both halves and reports whether
    anything changed.  When neither branch changed, the union is the input
    coset itself, which keeps generating sequences from growing on no-op
    filters.
    """
    gens = coset.sub
    bl = min(block_left)
    member = lambda g: int(g.image[bl]) in block_left
    tau = next((g for g in gens if not member(g)), None)
    if tau is None:
        raise ValueError("block system does not split the acting group")
    h = perm.index2_sgs(gens, member)
    b1, ch1 = sub_filter(Coset(coset.rep, h))
    b2, ch2 = sub_filter(Coset(compose(coset.rep, tau), h))
    if b1 is None and b2 is None:
        return None, True
    if b1 is None:
        return b2, True
    if b2 is None:
        return b1, True
    if not ch1 and not ch2:
        return coset, False
    return coset_union(b1, b2), True


def _active_points(node: StructureTreeNode) -> list[int]:
    return sorted(leaf.content[0] for leaf in node.leaves() if leaf.active)


def _cbt(coset, node: StructureTreeNode, colors: ColorSeq):
    if coset is None:
        return None, True
    if not node.active:
        return coset, False
    node = node.delta
    if node.is_leaf():
        return _filter_singleton(coset, node.content[0], colors)
    gens = coset.sub
    if not node.transitive:
        cur, ch1 = _cbt(coset, node.left, colors)
        if cur is None:
            return None, True
        cur, ch2 = _cbt(cur, node.right, colors)
        if cur is None:
            return None, True
        return cur, ch1 or ch2
    content = node.content
    if gens and is_transitive(gens, content):

        def sub_filter(c):
            out, ch = _cbt(c, node.left, colors)
            if out is None:
                return None, True
            out, ch2 = _cbt(out, node.right, colors)
            return out, ch or ch2

        return _transitive_step(coset, node.block_left, sub_filter)
    # The current subgroup lost transitivity on a precomputed split (or is
    # trivial): finish this subtree by sequential orbit filtering.  Orbits
    # are the stable units here, so an orbit is filtered whole as soon as it
    # meets an active point, and all-neutral orbits are skipped.
    active = set(_active_points(node))
    if not gens:
        return _filter(coset, sorted(active), colors)
    points = sorted(
        x
        for orb in perm.orbit_partition(gens, node.content)
        if orb & active
        for x in orb
    )
    return _filter(coset, points, colors)


def cb_tree(
    coset: Coset | None, root: StructureTreeNode, colors: ColorSeq
) -> Coset | None:
    """Tree-guided version of `cb`: the same coset, as a set of elements.

    Its generators may differ from `cb`'s: on CFI splices it can return
    another generating sequence of the same group.

    Requires an annotated tree built for a group containing the coset's
    subgroup, and a representative that maps the tree's point set onto
    itself (so that constraints on neutral points are implied by the
    non-neutral ones).
    """
    if coset is not None and __debug__:
        assert maps_into(coset.rep.image, root.content), (
            "coset representative does not stabilize the tree's point set"
        )
    if root.active is None:
        raise ValueError("structure tree is not annotated")
    out, _ = _cbt(coset, root, colors)
    return out
