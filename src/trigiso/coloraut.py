"""Color-preserving subcosets of 2-group cosets.

Core problem: given a coset rep·<gens> of a 2-group acting on an indexed
ground set, and a stable subset B of colored points, extract the subset of
coset elements that preserve the color of every point of B.  When nonempty,
that subset is again a coset of the color-preserving subgroup, and `cb`
computes it by the classical three-way recursion: singleton test, sequential
filtering over orbits, or an index-2 split along a two-block system.  `cb`
is the solver every tower level runs.

`cb_tree` is a reference kept to be compared against `cb`: the same filter
guided by a precomputed structure tree, a binary tree over B to which the
whole group action lifts.  Subtrees that contain no non-neutrally colored
point are skipped, which is sound whenever the coset representative maps B
onto itself, and chains of "facile" nodes are collapsed through their delta
links.  Where filtering has made a stored transitive split intransitive, it
falls back to `cb`'s recursion on the active points.  Both solvers return
identical cosets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .perm import (
    Coset,
    Permutation,
    compose,
    coset_union,
    index2_sgs,
    inverse,
    is_transitive,
    orbit_partition,
    two_block_system,
)

ColorSeq = Sequence  # ground-indexed sequence of hashable color values


# ---------------------------------------------------------------------------
# The solver
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
    h = index2_sgs(gens, member)
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


def _cb(coset, points: list[int], colors: ColorSeq):
    if coset is None:
        return None, True
    if not points:
        return coset, False
    if len(points) == 1:
        return _filter_singleton(coset, points[0], colors)
    gens = coset.sub
    if not gens:
        cur, changed = coset, False
        for b in sorted(points):
            cur, ch = _filter_singleton(cur, b, colors)
            changed |= ch
            if cur is None:
                return None, True
        return cur, changed
    orbits = orbit_partition(gens, points)
    if len(orbits) > 1:
        cur, changed = coset, False
        for orb in orbits:
            cur, ch = _cb(cur, sorted(orb), colors)
            changed |= ch
            if cur is None:
                return None, True
        return cur, changed
    block_left, block_right = two_block_system(gens, points)
    if min(points) not in block_left:
        block_left, block_right = block_right, block_left
    left_sorted = sorted(block_left)
    right_sorted = sorted(block_right)

    def sub_filter(c):
        out, ch = _cb(c, left_sorted, colors)
        if out is None:
            return None, True
        out, ch2 = _cb(out, right_sorted, colors)
        return out, ch or ch2

    return _transitive_step(coset, block_left, sub_filter)


def _maps_into(images: np.ndarray, points) -> bool:
    """Whether every image row (one permutation each) sends `points` into itself."""
    points = np.asarray(points, dtype=np.intp)
    inside = np.zeros(images.shape[-1], dtype=bool)
    inside[points] = True
    return bool(inside[images[..., points]].all())


def cb(coset: Coset | None, points, colors: ColorSeq) -> Coset | None:
    """Color-preserving part of a coset over a stable point set.

    Exact for any coset; EMPTY is represented by None.  When nonempty, the
    subgroup part of the result generates the color-preserving subgroup.
    """
    points = list(points)
    if coset is not None and coset.sub and __debug__:
        images = np.stack([g.image for g in coset.sub])
        assert _maps_into(images, points), "B not stable"
    out, _ = _cb(coset, points, colors)
    return out


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
            bl, br = two_block_system(local, ctt)
            if min(ctt) not in bl:
                bl, br = br, bl
            node.block_left = bl
            member = lambda g: int(g.image[min(bl)]) in bl
            tau = next(g for g in local if not member(g))
            h = index2_sgs(local, member)
            node.stab_gens = h
            node.tau = tau
            node.left = build(tuple(sorted(bl)), h, [bl])
            node.right = _relabel_subtree(node.left, tau, inverse(tau))
        node.left.parent = node
        node.right.parent = node
        return node

    gens = tuple(gens)
    if gens:
        orbits = orbit_partition(gens, content)
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
        return _cb(coset, sorted(active), colors)
    points = sorted(
        x
        for orb in orbit_partition(gens, node.content)
        if orb & active
        for x in orb
    )
    return _cb(coset, points, colors)


def cb_tree(
    coset: Coset | None, root: StructureTreeNode, colors: ColorSeq
) -> Coset | None:
    """Tree-guided version of `cb`; identical result by contract.

    Requires an annotated tree built for a group containing the coset's
    subgroup, and a representative that maps the tree's point set onto
    itself (so that constraints on neutral points are implied by the
    non-neutral ones).
    """
    if coset is not None and __debug__:
        assert _maps_into(coset.rep.image, root.content), (
            "coset representative does not stabilize the tree's point set"
        )
    if root.active is None:
        raise ValueError("structure tree is not annotated")
    out, _ = _cbt(coset, root, colors)
    return out
