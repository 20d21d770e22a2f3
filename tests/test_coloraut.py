"""Tests for the color-automorphism solver and structure trees."""

import itertools
import random

import numpy as np
import pytest

from trigiso import coloraut, core
from trigiso.coloraut import (
    StructureTreeNode,
    _filter_singleton,
    _relabel_subtree,
    _transitive_step,
    annotate,
    build_structure_tree,
    cb,
    cb_tree,
)
from trigiso.harness import (
    random_relabeling,
    random_smooth_2group,
    random_ternary_graph,
)
from trigiso.perm import (
    Coset,
    Permutation,
    compose,
    coset_elements,
    enumerate_group,
    index2_sgs,
    inverse,
    is_transitive,
    orbit_partition,
    smoothness_violations,
    two_block_system,
)


def T(m, a, b):
    return Permutation.transposition(m, a, b)


def _oracle_filter(coset, points, colors):
    """Exhaustively enumerate the coset and keep the color-preserving part."""
    return {
        p
        for p in coset_elements(coset)
        if all(colors[p(b)] == colors[b] for b in points)
    }


def _as_set(coset):
    return coset_elements(coset) if coset is not None else set()


def test_cb_singleton_cases():
    ident = Permutation.identity(4)
    colors = [0, 1, 0, 0]
    keep = cb(Coset(T(4, 0, 2), (ident,)), [0], colors)
    assert keep is not None and _as_set(keep) == {T(4, 0, 2)}
    drop = cb(Coset(T(4, 0, 1), (ident,)), [0], colors)
    assert drop is None


def test_cb_monochromatic_is_identity_filter():
    gens = (T(4, 0, 1), T(4, 2, 3))
    coset = Coset(Permutation.identity(4), gens)
    out = cb(coset, [0, 1, 2, 3], [7, 7, 7, 7])
    assert _as_set(out) == _as_set(coset)
    # the no-op filter must not grow the generating sequence
    assert len(out.sub) == len(gens)


def test_cb_picks_color_preserving_subgroup():
    # <(0 1), (2 3)> with 0,1 distinct colors: only (2 3) survives.
    gens = (T(4, 0, 1), T(4, 2, 3))
    coset = Coset(Permutation.identity(4), gens)
    out = cb(coset, [0, 1, 2, 3], [0, 1, 2, 2])
    assert _as_set(out) == {Permutation.identity(4), T(4, 2, 3)}


def _random_instance(seed):
    rng = random.Random(seed)
    sgs = random_smooth_2group(16, 1 << 8, seed)
    m = 16
    if rng.random() < 0.5:
        rep = Permutation.identity(m)
    else:
        rep = Permutation(rng.sample(range(m), m))
    colors = [rng.choice([0, 0, 1, 2]) for _ in range(m)]
    return rng, sgs, rep, colors


@pytest.mark.parametrize("seed", range(40))
def test_cb_matches_exhaustive_filter(seed):
    rng, sgs, rep, colors = _random_instance(seed)
    coset = Coset(rep, sgs)
    points = list(range(16))
    got = cb(coset, points, colors)
    want = _oracle_filter(coset, points, colors)
    assert _as_set(got) == want
    if got is not None:
        assert smoothness_violations(got.sub) == []
        # Lemma check: the subgroup part is exactly the color-preserving
        # subgroup of the acting group.
        sub = enumerate_group(got.sub if got.sub else (Permutation.identity(16),))
        grp = enumerate_group(sgs if sgs else (Permutation.identity(16),))
        assert sub == {g for g in grp if all(colors[g(b)] == colors[b] for b in points)}


@pytest.mark.parametrize("seed", range(20))
def test_cb_on_stable_subsets_and_sequential_split(seed):
    rng, sgs, rep, colors = _random_instance(1000 + seed)
    coset = Coset(rep, sgs)
    orbits = orbit_partition(sgs, range(16))
    rng.shuffle(orbits)
    half = max(1, len(orbits) // 2)
    b1 = sorted(set().union(*orbits[:half]))
    b2 = sorted(set().union(*orbits[half:])) if orbits[half:] else []
    both = sorted(set(b1) | set(b2))
    inner = cb(coset, b1, colors)
    seq = cb(inner, b2, colors) if inner is not None and b2 else inner
    joint = cb(coset, both, colors) if b2 else inner
    assert _as_set(seq) == _as_set(joint)
    assert _as_set(joint) == _oracle_filter(coset, both, colors)


# -- exactness of the array kernel ----------------------------------------------


def _sgs_of(elements, m):
    """A smooth generating sequence of a 2-group given by its elements."""
    current = {Permutation.identity(m)}
    sgs = []
    while len(current) < len(elements):
        g = min(x for x in elements if x not in current and compose(x, x) in current
                and all(compose(x, compose(c, inverse(x))) in current for c in current))
        sgs.append(g)
        current |= {compose(g, c) for c in current}
    return tuple(sgs)


def _transitive_2groups_on(points, m):
    """Every transitive 2-group on `points` (fixing the rest of [0, m)), by its SGS."""
    points = list(points)
    perms = []
    for img in itertools.permutations(points):
        full = list(range(m))
        for x, y in zip(points, img):
            full[x] = y
        perms.append(Permutation(full))
    groups = set()
    for a, b in itertools.combinations_with_replacement(perms, 2):
        elements = frozenset(enumerate_group((a, b)))
        size = len(elements)
        if size & (size - 1) == 0 and is_transitive(tuple(elements), points):
            groups.add(elements)
    return sorted((_sgs_of(g, m) for g in groups), key=lambda sgs: [p.key() for p in sgs])


_S4 = [Permutation(img) for img in itertools.permutations(range(4))]
_COLORINGS = list(itertools.product(range(3), repeat=4))


def _small_cases():
    for points in ([0, 1], [1, 3], [2, 3], [0, 1, 2, 3]):
        for sgs in _transitive_2groups_on(points, 4):
            yield points, sgs


_SMALL_CASES = list(_small_cases())


def test_small_case_list_is_complete():
    # One group on each pair; on four points the Klein group, three cyclic
    # groups and three dihedral groups.
    orders = sorted(len(enumerate_group(sgs)) for p, sgs in _SMALL_CASES if len(p) == 4)
    assert orders == [4, 4, 4, 4, 8, 8, 8]
    assert sum(len(p) == 2 for p, _ in _SMALL_CASES) == 3


@pytest.mark.parametrize("case", range(len(_SMALL_CASES)))
def test_cb_exact_on_every_small_transitive_2group(case):
    # Every representative in S_4 (some send the points elsewhere) and every
    # coloring with at most three colors.
    points, sgs = _SMALL_CASES[case]
    group = enumerate_group(sgs)
    for rep in _S4:
        elements = {compose(rep, h) for h in group}
        coset = Coset(rep, sgs)
        for colors in _COLORINGS:
            got = cb(coset, points, colors)
            want = {p for p in elements if all(colors[p(b)] == colors[b] for b in points)}
            assert _as_set(got) == want, (points, sgs, rep, colors)
            if want == elements:
                assert got is coset


# The Klein group on {0, 1, 2, 3} of 8 points, and a representative that
# sends those points onto {4, 5, 6, 7}.
_KLEIN_ON_4_OF_8 = (
    Permutation.from_cycles(8, [(0, 1), (2, 3)]),
    Permutation.from_cycles(8, [(0, 2), (1, 3)]),
)
_SHIFT_BY_4 = Permutation.from_cycles(8, [(0, 4), (1, 5), (2, 6), (3, 7)])


def test_multiset_cut_returns_none_before_recursing(monkeypatch):
    # rep sends S = {0..3} onto {4..7}, where one color 1 became a 2.
    calls = []
    monkeypatch.setattr(coloraut, "orbit_partition", lambda images: calls.append(1))
    gens, rep = _KLEIN_ON_4_OF_8, _SHIFT_BY_4
    colors = [1, 1, 2, 2, 1, 2, 2, 2]
    coset = Coset(rep, gens)
    assert _oracle_filter(coset, range(4), colors) == set()
    assert cb(coset, range(4), colors) is None
    assert not calls


def test_one_color_returns_the_input_coset(monkeypatch):
    calls = []
    monkeypatch.setattr(coloraut, "orbit_partition", lambda images: calls.append(1))
    gens, rep = _KLEIN_ON_4_OF_8, _SHIFT_BY_4
    coset = Coset(rep, gens)
    assert cb(coset, range(4), [3, 3, 3, 3, 3, 3, 3, 3]) is coset
    assert not calls


@pytest.mark.parametrize("seed", range(20))
def test_no_op_filter_returns_the_input_coset(seed):
    # Colors constant on the orbits of the group: every element preserves
    # them, so the solver must hand back the very same coset.
    _, sgs, _, _ = _random_instance(seed)
    rng = random.Random(seed)
    colors = [0] * 16
    for orb in orbit_partition(sgs, range(16)):
        c = rng.randrange(3)
        for x in orb:
            colors[x] = c
    rep = compose(sgs[rng.randrange(len(sgs))], sgs[rng.randrange(len(sgs))])
    coset = Coset(rep, sgs)
    assert cb(coset, range(16), colors) is coset


@pytest.mark.parametrize("seed", range(10))
def test_cb_accepts_any_hashable_colors(seed):
    # Tuples mixed with ints, as the level test passes: the same filter as
    # the int coloring they stand for, and the same coset.
    _, sgs, rep, colors = _random_instance(3000 + seed)
    coset = Coset(rep, sgs)
    names = {0: 0, 1: ("f", (1, 2)), 2: ("n", 2)}
    mixed = [names[c] for c in colors]
    got = cb(coset, range(16), mixed)
    assert _as_set(got) == _oracle_filter(coset, range(16), colors)
    for same in (cb(coset, range(16), colors), cb(coset, range(16), np.array(colors))):
        assert (same is None) if got is None else (same.rep, same.sub) == (got.rep, got.sub)


@pytest.mark.parametrize("seed", range(20))
def test_cb_exact_when_rep_leaves_the_points(seed):
    # The group acts on 8 of 16 points; rep is any permutation of all 16.
    rng = random.Random(f"leave:{seed}")
    sgs8 = random_smooth_2group(8, 1 << 6, seed)
    sgs = tuple(Permutation(list(g.image) + list(range(8, 16))) for g in sgs8)
    rep = Permutation(rng.sample(range(16), 16))
    colors = [rng.choice([0, 1, 1, 2]) for _ in range(16)]
    coset = Coset(rep, sgs)
    got = cb(coset, range(8), colors)
    assert _as_set(got) == _oracle_filter(coset, range(8), colors)


def _reference_cb(coset, points, colors):
    """The point-by-point recursion on `Permutation` cosets: singletons,
    orbits in order of their minima, index-2 splits along `two_block_system`."""
    if coset is None:
        return None, True
    if not points:
        return coset, False
    if len(points) == 1:
        return _filter_singleton(coset, points[0], colors)
    parts = orbit_partition(coset.sub, points) if coset.sub else [{b} for b in points]
    if len(parts) > 1:
        cur, changed = coset, False
        for part in parts:
            cur, ch = _reference_cb(cur, sorted(part), colors)
            changed |= ch
            if cur is None:
                return None, True
        return cur, changed
    left, right = two_block_system(coset.sub, points)

    def sub_filter(c):
        out, ch = _reference_cb(c, sorted(left), colors)
        if out is None:
            return None, True
        out, ch2 = _reference_cb(out, sorted(right), colors)
        return out, ch or ch2

    return _transitive_step(coset, left, sub_filter)


def _reference_case(n_points, seed):
    if n_points == 16:
        _, sgs, rep, colors = _random_instance(4000 + seed)
        return Coset(rep, sgs), list(range(16)), colors
    rng = random.Random(f"ref:{n_points}:{seed}")
    sgs = random_smooth_2group(n_points, 1 << 10, 50 + seed)
    rep = compose(rng.choice(sgs), rng.choice(sgs))
    colors = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n_points)]
    return Coset(rep, sgs), list(range(n_points)), colors


@pytest.mark.parametrize(
    "n_points,seed", [(16, s) for s in range(40)] + [(n, s) for n in (32, 64) for s in range(4)]
)
def test_cb_returns_the_reference_coset_exactly(n_points, seed):
    # Same representative and the same generators in the same order, not
    # just the same set of elements.
    coset, points, colors = _reference_case(n_points, seed)
    want, _ = _reference_cb(coset, points, colors)
    got = cb(coset, points, colors)
    assert (got is None) if want is None else (got.rep, got.sub) == (want.rep, want.sub)


def test_cb_merges_branches_like_the_reference():
    # The regular action of Z4 x Z2 on 8 points, with every representative
    # and every balanced 2-coloring: both branches of a split often survive,
    # and their merge appends rep1^-1 rep2, an element of order 4 here, so
    # the order of the product shows in the bytes.
    gens = (
        Permutation.from_cycles(8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
        Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)]),
    )
    for rep in sorted(enumerate_group(gens)):
        for ones in itertools.combinations(range(8), 4):
            colors = [int(x in ones) for x in range(8)]
            want, _ = _reference_cb(Coset(rep, gens), list(range(8)), colors)
            got = cb(Coset(rep, gens), range(8), colors)
            assert (got is None) if want is None else (got.rep, got.sub) == (want.rep, want.sub)


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("seed", range(6))
def test_cb_matches_cb_tree_on_larger_groups(n_points, seed):
    rng = random.Random(f"large:{n_points}:{seed}")
    sgs = random_smooth_2group(n_points, 1 << 8, seed)
    rep = compose(rng.choice(sgs), rng.choice(sgs))
    colors = [rng.choice([0, 0, 1, 2]) for _ in range(n_points)]
    coset = Coset(rep, sgs)
    points = list(range(n_points))
    got = cb(coset, points, colors)
    root = build_structure_tree(points, sgs)
    annotate(root, colors, neutral=0)
    want = _as_set(cb_tree(coset, root, colors))
    assert _as_set(got) == want == _oracle_filter(coset, points, colors)
    if got is not None:
        assert smoothness_violations(got.sub) == []


def test_structure_tree_singleton_and_identity_group():
    leaf = build_structure_tree([5], (Permutation.identity(8),))
    assert leaf.is_leaf() and leaf.content == (5,)
    root = build_structure_tree([0, 1], ())
    assert not root.is_leaf() and not root.transitive
    assert root.left.content == (0,) and root.right.content == (1,)


def test_structure_tree_klein_group():
    gens = (
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    )
    root = build_structure_tree(range(4), gens)
    assert root.transitive
    assert {root.left.content, root.right.content} == {
        tuple(sorted(root.block_left)),
        tuple(sorted(set(range(4)) - root.block_left)),
    }
    # level-1 cells form a valid block system
    for g in gens:
        assert g.apply_set(root.block_left) in (
            root.block_left,
            frozenset(range(4)) - root.block_left,
        )
    # stored stabilizer really stabilizes and tau really swaps
    for h in root.stab_gens:
        assert h.apply_set(root.block_left) == root.block_left
    assert root.tau.apply_set(root.block_left) != root.block_left
    assert sorted(leaf.content[0] for leaf in root.leaves()) == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(12))
def test_structure_tree_leaves_and_lifting(seed):
    sgs = random_smooth_2group(16, 1 << 8, 300 + seed)
    root = build_structure_tree(range(16), sgs)
    assert sorted(leaf.content[0] for leaf in root.leaves()) == list(range(16))
    # every generator's image of any node content is again a content at the
    # same depth: the action lifts to the tree
    by_depth: dict[int, set] = {}

    def walk(node, d):
        by_depth.setdefault(d, set()).add(frozenset(node.content))
        if not node.is_leaf():
            walk(node.left, d + 1)
            walk(node.right, d + 1)

    walk(root, 0)
    for g in sgs:
        for d, contents in by_depth.items():
            for c in contents:
                assert g.apply_set(c) in contents, (d, sorted(c))


def _reference_tree(points, gens):
    """Structure tree that recomputes the orbit partition at every node."""

    def build(ctt, local):
        node = StructureTreeNode(ctt)
        if len(ctt) == 1:
            return node
        if local:
            orbits = orbit_partition(local, ctt)
        else:
            orbits = [frozenset({p}) for p in ctt]
        if len(orbits) > 1:
            left_set = set()
            for orb in orbits[:-1]:
                left_set |= orb
                if 2 * len(left_set) >= len(ctt):
                    break
            node.left = build(tuple(sorted(left_set)), local)
            node.right = build(tuple(sorted(set(ctt) - left_set)), local)
        else:
            node.transitive = True
            bl, br = two_block_system(local, ctt)
            if min(ctt) not in bl:
                bl, br = br, bl
            node.block_left = bl
            member = lambda g: int(g.image[min(bl)]) in bl
            node.tau = next(g for g in local if not member(g))
            node.stab_gens = index2_sgs(local, member)
            node.left = build(tuple(sorted(bl)), node.stab_gens)
            node.right = _relabel_subtree(node.left, node.tau, inverse(node.tau))
        return node

    return build(tuple(sorted(points)), tuple(gens))


def _assert_same_tree(got, want):
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        assert a.content == b.content
        assert a.transitive == b.transitive
        assert a.block_left == b.block_left
        assert a.stab_gens == b.stab_gens
        assert a.tau == b.tau
        assert a.is_leaf() == b.is_leaf()
        if not a.is_leaf():
            assert a.left.parent is a and a.right.parent is a
            stack += [(a.left, b.left), (a.right, b.right)]


@pytest.mark.parametrize("seed", range(40))
def test_structure_tree_matches_per_node_orbits(seed):
    _, sgs, _, _ = _random_instance(seed)
    root = build_structure_tree(range(16), sgs)
    _assert_same_tree(root, _reference_tree(range(16), sgs))


@pytest.mark.parametrize("seed", range(4))
def test_structure_tree_matches_per_node_orbits_on_towers(seed, monkeypatch):
    # Record every level coset the tower solves, for the full edge-fixing
    # group and for a relabelled positive, and build each one's tree both
    # ways.
    inputs = []
    real = core.cb_images

    def spy(gens, rep, points, colors):
        inputs.append((points.tolist(), tuple(Permutation(g) for g in gens)))
        return real(gens, rep, points, colors)

    monkeypatch.setattr(core, "cb_images", spy)
    g = random_ternary_graph(24, seed)
    core.aut_e_generators(g, g.sorted_edges()[0])
    h, _ = random_relabeling(g, seed)
    assert core.is_isomorphic(g, h).isomorphic
    assert inputs
    for points, gens in inputs:
        _assert_same_tree(build_structure_tree(points, gens), _reference_tree(points, gens))


@pytest.mark.parametrize("seed", range(40))
def test_block_stabilizer_is_transitive_on_its_block(seed):
    # Orbit inheritance rests on this: a transitive node's left child is a
    # single orbit of the stabilizer generators stored at the node.  Only
    # built nodes are walked; a right child of a transitive node is a
    # relabelled copy of its left sibling, not built from its own group.
    sgs = random_smooth_2group(16, 1 << 8, 500 + seed)
    root = build_structure_tree(range(16), sgs)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            continue
        if node.transitive:
            assert is_transitive(node.stab_gens, node.left.content)
            stack.append(node.left)
        else:
            stack += [node.left, node.right]


@pytest.mark.parametrize("seed", range(40))
def test_stabilizer_fixes_its_block_in_relabelled_copies(seed):
    # Every transitive node, including those inside a relabelled right
    # subtree, stores generators of the setwise stabilizer of its own left
    # block: a copy's generators are conjugated by the relabelling element.
    sgs = random_smooth_2group(16, 1 << 8, seed)
    root = build_structure_tree(range(16), sgs)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            continue
        if node.transitive:
            for g in node.stab_gens:
                assert g.apply_set(node.block_left) == node.block_left
            assert is_transitive(node.stab_gens, node.left.content)
        stack += [node.left, node.right]


def test_structure_tree_rejects_unstable_points():
    with pytest.raises(ValueError):
        build_structure_tree([1, 2], (T(4, 0, 1),))


def test_annotate_all_neutral_and_single_active():
    gens = ()
    root = build_structure_tree(range(4), gens)
    annotate(root, [0, 0, 0, 0], neutral=0)
    assert not root.active

    root = build_structure_tree(range(4), gens)
    annotate(root, [0, 0, 5, 0], neutral=0)
    assert root.active
    # chain of intransitive nodes with one active child: facile, and delta
    # jumps to the single active leaf
    assert root.facile
    assert root.delta.is_leaf() and root.delta.content == (2,)


def test_annotate_transitive_never_facile():
    gens = (
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    )
    root = build_structure_tree(range(4), gens)
    annotate(root, [0, 0, 5, 0], neutral=0)
    assert root.active and root.transitive and not root.facile
    assert root.delta is root


class _CountingColors:
    def __init__(self, colors):
        self.colors = colors
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.colors[i]


def test_cb_tree_skips_inactive_and_collapses_facile():
    # all-neutral: returned without descending (no color reads at all)
    root = build_structure_tree(range(8), ())
    spy = _CountingColors([0] * 8)
    annotate(root, [0] * 8, neutral=0)
    coset = Coset(Permutation.identity(8), ())
    out = cb_tree(coset, root, spy)
    assert out is coset and spy.reads == 0

    # one active leaf: exactly one singleton filter (two color reads)
    colors = [0, 0, 0, 0, 0, 9, 0, 0]
    root = build_structure_tree(range(8), ())
    annotate(root, colors, neutral=0)
    spy = _CountingColors(colors)
    out = cb_tree(coset, root, spy)
    assert out is coset
    assert spy.reads == 2


@pytest.mark.parametrize("seed", range(40))
def test_cb_tree_equals_cb(seed):
    rng, sgs, rep, colors = _random_instance(2000 + seed)
    coset = Coset(rep, sgs)
    points = list(range(16))
    plain = cb(coset, points, colors)
    root = build_structure_tree(points, sgs)
    annotate(root, colors, neutral=0)
    guided = cb_tree(coset, root, colors)
    assert _as_set(plain) == _as_set(guided)


def test_cb_tree_fallback_when_group_shrinks():
    # Build the tree for a transitive group, then solve for a coset whose
    # subgroup is intransitive on the stored split.
    gens = (
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
    )
    root = build_structure_tree(range(4), gens)
    colors = [1, 1, 2, 1]
    annotate(root, colors, neutral=0)
    small = (Permutation.from_cycles(4, [(0, 2), (1, 3)]),)  # crosses the blocks
    coset = Coset(Permutation.identity(4), small)
    out = cb_tree(coset, root, colors)
    want = _oracle_filter(Coset(Permutation.identity(4), small), range(4), colors)
    assert _as_set(out) == want


def test_cb_tree_requires_annotation():
    root = build_structure_tree(range(4), ())
    with pytest.raises(ValueError):
        cb_tree(Coset(Permutation.identity(4), ()), root, [0, 0, 0, 0])


def test_cb_rejects_unstable_points():
    # (2 3) moves point 2 out of {0, 1, 2}; {0, 1} and {2, 3} are stable.
    coset = Coset(Permutation.identity(4), (T(4, 0, 1), T(4, 2, 3)))
    with pytest.raises(AssertionError, match="not stable"):
        cb(coset, [0, 1, 2], [0, 1, 0, 0])
    with pytest.raises(AssertionError, match="not stable"):
        cb(coset, iter([2, 1, 0]), [0, 1, 0, 0])
    kept = cb(coset, iter([0, 1, 2, 3]), [0, 1, 0, 0])
    assert _as_set(kept) == {Permutation.identity(4), T(4, 2, 3)}


def test_cb_tree_rejects_unstable_representative():
    root = build_structure_tree([0, 1], (T(4, 0, 1),))
    annotate(root, [1, 1, 0, 0], neutral=0)
    with pytest.raises(AssertionError, match="representative"):
        cb_tree(Coset(T(4, 1, 2), (T(4, 0, 1),)), root, [1, 1, 0, 0])
    kept = cb_tree(Coset(T(4, 2, 3), (T(4, 0, 1),)), root, [1, 1, 0, 0])
    assert kept is not None and kept.rep == T(4, 2, 3)
