"""Unit tests for permutation arithmetic and the 2-group utilities."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigiso.harness import random_smooth_2group
from trigiso.perm import (
    Coset,
    Permutation,
    compose,
    coset_elements,
    coset_union,
    cycle_string,
    enumerate_group,
    group_order,
    index2_sgs,
    inverse,
    is_transitive,
    orbit_labels,
    orbit_partition,
    smoothness_violations,
    two_block_system,
    _row_ranks,
)

from tower_reference import reference_row_ranks


def T(m, a, b):
    return Permutation.transposition(m, a, b)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_compose_identity_and_involution():
    p = T(3, 0, 1)
    ident = Permutation.identity(3)
    assert compose(ident, p) == p
    assert compose(p, ident) == p
    assert compose(p, p) == ident


def test_compose_hand_evaluated_three_cycle():
    # (0 1) applied after (1 2): x=0 -> 1, x=1 -> 2, x=2 -> 0.
    p = T(3, 0, 1)
    q = T(3, 1, 2)
    assert compose(p, q) == Permutation([1, 2, 0])


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(T(3, 0, 1), T(4, 0, 1))


def test_coset_size_mismatch():
    with pytest.raises(ValueError, match="inside coset"):
        Coset(T(3, 0, 1), (T(3, 1, 2), T(4, 0, 1)))
    Coset(T(3, 0, 1), (T(3, 1, 2),))


def test_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        img = list(range(9))
        rng.shuffle(img)
        p = Permutation(img)
        assert compose(p, inverse(p)) == Permutation.identity(9)
        assert inverse(inverse(p)) == p


def test_cycle_string():
    assert cycle_string(Permutation.identity(4)) == "()"
    assert cycle_string(T(4, 1, 3)) == "(1 3)"
    assert cycle_string(Permutation([1, 2, 0, 3])) == "(0 1 2)"
    assert cycle_string(Permutation([1, 2, 0, 3]), names=[10, 11, 12, 13]) == "(10 11 12)"


def test_orbit_idempotence():
    gens = [T(6, 0, 1), T(6, 1, 2), T(6, 4, 5)]
    lab = orbit_labels(np.stack([g.image for g in gens]))
    base = set(np.flatnonzero(lab == lab[0]).tolist())
    assert base == {0, 1, 2}
    for b in base:
        assert set(np.flatnonzero(lab == lab[b]).tolist()) == base


def test_is_transitive():
    assert is_transitive([Permutation.identity(4)], {2})
    assert not is_transitive([T(4, 0, 1)], {0, 1, 2, 3})
    gens = [
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    ]
    assert is_transitive(gens, {0, 1, 2, 3})


def test_is_transitive_rejects_unstable_set():
    with pytest.raises(ValueError):
        is_transitive([T(4, 0, 1)], {1, 2})
    # The orbit of the minimum stays inside, another point leaves the set.
    with pytest.raises(ValueError):
        is_transitive([T(4, 2, 3)], {0, 2})
    assert not is_transitive([T(4, 2, 3)], {0, 2, 3})


def test_orbit_partition_sorted():
    gens = [T(6, 0, 1), T(6, 3, 4)]
    parts = orbit_partition(gens, range(6))
    assert parts == [
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3, 4}),
        frozenset({5}),
    ]


def test_orbit_partition_rejects_unstable_set():
    # The orbit of 1 under (0 1) leaves the point set.
    with pytest.raises(ValueError):
        orbit_partition([T(4, 0, 1)], {1, 2})


def _check_block_invariants(gens, points, blocks):
    b1, b2 = blocks
    assert b1 | b2 == frozenset(points)
    assert not (b1 & b2)
    assert len(b1) == len(b2)
    for g in gens:
        assert g.apply_set(b1) in (b1, b2)


def test_two_block_system_degree_two():
    gens = [T(2, 0, 1)]
    b1, b2 = two_block_system(gens, {0, 1})
    assert (b1, b2) == (frozenset({0}), frozenset({1}))


def test_two_block_system_klein_group():
    gens = [
        Permutation.from_cycles(4, [(0, 1), (2, 3)]),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    ]
    blocks = two_block_system(gens, {0, 1, 2, 3})
    _check_block_invariants(gens, range(4), blocks)


def test_two_block_system_four_cycle():
    # The cyclic group on a 4-cycle has a unique 2-block system: {0,2} vs {1,3}.
    gens = [Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    b1, b2 = two_block_system(gens, range(4))
    assert {b1, b2} == {frozenset({0, 2}), frozenset({1, 3})}


def test_two_block_system_rejects_bad_inputs():
    with pytest.raises(ValueError):
        two_block_system([T(4, 0, 1)], {0, 1, 2, 3})  # intransitive
    with pytest.raises(ValueError):
        two_block_system([Permutation.from_cycles(3, [(0, 1, 2)])], {0, 1, 2})


def test_two_block_system_eight_points():
    # Iterated pair swaps: transitive 2-group on 8 points.
    gens = [
        Permutation.from_cycles(8, [(0, 1)]),
        Permutation.from_cycles(8, [(0, 2), (1, 3)]),
        Permutation.from_cycles(8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
    ]
    blocks = two_block_system(gens, range(8))
    _check_block_invariants(gens, range(8), blocks)


def test_index2_sgs_all_members():
    gens = (T(4, 0, 1), T(4, 2, 3))
    assert index2_sgs(gens, lambda g: True) == gens


def test_index2_sgs_collapses_to_trivial():
    out = index2_sgs((T(2, 0, 1),), lambda g: g(0) == 0)
    assert len(out) == 1 and out[0].is_identity()


def test_index2_sgs_point_stabilizer():
    gens = (T(4, 0, 1), T(4, 2, 3))
    out = index2_sgs(gens, lambda g: g(0) == 0)
    got = enumerate_group(out)
    want = enumerate_group((T(4, 2, 3),))
    assert got == want


@pytest.mark.skipif(not __debug__, reason="the check runs under __debug__ only")
def test_index2_sgs_debug_check_rejects_bad_precondition():
    # The stabilizer of 0 in S_3 has index 3, so (0 1)^{-1} (0 2) must fail.
    with pytest.raises(AssertionError, match="precondition"):
        index2_sgs((T(3, 0, 1), T(3, 0, 2)), lambda g: g(0) == 0)


def test_index2_sgs_verified_by_enumeration():
    # <(0 1), (2 3), (0 2)(1 3)>: dihedral of order 8; stabilizer of {0,1}.
    gens = (
        T(4, 0, 1),
        T(4, 2, 3),
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
    )
    member = lambda g: g.apply_set({0, 1}) == frozenset({0, 1})
    out = index2_sgs(gens, member)
    whole = enumerate_group(gens)
    sub = enumerate_group(out)
    assert sub == {g for g in whole if member(g)}
    assert len(whole) == 2 * len(sub)
    assert smoothness_violations(out) == []


def test_coset_union_empty_cases():
    c = Coset(T(4, 0, 1), (Permutation.identity(4),))
    assert coset_union(None, None) is None
    assert coset_union(c, None) is c
    assert coset_union(None, c) is c


def test_coset_union_two_singletons():
    # {(0 1)} u {(2 3)} with trivial K: enumerates to exactly those two elements.
    ident = Permutation.identity(4)
    c1 = Coset(T(4, 0, 1), (ident,))
    c2 = Coset(T(4, 2, 3), (ident,))
    merged = coset_union(c1, c2)
    assert coset_elements(merged) == {T(4, 0, 1), T(4, 2, 3)}


def test_coset_union_setwise_on_random_small_instances():
    rng = random.Random(13)
    for _ in range(30):
        m = 6
        k_gens = (Permutation.from_cycles(m, [(0, 1), (2, 3)]),)
        k_elems = enumerate_group(k_gens)
        # pick an element x normalizing K with x^2 in K: (0 2)(1 3) works
        x = Permutation.from_cycles(m, [(0, 2), (1, 3)])
        shift = Permutation(rng.sample(range(m), m))
        c1 = Coset(shift, k_gens)
        c2 = Coset(compose(shift, x), k_gens)
        merged = coset_union(c1, c2)
        assert coset_elements(merged) == coset_elements(c1) | coset_elements(c2)


def test_group_order():
    assert group_order((Permutation.identity(3),)) == 1
    assert group_order((T(4, 0, 1),)) == 2
    assert group_order((T(4, 0, 1), T(4, 2, 3))) == 4


def test_group_order_overflow():
    # Full symmetric group on 8 points has order 40320 > 2^10.
    gens = (
        Permutation.from_cycles(8, [(0, 1)]),
        Permutation.from_cycles(8, [tuple(range(8))]),
    )
    assert group_order(gens, cap=1 << 10) is None


def test_smoothness_violations_detects_bad_sequence():
    # A 4-cycle alone jumps from order 1 to 4.
    assert smoothness_violations((Permutation.from_cycles(4, [(0, 1, 2, 3)]),)) == [1]
    good = (
        Permutation.from_cycles(4, [(0, 2), (1, 3)]),
        Permutation.from_cycles(4, [(0, 1, 2, 3)]),
    )
    assert smoothness_violations(good) == []


# -- the array primitives against point-by-point references --------------------


def _bfs_orbit(gens, point):
    seen, queue = {point}, [point]
    while queue:
        x = queue.pop()
        for g in gens:
            if g(x) not in seen:
                seen.add(g(x))
                queue.append(g(x))
    return frozenset(seen)


def _union_find_blocks(gens, points, a, b):
    """Finest block system joining a and b, by union-find pair collapse."""
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    queue = [b]
    parent[max(a, b)] = min(a, b)
    while queue:
        x = queue.pop()
        for g in gens:
            rx, ry = find(g(x)), find(g(find(x)))
            if rx != ry:
                rx, ry = min(rx, ry), max(rx, ry)
                parent[ry] = rx
                queue.append(ry)
    return {x: find(x) for x in points}


def _reference_two_block_system(gens, points):
    """The first partner b of the minimum, in order, whose finest block
    system is nontrivial; more than two blocks recurse on their quotient."""
    pts = sorted(points)
    if len(pts) == 2:
        return frozenset(pts[:1]), frozenset(pts[1:])
    for b in pts[1:]:
        leader = _union_find_blocks(gens, pts, pts[0], b)
        leaders = sorted(set(leader.values()))
        if len(leaders) > 1:
            break
    blocks = [[x for x in pts if leader[x] == lead] for lead in leaders]
    if len(blocks) == 2:
        return frozenset(blocks[0]), frozenset(blocks[1])
    index = {x: i for i, blk in enumerate(blocks) for x in blk}
    quotient = [Permutation([index[g(blk[0])] for blk in blocks]) for g in gens]
    q1, _ = _reference_two_block_system(quotient, range(len(blocks)))
    side = frozenset(x for i in q1 for x in blocks[i])
    return side, frozenset(pts) - side


@pytest.mark.parametrize("n_points", [16, 32])
@pytest.mark.parametrize("seed", range(15))
def test_orbits_and_blocks_match_references(n_points, seed):
    sgs = random_smooth_2group(n_points, 1 << 8, 7000 + seed)
    orbits = orbit_partition(sgs, range(n_points))
    assert orbits == sorted({_bfs_orbit(sgs, x) for x in range(n_points)}, key=min)
    for orb in orbits:
        assert is_transitive(sgs, orb)
        if len(orb) > 1:
            assert two_block_system(sgs, orb) == _reference_two_block_system(sgs, orb)


@pytest.mark.parametrize("bits", [3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_block_choice_on_regular_elementary_abelian_groups(bits, seed):
    # Every index-2 subgroup gives a two-block system here, so only the
    # order in which partners of the minimum are tried decides the answer.
    size = 1 << bits
    shuffle = random.Random(f"regular:{bits}:{seed}").sample(range(size), size)
    gens = [
        Permutation([shuffle[shuffle.index(x) ^ (1 << i)] for x in range(size)])
        for i in range(bits)
    ]
    assert two_block_system(gens, range(size)) == _reference_two_block_system(gens, range(size))


# Tables of 0-6 columns and 0-80 rows, values within ±2^62.  Each column
# draws its values around an offset of 0 or ±2^61, from a span of a few
# values up to one too wide to pack beside another, so the packing must
# shift narrow columns far from 0 and rank wide ones.  Some rows repeat
# earlier ones.
_COLUMNS = st.tuples(st.sampled_from([0, 1 << 61, -(1 << 61)]),
                     st.sampled_from([1, 3, 1 << 20, 1 << 61]))


@st.composite
def _tables(draw):
    columns = draw(st.lists(_COLUMNS, max_size=6))
    rows = draw(st.lists(
        st.tuples(*(st.integers(at - span, at + span) for at, span in columns)), max_size=60,
    ))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=20))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(columns))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_tables())
def test_row_ranks_equal_the_lexsort_ranks(table):
    want = reference_row_ranks(table)
    ranks, count = _row_ranks(table.T)
    assert ranks.tolist() == want.tolist()
    assert count == len(set(map(tuple, table.tolist())))
    # Radices that bound each column give the same ranks, unshifted.
    low = table.min(axis=0, initial=0)
    shifted = table - low
    radices = [int(x) + 1 for x in shifted.max(axis=0, initial=0)]
    ranks, count = _row_ranks(shifted.T, radices)
    assert ranks.tolist() == want.tolist()
