"""Permutation arithmetic and 2-group machinery on smooth generating sequences.

Everything in this module acts on a fixed ground set {0, ..., m-1}.  The
semantics of the points (graph nodes, node subsets, ...) live outside: callers
keep their own dictionaries from indices to meaningful objects, so composition
stays O(m) and equality is a flat array comparison.

The only group-theoretic representation used anywhere is the smooth
generating sequence (SGS): an ordered tuple of generators (g_1, ..., g_k)
such that each prefix group contains the previous one with index at most 2.
All groups arising here are 2-groups, for which SGS supports the two
operations the isomorphism pipeline needs: passing to an index-2 subgroup
(`index2_sgs`) and merging two cosets of a common subgroup (`coset_union`).
Exhaustive enumeration (`group_order`, `enumerate_group`) exists for tests
only and is guarded by a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

MAX_ENUMERATION = 1 << 16


class Permutation:
    """A bijection on {0, ..., m-1} stored as an image array.

    Instances are immutable, hashable, and totally ordered by their image
    arrays; every deterministic tie-break downstream relies on that order.
    """

    __slots__ = ("image", "_hash", "_key")

    def __init__(self, image, _checked: bool = False):
        arr = np.array(image, dtype=np.int32)
        if not _checked:
            if arr.ndim != 1:
                raise ValueError("permutation image must be one-dimensional")
            m = arr.shape[0]
            if m == 0:
                raise ValueError("empty ground set")
            seen = np.zeros(m, dtype=bool)
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= m:
                raise ValueError("image entries out of range")
            seen[arr] = True
            if not seen.all():
                raise ValueError("image is not a bijection")
        arr.setflags(write=False)
        self.image = arr
        self._hash = None
        self._key = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(np.arange(m, dtype=np.int32), _checked=True)

    @classmethod
    def transposition(cls, m: int, a: int, b: int) -> "Permutation":
        img = np.arange(m, dtype=np.int32)
        img[a], img[b] = b, a
        return cls(img, _checked=True)

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        img = np.arange(m, dtype=np.int32)
        for cyc in cycles:
            for x, y in zip(cyc, cyc[1:]):
                img[x] = y
            if cyc:
                img[cyc[-1]] = cyc[0]
        return cls(img)

    @classmethod
    def from_mapping(cls, m: int, mapping: dict[int, int]) -> "Permutation":
        img = np.arange(m, dtype=np.int32)
        for x, y in mapping.items():
            img[x] = y
        return cls(img)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return int(self.image.shape[0])

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def apply_set(self, points: Iterable[int]) -> frozenset[int]:
        return frozenset(int(self.image[x]) for x in points)

    def is_identity(self) -> bool:
        return bool((self.image == np.arange(self.degree, dtype=np.int32)).all())

    def key(self) -> tuple[int, ...]:
        if self._key is None:
            self._key = tuple(int(x) for x in self.image)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image.shape == other.image.shape and bool(
            (self.image == other.image).all()
        )

    def __lt__(self, other: "Permutation") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Permutation") -> bool:
        return self.key() <= other.key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.image.tobytes())
        return self._hash

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r}, m={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition p∘q: the result maps x to p(q(x))."""
    if p.image.shape != q.image.shape:
        raise ValueError("ground-set size mismatch")
    return Permutation(p.image[q.image], _checked=True)


def inverse(p: Permutation) -> Permutation:
    inv = np.empty_like(p.image)
    inv[p.image] = np.arange(len(inv), dtype=np.int32)
    return Permutation(inv, _checked=True)


def cycle_string(p: Permutation) -> str:
    """Render in disjoint cycle notation, fixed points omitted; identity is ()."""
    seen = [False] * p.degree
    parts = []
    for i in range(p.degree):
        if seen[i] or p(i) == i:
            continue
        cyc = [i]
        seen[i] = True
        j = p(i)
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p(j)
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


# -- orbits and stability ---------------------------------------------------


def orbit(gens: Sequence[Permutation], point: int) -> frozenset[int]:
    """Smallest gens-closed set containing the point, by BFS closure."""
    if not gens:
        raise ValueError("need at least one generator (use the identity)")
    m = gens[0].degree
    if not 0 <= point < m:
        raise ValueError(f"point {point} out of range for ground set of size {m}")
    seen = {point}
    queue = [point]
    while queue:
        x = queue.pop()
        for g in gens:
            y = int(g.image[x])
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def orbit_partition(
    gens: Sequence[Permutation], points: Iterable[int]
) -> list[frozenset[int]]:
    """Orbits of <gens> on a gens-stable point set, sorted by minimum.

    One pass over the points in sorted order, with one BFS per orbit.  A
    point set that is not a union of orbits raises ValueError.
    """
    pts = set(points)
    seen: set[int] = set()
    out = []
    for p in sorted(pts):
        if p in seen:
            continue
        orb = orbit(gens, p)
        if not orb <= pts:
            raise ValueError("point set is not stable under the generators")
        out.append(orb)
        seen |= orb
    return out


def is_transitive(gens: Sequence[Permutation], points: Iterable[int]) -> bool:
    """Whether <gens> acts transitively on a nonempty, gens-stable point set.

    The orbit of the smallest point decides: if it is the whole set, the set
    is one orbit and so stable.  Only a proper sub-orbit needs the scan that
    checks every generator on every point.  An unstable set raises ValueError.
    """
    pts = set(points)
    if not pts:
        raise ValueError("empty point set")
    orb = orbit(gens, min(pts))
    if orb == pts:
        return True
    if not orb <= pts or any(int(g.image[x]) not in pts for g in gens for x in pts):
        raise ValueError("point set is not stable under the generators")
    return False


# -- block systems -----------------------------------------------------------


def _minimal_block_partition(
    gens: Sequence[Permutation], points: list[int], a: int, b: int
) -> dict[int, int]:
    """Finest block system identifying a and b (union-find pair collapse).

    Returns a map point -> block leader.  Standard Atkinson procedure: merge
    the classes of a and b, then repeatedly merge the classes of the images of
    any two merged points until the partition is generator-invariant.
    """
    parent = {x: x for x in points}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x: int, y: int) -> int | None:
        """Merge classes; return the absorbed leader (None if already equal)."""
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        return ry

    queue = [b]
    union(a, b)
    while queue:
        x = queue.pop()
        leader = find(x)
        for g in gens:
            merged = union(int(g.image[x]), int(g.image[leader]))
            if merged is not None:
                queue.append(merged)
    return {x: find(x) for x in points}


def two_block_system(
    gens: Sequence[Permutation], points: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Coarsest nontrivial block system (exactly two blocks) for a transitive 2-group.

    For |B| = 2 the blocks are the two singletons.  Otherwise a nontrivial
    block system is found by pair collapse from the minimal point, and the
    quotient action is recursed on until only two blocks remain.
    """
    pts = sorted(set(points))
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len(pts) % 2 != 0:
        raise ValueError("transitive 2-group orbits have even size")
    if not is_transitive(gens, pts):
        raise ValueError("generators are not transitive on the point set")
    if len(pts) == 2:
        return frozenset({pts[0]}), frozenset({pts[1]})

    blocks: list[list[int]] | None = None
    for b in pts[1:]:
        leader_of = _minimal_block_partition(gens, pts, pts[0], b)
        leaders = sorted(set(leader_of.values()))
        if len(leaders) > 1:
            by_leader: dict[int, list[int]] = {lead: [] for lead in leaders}
            for x in pts:
                by_leader[leader_of[x]].append(x)
            blocks = [by_leader[lead] for lead in leaders]
            break
    if blocks is None:
        # A transitive 2-group on >= 4 points is never primitive.
        raise ValueError("no nontrivial block system found; group is not a 2-group")

    if len(blocks) == 2:
        return frozenset(blocks[0]), frozenset(blocks[1])

    # Recurse on the action on blocks, then pull the two halves back.
    block_index = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            block_index[x] = i
    qgens = []
    for g in gens:
        qimg = [block_index[int(g.image[blk[0]])] for blk in blocks]
        qgens.append(Permutation(qimg))
    q1, _q2 = two_block_system(qgens, range(len(blocks)))
    side1: set[int] = set()
    side2: set[int] = set()
    for i, blk in enumerate(blocks):
        (side1 if i in q1 else side2).update(blk)
    return frozenset(side1), frozenset(side2)


# -- index-2 subgroups and cosets --------------------------------------------


def index2_sgs(
    gens: Sequence[Permutation], member: Callable[[Permutation], bool]
) -> tuple[Permutation, ...]:
    """SGS of a subgroup H of index <= 2 in <gens>, given a membership test.

    If every generator satisfies `member` the sequence is returned unchanged.
    Otherwise, with j the first failing index, each failing g_i is replaced by
    g_j^{-1} g_i; the transformed sequence is an SGS of H.  Costs one
    membership call per generator.  The precondition ([G:H] <= 2, H a
    subgroup) is trusted in release mode; under __debug__ each replaced
    generator is checked to lie in H, at one more call each.
    """
    gens = tuple(gens)
    kept = [member(g) for g in gens]
    if all(kept):
        return gens
    gj_inv = inverse(gens[kept.index(False)])
    out = tuple(g if ok else compose(gj_inv, g) for g, ok in zip(gens, kept))
    if __debug__:
        for beta, ok in zip(out, kept):
            assert ok or member(beta), "index2_sgs precondition violated"
    return out


@dataclass(frozen=True)
class Coset:
    """A left coset rep·<sub> of a 2-group; the empty coset is plain None."""

    rep: Permutation
    sub: tuple[Permutation, ...]

    def __post_init__(self):
        shape = self.rep.image.shape
        for g in self.sub:
            if g.image.shape != shape:
                raise ValueError("ground-set size mismatch inside coset")


def coset_union(c1: Coset | None, c2: Coset | None) -> Coset | None:
    """Union of two cosets of a common subgroup K, as a coset.

    Preconditions (trusted): when both inputs are nonempty, their union is a
    coset of <K, rep1^{-1} rep2>, and that group contains K with index <= 2.
    The union is then Coset(rep1, sub1 + (rep1^{-1} rep2,)), which keeps the
    generating sequence smooth: the appended generator extends the prefix
    group by index at most 2.
    """
    if c1 is None:
        return c2
    if c2 is None:
        return c1
    if c1.rep.degree != c2.rep.degree:
        raise ValueError("ground-set size mismatch")
    link = compose(inverse(c1.rep), c2.rep)
    if link.is_identity():
        return c1
    return Coset(c1.rep, c1.sub + (link,))


# -- exhaustive enumeration (test utilities) --------------------------------


def enumerate_group(
    gens: Sequence[Permutation], cap: int = MAX_ENUMERATION
) -> set[Permutation] | None:
    """All elements of <gens> by product-closure BFS, or None past the cap.

    Exponential; exists for tests and small verifications only.
    """
    if not gens:
        raise ValueError("need at least one generator (use the identity)")
    m = gens[0].degree
    ident = Permutation.identity(m)
    elems = {ident.image.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                key = y.image.tobytes()
                if key not in elems:
                    elems[key] = y
                    nxt.append(y)
                    if len(elems) > cap:
                        return None
        frontier = nxt
    return set(elems.values())


def group_order(gens: Sequence[Permutation], cap: int = MAX_ENUMERATION) -> int | None:
    """Exact |<gens>| by closure, or None (overflow) past the cap."""
    elems = enumerate_group(gens, cap)
    return None if elems is None else len(elems)


def coset_elements(c: Coset | None, cap: int = MAX_ENUMERATION) -> set[Permutation] | None:
    """All elements of a coset, or None on overflow; the empty coset gives set()."""
    if c is None:
        return set()
    sub = enumerate_group(c.sub if c.sub else (Permutation.identity(c.rep.degree),), cap)
    if sub is None:
        return None
    return {compose(c.rep, h) for h in sub}


def smoothness_violations(
    gens: Sequence[Permutation], cap: int = MAX_ENUMERATION
) -> list[int] | None:
    """Indices i where |<g_1..g_i>| / |<g_1..g_{i-1}>| is not in {1, 2}.

    Returns None if any prefix order exceeds the cap (undecided).
    """
    if not gens:
        return []
    m = gens[0].degree
    prev = 1
    bad = []
    for i in range(1, len(gens) + 1):
        cur = group_order(gens[:i] or (Permutation.identity(m),), cap)
        if cur is None:
            return None
        if cur not in (prev, 2 * prev):
            bad.append(i)
        prev = cur
    return bad
