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

Orbits, block systems and index-2 subgroups are computed by array
primitives that take a whole generating sequence as one int array, one
permutation per row, and work on all rows at once:

- `restricted` re-indexes the rows' action on a stable sorted point set to
  [0, s), the local coordinates the primitives below work in;
- `orbit_labels` names each point's orbit by its minimum, by min-label
  propagation with pointer jumping over every row's edges x -- g(x);
- `block_halves` finds the two-block system of a transitive 2-group action
  by pair collapse, with the same label propagation;
- `index2_images` passes to an index-2 subgroup by one gather.

The color solver in `coloraut` calls them on its image arrays directly.
`orbit_partition`, `is_transitive`, `two_block_system` and `index2_sgs`
are adapters that stack `Permutation` images, check their preconditions
and call the same primitives.
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
    return Permutation(inverse_image(p.image), _checked=True)


def inverse_image(image: np.ndarray) -> np.ndarray:
    """Image array of the inverse permutation."""
    inv = np.empty_like(image)
    inv[image] = np.arange(len(image), dtype=image.dtype)
    return inv


def cycle_string(p: Permutation, names: Sequence | None = None) -> str:
    """Render in disjoint cycle notation, fixed points omitted; identity is ().

    Point x prints as `names[x]` when `names` is given.
    """
    label = str if names is None else (lambda x: str(names[x]))
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
        parts.append("(" + " ".join(map(label, cyc)) + ")")
    return "".join(parts) if parts else "()"


# -- array primitives ------------------------------------------------------
#
# The color solver and the adapters below share these.  `images` is an int
# array with one permutation per row; a point set is a sorted int array.


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    # Plain np.unique and np.union1d import numpy.ma, about 1.3 MB resident.
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _row_ranks(table: np.ndarray) -> np.ndarray:
    """Dense ranks, from 0, of a 2-D table's rows in lexicographic order.

    Equal rows get equal ranks.  The table is gathered in sorted order once.
    """
    order = np.lexsort(table.T[::-1])
    rows = table[order]
    step = np.zeros(len(rows), dtype=np.int64)
    step[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    ranks = np.empty_like(step)
    ranks[order] = np.cumsum(step)
    return ranks


def point_array(points: Iterable[int], m: int) -> np.ndarray:
    """Sorted distinct points as an int array; a point outside [0, m) raises ValueError."""
    pts = _sorted_distinct(np.fromiter(points, dtype=np.int64))
    if len(pts) and (pts[0] < 0 or pts[-1] >= m):
        raise ValueError(f"point out of range for ground set of size {m}")
    return pts


def maps_into(images: np.ndarray, points) -> bool:
    """Whether every image row (one permutation each) sends `points` into itself."""
    points = np.asarray(points, dtype=np.intp)
    inside = np.zeros(images.shape[-1], dtype=bool)
    inside[points] = True
    return bool(inside[images[..., points]].all())


def restricted(images: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The rows' action on a stable sorted point set, re-indexed to [0, len(points))."""
    return np.searchsorted(points, images[:, points])


def _join(lab: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coarsen a partition until u[i] and v[i] share a class for every i.

    `lab` names each point's class by its smallest member, which is the
    class's root (lab[root] = root).  Each round hooks the larger root of
    every split pair onto the smaller one (the last write wins where pairs
    disagree), then jumps pointers until every point names a root again.
    Roots only ever point lower, so a class's root stays its minimum.  A
    class with a split pair merges within two rounds: its root is hooked,
    or is hooked onto, or meets a class with a new root next round; so the
    rounds grow with log n, not with the diameter.  With `lab` = arange(n)
    and the edges as (u, v), it labels connected components.
    """
    while True:
        lu, lv = lab[u], lab[v]
        split = lu != lv
        if not split.any():
            return lab
        lu, lv = lu[split], lv[split]
        lab[np.maximum(lu, lv)] = np.minimum(lu, lv)
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up


def orbit_labels(images: np.ndarray) -> np.ndarray:
    """Orbits of the rows' action on [0, s): each point's orbit minimum.

    Min-label propagation with pointer jumping over the edges x -- g(x) of
    all rows at once.
    """
    s = images.shape[1]
    return _join(np.arange(s), np.arange(images.size) % s, images.ravel())


def _block_labels(images: np.ndarray, b: int) -> np.ndarray:
    """Finest block system in which 0 and b share a block, by pair collapse.

    A partition is a block system when g(x) and g(root of x) share a class
    for every row g and point x; classes are joined until that holds.
    """
    lab = np.arange(images.shape[1])
    lab[b] = 0
    u = images.ravel()
    while True:
        v = images[:, lab].ravel()
        if (lab[u] == lab[v]).all():
            return lab
        lab = _join(lab, u, v)


def block_halves(images: np.ndarray) -> np.ndarray:
    """Two-block system of a transitive 2-group action on [0, s), as a mask.

    The mask marks the block of point 0.  Two points split into singletons.
    Otherwise the first b in increasing order whose finest block system
    joining 0 and b is nontrivial gives the blocks; when there are more
    than two, the action on the blocks, numbered by their minima, is split
    the same way and pulled back.  On four points that is the first of the
    pairings {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2} that every row keeps.
    An odd point count, or no nontrivial block system (the group is not a
    2-group), raises ValueError.
    """
    s = images.shape[1]
    if s < 2:
        raise ValueError("need at least two points")
    if s % 2:
        raise ValueError("transitive 2-group orbits have even size")
    if s == 2:
        return np.array([True, False])
    for b in range(1, s):
        lab = _block_labels(images, b)
        leaders = np.flatnonzero(lab == np.arange(s))
        if len(leaders) == 2:
            return lab == 0
        if len(leaders) > 2:
            block = np.searchsorted(leaders, lab)
            return block_halves(block[images[:, leaders]])[block]
    raise ValueError("no nontrivial block system found; group is not a 2-group")


def index2_images(images: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows of an SGS of the index-2 subgroup that `keep` marks, by one gather.

    With tau the first row not kept, every row not kept is replaced by
    tau^-1 g, so tau's own row by the identity; kept rows stay.  At least
    one row must not be kept.
    """
    moved = np.flatnonzero(~keep)
    tau, rest = moved[0], moved[1:]
    out = images.copy()
    out[tau] = np.arange(images.shape[1], dtype=images.dtype)
    if len(rest):
        # `take` gathers by int32 indices as they are; `[]` converts them first.
        out[rest] = inverse_image(images[tau]).take(images[rest])
    return out


# -- orbits, blocks and index-2 subgroups of Permutation sequences -----------


def _stack(gens: Sequence[Permutation]) -> np.ndarray:
    if not gens:
        raise ValueError("need at least one generator (use the identity)")
    return np.stack([g.image for g in gens])


def _stable_points(gens: Sequence[Permutation], points) -> tuple[np.ndarray, np.ndarray]:
    images = _stack(gens)
    pts = point_array(points, images.shape[1])
    if not maps_into(images, pts):
        raise ValueError("point set is not stable under the generators")
    return images, pts


def orbit_partition(
    gens: Sequence[Permutation], points: Iterable[int]
) -> list[frozenset[int]]:
    """Orbits of <gens> on a gens-stable point set, sorted by minimum.

    A point set that is not a union of orbits raises ValueError.
    """
    images, pts = _stable_points(gens, points)
    lab = orbit_labels(restricted(images, pts))
    by_orbit = np.argsort(lab, kind="stable")
    cuts = np.flatnonzero(np.diff(lab[by_orbit])) + 1
    return [frozenset(pts[part].tolist()) for part in np.split(by_orbit, cuts) if len(part)]


def is_transitive(gens: Sequence[Permutation], points: Iterable[int]) -> bool:
    """Whether <gens> acts transitively on a nonempty, gens-stable point set.

    An empty or unstable set raises ValueError.
    """
    points = list(points)
    if not points:
        raise ValueError("empty point set")
    images, pts = _stable_points(gens, points)
    return not orbit_labels(restricted(images, pts)).any()


def two_block_system(
    gens: Sequence[Permutation], points: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Coarsest nontrivial block system (exactly two blocks) for a transitive 2-group.

    The first block holds the smallest point; see `block_halves` for which
    system is chosen.  Fewer than two points, an odd count, an intransitive
    action or a group that is not a 2-group raises ValueError.
    """
    pts = sorted(set(points))
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len(pts) % 2 != 0:
        raise ValueError("transitive 2-group orbits have even size")
    if not is_transitive(gens, pts):
        raise ValueError("generators are not transitive on the point set")
    pts = np.array(pts)
    left = block_halves(restricted(_stack(gens), pts))
    return frozenset(pts[left].tolist()), frozenset(pts[~left].tolist())


def index2_sgs(
    gens: Sequence[Permutation], member: Callable[[Permutation], bool]
) -> tuple[Permutation, ...]:
    """SGS of a subgroup H of index <= 2 in <gens>, given a membership test.

    If every generator satisfies `member` the sequence is returned unchanged.
    Otherwise, with j the first failing index, each failing g_i is replaced by
    g_j^{-1} g_i (`index2_images`); the transformed sequence is an SGS of H.
    Costs one membership call per generator.  The precondition ([G:H] <= 2,
    H a subgroup) is trusted in release mode; under __debug__ each replaced
    generator is checked to lie in H, at one more call each.
    """
    gens = tuple(gens)
    kept = np.array([bool(member(g)) for g in gens], dtype=bool)
    if kept.all():
        return gens
    rows = index2_images(_stack(gens), kept)
    out = tuple(
        g if ok else Permutation(row, _checked=True) for g, ok, row in zip(gens, kept, rows)
    )
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
