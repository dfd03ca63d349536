"""Dynkin quivers, height functions and AR quivers with coordinates.

Positions are stored as doubled integers so the half-integer columns of
the twisted quivers stay exact: a vertex drawn at position p in a figure
is stored with pos2 = 2p.  Arrows point from a root to the roots it
covers in the convex order, i.e. towards vertices that are read earlier.
Gamma_Q is built from its rows of bare cells, labelled with roots by
`read_root_labels` like the printed constructions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .rootsys import FoldingError, Frozen, RootSystem
from .words import (
    CommutationClass,
    DEFAULT_CAP,
    Word,
    bits,
    linear_extensions,
    root_sequence,
)


class DynkinQuiver(Frozen):
    """An orientation of the Dynkin diagram of ``rs``.

    ``orientation`` holds one (tail, head) pair per diagram edge.
    """

    __slots__ = _shown = ("rs", "orientation")

    def __init__(self, rs: RootSystem, orientation: frozenset[tuple[int, int]]):
        edges = {frozenset(e) for e in rs.edges}
        got = {frozenset(e) for e in orientation}
        if got != edges or len(orientation) != len(edges):
            raise ValueError("orientation does not match the diagram edges")
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "orientation", orientation)

    def _key(self) -> tuple:
        return (self.rs, self.orientation)

    def is_sink(self, i: int) -> bool:
        return all(h == i for t, h in self.orientation if i in (t, h))

    def is_source(self, i: int) -> bool:
        return all(t == i for t, h in self.orientation if i in (t, h))

    def sinks(self) -> list[int]:
        return [i for i in self.rs.nodes if self.is_sink(i)]

    def reflect(self, i: int) -> DynkinQuiver:
        """s_i Q: reverse every arrow incident to the sink or source i."""
        if not (self.is_sink(i) or self.is_source(i)):
            raise ValueError(f"{i} is neither a sink nor a source")
        flipped = frozenset(
            (h, t) if i in (t, h) else (t, h) for t, h in self.orientation
        )
        return DynkinQuiver(self.rs, flipped)

    def height_function(self) -> dict[int, int]:
        """xi with xi(j) = xi(i) + 1 for every arrow i -> j, xi(1) = 0."""
        xi = {1: 0}
        while len(xi) < self.rs.rank:
            progressed = False
            for t, h in self.orientation:
                if t in xi and h not in xi:
                    xi[h] = xi[t] + 1
                    progressed = True
                elif h in xi and t not in xi:
                    xi[t] = xi[h] - 1
                    progressed = True
            if not progressed:
                raise AssertionError("diagram is not connected")
        return xi


def all_quivers(rs: RootSystem) -> list[DynkinQuiver]:
    """Every orientation of the diagram, in a deterministic order."""
    out = []
    for heads in product((0, 1), repeat=len(rs.edges)):
        orient = frozenset(
            (a, b) if h else (b, a) for (a, b), h in zip(rs.edges, heads)
        )
        out.append(DynkinQuiver(rs, orient))
    return out


class ARQuiver(Frozen):
    """A quiver on the positive roots with (residue, position) coordinates."""

    __slots__ = _shown = ("rs", "coords", "arrows")

    def __init__(self, rs: RootSystem,
                 coords: tuple[tuple[int, int, int], ...],  # (root_idx, residue, pos2)
                 arrows: frozenset[tuple[int, int]]):  # (from_root_idx, to_root_idx)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "arrows", arrows)

    def _key(self) -> tuple:
        return (self.rs, self.coords, self.arrows)

    def coord_of(self) -> dict[int, tuple[int, int]]:
        return {r: (i, p2) for r, i, p2 in self.coords}

    def residues(self) -> dict[int, int]:
        return {r: i for r, i, _ in self.coords}


def adapted_word(q: DynkinQuiver) -> Word:
    """Some reduced word of w_0 adapted to Q (a reading of Gamma_Q)."""
    g = gamma_q(q)
    residues = g.residues()
    return tuple(residues[r] for r in reading_vertices(g))


def is_adapted(word: Word, q: DynkinQuiver) -> bool:
    """Sink simulation: every letter must be a sink when it is applied."""
    cur = q
    for i in word:
        if not cur.is_sink(i):
            return False
        cur = cur.reflect(i)
    return True


def adapted_quiver_of(rs: RootSystem, word: Word) -> DynkinQuiver | None:
    """The unique quiver the word is adapted to, if any.

    Orientation guess: the edge {i, j} points i -> j when j first occurs
    before i; the guess is then validated by sink simulation.
    """
    first = {}
    for k, i in enumerate(word):
        first.setdefault(i, k)
    if set(first) != set(rs.nodes):
        return None
    orient = frozenset(
        (a, b) if first[b] < first[a] else (b, a) for a, b in rs.edges
    )
    q = DynkinQuiver(rs, orient)
    return q if is_adapted(word, q) else None


def arrows_by_step(
    coords: dict[int, tuple[int, int]], adjacent, step
) -> frozenset[tuple[int, int]]:
    """Arrows r -> s from each vertex to the adjacent rows, step(i, j) ahead.

    ``coords`` maps a vertex to its (residue, position), ``adjacent`` maps
    a residue to its neighbours; an arrow points to the vertex s read
    earlier, at residue j and position p + step(i, j).
    """
    by_coord = {}
    for r, c in coords.items():
        if c in by_coord:
            raise FoldingError("coordinates collide")
        by_coord[c] = r
    arrows = set()
    for (i, p), r in by_coord.items():
        for j in adjacent[i]:
            s = by_coord.get((j, p + step(i, j)))
            if s is not None:
                arrows.add((r, s))
    return frozenset(arrows)


def read_root_labels(rs: RootSystem, cells, step) -> tuple[Word, ARQuiver]:
    """Label bare (residue, pos2) cells with roots by reading the quiver.

    Arrows are placed by ``arrows_by_step`` along the diagram of ``rs``;
    one reading of the bare quiver is a word whose root sequence labels
    its vertices.  Returns that word and the labelled quiver.
    """
    cells = sorted(cells)
    arrows = arrows_by_step(dict(enumerate(cells)), rs.adjacent, step)
    bare = ARQuiver(rs, tuple((k, i, p2) for k, (i, p2) in enumerate(cells)), arrows)
    order = reading_vertices(bare)
    word = tuple(cells[k][0] for k in order)
    root_of = {k: rs.root_index[b] for k, b in zip(order, root_sequence(rs, word))}
    coords = tuple(sorted((root_of[k], i, p2) for k, (i, p2) in enumerate(cells)))
    labelled = frozenset((root_of[a], root_of[b]) for a, b in arrows)
    return word, ARQuiver(rs, coords, labelled)


@lru_cache(maxsize=None)
def gamma_q(q: DynkinQuiver) -> ARQuiver:
    """The AR quiver of Q, with the height function pinned at xi(1) = 0.

    Row i holds the positions p = xi(i) - 2m with xi(i*) - h < p <= xi(i),
    h = 2N / rank the Coxeter number (Hernandez-Leclerc); the rows are
    labelled by `read_root_labels`.
    """
    rs = q.rs
    xi = q.height_function()
    star = rs.star()
    h = 2 * rs.num_positive // rs.rank
    cells = [
        (i, 2 * (xi[i] - 2 * m))
        for i in rs.nodes
        for m in range((h + xi[i] - xi[star[i]]) // 2)
    ]
    if len(cells) != rs.num_positive:
        raise AssertionError(f"Gamma_Q has {len(cells)} cells, not N = {rs.num_positive}")
    return read_root_labels(rs, cells, lambda i, j: 2)[1]


def reading_vertices(quiver: ARQuiver) -> list[int]:
    """Vertices in one reading order: a vertex follows its arrow targets."""
    residues = quiver.residues()
    out_deg = {r: 0 for r in residues}
    preds: dict[int, list[int]] = {r: [] for r in residues}
    for a, b in quiver.arrows:
        out_deg[a] += 1
        preds[b].append(a)
    order = []
    avail = sorted(r for r, d in out_deg.items() if d == 0)
    while avail:
        r = avail.pop(0)
        order.append(r)
        for p in preds[r]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                avail.append(p)
        avail.sort()
    if len(order) != len(residues):
        raise AssertionError("quiver has a cycle")
    return order


def read_reduced_words(quiver: ARQuiver, cap: int = DEFAULT_CAP) -> list[Word]:
    """All readings of the quiver; equals the commutation class it realizes."""
    residues = quiver.residues()
    verts = sorted(residues)
    pos = {r: k for k, r in enumerate(verts)}
    after = [0] * len(verts)  # the vertices each one must wait for
    for a, b in quiver.arrows:
        after[pos[a]] |= 1 << pos[b]  # a can be read only after b
    return linear_extensions(after, [residues[r] for r in verts], cap)


def covers(cls: CommutationClass) -> set[tuple[int, int]]:
    """Cover relations (a, b): a before b with nothing strictly between."""
    above = cls.above()
    return {
        (a, b) for b, mask in enumerate(cls.below()) for a in bits(mask)
        if not mask & above[a]
    }


def hasse_quiver(cls: CommutationClass, quiver: ARQuiver | None = None) -> ARQuiver:
    """The cover-relation digraph of the convex order, with coordinates.

    When a constructed quiver is supplied its coordinates are attached
    (and must realize the same arrow set); otherwise positions come from
    longest-path layering, which reproduces no particular figure but
    keeps rendering deterministic.
    """
    rel = covers(cls)
    arrows = frozenset((b, a) for a, b in rel)  # point towards earlier roots
    if quiver is not None:
        if arrows != quiver.arrows:
            raise AssertionError(
                "constructed quiver disagrees with the cover relations"
            )
        return ARQuiver(cls.rs, quiver.coords, arrows)
    below = cls.below()
    depth = {}
    for r in cls.roots():  # canonical-word order: a member word
        depth[r] = 1 + max((depth[a] for a in bits(below[r])), default=-1)
    top = max(depth.values(), default=0)
    coords = tuple(
        sorted((r, cls.letter_of(r), 2 * (top - depth[r])) for r in depth)
    )
    return ARQuiver(cls.rs, coords, arrows)
