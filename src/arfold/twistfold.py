"""Twisted adapted classes and their (folded) AR quivers.

One path builds the folded quiver of every class of a twisted adapted
point: a seed quiver for the class of the folding's twisted longest
word, read off its ``Folding`` record, spread to the other classes by
folded reflections along the cluster-point BFS of ``words``, so a class
reached again costs only its reflected coordinates.

The printed constructions stay as references for it:

* the insertion construction A_{2n-2} -> A_{2n-1}, which adds a new row
  of residue-n vertices at half-integer positions,
* the doubling construction A_n -> D_{n+1}, which glues an upside-down
  copy of Gamma_Q to its left and alternates the fork residues,
* the E_6 tables shipped as fixtures;

``fold`` collapses their residues to orbits.

Folded coordinates are plain integers: for a type-A source they are the
doubled half-integer positions, otherwise positions are kept as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .rootsys import (
    Folding,
    FoldingError,
    Root,
    RootSystem,
    folding_from,
    root_system,
)
from .words import (
    CommutationClass,
    Word,
    cluster_moves,
    commutation_class,
    reflect,
    root_sequence,
)
from .arquiver import (
    ARQuiver,
    DynkinQuiver,
    adapted_word,
    arrows_by_step,
    gamma_q,
    read_root_labels,
)


def _unfolded_scale(type_tag: str) -> int:
    """Doubled unfolded positions per folded position: type A folded
    positions already are the doubled half-integers."""
    return 1 if type_tag == "A" else 2


@dataclass(frozen=True)
class FoldedQuiver:
    """An AR quiver with residues collapsed to automorphism orbits.

    ``folding`` is the record it was folded by.  ``origin`` is the
    (parent quiver, letter i) whose folded reflection made it, and None
    for a quiver built otherwise, ``dataclasses.replace`` included.
    Neither takes part in equality or hashing.
    """

    rs: RootSystem
    coords: tuple[tuple[int, int, int], ...]  # (root_idx, orbit_residue, position)
    arrows: frozenset[tuple[int, int]]
    source_class: CommutationClass
    folding: Folding = field(compare=False)
    origin: tuple[FoldedQuiver, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def coord_of(self) -> dict[int, tuple[int, int]]:
        return {r: (i, p) for r, i, p in self.coords}

    def by_coord(self) -> dict[tuple[int, int], int]:
        out = {(i, p): r for r, i, p in self.coords}
        if len(out) != len(self.coords):
            raise FoldingError("folded coordinates collide")
        return out

    def root_labels(self) -> dict[tuple[int, int], Root]:
        rs = self.rs
        return {(i, p): rs.positive_roots[r] for r, i, p in self.coords}

    def unfolded(self) -> ARQuiver:
        """The same quiver with the residues of the source class and
        doubled unfolded positions."""
        scale = _unfolded_scale(self.rs.type_tag)
        letter_of = self.source_class.letter_of
        coords = tuple((r, letter_of(r), scale * p) for r, _, p in self.coords)
        return ARQuiver(self.rs, coords, self.arrows)


# ---------------------------------------------------------------------------
# A_{2n-2} -> A_{2n-1}: the insertion construction


def _insertion_word(word: Word, n: int, side: str) -> Word:
    """Surgery on a word adapted to a type A_{2n-2} quiver.

    Letters n-1 and n of the source are the special ones: every letter
    above n-1 is bumped up by one, an s_n is inserted between each
    consecutive pair of special letters, and one extra s_n goes in front
    of the first special letter (side '>') or after the last (side '<').
    """
    special = [k for k, i in enumerate(word) if i in (n - 1, n)]
    if not special:
        raise FoldingError("word has no letters in the special pair")
    out: list[int] = []
    last = special[-1]
    first = special[0]
    for k, i in enumerate(word):
        bumped = i + 1 if i > n - 1 else i
        if k == first and side == ">":
            out.append(n)
        out.append(bumped)
        if (k in special and k != last) or (k == last and side == "<"):
            out.append(n)
    return tuple(out)


def twist_quiver_from_a(q: DynkinQuiver, side: str) -> tuple[CommutationClass, ARQuiver]:
    """Class and coordinate quiver of the insertion construction on a
    Dynkin quiver of type A_{2n-2}."""
    if side not in (">", "<"):
        raise ValueError(f"side must be '>' or '<', got {side!r}")
    rs = q.rs
    if rs.type_tag != "A" or rs.rank % 2 or rs.rank < 2:
        raise FoldingError("insertion construction needs type A of even rank")
    n = rs.rank // 2 + 1
    target = root_system("A", rs.rank + 1)

    new_word = _insertion_word(adapted_word(q), n, side)
    cls = commutation_class(target, new_word)

    g = gamma_q(q)
    cells = [(i if i <= n - 1 else i + 1, p2) for _, i, p2 in g.coords]
    top = max(p2 for _, i, p2 in g.coords if i in (n - 1, n))
    top += 1 if side == ">" else -1
    cells += [(n, top - 2 * k) for k in range(2 * n - 1)]
    # arrows step by 1 (doubled) next to the inserted half-integer row n
    word, quiver = read_root_labels(
        target, cells, lambda i, j: 1 if n in (i, j) else 2
    )
    if commutation_class(target, word) != cls:
        raise FoldingError("constructed quiver does not read back to the class")
    return cls, quiver


# ---------------------------------------------------------------------------
# A_n -> D_{n+1}: the doubling construction


def twist_from_d(q: DynkinQuiver, choice: int) -> tuple[CommutationClass, ARQuiver]:
    """Class and quiver of the doubling construction for D_{n+1}.

    The flipped copy of Gamma_Q sits n+1 columns to the left, and the
    residue-n row alternates n, n+1 from the right; ``choice`` selects
    which of the two fork residues the right-most vertex gets.
    """
    rs = q.rs
    if rs.type_tag != "A":
        raise FoldingError("doubling construction needs a type A quiver")
    n = rs.rank
    if choice not in (n, n + 1):
        raise ValueError(f"choice must be {n} or {n + 1}")
    target = root_system("D", n + 1)

    g = gamma_q(q)
    cells: list[tuple[int, int]] = []
    for _, i, p2 in g.coords:
        cells.append((i, p2))
        cells.append((n + 1 - i, p2 - 2 * (n + 1)))

    fork = sorted((p2 for i, p2 in cells if i == n), reverse=True)
    first, second = (n, n + 1) if choice == n else (n + 1, n)
    relabel = {p2: second if k % 2 else first for k, p2 in enumerate(fork)}
    cells = [(relabel[p2] if i == n else i, p2) for i, p2 in cells]
    word, quiver = read_root_labels(target, cells, lambda i, j: 2)
    return commutation_class(target, word), quiver


# ---------------------------------------------------------------------------
# folding


def fold(quiver: ARQuiver, cls: CommutationClass) -> FoldedQuiver:
    """Collapse residues to orbits; type A doubles positions to integers."""
    rs = quiver.rs
    folding = folding_from(rs.type_tag, rs.rank)
    aut = rs.diagram_automorphism()
    scale = _unfolded_scale(rs.type_tag)
    coords = []
    for r, i, p2 in quiver.coords:
        if p2 % scale:
            raise FoldingError("expected integer positions")
        coords.append((r, aut.orbit_label[i], p2 // scale))
    fq = FoldedQuiver(rs, tuple(sorted(coords)), quiver.arrows, cls, folding)
    fq.by_coord()  # injectivity check
    return fq


# ---------------------------------------------------------------------------
# E_6 fixtures and the folded reflection algorithm


def _load_table(name: str) -> list[tuple[int, int, Root]]:
    out = []
    text = resources.files("arfold.data").joinpath(name).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        res, pos, digits = line.split()
        out.append((int(res), int(pos), tuple(int(c) for c in digits)))
    return out


def _folded(
    folding: Folding, coords: dict[int, tuple[int, int]], cls: CommutationClass
) -> FoldedQuiver:
    """The folded quiver on {root index: (orbit residue, position)}.

    Arrows run along the folded diagram, the path 1..n, and step
    min(d_i, d_j) ahead, d the folding's symmetrizer.
    """
    d = folding.symmetrizer
    adjacent = {i: [j for j in (i - 1, i + 1) if j in d] for i in d}
    arrows = arrows_by_step(coords, adjacent, lambda i, j: min(d[i], d[j]))
    return FoldedQuiver(
        cls.rs, tuple(sorted((r, i, p) for r, (i, p) in coords.items())), arrows, cls,
        folding,
    )


@lru_cache(maxsize=None)
def e6_folded_quiver() -> FoldedQuiver:
    """The printed 36-vertex folded quiver of E_6."""
    rs = root_system("E", 6)
    folding = folding_from("E", 6)
    cls = commutation_class(rs, folding.twisted_longest_word())
    rows = _load_table("e6_folded.txt")
    coords = {rs.root_index[root]: (res, pos) for res, pos, root in rows}
    return _folded(folding, coords, cls)


def e6_unfolded_step(i: int, j: int) -> int:
    """Doubled step between adjacent E_6 residues: the orbit symmetrizer."""
    d = folding_from("E", 6).symmetrizer
    label = root_system("E", 6).diagram_automorphism().orbit_label
    return 2 * min(d[label[i]], d[label[j]])


@lru_cache(maxsize=None)
def e6_unfolded_quiver() -> ARQuiver:
    """The printed unfolded companion table, stored as an ARQuiver."""
    rs = root_system("E", 6)
    rows = _load_table("e6_unfolded.txt")
    coords = {rs.root_index[root]: (res, 2 * pos) for res, pos, root in rows}
    arrows = arrows_by_step(coords, rs.adjacent, e6_unfolded_step)
    return ARQuiver(rs, tuple(sorted((r, i, p) for r, (i, p) in coords.items())), arrows)


def e6_folded_r1_table() -> list[tuple[int, int, Root]]:
    return _load_table("e6_folded_r1.txt")


def folded_sinks(fq: FoldedQuiver) -> list[int]:
    """Nodes i of the source diagram whose alpha_i vertex has no out-arrow."""
    rs = fq.rs
    tails = {a for a, _ in fq.arrows}
    return [i for i in rs.nodes if rs.simple_root_index[i] not in tails]


def _reflected_coords(fq: FoldedQuiver, i: int) -> dict[int, tuple[int, int]]:
    """The coordinates of the folded reflection of ``fq`` at alpha_i:
    every other label reflected by s_i, a permutation of the positive
    roots other than alpha_i, and the alpha_i vertex moved 2 h_dual to
    the left."""
    perm = fq.rs.reflection_permutation(i)  # alpha_i stays in place
    coords = {perm[r]: (res, pos) for r, res, pos in fq.coords}
    r_i = fq.rs.simple_root_index[i]
    res, pos = coords[r_i]
    coords[r_i] = (res, pos - 2 * fq.folding.h_dual)
    return coords


def _moved(fq: FoldedQuiver, i: int, cls: CommutationClass) -> FoldedQuiver:
    """The folded quiver of ``cls`` = r_i of ``fq``'s class: the
    coordinates of `_reflected_coords` with their arrows, recording
    (fq, i) as its ``origin``."""
    out = _folded(fq.folding, _reflected_coords(fq, i), cls)
    object.__setattr__(out, "origin", (fq, i))
    return out


def folded_reflection(fq: FoldedQuiver, i: int) -> FoldedQuiver:
    """One reflection step on a folded quiver, at the sink alpha_i.

    Refuses a letter outside the diagram, an alpha_i that is not a sink
    vertex and a class that does not move, then builds `_moved`.
    """
    rs = fq.rs
    if i not in rs.nodes:
        raise ValueError(f"letter {i!r} outside the index set of {rs}")
    r_i = rs.simple_root_index[i]
    if r_i not in fq.coord_of():
        raise FoldingError(f"alpha_{i} is not a vertex of this quiver")
    if any(a == r_i for a, _ in fq.arrows):
        raise FoldingError(f"alpha_{i} is not a sink of the folded quiver")
    new_cls = reflect(fq.source_class, i)
    if new_cls == fq.source_class:
        raise FoldingError(f"class has no member starting with s_{i}")
    return _moved(fq, i, new_cls)


def _seed(folding: Folding) -> FoldedQuiver:
    """The folded quiver of the class of ``folding.twisted_longest_word()``.

    xi is a height function on the folded path 1..n, xi(1) = 0: from one
    label to the adjacent label whose slot in the twisted Coxeter word
    comes later it drops by min(d_i, d_j), d the symmetrizer.  Letter
    m * width + s of the word sits at residue label(s) and position
    xi(label(s)) - 2m.
    """
    rs = root_system(*folding.source)
    label = rs.diagram_automorphism().orbit_label
    d = folding.symmetrizer
    slot = {label[i]: s for s, i in enumerate(folding.twisted_coxeter_word)}
    xi = {1: 0}
    for j in range(1, len(slot)):
        step = min(d[j], d[j + 1])
        xi[j + 1] = xi[j] - step if slot[j + 1] > slot[j] else xi[j] + step
    word = folding.twisted_longest_word()
    width = len(slot)
    coords = {}
    for k, beta in enumerate(root_sequence(rs, word)):
        res = label[word[k]]
        coords[rs.root_index[beta]] = (res, xi[res] - 2 * (k // width))
    return _folded(folding, coords, commutation_class(rs, word))


def _assert_coords_shift_equal(
    ca: dict[int, tuple[int, int]], cb: dict[int, tuple[int, int]]
) -> None:
    """Same vertices, same residues and one global position offset."""
    if set(ca) != set(cb):
        raise AssertionError("same class, different folded vertex sets")
    offsets = {cb[r][1] - ca[r][1] for r in ca}
    residues_differ = any(cb[r][0] != ca[r][0] for r in ca)
    if residues_differ or len(offsets) != 1:
        raise AssertionError("same class, incompatible folded quivers")


def _assert_shift_equal(a: FoldedQuiver, b: FoldedQuiver) -> None:
    _assert_coords_shift_equal(a.coord_of(), b.coord_of())
    if a.arrows != b.arrows:
        raise AssertionError("same class, different folded arrows")


@lru_cache(maxsize=None)
def twisted_folded_quivers(type_tag: str, rank: int) -> dict[CommutationClass, FoldedQuiver]:
    """Folded quivers for every class of the twisted adapted point.

    Reads the BFS of `words.cluster_moves` from the seed's class: the
    folded sinks of each class's quiver must be the letters that move
    the class, and a class reached first by r_i gets the folded
    reflection of its parent at alpha_i (`_moved`).  A class reached
    again must agree up to a global position shift; arrows are a
    function of the coordinates and a shift keeps them, so a revisit
    compares its reflected coordinates alone.  The first quiver reached
    is kept, so each ``origin`` is an edge of the BFS tree and the
    insertion order puts every parent before its children.
    """
    start = _seed(folding_from(type_tag, rank))
    found = {start.source_class: start}
    for cls, moves in cluster_moves(start.source_class):
        fq = found[cls]
        movers = [i for i, _, _ in moves]
        sinks = folded_sinks(fq)
        for i in sinks:
            if i not in movers:
                raise FoldingError(f"class has no member starting with s_{i}")
        for i in movers:
            if i not in sinks:
                raise FoldingError(f"s_{i} moves the class but alpha_{i} is not a folded sink")
        for i, d, new in moves:
            if new:
                found[d] = _moved(fq, i, d)
            else:
                _assert_coords_shift_equal(found[d].coord_of(), _reflected_coords(fq, i))
    return found
