"""Twisted adapted classes and their (folded) AR quivers.

One path builds the folded quiver of every class of a twisted adapted
point: a seed quiver for the class of the folding's twisted longest
word, read off its ``Folding`` record, spread to the other classes by
folded reflections along the cluster-point BFS of ``words``, so a class
reached again costs only its reflected coordinates.  It is the one walk
of a twisted point: ``words.twisted_adapted_point`` is the set of its
classes, and its memo is the one memo of the point.

The printed constructions stay as references for it:

* the insertion construction A_{2n-2} -> A_{2n-1}, which adds a new row
  of residue-n vertices at half-integer positions,
* the doubling construction A_n -> D_{n+1}, which glues an upside-down
  copy of Gamma_Q to its left and alternates the fork residues;

``fold`` collapses their residues to orbits.  The printed E_6 tables
are test fixtures.

A folded quiver stores its coordinates, one (orbit residue, position)
cell per root, and its sinks, read off them when it is made from the
one set of its cells that also refuses a collision; its arrows are read
off the cells on demand.  Folded coordinates are plain integers: for a
type-A source they are the doubled half-integer positions, otherwise
positions are kept as they are.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .rootsys import (
    Folding,
    FoldingError,
    Frozen,
    RootSystem,
    folding_from,
    root_system,
)
from .words import (
    CommutationClass,
    Word,
    _by_occurrence,
    cluster_moves,
    commutation_class,
    reflect,
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


class FoldedQuiver(Frozen):
    """An AR quiver with residues collapsed to automorphism orbits.

    ``cells`` holds one (orbit residue, position) per root, indexed by
    root index; colliding cells are a FoldingError.  ``sinks`` are the
    nodes i of the source diagram whose alpha_i vertex has no out-arrow,
    read off the same set of the cells when the quiver is made: the
    arrows out of a cell (res, p) step to (j, p + step) for each of the
    folding's ``steps`` at res.  The arrows are not stored: `arrows`
    reads them off the cells.  ``folding`` is the record it was folded
    by; it takes no part in equality or hashing, nor do the sinks.  The
    move that made a quiver is its class's ``parent``.
    """

    _shown = ("rs", "cells", "source_class", "folding")
    __slots__ = _shown + ("sinks",)

    def __init__(self, rs: RootSystem, cells: tuple[tuple[int, int], ...],
                 source_class: CommutationClass, folding: Folding):
        taken = set(cells)
        if len(taken) != len(cells):
            raise FoldingError("coordinates collide")
        steps, sinks = folding.steps, []
        for i, r in rs.simple_root_index.items():
            res, p = cells[r]
            for j, step in steps[res]:
                if (j, p + step) in taken:
                    break
            else:
                sinks.append(i)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "source_class", source_class)
        object.__setattr__(self, "folding", folding)
        object.__setattr__(self, "sinks", tuple(sinks))

    def _key(self) -> tuple:
        return (self.rs, self.cells, self.source_class)

    def arrows(self) -> frozenset[tuple[int, int]]:
        """Arrows along the folded diagram, the path 1..n, each stepping
        min(d_i, d_j) ahead, d the folding's symmetrizer."""
        d = self.folding.symmetrizer
        adjacent = {i: [j for j in (i - 1, i + 1) if j in d] for i in d}
        return arrows_by_step(dict(enumerate(self.cells)), adjacent, lambda i, j: min(d[i], d[j]))

    def unfolded(self) -> ARQuiver:
        """The same quiver with the residues of the source class and
        doubled unfolded positions."""
        scale = _unfolded_scale(self.rs.type_tag)
        letter_of = self.source_class.letter_of
        coords = tuple((r, letter_of(r), scale * p) for r, (_, p) in enumerate(self.cells))
        return ARQuiver(self.rs, coords, self.arrows())


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
    label = folding.automorphism.orbit_label
    scale = _unfolded_scale(rs.type_tag)
    cells = [None] * rs.num_positive
    for r, i, p2 in quiver.coords:
        if p2 % scale:
            raise FoldingError("expected integer positions")
        cells[r] = (label[i], p2 // scale)
    return FoldedQuiver(rs, tuple(cells), cls, folding)


# ---------------------------------------------------------------------------
# the folded reflection algorithm


def _reflector(rs: RootSystem, folding: Folding):
    """The folded reflection of one walk over quivers of ``rs``: a function
    of (cells, i) that gives the cells of the reflection at alpha_i, every
    other label reflected by s_i, a permutation of the positive roots
    other than alpha_i, and the alpha_i vertex moved 2 h_dual to the left.

    Each node gets one ``itemgetter`` of its permutation, built when the
    walk starts, that reads the moved alpha_i cell from one slot past the
    cells.
    """
    n, gap = rs.num_positive, 2 * folding.h_dual
    tables = {}
    for i in rs.nodes:
        perm = list(rs.reflection_permutation(i))  # an involution
        r_i = rs.simple_root_index[i]
        perm[r_i] = n
        tables[i] = (r_i, itemgetter(*perm))

    def reflected(cells: tuple, i: int) -> tuple:
        r_i, get = tables[i]
        res, pos = cells[r_i]
        return get(cells + ((res, pos - gap),))

    return reflected


def folded_sinks(fq: FoldedQuiver) -> list[int]:
    """Nodes i of the source diagram whose alpha_i vertex has no out-arrow,
    as the quiver read them off its cells when it was made."""
    return list(fq.sinks)


def folded_reflection(fq: FoldedQuiver, i: int) -> FoldedQuiver:
    """One reflection step on a folded quiver, at the sink alpha_i.

    Refuses a letter outside the diagram, an alpha_i that is not a sink
    vertex and a class that does not move, then moves the cells by
    `_reflector`.
    """
    rs = fq.rs
    if i not in rs.nodes:
        raise ValueError(f"letter {i!r} outside the index set of {rs}")
    if i not in folded_sinks(fq):
        raise FoldingError(f"alpha_{i} is not a sink of the folded quiver")
    new_cls = reflect(fq.source_class, i)
    if new_cls == fq.source_class:
        raise FoldingError(f"class has no member starting with s_{i}")
    return FoldedQuiver(rs, _reflector(rs, fq.folding)(fq.cells, i), new_cls, fq.folding)


def _seed(folding: Folding) -> FoldedQuiver:
    """The folded quiver of the class of ``folding.twisted_longest_word()``.

    xi is a height function on the folded path 1..n, xi(1) = 0: from one
    label to the adjacent label whose slot in the twisted Coxeter word
    comes later it drops by min(d_i, d_j), d the symmetrizer.  Letter
    m * width + s of the word sits at residue label(s) and position
    xi(label(s)) - 2m.
    """
    rs = root_system(*folding.source)
    label = folding.automorphism.orbit_label
    d = folding.symmetrizer
    slot = {label[i]: s for s, i in enumerate(folding.twisted_coxeter_word)}
    xi = {1: 0}
    for j in range(1, len(slot)):
        step = min(d[j], d[j + 1])
        xi[j + 1] = xi[j] - step if slot[j + 1] > slot[j] else xi[j] + step
    word = folding.twisted_longest_word()
    width = len(slot)
    cls = commutation_class(rs, word)
    cells = [None] * rs.num_positive
    for k, r in enumerate(_by_occurrence(cls.canonical_word, cls.roots(), word)):
        res = label[word[k]]
        cells[r] = (res, xi[res] - 2 * (k // width))
    return FoldedQuiver(rs, tuple(cells), cls, folding)


def _assert_coords_shift_equal(ca: tuple, cb: tuple) -> None:
    """Two cell tuples of one root system, indexed by root: every cell
    keeps its residue and moves by one global position offset, the first
    cell's.  Compared as tuples, shifted only when that offset is nonzero."""
    (ra, pa), (rb, pb) = ca[0], cb[0]
    shift = pb - pa
    if shift:
        ca = tuple([(r, p + shift) for r, p in ca])
    if ra != rb or ca != cb:
        raise AssertionError("same class, incompatible folded quivers")


@lru_cache(maxsize=None)
def twisted_folded_quivers(type_tag: str, rank: int) -> dict[CommutationClass, FoldedQuiver]:
    """Folded quivers for every class of the twisted adapted point.

    Reads the BFS of `words.cluster_moves` from the seed's class: the
    folded sinks of each class's quiver, read off its cells, must be the
    letters that move the class, and a class reached first by r_i gets
    the folded reflection of its parent at alpha_i.  No arrows are
    built: they are a function of the cells, and a shift keeps them, so
    a class reached again must agree with its first quiver cell by cell
    up to one global position shift.  Each quiver's sinks are read off
    its cells once, when it is made (`FoldedQuiver`), and the reflections
    (`_reflector`) are built once for the walk and dropped with it.  The
    first class reached is kept, so each key's ``parent`` is an edge of
    the BFS tree, its quiver this dict's entry, and the insertion order
    puts every parent before its children.
    """
    folding = folding_from(type_tag, rank)
    start = _seed(folding)
    rs = start.rs
    reflected = _reflector(rs, folding)
    found = {start.source_class: start}
    for cls, moves in cluster_moves(start.source_class):
        fq = found[cls]
        cells = fq.cells
        movers = [i for i, _, _ in moves]
        got = folded_sinks(fq)
        if got != movers:
            for i in got:
                if i not in movers:
                    raise FoldingError(f"class has no member starting with s_{i}")
            i = next(i for i in movers if i not in got)
            raise FoldingError(f"s_{i} moves the class but alpha_{i} is not a folded sink")
        for i, d, new in moves:
            moved = reflected(cells, i)
            if new:
                found[d] = FoldedQuiver(rs, moved, d, folding)
            else:
                _assert_coords_shift_equal(found[d].cells, moved)
    return found
