"""Twisted adapted classes and their (folded) AR quivers.

Three constructions produce quivers with coordinates:

* the insertion construction A_{2n-2} -> A_{2n-1}, which adds a new row
  of residue-n vertices at half-integer positions,
* the doubling construction A_n -> D_{n+1}, which glues an upside-down
  copy of Gamma_Q to its left and alternates the fork residues,
* the E_6 tables shipped as fixtures, moved around by the folded
  reflection algorithm.

Folded coordinates are plain integers: for a type-A source they are the
doubled half-integer positions, otherwise positions are kept as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .words import CommutationClass, Word, commutation_class, reflect
from .arquiver import (
    ARQuiver,
    DynkinQuiver,
    all_quivers,
    arrows_by_step,
    gamma_q,
    read_root_labels,
)


@dataclass(frozen=True)
class FoldedQuiver:
    """An AR quiver with residues collapsed to automorphism orbits."""

    rs: RootSystem
    coords: tuple[tuple[int, int, int], ...]  # (root_idx, orbit_residue, position)
    arrows: frozenset[tuple[int, int]]
    source_class: CommutationClass

    def coord_of(self) -> dict[int, tuple[int, int]]:
        return {r: (i, p) for r, i, p in self.coords}

    def by_coord(self) -> dict[tuple[int, int], int]:
        out = {(i, p): r for r, i, p in self.coords}
        if len(out) != len(self.coords):
            raise FoldingError("folded coordinates collide")
        return out

    def folding(self) -> Folding:
        return folding_from(self.rs.type_tag, self.rs.rank)

    def root_labels(self) -> dict[tuple[int, int], Root]:
        rs = self.rs
        return {(i, p): rs.positive_roots[r] for r, i, p in self.coords}


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


def twist_from_a(
    source_word_or_quiver, side: str, rs_source: RootSystem | None = None
) -> CommutationClass:
    """The twisted adapted class of A_{2n-1} built from adapted A_{2n-2} data."""
    cls, _ = twist_quiver_from_a(source_word_or_quiver, side, rs_source)
    return cls


def twist_quiver_from_a(
    source, side: str, rs_source: RootSystem | None = None
) -> tuple[CommutationClass, ARQuiver]:
    """Class and coordinate quiver of the insertion construction.

    ``source`` is either a Dynkin quiver of type A_{2n-2} or a word
    adapted to one (then ``rs_source`` names its root system).
    """
    from .arquiver import adapted_quiver_of, adapted_word

    if side not in (">", "<"):
        raise ValueError(f"side must be '>' or '<', got {side!r}")
    if isinstance(source, DynkinQuiver):
        q = source
        word = adapted_word(q)
    else:
        word = tuple(source)
        if rs_source is None:
            raise ValueError("rs_source is required when passing a word")
        q = adapted_quiver_of(rs_source, word)
        if q is None:
            raise FoldingError("word is not adapted to any Dynkin quiver")
    rs = q.rs
    if rs.type_tag != "A" or rs.rank % 2 or rs.rank < 2:
        raise FoldingError("insertion construction needs type A of even rank")
    n = rs.rank // 2 + 1
    target = root_system("A", rs.rank + 1)

    new_word = _insertion_word(word, n, side)
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
    aut = rs.diagram_automorphism()
    is_a = rs.type_tag == "A"
    coords = []
    for r, i, p2 in quiver.coords:
        if is_a:
            pos = p2  # doubled half-integers become the folded integers
        else:
            if p2 % 2:
                raise FoldingError("expected integer positions")
            pos = p2 // 2
        coords.append((r, aut.orbit_label[i], pos))
    fq = FoldedQuiver(rs, tuple(sorted(coords)), quiver.arrows, cls)
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


def _folded_from_table(
    rows: list[tuple[int, int, Root]], cls: CommutationClass
) -> FoldedQuiver:
    rs = root_system("E", 6)
    d = folding_from("E", 6).symmetrizer
    coords = {}
    for res, pos, root in rows:
        coords[rs.root_index[root]] = (res, pos)
    # the folded diagram F_4 is the path 1-2-3-4
    adjacent = {i: [j for j in (i - 1, i + 1) if j in d] for i in d}
    arrows = arrows_by_step(coords, adjacent, lambda i, j: min(d[i], d[j]))
    return FoldedQuiver(
        rs, tuple(sorted((r, i, p) for r, (i, p) in coords.items())), arrows, cls
    )


@lru_cache(maxsize=None)
def e6_folded_quiver() -> FoldedQuiver:
    """The printed 36-vertex folded quiver of E_6."""
    rs = root_system("E", 6)
    cls = commutation_class(rs, folding_from("E", 6).twisted_longest_word())
    return _folded_from_table(_load_table("e6_folded.txt"), cls)


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
    out_deg = {r: 0 for r, _, _ in fq.coords}
    for a, _ in fq.arrows:
        out_deg[a] += 1
    sinks = []
    for i in rs.nodes:
        r = rs.simple_root_index[i]
        if r in out_deg and out_deg[r] == 0:
            sinks.append(i)
    return sinks


def folded_reflection(fq: FoldedQuiver, i: int) -> FoldedQuiver:
    """One reflection step on a folded quiver, at the sink alpha_i.

    Removes the alpha_i vertex with its entering arrows, re-adds it a
    full (symmetrizer x dual Coxeter number) window to the left with
    arrows to the adjacent rows, and reflects every other label by s_i.
    """
    rs = fq.rs
    folding = fq.folding()
    _, n = folding.target
    d = folding.symmetrizer
    shift = 2 * folding.h_dual
    r_i = rs.simple_root_index[i]
    coord = fq.coord_of()
    if r_i not in coord:
        raise FoldingError(f"alpha_{i} is not a vertex of this quiver")
    if any(a == r_i for a, _ in fq.arrows):
        raise FoldingError(f"alpha_{i} is not a sink of the folded quiver")
    res_i, pos_i = coord[r_i]
    new_pos = pos_i - shift

    def relabel(r: int) -> int:
        if r == r_i:
            return r_i
        return rs.root_index[rs.reflect(rs.positive_roots[r], i)]

    coords = []
    for r, res, pos in fq.coords:
        if r == r_i:
            coords.append((r_i, res_i, new_pos))
        else:
            coords.append((relabel(r), res, pos))
    arrows = {
        (relabel(a), relabel(b)) for a, b in fq.arrows if b != r_i
    }
    by_coord = {(res, pos): r for r, res, pos in coords}
    for j in (res_i - 1, res_i + 1):
        if not 1 <= j <= n:
            continue
        s = by_coord.get((j, new_pos + min(d[res_i], d[j])))
        if s is not None:
            arrows.add((r_i, s))
    new_cls = reflect(fq.source_class, i, "right")
    if new_cls == fq.source_class:
        raise FoldingError(f"class has no member starting with s_{i}")
    out = FoldedQuiver(rs, tuple(sorted(coords)), frozenset(arrows), new_cls)
    out.by_coord()
    return out


@lru_cache(maxsize=None)
def e6_folded_quivers_by_class() -> dict[CommutationClass, FoldedQuiver]:
    """A folded quiver for each of the 32 twisted adapted classes of E_6.

    Produced by BFS with folded reflections from the fixture quiver; a
    class reached twice must agree up to a global position shift.
    """
    start = e6_folded_quiver()
    found: dict[CommutationClass, FoldedQuiver] = {start.source_class: start}
    frontier = [start]
    while frontier:
        new = []
        for fq in frontier:
            for i in folded_sinks(fq):
                nxt = folded_reflection(fq, i)
                prev = found.get(nxt.source_class)
                if prev is None:
                    found[nxt.source_class] = nxt
                    new.append(nxt)
                else:
                    _assert_shift_equal(prev, nxt)
        frontier = new
    return found


def _assert_shift_equal(a: FoldedQuiver, b: FoldedQuiver) -> None:
    ca, cb = a.coord_of(), b.coord_of()
    if set(ca) != set(cb):
        raise AssertionError("same class, different folded vertex sets")
    offsets = {cb[r][1] - ca[r][1] for r in ca}
    residues_differ = any(cb[r][0] != ca[r][0] for r in ca)
    if residues_differ or len(offsets) != 1:
        raise AssertionError("same class, incompatible folded quivers")
    if a.arrows != b.arrows:
        raise AssertionError("same class, different folded arrows")


# ---------------------------------------------------------------------------
# enumerating all twisted classes with quivers, per source type


@lru_cache(maxsize=None)
def twisted_folded_quivers(type_tag: str, rank: int) -> dict[CommutationClass, FoldedQuiver]:
    """Folded quivers for every class of the twisted adapted point."""
    folding_from(type_tag, rank)  # FoldingError when there is no folding
    if type_tag == "E":
        return e6_folded_quivers_by_class()
    sources = all_quivers(root_system("A", rank - 1))
    if type_tag == "A":
        built = (twist_quiver_from_a(q, side) for q in sources for side in (">", "<"))
    else:
        n = rank - 1
        built = (twist_from_d(q, choice) for q in sources for choice in (n, n + 1))
    out: dict[CommutationClass, FoldedQuiver] = {}
    for cls, quiver in built:
        if cls in out:
            raise AssertionError("twisted construction repeated a class")
        out[cls] = fold(quiver, cls)
    return out
