"""Reduced words of the longest element and their commutation classes.

A commutation class is represented by its canonical word, the
lexicographically least member.  Internally a class is a heap: every
member word induces the same bijection (letter occurrence -> positive
root), and the member words are exactly the linear extensions of the
partial order generated by non-commuting occurrences.  That partial
order is the convex order of the class.

Each is read from a word in one pass, linear in its length times the
number of neighbours of a node.  Occurrences of one letter never
commute, so the last occurrence of each letter so far dominates the
earlier ones: the heap keeps, per letter, that occurrence together with
everything below it, and a new occurrence of i sits above the entries of
i and of its neighbours.  That pass, `_order_pass`, is the one builder
of order masks: read along the canonical word it gives `below`, read
backwards it gives `above`.  `bits` is the one walk over the set bits
of a mask.  The canonical word waits each occurrence on the previous
occurrence of its own letter and of each neighbour, and takes the least
available letter first.
`linear_extensions` is the one enumerator of the words of such an
order: the member words of a class, and the readings of a quiver in
``arquiver``.

A reflection functor r_i moves the first s_i of a word to the end as
s_{i*}.  Occurrences of one letter never commute, so the first s_i of
every member word is the same heap element, and it can start a member
word iff the letters before it in the canonical word all commute with i.
The moved word needs no new check: s_i w_0 = w_0 s_{i*}, so it is a
reduced word of w_0 again.  Reducedness is checked only where a word
enters: `commutation_class`, and so `contains`, the seeds of the cluster
points and the CLI's ``--class``.

The r_i alone reach the whole cluster point, the closure under r_i and
the left moves, which take the last s_i to the front as s_{i*}.  Let
c = [i w'] and d = r_i(c) = [w' i*], N letters.  Moving the N letters of
w' i* to the end one at a time gives w'* i, and moving its first N - 1
letters the same way gives i w'.  Each of these 2N - 1 moves takes the
first letter of a member word of its class, so it is an r-move: the left
move from d back to c is a path of r-moves.

The cluster-point BFS, `cluster_moves`, compares classes by projection
keys.  Two words are commutation-equivalent iff they have the same
projection onto every pair of non-commuting letters (the projection
lemma of trace theory, Diekert and Rozenberg, *The Book of Traces*,
1995).  Each letter lies on a diagram edge when the rank is at least 2,
and an edge's projection fixes the counts of its two letters, so the
pairs {a, b} of the edges suffice.  `projection_key` writes the word
restricted to {a, b} as an int: a leading 1, then one bit per letter, 1
for b.  r_i changes only the projections at i and i*: `moved_key` drops
the first letter of each edge at i, which must be i for the class to
move, and appends i* to each edge at i*.  So a class is canonicalised
only the first time its key is reached.

`cluster_point` is the set of classes that BFS yields, as for
`adapted_point`.  A twisted adapted point is walked once, by
``twistfold.twisted_folded_quivers`` over `cluster_moves`, and
`twisted_adapted_point` is the set of its classes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import Root, RootSystem, root_system

Word = tuple[int, ...]

DEFAULT_CAP = 10_000_000


class NotReducedError(ValueError):
    pass


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured cap; failing loudly."""


def root_sequence(rs: RootSystem, word: Word) -> list[Root]:
    """The roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) of a word.

    One pass: images[j] is w(alpha_j) for the prefix w read so far, so
    beta_k = images[i_k], and appending s_i sets w s_i(alpha_j) =
    w(alpha_j) - a_ij w(alpha_i).  Raises NotReducedError when a beta_k
    is negative or repeats, which happens exactly when the word is not
    reduced.
    """
    images = {j: rs.simple_root(j) for j in rs.nodes}
    seen: set[Root] = set()
    out: list[Root] = []
    for k, i in enumerate(word):
        if i not in rs.cartan:
            raise ValueError(f"letter {i} outside the index set of {rs}")
        beta = images[i]
        # every image is plus or minus a root; root_index holds the positive ones
        if beta not in rs.root_index or beta in seen:
            raise NotReducedError(f"word is not reduced at position {k + 1}")
        seen.add(beta)
        out.append(beta)
        row = rs.cartan[i]
        for j in rs.adjacent[i]:
            c = row[j]
            images[j] = tuple(x - c * y for x, y in zip(images[j], beta))
        images[i] = tuple(-y for y in beta)
    return out


def bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def linear_extensions(before, letter, cap: int = DEFAULT_CAP) -> list[Word]:
    """The words of the linear extensions of an order on 0..m-1, capped.

    Element v may come only after the elements of the mask before[v], and
    it reads as letter[v].  Extensions come depth first, the least
    available element first; more than ``cap`` is a CapExceededError.
    """
    out: list[Word] = []
    prefix: list[int] = []

    def rec(remaining: int, done: int):
        if not remaining:
            out.append(tuple(prefix))
            if len(out) > cap:
                raise CapExceededError(f"linear extensions exceed cap {cap}")
            return
        for v in bits(remaining):
            if before[v] & ~done:
                continue
            prefix.append(letter[v])
            rec(remaining ^ 1 << v, done | 1 << v)
            prefix.pop()

    rec((1 << len(before)) - 1, 0)
    return out


def _order_pass(adjacent, idx, word) -> dict[int, int]:
    """{r: mask of the roots before r in the order}, read along ``word``.

    idx[k] is the root of the occurrence word[k].  Read forwards, bit r'
    of the mask of r is set iff r' comes before r in every member word;
    read backwards, iff r' comes after r.  The dict follows ``idx``.
    """
    masks: dict[int, int] = {}
    # upto[i]: the last occurrence of letter i so far and everything before it
    upto: dict[int, int] = {}
    for r, i in zip(idx, word):
        acc = upto.get(i, 0)
        for j in adjacent[i]:
            acc |= upto.get(j, 0)
        masks[r] = acc
        upto[i] = acc | 1 << r
    return masks


def _heap(rs: RootSystem, word: Word) -> tuple[dict[int, int], dict[int, int]]:
    """The heap of a reduced word as (below, letter), keyed by root index.

    below[r] has bit r' set iff root r' comes strictly before r in every
    member word of the class of ``word``; letter[r] is the letter whose
    occurrence gives root r.  Every member word gives the same heap.
    """
    idx = [rs.root_index[b] for b in root_sequence(rs, word)]
    return _order_pass(rs.adjacent, idx, word), dict(zip(idx, word))


@dataclass(frozen=True)
class CommutationClass:
    """A commutation class of reduced words of w_0, canonically keyed.

    Two classes are equal when their root systems have the same type and
    rank and their canonical words agree.
    """

    rs: RootSystem
    canonical_word: Word

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    def _data(self):
        cache = self._cache
        if "below" not in cache:
            cache["below"], cache["letter"] = _heap(self.rs, self.canonical_word)
        return cache

    @property
    def length(self) -> int:
        return len(self.canonical_word)

    def letter_of(self, root_idx: int) -> int:
        return self._data()["letter"][root_idx]

    def below(self) -> dict[int, int]:
        """Strict convex-order bitmasks: bit r' of below[r] iff r' < r."""
        return self._data()["below"]

    def precedes(self, a: int, b: int) -> bool:
        """True iff root a comes before root b in every member word."""
        return bool(self.below()[b] >> a & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.precedes(a, b) or self.precedes(b, a)

    def above(self) -> list[int]:
        """Strict convex-order bitmasks: bit r' of above[r] iff r < r'.

        The heap pass of `below`, run backwards over the canonical word;
        built on the first interval query.
        """
        cache = self._cache
        if "above" not in cache:
            masks = _order_pass(
                self.rs.adjacent, list(self.below())[::-1], self.canonical_word[::-1]
            )
            cache["above"] = [masks[r] for r in range(self.length)]
        return cache["above"]

    def interval(self, a: int, b: int) -> list[int]:
        """Root indices strictly between a and b in the convex order: the
        bits of above[a] & below[b], listed in canonical-word order."""
        below = self.below()
        mask = self.above()[a] & below[b]
        return [r for r in below if mask >> r & 1]

    def members(self, cap: int = DEFAULT_CAP) -> list[Word]:
        """All member words (linear extensions of the heap), capped."""
        data = self._data()
        return linear_extensions(data["below"], data["letter"], cap)

    def member_count(self, cap: int = DEFAULT_CAP) -> int:
        """Number of member words, via dynamic programming on downsets."""
        below = self.below()
        all_mask = (1 << self.length) - 1
        counts = {0: 1}
        frontier = [0]
        total_states = 0
        while frontier:
            new: dict[int, int] = {}
            for dn in frontier:
                c = counts[dn]
                for v in bits(all_mask & ~dn):
                    if below[v] & ~dn:
                        continue
                    nxt = dn | 1 << v
                    new[nxt] = new.get(nxt, 0) + c
            total_states += len(new)
            if total_states > cap:
                raise CapExceededError(f"downset count exceeds cap {cap}")
            counts.update(new)
            frontier = list(new)
        return counts[all_mask]

    def contains(self, word: Word) -> bool:
        try:
            return commutation_class(self.rs, word) == self
        except NotReducedError:
            return False


def _kahn(rs: RootSystem, word: Word) -> Word:
    """Lexicographically least member of the class of a reduced word, by
    Kahn's algorithm on the heap; the word is not checked.

    Position p waits on the previous occurrence of its own letter and of
    each neighbour.  Two available occurrences never share a letter, so
    taking the least available letter each time gives the least member.
    """
    waits = [0] * len(word)
    after: list[list[int]] = [[] for _ in word]
    last: dict[int, int] = {}
    for p, i in enumerate(word):
        for j in (i, *rs.adjacent[i]):
            if j in last:
                waits[p] += 1
                after[last[j]].append(p)
        last[i] = p
    ready = [(i, p) for p, i in enumerate(word) if not waits[p]]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        i, p = heapq.heappop(ready)
        out.append(i)
        for q in after[p]:
            waits[q] -= 1
            if not waits[q]:
                heapq.heappush(ready, (word[q], q))
    return tuple(out)


def commutation_class(rs: RootSystem, word: Word) -> CommutationClass:
    """The commutation class of a reduced word of w_0."""
    if len(word) != rs.num_positive:
        raise NotReducedError(
            f"word of length {len(word)} is not a reduced word of w_0 "
            f"(need {rs.num_positive} letters)"
        )
    root_sequence(rs, word)  # refuses a word that is not reduced
    return CommutationClass(rs, _kahn(rs, word))


def reflect(cls: CommutationClass, i: int) -> CommutationClass:
    """The reflection functor r_i; returns the input class at a fixed point.

    Moves the first s_i of the canonical word to the end as s_{i*}.  It
    moves iff the letters passed all commute with i, i.e. iff some member
    word starts with s_i.  Since s_i w_0 = w_0 s_{i*}, the moved word is
    again a reduced word of w_0, so it is canonicalised without the
    reducedness check.
    """
    rs = cls.rs
    if i not in rs.nodes:
        raise ValueError(f"letter {i!r} outside the index set of {rs}")
    word = cls.canonical_word
    k = word.index(i)
    if any(rs.cartan[j][i] for j in word[:k]):
        return cls
    return CommutationClass(rs, _kahn(rs, word[:k] + word[k + 1:] + (rs.star()[i],)))


Key = tuple[int, ...]


def edge_slots(rs: RootSystem) -> dict[int, tuple[tuple[int, int], ...]]:
    """{i: ((slot, bit), ...)}: for each edge at node i, its slot in a
    projection key and the bit that letter i writes there."""
    slots: dict[int, list[tuple[int, int]]] = {i: [] for i in rs.nodes}
    for s, (a, b) in enumerate(rs.edges):
        slots[a].append((s, 0))
        slots[b].append((s, 1))
    return {i: tuple(at) for i, at in slots.items()}


def projection_key(rs: RootSystem, word: Word) -> Key:
    """One int per edge (a, b) of ``rs.edges``: the word restricted to
    {a, b}, as a leading 1 followed by one bit per letter, 1 for b.
    Equal keys are equal classes, by the projection lemma."""
    slots = edge_slots(rs)
    key = [1] * len(rs.edges)
    for i in word:
        for s, b in slots[i]:
            key[s] = key[s] << 1 | b
    return tuple(key)


def moved_key(key: Key, slots, i: int, i_star: int) -> Key | None:
    """The projection key of ``reflect(cls, i)`` for a class keyed
    ``key``, or None when the class does not move.

    ``slots`` is ``edge_slots`` of the root system.  The move needs every
    edge at i to start with i; it drops that letter and appends i* to
    every edge at i*.
    """
    out = list(key)
    for s, b in slots[i]:
        k = out[s]
        first = k.bit_length() - 2  # the bit of the first letter
        if k >> first & 1 != b:
            return None
        out[s] = k & ((1 << first) - 1) | 1 << first
    for s, b in slots[i_star]:
        out[s] = out[s] << 1 | b
    return tuple(out)


def cluster_moves(cls: CommutationClass):
    """BFS over the cluster point of ``cls`` by the reflection functors.

    Yields each class c of the point once, ``cls`` first and every class
    after the class it was first reached from, together with its moves
    [(i, reflect(c, i), new), ...] for the letters i that move c, in node
    order; ``new`` is true iff the BFS reaches that class there first.
    Classes are told apart by projection key, so `reflect` canonicalises
    only a class not reached before.  A class reached under a second key
    is refused, which also bounds the BFS by the number of classes.
    """
    rs = cls.rs
    slots, star = edge_slots(rs), rs.star()
    start = projection_key(rs, cls.canonical_word)
    by_key = {start: cls}
    classes = {cls}
    queue = [(start, cls)]
    for key, c in queue:  # grows as the BFS reaches new classes
        moves = []
        for i in rs.nodes:
            k = moved_key(key, slots, i, star[i])
            if k is None:
                continue
            d = by_key.get(k)
            new = d is None
            if new:
                d = by_key[k] = reflect(c, i)
                if d in classes:
                    raise AssertionError("one class under two projection keys")
                classes.add(d)
                queue.append((k, d))
            moves.append((i, d, new))
        yield c, moves


def cluster_point(cls: CommutationClass) -> frozenset[CommutationClass]:
    """The cluster point of a class: the classes `cluster_moves` reaches."""
    return frozenset(c for c, _ in cluster_moves(cls))


def coxeter_composition(
    point: frozenset[CommutationClass] | CommutationClass, aut
) -> tuple[int, ...]:
    """Letter counts per orbit of the automorphism, one entry per label.

    The counts are the same for every member word of every class of a
    cluster point; this is validated across the classes given.
    """
    classes = [point] if isinstance(point, CommutationClass) else sorted(
        point, key=lambda c: c.canonical_word
    )
    comps = set()
    for c in classes:
        counts: dict[int, int] = {}
        for i in c.canonical_word:
            lab = aut.orbit_label[i]
            counts[lab] = counts.get(lab, 0) + 1
        comps.add(tuple(counts.get(lab, 0) for lab in aut.orbit_labels()))
    if len(comps) != 1:
        raise AssertionError("Coxeter composition differs across the cluster point")
    return comps.pop()


def is_foldable(point, aut) -> bool:
    comp = coxeter_composition(point, aut)
    return len(set(comp)) == 1


def twisted_coxeter_elements(rs: RootSystem, aut) -> list[Word]:
    """All twisted Coxeter words: one reflection per orbit, in any order.

    Words giving the same group element are deduplicated; the
    lexicographically least word represents each element.
    """
    from itertools import permutations, product

    orbits = sorted({tuple(sorted(aut.orbit(i))) for i in rs.nodes})
    best: dict[tuple[Root, ...], Word] = {}
    for choice in product(*orbits):
        for order in permutations(choice):
            key = tuple(
                rs.apply_word(order, rs.simple_root(j)) for j in rs.nodes
            )
            if key not in best or order < best[key]:
                best[key] = order
    return sorted(best.values())


def twisted_adapted_point(
    type_tag: str, rank: int
) -> frozenset[CommutationClass]:
    """The foldable cluster point built from a twisted Coxeter element:
    the classes of `twistfold.twisted_folded_quivers`, one BFS from the
    class of the folding's twisted longest word."""
    from .twistfold import twisted_folded_quivers

    return frozenset(twisted_folded_quivers(type_tag, rank))


@lru_cache(maxsize=None)
def adapted_point(type_tag: str, rank: int) -> frozenset[CommutationClass]:
    """The cluster point of all classes adapted to Dynkin quivers, walked
    from the quiver with every edge (a, b) of the diagram as b -> a."""
    from . import arquiver

    rs = root_system(type_tag, rank)
    q = arquiver.DynkinQuiver(rs, frozenset((b, a) for a, b in rs.edges))
    word = arquiver.adapted_word(q)
    return cluster_point(commutation_class(rs, word))
