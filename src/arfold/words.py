"""Reduced words of the longest element and their commutation classes.

A commutation class is represented by its canonical word, the
lexicographically least member.  Internally a class is a heap: every
member word induces the same bijection (letter occurrence -> positive
root), and the member words are exactly the linear extensions of the
partial order generated by non-commuting occurrences.  That partial
order is the convex order of the class.

Its roots, listed along the canonical word by `roots`, are read once per
point: `root_sequence` runs where a word enters, in `commutation_class`,
and a class from `reflect` keeps its move (parent, i) and reads its
roots off its parent's.  The moved word u v i* of [u i v] has the roots
s_i of those of u v, then alpha_i, and since occurrences of one letter
never commute, the m-th occurrence of a letter is one heap element in
every member word.  The order masks are then one pass, `_order_pass`:
per letter it keeps the last occurrence so far with everything below
it, and a new occurrence of i sits above the entries of i and of its
neighbours.  Read along the canonical word it gives `below`, read
backwards `above`; masks and letters are lists indexed by root.  `bits`
is the one walk over the set bits of a mask.
The canonical word waits each occurrence on the previous occurrence of
its own letter and of each neighbour, and takes the least available
letter first.  `linear_extensions` is the one enumerator of the words
of such an order: the member words of a class, and the readings of a
quiver in ``arquiver``.

A reflection functor r_i moves the first s_i of a word to the end as
s_{i*}.  Occurrences of one letter never commute, so the first s_i of
every member word is the same heap element, and it can start a member
word iff the letters before it in the canonical word all commute with i.
The moved word needs no new check: s_i w_0 = w_0 s_{i*}, so it is a
reduced word of w_0 again.  Reducedness is checked only where a word
enters: `commutation_class`, and so the seeds of the cluster
points and the CLI's ``--class``.

The moved class's canonical word is read off the parent's W = u i v by
one deletion and one insertion; `_kahn` runs where a word enters.  The
append rule holds for any labelling: a new maximal letter is taken by
the greedy at the first step where it is free and least, so i* goes into
u v after the last letter in {i*} and its neighbours, and then past the
letters less than i* (`_appended`).  The deletion lemma: u v is the
canonical word of the heap without that i unless u holds a jumper of i,
a letter a that commutes with i and with a neighbour j of i, j < a < i
(``RootSystem.jumpers``).  The greedies on the two heaps agree until a
cover y of the removed i, of letter j, is free and beats the letter a_t
the first greedy took at a step t < |u|.  That needs j < a_t < i, since
i was free and not taken; and a_t commutes with j, or y would lie above
it.  From step |u| on the two greedies are the same.  The A and D
labellings have no jumper: an edge (p, p + 1) has nothing strictly
between its ends, and at the fork edge (m - 2, m) the letter m - 1 is
adjacent to m - 2.  E6 has one, 5 for i = 6, and a move at 6 past a 5
canonicalises the moved word by `_kahn`.

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

The mirror c^v of a class c is the class of the reversed, starred
canonical word i_N* ... i_1*: s_{i*} = w_0 s_i w_0, so it is a reduced
word of w_0 whose k-th root is the (N + 1 - k)-th root of c.  The twin
sigma c is the class of the canonical word relabelled by a diagram
automorphism sigma: s_{sigma i} = sigma s_i sigma^-1 and sigma fixes
w_0, so it is a reduced word of w_0 whose k-th root is sigma of the k-th
root of c.  `class_images` pairs the classes of a set closed under
either involution by the projection key of the moved word, both
relations from one table of keys, with no canonicalisation; each key is
written from the word's bytes by one `bytes.translate` per edge, the
moved word's by tables relabelled by * or sigma, over the bytes
reversed for the mirror.  `mirror_classes` is its mirror relation alone.

`cluster_point` is the set of classes that BFS yields, as for
`adapted_point`.  A twisted adapted point is walked once, by
``twistfold.twisted_folded_quivers`` over `cluster_moves`, and
`twisted_adapted_point` is the set of its classes.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from .rootsys import Frozen, Root, RootSystem, root_system

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


def _order_pass(adjacent, idx, word) -> list[int]:
    """Masks indexed by root r of the roots before r, read along ``word``.

    idx[k] is the root of the occurrence word[k].  Read forwards, bit r'
    of the mask of r is set iff r' comes before r in every member word;
    read backwards, iff r' comes after r.
    """
    masks = [0] * len(idx)
    # upto[i]: the last occurrence of letter i so far and everything before it
    upto: dict[int, int] = {}
    for r, i in zip(idx, word):
        acc = upto.get(i, 0)
        for j in adjacent[i]:
            acc |= upto.get(j, 0)
        masks[r] = acc
        upto[i] = acc | 1 << r
    return masks


def _by_occurrence(word: Word, idx, target: Word) -> tuple[int, ...]:
    """The roots ``idx`` along ``word`` listed along ``target``, another
    member word of the class: an occurrence is one heap element in both."""
    occ: dict[int, list[int]] = {}
    for i, r in zip(word[::-1], idx[::-1]):
        occ.setdefault(i, []).append(r)
    return tuple([occ[i].pop() for i in target])


def _moved_roots(rs: RootSystem, word: Word, idx, i: int) -> tuple[Word, list[int]]:
    """r_i's moved word u v i* of ``word`` = u i v, with its roots from the
    roots ``idx`` of ``word``: s_i of those of u v, then alpha_i."""
    k, perm = word.index(i), rs.reflection_permutation(i)
    moved = [perm[r] for r in idx[:k] + idx[k + 1:]] + [rs.simple_root_index[i]]
    return word[:k] + word[k + 1:] + (rs.star()[i],), moved


class CommutationClass(Frozen):
    """A commutation class of reduced words of w_0, canonically keyed.

    Two classes are equal when their root systems have the same type and
    rank and their canonical words agree.  The hash of the two is taken
    once, when the class is made, as a root system's is.  ``parent`` is
    the move that made the class, (class, i) for `reflect` at letter i,
    and None for a class built otherwise; it takes no part in equality,
    hashing or repr.
    """

    _shown = ("rs", "canonical_word")
    __slots__ = _shown + ("parent", "_cache", "_hash")

    def __init__(self, rs: RootSystem, canonical_word: Word,
                 parent: tuple[CommutationClass, int] | None = None):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "canonical_word", canonical_word)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_hash", hash((rs, canonical_word)))

    def _key(self) -> tuple:
        return (self.rs, self.canonical_word)

    def __hash__(self) -> int:
        return self._hash

    def roots(self) -> tuple[int, ...]:
        """The root indices along the canonical word: the canonical-word
        order of the roots.  A moved class reads them off its parent's by
        occurrence; the parents are followed up without recursion to the
        first class with roots, and each class on the way keeps its own.
        A class without roots or parent reads `root_sequence`."""
        chain, c = [], self
        while "roots" not in c._cache and c.parent:
            chain.append(c)
            c = c.parent[0]
        roots = c._cache.get("roots")
        if roots is None:
            roots = c._cache["roots"] = tuple(
                c.rs.root_index[b] for b in root_sequence(c.rs, c.canonical_word))
        for c in reversed(chain):
            parent, i = c.parent
            moved = _moved_roots(c.rs, parent.canonical_word, roots, i)
            roots = c._cache["roots"] = _by_occurrence(*moved, c.canonical_word)
        return roots

    def _data(self):
        cache = self._cache
        if "below" not in cache:
            idx, word = self.roots(), self.canonical_word
            cache["below"] = _order_pass(self.rs.adjacent, idx, word)
            letter = cache["letter"] = [0] * len(idx)
            for r, i in zip(idx, word):
                letter[r] = i
        return cache

    def letter_of(self, root_idx: int) -> int:
        return self._data()["letter"][root_idx]

    def below(self) -> list[int]:
        """Strict convex-order bitmasks by root: bit r' of below[r] iff r' < r."""
        return self._data()["below"]

    def precedes(self, a: int, b: int) -> bool:
        """True iff root a comes before root b in every member word."""
        return bool(self.below()[b] >> a & 1)

    def above(self) -> list[int]:
        """Strict convex-order bitmasks by root: bit r' of above[r] iff r < r'.

        The heap pass of `below`, run backwards over the canonical word;
        built on the first interval query.
        """
        cache = self._cache
        if "above" not in cache:
            cache["above"] = _order_pass(
                self.rs.adjacent, self.roots()[::-1], self.canonical_word[::-1]
            )
        return cache["above"]

    def members(self, cap: int = DEFAULT_CAP) -> list[Word]:
        """All member words (linear extensions of the heap), capped."""
        data = self._data()
        return linear_extensions(data["below"], data["letter"], cap)


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
    idx = [rs.root_index[b] for b in root_sequence(rs, word)]  # refuses a non-reduced word
    cls = CommutationClass(rs, _kahn(rs, word))
    cls._cache["roots"] = _by_occurrence(word, idx, cls.canonical_word)
    return cls


def _appended(rs: RootSystem, word: Word, i: int) -> Word:
    """The canonical word of the class of ``word`` + (i,), for a canonical
    word ``word``: i inserted after the last letter in {i} and its
    neighbours, and then after the letters less than i that follow."""
    block, q = rs.adjacent[i] | {i}, len(word)
    while q and word[q - 1] not in block:
        q -= 1
    while q < len(word) and word[q] < i:
        q += 1
    return word[:q] + (i,) + word[q:]


def reflect(cls: CommutationClass, i: int) -> CommutationClass:
    """The reflection functor r_i, or the input class at a fixed point:
    the class of the canonical word W = u i v with its first s_i moved to
    the end as s_{i*}, unchecked, with (cls, i) as its parent.

    Its canonical word is u v with i* inserted by `_appended`: the greedy
    takes a new maximal letter at the first step where it is free and
    least (the append rule).  And u v is the canonical word of the heap
    without that i unless u holds a jumper of i (``rs.jumpers``), a letter
    a commuting with i and with a neighbour j of i, j < a < i (the
    deletion lemma).  For, the greedies on the two heaps agree until a
    cover y of the removed i, of letter j, is free and beats the letter
    a_t the first one took at a step t < |u|: then j < a_t < i, and a_t
    commutes with j, or y would lie above it; from |u| on they are the
    same.  A and D have no jumpers; E6 has 5 for i = 6, and a move at 6
    past a 5 canonicalises the moved word by `_kahn`.
    """
    rs = cls.rs
    if i not in rs.nodes:
        raise ValueError(f"letter {i!r} outside the index set of {rs}")
    word = cls.canonical_word
    k = word.index(i)
    u = word[:k]
    if not rs.adjacent[i].isdisjoint(u):
        return cls
    rest, i_star = u + word[k + 1:], rs.star()[i]
    jumpers = rs.jumpers.get(i)
    if jumpers and not jumpers.isdisjoint(u):
        return CommutationClass(rs, _kahn(rs, rest + (i_star,)), (cls, i))
    return CommutationClass(rs, _appended(rs, rest, i_star), (cls, i))


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
    return _translated_key(_key_tables(rs), bytes(word))


def _key_tables(rs: RootSystem, relabel: dict[int, int] | None = None) -> tuple:
    """Per edge (a, b) of ``rs.edges``, the `bytes.translate` table and the
    letters it deletes that write a word w, as bytes, as the projection of
    relabel(w) onto {a, b}: a letter x is 0 where relabel(x) = a, 1 where
    it is b, and deleted elsewhere.  Built once per key of many words."""
    back = {relabel[i] if relabel else i: i for i in rs.nodes}
    out = []
    for a, b in rs.edges:
        table = bytearray(range(256))
        table[back[a]], table[back[b]] = ord("0"), ord("1")
        out.append((bytes(table), bytes(i for i in rs.nodes if i not in (back[a], back[b]))))
    return tuple(out)


def _translated_key(tables, data: bytes) -> Key:
    """The projection key that `_key_tables` ``tables`` write of a word
    given as bytes, one letter per byte."""
    return tuple(int(b"1" + data.translate(table, drop), 2) for table, drop in tables)


def moved_key(key: Key, slots, i: int, i_star: int) -> Key | None:
    """The projection key of ``reflect(cls, i)`` for a class keyed
    ``key``, or None when the class does not move.

    ``slots`` is ``edge_slots`` of the root system.  The move needs every
    edge at i to start with i, tested before the key is copied; it drops
    that letter and appends i* to every edge at i*.
    """
    at_i = slots[i]
    for s, b in at_i:
        k = key[s]
        if k >> k.bit_length() - 2 & 1 != b:  # the bit of the first letter
            return None
    out = list(key)
    for s, _ in at_i:
        k = out[s]
        first = k.bit_length() - 2
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


def class_images(classes, perm, relations) -> dict[str, dict[CommutationClass, CommutationClass]]:
    """{relation: {c: its image}} over classes of one root system closed
    under each of ``relations``: "mirror", c^v the class of c's reversed,
    starred canonical word, and "twin", sigma c the class of c's
    canonical word relabelled by the diagram automorphism sigma =
    ``perm``.

    Each image is found by the projection key of the moved canonical word
    in one table of the classes' keys, written straight from c's word
    (`_key_tables`), never canonicalised, and a class and its image are
    paired at once.  The classes are taken in turn, each under every
    relation, so a class whose image is not among the classes is an
    AssertionError naming the first such class and the relation.
    """
    rs = next(iter(classes)).rs
    plain = _key_tables(rs)
    by_key = {_translated_key(plain, bytes(c.canonical_word)): c for c in classes}
    moves = {"mirror": (rs.star(), -1), "twin": (perm, 1)}  # (relabelling, letter order)
    out = {name: {} for name in relations}
    tables = {name: _key_tables(rs, moves[name][0]) for name in relations}
    for c in classes:
        for name, image in out.items():
            if c in image:
                continue
            word = bytes(c.canonical_word)[::moves[name][1]]
            d = by_key.get(_translated_key(tables[name], word))
            if d is None:
                raise AssertionError(
                    f"the {name} of class {c.canonical_word} is not among the classes")
            image[c], image[d] = d, c
    return out


def mirror_classes(classes) -> dict[CommutationClass, CommutationClass]:
    """{c: c^v} over classes of one root system closed under the mirror:
    c^v is the class of c's reversed, starred canonical word, a reduced
    word of w_0 with c's roots in reverse order (`class_images`)."""
    return class_images(classes, None, ("mirror",))["mirror"]


def cluster_point(cls: CommutationClass) -> frozenset[CommutationClass]:
    """The cluster point of a class: the classes `cluster_moves` reaches."""
    return frozenset(c for c, _ in cluster_moves(cls))


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
