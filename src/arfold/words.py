"""Reduced words of the longest element and their commutation classes.

A commutation class is represented by its canonical word, the
lexicographically least member.  Internally a class is a heap: every
member word induces the same bijection (letter occurrence -> positive
root), and the member words are exactly the linear extensions of the
partial order generated by non-commuting occurrences.  That partial
order is the convex order of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rootsys import Root, RootSystem, folding_from, root_system

Word = tuple[int, ...]

DEFAULT_CAP = 10_000_000


class NotReducedError(ValueError):
    pass


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured cap; failing loudly."""


def root_sequence(rs: RootSystem, word: Word) -> list[Root]:
    """The roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) of a word.

    Raises NotReducedError when a beta_k is negative or repeats, which
    happens exactly when the word is not reduced.
    """
    seen: set[Root] = set()
    out: list[Root] = []
    prefix: list[int] = []
    for k, i in enumerate(word):
        if i not in rs.cartan:
            raise ValueError(f"letter {i} outside the index set of {rs}")
        beta = rs.apply_word(prefix, rs.simple_root(i))
        if not rs.is_positive(beta) or beta in seen:
            raise NotReducedError(f"word is not reduced at position {k + 1}")
        seen.add(beta)
        out.append(beta)
        prefix.append(i)
    return out


def _heap_order(rs: RootSystem, word: Word, roots: list[Root]) -> dict[int, int]:
    """Strict precedence bitmasks over root indices.

    below[r] has bit r' set iff root r' comes strictly before r in every
    member word of the class of ``word``.
    """
    n = len(word)
    idx = [rs.root_index[b] for b in roots]
    below = {r: 0 for r in idx}
    for l in range(n):
        acc = 0
        for k in range(l - 1, -1, -1):
            if rs.cartan[word[k]][word[l]] != 0:
                acc |= (1 << idx[k]) | below[idx[k]]
        below[idx[l]] = acc
    return below


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
        if "roots" not in cache:
            roots = root_sequence(self.rs, self.canonical_word)
            idx = [self.rs.root_index[b] for b in roots]
            cache["roots"] = idx
            cache["letter"] = {
                r: i for r, i in zip(idx, self.canonical_word)
            }
            cache["below"] = _heap_order(self.rs, self.canonical_word, roots)
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

    def interval(self, a: int, b: int) -> list[int]:
        """Root indices strictly between a and b in the convex order."""
        if not self.precedes(a, b):
            return []
        below = self.below()
        return [r for r in below if self.precedes(a, r) and self.precedes(r, b)]

    def minimal_letters(self) -> set[int]:
        """Letters i such that some member word starts with s_i."""
        below = self.below()
        return {self.letter_of(r) for r, mask in below.items() if mask == 0}

    def maximal_letters(self) -> set[int]:
        """Letters i such that some member word ends with s_i."""
        below = self.below()
        tops = set(below)
        for mask in below.values():
            for r in list(tops):
                if mask >> r & 1:
                    tops.discard(r)
        return {self.letter_of(r) for r in tops}

    def members(self, cap: int = DEFAULT_CAP) -> list[Word]:
        """All member words (linear extensions of the heap), capped."""
        data = self._data()
        below = data["below"]
        letter = data["letter"]
        n = self.length
        out: list[Word] = []
        prefix: list[int] = []

        def rec(remaining: int, done: int):
            if not remaining:
                out.append(tuple(prefix))
                if len(out) > cap:
                    raise CapExceededError(
                        f"commutation closure exceeds cap {cap}"
                    )
                return
            r = remaining
            while r:
                low = r & -r
                v = low.bit_length() - 1
                r ^= low
                if below[v] & ~done:
                    continue
                prefix.append(letter[v])
                rec(remaining ^ low, done | low)
                prefix.pop()

        all_mask = 0
        for v in below:
            all_mask |= 1 << v
        rec(all_mask, 0)
        return out

    def member_count(self, cap: int = DEFAULT_CAP) -> int:
        """Number of member words, via dynamic programming on downsets."""
        below = self.below()
        verts = sorted(below)
        all_mask = 0
        for v in verts:
            all_mask |= 1 << v
        counts = {0: 1}
        frontier = [0]
        total_states = 0
        while frontier:
            new: dict[int, int] = {}
            for dn in frontier:
                c = counts[dn]
                r = all_mask & ~dn
                while r:
                    low = r & -r
                    v = low.bit_length() - 1
                    r ^= low
                    if below[v] & ~dn:
                        continue
                    nxt = dn | low
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


def _canonical_word(rs: RootSystem, word: Word) -> Word:
    """Lexicographically least member: greedy over available occurrences."""
    roots = root_sequence(rs, word)
    below = _heap_order(rs, word, roots)
    letter = {rs.root_index[b]: i for b, i in zip(roots, word)}
    remaining = set(below)
    done = 0
    out: list[int] = []
    for _ in range(len(word)):
        best = min(
            (r for r in remaining if not (below[r] & ~done)),
            key=lambda r: (letter[r], r),
        )
        out.append(letter[best])
        remaining.discard(best)
        done |= 1 << best
    return tuple(out)


def commutation_class(rs: RootSystem, word: Word) -> CommutationClass:
    """The commutation class of a reduced word of w_0."""
    if len(word) != rs.num_positive:
        raise NotReducedError(
            f"word of length {len(word)} is not a reduced word of w_0 "
            f"(need {rs.num_positive} letters)"
        )
    return CommutationClass(rs, _canonical_word(rs, word))


def reflect(cls: CommutationClass, i: int, side: str = "right") -> CommutationClass:
    """Reflection-functor action; returns the input class at a fixed point.

    Right action needs a member starting with s_i, which it rotates to
    the end as s_{i*}; the left action mirrors this at the other end.
    """
    rs = cls.rs
    star = rs.star()
    data = cls._data()
    below = data["below"]
    letter = data["letter"]
    if side == "right":
        if i not in cls.minimal_letters():
            return cls
        first = rs.simple_root_index[i]
        rest = _greedy_extension(below, letter, skip=first)
        new_word = tuple(rest) + (star[i],)
        return commutation_class(rs, new_word)
    if side == "left":
        if i not in cls.maximal_letters():
            return cls
        word = _greedy_extension_ending_with(below, letter, i)
        new_word = (star[i],) + tuple(word[:-1])
        return commutation_class(rs, new_word)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _greedy_extension(below: dict[int, int], letter: dict[int, int], skip: int) -> list[int]:
    """A linear extension of the heap minus one minimal element, as letters."""
    remaining = set(below)
    remaining.discard(skip)
    done = 1 << skip
    out: list[int] = []
    while remaining:
        r = next(v for v in sorted(remaining) if not (below[v] & ~done))
        out.append(letter[r])
        remaining.discard(r)
        done |= 1 << r
    return out


def _greedy_extension_ending_with(
    below: dict[int, int], letter: dict[int, int], i: int
) -> list[int]:
    """A member word whose last letter is i (must exist)."""
    above = {r: 0 for r in below}
    for r, mask in below.items():
        m = mask
        while m:
            low = m & -m
            above[low.bit_length() - 1] |= 1 << r
            m ^= low
    tops = [r for r, mask in above.items() if mask == 0 and letter[r] == i]
    last = tops[0]
    remaining = set(below)
    remaining.discard(last)
    done = 1 << last
    out: list[int] = []
    while remaining:
        r = next(v for v in sorted(remaining) if not (above[v] & ~done))
        out.append(letter[r])
        remaining.discard(r)
        done |= 1 << r
    out.reverse()
    return out + [i]


def cluster_point(cls: CommutationClass) -> frozenset[CommutationClass]:
    """BFS closure of a class under left and right reflection functors."""
    seen = {cls}
    frontier = [cls]
    while frontier:
        new = []
        for c in frontier:
            for i in c.rs.nodes:
                for side in ("right", "left"):
                    d = reflect(c, i, side)
                    if d not in seen:
                        seen.add(d)
                        new.append(d)
        frontier = new
    return frozenset(seen)


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


@lru_cache(maxsize=None)
def twisted_adapted_point(
    type_tag: str, rank: int
) -> frozenset[CommutationClass]:
    """The foldable cluster point built from a twisted Coxeter element.

    Its class holds the h_dual twisted repetitions of the folding's
    twisted Coxeter word, which must come out reduced.
    """
    word = folding_from(type_tag, rank).twisted_longest_word()
    return cluster_point(commutation_class(root_system(type_tag, rank), word))


@lru_cache(maxsize=None)
def adapted_point(type_tag: str, rank: int) -> frozenset[CommutationClass]:
    """The cluster point of all classes adapted to Dynkin quivers."""
    from . import arquiver

    rs = root_system(type_tag, rank)
    q = arquiver.all_quivers(rs)[0]
    word = arquiver.adapted_word(q)
    return cluster_point(commutation_class(rs, word))
