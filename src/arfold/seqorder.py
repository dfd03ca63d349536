"""Sequences of positive roots under the class-wise bi-lexicographic order.

A sequence is a multiplicity vector over the positive roots (indexed by
the root system's canonical root order, never by word position).  The
class order m < m' tests the bi-lexicographic condition under every
member word; because member words are exactly the linear extensions of
the convex order, this reduces to a condition on the extremal elements
of the difference support, which is what `class_less` implements.  The
definitional word-by-word test is kept as `bilex_less_word` and serves
as the oracle in the test suite.  The canonical word is a member word,
so sorting sequences by their multiplicities along it extends the class
order: `dist` reads its longest chains in one sweep over that sort
(`_chain_depths`), each sequence compared only with those before it.
`sequences_of_weight` lists every sequence of a weight up to height
`MAX_WEIGHT_HEIGHT` and refuses a heavier one.

The sequences below a pair {a, b} (`pair_below`) are the partitions of
root_a + root_b into the roots strictly between a and b: the bits of
above[a] & below[b].  Weights are packed into one int, and every pair
weight fits one field width per root system, the highest root's largest
coefficient doubled plus a guard bit, so the pair's weight is the sum
of its two packed roots.  Only the interval roots that fit the weight
are sorted by height and searched, and the search descends only while
the roots left cover every nonzero coordinate of the remainder.  That
search, `_packed_partitions`, also serves `_partitions` for any weight.

Minimal pairs of a root are found among the pairs summing to it only:
every minimal sequence above a root is a pair, and every summing pair
lies above the root by convexity (McNamara, Crelle 2015).  Two distinct
pairs summing to the root are disjoint and of one weight, so the four
roots are their difference support, and {c, d} lies below {a, b} iff c
and d are both inner in {a, b, c, d}: each has one of the four below it
and one above it in the convex order, two mask reads of `below` and
`above` per root (`_pair_lies_below`).  No sequence is built.  The
definitional search over all sequences of the weight is kept as
`minimal_sequences`, the oracle for `minimal_pairs_of_root` in the tests.

Distance reads (`distance_polynomial`, `o_t`, `phi_pairs`) take the
folded quiver alone and read its class from `fq.source_class`.  They
read the quiver's table, {(k, l): {t: o_t}} with k <= l, o_t the common
`dist` on Phi[t] (the comparable pairs at residues {k, l} with gap t),
built from that quiver alone on every call and never memoised;
`phi_pairs`, Phi[t] by definition, is its oracle in the tests.  The
suites walk their point once instead (`point_tables`), along the BFS
tree of its folded reflections, from counts {(k, l, t): (o_t,
|Phi[t]|)}: the seed's from one `dist` per comparable pair, every
other class's from its parent's.  A folded reflection at the sink
alpha_i keeps every other root's coordinates and carries its pairs,
their order and their `dist` along by s_i; only alpha_i moves, from
first to last in the convex order.  So a child's counts are its
parent's without the pairs at alpha_i, plus at most N - 1 new pairs
below it, each with one `dist`.  `table_polynomial` turns a table into
a distance polynomial for either reader.

socle-dist walks the same tree with the same helper, `_walk_point`
(`point_socle_records`).  A class's records are its pairs at dist > 2
or without a unique socle, each with its `dist` and socle.  The seed's
are checked pair by pair; a child's are its parent's without the pairs
at alpha_i, pair and socle relabelled by s_i, plus its own at most
N - 1 pairs at alpha_i, each checked anew.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import ceil

from .rootsys import Root, RootSystem
from .words import CommutationClass, Word, bits
from .twistfold import FoldedQuiver

Sequence = tuple[int, ...]  # multiplicity per positive-root index


def sequence_from_roots(rs: RootSystem, roots) -> Sequence:
    m = [0] * rs.num_positive
    for r in roots:
        m[r if isinstance(r, int) else rs.root_index[r]] += 1
    return tuple(m)


def weight_of(rs: RootSystem, m: Sequence) -> Root:
    w = [0] * rs.rank
    for r, mult in enumerate(m):
        if mult:
            for j, c in enumerate(rs.positive_roots[r]):
                w[j] += mult * c
    return tuple(w)


def support(m: Sequence) -> list[int]:
    return [r for r, mult in enumerate(m) if mult]


def is_pair(m: Sequence) -> bool:
    return sum(m) == 2 and max(m) == 1


MAX_WEIGHT_HEIGHT = 40  # the heaviest weight `sequences_of_weight` lists


@lru_cache(maxsize=None)
def sequences_of_weight(rs: RootSystem, w: Root) -> tuple[Sequence, ...]:
    """All multiplicity vectors of positive roots with the given weight;
    a ValueError above the height cap."""
    if sum(w) > MAX_WEIGHT_HEIGHT:
        raise ValueError(
            f"weight height {sum(w)} exceeds the enumeration cap {MAX_WEIGHT_HEIGHT}"
        )
    return tuple(_partitions(rs, w, range(rs.num_positive)))


def _pack(v, f: int) -> int:
    """A vector of nonnegative coordinates as one int, f bits per coordinate."""
    k = 0
    for c in reversed(v):
        k = k << f | c
    return k


def _packing(rs: RootSystem, f: int) -> tuple[list[int], int, int]:
    """(packed, guard, ones) at f bits per coordinate: every positive root
    packed, and the top and the low bit of every field; kept per root
    system."""
    key = ("packed_roots", f)
    if key not in rs._cache:
        rs._cache[key] = (
            [_pack(r, f) for r in rs.positive_roots],
            _pack([1 << f - 1] * rs.rank, f),
            _pack([1] * rs.rank, f),
        )
    return rs._cache[key]


def _pair_width(rs: RootSystem) -> int:
    """The field width of every pair weight: the highest root's largest
    coefficient doubled, plus the guard bit."""
    return (2 * max(rs.positive_roots[-1])).bit_length() + 1


def _height_rank(rs: RootSystem) -> list[int]:
    """Each root's place by decreasing height, then by index; kept per
    root system."""
    if "height_rank" not in rs._cache:
        order = sorted(
            range(rs.num_positive), key=lambda r: (-sum(rs.positive_roots[r]), r)
        )
        rank = [0] * len(order)
        for k, r in enumerate(order):
            rank[r] = k
        rs._cache["height_rank"] = rank
    return rs._cache["height_rank"]


def _partitions(rs: RootSystem, w: Root, allowed) -> list[Sequence]:
    """Multisets from ``allowed`` root indices summing to w.

    They come in lexicographic order of the multiplicities along
    ``allowed`` sorted by decreasing height.  w is packed f bits per
    coordinate, f wide enough for w and for every root, and
    `_packed_partitions` searches.
    """
    if min(w) < 0:
        return []
    f = max(*w, *rs.positive_roots[-1]).bit_length() + 1
    mask = 0
    for r in allowed:
        mask |= 1 << r
    return _packed_partitions(rs, _packing(rs, f), _pack(w, f), mask)


def _packed_partitions(rs: RootSystem, packing, w: int, mask: int) -> list[Sequence]:
    """`_partitions` of the packed weight w over the roots of ``mask``.

    ``packing`` is `_packing` at the width of w.  The top bit of each
    field is a guard: (rem | guard) - root keeps every guard bit iff
    root <= rem in each coordinate, and then rem - root is the remaining
    weight; ((rem | guard) - ones) & guard are the guard bits of the
    coordinates where rem is nonzero.  Only the roots of the mask that fit
    w take part, and only they are sorted.  cover[k] holds the guard bits
    of the coordinates on which some root of roots[k:] is nonzero: a
    remainder nonzero outside it has no completion there, so the search
    descends only where the cover holds, and a sequence is emitted as
    soon as its remainder is 0.
    """
    packed, guard, ones = packing
    if not w:
        return [(0,) * rs.num_positive]
    wg = w | guard
    fit = []
    reach = 0  # guard bits of the coordinates some fitting root is nonzero on
    while mask:
        low = mask & -mask
        mask ^= low
        r = low.bit_length() - 1
        p = packed[r]
        if (wg - p) & guard == guard:
            fit.append(r)
            reach |= (p | guard) - ones
    if (wg - ones) & guard & ~reach:
        return []  # w is nonzero where no fitting root is
    fit.sort(key=_height_rank(rs).__getitem__)
    roots = [(r, packed[r]) for r in fit]
    cover = [0] * (len(roots) + 1)
    for k in range(len(roots) - 1, -1, -1):
        cover[k] = cover[k + 1] | ((roots[k][1] | guard) - ones) & guard
    out: list[Sequence] = []
    cur = [0] * rs.num_positive

    def rec(start: int, rem: int):
        # a later first root gives a lexicographically smaller multiset
        for k in range(len(roots) - 1, start - 1, -1):
            r, p = roots[k]
            uncovered = guard ^ cover[k + 1]
            acc = rem
            while ((acc | guard) - p) & guard == guard:
                acc -= p
                cur[r] += 1
                if not acc:
                    out.append(tuple(cur))
                    break
                if not ((acc | guard) - ones) & uncovered:
                    rec(k + 1, acc)
            cur[r] = 0

    rec(0, w)
    return out


# ---------------------------------------------------------------------------
# orders


def position_vector(cls: CommutationClass, word: Word, m: Sequence) -> Sequence:
    """Multiplicities listed in the total order of one member word."""
    from .words import root_sequence

    rs = cls.rs
    return tuple(m[rs.root_index[b]] for b in root_sequence(rs, word))


def bilex_less_word(cls: CommutationClass, word: Word, m: Sequence, mp: Sequence) -> bool:
    """The bi-lexicographic order under one member word (definitional)."""
    a = position_vector(cls, word, m)
    b = position_vector(cls, word, mp)
    if a == b:
        return False
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    return a[diff[0]] < b[diff[0]] and a[diff[-1]] < b[diff[-1]]


def class_less(cls: CommutationClass, m: Sequence, mp: Sequence) -> bool:
    """m < m' under every member word (weights must agree)."""
    rs = cls.rs
    if weight_of(rs, m) != weight_of(rs, mp):
        return False
    return _less_same_weight(cls, m, mp)


def _less_same_weight(cls: CommutationClass, m: Sequence, mp: Sequence) -> bool:
    """`class_less` for two sequences known to have the same weight.

    Equivalent to: at every minimal and every maximal element of the
    difference support (w.r.t. the convex order), m is strictly smaller.
    """
    diff = [r for r in range(cls.rs.num_positive) if m[r] != mp[r]]
    if not diff:
        return False
    below, above = cls.below(), cls.above()
    diff_mask = 0
    for r in diff:
        diff_mask |= 1 << r
    for r in diff:
        is_extremal = not below[r] & diff_mask or not above[r] & diff_mask
        if is_extremal and m[r] >= mp[r]:
            return False
    return True


# ---------------------------------------------------------------------------
# pairs: everything below a pair lives on its open interval


def pair_below(cls: CommutationClass, a: int, b: int) -> list[Sequence]:
    """All sequences strictly below the pair {a, b} in the class order.

    These are exactly the multisets of roots lying strictly between a
    and b in the convex order whose weight is root_a + root_b; every
    call enumerates them anew, in `_partitions` order.  The interval is
    read from the order masks, and the weight is packed at the one pair
    width of the root system, as the sum of the two packed roots.
    """
    above, below = cls.above(), cls.below()
    mask = above[a] & below[b] or above[b] & below[a]
    if not mask:
        return []  # an empty interval, or an incomparable pair
    rs = cls.rs
    packing = _packing(rs, _pair_width(rs))
    packed = packing[0]
    return _packed_partitions(rs, packing, packed[a] + packed[b], mask)


def is_simple(cls: CommutationClass, m: Sequence) -> bool:
    """Simplicity: a single-root multiple, or all supported pairs simple."""
    return not any(pair_below(cls, a, b) for a, b in combinations(support(m), 2))


def _chain_depths(cls: CommutationClass, elems: list[Sequence]) -> dict[Sequence, int]:
    """Longest-chain length ending at each of some sequences of one weight.

    Sorted along the canonical word, every element comes after the
    elements below it, so one sweep compares each pair once.
    """
    order = list(cls.below())  # root indices in canonical-word order
    elems = sorted(elems, key=lambda m: [m[r] for r in order])
    depth: dict[Sequence, int] = {}
    for k, y in enumerate(elems):
        depth[y] = max(
            (depth[x] + 1 for x in elems[:k] if _less_same_weight(cls, x, y)),
            default=0,
        )
    return depth


def _dist_over(cls: CommutationClass, under: list[Sequence]) -> int:
    """`dist` of a sequence from the list of every sequence below it:
    0 with none below, 1 with one, else one plus the longest chain."""
    if len(under) < 2:
        return len(under)
    return 1 + max(_chain_depths(cls, under).values())


def _pair_dist(cls: CommutationClass, a: int, b: int) -> int:
    """`dist` of the pair {a, b} of distinct root indices."""
    return _dist_over(cls, pair_below(cls, a, b))


def dist(cls: CommutationClass, m: Sequence) -> int:
    """Length of the longest strict chain below m (ending at a simple)."""
    if is_pair(m):
        return _pair_dist(cls, *support(m))
    rs = cls.rs
    seqs = sequences_of_weight(rs, weight_of(rs, m))
    return _dist_over(cls, [x for x in seqs if class_less(cls, x, m)])


def _unique_simple(cls: CommutationClass, under: list[Sequence]) -> Sequence | None:
    """The one simple sequence among ``under``; None for none or several."""
    simples = list(islice(filter(lambda x: is_simple(cls, x), under), 2))
    return simples[0] if len(simples) == 1 else None


def _pair_socle(cls: CommutationClass, a: int, b: int) -> Sequence | None:
    """`socle` of the pair {a, b} of distinct root indices."""
    below = pair_below(cls, a, b)
    if not below:
        return sequence_from_roots(cls.rs, (a, b))
    return _unique_simple(cls, below)


def socle(cls: CommutationClass, m: Sequence) -> Sequence | None:
    """The unique simple sequence weakly below a pair, when it exists."""
    if not is_pair(m):
        raise ValueError("socle is defined for pairs")
    return _pair_socle(cls, *support(m))


def minimal_sequences(cls: CommutationClass, s: Sequence) -> list[Sequence]:
    """The minimal elements strictly above a class-simple sequence."""
    rs = cls.rs
    if not is_simple(cls, s):
        raise ValueError("minimal sequences are defined over a simple sequence")
    above = [
        m
        for m in sequences_of_weight(rs, weight_of(rs, s))
        if m != s and class_less(cls, s, m)
    ]
    return [
        m
        for m in above
        if not any(mp != m and class_less(cls, mp, m) for mp in above)
    ]


def _pair_lies_below(below, above, c: int, d: int, upper: int) -> bool:
    """The pair {c, d} lies below a disjoint pair of the same weight whose
    two bits make ``upper``: c and d are both inner in the four roots,
    each with one of them below it and one above it in the convex order."""
    m = upper | 1 << c | 1 << d
    return bool(below[c] & m and above[c] & m and below[d] & m and above[d] & m)


def minimal_pairs_of_root(cls: CommutationClass, gamma: int) -> list[tuple[int, int]]:
    """Minimal pairs (a, b) of a positive root, a preceding b.

    Every minimal sequence above a root is a pair, and by convexity every
    pair summing to the root lies above it; so the minimal pairs are the
    minimal elements among the summing pairs.  Two distinct pairs summing
    to the root are disjoint, so one lies below the other iff its two
    roots are inner in the four (`_pair_lies_below`): two mask reads per
    root.  `minimal_sequences`, the definitional search over all
    sequences of the weight, is the oracle the tests check this against.
    A bad root index is a ValueError.
    """
    pairs = cls.rs.summing_pairs(gamma)  # a bad index is refused before any shift
    below, above = cls.below(), cls.above()
    out = []
    for a, b in pairs:
        upper = 1 << a | 1 << b
        if not any(
            _pair_lies_below(below, above, c, d, upper) for c, d in pairs if c != a
        ):
            out.append((b, a) if cls.precedes(b, a) else (a, b))
    return sorted(out)


@dataclass(frozen=True)
class CoverClassification:
    """A maximal sequence below a pair, tagged by the printed trichotomy."""

    pair: tuple[int, int]
    cover: Sequence
    case: int  # 1 = summed root, 2 = triple, 3 = pair
    details: tuple[tuple[str, bool], ...] = ()


def classify_cover(cls: CommutationClass, m: Sequence) -> list[CoverClassification]:
    """Classify the maximal sequences below a pair of positive distance."""
    rs = cls.rs
    if not is_pair(m):
        raise ValueError("cover classification applies to pairs")
    a, b = support(m)
    if cls.precedes(b, a):
        a, b = b, a
    below = pair_below(cls, a, b)
    if not below:
        raise ValueError("pair has distance 0")
    covers = [
        x for x in below if not any(y != x and class_less(cls, x, y) for y in below)
    ]
    out = []
    for cov in covers:
        size = sum(cov)
        supp = support(cov)
        if size == 1:
            details = (
                ("pair_is_minimal_pair_of_sum",
                 _pair_is_minimal_of(cls, a, b, supp[0])),
            )
            out.append(CoverClassification((a, b), cov, 1, details))
        elif size == 3 and len(supp) == 3:
            details = _triple_conditions(cls, a, b, supp)
            out.append(CoverClassification((a, b), cov, 2, details))
        elif size == 2:
            details = _pair_cover_conditions(cls, a, b, supp)
            out.append(CoverClassification((a, b), cov, 3, details))
        else:
            out.append(CoverClassification((a, b), cov, 0))
    return out


def _pair_is_minimal_of(cls: CommutationClass, a: int, b: int, g: int) -> bool:
    return tuple(sorted((a, b))) in {
        tuple(sorted(p)) for p in minimal_pairs_of_root(cls, g)
    }


def _triple_conditions(cls, a, b, supp):
    """Conditions (i)-(iv) for the triple case, tried over assignments."""
    rs = cls.rs
    alpha, beta = rs.positive_roots[a], rs.positive_roots[b]
    sum_not_root = tuple(x + y for x, y in zip(alpha, beta)) not in rs.root_index

    def minus(u, v):
        return tuple(x - y for x, y in zip(u, v))

    for mu, nu, eta in permutations(supp):
        mv, nv, ev = (rs.positive_roots[r] for r in (mu, nu, eta))
        mn = tuple(x + y for x, y in zip(mv, nv))
        if mn not in rs.root_index:
            continue
        am, bn = minus(alpha, mv), minus(beta, nv)
        if am not in rs.root_index or bn not in rs.root_index:
            continue
        cond_i = _pair_is_minimal_of(cls, mu, nu, rs.root_index[mn])
        cond_ii = not cls.comparable(eta, mu) and not cls.comparable(eta, nu)
        cond_iii = (
            tuple(x + y for x, y in zip(am, bn)) == ev
            and _pair_is_minimal_of(
                cls, rs.root_index[am], rs.root_index[bn], eta
            )
        )
        cond_iv = _pair_is_minimal_of(
            cls, rs.root_index[am], mu, a
        ) and _pair_is_minimal_of(cls, nu, rs.root_index[bn], b)
        if cond_i and cond_ii and cond_iii and cond_iv:
            return (
                ("sum_not_root", sum_not_root),
                ("i", True),
                ("ii", True),
                ("iii", True),
                ("iv", True),
            )
    return (("sum_not_root", sum_not_root), ("conditions", False))


def _pair_cover_conditions(cls, a, b, supp):
    """Root-difference conditions for the pair case of the trichotomy."""
    rs = cls.rs
    alpha, beta = rs.positive_roots[a], rs.positive_roots[b]

    def diff_in_phi(u, v):
        d = tuple(x - y for x, y in zip(u, v))
        return d in rs.root_index

    # a cover 2 * root has one support root r: both orderings are (r, r)
    for ap, bp in ((supp[0], supp[-1]), (supp[-1], supp[0])):
        av, bv = rs.positive_roots[ap], rs.positive_roots[bp]
        fwd = diff_in_phi(av, alpha) and diff_in_phi(beta, bv)
        bwd = diff_in_phi(alpha, av) and diff_in_phi(bv, beta)
        if fwd or bwd:
            return (("forward", fwd), ("backward", bwd))
    return (("forward", False), ("backward", False))


# ---------------------------------------------------------------------------
# distance polynomials


@dataclass(frozen=True)
class RootedPolynomial:
    """A multiset of linear factors (z - eps * q_s^t), eps in {+1, -1}."""

    factors: tuple[tuple[tuple[int, int], int], ...]  # ((eps, t), multiplicity)

    @classmethod
    def from_factors(cls, factors) -> RootedPolynomial:
        counts: dict[tuple[int, int], int] = {}
        for eps, t in factors:
            if eps not in (1, -1):
                raise ValueError("factor sign must be +1 or -1")
            counts[(eps, t)] = counts.get((eps, t), 0) + 1
        return cls(tuple(sorted(counts.items())))

    def __mul__(self, other: RootedPolynomial) -> RootedPolynomial:
        counts = dict(self.factors)
        for key, mult in other.factors:
            counts[key] = counts.get(key, 0) + mult
        return RootedPolynomial(tuple(sorted(counts.items())))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for (eps, t), mult in self.factors:
            sign = "-" if eps > 0 else "+"
            body = f"(z {sign} qs^{t})"
            parts.append(body if mult == 1 else body + f"^{mult}")
        return "".join(parts)


def factor_minus_q_power(a: int) -> tuple[int, int]:
    """(z - (-q)^a) as (eps, t) with q = q_s^2."""
    return ((-1) ** a, 2 * a)


def factor_plus_q_power(a: int) -> tuple[int, int]:
    """(z + (-q)^a) as (eps, t)."""
    return ((-1) ** (a + 1), 2 * a)


def factor_minus_qs_power(a: int) -> tuple[int, int]:
    """(z - (-q_s)^a) as (eps, t)."""
    return ((-1) ** a, a)


def comparable_pairs(cls: CommutationClass) -> list[tuple[int, int]]:
    return [(a, b) for b, mask in cls.below().items() for a in bits(mask)]


def phi_pairs(fq: FoldedQuiver, k: int, l: int, t: int) -> list[tuple[int, int]]:
    """Phi[t] by definition: comparable pairs at residues {k, l}, gap t."""
    coord = fq.coord_of()
    out = []
    for a, b in comparable_pairs(fq.source_class):
        (ia, pa), (ib, pb) = coord[a], coord[b]
        if {ia, ib} == ({k, l} if k != l else {k}) and abs(pa - pb) == t:
            out.append((a, b))
    return sorted(out)


def _bucket(coord: dict, a: int, b: int) -> tuple[int, int, int]:
    """(k, l, t) of the pair {a, b}: its residues k <= l and its gap t."""
    (ia, pa), (ib, pb) = coord[a], coord[b]
    return (ia, ib, abs(pa - pb)) if ia <= ib else (ib, ia, abs(pa - pb))


def _count(counts: dict, key: tuple[int, int, int], d: int) -> None:
    """Add a pair at distance d to the bucket (k, l, t) = key of the counts
    {(k, l, t): (o_t, |Phi[t]|)}; Phi[t] must keep one distance."""
    o, size = counts.get(key, (d, 0))
    if o != d:
        k, l, t = key
        raise AssertionError(
            f"distance is not constant on Phi[{t}] at ({k},{l}): {sorted({o, d})}"
        )
    counts[key] = (d, size + 1)


def _scratch_counts(fq: FoldedQuiver) -> dict:
    """The bucket counts of a folded quiver, one `dist` per comparable pair."""
    cls = fq.source_class
    coord = fq.coord_of()
    counts: dict = {}
    for a, b in comparable_pairs(cls):
        _count(counts, _bucket(coord, a, b), _pair_dist(cls, a, b))
    return counts


def _pairs_at(fq: FoldedQuiver, r: int) -> list[tuple[tuple[int, int, int], int, int]]:
    """(bucket, a, b) for each comparable pair {a, b} of the quiver's class
    that contains the root r, a before b."""
    cls = fq.source_class
    coord = fq.coord_of()
    return [(_bucket(coord, a, r), a, r) for a in bits(cls.below()[r])] + [
        (_bucket(coord, r, b), r, b) for b in bits(cls.above()[r])
    ]


def _transport(counts: dict, parent: FoldedQuiver, child: FoldedQuiver, i: int) -> dict:
    """The child's bucket counts from the parent's, across the folded
    reflection at the sink alpha_i.

    The reflection relabels every other root by s_i at the same residue
    and position, and moves alpha_i from the first place of the convex
    order to the last.  A pair without alpha_i keeps its bucket, its
    order and its `dist` (s_i maps its partitions onto the relabelled
    pair's).  So the parent's pairs at alpha_i, all above it, leave the
    buckets of the parent's coordinates, and the child's pairs at
    alpha_i, all below it, come in with one `dist` each: at most N - 1.
    """
    r = child.rs.simple_root_index[i]
    out = dict(counts)
    for key, _, _ in _pairs_at(parent, r):
        o, size = out.pop(key, (None, 0))
        if size < 1:
            k, l, t = key
            raise AssertionError(f"transport drives |Phi[{t}]| at ({k},{l}) negative")
        if size > 1:
            out[key] = (o, size - 1)
    cls = child.source_class
    for key, a, b in _pairs_at(child, r):
        _count(out, key, _pair_dist(cls, a, b))
    return out


def _table_of(counts: dict) -> dict:
    """The table {(k, l): {t: o_t}} of the bucket counts."""
    table: dict[tuple[int, int], dict[int, int]] = {}
    for (k, l, t), (o, _) in counts.items():
        table.setdefault((k, l), {})[t] = o
    return table


def _walk_point(point: dict[CommutationClass, FoldedQuiver], seed, move):
    """(quiver, data) for every quiver of a twisted point, parents first.

    The walk follows the BFS tree that the quivers' ``origin`` records:
    the seed's data is ``seed(fq)``, every other quiver's is
    ``move(parent_data, parent, fq, i)``, its parent's data carried
    across the folded reflection at the sink alpha_i.  The point's order
    puts each parent first, and a class's data is dropped once its last
    child has it.
    """
    children = Counter(fq.origin[0].source_class for fq in point.values() if fq.origin)
    live: dict[CommutationClass, object] = {}
    for cls, fq in point.items():
        if fq.origin is None:
            data = seed(fq)
        else:
            parent, i = fq.origin
            up = parent.source_class
            data = move(live[up], parent, fq, i)
            children[up] -= 1
            if not children[up]:
                del live[up]
        if children[cls]:
            live[cls] = data
        yield fq, data


def point_tables(point: dict[CommutationClass, FoldedQuiver]):
    """(quiver, table) for every quiver of a twisted point, parents first,
    in one walk: the seed counted from scratch, every other quiver
    transported.  Nothing is memoised."""
    for fq, counts in _walk_point(point, _scratch_counts, _transport):
        yield fq, _table_of(counts)


def _distance_table(fq: FoldedQuiver) -> dict:
    """{(k, l): {t: o_t}}, k <= l, of one folded quiver, built from that
    quiver alone on every call; a Phi[t] on which `dist` is not constant
    is an AssertionError."""
    return _table_of(_scratch_counts(fq))


def _check_read(target: tuple[str, int], k: int, l: int, convention: str = "A") -> None:
    """A ValueError for a convention other than "A" or "D", or a residue
    outside 1..n of ``target``; `o_t` reads no convention and passes the
    default."""
    if convention not in ("A", "D"):
        raise ValueError("convention must be 'A' or 'D'")
    letter, n = target
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"residues ({k},{l}) outside 1..{n} of {letter}_{n}")


def o_t(fq: FoldedQuiver, k: int, l: int, t: int) -> int | None:
    """Common distance on Phi[t]; None when the set is empty.  Bad
    residues are refused before the table is built."""
    _check_read(fq.folding.target, k, l)
    return _distance_table(fq).get((min(k, l), max(k, l)), {}).get(t)


def table_polynomial(
    table: dict, target: tuple[str, int], k: int, l: int, convention: str
) -> RootedPolynomial:
    """The folded distance polynomial at (k, l) of a distance table of the
    folding onto ``target``, under one sign convention.

    Convention "A" uses factors (z - (-1)^(k+l) q_s^t), convention "D"
    uses (z - (-q_s)^t); exponents are ceil(o_t / 2).
    """
    _check_read(target, k, l, convention)
    factors = []
    for t, o in table.get((min(k, l), max(k, l)), {}).items():
        eps = (-1) ** (k + l) if convention == "A" else (-1) ** t
        factors.extend([(eps, t)] * ceil(o / 2))
    return RootedPolynomial.from_factors(factors)


def distance_polynomial(
    fq: FoldedQuiver, k: int, l: int, convention: str
) -> RootedPolynomial:
    """`table_polynomial` of the quiver's own distance table; a bad read
    is refused before the table is built."""
    _check_read(fq.folding.target, k, l, convention)
    return table_polynomial(_distance_table(fq), fq.folding.target, k, l, convention)


# ---------------------------------------------------------------------------
# socle-dist records, transported along the same walk


def _bad_pair(cls: CommutationClass, a: int, b: int):
    """(a, b, d, socle), a < b, when the pair {a, b} is at dist d > 2 or
    has no unique socle; otherwise None.  Both are read from one
    `pair_below` list."""
    a, b = min(a, b), max(a, b)
    below = pair_below(cls, a, b)
    if not below:
        return None  # nothing below: the pair is its own socle
    d, s = _dist_over(cls, below), _unique_simple(cls, below)
    return (a, b, d, s) if d > 2 or s is None else None


def point_socle_records(point: dict[CommutationClass, FoldedQuiver]):
    """(quiver, socle-dist records) for every quiver of a twisted point,
    parents first, in one walk: the seed checked pair by pair, every
    other quiver transported."""
    return _walk_point(point, _scratch_socles, _transport_socles)


def _scratch_socles(fq: FoldedQuiver) -> list:
    """The socle-dist records of a quiver's class, one check per comparable
    pair (an incomparable pair has nothing below it)."""
    cls = fq.source_class
    return [rec for a, b in comparable_pairs(cls) if (rec := _bad_pair(cls, a, b))]


def _permuted(m: Sequence, perm: tuple[int, ...]) -> Sequence:
    """The sequence m with the multiplicity of each root r moved to perm[r]."""
    out = [0] * len(m)
    for r, mult in enumerate(m):
        out[perm[r]] = mult
    return tuple(out)


def _transport_socles(
    records: list, parent: FoldedQuiver, child: FoldedQuiver, i: int
) -> list:
    """The child's socle-dist records from the parent's, across the folded
    reflection at the sink alpha_i.

    As for the distance counts, s_i maps the partitions below a pair
    without alpha_i onto those below the relabelled pair, order kept; so
    the pair keeps its `dist`, and its socle is the parent's relabelled
    by s_i.  The parent's records at alpha_i are dropped, and the
    child's pairs at alpha_i, at most N - 1, are checked anew.
    """
    rs = child.rs
    r = rs.simple_root_index[i]
    perm = rs.reflection_permutation(i)
    out = [
        (*sorted((perm[a], perm[b])), d, None if s is None else _permuted(s, perm))
        for a, b, d, s in records
        if r != a and r != b
    ]
    cls = child.source_class
    for _, a, b in _pairs_at(child, r):
        rec = _bad_pair(cls, a, b)
        if rec:
            out.append(rec)
    return out
