"""Sequences of positive roots under the class-wise bi-lexicographic order.

A sequence is a multiplicity vector over the positive roots (indexed by
the root system's canonical root order, never by word position).  The
class order m < m' tests the bi-lexicographic condition under every
member word; because member words are exactly the linear extensions of
the convex order, this reduces to a condition on the extremal elements
of the difference support, which is what `class_less` implements; the
definitional word-by-word test is its oracle in the test suite.  Any
linear extension of the convex order is a member word, so sorting
sequences by their multiplicities along it extends the class order.
One such extension is free on every class: the roots by the popcount
of below[r], then by r, since r' before r makes below[r'] a strict
subset of below[r].  `dist` reads its longest chains in one sweep over
that sort (`_chain_depths`), each sequence handed by its support,
compared only with those before it and only on the roots where the
two differ (`_support_less`).
`sequences_of_weight` lists every sequence of a weight up to height
`MAX_WEIGHT_HEIGHT` and refuses a heavier one.

The sequences below a pair {a, b} (`pair_below`) are the partitions of
root_a + root_b into the roots strictly between a and b: the bits of
above[a] & below[b].  Weights are packed into one int, and every pair
weight fits the pair width of its root system (`RootSystem.pair_width`),
so the pair's weight is the sum of its two packed roots
(`RootSystem.packed_roots`).  The one partition search,
`_packed_partitions`, walks the mask of interval roots in root-index
order and sorts nothing: the roots are indexed by (height,
coefficients), so each multiset is listed once by its highest root k,
and the remainder is searched over the roots of the mask below k that
fit under it.  Which roots fit under a packed weight, and which
coordinates it needs covered, are read from per-coordinate tables kept
with the packing and memoised per remainder (`_Fits`); a branch is
entered only while the roots left cover every nonzero coordinate of its
remainder.  The search also serves `_partitions` for any weight, and
`pair_below` and `_partitions` restore their pinned height-rank order
with one sort.

Minimal pairs of a root are found among the pairs summing to it only:
every minimal sequence above a root is a pair, and every summing pair
lies above the root by convexity (McNamara, Crelle 2015).  Two distinct
pairs summing to the root are disjoint and of one weight, so the four
roots are their difference support, and {c, d} lies below {a, b} iff c
and d are both inner in {a, b, c, d}: each has one of the four below it
and one above it in the convex order, two mask reads of `below` and
`above` per root (`_pair_lies_below`).  No sequence is built.
`is_minimal_pair` is that test for one pair against the other pairs of
its root, for `minimal_pairs_of_root` and for the Dorey walk of
``affine``.  The definitional search over all sequences of the weight is
kept as `minimal_sequences`, the oracle for `minimal_pairs_of_root` in
the tests.

A pair is read once, as (dist, least), from its one list of the
sequences below it, by support, and one `_chain_depths` sweep
(`_read_below`); an N-tuple is built only for a socle that a record
keeps.  Whatever lies below an element of the list also lies below the
pair, so the list's minimal elements, those at depth 0, are its simple
sequences, and the socle is the unique one; `is_simple` is not asked.
`pair_below` searches the list anew on every call, the walk-free
oracle.  A walk reads its pairs through one `_pair_reader` instead,
which keeps one partition memo and one `_Fits` for the walk and drops
them at the walk's end: the list depends on the pair weight w and on
the interval roots that fit under w alone, never on the class, so each
such key is searched once per walk and kept by support.  The reading
itself, `_read_below`, runs for every pair, since dist and the socle
depend on the class order.

Distance reads (`distance_polynomial`, `o_t`, `phi_pairs`) take the
folded quiver alone and read its class from `fq.source_class`.  They
read the quiver's table as bucket counts, {(k, l, t): (o_t, |Phi[t]|)}
with k <= l, o_t the common `dist` on Phi[t] (the comparable pairs at
residues {k, l} with gap t), built from that quiver alone on every call
and never memoised; `phi_pairs`, Phi[t] by definition, is its oracle in
the tests.  A polynomial depends on its row (k, l) of the counts
through its exponent row alone, ((t, ceil(o_t / 2)), ...) over o_t > 0,
which `exponent_rows` reads straight off the counts and `row_polynomial`
turns into factors under either sign convention.  The
suites walk their point once instead (`walk_point`), along the BFS
tree of its folded reflections (`parents_first`, the one walker, which
the Dorey walk of ``affine`` also takes), with one datum per class: the
counts {(k, l, t): (o_t, |Phi[t]|)} and the socle-dist records, a class's
pairs at dist > 2 or without a unique socle, each with its `dist` and
socle.  The seed's are read pair by pair, every other class's come
from its parent's.  A folded reflection at the sink alpha_i keeps
every other root's coordinates and carries its pairs, their order,
their `dist` and their socles along by s_i; only alpha_i moves, from
first to last in the convex order.  So a child's datum is its parent's
without the pairs at alpha_i, relabelled by s_i, plus at most N - 1
new pairs below alpha_i, each read once.

A twisted point is closed under the mirror c -> c^v, c^v the class of
the reversed, starred canonical word i_N* ... i_1*.  That word is a
reduced word of w_0 with the roots of c in reverse order, so the convex
order of c^v is that of c reversed, and the class order, which tests
the extremal elements of a difference support at both ends, is the
same for both: every pair's `dist` and socle agree.  The cells of c^v
keep every residue and map each position p to C - p, one C per pair, so
every bucket (k, l, t) agrees too, and c^v's datum is c's.

It is closed as well under c -> sigma c, the class of the canonical word
relabelled by sigma, the diagram automorphism of the folding.  This is
transport of structure: s_{sigma i} = sigma s_i sigma^-1 and sigma fixes
w_0, so the relabelled word is a reduced word of w_0 whose k-th root is
sigma of c's k-th root, and the class order of sigma c, with every
pair's `dist` and socle, is sigma applied to c's.  The cells of sigma c
are c's relabelled by sigma, every residue kept and every position
moved by one shift, so every bucket agrees, and sigma c's datum is c's
with its records relabelled by sigma on root indices.

So the walk reads one class of each orbit {c, c^v, sigma c, sigma c^v},
a quarter of the point (`walk_orbits`, which the Dorey walk of
``affine`` also takes, with its own rule for the mirror's datum).  It
finds the images by projection key (`words.class_images`) and checks,
once per orbit and before its read, that the orbit has four classes,
that sigma commutes with the mirror, that the mirrors' cells mirror
(`_assert_mirrored`) and that the twins' agree up to one shift
(`_assert_twinned`), an AssertionError naming the class.  It hands each
distinct datum out once, with the quivers of the classes that share it.
Every suite is a reduction over that one yield: socle-dist reads the
records, and the distance suites of ``affine`` the counts
(`exponent_rows`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .rootsys import Frozen, Root, RootSystem, pack
from .words import CommutationClass, bits, class_images
from .twistfold import FoldedQuiver

Sequence = tuple[int, ...]  # multiplicity per positive-root index
Support = tuple[tuple[int, int], ...]  # (root index, multiplicity) per root in it


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


def _sequence(n: int, part: Support) -> Sequence:
    """The sequence over n positive roots whose support is ``part``."""
    m = [0] * n
    for r, k in part:
        m[r] = k
    return tuple(m)


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


def _packing(rs: RootSystem, f: int) -> tuple[list[int], list[list[tuple]], int, list]:
    """(packed, units, span, chunks) at f bits per coordinate: every
    positive root packed, the root system's own `packed_roots` at its pair
    width; units[r][k] = (r, k), one object for every root r and
    multiplicity k below the top bit of a field; and the fit tables of the
    coordinates taken a few at a time, ``span`` bits of a packed weight
    per chunk.

    chunks[c][u] is (fit, needs) at the field values u of chunk c: fit
    holds the bits of the roots at most u in each of its coordinates, and
    needs, for each of them that u is nonzero on, the bits of the roots
    nonzero there.  A field with its top bit set, or one past the rank,
    fits no root unless it is 0.  Kept per root system and width.
    """
    key = ("packed_roots", f)
    if key not in rs._cache:
        roots = rs.positive_roots
        every, per = (1 << len(roots)) - 1, max(1, 9 // f)  # at most 2^9 entries a chunk
        coords = []  # per coordinate, (fit, needs) at each field value
        for j in range(rs.rank):
            under = [0] * (1 << f)
            for r, root in enumerate(roots):
                under[root[j]] |= 1 << r
            for v in range(1, 1 << f - 1):
                under[v] |= under[v - 1]
            touch = (every & ~under[0],)
            coords.append([(under[0], ())] + [(fit, touch) for fit in under[1:]])
        # past the rank, up to a whole chunk, only 0 fits
        coords += [[(every, ())] + [(0, ())] * ((1 << f) - 1)] * (-rs.rank % per)
        chunks = []
        for part in zip(*[iter(coords)] * per):
            table = [(every, ())]
            for column in part:  # the next field up: u = lower + v * len(table)
                table = [(fit & a, needs + b) for a, b in column for fit, needs in table]
            chunks.append(table)
        units = [[(r, k) for k in range(1 << f - 1)] for r in range(len(roots))]
        packed = rs.packed_roots if f == rs.pair_width else [pack(r, f) for r in roots]
        rs._cache[key] = (packed, units, f * per, chunks)
    return rs._cache[key]


class _Fits(dict):
    """{packed weight: (fit, needs)} at the width of one `_packing`, one
    chunk of coordinates per table read: fit holds the bits of the roots
    under the weight, and needs, for each coordinate it is nonzero on, the
    bits of the roots nonzero there.  Each entry is made on its first read
    and kept as long as the dict; equal entries are one object, since
    many remainders of a walk fit the same roots and need the same
    covers."""

    def __init__(self, packing: tuple):
        super().__init__()
        self.span, self.chunks = packing[2:]
        self.low = (1 << self.span) - 1
        self.distinct: dict = {}  # each entry to its one object

    def __missing__(self, w: int) -> tuple[int, tuple[int, ...]]:
        fit, needs, rest = -1, (), w
        for table in self.chunks:
            got = table[rest & self.low]
            fit &= got[0]
            needs += got[1]
            rest >>= self.span
        got = (fit, needs)
        self[w] = got = self.distinct.setdefault(got, got)
        return got


def _height_rank(rs: RootSystem) -> list[int]:
    """The roots by decreasing height, then by index; kept per root
    system."""
    if "height_rank" not in rs._cache:
        rs._cache["height_rank"] = sorted(
            range(rs.num_positive), key=lambda r: (-sum(rs.positive_roots[r]), r)
        )
    return rs._cache["height_rank"]


def _in_height_rank(rs: RootSystem, parts: list[Support]) -> list[Sequence]:
    """The sequences of some supports in lexicographic order of their
    multiplicities along `_height_rank`: the order `pair_below` and
    `_partitions` list."""
    n = rs.num_positive
    return sorted((_sequence(n, part) for part in parts), key=itemgetter(*_height_rank(rs)))


def _partitions(rs: RootSystem, w: Root, allowed) -> list[Sequence]:
    """Multisets from ``allowed`` root indices summing to w.

    They come in lexicographic order of the multiplicities along
    ``allowed`` sorted by decreasing height.  w is packed f bits per
    coordinate, f wide enough for w and for every root, and
    `_packed_partitions` searches the allowed roots.
    """
    if min(w) < 0:
        return []
    f = max(*w, *rs.positive_roots[-1]).bit_length() + 1
    mask = 0
    for r in allowed:
        mask |= 1 << r
    packing = _packing(rs, f)
    found = _packed_partitions(packing, _Fits(packing), pack(w, f), mask)
    return _in_height_rank(rs, found)


def _packed_partitions(packing: tuple, fits: _Fits, w: int, mask: int) -> list[Support]:
    """The multisets of roots of ``mask`` summing to the packed weight w,
    by support: (root, multiplicity) for each root taken, highest index
    first, each pair one of the packing's units.

    ``packing`` is the `_packing` of one width and ``fits`` a `_Fits` of
    it.  Each multiset is listed once, by its highest root k: k is taken
    some number of times, and the remainder is searched over the roots of
    the mask below k that fit under it, ``mask & ((1 << k) - 1) & fit``.
    k is at least the lowest root of the mask on each coordinate the
    remainder is nonzero on, a branch is entered only where its roots
    cover every such coordinate, and a multiset is emitted as soon as its
    remainder is 0.  Nothing is sorted.
    """
    if not w:
        return [()]
    packed, units = packing[:2]
    fit, needs = fits[w]
    mask &= fit
    if not all(map(mask.__and__, needs)):
        return []  # w is nonzero where no root of the mask is
    out: list[Support] = []
    taken: list[tuple[int, int]] = []  # (root, multiplicity) of the roots above

    def rec(mask: int, rem: int, needs: tuple[int, ...]) -> None:
        floor = 0  # the lowest bit of the mask on some needed coordinate, the highest
        for touch in needs:
            touch &= mask
            touch &= -touch
            if touch > floor:
                floor = touch
        top = mask & -floor
        while top:
            k = top.bit_length() - 1
            bit = 1 << k
            top ^= bit
            left = mask & bit - 1
            p, acc, unit = packed[k], rem, units[k]
            mult = 0
            while True:
                acc -= p
                mult += 1
                if not acc:
                    out.append((*taken, unit[mult]))
                    break
                fit, needs = fits[acc]
                sub = left & fit
                if all(map(sub.__and__, needs)):
                    taken.append(unit[mult])
                    rec(sub, acc, needs)
                    taken.pop()
                if not fit & bit:
                    break

    rec(mask, w, needs)
    return out


# ---------------------------------------------------------------------------
# orders


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


def _support_less(below, above, x: dict[int, int], y: dict[int, int]) -> bool:
    """`_less_same_weight` for the multiplicities {root: k} of two supports
    of one weight, in the convex order of the masks ``below`` and
    ``above``, read on their difference alone: every root where x is
    larger has a root of the difference below it and one above it."""
    diff, up = 0, []
    for r, k in x.items():
        j = y.get(r, 0)
        if k != j:
            diff |= 1 << r
            if k > j:
                up.append(r)
    for r in y.keys() - x.keys():
        diff |= 1 << r
    for r in up:
        if not below[r] & diff or not above[r] & diff:
            return False
    return bool(diff)


# ---------------------------------------------------------------------------
# pairs: everything below a pair lives on its open interval


def pair_below(cls: CommutationClass, a: int, b: int) -> list[Sequence]:
    """All sequences strictly below the pair {a, b} in the class order.

    These are exactly the multisets of roots lying strictly between a
    and b in the convex order whose weight is root_a + root_b; every
    call enumerates them anew (`_pair_partitions`), in `_partitions`
    order.  This is the walk-free oracle: the walks read their pairs
    through one `_pair_reader` each, which searches each key once.
    An index outside 0..N-1 is a ValueError.
    """
    rs = cls.rs
    for r in (a, b):
        if not 0 <= r < rs.num_positive:
            raise ValueError(f"{r!r} is not a positive root of {rs}")
    return _in_height_rank(rs, _pair_partitions(cls, a, b))


def _pair_partitions(cls: CommutationClass, a: int, b: int) -> list[Support]:
    """The sequences strictly below the pair {a, b}, by support, from one
    search of its own: the interval is read from the order masks, and the
    weight is packed at the one pair width of the root system, as the sum
    of the two packed roots."""
    above, below = cls.above(), cls.below()
    mask = above[a] & below[b] or above[b] & below[a]
    if not mask:
        return []  # an empty interval, or an incomparable pair
    rs = cls.rs
    packing = _packing(rs, rs.pair_width)
    packed = packing[0]
    return _packed_partitions(packing, _Fits(packing), packed[a] + packed[b], mask)


def is_simple(cls: CommutationClass, m: Sequence) -> bool:
    """Simplicity: a single-root multiple, or all supported pairs simple."""
    _check_sequence(cls.rs, m)
    return not any(_pair_partitions(cls, a, b) for a, b in combinations(support(m), 2))


def _chain_depths(cls: CommutationClass, elems: list[Support]) -> dict[Support, int]:
    """Longest-chain length ending at each of some supports of one weight.

    The roots in order of the popcount of below[r], then of r, are a
    linear extension of the convex order, since r' before r makes
    below[r'] a strict subset of below[r]; so they are a member word, and
    x < y makes x lexicographically smaller along it.  Sorted by their
    multiplicities along it, every element comes after the elements below
    it, so one sweep compares each pair once (`_support_less`).
    """
    below, above = cls.below(), cls.above()
    n = cls.rs.num_positive

    def along(part: Support) -> list[tuple[int, int]]:
        # compares as the multiplicities along the extension do: each root
        # as (-place, multiplicity), the roots in place order
        return sorted([(-(below[r].bit_count() * n + r), k) for r, k in part], reverse=True)

    depth: dict[Support, int] = {}
    swept: list[tuple[dict[int, int], int]] = []  # (multiplicities, depth)
    for y in sorted(elems, key=along):
        my = dict(y)
        depth[y] = d = max(
            (e + 1 for mx, e in swept if _support_less(below, above, mx, my)), default=0
        )
        swept.append((my, d))
    return depth


def _read_below(cls: CommutationClass, under: list[Support]) -> tuple[int, Support | None]:
    """(dist, least) of a sequence from the supports of every sequence
    below it.

    dist is 0 with none below, 1 with one, else one plus the longest
    chain.  least is the list's one minimal element, None when it has
    none or several.  Whatever lies below an element of a pair's list
    also lies below the pair, so there the minimal elements are the
    simple sequences, and least is the pair's socle.
    """
    if len(under) < 2:
        return len(under), (under[0] if under else None)
    depth = _chain_depths(cls, under)
    least = [x for x, d in depth.items() if not d]
    return 1 + max(depth.values()), (least[0] if len(least) == 1 else None)


def _check_sequence(rs: RootSystem, m: Sequence) -> None:
    """A ValueError unless m has one nonnegative entry per positive root."""
    if len(m) != rs.num_positive or min(m, default=0) < 0:
        raise ValueError(
            f"a sequence has N = {rs.num_positive} nonnegative entries, "
            f"one per positive root: {m!r}"
        )


def dist(cls: CommutationClass, m: Sequence) -> int:
    """Length of the longest strict chain below m (ending at a simple)."""
    rs = cls.rs
    _check_sequence(rs, m)
    if is_pair(m):
        under = _pair_partitions(cls, *support(m))
    else:
        seqs = sequences_of_weight(rs, weight_of(rs, m))
        under = [tuple((r, k) for r, k in enumerate(x) if k)
                 for x in seqs if class_less(cls, x, m)]
    return _read_below(cls, under)[0]


def socle(cls: CommutationClass, m: Sequence) -> Sequence | None:
    """The unique simple sequence weakly below a pair, when it exists."""
    _check_sequence(cls.rs, m)
    if not is_pair(m):
        raise ValueError("socle is defined for pairs")
    under = _pair_partitions(cls, *support(m))
    if not under:
        return m
    least = _read_below(cls, under)[1]
    return least and _sequence(cls.rs.num_positive, least)


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


def is_minimal_pair(below, above, pairs, a: int, b: int) -> bool:
    """No other pair of ``pairs``, the summing pairs (a, b), a < b, of one
    root, lies below its pair (a, b) in the convex order of the masks
    ``below`` and ``above``: two distinct pairs summing to the root are
    disjoint, so this is `_pair_lies_below` for each of them."""
    upper = 1 << a | 1 << b
    return not any(_pair_lies_below(below, above, c, d, upper) for c, d in pairs if c != a)


def minimal_pairs_of_root(cls: CommutationClass, gamma: int) -> list[tuple[int, int]]:
    """Minimal pairs (a, b) of a positive root, a preceding b.

    Every minimal sequence above a root is a pair, and by convexity every
    pair summing to the root lies above it; so the minimal pairs are the
    minimal elements among the summing pairs, each found by
    `is_minimal_pair`: two mask reads per root of each other pair.
    `minimal_sequences`, the definitional search over all sequences of the
    weight, is the oracle the tests check this against.  A bad root index
    is a ValueError.
    """
    pairs = cls.rs.summing_pairs(gamma)  # a bad index is refused before any shift
    below, above = cls.below(), cls.above()
    return sorted(
        (b, a) if cls.precedes(b, a) else (a, b)
        for a, b in pairs
        if is_minimal_pair(below, above, pairs, a, b)
    )


# ---------------------------------------------------------------------------
# distance polynomials


class RootedPolynomial(Frozen):
    """A multiset of linear factors (z - eps * q_s^t), eps in {+1, -1}."""

    __slots__ = _shown = ("factors",)

    def __init__(self, factors: tuple[tuple[tuple[int, int], int], ...]):
        object.__setattr__(self, "factors", factors)  # ((eps, t), multiplicity)

    def _key(self) -> tuple:
        return (self.factors,)

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
    below = cls.below()
    return [(a, b) for b in cls.roots() for a in bits(below[b])]


def phi_pairs(fq: FoldedQuiver, k: int, l: int, t: int) -> list[tuple[int, int]]:
    """Phi[t] by definition: comparable pairs at residues {k, l}, gap t."""
    coord = fq.cells
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


def _pair_reader(rs: RootSystem):
    """The reader of one walk over a point of ``rs``: a function of (a, b,
    interval), a before b and ``interval`` the bits of above[a] & below[b],
    that gives the partitions below the pair by support, as
    `_pair_partitions` lists them.

    They are the partitions of the pair weight w into the interval roots
    that fit under w, so they depend on (w, interval & fit(w)) alone,
    never on the class.  The reader searches each such key once
    (`_packed_partitions`) and keeps its partitions, a tuple of (root,
    multiplicity) pairs each, one pair object per (root, multiplicity)
    and one int per key.  One `_Fits` serves every search of the walk, so
    each pair weight and each remainder is fitted once, and the packing
    is read once.  The memos live as long as the reader, which the walk
    drops at its end.
    """
    packing = _packing(rs, rs.pair_width)
    packed, fits = packing[0], _Fits(packing)
    shift = rs.rank * rs.pair_width  # every pair weight is below 1 << shift
    memo: dict[int, tuple] = {}  # (w, interval & fit(w)) as one int -> supports

    def read(a: int, b: int, interval: int):
        if not interval:
            return ()
        w = packed[a] + packed[b]
        inside = interval & fits[w][0]
        if not inside:
            return ()
        key = inside << shift | w
        parts = memo.get(key)
        if parts is None:
            parts = memo[key] = tuple(_packed_partitions(packing, fits, w, inside))
        return parts

    return read


def _read_pair(data: tuple, reader, cls: CommutationClass, key, a: int, b: int,
               interval: int) -> None:
    """Read the pair {a, b}, a before b, of bucket ``key`` and open interval
    ``interval`` into the data (counts, records), its partitions from
    ``reader``: its `dist` joins the bucket counts, and the record
    (a, b, d, socle), a < b, joins the records when the pair is at dist
    d > 2 or has no unique socle; that socle is the one sequence the read
    builds.  A pair with nothing below it is at dist 0 and is its own
    socle."""
    counts, records = data
    d, least = _read_below(cls, reader(a, b, interval))
    _count(counts, key, d)
    if d > 2 or (d and least is None):
        socle = least and _sequence(cls.rs.num_positive, least)
        records.append((min(a, b), max(a, b), d, socle))


def _scratch(fq: FoldedQuiver, reader) -> tuple:
    """(bucket counts, socle-dist records) of a folded quiver, one reading
    per comparable pair (an incomparable pair has nothing below it), the
    class's masks fetched once."""
    cls = fq.source_class
    coord = fq.cells
    below, above = cls.below(), cls.above()
    data: tuple = ({}, [])
    for a, b in comparable_pairs(cls):
        _read_pair(data, reader, cls, _bucket(coord, a, b), a, b, above[a] & below[b])
    return data


def _pairs_at(fq: FoldedQuiver, r: int) -> list[tuple[tuple[int, int, int], int, int]]:
    """(bucket, a, b) for each comparable pair {a, b} of the quiver's class
    that contains the root r, a before b."""
    cls = fq.source_class
    coord = fq.cells
    return [(_bucket(coord, a, r), a, r) for a in bits(cls.below()[r])] + [
        (_bucket(coord, r, b), r, b) for b in bits(cls.above()[r])
    ]


def _transport(
    data: tuple, parent: FoldedQuiver, child: FoldedQuiver, i: int, reader
) -> tuple:
    """The child's (bucket counts, socle-dist records) from the parent's,
    across the folded reflection at the sink alpha_i.

    The reflection relabels every other root by s_i at the same residue
    and position, and moves alpha_i from the first place of the convex
    order to the last.  A pair without alpha_i keeps its bucket, its
    order, its `dist` and its socle relabelled by s_i (s_i maps its
    partitions onto the relabelled pair's, order kept).  So the parent's
    pairs at alpha_i, all above it, leave the buckets of the parent's
    coordinates and the records, and the child's pairs at alpha_i, all
    below it, are read anew through ``reader``: at most N - 1.
    """
    counts, records = data
    rs = child.rs
    r = rs.simple_root_index[i]
    perm = rs.reflection_permutation(i)  # an involution
    counts = dict(counts)
    for key, _, _ in _pairs_at(parent, r):
        o, size = counts.pop(key, (None, 0))
        if size < 1:
            k, l, t = key
            raise AssertionError(f"transport drives |Phi[{t}]| at ({k},{l}) negative")
        if size > 1:
            counts[key] = (o, size - 1)
    out = (counts, [
        (*sorted((perm[a], perm[b])), d, s and tuple(map(s.__getitem__, perm)))
        for a, b, d, s in records
        if r != a and r != b
    ])
    cls = child.source_class
    below, above = cls.below(), cls.above()
    for key, a, b in _pairs_at(child, r):
        _read_pair(out, reader, cls, key, a, b, above[a] & below[b])
    return out


def exponent_rows(counts: dict) -> dict:
    """{(k, l): ((t, ceil(o_t / 2)), ...)} over the buckets (k, l, t) of a
    datum's counts with o_t > 0, each row sorted by t: the factor
    exponents of its distance polynomials, read straight off the counts."""
    rows: dict = {}
    for (k, l, t), (o, _) in counts.items():
        if o:
            rows.setdefault((k, l), []).append((t, (o + 1) // 2))
    return {key: tuple(sorted(row)) for key, row in rows.items()}


def _assert_mirrored(fq: FoldedQuiver, mirror: FoldedQuiver) -> None:
    """The cells of a class and of its mirror, indexed by root: every root
    keeps its residue, and its two positions p, p' have one sum p + p'."""
    moves = {(rm - rc, pc + pm) for (rc, pc), (rm, pm) in zip(fq.cells, mirror.cells)}
    if len(moves) != 1 or moves.pop()[0]:
        raise AssertionError(
            f"class {fq.source_class.canonical_word} and its mirror "
            f"{mirror.source_class.canonical_word} have unmirrored cells"
        )


def _assert_twinned(fq: FoldedQuiver, twin: FoldedQuiver, sigma) -> None:
    """The cells of a class and of its sigma twin, indexed by root: the
    twin's root sigma(r) keeps r's residue, and its position is r's moved
    by one shift for every root."""
    cells = twin.cells
    moves = {(cells[s][0] - rc, cells[s][1] - pc) for (rc, pc), s in zip(fq.cells, sigma)}
    if len(moves) != 1 or moves.pop()[0]:
        raise AssertionError(
            f"class {fq.source_class.canonical_word} and its twin "
            f"{twin.source_class.canonical_word} have untwinned cells"
        )


def _root_twins(rs: RootSystem, perm: dict[int, int]) -> tuple[int, ...]:
    """sigma on positive-root indices: the root sum c_j alpha_j to the root
    sum c_j alpha_{sigma j}."""
    out = []
    for root in rs.positive_roots:
        moved = [0] * rs.rank
        for j, c in zip(rs.nodes, root):
            moved[perm[j] - 1] = c
        out.append(rs.root_index[tuple(moved)])
    return tuple(out)


def parents_first(point: dict[CommutationClass, FoldedQuiver], read):
    """(quiver, datum) for every quiver of a twisted point, along the BFS
    tree of the classes' ``parent``, (up, i).

    The point's order puts each parent first.  The seed's datum is
    ``read(fq, None)``, every other class's ``read(fq, (datum, parent
    quiver, i))`` from the datum of ``point[up]`` across the folded
    reflection at the sink alpha_i; a class's datum is dropped once its
    last child has come.
    """
    children = Counter(cls.parent[0] for cls in point if cls.parent)
    live: dict[CommutationClass, object] = {}
    for cls, fq in point.items():
        if cls.parent is None:
            data = read(fq, None)
        else:
            up, i = cls.parent
            data = read(fq, (live[up], point[up], i))
            children[up] -= 1
            if not children[up]:
                del live[up]
        if children[cls]:
            live[cls] = data
        yield fq, data


def walk_orbits(point: dict[CommutationClass, FoldedQuiver], read, relabel, mirror):
    """(datum, quivers) once per distinct datum of a twisted point, parents
    first (`parents_first`): ``quivers`` holds the quivers of the classes
    whose datum it is.

    One class of each orbit {c, c^v, sigma c, sigma c^v} is read, the
    first in the point's order, by ``read(fq, up)``; c^v takes the datum
    ``mirror(datum)``, sigma c the datum ``relabel(datum, sigma)``, sigma
    on root indices, and sigma c^v the mirror of that.  Before the read the
    orbit is checked: its four classes, sigma commuting with the mirror,
    the mirrors' cells (`_assert_mirrored`) and the twin's
    (`_assert_twinned`), an AssertionError naming the class; images
    outside the point, and a sigma that is no involution, are refused
    when the walk starts.  The other classes' data are held under them
    until they come, as they may be parents.
    """
    first = next(iter(point.values()))
    rs, perm = first.rs, first.folding.automorphism.perm
    if any(perm[perm[i]] != i for i in perm):
        raise AssertionError(f"the diagram automorphism of {rs} is not an involution")
    images = class_images(point, perm, ("mirror", "twin"))
    twin, mirror_of = images["twin"], images["mirror"]
    sigma = _root_twins(rs, perm)
    held: dict[CommutationClass, object] = {}  # a datum, under its class to come
    fresh: list[tuple] = []  # the yields of the datum just read

    def orbit(cls):
        """(cls, cls^v, sigma cls, sigma cls^v), checked."""
        classes = (cls, mirror_of[cls], twin[cls], mirror_of[twin[cls]])
        if twin[classes[1]] != classes[3]:
            raise AssertionError(
                f"sigma and the mirror do not commute at class {cls.canonical_word}")
        if len(set(classes)) != 4:
            raise AssertionError(
                f"the orbit of class {cls.canonical_word} has fewer than 4 classes")
        _assert_mirrored(point[classes[0]], point[classes[1]])
        _assert_mirrored(point[classes[2]], point[classes[3]])
        _assert_twinned(point[cls], point[classes[2]], sigma)
        return classes

    def step(fq, up):
        cls = fq.source_class
        if cls not in held:
            classes = orbit(cls)
            data = read(fq, up)
            other = relabel(data, sigma)
            groups: list[tuple] = []  # (datum, its classes), equal data once
            for c, datum in zip(classes, (data, mirror(data), other, mirror(other))):
                for known, group in reversed(groups):
                    if known is datum or known == datum:
                        group.append(c)
                        break
                else:
                    groups.append((datum, [c]))
            for datum, group in groups:
                held.update(dict.fromkeys(group, datum))
                fresh.append((datum, tuple(point[c] for c in group)))
        return held.pop(cls)

    for _ in parents_first(point, step):
        yield from fresh
        fresh.clear()


def _twin_datum(data: tuple, sigma) -> tuple:
    """The (bucket counts, socle-dist records) of a class's sigma twin: the
    same counts, and the records relabelled by sigma, an involution."""
    counts, records = data
    return counts, [
        (*sorted((sigma[a], sigma[b])), d, s and tuple(map(s.__getitem__, sigma)))
        for a, b, d, s in records
    ]


def walk_point(point: dict[CommutationClass, FoldedQuiver]):
    """((bucket counts, socle-dist records), quivers) once per distinct
    datum, parents first, one class read per orbit {c, c^v, sigma c,
    sigma c^v} (`walk_orbits`): ``quivers`` holds the quivers of the
    classes whose datum it is.  c^v's datum is c's, and sigma c's is c's
    with its records relabelled by sigma (`_twin_datum`).  The seed is
    read pair by pair (`_scratch`), every other class read has its datum
    carried from its parent's across the folded reflection at the sink
    alpha_i (`_transport`), both through the walk's one `_pair_reader`.
    """
    reader = _pair_reader(next(iter(point)).rs)

    def read(fq, up):
        if up is None:
            return _scratch(fq, reader)
        up_data, parent, i = up
        return _transport(up_data, parent, fq, i, reader)

    yield from walk_orbits(point, read, _twin_datum, lambda data: data)


def _distance_table(fq: FoldedQuiver) -> dict:
    """The bucket counts {(k, l, t): (o_t, |Phi[t]|)}, k <= l, of one folded
    quiver, built from that quiver alone on every call; a Phi[t] on which
    `dist` is not constant is an AssertionError."""
    return _scratch(fq, _pair_reader(fq.rs))[0]


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
    return _distance_table(fq).get((min(k, l), max(k, l), t), (None,))[0]


def row_polynomial(row: tuple, k: int, l: int, convention: str) -> RootedPolynomial:
    """The folded distance polynomial of an exponent row (`exponent_rows`)
    at (k, l): its factors (z - eps q_s^t), eps = (-1)^(k+l) under
    convention "A" and (-1)^t under "D"."""
    return RootedPolynomial(tuple(sorted(
        (((-1) ** (k + l) if convention == "A" else (-1) ** t, t), e) for t, e in row
    )))


def distance_polynomial(
    fq: FoldedQuiver, k: int, l: int, convention: str
) -> RootedPolynomial:
    """The folded distance polynomial at (k, l) of the quiver's own
    distance table, under one sign convention; a bad read is refused
    before the table is built."""
    _check_read(fq.folding.target, k, l, convention)
    row = exponent_rows(_distance_table(fq)).get((min(k, l), max(k, l)), ())
    return row_polynomial(row, k, l, convention)
