import hashlib
import re
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from arfold import affine, cli, rootsys, seqorder, words
from arfold.rootsys import DiagramAutomorphism, Folding, RootSystem, folding_to, root_system
from arfold.words import (
    CommutationClass,
    _kahn,
    adapted_point,
    bits,
    commutation_class,
    mirror_classes,
    root_sequence,
    twisted_adapted_point,
)
from arfold.twistfold import FoldedQuiver, twisted_folded_quivers
from arfold.seqorder import (
    _distance_table,
    _read_below,
    _less_same_weight,
    _partitions,
    class_less,
    comparable_pairs,
    dist,
    distance_polynomial,
    is_pair,
    is_simple,
    minimal_pairs_of_root,
    minimal_sequences,
    o_t,
    pair_below,
    phi_pairs,
    sequence_from_roots,
    sequences_of_weight,
    socle,
    support,
    walk_point,
    weight_of,
)

from oracles import (
    classify_cover, comparable, interval, mirror_class, moved_twin_cell, read_classes, table_of,
    twin_class, walk_data, walk_tables,
)


def seq(rs, *roots):
    return sequence_from_roots(rs, [rs.root_index[r] for r in roots])


def by_support(m):
    """A sequence as its support: (root, multiplicity) for each root in it."""
    return tuple((r, k) for r, k in enumerate(m) if k)


@lru_cache(maxsize=None)
def member_orders(cls):
    """For each member word, its root indices in word order."""
    rs = cls.rs
    return tuple(
        tuple(rs.root_index[b] for b in root_sequence(rs, w)) for w in cls.members()
    )


def bilex_less_word(cls, word, m, mp):
    """The bi-lexicographic order under one member word, by definition:
    m is smaller at the first and at the last position of ``word`` where
    the multiplicities differ."""
    rs = cls.rs
    a, b = ([v[rs.root_index[r]] for r in root_sequence(rs, word)] for v in (m, mp))
    diff = [k for k in range(len(a)) if a[k] != b[k]]
    return bool(diff) and a[diff[0]] < b[diff[0]] and a[diff[-1]] < b[diff[-1]]


def class_less_oracle(cls, m, mp):
    """Definitional: bi-lex under every member word.

    Under each member word, m must be smaller at the first and at the
    last position where the multiplicities differ (``bilex_less_word``).
    """
    if weight_of(cls.rs, m) != weight_of(cls.rs, mp) or m == mp:
        return False
    for order in member_orders(cls):
        diff = [r for r in order if m[r] != mp[r]]
        if not (m[diff[0]] < mp[diff[0]] and m[diff[-1]] < mp[diff[-1]]):
            return False
    return True


def test_bilex_spec_example_a2():
    rs = root_system("A", 2)
    cls = commutation_class(rs, (1, 2, 1))
    m = seq(rs, (1, 1))
    mp = seq(rs, (1, 0), (0, 1))
    assert bilex_less_word(cls, (1, 2, 1), m, mp)
    assert not bilex_less_word(cls, (1, 2, 1), mp, m)
    assert not bilex_less_word(cls, (1, 2, 1), m, m)
    assert class_less(cls, m, mp)


def test_incomparable_same_weight_sequences_exist_a3():
    rs = root_system("A", 3)
    cls = commutation_class(rs, (1, 2, 3, 2, 1, 2))
    found = False
    for w in {tuple(weight_of(rs, seq(rs, a, b)))
              for a in rs.positive_roots for b in rs.positive_roots}:
        elems = sequences_of_weight(rs, w)
        for m, mp in combinations(elems, 2):
            if not class_less(cls, m, mp) and not class_less(cls, mp, m):
                found = True
    assert found


def test_class_less_equals_oracle_exhaustive_small():
    """Extremal-support characterization == word-quantified bi-lex."""
    for tt, rk in [("A", 3), ("D", 4)]:
        for cls in sorted(twisted_adapted_point(tt, rk),
                          key=lambda c: c.canonical_word)[:2]:
            rs = cls.rs
            weights = set()
            for a in range(rs.num_positive):
                for b in range(a, rs.num_positive):
                    if a != b:
                        w = weight_of(rs, sequence_from_roots(rs, [a, b]))
                        weights.add(tuple(w))
            for w in sorted(weights):
                elems = sequences_of_weight(rs, w)
                for m, mp in combinations(elems, 2):
                    assert class_less(cls, m, mp) == class_less_oracle(cls, m, mp)
                    assert class_less(cls, mp, m) == class_less_oracle(cls, mp, m)


def test_pair_below_matches_unpruned_enumeration():
    # every class of four points, each pair in both orders
    points = [twisted_adapted_point("A", 3), twisted_adapted_point("A", 5),
              twisted_adapted_point("D", 4), adapted_point("A", 4)]
    for point in points:
        for cls in sorted(point, key=lambda c: c.canonical_word):
            rs = cls.rs
            for a in range(rs.num_positive):
                for b in range(a + 1, rs.num_positive):
                    p = sequence_from_roots(rs, [a, b])
                    brute = sorted(
                        m for m in sequences_of_weight(rs, weight_of(rs, p))
                        if m != p and class_less(cls, m, p)
                    )
                    assert sorted(pair_below(cls, a, b)) == brute
                    assert sorted(pair_below(cls, b, a)) == brute


def partitions_oracle(rs, w, allowed):
    """Multisets of ``allowed`` roots of weight w, one root at a time in
    decreasing height (lexicographic order of the multiplicities)."""
    allowed = sorted(allowed, key=lambda r: (-sum(rs.positive_roots[r]), r))
    out, cur = [], [0] * rs.num_positive

    def rec(k, rem):
        if not any(rem):
            out.append(tuple(cur))
            return
        if k == len(allowed):
            return
        r = allowed[k]
        beta = rs.positive_roots[r]
        rec(k + 1, rem)
        while all(x >= y for x, y in zip(rem, beta)):
            rem = tuple(x - y for x, y in zip(rem, beta))
            cur[r] += 1
            rec(k + 1, rem)
        cur[r] = 0

    rec(0, tuple(w))
    return out


@pytest.mark.parametrize("tt, rk", [("A", 5), ("D", 4), ("D", 5), ("E", 6)])
def test_partitions_equal_oracle(tt, rk):
    rs = root_system(tt, rk)
    every = range(rs.num_positive)
    for w in product(range(3), repeat=rk):
        if sum(w) <= 8:
            assert _partitions(rs, w, every) == partitions_oracle(rs, w, every), w
    cls = min(twisted_adapted_point(tt, rk), key=lambda c: c.canonical_word)
    for a in every:
        for b in every:
            w = weight_of(rs, sequence_from_roots(rs, [a, b]))
            inner = interval(cls, a, b)
            assert _partitions(rs, w, inner) == partitions_oracle(rs, w, inner)


PAIR_ORACLE_POINTS = [("A", 5), ("A", 7), ("D", 5), ("E", 6)]


def oracle_classes(tt, rk):
    """Every class of the twisted point, the first one only for E6."""
    classes = sorted(twisted_adapted_point(tt, rk), key=lambda c: c.canonical_word)
    return classes[:1] if tt == "E" else classes


@lru_cache(maxsize=None)
def pair_below_oracle(tt, rk):
    """[(word, a, b, list)] for every ordered pair of every oracle class:
    `partitions_oracle` over the interval between a and b, whichever comes
    first, or [] for an incomparable pair."""
    out = []
    for cls in oracle_classes(tt, rk):
        rs = cls.rs
        for a, b in product(range(rs.num_positive), repeat=2):
            w = weight_of(rs, sequence_from_roots(rs, [a, b]))
            if cls.precedes(a, b):
                want = partitions_oracle(rs, w, interval(cls, a, b))
            elif cls.precedes(b, a):
                want = partitions_oracle(rs, w, interval(cls, b, a))
            else:
                want = []
            out.append((cls.canonical_word, a, b, want))
    return out


def pair_below_mismatches(tt, rk):
    """The oracle entries `pair_below` gets wrong, the first few only,
    read on classes of a root system built anew: no packing is memoised
    yet, so a mutant cannot reuse a correct one."""
    rs = RootSystem(tt, rk)
    classes = {}
    bad = []
    for word, a, b, want in pair_below_oracle(tt, rk):
        cls = classes.setdefault(word, CommutationClass(rs, word))
        if pair_below(cls, a, b) != want:
            bad.append((word, a, b))
            if len(bad) == 3:
                break
    return bad


@pytest.mark.parametrize("tt, rk", PAIR_ORACLE_POINTS)
def test_pair_below_equals_the_interval_oracle_in_order(tt, rk):
    assert pair_below_mismatches(tt, rk) == []


def _unsorted_height_rank(rs):
    return range(rs.num_positive)  # the roots in index order


def _undoubled_pair_width(roots):
    return max(roots[-1]).bit_length() + 1


SEARCH_MUTANTS = {
    # the cover misses the lowest root below k, so live branches are cut
    "cover": ("if all(map(sub.__and__, needs)):", "if all(map((sub & sub - 1).__and__, needs)):"),
    # the remainder is also searched over the roots above k: each multiset
    # comes once per order of its roots
    "above": ("sub = left & fit", "sub = mask & ~(1 << k) & fit"),
}


@pytest.mark.parametrize("mutant", ["width", "cover", "sort", "above"])
def test_pair_below_mutants_fail_the_interval_oracle(monkeypatch, recompiled, mutant):
    if mutant == "width":  # a pair weight overflows its fields
        monkeypatch.setattr(rootsys, "_pair_width", _undoubled_pair_width)
    elif mutant == "sort":  # `pair_below` restores the index order, not the height rank
        monkeypatch.setattr(seqorder, "_height_rank", _unsorted_height_rank)
    else:
        monkeypatch.setattr(seqorder, "_packed_partitions", recompiled(
            seqorder._packed_partitions, *SEARCH_MUTANTS[mutant]
        ))
    assert any(
        pair_below_mismatches(tt, rk) for tt, rk in PAIR_ORACLE_POINTS
    )


def test_no_sequence_has_a_negative_coordinate():
    rs = root_system("A", 3)
    assert sequences_of_weight(rs, (1, -1, 1)) == ()
    assert sequences_of_weight(rs, (2, -1, 0)) == ()


def test_sequences_of_weight_refuses_a_weight_above_the_cap():
    rs = root_system("A", 1)
    cap = seqorder.MAX_WEIGHT_HEIGHT
    assert sequences_of_weight(rs, (cap,)) == ((cap,),)
    for _ in range(2):  # a refusal is not memoised away
        with pytest.raises(ValueError, match=f"weight height {cap + 1} exceeds "
                           f"the enumeration cap {cap}"):
            sequences_of_weight(rs, (cap + 1,))


@pytest.mark.parametrize("a, b, bad", [(-15, 1, -15), (1, -1, -1), (15, 1, 15), (0, 99, 99)])
def test_pair_below_refuses_an_index_outside_the_roots(a, b, bad):
    # A5 has N = 15 roots: -15 would alias root 0, and 15 end in an IndexError
    cls = min(twisted_adapted_point("A", 5), key=lambda c: c.canonical_word)
    with pytest.raises(ValueError, match=rf"^{bad} is not a positive root of RootSystem\(A5\)$"):
        pair_below(cls, a, b)


def test_pair_below_returns_a_fresh_list():
    cls = min(twisted_adapted_point("A", 5), key=lambda c: c.canonical_word)
    rs = cls.rs
    a, b = next(
        (a, b) for a in range(rs.num_positive) for b in range(rs.num_positive)
        if len(pair_below(cls, a, b)) > 1
    )
    want = list(pair_below(cls, a, b))
    first = pair_below(cls, a, b)
    first.pop()
    first.append(sequence_from_roots(rs, [a, b]))
    assert pair_below(cls, a, b) == want
    pair_below(cls, a, b).clear()
    assert pair_below(cls, a, b) == want


def test_interval_is_the_bits_of_above_and_below():
    for tt, rk in [("A", 5), ("D", 5), ("E", 6)]:
        for cls in twisted_adapted_point(tt, rk):
            above, below, order = cls.above(), cls.below(), cls.roots()
            for a in order:
                assert above[a] == sum(1 << r for r in order if cls.precedes(a, r))
                for b in order:
                    mask = above[a] & below[b]
                    assert interval(cls, a, b) == [r for r in order if mask >> r & 1]


def test_simple_singleton_and_multiple():
    rs = root_system("A", 3)
    cls = commutation_class(rs, (1, 2, 3, 2, 1, 2))
    for r in range(rs.num_positive):
        assert is_simple(cls, sequence_from_roots(rs, [r]))
        assert is_simple(cls, sequence_from_roots(rs, [r, r]))


def test_pair_summing_to_root_is_not_simple():
    for cls in twisted_adapted_point("A", 3):
        rs = cls.rs
        for g in range(rs.num_positive):
            for a, b in rs.summing_pairs(g):
                assert not is_simple(cls, sequence_from_roots(rs, [a, b]))


def test_minimal_sequences_of_simple_root_empty():
    cls = sorted(twisted_adapted_point("A", 3),
                 key=lambda c: c.canonical_word)[0]
    rs = cls.rs
    for i in rs.nodes:
        s = sequence_from_roots(rs, [rs.simple_root_index[i]])
        assert minimal_sequences(cls, s) == []


def test_minimal_sequences_of_roots_are_summing_pairs():
    for tt, rk in [("A", 3), ("D", 4)]:
        for cls in twisted_adapted_point(tt, rk):
            rs = cls.rs
            for g in range(rs.num_positive):
                s = sequence_from_roots(rs, [g])
                for m in minimal_sequences(cls, s):
                    assert is_pair(m)
                    a, b = support(m)
                    assert tuple(
                        x + y for x, y in zip(
                            rs.positive_roots[a], rs.positive_roots[b])
                    ) == rs.positive_roots[g]


def oracle_minimal_pairs(cls, g):
    """The minimal sequences above root g, each a pair ordered by precedes."""
    rs = cls.rs
    out = []
    for m in minimal_sequences(cls, sequence_from_roots(rs, [g])):
        assert is_pair(m)
        a, b = support(m)
        out.append((b, a) if cls.precedes(b, a) else (a, b))
    return sorted(out)


@pytest.mark.parametrize("tt, rk", [("A", 5), ("A", 7), ("D", 4), ("D", 5)])
def test_minimal_pairs_of_root_equal_oracle(tt, rk):
    for cls in twisted_adapted_point(tt, rk):
        for g in range(cls.rs.num_positive):
            assert minimal_pairs_of_root(cls, g) == oracle_minimal_pairs(cls, g)


def test_minimal_pairs_of_root_equal_oracle_first_e6_class():
    cls = min(twisted_adapted_point("E", 6), key=lambda c: c.canonical_word)
    for g in range(cls.rs.num_positive):
        assert minimal_pairs_of_root(cls, g) == oracle_minimal_pairs(cls, g)


def test_minimal_pairs_of_root_returns_a_fresh_list():
    cls = min(twisted_adapted_point("A", 5), key=lambda c: c.canonical_word)
    g = cls.rs.num_positive - 1
    first = minimal_pairs_of_root(cls, g)
    assert first
    first.clear()
    assert minimal_pairs_of_root(cls, g) == oracle_minimal_pairs(cls, g)


def _inner(below, above, r, m):
    return bool(below[r] & m and above[r] & m)


def _lies_below_checking_one_root(below, above, c, d, upper):
    return _inner(below, above, c, upper | 1 << c | 1 << d)


def _lies_below_checking_the_upper_pair(below, above, c, d, upper):
    m = upper | 1 << c | 1 << d
    return all(_inner(below, above, r, m) for r in bits(upper))


@pytest.mark.parametrize("mutant", [
    _lies_below_checking_one_root, _lies_below_checking_the_upper_pair,
], ids=["one-root-of-the-lower-pair", "the-upper-pair"])
@pytest.mark.parametrize("tt, rk", [("A", 5), ("A", 7), ("D", 4), ("D", 5)])
def test_mask_test_mutants_fail_the_oracle(monkeypatch, mutant, tt, rk):
    monkeypatch.setattr(seqorder, "_pair_lies_below", mutant)
    classes = sorted(twisted_adapted_point(tt, rk), key=lambda c: c.canonical_word)
    rs = classes[0].rs
    assert any(
        minimal_pairs_of_root(cls, g) != oracle_minimal_pairs(cls, g)
        for cls in classes
        for g in range(rs.num_positive)
        if len(rs.summing_pairs(g)) > 1  # else no two pairs are compared
    )


def test_class_less_false_for_unequal_weights():
    rs = root_system("A", 3)
    cls = commutation_class(rs, (1, 2, 3, 2, 1, 2))
    m = seq(rs, (1, 0, 0))
    mp = seq(rs, (1, 0, 0), (0, 1, 0))
    # the support test alone would order them; the weight check refuses
    assert _less_same_weight(cls, m, mp)
    assert not class_less(cls, m, mp)
    assert not class_less(cls, mp, m)


def test_dist_zero_for_simple():
    cls = sorted(twisted_adapted_point("A", 3),
                 key=lambda c: c.canonical_word)[0]
    rs = cls.rs
    for r in range(rs.num_positive):
        assert dist(cls, sequence_from_roots(rs, [r])) == 0


def test_dist_at_most_two_twisted():
    for tt, rk in [("A", 3), ("D", 4)]:
        for cls in twisted_adapted_point(tt, rk):
            rs = cls.rs
            for a in range(rs.num_positive):
                for b in range(a + 1, rs.num_positive):
                    assert dist(cls, sequence_from_roots(rs, [a, b])) <= 2


def _dist_oracle(cls, m):
    """Longest strict chain below m among all sequences of its weight."""
    rs = cls.rs
    elems = [x for x in sequences_of_weight(rs, weight_of(rs, m)) if x != m]
    depth = {}

    def rec(y):
        if y not in depth:
            depth[y] = max(
                (rec(x) + 1 for x in elems if class_less(cls, x, y)), default=0
            )
        return depth[y]

    return rec(m)


@pytest.mark.parametrize("tt, rk", [("D", 5), ("A", 5)])  # C4 and B3
def test_pair_dist_equals_dist_of_the_pair_sequence(tt, rk):
    cls = min(twisted_adapted_point(tt, rk), key=lambda c: c.canonical_word)
    rs = cls.rs
    for a, b in combinations(range(rs.num_positive), 2):
        m = sequence_from_roots(rs, [a, b])
        d = _read_below(cls, [by_support(x) for x in pair_below(cls, a, b)])[0]
        assert d == _read_below(cls, [by_support(x) for x in pair_below(cls, b, a)])[0]
        assert d == dist(cls, m) == _dist_oracle(cls, m)


def _chain_depths_oracle(cls, elems):
    """Longest-chain length ending at each element, by closing the strict
    order relation of `_less_same_weight` over all ordered pairs, each
    element by its support."""
    lt = {
        (x, y) for x in elems for y in elems if x != y and _less_same_weight(cls, x, y)
    }
    depth = {}

    def rec(y):
        if y not in depth:
            depth[y] = max((rec(x) + 1 for x in elems if (x, y) in lt), default=0)
        return depth[y]

    for y in elems:
        rec(y)
    return {by_support(y): d for y, d in depth.items()}


@lru_cache(maxsize=None)
def _closure_depths(tt, rk) -> list:
    """(class, below-list by support, its relation-closure depths) for
    every comparable pair of every class of the twisted point."""
    out = []
    for cls in twisted_adapted_point(tt, rk):
        for a, b in comparable_pairs(cls):
            below = pair_below(cls, a, b)
            out.append((cls, [by_support(x) for x in below], _chain_depths_oracle(cls, below)))
    return out


def _chain_depth_misses(tt, rk, chain_depths) -> tuple[int, int]:
    """(pairs whose below-list ``chain_depths`` reads other than the
    relation closure, deepest depth read) over every comparable pair of
    every class of the twisted point, the list handed by support."""
    misses = deepest = 0
    for cls, under, want in _closure_depths(tt, rk):
        depth = chain_depths(cls, under)
        misses += depth != want
        deepest = max(deepest, *depth.values(), 0)
    return misses, deepest


@pytest.mark.parametrize("tt, rk", [("E", 6), ("A", 7), ("D", 6)])
def test_chain_depths_equal_the_relation_closure(tt, rk):
    misses, deepest = _chain_depth_misses(tt, rk, seqorder._chain_depths)
    assert misses == 0
    # E6 reaches dist 4, the twisted points of A and D dist 2
    assert deepest + 1 == (4 if tt == "E" else 2)


def test_a_sweep_sorted_along_no_linear_extension_fails_the_closure(recompiled):
    # root index order, by height, is no linear extension of the convex
    # order nor of its reverse: the sweep meets elements before some below
    # them
    by_index = recompiled(seqorder._chain_depths, "below[r].bit_count() * n + r", "r")
    assert _chain_depth_misses("E", 6, by_index)[0] > 0
    # the popcount of above[r] orders the roots along a linear extension
    # reversed, which is one of the mirror class, of the same class order
    # (the order tests both ends of a difference): no mutant
    reversed_extension = recompiled(
        seqorder._chain_depths, "below[r].bit_count()", "above[r].bit_count()"
    )
    assert _chain_depth_misses("E", 6, reversed_extension)[0] == 0


def test_chain_depths_compare_each_unordered_pair_at_most_once(monkeypatch):
    calls = []
    real = seqorder._support_less

    def less(below, above, x, y):
        calls.append((x, y))
        return real(below, above, x, y)

    monkeypatch.setattr(seqorder, "_support_less", less)
    largest = 0
    for cls in twisted_adapted_point("E", 6):
        for a, b in comparable_pairs(cls):
            below = [by_support(x) for x in pair_below(cls, a, b)]
            calls.clear()
            seqorder._chain_depths(cls, below)
            k = len(below)
            assert len(calls) <= k * (k - 1) // 2
            largest = max(largest, k)
    assert largest >= 3


def test_dist_two_has_unique_intermediate():
    found = 0
    for cls in twisted_adapted_point("A", 5):
        rs = cls.rs
        for a in range(rs.num_positive):
            for b in range(a + 1, rs.num_positive):
                p = sequence_from_roots(rs, [a, b])
                if dist(cls, p) != 2:
                    continue
                found += 1
                below = pair_below(cls, a, b)
                soc = socle(cls, p)
                mids = [m for m in below
                        if m != soc and class_less(cls, soc, m)]
                assert len(mids) == 1
                assert class_less(cls, mids[0], p)
    assert found > 0


def test_socle_simple_pair_is_itself():
    cls = sorted(twisted_adapted_point("A", 3),
                 key=lambda c: c.canonical_word)[0]
    rs = cls.rs
    for a in range(rs.num_positive):
        for b in range(a + 1, rs.num_positive):
            p = sequence_from_roots(rs, [a, b])
            if dist(cls, p) == 0:
                assert socle(cls, p) == p


def test_socle_of_minimal_pair_is_summed_root():
    for cls in twisted_adapted_point("D", 4):
        rs = cls.rs
        for g in range(rs.num_positive):
            for a, b in minimal_pairs_of_root(cls, g):
                p = sequence_from_roots(rs, [a, b])
                assert socle(cls, p) == sequence_from_roots(rs, [g])


def test_socle_exists_unique_all_pairs_a5():
    for cls in twisted_adapted_point("A", 5):
        rs = cls.rs
        for a in range(rs.num_positive):
            for b in range(a + 1, rs.num_positive):
                assert socle(cls, sequence_from_roots(rs, [a, b])) is not None


def test_classify_cover_case1():
    cls = sorted(twisted_adapted_point("A", 3),
                 key=lambda c: c.canonical_word)[0]
    rs = cls.rs
    hits = 0
    for g in range(rs.num_positive):
        for a, b in minimal_pairs_of_root(cls, g):
            p = sequence_from_roots(rs, [a, b])
            for rec in classify_cover(cls, p):
                if rec.case == 1:
                    hits += 1
                    assert rec.cover == sequence_from_roots(rs, [g])
                    assert dict(rec.details)["pair_is_minimal_pair_of_sum"]
    assert hits > 0


def test_classify_cover_case3_d5():
    hits = 0
    for cls in sorted(twisted_adapted_point("D", 5),
                      key=lambda c: c.canonical_word)[:4]:
        rs = cls.rs
        for a in range(rs.num_positive):
            for b in range(a + 1, rs.num_positive):
                p = sequence_from_roots(rs, [a, b])
                av = rs.positive_roots[a]
                bv = rs.positive_roots[b]
                if tuple(x + y for x, y in zip(av, bv)) in rs.root_index:
                    continue
                if dist(cls, p) == 0:
                    continue
                for rec in classify_cover(cls, p):
                    if rec.case == 3:
                        hits += 1
                        d = dict(rec.details)
                        assert d["forward"] or d["backward"]
    assert hits > 0


def test_classify_cover_case2_triple_a5():
    """Triple covers occur exactly at dist-2 pairs with non-root sum.

    A clean majority satisfies the four printed conditions under a
    single assignment of (mu, nu, eta); the rest satisfy them split
    over two assignments (the sum conditions under one, the difference
    conditions under another).  Both shapes are pinned here.
    """
    full, split = 0, 0
    for cls in sorted(twisted_adapted_point("A", 5),
                      key=lambda c: c.canonical_word):
        rs = cls.rs
        for a in range(rs.num_positive):
            for b in range(a + 1, rs.num_positive):
                p = sequence_from_roots(rs, [a, b])
                av, bv = rs.positive_roots[a], rs.positive_roots[b]
                if tuple(x + y for x, y in zip(av, bv)) in rs.root_index:
                    continue
                if dist(cls, p) != 2:
                    continue
                for rec in classify_cover(cls, p):
                    if rec.case != 2:
                        continue
                    d = dict(rec.details)
                    assert d["sum_not_root"]
                    assert _triple_sum_side_holds(cls, support(rec.cover))
                    if d.get("i"):
                        full += 1
                        assert all(d[c] for c in ("i", "ii", "iii", "iv"))
                    else:
                        split += 1
    assert full == 32 and split == 16


def _triple_sum_side_holds(cls, supp):
    """Some two of the triple form a minimal pair of a root, with the
    third incomparable to both (the sum half of the printed conditions;
    the difference half fails when a pair member is a simple root)."""
    from itertools import permutations

    rs = cls.rs
    for mu, nu, eta in permutations(supp):
        mv, nv = rs.positive_roots[mu], rs.positive_roots[nu]
        mn = tuple(x + y for x, y in zip(mv, nv))
        if mn not in rs.root_index:
            continue
        minimal = tuple(sorted((mu, nu))) in {
            tuple(sorted(q))
            for q in minimal_pairs_of_root(cls, rs.root_index[mn])
        }
        if minimal and not comparable(cls, eta, mu) \
                and not comparable(cls, eta, nu):
            return True
    return False


def test_phi_pairs_empty_beyond_diameter():
    fqs = twisted_folded_quivers("A", 3)
    fq = fqs[min(fqs, key=lambda c: c.canonical_word)]
    assert phi_pairs(fq, 1, 1, 999) == []
    assert o_t(fq, 1, 1, 999) is None


def test_o_t_constancy_everywhere():
    for tt, rk in [("A", 5), ("D", 4), ("D", 5)]:
        for fq in twisted_folded_quivers(tt, rk).values():
            _distance_table(fq)  # raises if inconstant on some Phi[t]


def _table_oracle(fq):
    """{(k, l): {t: o_t}} from the definitional phi_pairs, k <= l in 1..n."""
    cls = fq.source_class
    _, n = fq.folding.target
    gaps = {abs(p - q) for _, p in fq.cells for _, q in fq.cells}
    out = {}
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            for t in sorted(gaps):
                pairs = phi_pairs(fq, k, l, t)
                if pairs:
                    dists = {dist(cls, sequence_from_roots(cls.rs, p)) for p in pairs}
                    assert len(dists) == 1
                    out.setdefault((k, l), {})[t] = dists.pop()
    return out


@pytest.mark.parametrize("tt, rk", [("A", 5), ("A", 7), ("D", 4), ("D", 5)])
def test_distance_table_equals_phi_pairs_oracle(tt, rk):
    for fq in twisted_folded_quivers(tt, rk).values():
        assert table_of(_distance_table(fq)) == _table_oracle(fq)


def test_distance_table_equals_phi_pairs_oracle_first_e6_class():
    fqs = twisted_folded_quivers("E", 6)
    cls = min(fqs, key=lambda c: c.canonical_word)
    assert table_of(_distance_table(fqs[cls])) == _table_oracle(fqs[cls])


def test_distance_table_is_keyed_by_folded_coordinates():
    fqs = twisted_folded_quivers("A", 5)
    cls = min(fqs, key=lambda c: c.canonical_word)
    cells = tuple((i, 2 * p) for i, p in fqs[cls].cells)
    stretched = FoldedQuiver(fqs[cls].rs, cells, fqs[cls].source_class, fqs[cls].folding)
    assert table_of(_distance_table(stretched)) == _table_oracle(stretched)
    assert _distance_table(stretched) != _distance_table(fqs[cls])


# ---------------------------------------------------------------------------
# distance tables transported along the BFS tree of the folded reflections


@pytest.fixture
def fresh_point(monkeypatch):
    """Twisted points built anew, and a fresh `_exponent_rows` memo, so
    no row of these points is memoised yet."""
    monkeypatch.setattr(
        affine, "_exponent_rows",
        lru_cache(maxsize=None)(affine._exponent_rows.__wrapped__),
    )
    return lru_cache(maxsize=None)(twisted_folded_quivers.__wrapped__)


def _scratch_table(fq):
    """{(k, l): {t: o_t}} from `comparable_pairs` and `dist` alone."""
    cls = fq.source_class
    coord = fq.cells
    out = {}
    for a, b in comparable_pairs(cls):
        (ia, pa), (ib, pb) = coord[a], coord[b]
        row = out.setdefault((min(ia, ib), max(ia, ib)), {})
        d = dist(cls, sequence_from_roots(cls.rs, (a, b)))
        assert row.setdefault(abs(pa - pb), d) == d
    return out


def _tables_match_scratch(point, every: int = 1) -> bool:
    """The walk hands out every class exactly once, and the table of its
    datum equals the scratch build, at every ``every``-th class of the
    point; False also when the walk raises on the way."""
    try:
        walk = walk_tables(point)
    except AssertionError:
        return False
    return all(table == _scratch_table(fq) for fq, table in walk[::every])


# the larger points are checked at every k-th class of the point, seed and
# mirrors included, to keep the scratch oracle's time down
ORACLE_STRIDE = {("A", 11): 64, ("D", 8): 8}


@pytest.mark.parametrize(
    "target", ["B3", "B4", "B5", "B6", "C4", "C5", "C6", "C7", "F4"]
)
def test_transported_tables_equal_scratch_build(fresh_point, target):
    # every class of the twisted point, or of every k-th at A11 and D8
    source = folding_to(target[0], int(target[1:])).source
    assert _tables_match_scratch(fresh_point(*source), ORACLE_STRIDE.get(source, 1))


def _keep_pairs(keep):
    real = seqorder._pairs_at

    def pairs_at(fq, r):
        return [(key, a, b) for key, a, b in real(fq, r) if keep(r, a, b)]

    return pairs_at


MUTANT_SOURCES = [("D", 4), ("D", 5), ("A", 7)]


@pytest.mark.parametrize("mutant", ["keep_parent_pairs", "skip_child_pairs"])
def test_transport_mutants_fail_the_oracle(fresh_point, monkeypatch, mutant):
    # the parent's pairs at alpha_i have alpha_i first, the child's last
    keep = (lambda r, a, b: b == r) if mutant == "keep_parent_pairs" else (
        lambda r, a, b: a == r
    )
    monkeypatch.setattr(seqorder, "_pairs_at", _keep_pairs(keep))
    assert not all(_tables_match_scratch(fresh_point(*s)) for s in MUTANT_SOURCES)


def test_removing_at_the_child_coordinates_fails_the_oracle(fresh_point, monkeypatch):
    real = seqorder._transport

    def transport(counts, parent, child, i, reader):
        moved = FoldedQuiver(parent.rs, child.cells, parent.source_class, parent.folding)
        return real(counts, moved, child, i, reader)

    monkeypatch.setattr(seqorder, "_transport", transport)
    assert not all(_tables_match_scratch(fresh_point(*s)) for s in MUTANT_SOURCES)


def _read_classes(point) -> set:
    """The classes `walk_point` reads: of each orbit {c, c^v, sigma c,
    sigma c^v}, the one that comes first in the point's order."""
    return set(read_classes(point))


def _memo_key(rs, a, b, interval):
    """The pair weight of {a, b} and the interval roots that fit under it,
    by definition: what the walk's partitions of the pair depend on."""
    w = tuple(x + y for x, y in zip(rs.positive_roots[a], rs.positive_roots[b]))
    fit = [r for r in bits(interval) if all(map(int.__le__, rs.positive_roots[r], w))]
    return w, frozenset(fit)


def _served_before(point) -> set:
    """(cls, a, b), a < b, for every pair the walk reads whose `_memo_key`,
    with a root that fits, a read of another class had before it: the
    pairs whose partitions the walk's memo serves across classes."""
    first, served = {}, set()
    real = seqorder._read_pair

    def read_pair(data, reader, cls, key, a, b, interval):
        k = _memo_key(cls.rs, a, b, interval)
        if k[1] and first.setdefault(k, cls) != cls:
            served.add((cls, min(a, b), max(a, b)))
        real(data, reader, cls, key, a, b, interval)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqorder, "_read_pair", read_pair)
        list(walk_point(point))
    return served


def _lie_about(monkeypatch, lie, change) -> list:
    """Pass the (dist, least) that `_read_below` reads for the pair
    ``lie`` = (cls, a, b), a < b, through ``change``, in that one read of
    that one class: the walk's memo, keyed without the class, hands the
    same partitions to other reads, which stay true.  Returns the reads
    lied about, filled as the walk goes."""
    real_read_pair, real_read = seqorder._read_pair, seqorder._read_below
    lying, lied = [], []

    def read_pair(data, reader, cls, key, a, b, interval):
        lying.append((cls, min(a, b), max(a, b)) == lie)
        try:
            real_read_pair(data, reader, cls, key, a, b, interval)
        finally:
            lying.pop()

    def read_below(cls, under):
        got = real_read(cls, under)
        if lying and lying[-1]:
            lied.append((cls, got))
            return change(*got)
        return got

    monkeypatch.setattr(seqorder, "_read_pair", read_pair)
    monkeypatch.setattr(seqorder, "_read_below", read_below)
    return lied


def test_lying_pair_dist_at_a_moved_root_raises(fresh_point, monkeypatch):
    point = fresh_point("A", 7)
    read = _read_classes(point)
    served = _served_before(point)
    lie = None
    for fq in point.values():
        if fq.source_class.parent is None or fq.source_class not in read:
            continue
        _, i = fq.source_class.parent
        r = fq.rs.simple_root_index[i]
        sizes = {}
        coord = fq.cells
        for a, b in comparable_pairs(fq.source_class):
            key = seqorder._bucket(coord, a, b)
            sizes[key] = sizes.get(key, 0) + 1
        for key, a, b in seqorder._pairs_at(fq, r):
            pair = (fq.source_class, min(a, b), max(a, b))
            # Phi[t] has another pair to disagree with, and the memo
            # serves the pair's partitions to another class before it
            if sizes[key] > 1 and pair in served:
                lie = pair
                break
        if lie:
            break
    lied = _lie_about(monkeypatch, lie, lambda d, least: (d + 1, least))
    with pytest.raises(AssertionError, match="not constant on Phi"):
        list(walk_point(point))
    assert [cls for cls, _ in lied] == [lie[0]]


def test_transport_driving_a_count_negative_raises(fresh_point):
    point = fresh_point("D", 4)
    child = next(fq for cls, fq in point.items() if cls.parent)
    up, i = child.source_class.parent
    parent = point[up]
    with pytest.raises(AssertionError, match="negative"):
        seqorder._transport(({}, []), parent, child, i, seqorder._pair_reader(child.rs))


def test_table_fill_computes_only_the_moved_pairs(fresh_point, monkeypatch):
    # a silent fallback to one dist per comparable pair of every class
    # would make some ten times the calls
    point = fresh_point(*folding_to("C", 5).source)
    calls = []
    real = seqorder._read_below

    def read_below(cls, under):
        calls.append(cls)
        return real(cls, under)

    monkeypatch.setattr(seqorder, "_read_below", read_below)
    list(walk_point(point))
    seed = next(iter(point.values()))
    assert seed.source_class.parent is None
    n = seed.rs.num_positive
    assert len(calls) <= len(comparable_pairs(seed.source_class)) + (n - 1) * (
        len(point) - 1
    )


def test_a_distance_read_tables_its_own_quiver_alone(monkeypatch):
    # one dist per comparable pair of the read quiver's class, never a
    # walk over the other classes of its point
    point = twisted_folded_quivers("A", 9)
    seed = next(fq for cls, fq in point.items() if cls.parent is None)
    calls = []
    real = seqorder._read_below

    def read_below(cls, under):
        calls.append(cls)
        return real(cls, under)

    monkeypatch.setattr(seqorder, "_read_below", read_below)
    distance_polynomial(seed, 1, 1, "A")
    assert len(calls) == len(comparable_pairs(seed.source_class)) == 730
    assert set(calls) == {seed.source_class}


def test_classes_keep_only_their_order_data():
    # no distance table or polynomial is stored on a class, only its roots
    # and the order masks and letters read off them; a class the walk
    # reads has all three, its mirror may have none
    assert affine.verify_den_dist("C", 5).ok and affine.verify_dorey("B", 4).ok
    affine.verify_f4_conjecture()
    assert cli.verify_socle_dist("A", 7).ok
    sources = [folding_to("C", 5).source, ("E", 6), folding_to("B", 4).source, ("A", 7)]
    for source in sources:
        point = twisted_folded_quivers(*source)
        read = _read_classes(point)
        for cls in point:
            kept = set(cls._cache)
            assert kept <= {"roots", "below", "letter", "above"}, (cls, kept)
            assert cls not in read or {"roots", "below", "letter"} <= kept, (cls, kept)


# ---------------------------------------------------------------------------
# socle-dist records transported along the same walk

SOCLE_POINTS = [
    ("A", 5), ("A", 7), ("A", 9), ("A", 11), ("D", 5), ("D", 6), ("D", 7), ("D", 8), ("E", 6),
]


def _is_simple_socle(cls, below):
    """The one simple sequence of a pair's nonempty `pair_below` list, by
    `is_simple`; None for none or several."""
    simples = [x for x in below if is_simple(cls, x)]
    return simples[0] if len(simples) == 1 else None


def _scratch_socle_records(cls):
    """(a, b, d, socle), a < b, of every pair at dist > 2 or without a
    unique socle, over all pairs; the socle is read by `is_simple`."""
    out = []
    for a, b in combinations(range(cls.rs.num_positive), 2):
        below = pair_below(cls, a, b)
        if below:
            d = dist(cls, sequence_from_roots(cls.rs, (a, b)))
            s = _is_simple_socle(cls, below)
            if d > 2 or s is None:
                out.append((a, b, d, s))
    return out


def _socles_match_scratch(point, every: int = 1) -> bool:
    """The walk hands out every class exactly once, and its records equal
    the scratch records, at every ``every``-th class of the point; False
    also when the walk raises on the way."""
    try:
        data = walk_data(point)
    except AssertionError:
        return False
    return all(
        sorted(data[cls][1]) == _scratch_socle_records(cls) for cls in list(point)[::every]
    )


@pytest.mark.parametrize("tt, rk", SOCLE_POINTS)
def test_transported_socles_equal_scratch_records(fresh_point, tt, rk):
    # every class of the twisted point, or of every k-th at A11 and D8; E6
    # is read through the walk only, since socle-dist refuses it as a suite
    assert _socles_match_scratch(fresh_point(tt, rk), ORACLE_STRIDE.get((tt, rk), 1))


def test_e6_is_the_point_with_socle_records(fresh_point):
    # the only point whose records carry pairs and socles to relabel
    data = walk_data(fresh_point("E", 6))
    records = [r for _, recs in data.values() for r in recs]
    assert len(records) == 960
    assert sum(s is not None for *_, s in records) > 0


E6_RECORDS_DIGEST = "9fa2abc23067a4be10864d5d039fc8c4bb06956f8e609b30d81b58dbb60e3e81"


def test_e6_walk_records_are_pinned(fresh_point):
    # each class's sorted records, the classes by canonical word
    data = walk_data(fresh_point("E", 6))
    records = sorted((cls.canonical_word, sorted(r)) for cls, (_, r) in data.items())
    assert sum(len(r) for _, r in records) == 960
    assert hashlib.sha256(repr(records).encode()).hexdigest() == E6_RECORDS_DIGEST


def _unique_maximal(cls, under):
    """`_read_below` reading the unique maximal element as least."""
    if len(under) < 2:
        return _read_below(cls, under)
    depth = seqorder._chain_depths(cls, under)
    top = [x for x, d in depth.items() if d == max(depth.values())]
    return 1 + max(depth.values()), (top[0] if len(top) == 1 else None)


def _first_minimal(cls, under):
    """`_read_below` without the uniqueness test: the first minimal element."""
    if len(under) < 2:
        return _read_below(cls, under)
    depth = seqorder._chain_depths(cls, under)
    return 1 + max(depth.values()), next(x for x, d in depth.items() if not d)


def test_least_is_the_is_simple_socle():
    # on every pair with something below it, of every class of each point,
    # the least of the below-list is the one simple sequence by
    # `is_simple`; the oracle tells it from the unique maximal element,
    # and on E6 from the first minimal one
    readings = {
        "least": _read_below, "unique maximal": _unique_maximal,
        "first minimal": _first_minimal,
    }
    misses = {name: Counter() for name in readings}
    for tt, rk in [("A", 5), ("A", 7), ("D", 5), ("D", 6), ("E", 6)]:
        for cls in twisted_adapted_point(tt, rk):
            for a, b in comparable_pairs(cls):
                below = pair_below(cls, a, b)
                if below:
                    want = _is_simple_socle(cls, below)
                    want = want and by_support(want)
                    under = [by_support(x) for x in below]
                    for name, read in readings.items():
                        misses[name][tt + str(rk)] += read(cls, under)[1] != want
    assert sum(misses["least"].values()) == 0
    assert sum(misses["unique maximal"].values()) == 7904
    assert +misses["first minimal"] == Counter(E6=128)


@pytest.mark.parametrize(
    "m",
    [(1, 1), (1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1), (), (1, -1, 1, 1, 0, 0),
     (0, 0, 0)],
)
def test_dist_and_socle_refuse_a_malformed_sequence(m):
    # A3 has N = 6 positive roots; is_simple checks its sequence as dist
    # and socle do, and minimal_sequences through it
    cls = commutation_class(root_system("A", 3), (1, 2, 3, 2, 1, 2))
    for read in (dist, socle, is_simple, minimal_sequences):
        with pytest.raises(ValueError, match="N = 6"):
            read(cls, m)


def _keep_parent_alpha_records(real):
    def transport(data, parent, child, i, reader):
        r = child.rs.simple_root_index[i]
        perm = child.rs.reflection_permutation(i)
        kept = [
            (*sorted((perm[a], perm[b])), d, s)
            for a, b, d, s in data[1]
            if r in (a, b)
        ]
        counts, records = real(data, parent, child, i, reader)
        return counts, records + kept

    return transport


def test_socle_transport_mutants_fail_the_oracle(fresh_point, monkeypatch):
    point = fresh_point("E", 6)
    monkeypatch.setattr(
        seqorder, "_transport", _keep_parent_alpha_records(seqorder._transport)
    )
    assert not _socles_match_scratch(point)


def test_socle_not_relabelled_fails_the_oracle(fresh_point, monkeypatch):
    # the carried records keep the parent's socles as they were
    point = fresh_point("E", 6)
    real = seqorder._transport

    def transport(data, parent, child, i, reader):
        r = child.rs.simple_root_index[i]
        perm = child.rs.reflection_permutation(i)
        parents = {
            tuple(sorted((perm[a], perm[b]))): s
            for a, b, _, s in data[1] if r not in (a, b)
        }
        counts, records = real(data, parent, child, i, reader)
        return counts, [(a, b, d, parents.get((a, b), s)) for a, b, d, s in records]

    monkeypatch.setattr(seqorder, "_transport", transport)
    assert not _socles_match_scratch(point)


def test_skipping_the_child_pairs_fails_the_socle_oracle(fresh_point, monkeypatch):
    point = fresh_point("E", 6)
    monkeypatch.setattr(seqorder, "_pairs_at", _keep_pairs(lambda r, a, b: a == r))
    assert not _socles_match_scratch(point)


def _socle_report_with_a_lie(point, monkeypatch, mutant_pairs_at=None):
    """socle-dist A7 with a `_read_below` that gives the socle None on one
    pair at the moved root of a child class the walk reads, and
    ``_pairs_at`` replaced by the mutant, if one is given; the report and
    the record the lie makes."""
    read = _read_classes(point)
    served = _served_before(point)
    lie = None
    for fq in point.values():
        cls = fq.source_class
        if cls.parent is None or cls not in read:
            continue
        r = fq.rs.simple_root_index[cls.parent[1]]
        for _, a, b in seqorder._pairs_at(fq, r):
            d = dist(cls, sequence_from_roots(cls.rs, (a, b)))
            if d and (cls, min(a, b), max(a, b)) in served:
                lie = (cls, min(a, b), max(a, b), d)
                break
        if lie:
            break
    lied = _lie_about(monkeypatch, lie[:3], lambda d, least: (d, None))
    if mutant_pairs_at:
        monkeypatch.setattr(seqorder, "_pairs_at", mutant_pairs_at)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    cls, a, b, d = lie
    rep = cli.verify_socle_dist("A", 7)
    assert [c for c, _ in lied] == [cls]
    return rep, (cls.canonical_word, a, b, d, None)


def test_lying_pair_socle_at_a_moved_root_is_named(fresh_point, monkeypatch):
    rep, record = _socle_report_with_a_lie(fresh_point("A", 7), monkeypatch)
    assert not rep.ok and record in rep.mismatches


def test_skipping_the_child_pairs_hides_the_lie(fresh_point, monkeypatch):
    # without the child's pairs at alpha_i the lying pair is never read
    # and no report names it: the bucket counts, carried in the same walk,
    # miss those pairs and stop the transport
    skip = _keep_pairs(lambda r, a, b: a == r)
    with pytest.raises(AssertionError, match="negative"):
        _socle_report_with_a_lie(fresh_point("A", 7), monkeypatch, skip)


def test_socle_dist_checks_only_the_moved_pairs(fresh_point, monkeypatch):
    point = fresh_point("A", 7)
    calls = []
    real = seqorder._read_below

    def read_below(cls, under):
        calls.append(cls)
        return real(cls, under)

    monkeypatch.setattr(seqorder, "_read_below", read_below)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    rep = cli.verify_socle_dist("A", 7)
    n = root_system("A", 7).num_positive
    assert rep.ok and rep.checked == len(point) * n * (n - 1) // 2
    assert len(calls) <= n * (n - 1) // 2 + (len(point) - 1) * (n - 1)


def test_socle_dist_reads_each_checked_pair_once(fresh_point, monkeypatch):
    # dist and socle come from one list of the walk's reader and one
    # reading of it; no pair inside the interval is read for its
    # simplicity, and the walk never calls the one-shot `pair_below`
    point = fresh_point("A", 7)
    reads, readings = Counter(), []
    real_read, real_read_pair = seqorder._read_below, seqorder._read_pair

    def read_below(cls, under):
        readings.append(cls)
        return real_read(cls, under)

    def read_pair(data, reader, cls, key, a, b, interval):
        reads[cls, min(a, b), max(a, b)] += 1
        return real_read_pair(data, reader, cls, key, a, b, interval)

    def pair_below(cls, a, b):
        raise AssertionError("the walk calls pair_below")

    monkeypatch.setattr(seqorder, "_read_below", read_below)
    monkeypatch.setattr(seqorder, "_read_pair", read_pair)
    monkeypatch.setattr(seqorder, "pair_below", pair_below)
    monkeypatch.setattr(seqorder, "is_simple", pair_below)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    assert cli.verify_socle_dist("A", 7).ok
    assert reads and max(reads.values()) == 1
    assert len(readings) == sum(reads.values())


def test_pair_path_reads_the_masks_and_sweeps_two_or_more(fresh_point, monkeypatch):
    # `pair_below` lists each interval from the order masks: a class has
    # no interval list to read, and `_read_below` answers 0 or 1
    # sequences below without the chain sweep
    assert not hasattr(CommutationClass, "interval")
    sizes = []
    real_chain_depths = seqorder._chain_depths

    def chain_depths(cls, elems):
        sizes.append(len(elems))
        return real_chain_depths(cls, elems)

    monkeypatch.setattr(seqorder, "_chain_depths", chain_depths)
    monkeypatch.setattr(cli, "twisted_folded_quivers", fresh_point)
    monkeypatch.setattr(affine, "twisted_folded_quivers", fresh_point)
    assert cli.verify_socle_dist("A", 7).ok
    assert affine.verify_den_dist("C", 5).ok
    assert sizes and min(sizes) >= 2


# ---------------------------------------------------------------------------
# the walk's pair reader: one partition search per memo key and walk


def _read_keys(point) -> set:
    """The `_memo_key`s with a fitting root of the pairs a walk reads, by
    definition: every comparable pair of the seed, and the comparable
    pairs at the moved root alpha_i of every other class it reads."""
    keys = set()
    for cls in read_classes(point):
        below, above = cls.below(), cls.above()
        if cls.parent is None:
            pairs = comparable_pairs(cls)
        else:
            r = cls.rs.simple_root_index[cls.parent[1]]
            pairs = [(a, r) for a in bits(below[r])] + [(r, b) for b in bits(above[r])]
        for a, b in pairs:
            key = _memo_key(cls.rs, a, b, above[a] & below[b])
            if key[1]:
                keys.add(key)
    return keys


@pytest.mark.parametrize("tt, rk, searches", [("A", 9, 1301), ("D", 7, 954)])
def test_a_walk_searches_each_memo_key_once(fresh_point, monkeypatch, tt, rk, searches):
    # one `_packed_partitions` search per (pair weight, interval roots that
    # fit under it) with a fitting root, over the reads of one class per
    # orbit {c, c^v, sigma c, sigma c^v}; the next walk keeps nothing of
    # the last one's memo and searches again
    point = fresh_point(tt, rk)
    assert len(_read_keys(point)) == searches
    searched, keys = [], set()
    real_search, real_read_pair = seqorder._packed_partitions, seqorder._read_pair

    def packed_partitions(rs, packing, w, mask):
        searched.append((w, mask))
        return real_search(rs, packing, w, mask)

    def read_pair(data, reader, cls, key, a, b, interval):
        memo_key = _memo_key(cls.rs, a, b, interval)
        if memo_key[1]:
            keys.add(memo_key)
        return real_read_pair(data, reader, cls, key, a, b, interval)

    monkeypatch.setattr(seqorder, "_packed_partitions", packed_partitions)
    monkeypatch.setattr(seqorder, "_read_pair", read_pair)
    first = [datum for datum, _ in walk_point(point)]
    assert len(searched) == len(set(searched)) == len(keys) == searches
    again = [datum for datum, _ in walk_point(point)]
    assert searched[searches:] == searched[:searches] and again == first


@pytest.mark.parametrize("tt, rk", [("D", 6), ("E", 6)])
def test_a_walk_keeps_one_object_per_distinct_fit(monkeypatch, tt, rk):
    # the walk's one `_Fits` holds each distinct (fit, needs) entry once,
    # however many remainders share it, and far fewer than it has keys
    made = []
    real_init = seqorder._Fits.__init__

    def init(self, packing):
        made.append(self)
        real_init(self, packing)

    monkeypatch.setattr(seqorder._Fits, "__init__", init)
    list(walk_point(twisted_folded_quivers(tt, rk)))
    [fits] = made
    distinct = set(fits.values())
    assert len({id(v) for v in fits.values()}) == len(distinct) < len(fits) / 3


WALK_SEARCH_POINTS = [
    ("A", 5), ("A", 7), ("A", 9), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E", 6),
]


@pytest.mark.parametrize("tt, rk", WALK_SEARCH_POINTS)
def test_the_walk_search_equals_the_partitions_oracle_on_every_memo_key(monkeypatch, tt, rk):
    # every key the walk reads, with the partitions its reader hands out,
    # against `partitions_oracle` over the interval roots that fit, as
    # multisets: each partition once, and no other
    found = {}
    real_read_pair = seqorder._read_pair

    def read_pair(data, reader, cls, key, a, b, interval):
        memo_key = _memo_key(cls.rs, a, b, interval)
        if memo_key[1] and memo_key not in found:
            found[memo_key] = (cls.rs, reader(a, b, interval))
        return real_read_pair(data, reader, cls, key, a, b, interval)

    monkeypatch.setattr(seqorder, "_read_pair", read_pair)
    list(walk_point(twisted_folded_quivers(tt, rk)))
    assert found
    for (w, fit), (rs, parts) in found.items():
        want = Counter(by_support(m) for m in partitions_oracle(rs, w, fit))
        assert Counter(tuple(sorted(part)) for part in parts) == want, (w, sorted(fit))


@pytest.mark.parametrize("key", ["w", "inside"])
def test_a_memo_keyed_by_one_half_of_its_key_fails_the_oracles(
    fresh_point, monkeypatch, recompiled, key
):
    # the pair weight alone, or the fitting interval roots alone, hand a
    # pair the partitions of another pair
    mutant = recompiled(seqorder._pair_reader, "key = inside << shift | w", f"key = {key}")
    monkeypatch.setattr(seqorder, "_pair_reader", mutant)
    assert not _tables_match_scratch(fresh_point("D", 4))
    assert not _socles_match_scratch(fresh_point("E", 6))


def test_a_mirror_handed_another_class_fails_the_oracles(fresh_point, monkeypatch, recompiled):
    # every datum handed out with the seed's quiver in place of each class
    # that shares it but the read class or its twin: the seed comes many
    # times and the mirrors never; the distance polynomials would not show
    # it, as they are the same for every class
    mutant = recompiled(
        seqorder.walk_orbits, "tuple(point[c] for c in group)",
        "(point[group[0]], *[next(iter(point.values()))] * (len(group) - 1))",
    )
    monkeypatch.setattr(seqorder, "walk_orbits", mutant)
    assert not _tables_match_scratch(fresh_point("A", 7))
    assert not _tables_match_scratch(fresh_point("D", 5))


# ---------------------------------------------------------------------------
# mirror pairs: c and c^v share one datum

MIRROR_SOURCES = (
    [("A", r) for r in (5, 7, 9, 11)] + [("D", r) for r in (5, 6, 7, 8)] + [("E", 6)]
)


def _mirrors_match_kahn(point) -> bool:
    """Every class's mirror is the class of its reversed, starred
    canonical word, canonicalised by `_kahn`; False also when finding the
    mirrors raises."""
    rs = next(iter(point)).rs
    star = rs.star()
    try:
        mirror = mirror_classes(point)
    except AssertionError:
        return False
    return all(
        mirror[cls] == CommutationClass(
            rs, _kahn(rs, tuple(star[i] for i in reversed(cls.canonical_word))))
        for cls in point
    )


@pytest.mark.parametrize("tt, rk", MIRROR_SOURCES)
def test_mirror_key_names_the_reversed_starred_class(tt, rk):
    # the lru-cached points; no class is its own mirror, so a walk reads
    # exactly half the classes
    point = twisted_folded_quivers(tt, rk)
    mirror = mirror_classes(point)
    assert _mirrors_match_kahn(point)
    assert all(mirror[cls] != cls and mirror[mirror[cls]] is cls for cls in point)


@pytest.mark.parametrize(
    "tt, rk", [("A", 5), ("A", 7), ("A", 9), ("D", 5), ("D", 6), ("D", 7), ("E", 6)]
)
def test_a_mirror_has_the_reversed_convex_order(tt, rk):
    point = twisted_folded_quivers(tt, rk)
    mirror = mirror_classes(point)
    for cls in point:
        assert cls.below() == mirror[cls].above()


def _mirror_pairs_differ(point, mirror) -> list:
    """(class, root) wherever `minimal_pairs_of_root` at the class's mirror
    ``mirror[cls]`` is not its pairs at the class, each pair's two roots in
    the reversed order."""
    rs = next(iter(point)).rs
    return [
        (cls.canonical_word, g) for cls in point for g in range(rs.num_positive)
        if minimal_pairs_of_root(mirror[cls], g)
        != sorted((b, a) for a, b in minimal_pairs_of_root(cls, g))
    ]


@pytest.mark.parametrize("tt, rk", [("A", 5), ("A", 7), ("D", 5), ("D", 6), ("E", 6)])
def test_a_mirror_has_the_minimal_pairs_of_its_class(tt, rk):
    # the Dorey walk hands c's minimal pairs to c^v
    point = twisted_folded_quivers(tt, rk)
    assert _mirror_pairs_differ(point, mirror_classes(point)) == []


def _with_one_pair_swapped(cls, a: int, b: int) -> CommutationClass:
    """A copy of a class whose convex order has a before b turned into b
    before a, every other relation kept: the mutant of one pair's order."""
    copy = CommutationClass(cls.rs, cls.canonical_word)
    below, above = list(cls.below()), list(cls.above())
    below[b] &= ~(1 << a)
    above[a] &= ~(1 << b)
    below[a] |= 1 << b
    above[b] |= 1 << a
    copy._cache.update(below=below, above=above)
    return copy


def test_a_mirror_with_one_pair_order_swapped_fails_the_check():
    # the first minimal pair of the seed's mirror, its two roots swapped
    point = twisted_folded_quivers("A", 5)
    mirror = mirror_classes(point)
    seed = next(iter(point))
    g, (a, b) = next(
        (g, pair) for g in range(seed.rs.num_positive)
        for pair in minimal_pairs_of_root(mirror[seed], g)
    )
    bad = {**mirror, seed: _with_one_pair_swapped(mirror[seed], a, b)}
    assert (seed.canonical_word, g) in _mirror_pairs_differ(point, bad)


@pytest.mark.parametrize("tt, rk", [("A", 7), ("D", 6), ("E", 6)])
def test_the_walk_reads_one_class_of_each_mirror_pair(monkeypatch, tt, rk):
    # one class read of each orbit {c, c^v, sigma c, sigma c^v}, two
    # mirror pairs, so a quarter of the point
    point = twisted_folded_quivers(tt, rk)
    reads, read_now = Counter(), []
    for name in ("_scratch", "_transport", "_assert_mirrored", "_assert_twinned"):
        real = getattr(seqorder, name)
        monkeypatch.setattr(
            seqorder, name, lambda *a, real=real, name=name: reads.update([name]) or real(*a))
    for name, at in (("_scratch", 0), ("_transport", 2)):  # the quiver read
        real = getattr(seqorder, name)
        monkeypatch.setattr(seqorder, name, lambda *a, real=real, at=at: (
            read_now.append(a[at].source_class) or real(*a)))
    walk = list(walk_point(point))
    read = read_classes(point)
    assert len(read) == len(point) // 4
    assert reads["_scratch"] == 1 and reads["_scratch"] + reads["_transport"] == len(point) // 4
    # the read classes, in the point's order
    assert read_now == read
    # each orbit is checked once, before its first class is read: two
    # mirror pairs and one twin pair
    assert reads["_assert_mirrored"] == len(point) // 2
    assert reads["_assert_twinned"] == len(point) // 4
    # one yield per distinct datum, in the point's order: the read class
    # with its mirror, and its twin with the twin's mirror, one datum for
    # the four where no record is relabelled (A and D), two on E6
    mirror = mirror_classes(point)
    expect = []
    for cls in read:
        twin = twin_class(point[cls])
        pairs = [(cls, mirror[cls]), (twin, mirror[twin])]
        expect += [pairs[0] + pairs[1]] if tt != "E" else pairs
    assert [tuple(fq.source_class for fq in quivers) for _, quivers in walk] == expect
    assert all(fq is point[fq.source_class] for _, quivers in walk for fq in quivers)


def test_reversing_without_starring_fails_the_mirror_oracle(monkeypatch, recompiled):
    # the unstarred reversal names a class of the point, but not the
    # mirror, and the walk refuses its cells; on D6, * is trivial, so
    # there the mutant is the real code
    mutant = recompiled(words.class_images, "(rs.star(), -1)", "(None, -1)")
    monkeypatch.setattr(words, "class_images", mutant)
    monkeypatch.setattr(seqorder, "class_images", mutant)
    for source in [("A", 7), ("E", 6)]:
        point = twisted_folded_quivers(*source)
        assert not _mirrors_match_kahn(point)
        with pytest.raises(AssertionError, match="unmirrored cells"):
            list(walk_point(point))
    assert _mirrors_match_kahn(twisted_folded_quivers("D", 6))


def test_a_mirror_check_by_positions_alone_fails(recompiled):
    # two residues of one quiver swapped at one position: the positions
    # still mirror, the residues do not
    point = twisted_folded_quivers("A", 7)
    cls = next(c for c in point if c.parent)
    cells = list(point[cls].cells)
    a, b = next(
        (a, b) for a, b in combinations(range(len(cells)), 2)
        if cells[a][1] == cells[b][1] and cells[a][0] != cells[b][0]
    )
    cells[a], cells[b] = (cells[b][0], cells[a][1]), (cells[a][0], cells[b][1])
    fq = point[cls]
    bad = {**point, cls: FoldedQuiver(fq.rs, tuple(cells), fq.source_class, fq.folding)}
    with pytest.raises(AssertionError, match="unmirrored cells") as refused:
        list(walk_point(bad))
    assert str(cls.canonical_word) in str(refused.value)
    positions_only = recompiled(seqorder._assert_mirrored, "(rm - rc, pc + pm)", "(0, pc + pm)")
    positions_only(bad[cls], bad[mirror_classes(bad)[cls]])
    with pytest.raises(AssertionError, match="unmirrored cells"):
        seqorder._assert_mirrored(point[cls], point[cls])  # no class is its own mirror


def test_a_mirror_outside_the_point_is_refused():
    point = twisted_folded_quivers("E", 6)
    cls = next(iter(point))
    gone = mirror_classes(point)[cls]
    cut = {c: fq for c, fq in point.items() if c != gone}
    with pytest.raises(AssertionError, match=re.escape(f"mirror of class {cls.canonical_word}")):
        list(walk_point(cut))


# ---------------------------------------------------------------------------
# sigma twins: sigma c and sigma c^v take c's datum relabelled by sigma

TWIN_SOURCES = (
    [("A", r) for r in (3, 5, 7, 9, 11)] + [("D", r) for r in (4, 5, 6, 7, 8)] + [("E", 6)]
)


def _sigma_by_words(cls, perm) -> dict[int, int]:
    """sigma on root indices read off two root sequences: the k-th root of
    the relabelled canonical word against the k-th root of the word."""
    rs, word = cls.rs, cls.canonical_word
    moved = root_sequence(rs, tuple(perm[i] for i in word))
    return {rs.root_index[b]: rs.root_index[m] for b, m in zip(root_sequence(rs, word), moved)}


@pytest.mark.parametrize("tt, rk", TWIN_SOURCES)
def test_the_twin_key_names_the_relabelled_class(tt, rk):
    # on every class: the twin is the Kahn-canonicalised class of the
    # relabelled canonical word, the orbit has four classes, sigma commutes
    # with the mirror, and the twin's cells are the class's relabelled by
    # sigma up to one shift, residues kept
    point = twisted_folded_quivers(tt, rk)
    rs = next(iter(point)).rs
    perm = next(iter(point.values())).folding.automorphism.perm
    images = words.class_images(point, perm, ("mirror", "twin"))
    mirror, twin = images["mirror"], images["twin"]
    sigma = seqorder._root_twins(rs, perm)
    for cls, fq in point.items():
        t = twin[cls]
        assert t == commutation_class(rs, tuple(perm[i] for i in cls.canonical_word))
        assert point.get(t) is not None and len({cls, mirror[cls], t, mirror[t]}) == 4
        assert twin[mirror[cls]] == mirror[t]
        assert _sigma_by_words(cls, perm) == dict(enumerate(sigma))
        shifts = {
            (point[t].cells[sigma[r]][0] - res, point[t].cells[sigma[r]][1] - p)
            for r, (res, p) in enumerate(fq.cells)
        }
        assert len(shifts) == 1 and shifts.pop()[0] == 0


def test_twin_records_not_relabelled_fail_the_socle_oracle(fresh_point, monkeypatch):
    # sigma c and sigma c^v handed c's records as they are; E6 is the point
    # with records, 960 of them
    monkeypatch.setattr(seqorder, "_twin_datum", lambda data, sigma: data)
    assert not _socles_match_scratch(fresh_point("E", 6))


@pytest.mark.parametrize("tt, rk", [("A", 7), ("D", 6), ("E", 6)])
def test_a_twin_cell_moved_by_one_is_refused(tt, rk):
    # the mirrors still mirror; the twin check names the class read
    point = twisted_folded_quivers(tt, rk)
    seed = next(iter(point))
    bad, twin = moved_twin_cell(point, seed)
    with pytest.raises(AssertionError, match="untwinned cells") as refused:
        list(walk_point(bad))
    assert str(seed.canonical_word) in str(refused.value)
    with pytest.raises(AssertionError, match="untwinned cells"):
        seqorder._assert_twinned(point[seed], bad[twin], seqorder._root_twins(
            seed.rs, point[seed].folding.automorphism.perm))


def _untwisted(point):
    """The point's quivers with sigma patched to the identity."""
    folding = next(iter(point.values())).folding
    identity = {i: i for i in folding.automorphism.perm}
    fold = Folding(
        folding.source, folding.target, folding.h_dual, folding.symmetrizer,
        folding.sign_convention, folding.twisted_coxeter_word,
        DiagramAutomorphism(identity, folding.automorphism.orbit_label),
    )
    return {cls: FoldedQuiver(fq.rs, fq.cells, fq.source_class, fold) for cls, fq in point.items()}


@pytest.mark.parametrize("tt, rk", [("A", 7), ("D", 6), ("E", 6)])
def test_a_walk_with_sigma_the_identity_refuses_the_point(tt, rk):
    # under the distance walk's mirror rule and under the Dorey walk's
    point = twisted_folded_quivers(tt, rk)
    with pytest.raises(AssertionError, match="fewer than 4 classes"):
        list(walk_point(_untwisted(point)))
    read = lambda fq, up: (0, [], [])  # noqa: E731
    with pytest.raises(AssertionError, match="fewer than 4 classes"):
        list(seqorder.walk_orbits(
            _untwisted(point), read, lambda data, sigma: data, affine._mirror_pairs))


def test_a_twin_outside_the_point_is_refused():
    # refused when the walk starts, naming the class whose twin is missing:
    # the images are found class by class, the first class first
    point = twisted_folded_quivers("A", 7)
    cls = next(iter(point))
    gone = twin_class(point[cls])
    cut = {c: fq for c, fq in point.items() if c != gone}
    read = lambda fq, up: (0, [], [])  # noqa: E731
    named = re.escape(f"twin of class {cls.canonical_word} is not among the classes")
    with pytest.raises(AssertionError, match=named):
        list(seqorder.walk_orbits(cut, read, lambda data, sigma: data, affine._mirror_pairs))
    with pytest.raises(AssertionError, match=named):
        list(walk_point(cut))


ROOT_SYSTEM_MEMOS = {
    "packed_roots", "reflection_permutation", "height_rank", "summing_pairs",
}


def test_root_systems_keep_only_the_bounded_memos():
    # each of these is one table per root system, or per (root system, i)
    # or bit width; a memo keyed by the suites' data would show up here
    assert cli.verify_socle_dist("A", 7).ok
    assert affine.verify_den_dist("C", 5).ok and affine.verify_dorey("B", 4).ok
    systems = [root_system("A", 7)] + [
        root_system(*folding_to(t, n).source) for t, n in (("C", 5), ("B", 4))
    ]
    for rs in systems:
        names = {k if isinstance(k, str) else k[0] for k in rs._cache}
        assert names <= ROOT_SYSTEM_MEMOS, (rs, names - ROOT_SYSTEM_MEMOS)


def test_distance_polynomial_refuses_residue_outside_diagram():
    fqs = twisted_folded_quivers("A", 3)  # folds onto B_2: residues 1, 2
    fq = fqs[min(fqs, key=lambda c: c.canonical_word)]
    for k, l in [(0, 1), (1, 3), (3, 3), (-1, 2)]:
        with pytest.raises(ValueError, match="outside 1..2 of B_2"):
            distance_polynomial(fq, k, l, "A")
        with pytest.raises(ValueError, match="outside 1..2 of B_2"):
            o_t(fq, k, l, 1)


def test_bad_reads_are_refused_before_the_table_is_built(monkeypatch):
    fqs = twisted_folded_quivers("A", 3)
    fq = fqs[min(fqs, key=lambda c: c.canonical_word)]

    def no_table(fq, reader):
        raise AssertionError("distance table built for a bad read")

    monkeypatch.setattr(seqorder, "_scratch", no_table)
    with pytest.raises(ValueError, match="outside 1..2 of B_2"):
        distance_polynomial(fq, 1, 3, "A")
    with pytest.raises(ValueError, match="outside 1..2 of B_2"):
        o_t(fq, 0, 1, 1)
    with pytest.raises(ValueError, match="convention must be 'A' or 'D'"):
        distance_polynomial(fq, 1, 2, "X")
    with pytest.raises(AssertionError, match="bad read"):
        o_t(fq, 1, 2, 1)  # a good read does reach the table


def test_distance_polynomial_class_invariant_a5():
    fqs = twisted_folded_quivers("A", 5)
    for k in range(1, 4):
        for l in range(k, 4):
            vals = {distance_polynomial(fq, k, l, "A") for fq in fqs.values()}
            assert len(vals) == 1


# ---------------------------------------------------------------------------
# property-based checks


@st.composite
def same_weight_pair(draw):
    point = sorted(twisted_adapted_point("A", 3),
                   key=lambda c: c.canonical_word)
    cls = draw(st.sampled_from(point))
    rs = cls.rs
    roots = draw(st.lists(st.integers(0, rs.num_positive - 1),
                          min_size=1, max_size=3))
    m = sequence_from_roots(rs, roots)
    elems = sequences_of_weight(rs, weight_of(rs, m))
    mp = draw(st.sampled_from(sorted(elems)))
    return cls, m, mp


@given(same_weight_pair())
@settings(max_examples=120, deadline=None)
def test_class_less_matches_oracle_property(data):
    cls, m, mp = data
    assert class_less(cls, m, mp) == class_less_oracle(cls, m, mp)
    words = all(bilex_less_word(cls, w, m, mp) for w in cls.members())
    assert class_less_oracle(cls, m, mp) == words


@given(same_weight_pair())
@settings(max_examples=60, deadline=None)
def test_class_less_antisymmetric_property(data):
    cls, m, mp = data
    assert not (class_less(cls, m, mp) and class_less(cls, mp, m))
