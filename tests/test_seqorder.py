from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from arfold import affine, cli, seqorder
from arfold.rootsys import RootSystem, folding_to, root_system
from arfold.words import (
    CommutationClass,
    adapted_point,
    bits,
    commutation_class,
    root_sequence,
    twisted_adapted_point,
)
from arfold.twistfold import twisted_folded_quivers
from arfold.seqorder import (
    _distance_table,
    _pair_dist,
    _less_same_weight,
    _partitions,
    bilex_less_word,
    class_less,
    classify_cover,
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
    point_socle_records,
    point_tables,
    sequence_from_roots,
    sequences_of_weight,
    socle,
    support,
    weight_of,
)


def seq(rs, *roots):
    return sequence_from_roots(rs, [rs.root_index[r] for r in roots])


@lru_cache(maxsize=None)
def member_orders(cls):
    """For each member word, its root indices in word order."""
    rs = cls.rs
    return tuple(
        tuple(rs.root_index[b] for b in root_sequence(rs, w)) for w in cls.members()
    )


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
            inner = cls.interval(a, b)
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
                want = partitions_oracle(rs, w, cls.interval(a, b))
            elif cls.precedes(b, a):
                want = partitions_oracle(rs, w, cls.interval(b, a))
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
    return range(rs.num_positive)  # the fit list stays in root-index order


def _undoubled_pair_width(rs):
    return max(rs.positive_roots[-1]).bit_length() + 1


@pytest.mark.parametrize("mutant", ["width", "cover", "sort"])
def test_pair_below_mutants_fail_the_interval_oracle(monkeypatch, recompiled, mutant):
    if mutant == "width":  # a pair weight overflows its fields
        monkeypatch.setattr(seqorder, "_pair_width", _undoubled_pair_width)
    elif mutant == "sort":
        monkeypatch.setattr(seqorder, "_height_rank", _unsorted_height_rank)
    else:  # the cover misses root k + 1, so live branches are cut
        monkeypatch.setattr(seqorder, "_packed_partitions", recompiled(
            seqorder._packed_partitions,
            "uncovered = guard ^ cover[k + 1]",
            "uncovered = guard ^ cover[min(k + 2, len(roots))]",
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
            above, below = cls.above(), cls.below()
            for a in below:
                assert above[a] == sum(1 << r for r in below if cls.precedes(a, r))
                for b in below:
                    mask = above[a] & below[b]
                    assert cls.interval(a, b) == [r for r in below if mask >> r & 1]


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
        d = _pair_dist(cls, a, b)
        assert d == _pair_dist(cls, b, a) == dist(cls, m) == _dist_oracle(cls, m)


def _chain_depths_oracle(cls, elems):
    """Longest-chain length ending at each element, by closing the strict
    order relation over all ordered pairs."""
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
    return depth


@pytest.mark.parametrize("tt, rk", [("E", 6), ("A", 7), ("D", 6)])
def test_chain_depths_equal_the_relation_closure(tt, rk):
    deepest = 0
    for cls in twisted_adapted_point(tt, rk):
        for a, b in comparable_pairs(cls):
            below = pair_below(cls, a, b)
            depth = seqorder._chain_depths(cls, below)
            assert depth == _chain_depths_oracle(cls, below)
            deepest = max(deepest, *depth.values(), 0)
    # E6 reaches dist 4, the twisted points of A and D dist 2
    assert deepest + 1 == (4 if tt == "E" else 2)


def test_chain_depths_compare_each_unordered_pair_at_most_once(monkeypatch):
    calls = []
    real = seqorder._less_same_weight

    def less(cls, m, mp):
        calls.append((m, mp))
        return real(cls, m, mp)

    monkeypatch.setattr(seqorder, "_less_same_weight", less)
    largest = 0
    for cls in twisted_adapted_point("E", 6):
        for a, b in comparable_pairs(cls):
            below = pair_below(cls, a, b)
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
        if minimal and not cls.comparable(eta, mu) \
                and not cls.comparable(eta, nu):
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
    gaps = {abs(p - q) for _, _, p in fq.coords for _, _, q in fq.coords}
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
        assert _distance_table(fq) == _table_oracle(fq)


def test_distance_table_equals_phi_pairs_oracle_first_e6_class():
    fqs = twisted_folded_quivers("E", 6)
    cls = min(fqs, key=lambda c: c.canonical_word)
    assert _distance_table(fqs[cls]) == _table_oracle(fqs[cls])


def test_distance_table_is_keyed_by_folded_coordinates():
    fqs = twisted_folded_quivers("A", 5)
    cls = min(fqs, key=lambda c: c.canonical_word)
    coords = tuple((r, i, 2 * p) for r, i, p in fqs[cls].coords)
    stretched = replace(fqs[cls], coords=coords)
    assert _distance_table(stretched) == _table_oracle(stretched)
    assert _distance_table(stretched) != _distance_table(fqs[cls])


# ---------------------------------------------------------------------------
# distance tables transported along the BFS tree of the folded reflections


@pytest.fixture
def fresh_point(monkeypatch):
    """Twisted points built anew, and a fresh `_distance_polynomials` memo,
    so no polynomial of these points is memoised yet."""
    monkeypatch.setattr(
        affine, "_distance_polynomials",
        lru_cache(maxsize=None)(affine._distance_polynomials.__wrapped__),
    )
    return lru_cache(maxsize=None)(twisted_folded_quivers.__wrapped__)


def _scratch_table(fq):
    """{(k, l): {t: o_t}} from `comparable_pairs` and `_pair_dist` alone."""
    cls = fq.source_class
    coord = fq.coord_of()
    out = {}
    for a, b in comparable_pairs(cls):
        (ia, pa), (ib, pb) = coord[a], coord[b]
        row = out.setdefault((min(ia, ib), max(ia, ib)), {})
        d = _pair_dist(cls, a, b)
        assert row.setdefault(abs(pa - pb), d) == d
    return out


def _tables_match_scratch(point) -> bool:
    """Every transported table equals the scratch build; False also when
    the transport raises on the way."""
    try:
        tables = [table for _, table in point_tables(point)]
    except AssertionError:
        return False
    return tables == [_scratch_table(fq) for fq in point.values()]


@pytest.mark.parametrize(
    "target", ["B3", "B4", "B5", "C4", "C5", "C6", "F4"]
)
def test_transported_tables_equal_scratch_build(fresh_point, target):
    # every class of the twisted point
    point = fresh_point(*folding_to(target[0], int(target[1:])).source)
    assert _tables_match_scratch(point)


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

    def transport(counts, parent, child, i):
        return real(counts, replace(parent, coords=child.coords), child, i)

    monkeypatch.setattr(seqorder, "_transport", transport)
    assert not all(_tables_match_scratch(fresh_point(*s)) for s in MUTANT_SOURCES)


def test_lying_pair_dist_at_a_moved_root_raises(fresh_point, monkeypatch):
    point = fresh_point("A", 7)
    lie = None
    for fq in point.values():
        if fq.origin is None:
            continue
        _, i = fq.origin
        r = fq.rs.simple_root_index[i]
        sizes = {}
        coord = fq.coord_of()
        for a, b in comparable_pairs(fq.source_class):
            key = seqorder._bucket(coord, a, b)
            sizes[key] = sizes.get(key, 0) + 1
        for key, a, b in seqorder._pairs_at(fq, r):
            if sizes[key] > 1:  # Phi[t] has another pair to disagree with
                lie = (fq.source_class, a, b)
                break
        if lie:
            break
    real = seqorder._pair_dist

    def pair_dist(cls, a, b):
        return real(cls, a, b) + ((cls, a, b) == lie)

    monkeypatch.setattr(seqorder, "_pair_dist", pair_dist)
    with pytest.raises(AssertionError, match="not constant on Phi"):
        list(point_tables(point))


def test_transport_driving_a_count_negative_raises(fresh_point):
    point = fresh_point("D", 4)
    child = next(fq for fq in point.values() if fq.origin)
    parent, i = child.origin
    with pytest.raises(AssertionError, match="negative"):
        seqorder._transport({}, parent, child, i)


def test_table_fill_computes_only_the_moved_pairs(fresh_point, monkeypatch):
    # a silent fallback to one dist per comparable pair of every class
    # would make some ten times the calls
    point = fresh_point(*folding_to("C", 5).source)
    calls = []
    real = seqorder._pair_dist

    def pair_dist(cls, a, b):
        calls.append((a, b))
        return real(cls, a, b)

    monkeypatch.setattr(seqorder, "_pair_dist", pair_dist)
    list(point_tables(point))
    seed = next(iter(point.values()))
    assert seed.origin is None
    n = seed.rs.num_positive
    assert len(calls) <= len(comparable_pairs(seed.source_class)) + (n - 1) * (
        len(point) - 1
    )


def test_a_distance_read_tables_its_own_quiver_alone(monkeypatch):
    # one dist per comparable pair of the read quiver's class, never a
    # walk over the other classes of its point
    point = twisted_folded_quivers("A", 9)
    seed = next(fq for fq in point.values() if fq.origin is None)
    calls = []
    real = seqorder._pair_dist

    def pair_dist(cls, a, b):
        calls.append(cls)
        return real(cls, a, b)

    monkeypatch.setattr(seqorder, "_pair_dist", pair_dist)
    distance_polynomial(seed, 1, 1, "A")
    assert len(calls) == len(comparable_pairs(seed.source_class)) == 730
    assert set(calls) == {seed.source_class}


def test_classes_keep_only_their_order_data():
    # no distance table or polynomial is stored on a class
    assert affine.verify_den_dist("C", 5).ok and affine.verify_dorey("B", 4).ok
    affine.verify_f4_conjecture()
    assert cli.verify_socle_dist("A", 7).ok
    sources = [folding_to("C", 5).source, ("E", 6), folding_to("B", 4).source, ("A", 7)]
    for source in sources:
        for cls in twisted_folded_quivers(*source):
            assert set(cls._cache) <= {"below", "letter", "above"}, (cls, set(cls._cache))


# ---------------------------------------------------------------------------
# socle-dist records transported along the same walk

SOCLE_POINTS = [("A", 5), ("A", 7), ("A", 9), ("D", 5), ("D", 6), ("D", 7), ("E", 6)]


def _scratch_socle_records(cls):
    """(a, b, d, socle), a < b, of every pair at dist > 2 or without a
    unique socle, over all pairs; `dist` and the socle are both read from
    the pair's one `pair_below` list."""
    out = []
    for a, b in combinations(range(cls.rs.num_positive), 2):
        below = pair_below(cls, a, b)
        if below:
            d, s = seqorder._dist_over(cls, below), seqorder._unique_simple(cls, below)
            if d > 2 or s is None:
                out.append((a, b, d, s))
    return out


def _socles_match_scratch(point) -> bool:
    return all(
        sorted(records) == _scratch_socle_records(fq.source_class)
        for fq, records in point_socle_records(point)
    )


@pytest.mark.parametrize("tt, rk", SOCLE_POINTS)
def test_transported_socles_equal_scratch_records(fresh_point, tt, rk):
    # every class of the twisted point; E6 is read through the walk only,
    # since socle-dist refuses it as a suite
    assert _socles_match_scratch(fresh_point(tt, rk))


def test_e6_is_the_point_with_socle_records(fresh_point):
    # the only point whose records carry pairs and socles to relabel
    records = [r for _, recs in point_socle_records(fresh_point("E", 6)) for r in recs]
    assert len(records) == 960
    assert sum(s is not None for *_, s in records) > 0


def _keep_parent_alpha_records(real):
    def transport(records, parent, child, i):
        r = child.rs.simple_root_index[i]
        perm = child.rs.reflection_permutation(i)
        kept = [
            (*sorted((perm[a], perm[b])), d, s)
            for a, b, d, s in records
            if r in (a, b)
        ]
        return real(records, parent, child, i) + kept

    return transport


def test_socle_transport_mutants_fail_the_oracle(fresh_point, monkeypatch):
    point = fresh_point("E", 6)
    monkeypatch.setattr(
        seqorder, "_transport_socles",
        _keep_parent_alpha_records(seqorder._transport_socles),
    )
    assert not _socles_match_scratch(point)


def test_socle_not_relabelled_fails_the_oracle(fresh_point, monkeypatch):
    point = fresh_point("E", 6)
    monkeypatch.setattr(seqorder, "_permuted", lambda m, perm: m)
    assert not _socles_match_scratch(point)


def test_skipping_the_child_pairs_fails_the_socle_oracle(fresh_point, monkeypatch):
    point = fresh_point("E", 6)
    monkeypatch.setattr(seqorder, "_pairs_at", _keep_pairs(lambda r, a, b: a == r))
    assert not _socles_match_scratch(point)


def _socle_report_with_a_lie(point, monkeypatch, mutant_pairs_at=None):
    """socle-dist A7 with a `_bad_pair` that gives the socle None on one
    pair at the moved root of a child class, and ``_pairs_at`` replaced by
    the mutant, if one is given; the report and the record the lie makes."""
    lie = None
    for fq in point.values():
        if fq.origin is None:
            continue
        cls = fq.source_class
        r = fq.rs.simple_root_index[fq.origin[1]]
        for _, a, b in seqorder._pairs_at(fq, r):
            d = _pair_dist(cls, a, b)
            if d:
                lie = (cls, min(a, b), max(a, b), d)
                break
        if lie:
            break
    real = seqorder._bad_pair

    def bad_pair(cls, a, b):
        if (cls, min(a, b), max(a, b)) == lie[:3]:
            return (*lie[1:], None)
        return real(cls, a, b)

    monkeypatch.setattr(seqorder, "_bad_pair", bad_pair)
    if mutant_pairs_at:
        monkeypatch.setattr(seqorder, "_pairs_at", mutant_pairs_at)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    cls, a, b, d = lie
    return cli.verify_socle_dist("A", 7), (cls.canonical_word, a, b, d, None)


def test_lying_pair_socle_at_a_moved_root_is_named(fresh_point, monkeypatch):
    rep, record = _socle_report_with_a_lie(fresh_point("A", 7), monkeypatch)
    assert not rep.ok and record in rep.mismatches


def test_skipping_the_child_pairs_hides_the_lie(fresh_point, monkeypatch):
    skip = _keep_pairs(lambda r, a, b: a == r)
    rep, record = _socle_report_with_a_lie(fresh_point("A", 7), monkeypatch, skip)
    assert record not in rep.mismatches


def test_socle_dist_checks_only_the_moved_pairs(fresh_point, monkeypatch):
    point = fresh_point("A", 7)
    calls = []
    real = seqorder._bad_pair

    def bad_pair(cls, a, b):
        calls.append((a, b))
        return real(cls, a, b)

    monkeypatch.setattr(seqorder, "_bad_pair", bad_pair)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    rep = cli.verify_socle_dist("A", 7)
    n = root_system("A", 7).num_positive
    assert rep.ok and rep.checked == len(point) * n * (n - 1) // 2
    assert len(calls) <= n * (n - 1) // 2 + (len(point) - 1) * (n - 1)


def test_socle_dist_reads_each_checked_pair_once(fresh_point, monkeypatch):
    # dist and socle come from one `pair_below` list, one
    # `_packed_partitions` enumeration; the reads `is_simple` makes are of
    # pairs inside the interval, never of the checked pair itself
    point = fresh_point("A", 7)
    checking, reads = [None], Counter()
    real_bad_pair, real_pair_below = seqorder._bad_pair, seqorder.pair_below

    def bad_pair(cls, a, b):
        checking[0] = (cls, min(a, b), max(a, b))
        return real_bad_pair(cls, a, b)

    def pair_below(cls, a, b):
        if (cls, min(a, b), max(a, b)) == checking[0]:
            reads[checking[0]] += 1
        return real_pair_below(cls, a, b)

    monkeypatch.setattr(seqorder, "_bad_pair", bad_pair)
    monkeypatch.setattr(seqorder, "pair_below", pair_below)
    monkeypatch.setattr(cli, "twisted_folded_quivers", lambda tt, rk: point)
    assert cli.verify_socle_dist("A", 7).ok
    assert reads and max(reads.values()) == 1


def test_pair_path_reads_the_masks_and_sweeps_two_or_more(fresh_point, monkeypatch):
    # `pair_below` lists each interval from the order masks, never through
    # `CommutationClass.interval`, and `_dist_over` answers 0 or 1
    # sequences below without the chain sweep
    def interval(cls, a, b):
        raise AssertionError(f"interval({a}, {b}) listed on the pair path")

    sizes = []
    real_chain_depths = seqorder._chain_depths

    def chain_depths(cls, elems):
        sizes.append(len(elems))
        return real_chain_depths(cls, elems)

    monkeypatch.setattr(CommutationClass, "interval", interval)
    monkeypatch.setattr(seqorder, "_chain_depths", chain_depths)
    monkeypatch.setattr(cli, "twisted_folded_quivers", fresh_point)
    monkeypatch.setattr(affine, "twisted_folded_quivers", fresh_point)
    assert cli.verify_socle_dist("A", 7).ok
    assert affine.verify_den_dist("C", 5).ok
    assert sizes and min(sizes) >= 2


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

    def no_table(fq):
        raise AssertionError("distance table built for a bad read")

    monkeypatch.setattr(seqorder, "_scratch_counts", no_table)
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
