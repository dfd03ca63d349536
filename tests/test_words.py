from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arfold import words as words_module
from arfold.rootsys import DiagramAutomorphism, root_system
from arfold.twistfold import twisted_folded_quivers
from arfold.words import (
    CapExceededError,
    CommutationClass,
    _kahn,
    _order_pass,
    NotReducedError,
    bits,
    adapted_point,
    cluster_moves,
    cluster_point,
    commutation_class,
    edge_slots,
    moved_key,
    projection_key,
    reflect,
    root_sequence,
    twisted_adapted_point,
)

from oracles import (
    coxeter_composition,
    interval,
    is_foldable,
    is_positive,
    length,
    twisted_coxeter_elements,
)

A4_EXAMPLE_WORD = (4, 1, 3, 2, 4, 1, 3, 2, 4, 3)


def test_root_sequence_rank2():
    rs = root_system("A", 2)
    assert root_sequence(rs, (1, 2, 1)) == [(1, 0), (1, 1), (0, 1)]


def test_root_sequence_a4_example_word():
    rs = root_system("A", 4)
    roots = root_sequence(rs, A4_EXAMPLE_WORD)
    assert sorted(roots) == sorted(rs.positive_roots)


def test_root_sequence_rejects_non_reduced():
    rs = root_system("A", 2)
    with pytest.raises(NotReducedError):
        root_sequence(rs, (1, 1))
    with pytest.raises(NotReducedError):
        commutation_class(rs, (1, 2))  # wrong length for w_0


def test_commutation_class_singleton():
    rs = root_system("A", 2)
    cls = commutation_class(rs, (1, 2, 1))
    assert cls.members() == [(1, 2, 1)]


def test_commutation_class_closure_oracle():
    """members() must equal the swap-closure of the defining word."""
    rs = root_system("A", 3)
    word = (1, 3, 2, 1, 3, 2)
    cls = commutation_class(rs, word)

    def swap_closure(w):
        seen = {w}
        frontier = [w]
        while frontier:
            new = []
            for u in frontier:
                for k in range(len(u) - 1):
                    a, b = u[k], u[k + 1]
                    if rs.cartan[a][b] == 0:
                        v = u[:k] + (b, a) + u[k + 2:]
                        if v not in seen:
                            seen.add(v)
                            new.append(v)
            frontier = new
        return seen

    closure = swap_closure(word)
    assert set(cls.members()) == closure
    assert (3, 1, 2, 3, 1, 2) in closure
    assert cls.canonical_word == min(closure)


def test_a4_example_class_is_adapted_class_of_quiver():
    from arfold.arquiver import DynkinQuiver, adapted_word

    rs = root_system("A", 4)
    q = DynkinQuiver(rs, frozenset({(2, 1), (2, 3), (3, 4)}))
    assert commutation_class(rs, A4_EXAMPLE_WORD) == commutation_class(
        rs, adapted_word(q)
    )


def test_members_cap():
    rs = root_system("A", 4)
    cls = commutation_class(rs, A4_EXAMPLE_WORD)
    with pytest.raises(CapExceededError):
        cls.members(cap=3)


def test_reflect_fixed_point():
    rs = root_system("A", 2)
    cls = commutation_class(rs, (1, 2, 1))
    # the class is the single word (1,2,1): no member starts with 2
    assert reflect(cls, 2) == cls
    # it does start with 1, so r_1 moves it
    assert reflect(cls, 1) != cls
    assert cluster_point(cls) == _two_sided_closure(cls)


def test_reflect_adapted_moves_to_reflected_quiver():
    from arfold.arquiver import DynkinQuiver, adapted_quiver_of, adapted_word

    rs = root_system("A", 4)
    q = DynkinQuiver(rs, frozenset({(2, 1), (2, 3), (3, 4)}))
    cls = commutation_class(rs, adapted_word(q))
    for i in (1, 4):  # sinks of q
        out = reflect(cls, i)
        assert out != cls
        q2 = adapted_quiver_of(rs, out.canonical_word)
        assert q2 == q.reflect(i)


def test_reflect_round_trip_stays_in_cluster_point():
    rs = root_system("A", 3)
    cls = commutation_class(rs, (1, 2, 3, 1, 2, 1))
    point = cluster_point(cls)
    star = rs.star()
    for i in rs.nodes:
        d = reflect(cls, i)
        assert d in point
        if d != cls:
            assert commutation_class(rs, _moved_word(d, star[i], "left")) == cls
    assert point == _two_sided_closure(cls)


def test_reflect_acts_within_point_and_inverts():
    # On the classes it moves, r_i is injective and is undone by the left
    # move at i*; images always stay in the point.
    for tt, rk in [("A", 3), ("D", 4)]:
        rs = root_system(tt, rk)
        star = rs.star()
        point = twisted_adapted_point(tt, rk)
        for i in rs.nodes:
            movers = {c for c in point if reflect(c, i) != c}
            images = {c: reflect(c, i) for c in movers}
            assert set(images.values()) <= point
            assert len(set(images.values())) == len(movers)
            for c, d in images.items():
                assert commutation_class(rs, _moved_word(d, star[i], "left")) == c
        assert point == _two_sided_closure(next(iter(point)))


def test_reflect_refuses_letter_outside_nodes():
    cls = commutation_class(root_system("A", 3), (1, 2, 3, 1, 2, 1))
    for i in (0, 4, 7):
        with pytest.raises(ValueError, match=f"letter {i} "):
            reflect(cls, i)


def _reflect_oracle(cls, i):
    """The reflection functor r_i by definition, over every member word."""
    star = cls.rs.star()[i]
    moved = {w[1:] + (star,) for w in cls.members() if w[0] == i}
    return {commutation_class(cls.rs, w) for w in moved} or {cls}


@pytest.mark.parametrize("tt, rk, point", [
    ("A", 3, adapted_point), ("A", 3, twisted_adapted_point),
    ("A", 4, adapted_point),  # A_4 has no folding, so no twisted point
    ("D", 4, adapted_point), ("D", 4, twisted_adapted_point),
])
def test_reflect_equals_definitional_action(tt, rk, point):
    rs = root_system(tt, rk)
    for cls in point(tt, rk):
        for i in rs.nodes:
            assert {reflect(cls, i)} == _reflect_oracle(cls, i)


def _moved_word(cls, i, side):
    """The word a move sends the canonical word to, or None at a fixed
    point: the first s_i to the end as s_{i*} (right, r_i), or the last
    s_i to the front as s_{i*} (left)."""
    rs, w = cls.rs, cls.canonical_word
    k = w.index(i) if side == "right" else len(w) - 1 - w[::-1].index(i)
    passed = w[:k] if side == "right" else w[k + 1:]
    if any(rs.cartan[j][i] for j in passed):
        return None
    rest, star = w[:k] + w[k + 1:], (rs.star()[i],)
    return rest + star if side == "right" else star + rest


@pytest.mark.parametrize("tt, rk", [
    ("A", 5), ("A", 7), ("A", 9), ("D", 5), ("D", 6), ("D", 7), ("E", 6),
])
def test_reflect_moves_to_a_reduced_word_of_its_class(tt, rk):
    # s_i w_0 = w_0 s_{i*}: reflect builds the moved class unchecked
    rs = root_system(tt, rk)
    moves = 0
    for cls in twisted_adapted_point(tt, rk):
        for i in rs.nodes:
            moved = _moved_word(cls, i, "right")
            if moved is None:
                assert reflect(cls, i) == cls
                continue
            moves += 1
            assert len(root_sequence(rs, moved)) == rs.num_positive
            assert reflect(cls, i) == commutation_class(rs, moved)
    assert moves


def _reflect_faults(point):
    """The moves (canonical word, i) of a point's classes where `reflect`
    gives another canonical word than `_kahn` of the moved word."""
    faults = []
    for cls in point:
        for i in cls.rs.nodes:
            moved = _moved_word(cls, i, "right")
            if moved is not None and reflect(cls, i).canonical_word != _kahn(cls.rs, moved):
                faults.append((cls.canonical_word, i))
    return faults


REFLECT_POINTS = (
    [pytest.param(twisted_adapted_point, tt, rk, id=f"twisted-{tt}{rk}")
     for tt, rk in [("A", 5), ("A", 7), ("A", 9), ("A", 11), ("D", 5), ("D", 6),
                    ("D", 7), ("D", 8), ("E", 6)]]
    + [pytest.param(adapted_point, tt, rk, id=f"adapted-{tt}{rk}")
       for tt, rk in [("A", 4), ("A", 5), ("A", 6), ("D", 4), ("D", 5), ("D", 6), ("E", 6)]]
)


@pytest.mark.parametrize("point, tt, rk", REFLECT_POINTS)
def test_reflect_canonical_word_is_kahns(point, tt, rk):
    # one deletion and one insertion, `_kahn` only past a jumper
    assert _reflect_faults(point(tt, rk)) == []


@pytest.mark.parametrize("point, wrong", [(twisted_adapted_point, 10), (adapted_point, 12)])
def test_reflect_without_the_jumper_guard_fails_on_e6(point, wrong, monkeypatch):
    classes = point("E", 6)
    monkeypatch.setattr(root_system("E", 6), "jumpers", {})
    assert len(_reflect_faults(classes)) == wrong


def _heap(rs, word):
    """The heap of a reduced word from scratch as (roots, below, letter,
    above): its `root_sequence`, then `_order_pass` over the word's
    positions along it and back, each order a dict keyed by root index.
    The word need not be a word of w_0."""
    idx = [rs.root_index[b] for b in root_sequence(rs, word)]

    def by_root(masks):
        return {idx[k]: sum(1 << idx[j] for j in bits(m)) for k, m in enumerate(masks)}

    pos = range(len(word))
    return (idx, by_root(_order_pass(rs.adjacent, pos, word)), dict(zip(idx, word)),
            by_root(_order_pass(rs.adjacent, pos[::-1], word[::-1])))


def _class_heap(cls):
    """`_heap`'s four orders as the class reads them: `roots`, then
    `below`, `letter_of` and `above` at every root."""
    roots = list(cls.roots())
    below, above = cls.below(), cls.above()
    return (roots, {r: below[r] for r in range(length(cls))},
            {r: cls.letter_of(r) for r in range(length(cls))},
            {r: above[r] for r in range(length(cls))})


def _transport_mismatches(point):
    """The classes of ``point`` whose roots, below, letter or above differ
    from `_heap` from scratch on the canonical word; a read that raises
    is a mismatch too."""
    bad = []
    for cls in point:
        try:
            got = _class_heap(cls)
        except (KeyError, IndexError):
            got = None
        if got != _heap(cls.rs, cls.canonical_word):
            bad.append(cls)
    return bad


@pytest.mark.parametrize("tt, rk", [
    ("A", 5), ("A", 7), ("A", 9), ("A", 11), ("D", 5), ("D", 6), ("D", 7), ("E", 6),
])
def test_transported_order_equals_heap_from_scratch(tt, rk):
    # a point built anew: every class but the seed reads its roots off its
    # parent's, and its masks and letters are lists indexed by root
    point = twisted_folded_quivers.__wrapped__(tt, rk)
    assert sum(cls.parent is not None for cls in point) == len(point) - 1
    assert _transport_mismatches(point) == []
    for cls in point:
        assert set(cls._cache) == {"roots", "below", "letter", "above"}
        assert all(type(cls._cache[k]) is list for k in ("below", "letter", "above"))


@pytest.mark.parametrize("old, new", [
    # relabel by the permutation of another letter
    ("rs.reflection_permutation(i)", "rs.reflection_permutation(i % rs.rank + 1)"),
    # leave the first i-occurrence in place: alpha_i is not dropped
    ("idx[:k] + idx[k + 1:]", "idx"),
], ids=["other-letter", "alpha-kept"])
def test_root_transport_mutants_fail_the_oracle(monkeypatch, recompiled, old, new):
    monkeypatch.setattr(words_module, "_moved_roots", recompiled(words_module._moved_roots, old, new))
    for source in [("A", 5), ("D", 5)]:
        assert _transport_mismatches(twisted_folded_quivers.__wrapped__(*source))


def test_a_long_chain_of_moves_reads_its_roots_without_recursion():
    # the parents are followed up one by one, so a chain deeper than the
    # recursion limit resolves; each class on it keeps its roots
    import sys

    rs = root_system("A", 5)
    chain = [commutation_class(rs, rs.longest_word())]
    while len(chain) <= max(1_500, sys.getrecursionlimit()):
        chain.append(reflect(chain[-1], chain[-1].canonical_word[0]))
    last = chain[-1]
    assert _class_heap(last) == _heap(rs, last.canonical_word)
    assert all(set(c._cache) == {"roots"} for c in chain[:-1])
    assert all(c.parent == (p, p.canonical_word[0]) for p, c in zip(chain, chain[1:]))


def test_parent_takes_no_part_in_equality_hash_or_repr():
    rs = root_system("A", 5)
    seed = commutation_class(rs, rs.longest_word())
    moved = reflect(seed, seed.canonical_word[0])
    plain = CommutationClass(rs, moved.canonical_word)
    assert moved.parent == (seed, seed.canonical_word[0]) and plain.parent is None
    assert moved == plain and hash(moved) == hash(plain)
    assert repr(moved) == repr(plain) and "parent" not in repr(moved)
    assert {moved: 1}[plain] == 1


def test_a_class_hashes_its_canonical_word_once(monkeypatch):
    # the hash of (root system, canonical word) is taken when the class is
    # made, the value a dataclass hash of the two gives, so sets and dicts
    # of classes keep their order; later hashes read it back
    rs = root_system("A", 5)
    seed = commutation_class(rs, rs.longest_word())
    assert hash(seed) == hash((rs, seed.canonical_word))
    hashed = []
    monkeypatch.setattr(type(rs), "__hash__", lambda self: hashed.append(self) or self._hash)
    moved = reflect(seed, seed.canonical_word[0])
    assert len(hashed) == 1  # the moved class, when it was made
    assert {seed: 1, moved: 2}[CommutationClass(rs, moved.canonical_word)] == 2
    assert len(hashed) == 2  # the class made to look up, and no other
    assert hash(seed) == hash(seed) and len(hashed) == 2


def test_heap_is_the_same_for_every_member_word():
    for tt, rk, word in [("A", 4, A4_EXAMPLE_WORD),
                         ("D", 4, root_system("D", 4).longest_word())]:
        rs = root_system(tt, rk)
        cls = commutation_class(rs, word)
        _, below, letter, above = _class_heap(cls)
        members = cls.members()
        assert len(members) > 1
        for w in members:
            assert _heap(rs, w)[1:] == (below, letter, above)


@pytest.mark.parametrize("tt, rk", [("A", 9), ("D", 7), ("E", 6)])
def test_above_is_the_transpose_of_below(tt, rk):
    for cls in twisted_adapted_point(tt, rk):
        transpose = [0] * length(cls)
        for r, mask in enumerate(cls.below()):
            for r2 in range(length(cls)):
                if mask >> r2 & 1:
                    transpose[r2] |= 1 << r
        assert cls.above() == transpose


def test_cluster_point_counts():
    assert len(adapted_point("A", 4)) == 8
    assert len(adapted_point("A", 5)) == 16
    assert len(twisted_adapted_point("A", 5)) == 16
    assert len(twisted_adapted_point("E", 6)) == 32


@pytest.mark.parametrize("tt, rk", [("A", 4), ("A", 5), ("D", 5)])
def test_adapted_point_builds_one_quiver(monkeypatch, tt, rk):
    # the point is walked from the first orientation of all_quivers,
    # built directly instead of listing all 2^(rank - 1) of them
    from arfold import arquiver

    rs = root_system(tt, rk)
    first = arquiver.all_quivers(rs)[0]
    want = cluster_point(commutation_class(rs, arquiver.adapted_word(first)))

    def every_orientation(rs):
        raise AssertionError("adapted_point listed every orientation")

    monkeypatch.setattr(arquiver, "all_quivers", every_orientation)
    adapted_point.cache_clear()
    assert adapted_point(tt, rk) == want


def test_twisted_point_size_formula():
    # 2^(|I| - |vee|) x |vee| with |vee| = 2 the order of the automorphism
    for tt, rk in [("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]:
        rs = root_system(tt, rk)
        perm = rs.diagram_automorphism().perm
        assert perm != {i: i for i in rs.nodes} and all(perm[perm[i]] == i for i in rs.nodes)
        point = twisted_adapted_point(tt, rk)
        assert len(point) == 2 ** (rs.rank - 2) * 2


def test_coxeter_composition_printed_examples():
    rs5 = root_system("A", 5)
    aut5 = rs5.diagram_automorphism()
    w = (1, 2, 3, 5, 4, 3, 1, 2, 3, 5, 4, 3, 1, 2, 3)
    assert coxeter_composition(commutation_class(rs5, w), aut5) == (5, 5, 5)
    assert coxeter_composition(twisted_adapted_point("A", 3),
                               root_system("A", 3).diagram_automorphism()) == (3, 3)
    assert coxeter_composition(twisted_adapted_point("E", 6),
                               root_system("E", 6).diagram_automorphism()) \
        == (9, 9, 9, 9)
    assert coxeter_composition(twisted_adapted_point("D", 5),
                               root_system("D", 5).diagram_automorphism()) \
        == (5, 5, 5, 5)


def test_composition_constant_across_cluster_point():
    aut = root_system("A", 5).diagram_automorphism()
    # raises if any class of the point disagrees
    coxeter_composition(twisted_adapted_point("A", 5), aut)
    coxeter_composition(adapted_point("A", 5), aut)


def test_foldability():
    aut5 = root_system("A", 5).diagram_automorphism()
    assert is_foldable(twisted_adapted_point("A", 5), aut5)
    assert not is_foldable(adapted_point("A", 5), aut5)
    rs1 = root_system("A", 1)
    cls = commutation_class(rs1, (1,))
    assert is_foldable(cluster_point(cls), DiagramAutomorphism({1: 1}, {1: 1}))


def test_twisted_coxeter_elements_a3():
    rs = root_system("A", 3)
    aut = rs.diagram_automorphism()
    words = twisted_coxeter_elements(rs, aut)
    assert {(1, 2), (2, 1), (3, 2), (2, 3)} <= set(words)
    assert len(words) == 4
    assert (1, 2) in words  # s_1 s_2 ... s_n is always one


def test_twisted_coxeter_elements_e6():
    rs = root_system("E", 6)
    words = twisted_coxeter_elements(rs, rs.diagram_automorphism())
    # one letter per orbit: length 4, always using the fixed nodes 3 and 6
    assert all(len(w) == 4 for w in words)
    assert all({3, 6} <= set(w) for w in words)
    assert (1, 2, 6, 3) in words  # the element generating the E6 base word


def test_twisted_adapted_point_counts_small():
    assert len(twisted_adapted_point("A", 3)) == 4
    assert len(twisted_adapted_point("D", 4)) == 8
    assert len(twisted_adapted_point("D", 5)) == 16


def _root_sequence_oracle(rs, word):
    """root_sequence by definition: apply the whole prefix for every letter."""
    seen, out = set(), []
    for k, i in enumerate(word):
        if i not in rs.cartan:
            raise ValueError(f"letter {i} outside the index set of {rs}")
        beta = rs.apply_word(word[:k], rs.simple_root(i))
        if not is_positive(beta) or beta in seen:
            raise NotReducedError(f"word is not reduced at position {k + 1}")
        seen.add(beta)
        out.append(beta)
    return out


def _heap_oracle(rs, word):
    """The heap by definition: bit k of below[l] iff a chain of
    non-commuting letters runs from occurrence k up to occurrence l."""
    idx = [rs.root_index[b] for b in _root_sequence_oracle(rs, word)]
    below = {}
    for l, r in enumerate(idx):
        acc = 0
        for k in range(l):
            if rs.cartan[word[k]][word[l]] != 0:
                acc |= (1 << idx[k]) | below[idx[k]]
        below[r] = acc
    return below, dict(zip(idx, word))


WORD_TYPES = [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("D", 4), ("D", 5), ("E", 6)]


@st.composite
def words(draw):
    """A type and a word: random letters, a reduced word, or one edited."""
    tt, rk = draw(st.sampled_from(WORD_TYPES))
    rs = root_system(tt, rk)
    letters = st.integers(0, rk + 1)
    kind = draw(st.sampled_from(["random", "reduced", "edited"]))
    if kind == "random":
        return rs, tuple(draw(st.lists(letters, max_size=rs.num_positive + 2)))
    # a random reduced word: append only letters that lengthen the prefix
    word = []
    stop = draw(st.integers(0, rs.num_positive))
    while len(word) < stop:
        up = [i for i in rs.nodes
              if is_positive(rs.apply_word(word, rs.simple_root(i)))]
        word.append(draw(st.sampled_from(up)))
    if kind == "edited" and word:
        k = draw(st.integers(0, len(word) - 1))
        word[k] = draw(letters)
        word += draw(st.lists(letters, max_size=2))
    return rs, tuple(word)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(words())
@settings(max_examples=300, deadline=None)
def test_root_sequence_equals_prefix_oracle(case):
    rs, word = case
    expected = _outcome(_root_sequence_oracle, rs, word)
    assert _outcome(root_sequence, rs, word) == expected
    if isinstance(expected, list):
        assert _heap(rs, word)[1:3] == _heap_oracle(rs, word)


@pytest.mark.parametrize("tt, rk, point", [
    ("A", 3, twisted_adapted_point), ("D", 4, twisted_adapted_point),
    ("A", 4, adapted_point),
])
def test_heap_equals_pairwise_oracle_on_every_member_word(tt, rk, point):
    rs = root_system(tt, rk)
    for cls in point(tt, rk):
        for w in cls.members():
            assert _heap(rs, w)[1:3] == _heap_oracle(rs, w)


@pytest.mark.parametrize("tt, rk, point", [
    ("A", 4, adapted_point), ("A", 5, twisted_adapted_point),
    ("D", 4, twisted_adapted_point),
])
def test_canonical_word_is_least_member(tt, rk, point):
    rs = root_system(tt, rk)
    for cls in point(tt, rk):
        members = cls.members()
        assert cls.canonical_word == min(members)
        for w in members[::7]:
            assert _kahn(rs, w) == cls.canonical_word


@pytest.mark.parametrize("tt, rk", [("A", 3), ("D", 4), ("E", 6)])
def test_commutation_class_refuses_full_length_non_reduced_word(tt, rk):
    rs = root_system(tt, rk)
    w0 = rs.longest_word()
    # s_i s_i cancels; the word keeps the length of w_0
    bad = (w0[0],) + w0[:-1]
    with pytest.raises(NotReducedError, match="not reduced at position 2"):
        commutation_class(rs, bad)


@pytest.mark.parametrize("tt, rk", [("A", 5), ("D", 5)])
def test_interval_equals_precedes_definition(tt, rk):
    for cls in twisted_adapted_point(tt, rk):
        roots = cls.roots()
        for a in roots:
            for b in roots:
                expected = [r for r in roots if cls.precedes(a, b)
                            and cls.precedes(a, r) and cls.precedes(r, b)]
                assert interval(cls, a, b) == expected


def _projections(rs, word):
    """The definition of the key: per edge (a, b), the word restricted to
    {a, b} with b as 1, behind a leading 1, read in base 2."""
    return tuple(
        int("1" + "".join("1" if x == b else "0" for x in word if x in (a, b)), 2)
        for a, b in rs.edges
    )


def _count_key(rs, word):
    """Mutant key: per edge, the letter counts alone (all a's, then all b's)."""
    return tuple(
        int("1" + "0" * word.count(a) + "1" * word.count(b), 2) for a, b in rs.edges
    )


def _unchecked_move(key, slots, i, i_star):
    """Mutant move: the letter it drops at each edge at i is first set to
    i, so the first-letter check never refuses."""
    out = list(key)
    for s, b in slots[i]:
        t = out[s].bit_length() - 2
        out[s] = out[s] & ~(1 << t) | b << t
    return moved_key(tuple(out), slots, i, i_star)


def _key_oracle_faults(point, key_of, move):
    """Disagreements of a class key and its move with ``reflect``, over
    every class of a point and every node."""
    faults = Counter()
    rs = next(iter(point)).rs
    slots, star = edge_slots(rs), rs.star()
    for cls in point:
        key = key_of(rs, cls.canonical_word)
        for i in rs.nodes:
            got, d = move(key, slots, i, star[i]), reflect(cls, i)
            if (got is None) != (d == cls):
                faults["moves"] += 1
            elif got is not None and got != _projections(rs, d.canonical_word):
                faults["keys"] += 1
    # equal keys iff equal canonical words
    faults["collisions"] = len(point) - len({key_of(rs, c.canonical_word) for c in point})
    return +faults


KEY_POINTS = [("A", 5), ("A", 7), ("A", 9), ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E", 6)]


@pytest.mark.parametrize("tt, rk", KEY_POINTS)
def test_moved_key_equals_projections_of_reflect(tt, rk):
    point = twisted_adapted_point(tt, rk)
    rs = root_system(tt, rk)
    for cls in point:
        assert projection_key(rs, cls.canonical_word) == _projections(rs, cls.canonical_word)
    assert _key_oracle_faults(point, projection_key, moved_key) == {}


@pytest.mark.parametrize("tt, rk", KEY_POINTS)
def test_key_oracle_refuses_mutants(tt, rk):
    point = twisted_adapted_point(tt, rk)
    assert _key_oracle_faults(point, projection_key, _unchecked_move)["moves"]
    assert _key_oracle_faults(point, _count_key, moved_key)["collisions"]


def test_cluster_point_by_keys_equals_cluster_point_by_classes():
    # the plain BFS over reflect, deduplicated by class; in A_4 and A_6
    # the middle i and i* are adjacent, so one edge both loses and gains
    for tt, rk in [("A", 4), ("A", 5), ("A", 6), ("D", 5), ("E", 6)]:
        rs = root_system(tt, rk)
        start = commutation_class(rs, rs.longest_word())
        seen, frontier = {start}, [start]
        while frontier:
            new = []
            for c in frontier:
                for i in c.rs.nodes:
                    d = reflect(c, i)
                    if d not in seen:
                        seen.add(d)
                        new.append(d)
            frontier = new
        assert cluster_point(start) == seen == _two_sided_closure(start)
        assert _key_oracle_faults(seen, projection_key, moved_key) == {}


# ---------------------------------------------------------------------------
# the cluster point by r_i alone against the closure under both moves


def _two_sided_closure(cls):
    """The cluster point by definition: every class reached by moving the
    first s_i to the end or the last s_i to the front, as s_{i*}."""
    rs = cls.rs
    seen, frontier = {cls}, [cls]
    while frontier:
        new = []
        for c in frontier:
            for i in rs.nodes:
                for side in ("right", "left"):
                    moved = _moved_word(c, i, side)
                    if moved is None:
                        continue
                    d = commutation_class(rs, moved)
                    if d not in seen:
                        seen.add(d)
                        new.append(d)
        frontier = new
    return seen


def _seeded_classes():
    """The classes of the seeded D_7 and E_6 words of the construct benchmark."""
    import importlib
    import random
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        passes = importlib.import_module("passes")
    finally:
        sys.path.pop(0)
    out = []
    for key, spec in sorted(passes.SEEDED_POINTS.items()):
        rs = root_system(*spec)
        for seed in (1, 2):
            word = passes.seeded_member_word(rs, random.Random(seed))
            out.append(pytest.param(commutation_class(rs, word), id=f"seeded-{key}-{seed}"))
    return out


def _start(point):
    return min(point, key=lambda c: c.canonical_word)


CLOSURE_STARTS = (
    [pytest.param(_start(adapted_point("A", rk)), id=f"adapted-A{rk}") for rk in range(3, 8)]
    + [pytest.param(_start(twisted_adapted_point(tt, rk)), id=f"twisted-{tt}{rk}")
       for tt, rk in [("A", 5), ("A", 7), ("D", 5), ("D", 6), ("E", 6)]]
    + _seeded_classes()
)


@pytest.mark.parametrize("cls", CLOSURE_STARTS)
def test_cluster_point_equals_the_two_sided_closure(cls):
    assert cluster_point(cls) == _two_sided_closure(cls)


@pytest.mark.parametrize("tt, rk", [("A", 5), ("D", 5), ("E", 6)])
def test_r_moves_lead_back_in_2n_minus_1_steps(tt, rk):
    # c = [i w'], d = r_i(c) = [w' i*]: moving the N letters of w' i* and
    # then the first N - 1 letters of the result returns to c
    rs = root_system(tt, rk)
    star = rs.star()
    n = rs.num_positive
    for c in twisted_adapted_point(tt, rk):
        for i in rs.nodes:
            u = _moved_word(c, i, "right")
            if u is None:
                continue
            d = reflect(c, i)
            path = u + tuple(star[x] for x in u[:-1])
            for x in path:
                moved = reflect(d, x)
                assert moved != d, "each letter begins a member word"
                d = moved
            assert len(path) == 2 * n - 1 and d == c


def test_cluster_moves_yields_each_class_once_with_its_moves():
    rs = root_system("D", 5)
    seed = _start(twisted_adapted_point("D", 5))
    order, reached = [], {seed}
    for c, moves in cluster_moves(seed):
        order.append(c)
        assert [i for i, _, _ in moves] == [i for i in rs.nodes if reflect(c, i) != c]
        for i, d, new in moves:
            assert d == reflect(c, i)
            assert new == (d not in reached)
            reached.add(d)
    assert order[0] == seed and len(order) == len(set(order))
    assert set(order) == reached == twisted_adapted_point("D", 5)


def _skipping_the_last_class(cluster_moves, moved_key):
    """Mutant BFS: never yields the last class it reaches."""
    return lambda cls: list(cluster_moves(cls))[:-1], moved_key


def _skipping_the_first_letter(cluster_moves, moved_key):
    """Mutant BFS: never moves by r_1."""
    return cluster_moves, lambda key, slots, i, i_star: (
        None if i == 1 else moved_key(key, slots, i, i_star)
    )


@pytest.mark.parametrize("mutant", [_skipping_the_last_class, _skipping_the_first_letter])
@pytest.mark.parametrize("cls", CLOSURE_STARTS)
def test_cluster_moves_mutants_fail_the_oracle(cls, mutant, monkeypatch):
    from arfold import words

    moves, key = mutant(words.cluster_moves, words.moved_key)
    monkeypatch.setattr(words, "cluster_moves", moves)
    monkeypatch.setattr(words, "moved_key", key)
    assert cluster_point(cls) != _two_sided_closure(cls)
