from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arfold.rootsys import root_system, trivial_automorphism
from arfold.words import (
    CapExceededError,
    _heap,
    _kahn,
    NotReducedError,
    adapted_point,
    cluster_point,
    commutation_class,
    coxeter_composition,
    edge_slots,
    is_foldable,
    moved_key,
    projection_key,
    reflect,
    root_sequence,
    twisted_adapted_point,
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
    assert cls.member_count() == 1


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
    assert cls.member_count() == len(closure)


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
    # the class is the single word (1,2,1): no member starts or ends with 2
    assert reflect(cls, 2, "right") == cls
    assert reflect(cls, 2, "left") == cls
    # it does start and end with 1, so both actions at 1 move it
    assert reflect(cls, 1, "right") != cls
    assert reflect(cls, 1, "left") != cls


def test_reflect_adapted_moves_to_reflected_quiver():
    from arfold.arquiver import DynkinQuiver, adapted_quiver_of, adapted_word

    rs = root_system("A", 4)
    q = DynkinQuiver(rs, frozenset({(2, 1), (2, 3), (3, 4)}))
    cls = commutation_class(rs, adapted_word(q))
    for i in (1, 4):  # sinks of q
        out = reflect(cls, i, "right")
        assert out != cls
        q2 = adapted_quiver_of(rs, out.canonical_word)
        assert q2 == q.reflect(i)


def test_reflect_round_trip_stays_in_cluster_point():
    rs = root_system("A", 3)
    cls = commutation_class(rs, (1, 2, 3, 1, 2, 1))
    point = cluster_point(cls)
    star = rs.star()
    for i in rs.nodes:
        d = reflect(cls, i, "right")
        assert d in point
        back = reflect(d, star[i], "left")
        assert back in point


def test_reflect_acts_within_point_and_inverts():
    # On the classes it moves, the right action at i is injective and is
    # undone by the left action at i*; images always stay in the point.
    for tt, rk in [("A", 3), ("D", 4)]:
        rs = root_system(tt, rk)
        star = rs.star()
        point = twisted_adapted_point(tt, rk)
        for i in rs.nodes:
            movers = {c for c in point if reflect(c, i, "right") != c}
            images = {c: reflect(c, i, "right") for c in movers}
            assert set(images.values()) <= point
            assert len(set(images.values())) == len(movers)
            for c, d in images.items():
                assert reflect(d, star[i], "left") == c


def test_reflect_refuses_letter_outside_nodes():
    cls = commutation_class(root_system("A", 3), (1, 2, 3, 1, 2, 1))
    for side in ("right", "left"):
        for i in (0, 4, 7):
            with pytest.raises(ValueError, match=f"letter {i} "):
                reflect(cls, i, side)


def _reflect_oracle(cls, i, side):
    """The reflection functor by definition, over every member word."""
    star = cls.rs.star()[i]
    if side == "right":
        moved = {w[1:] + (star,) for w in cls.members() if w[0] == i}
    else:
        moved = {(star,) + w[:-1] for w in cls.members() if w[-1] == i}
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
            for side in ("right", "left"):
                assert {reflect(cls, i, side)} == _reflect_oracle(cls, i, side)


def _moved_word(cls, i, side):
    """The word the reflection functor moves to, or None at a fixed point."""
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
            for side in ("right", "left"):
                moved = _moved_word(cls, i, side)
                if moved is None:
                    assert reflect(cls, i, side) == cls
                    continue
                moves += 1
                assert len(root_sequence(rs, moved)) == rs.num_positive
                assert reflect(cls, i, side) == commutation_class(rs, moved)
    assert moves


def test_heap_is_the_same_for_every_member_word():
    for tt, rk, word in [("A", 4, A4_EXAMPLE_WORD),
                         ("D", 4, root_system("D", 4).longest_word())]:
        rs = root_system(tt, rk)
        cls = commutation_class(rs, word)
        below = cls.below()
        letter = {r: cls.letter_of(r) for r in below}
        members = cls.members()
        assert len(members) > 1
        for w in members:
            assert _heap(rs, w) == (below, letter)


@pytest.mark.parametrize("tt, rk", [("A", 9), ("D", 7), ("E", 6)])
def test_above_is_the_transpose_of_below(tt, rk):
    for cls in twisted_adapted_point(tt, rk):
        transpose = [0] * cls.length
        for r, mask in cls.below().items():
            for r2 in range(cls.length):
                if mask >> r2 & 1:
                    transpose[r2] |= 1 << r
        assert cls.above() == transpose


def test_cluster_point_counts():
    assert len(adapted_point("A", 4)) == 8
    assert len(adapted_point("A", 5)) == 16
    assert len(twisted_adapted_point("A", 5)) == 16
    assert len(twisted_adapted_point("E", 6)) == 32


def test_twisted_point_size_formula():
    # 2^(|I| - |vee|) x |vee| with |vee| the order of the automorphism
    for tt, rk in [("A", 3), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]:
        rs = root_system(tt, rk)
        aut = rs.diagram_automorphism()
        point = twisted_adapted_point(tt, rk)
        assert len(point) == 2 ** (rs.rank - aut.order) * aut.order


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
    assert is_foldable(cluster_point(cls), trivial_automorphism(rs1))


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
        if not rs.is_positive(beta) or beta in seen:
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
              if rs.is_positive(rs.apply_word(word, rs.simple_root(i)))]
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
        assert _heap(rs, word) == _heap_oracle(rs, word)


@pytest.mark.parametrize("tt, rk, point", [
    ("A", 3, twisted_adapted_point), ("D", 4, twisted_adapted_point),
    ("A", 4, adapted_point),
])
def test_heap_equals_pairwise_oracle_on_every_member_word(tt, rk, point):
    rs = root_system(tt, rk)
    for cls in point(tt, rk):
        for w in cls.members():
            assert _heap(rs, w) == _heap_oracle(rs, w)


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
        roots = list(cls.below())
        for a in roots:
            for b in roots:
                expected = [r for r in roots if cls.precedes(a, b)
                            and cls.precedes(a, r) and cls.precedes(r, b)]
                assert cls.interval(a, b) == expected


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


def _unchecked_move(key, slots, i, i_star, side):
    """Mutant move: the letter it drops at each edge at i is first set to
    i, so the first/last-letter check never refuses."""
    out = list(key)
    for s, b in slots[i]:
        t = out[s].bit_length() - 2 if side == "right" else 0
        out[s] = out[s] & ~(1 << t) | b << t
    return moved_key(tuple(out), slots, i, i_star, side)


def _key_oracle_faults(point, key_of, move):
    """Disagreements of a class key and its move with ``reflect``, over
    every class of a point, every node and both sides."""
    faults = Counter()
    rs = next(iter(point)).rs
    slots, star = edge_slots(rs), rs.star()
    for cls in point:
        key = key_of(rs, cls.canonical_word)
        for i in rs.nodes:
            for side in ("right", "left"):
                got, d = move(key, slots, i, star[i], side), reflect(cls, i, side)
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
                    for side in ("right", "left"):
                        d = reflect(c, i, side)
                        if d not in seen:
                            seen.add(d)
                            new.append(d)
            frontier = new
        assert cluster_point(start) == seen
        assert _key_oracle_faults(seen, projection_key, moved_key) == {}
