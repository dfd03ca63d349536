from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

from arfold import twistfold, words
from arfold.rootsys import Folding, RootSystem, folding_from, root_system
from arfold.words import cluster_point, commutation_class, twisted_adapted_point
from arfold.arquiver import (
    ARQuiver,
    DynkinQuiver,
    all_quivers,
    arrows_by_step,
    hasse_quiver,
    read_reduced_words,
)
from arfold.twistfold import (
    FoldedQuiver,
    FoldingError,
    _assert_coords_shift_equal,
    fold,
    folded_reflection,
    folded_sinks,
    twist_from_d,
    twist_quiver_from_a,
    twisted_folded_quivers,
)

from oracles import _load_table, e6_folded_quiver, root_labels

A4 = root_system("A", 4)
EXAMPLE_Q = DynkinQuiver(A4, frozenset({(2, 1), (2, 3), (3, 4)}))

# the printed member of [Q>] misses one s_2 (14 letters); this is its
# unique one-letter completion up to commutation
PRINTED_GT_WORD_COMPLETED = (5, 3, 1, 4, 3, 2, 5, 3, 1, 4, 3, 2, 5, 3, 4)
PRINTED_GT_WORD_RAW = (5, 3, 1, 4, 3, 5, 3, 1, 4, 3, 2, 5, 3, 4)
PRINTED_LT_WORD = (5, 4, 1, 3, 2, 3, 5, 4, 1, 3, 2, 3, 5, 4, 3)


def rows_of(quiver):
    rows = {}
    for _, i, p2 in quiver.coords:
        rows.setdefault(i, set()).add(p2)
    return rows


def test_insertion_words_printed():
    cls_gt, _ = twist_quiver_from_a(EXAMPLE_Q, ">")
    cls_lt, _ = twist_quiver_from_a(EXAMPLE_Q, "<")
    assert cls_gt == commutation_class(cls_gt.rs, PRINTED_GT_WORD_COMPLETED)
    assert cls_lt == commutation_class(cls_lt.rs, PRINTED_LT_WORD)
    assert cls_gt != cls_lt


def test_printed_gt_word_has_unique_completion():
    """The 14-letter printed word completes uniquely into [Q>]."""
    rs5 = root_system("A", 5)
    cls_gt, _ = twist_quiver_from_a(EXAMPLE_Q, ">")
    completions = set()
    for pos in range(len(PRINTED_GT_WORD_RAW) + 1):
        for letter in rs5.nodes:
            w = (PRINTED_GT_WORD_RAW[:pos] + (letter,)
                 + PRINTED_GT_WORD_RAW[pos:])
            try:
                if commutation_class(rs5, w) == cls_gt:
                    completions.add(commutation_class(rs5, w))
            except Exception:
                continue
    assert completions == {cls_gt}


def test_insertion_quiver_printed_coordinates():
    _, qu_gt = twist_quiver_from_a(EXAMPLE_Q, ">")
    _, qu_lt = twist_quiver_from_a(EXAMPLE_Q, "<")
    assert rows_of(qu_gt) == {
        1: {-4, 0},
        2: {-6, -2},
        3: {-7, -5, -3, -1, 1},
        4: {-8, -4, 0},
        5: {-6, -2, 2},
    }
    assert rows_of(qu_lt)[3] == {-9, -7, -5, -3, -1}


def test_insertion_classes_distinct_per_quiver():
    seen = set()
    for q in all_quivers(A4):
        for side in (">", "<"):
            seen.add(twist_quiver_from_a(q, side)[0])
    assert len(seen) == 16
    assert seen == set(twisted_adapted_point("A", 5))


def test_doubling_printed_quivers():
    cls_n, qu_n = twist_from_d(EXAMPLE_Q, 4)
    cls_n1, qu_n1 = twist_from_d(EXAMPLE_Q, 5)
    assert cls_n != cls_n1
    rows_n = rows_of(qu_n)
    assert rows_n[1] == {-16, -12, -8, -4, 0}
    assert rows_n[2] == {-18, -14, -10, -6, -2}
    assert rows_n[3] == {-16, -12, -8, -4, 0}
    assert rows_n[4] == {-14, -6, 2}
    assert rows_n[5] == {-10, -2}
    rows_n1 = rows_of(qu_n1)
    assert rows_n1[4] == {-10, -2}
    assert rows_n1[5] == {-14, -6, 2}


def test_doubling_classes_cover_point():
    seen = set()
    for q in all_quivers(A4):
        for choice in (4, 5):
            cls, _ = twist_from_d(q, choice)
            seen.add(cls)
    assert len(seen) == 16
    assert seen == set(twisted_adapted_point("D", 5))


def test_constructed_quivers_realize_their_classes():
    """Readings of the construction equal commutation classes; arrows
    equal the cover relations of the convex order."""
    rs2 = root_system("A", 2)
    for q in all_quivers(rs2):
        cls, quiver = twist_quiver_from_a(q, ">")
        assert set(read_reduced_words(quiver)) == set(cls.members())
        hasse_quiver(cls, quiver)  # raises on arrow mismatch
    rs3 = root_system("A", 3)
    for q in all_quivers(rs3)[:2]:
        cls, quiver = twist_from_d(q, 3)
        assert set(read_reduced_words(quiver)) == set(cls.members())
        hasse_quiver(cls, quiver)


def test_hasse_agreement_all_twisted_quivers():
    for tt, rk in [("A", 3), ("A", 5), ("D", 4), ("D", 5)]:
        for cls, fq in twisted_folded_quivers(tt, rk).items():
            hasse_quiver(cls, fq.unfolded())


def test_fold_injective_all_a5_classes():
    for cls, fq in twisted_folded_quivers("A", 5).items():
        assert len(set(fq.cells)) == len(fq.cells) == 15


def test_fold_printed_folded_positions():
    cls, qu = twist_quiver_from_a(EXAMPLE_Q, ">")
    fq = fold(qu, cls)
    rows = {}
    for i, p in fq.cells:
        rows.setdefault(i, set()).add(p)
    assert rows == {
        1: {-6, -4, -2, 0, 2},
        2: {-8, -6, -4, -2, 0},
        3: {-7, -5, -3, -1, 1},
    }


def test_fold_printed_d5():
    cls, qu = twist_from_d(EXAMPLE_Q, 4)
    fq = fold(qu, cls)
    rows = {}
    for i, p in fq.cells:
        rows.setdefault(i, set()).add(p)
    assert rows[4] == {-7, -5, -3, -1, 1}  # fork rows merge
    assert rows[1] == {-8, -6, -4, -2, 0}


def test_fold_rejects_non_twisted():
    from arfold.arquiver import adapted_word, gamma_q

    q5 = all_quivers(root_system("A", 5))[0]
    g = gamma_q(q5)
    cls = commutation_class(root_system("A", 5), adapted_word(q5))
    with pytest.raises(FoldingError):
        fold(g, cls)  # adapted quiver of odd A folds with collisions


# ---------------------------------------------------------------------------
# E_6 fixtures


def test_e6_folded_fixture_table():
    rs = root_system("E", 6)
    fq = e6_folded_quiver()
    assert len(fq.cells) == 36
    labels = root_labels(fq)
    assert labels[(1, 4)] == (0, 0, 1, 1, 1, 0)
    assert labels[(1, 20)] == (1, 0, 0, 0, 0, 0)
    assert labels[(3, 1)] == (0, 0, 1, 0, 0, 0)
    assert labels[(4, 18)] == (0, 0, 0, 0, 0, 1)


def _e6_unfolded_step(i, j):
    """Doubled step between adjacent E_6 residues: the orbit symmetrizer."""
    folding = folding_from("E", 6)
    d, label = folding.symmetrizer, folding.automorphism.orbit_label
    return 2 * min(d[label[i]], d[label[j]])


@lru_cache(maxsize=None)
def _e6_unfolded_quiver():
    """The printed unfolded companion table, stored as an ARQuiver."""
    rs = root_system("E", 6)
    rows = _load_table("e6_unfolded.txt")
    coords = {rs.root_index[root]: (res, 2 * pos) for res, pos, root in rows}
    arrows = arrows_by_step(coords, rs.adjacent, _e6_unfolded_step)
    return ARQuiver(rs, tuple(sorted((r, i, p) for r, (i, p) in coords.items())), arrows)


def test_e6_unfolded_reading_consistency():
    rs = root_system("E", 6)
    uq = _e6_unfolded_quiver()
    from arfold.arquiver import read_root_labels

    cells = [(i, p2) for _, i, p2 in uq.coords]
    word, labelled = read_root_labels(rs, cells, _e6_unfolded_step)
    assert labelled == uq
    base = folding_from("E", 6).twisted_longest_word()
    assert commutation_class(rs, word) == commutation_class(rs, base)


def test_e6_fold_of_unfolded_is_folded_fixture():
    rs = root_system("E", 6)
    cls = commutation_class(rs, folding_from("E", 6).twisted_longest_word())
    ff = fold(_e6_unfolded_quiver(), cls)
    fq = e6_folded_quiver()
    assert ff.cells == fq.cells
    assert fq.arrows() == ff.arrows() == _e6_unfolded_quiver().arrows


def test_e6_folded_reflection_r1_printed():
    rs = root_system("E", 6)
    fq = e6_folded_quiver()
    r1 = folded_reflection(fq, 1)
    want = {(res, pos): root for res, pos, root in _load_table("e6_folded_r1.txt")}
    got = {(res, pos): rs.positive_roots[r] for r, (res, pos) in enumerate(r1.cells)}
    assert got == want
    # the moved vertex keeps its label and lands 18 to the left
    assert got[(1, 2)] == rs.simple_root(1)


SINK_SOURCES = (
    [("A", r) for r in (5, 7, 9, 11)] + [("D", r) for r in (5, 6, 7, 8)] + [("E", 6)]
)


def _arrow_sinks(fq):
    """The folded sinks by definition: alpha_i has no out-arrow."""
    tails = {a for a, _ in fq.arrows()}
    return [i for i in fq.rs.nodes if fq.rs.simple_root_index[i] not in tails]


def _patch_walk_sinks(monkeypatch, change):
    """Make every read of a quiver's sinks through `folded_sinks`, the
    walk's included, return ``change(sinks, rs)`` of the true sinks."""
    real = twistfold.folded_sinks
    monkeypatch.setattr(twistfold, "folded_sinks", lambda fq: change(real(fq), fq.rs))


@pytest.mark.parametrize("source", SINK_SOURCES, ids=lambda s: f"{s[0]}{s[1]}")
def test_folded_sinks_equal_the_arrow_oracle(source, monkeypatch):
    # the sinks of every class, as a fresh walk read them, once per class
    # in the point's order, and as `folded_sinks` reads them
    seen = []
    _patch_walk_sinks(monkeypatch, lambda sinks, rs: seen.append(sinks) or sinks)
    point = twisted_folded_quivers.__wrapped__(*source)
    want = [_arrow_sinks(fq) for fq in point.values()]
    assert seen == want
    assert [folded_sinks(fq) for fq in point.values()] == want


def test_a_sink_test_with_the_wrong_step_fails_the_oracle(monkeypatch, recompiled):
    # the step rule of the sinks lives in the folding's ``steps``, which
    # every quiver reads when it is made: with it broken, the quivers made
    # on a folding disagree with the arrows, and the walk refuses them
    points = {source: twisted_folded_quivers(*source) for source in (("A", 5), ("D", 5))}
    mutant = recompiled(Folding.__post_init__, "min(d[res], d[j])", "max(d[res], d[j])")
    monkeypatch.setattr(Folding, "__post_init__", mutant)
    for source, point in points.items():
        folding = folding_from(*source)
        assert any(
            folded_sinks(replace(fq, folding=folding)) != _arrow_sinks(fq)
            for fq in point.values()
        )
        with pytest.raises(FoldingError):
            twisted_folded_quivers.__wrapped__(*source)


def test_colliding_cells_are_refused():
    # every way to build a folded quiver passes the one collision check
    fq = e6_folded_quiver()
    cells = list(fq.cells)
    cells[1] = cells[0]
    with pytest.raises(FoldingError, match="coordinates collide"):
        replace(fq, cells=tuple(cells))
    with pytest.raises(FoldingError, match="coordinates collide"):
        FoldedQuiver(fq.rs, tuple(cells), fq.source_class, fq.folding)


def test_e6_reflection_requires_sink():
    fq = e6_folded_quiver()
    sinks = folded_sinks(fq)
    assert 1 in sinks and 5 in sinks and 6 in sinks
    assert 3 not in sinks
    with pytest.raises(FoldingError):
        folded_reflection(fq, 3)


def test_e6_reflection_stays_in_cluster_point():
    fq = e6_folded_quiver()
    point = twisted_adapted_point("E", 6)
    r1 = folded_reflection(fq, 1)
    assert r1.source_class in point
    assert r1.source_class != fq.source_class


def test_e6_reflection_preserves_labels_up_to_s1():
    rs = root_system("E", 6)
    fq = e6_folded_quiver()
    r1 = folded_reflection(fq, 1)
    before = list(range(len(fq.cells)))
    after = list(range(len(r1.cells)))
    image = [
        r if rs.positive_roots[r] == rs.simple_root(1)
        else rs.root_index[rs.reflect(rs.positive_roots[r], 1)]
        for r in before
    ]
    assert after == sorted(image) == before  # same multiset: a permutation
    # every other vertex keeps its cell and takes the s_1-reflected label
    r_1 = rs.simple_root_index[1]
    assert all(r1.cells[image[r]] == fq.cells[r] for r in before if r != r_1)


def test_e6_transport_reaches_all_classes():
    by_class = twisted_folded_quivers("E", 6)
    assert len(by_class) == 32
    assert set(by_class) == set(twisted_adapted_point("E", 6))
    for cls, fq in by_class.items():
        assert len(set(fq.cells)) == len(fq.cells) == 36


def test_e6_hasse_agreement_all_classes():
    for cls, fq in twisted_folded_quivers("E", 6).items():
        hasse_quiver(cls, fq.unfolded())


@pytest.mark.parametrize("letter", [0, 9])
def test_folded_reflection_rejects_letter_outside_diagram(letter):
    with pytest.raises(ValueError, match=f"letter {letter} outside"):
        folded_reflection(e6_folded_quiver(), letter)


# ---------------------------------------------------------------------------
# the seeded folded quivers against the printed constructions

FOLDING_SOURCES = (
    [("A", r) for r in (3, 5, 7, 9)] + [("D", r) for r in (4, 5, 6, 7)] + [("E", 6)]
)


def _seed_class(type_tag, rank):
    word = folding_from(type_tag, rank).twisted_longest_word()
    return commutation_class(root_system(type_tag, rank), word)


@pytest.mark.parametrize("source", FOLDING_SOURCES, ids=lambda s: f"{s[0]}{s[1]}")
def test_folded_quivers_cover_the_twisted_point(source):
    # the walk against the plain cluster point of the seed class
    assert set(twisted_folded_quivers(*source)) == cluster_point(_seed_class(*source))
    assert twisted_adapted_point(*source) == cluster_point(_seed_class(*source))


@pytest.mark.parametrize(
    "source", [("A", 3), ("A", 5), ("A", 7), ("D", 4), ("D", 5), ("D", 6)],
    ids=lambda s: f"{s[0]}{s[1]}",
)
def test_folded_quivers_equal_folded_constructions_up_to_shift(source):
    tt, rk = source
    quivers = all_quivers(root_system("A", rk - 1))
    if tt == "A":
        built = [twist_quiver_from_a(q, side) for q in quivers for side in (">", "<")]
    else:
        built = [twist_from_d(q, choice) for q in quivers for choice in (rk - 1, rk)]
    fqs = twisted_folded_quivers(tt, rk)
    assert set(fqs) == {cls for cls, _ in built}
    seed = _seed_class(tt, rk)
    for cls, quiver in built:
        ref = fold(quiver, cls)
        _assert_coords_shift_equal(ref.cells, fqs[cls].cells)  # residues, one shift
        assert fqs[cls].arrows() == quiver.arrows  # the construction's own arrows
        (shift,) = {q - p for (_, p), (_, q) in zip(ref.cells, fqs[cls].cells)}
        assert shift == 0 or cls != seed


def test_e6_seed_is_the_printed_table_shifted():
    seed = twisted_folded_quivers("E", 6)[_seed_class("E", 6)]
    moved = tuple((i, p + 20) for i, p in seed.cells)
    assert replace(seed, cells=moved) == e6_folded_quiver()


@pytest.mark.parametrize(
    "source",
    [("A", 5), ("A", 7), ("A", 9), ("D", 5), ("D", 6), ("D", 7), ("E", 6)],
    ids=lambda s: f"{s[0]}{s[1]}",
)
def test_recorded_bfs_edges_replay(source):
    point = twisted_folded_quivers(*source)
    order = {cls: k for k, cls in enumerate(point)}
    seed, *rest = point
    assert seed.parent is None and seed == _seed_class(*source)
    for cls in rest:
        up, i = cls.parent
        assert order[up] < order[cls]
        parent, fq = point[up], point[cls]
        assert parent.source_class is up and fq.source_class is cls
        replay = folded_reflection(parent, i)
        assert replay.cells == fq.cells
        assert replay.arrows() == fq.arrows()
        assert replay.source_class == fq.source_class


@pytest.mark.parametrize(
    "source, kahn",
    # the seed's, plus one per move of E6 at i = 6 past its jumper 5
    [pytest.param(("A", 9), 1, id="A9"), pytest.param(("D", 7), 1, id="D7"),
     pytest.param(("E", 6), 1 + 10, id="E6")],
)
def test_bfs_canonicalises_each_class_once(source, kahn, monkeypatch):
    # a class reached again is told apart by its projection key alone:
    # no canonical word, heap or arrows are built for it; a new class
    # runs `_kahn` only past a jumper; and the twisted point is the folded
    # quivers' walk, not a second one
    guarded = 0
    for c, moves in words.cluster_moves(_seed_class(*source)):
        for i, _, new in moves:
            w = c.canonical_word
            guarded += new and not c.rs.jumpers.get(i, set()).isdisjoint(w[:w.index(i)])
    assert kahn == 1 + guarded
    calls = Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(words, "_kahn", counted("_kahn", words._kahn))
    monkeypatch.setattr(
        FoldedQuiver, "__post_init__", counted("FoldedQuiver", FoldedQuiver.__post_init__)
    )
    point = cluster_point(_seed_class(*source))
    assert calls == {"_kahn": kahn}
    calls.clear()
    # the folded quivers' memo, here a cold one, is the twisted point's only one
    assert not hasattr(twisted_adapted_point, "cache_info")
    cold = lru_cache(maxsize=None)(twisted_folded_quivers.__wrapped__)
    monkeypatch.setattr(twistfold, "twisted_folded_quivers", cold)
    assert twisted_adapted_point(*source) == point
    fqs = cold(*source)
    assert calls == {"_kahn": kahn, "FoldedQuiver": len(point)} and set(fqs) == point


@pytest.mark.parametrize("suite", ["socle-dist A7", "dorey B4"])
def test_root_sequence_runs_once_per_point(suite, monkeypatch):
    # with cold caches a suite reads one root sequence per point, the
    # seed's: every other class reads its roots off its parent's
    from arfold import affine, arquiver, cli

    cold = lru_cache(maxsize=None)(twisted_folded_quivers.__wrapped__)
    for module in (twistfold, affine, cli):
        monkeypatch.setattr(module, "twisted_folded_quivers", cold)
    calls = []
    real = words.root_sequence
    for module in (words, arquiver):
        monkeypatch.setattr(module, "root_sequence", lambda *args: calls.append(args) or real(*args))
    if suite == "dorey B4":
        assert affine.verify_dorey("B", 4).ok
    else:
        assert cli.verify_socle_dist("A", 7).ok
    assert cold.cache_info().currsize == 1 and len(calls) == 1


@pytest.mark.parametrize("source", [("D", 5), ("A", 7)], ids=lambda s: f"{s[0]}{s[1]}")
def test_revisit_check_catches_broken_reflection(source, monkeypatch):
    # break s_1: swap the images of the two highest roots other than alpha_1
    reflection_permutation = RootSystem.reflection_permutation

    def broken(self, i):
        perm = list(reflection_permutation(self, i))
        if i == 1:
            r_1 = self.simple_root_index[1]
            a, b = [r for r in range(self.num_positive) if r != r_1][-2:]
            perm[a], perm[b] = perm[b], perm[a]
        return tuple(perm)

    monkeypatch.setattr(RootSystem, "reflection_permutation", broken)
    with pytest.raises(AssertionError, match="same class, incompatible folded quivers"):
        twisted_folded_quivers.__wrapped__(*source)


@pytest.mark.parametrize("source", [("A", 7), ("D", 6)], ids=lambda s: f"{s[0]}{s[1]}")
def test_revisit_check_catches_one_cell_off_after_a_shift(source, monkeypatch):
    # on a revisit whose reflected cells sit 4 to the left of the stored
    # ones, move one cell other than the first by one: the check compares
    # the shifted cells one by one, so it must refuse
    check = twistfold._assert_coords_shift_equal
    perturbed = []

    def perturbing(stored, moved):
        if moved[0][1] - stored[0][1] == -4:
            res, pos = moved[-1]
            moved = (*moved[:-1], (res, pos + 1))
            perturbed.append(moved)
        return check(stored, moved)

    monkeypatch.setattr(twistfold, "_assert_coords_shift_equal", perturbing)
    with pytest.raises(AssertionError, match="same class, incompatible folded quivers"):
        twisted_folded_quivers.__wrapped__(*source)
    assert len(perturbed) == 1


def test_bfs_refuses_a_sink_whose_class_does_not_move(monkeypatch):
    # offer the non-sinks as sinks: no member of their class starts with s_i
    _patch_walk_sinks(monkeypatch, lambda sinks, rs: [i for i in rs.nodes if i not in sinks])
    with pytest.raises(FoldingError, match="no member starting with s_"):
        twisted_folded_quivers.__wrapped__("D", 5)


def test_bfs_refuses_a_moving_letter_that_is_not_a_folded_sink(monkeypatch):
    # hide the first sink: its class still moves by r_i
    _patch_walk_sinks(monkeypatch, lambda sinks, rs: sinks[1:])
    with pytest.raises(FoldingError, match="moves the class but alpha_.* is not a folded sink"):
        twisted_folded_quivers.__wrapped__("D", 5)


def test_a_class_under_a_second_key_is_refused(monkeypatch):
    # a move that never gives an old key again: without the guard the one
    # BFS would run on for ever, bare or building the folded quivers
    moved_key = words.moved_key

    def growing(key, *args):
        k = moved_key(key, *args)
        return None if k is None else k + (len(key),)

    monkeypatch.setattr(words, "moved_key", growing)
    with pytest.raises(AssertionError, match="one class under two projection keys"):
        cluster_point(_seed_class("D", 5))
    with pytest.raises(AssertionError, match="one class under two projection keys"):
        twisted_folded_quivers.__wrapped__("D", 5)
