import pytest

from arfold.rootsys import (
    MAX_RANK,
    FoldingError,
    RootSystem,
    UnsupportedTypeError,
    folding_from,
    folding_to,
    root_system,
)
from arfold.words import commutation_class, root_sequence

from oracles import is_positive


def interval_root(rs, a, b):
    return tuple(1 if a <= i + 1 <= b else 0 for i in range(rs.rank))


def root_system_faults(rs) -> list[str]:
    """What the definitions say of rs and it does not hold: the positive
    roots are the reflection closure of the simple roots, of the known
    count; the longest word takes at each step the least letter that
    lengthens the prefix, read by `apply_word`, until none does; and
    w_0(alpha_i) = -alpha_{i*}."""
    faults = []
    simple = {rs.simple_root(i) for i in rs.nodes}
    closure, frontier = set(simple), set(simple)
    while frontier:
        frontier = {
            s for r in frontier for i in rs.nodes
            if is_positive(s := rs.reflect(r, i)) and s not in closure
        }
        closure |= frontier
    if rs.positive_roots != tuple(sorted(closure, key=lambda r: (sum(r), r))):
        faults.append("roots")
    n = rs.rank
    if rs.num_positive != {"A": n * (n + 1) // 2, "D": n * (n - 1), "E": 36}[rs.type_tag]:
        faults.append("count")
    w0, prefix = rs.longest_word(), []
    while True:
        lengthening = [
            i for i in rs.nodes if is_positive(rs.apply_word(prefix, rs.simple_root(i)))
        ]
        if not lengthening:
            break
        prefix.append(lengthening[0])
    if tuple(prefix) != w0:
        faults.append("longest_word")
    for i in rs.nodes:
        if rs.apply_word(w0, rs.simple_root(i)) != tuple(-c for c in rs.simple_root(rs.star()[i])):
            faults.append(f"star {i}")
    return faults


ORACLE_SYSTEMS = [("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 11)] + [("E", 6)]


@pytest.mark.parametrize("source", ORACLE_SYSTEMS, ids=lambda s: f"{s[0]}{s[1]}")
def test_root_system_equals_its_definitions(source):
    assert root_system_faults(RootSystem(*source)) == []


def test_largest_lengthening_letter_fails_the_longest_word_oracle(monkeypatch, recompiled):
    monkeypatch.setattr(RootSystem, "_walk_longest_element", recompiled(
        RootSystem._walk_longest_element,
        "for i in self.nodes if max(images[i]) > 0",
        "for i in reversed(self.nodes) if max(images[i]) > 0",
    ))
    faults = {source: root_system_faults(RootSystem(*source)) for source in ORACLE_SYSTEMS}
    assert faults.pop(("A", 1)) == []  # one letter: least and largest agree
    assert all(f == ["longest_word"] for f in faults.values()), faults


def test_positive_root_counts():
    assert root_system("A", 4).num_positive == 10
    assert root_system("A", 1).num_positive == 1
    assert root_system("D", 4).num_positive == 12
    assert root_system("D", 5).num_positive == 20
    assert root_system("E", 6).num_positive == 36
    for n in range(1, 8):
        assert root_system("A", n).num_positive == n * (n + 1) // 2


def test_a4_roots_are_intervals():
    rs = root_system("A", 4)
    expected = {interval_root(rs, a, b) for a in range(1, 5) for b in range(a, 5)}
    assert set(rs.positive_roots) == expected


def test_roots_unique_and_closed_under_reflection():
    rs = root_system("D", 4)
    assert len(set(rs.positive_roots)) == rs.num_positive
    for beta in rs.positive_roots:
        for i in rs.nodes:
            img = rs.reflect(beta, i)
            neg = tuple(-c for c in img)
            assert img in rs.root_index or neg in rs.root_index


def test_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        root_system("A", 0)
    with pytest.raises(UnsupportedTypeError):
        root_system("D", 3)
    with pytest.raises(UnsupportedTypeError):
        root_system("E", 7)
    with pytest.raises(UnsupportedTypeError):
        root_system("B", 3)
    with pytest.raises(UnsupportedTypeError, match="rank"):
        root_system("A", 10**9)
    with pytest.raises(UnsupportedTypeError, match="rank"):
        root_system("A", "3")


def test_star_involution_values():
    assert root_system("A", 4).star() == {1: 4, 2: 3, 3: 2, 4: 1}
    assert root_system("A", 1).star() == {1: 1}
    assert root_system("D", 4).star() == {i: i for i in range(1, 5)}
    # -1 is not in W(D_5): the fork nodes swap
    assert root_system("D", 5).star() == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert root_system("E", 6).star() == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


def test_star_is_involution_and_permutes_roots():
    for tt, rk in [("A", 5), ("D", 5), ("E", 6)]:
        rs = root_system(tt, rk)
        star = rs.star()
        assert all(star[star[i]] == i for i in rs.nodes)
        w0 = rs.longest_word()
        for beta in rs.positive_roots:
            img = tuple(-c for c in rs.apply_word(w0, beta))
            assert img in rs.root_index


def test_diagram_automorphism_printed_cases():
    a5 = root_system("A", 5).diagram_automorphism()
    assert a5.perm == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert set(a5.orbit_label.values()) == {1, 2, 3}

    d5 = root_system("D", 5).diagram_automorphism()
    assert d5.perm == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert d5.orbit_label == {1: 1, 2: 2, 3: 3, 4: 4, 5: 4}

    e6 = root_system("E", 6).diagram_automorphism()
    assert e6.perm == {1: 5, 5: 1, 2: 4, 4: 2, 3: 3, 6: 6}
    assert e6.orbit_label == {1: 1, 5: 1, 2: 2, 4: 2, 3: 3, 6: 4}


FOLDING_TARGETS = (
    [("B", n) for n in range(2, 9)] + [("C", n) for n in range(3, 9)] + [("F", 4)]
)


def test_automorphism_preserves_cartan_matrix():
    foldings = [folding_to(*target) for target in FOLDING_TARGETS]
    for rs, aut in [
        (root_system("A", 5), root_system("A", 5).diagram_automorphism()),
        (root_system("D", 5), root_system("D", 5).diagram_automorphism()),
        (root_system("E", 6), root_system("E", 6).diagram_automorphism()),
        *((root_system(*f.source), f.automorphism) for f in foldings),
    ]:
        for i in rs.nodes:
            for j in rs.nodes:
                assert rs.cartan[i][j] == rs.cartan[aut.perm[i]][aut.perm[j]]
    # every folding record folds its source onto the target's nodes 1..n,
    # one Coxeter-word letter per orbit
    for f in foldings:
        nodes, label = list(range(1, f.target[1] + 1)), f.automorphism.orbit_label
        assert sorted(set(label.values())) == nodes
        assert sorted(label[i] for i in f.twisted_coxeter_word) == nodes
        assert len(f.twisted_longest_word()) == root_system(*f.source).num_positive


@pytest.mark.parametrize(
    "source",
    [("A", r) for r in range(3, 16, 2)] + [("D", r) for r in range(4, 10)] + [("E", 6)],
    ids=lambda s: f"{s[0]}{s[1]}",
)
def test_diagram_automorphism_is_the_folding_record(source):
    assert root_system(*source).diagram_automorphism() == folding_from(*source).automorphism


def test_no_printed_automorphism_for_even_a():
    with pytest.raises(UnsupportedTypeError):
        root_system("A", 4).diagram_automorphism()


FOLDING_SOURCES = (
    [("A", r) for r in (3, 5, 7, 9)] + [("D", r) for r in (4, 5, 6, 7)] + [("E", 6)]
)


@pytest.mark.parametrize("source", FOLDING_SOURCES, ids=lambda s: f"{s[0]}{s[1]}")
def test_folding_twisted_word_is_reduced_with_h_dual_repetitions(source):
    folding = folding_from(*source)
    assert folding.source == source
    assert folding_to(*folding.target) == folding
    rs = root_system(*source)
    aut = rs.diagram_automorphism()
    coxeter = folding.twisted_coxeter_word
    # one letter per orbit, and the symmetrizer is keyed by orbit label
    labels = sorted(set(aut.orbit_label.values()))
    assert sorted(aut.orbit_label[i] for i in coxeter) == labels
    assert set(folding.symmetrizer) == set(labels)
    word = folding.twisted_longest_word()
    assert len(word) == folding.h_dual * len(coxeter) == rs.num_positive
    assert len(root_sequence(rs, word)) == rs.num_positive  # reduced
    for k in range(folding.h_dual):
        block = word[k * len(coxeter):(k + 1) * len(coxeter)]
        assert block == tuple(aut.perm[i] if k % 2 else i for i in coxeter)


def test_folding_printed_values():
    assert folding_to("B", 3).h_dual == 5
    assert folding_to("C", 3).h_dual == 4
    assert folding_to("F", 4).h_dual == 9
    assert folding_to("B", 3).symmetrizer == {1: 2, 2: 2, 3: 1}
    assert folding_to("C", 4).symmetrizer == {1: 1, 2: 1, 3: 1, 4: 2}
    assert folding_to("F", 4).twisted_coxeter_word == (1, 2, 6, 3)
    assert [folding_to(*t).sign_convention for t in (("B", 2), ("C", 3), ("F", 4))] == [
        "A", "D", "D"
    ]


@pytest.mark.parametrize("source", [("A", 1), ("A", 2), ("A", 4), ("E", 7), ("G", 2)])
def test_no_folding_from(source):
    with pytest.raises(FoldingError):
        folding_from(*source)


# B_17 and C_32 fold from A_33 and D_33, beyond MAX_RANK
@pytest.mark.parametrize("target", [("B", 1), ("C", 2), ("F", 5), ("G", 2), ("B", 17), ("C", 32)])
def test_no_folding_to(target):
    with pytest.raises(FoldingError):
        folding_to(*target)


@pytest.mark.parametrize("source", [("A", r) for r in range(3, 8)]
                         + [("D", r) for r in (4, 5, 6)] + [("E", 6)],
                         ids=lambda s: f"{s[0]}{s[1]}")
def test_summing_pairs_by_definition(source):
    rs = root_system(*source)
    roots = rs.positive_roots
    for g, gv in enumerate(roots):
        want = [
            (a, b)
            for a in range(len(roots))
            for b in range(len(roots))
            if a < b and tuple(x + y for x, y in zip(roots[a], roots[b])) == gv
        ]
        assert list(rs.summing_pairs(g)) == want


def test_root_system_equality_is_by_type_and_rank():
    w = (1, 2, 1, 3, 2, 1)
    assert RootSystem("A", 3) == root_system("A", 3)
    assert hash(RootSystem("A", 3)) == hash(root_system("A", 3))
    assert RootSystem("A", 3) != root_system("A", 4)
    assert commutation_class(RootSystem("A", 3), w) == commutation_class(root_system("A", 3), w)


def _jumpers_by_definition(rs):
    """{i: letters a with a_ai = 0 and a_aj = 0 for a neighbour j of i,
    j < a < i}, read off the Cartan matrix, nodes without any left out."""
    c, out = rs.cartan, {}
    for i in rs.nodes:
        at = {a for j in rs.nodes if c[i][j] == -1
              for a in rs.nodes if j < a < i and c[a][i] == 0 and c[a][j] == 0}
        if at:
            out[i] = at
    return out


def test_jumpers_are_none_in_a_and_d_and_5_for_6_in_e6():
    for tt, low in (("A", 1), ("D", 4)):
        for rk in range(low, MAX_RANK + 1):
            rs = RootSystem(tt, rk)
            assert rs.jumpers == {} == _jumpers_by_definition(rs), rs
    e6 = root_system("E", 6)
    assert e6.jumpers == {6: {5}} == _jumpers_by_definition(e6)


@pytest.mark.parametrize("tt, rk", [("A", 9), ("D", 7), ("E", 6)])
def test_reflection_permutation_is_s_i_on_root_indices(tt, rk):
    rs = root_system(tt, rk)
    for i in rs.nodes:
        perm = rs.reflection_permutation(i)
        r_i = rs.simple_root_index[i]
        assert perm[r_i] == r_i
        assert sorted(perm) == list(range(rs.num_positive))
        for r, root in enumerate(rs.positive_roots):
            if r != r_i:
                assert perm[r] == rs.root_index[rs.reflect(root, i)]
        assert rs.reflection_permutation(i) is perm  # built once
