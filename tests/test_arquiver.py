import pytest

from arfold import arquiver
from arfold.rootsys import root_system
from arfold.words import CapExceededError, NotReducedError, commutation_class, root_sequence
from arfold.arquiver import (
    ARQuiver,
    DynkinQuiver,
    adapted_quiver_of,
    adapted_word,
    all_quivers,
    arrows_by_step,
    covers,
    gamma_q,
    hasse_quiver,
    read_reduced_words,
    read_root_labels,
)

from oracles import coxeter_element_of, is_positive, length

A4 = root_system("A", 4)
EXAMPLE_Q = DynkinQuiver(A4, frozenset({(2, 1), (2, 3), (3, 4)}))
A4_WORD = (4, 1, 3, 2, 4, 1, 3, 2, 4, 3)


def interval(rs, a, b):
    return tuple(1 if a <= i + 1 <= b else 0 for i in range(rs.rank))


def test_all_quivers_count():
    assert len(all_quivers(A4)) == 8
    assert len(all_quivers(root_system("A", 5))) == 16
    assert len(all_quivers(root_system("D", 4))) == 8


def test_quiver_validation():
    with pytest.raises(ValueError):
        DynkinQuiver(A4, frozenset({(1, 2), (2, 3)}))  # missing an edge


def test_coxeter_element_sink_convention():
    rs2 = root_system("A", 2)
    q = DynkinQuiver(rs2, frozenset({(1, 2)}))  # 1 -> 2, sink 2
    assert coxeter_element_of(q) == (2, 1)
    assert coxeter_element_of(q.reflect(2)) == (1, 2)


def test_coxeter_element_example_quiver():
    from arfold.arquiver import is_adapted

    word = coxeter_element_of(EXAMPLE_Q)
    assert sorted(word) == [1, 2, 3, 4]
    assert is_adapted(word, EXAMPLE_Q)


def test_adapted_quiver_of():
    assert adapted_quiver_of(A4, A4_WORD) == EXAMPLE_Q
    # in A_2 both classes are adapted; (1,2,1) goes with the quiver 2 -> 1
    rs2 = root_system("A", 2)
    q2 = adapted_quiver_of(rs2, (1, 2, 1))
    assert q2 is not None and q2.orientation == frozenset({(2, 1)})
    # a twisted adapted class of A_3 is adapted to no quiver
    rs3 = root_system("A", 3)
    assert adapted_quiver_of(rs3, (1, 2, 3, 2, 1, 2)) is None
    # one commutation move leaves the quiver unchanged
    w2 = (4, 1, 3, 2, 4, 3, 1, 2, 4, 3)
    assert adapted_quiver_of(A4, w2) == EXAMPLE_Q


def test_adapted_class_count_a3():
    from arfold.words import adapted_point, twisted_adapted_point

    adapted = adapted_point("A", 3)
    twisted = twisted_adapted_point("A", 3)
    assert len(adapted) == 4 and len(twisted) == 4
    assert not (adapted & twisted)
    for cls in adapted:
        assert adapted_quiver_of(root_system("A", 3), cls.canonical_word)
    for cls in twisted:
        assert adapted_quiver_of(root_system("A", 3), cls.canonical_word) is None


def test_gamma_q_printed_coordinates():
    g = gamma_q(EXAMPLE_Q)
    got = {A4.positive_roots[r]: (i, p2) for r, i, p2 in g.coords}
    expected = {
        interval(A4, 1, 1): (1, 0),
        interval(A4, 2, 4): (1, -4),
        interval(A4, 1, 4): (2, -2),
        interval(A4, 2, 3): (2, -6),
        interval(A4, 3, 4): (3, 0),
        interval(A4, 1, 3): (3, -4),
        interval(A4, 2, 2): (3, -8),
        interval(A4, 3, 3): (4, -2),
        interval(A4, 1, 2): (4, -6),
        interval(A4, 4, 4): (4, 2),
    }
    assert got == expected  # positions doubled: (i, p) printed as (i, p2/2)


def test_gamma_q_a2_mirror():
    rs2 = root_system("A", 2)
    q = DynkinQuiver(rs2, frozenset({(1, 2)}))
    qop = q.reflect(2)
    g, gop = gamma_q(q), gamma_q(qop)
    assert len(g.coords) == len(gop.coords) == 3

    def normalized(cells):
        lo = min(p for _, p in cells)
        return {(i, p - lo) for i, p in cells}

    mirrored = normalized({(3 - i, -p2) for _, i, p2 in g.coords})
    assert normalized({(i, p2) for _, i, p2 in gop.coords}) == mirrored


def test_read_reduced_words_contains_printed_word():
    g = gamma_q(EXAMPLE_Q)
    words = read_reduced_words(g)
    assert A4_WORD in words


def test_read_reduced_words_equals_commutation_class():
    for rs in (A4, root_system("A", 5)):
        for q in all_quivers(rs):
            g = gamma_q(q)
            words = set(read_reduced_words(g))
            cls = commutation_class(rs, adapted_word(q))
            assert words == set(cls.members())


def test_read_reduced_words_refuses_past_its_cap():
    g = gamma_q(EXAMPLE_Q)
    count = len(read_reduced_words(g))
    assert len(read_reduced_words(g, cap=count)) == count
    with pytest.raises(CapExceededError, match=f"exceed cap {count - 1}"):
        read_reduced_words(g, cap=count - 1)


def test_read_single_vertex():
    rs1 = root_system("A", 1)
    q = DynkinQuiver(rs1, frozenset())
    assert read_reduced_words(gamma_q(q)) == [(1,)]


def translation_oracle(q):
    """Gamma_Q by the Coxeter translation phi_Q: the roots of the Coxeter
    word adapted to Q at (i, 2 xi(i)), and phi_Q moving a root one step,
    4 in doubled positions, to the left while it stays positive."""
    rs = q.rs
    xi = q.height_function()
    phi = coxeter_element_of(q)
    phi_roots = root_sequence(rs, phi)
    coords = {rs.root_index[b]: (i, 2 * xi[i]) for i, b in zip(phi, phi_roots)}
    frontier = phi_roots
    while frontier:
        new = []
        for beta in frontier:
            img = rs.apply_word(phi, beta)
            if is_positive(img):
                r = rs.root_index[img]
                assert r not in coords, "phi_Q translation revisited a root"
                i, p2 = coords[rs.root_index[beta]]
                coords[r] = (i, p2 - 4)
                new.append(img)
        frontier = new
    assert len(coords) == rs.num_positive, "Gamma_Q did not reach every root"
    arrows = arrows_by_step(coords, rs.adjacent, lambda i, j: 2)
    return ARQuiver(rs, tuple(sorted((r, *c) for r, c in coords.items())), arrows)


# every orientation of these diagrams: 255 + 120 + 32 = 407 quivers
ORACLE_QUIVERS = [
    q for tt, ranks in (("A", range(1, 9)), ("D", range(4, 8)), ("E", (6,)))
    for rk in ranks for q in all_quivers(root_system(tt, rk))
]


def gamma_q_faults(build) -> int:
    """The quivers of ORACLE_QUIVERS on which ``build`` refuses or differs
    from the translation oracle."""
    faults = 0
    for q in ORACLE_QUIVERS:
        try:
            faults += build(q) != translation_oracle(q)
        except (AssertionError, NotReducedError):
            faults += 1
    return faults


def test_gamma_q_rows_equal_the_translation_oracle():
    assert len(ORACLE_QUIVERS) == 407
    assert gamma_q_faults(gamma_q) == 0


@pytest.mark.parametrize("old, new, faults", [
    # the Coxeter number of type A: right on A, wrong on every D and E quiver
    ("h = 2 * rs.num_positive // rs.rank", "h = rs.rank + 1", 152),
    # the row of i ending at xi(i) - h instead of xi(i*) - h
    ("xi[star[i]]", "xi[i]", 304),
], ids=["coxeter-number-of-A", "xi-of-i-for-i-star"])
def test_gamma_q_mutants_fail_the_translation_oracle(recompiled, old, new, faults):
    assert gamma_q_faults(recompiled(arquiver.gamma_q, old, new)) == faults


def test_reading_roots_match_quiver_translation():
    g = translation_oracle(EXAMPLE_Q)
    cells = [(i, p2) for _, i, p2 in g.coords]
    word, labelled = read_root_labels(A4, cells, lambda i, j: 2)
    assert labelled == g
    assert commutation_class(A4, word) == commutation_class(A4, adapted_word(EXAMPLE_Q))


def test_class_order_is_path_order_on_gamma_q():
    for q in all_quivers(A4):
        g = gamma_q(q)
        cls = commutation_class(A4, adapted_word(q))
        below = cls.below()
        # reachability along arrows (from b to a means a < b)
        reach = {r: set() for r, _, _ in g.coords}
        adj = {r: [] for r, _, _ in g.coords}
        for a, b in g.arrows:
            adj[a].append(b)
        def dfs(start):
            stack, seen = [start], set()
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen
        for r in adj:
            reach[r] = dfs(r)
        for a in adj:
            for b in adj:
                assert (a in reach[b]) == bool(below[b] >> a & 1)


def test_convexity_of_class_order():
    rs = root_system("A", 3)
    from arfold.words import cluster_point
    point = cluster_point(commutation_class(rs, (1, 2, 1, 3, 2, 1)))
    for cls in point:
        below = cls.below()
        for av in rs.positive_roots:
            for bv in rs.positive_roots:
                if av >= bv:
                    continue
                gv = tuple(x + y for x, y in zip(av, bv))
                if gv not in rs.root_index:
                    continue
                a, b, g = (rs.root_index[v] for v in (av, bv, gv))
                between = (
                    below[g] >> a & 1 and below[b] >> g & 1
                ) or (
                    below[g] >> b & 1 and below[a] >> g & 1
                )
                assert between


def _all_classes(rs):
    """Every commutation class of w_0, by DFS over reduced words."""
    from arfold.words import commutation_class

    classes = {}

    def rec(prefix):
        if len(prefix) == rs.num_positive:
            c = commutation_class(rs, tuple(prefix))
            classes[c.canonical_word] = c
            return
        for i in rs.nodes:
            b = rs.apply_word(prefix, rs.simple_root(i))
            if is_positive(b):
                prefix.append(i)
                rec(prefix)
                prefix.pop()

    rec([])
    return list(classes.values())


def test_convexity_every_class_a4():
    rs = root_system("A", 4)
    classes = _all_classes(rs)
    assert len(classes) == 62  # all commutation classes of w_0(A_4)
    triples = []
    for av in rs.positive_roots:
        for bv in rs.positive_roots:
            if av < bv:
                gv = tuple(x + y for x, y in zip(av, bv))
                if gv in rs.root_index:
                    triples.append((rs.root_index[av], rs.root_index[bv],
                                    rs.root_index[gv]))
    for cls in classes:
        below = cls.below()
        for a, b, g in triples:
            assert (
                below[g] >> a & 1 and below[b] >> g & 1
            ) or (
                below[g] >> b & 1 and below[a] >> g & 1
            )


def test_reflexivity_never_strict():
    cls = commutation_class(A4, A4_WORD)
    below = cls.below()
    assert all(not (mask >> r & 1) for r, mask in enumerate(below))


def test_hasse_quiver_agrees_with_gamma_q():
    g = gamma_q(EXAMPLE_Q)
    cls = commutation_class(A4, A4_WORD)
    h = hasse_quiver(cls, g)  # raises if arrows differ from covers
    assert h.arrows == g.arrows
    assert h.coords == g.coords


def test_hasse_quiver_single_vertex():
    rs1 = root_system("A", 1)
    cls = commutation_class(rs1, (1,))
    h = hasse_quiver(cls)
    assert len(h.coords) == 1 and not h.arrows


def test_covers_are_transitive_reduction():
    cls = commutation_class(A4, A4_WORD)
    below = cls.below()
    cov = covers(cls)
    for a, b in cov:
        assert below[b] >> a & 1
        for c in range(length(cls)):
            assert not (below[b] >> c & 1 and below[c] >> a & 1)
