"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Criterion 10's final sub-claim (the listed exceptional denominator table
equals the computed distance polynomials under one sign convention) is
implemented verbatim and marked as a strict expected failure: the
computation, cross-checked definitionally and by unpruned brute force,
yields strictly more factors at three entries.  A companion test pins
that discrepancy exactly so any drift fails the suite.
"""

import time

import pytest

from arfold.rootsys import root_system
from arfold.words import (
    adapted_point,
    commutation_class,
    twisted_adapted_point,
)
from arfold.arquiver import DynkinQuiver, gamma_q, read_reduced_words
from arfold.twistfold import (
    folded_reflection,
    twist_from_d,
    twist_quiver_from_a,
    twisted_folded_quivers,
)
from arfold.seqorder import (
    class_less,
    dist,
    distance_polynomial,
    is_simple,
    minimal_sequences,
    pair_below,
    sequence_from_roots,
    sequences_of_weight,
    socle,
    support,
    weight_of,
    is_pair,
    RootedPolynomial,
)
from arfold.affine import (
    den_dist_extra_factor,
    f4_denominator,
    verify_class_invariance,
    verify_den_dist,
    verify_dorey,
    verify_f4_conjecture,
    verify_minimal_pair_predicate,
)

from oracles import (
    _load_table,
    coxeter_composition,
    e6_folded_quiver,
    is_foldable,
    root_labels,
)

A4 = root_system("A", 4)
EXAMPLE_Q = DynkinQuiver(A4, frozenset({(2, 1), (2, 3), (3, 4)}))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cluster_point_counts():
    t0 = time.time()
    counts = {
        ("adapted", "A", 4): len(adapted_point("A", 4)),
        ("adapted", "A", 5): len(adapted_point("A", 5)),
        ("twisted", "A", 5): len(twisted_adapted_point("A", 5)),
        ("twisted", "D", 4): len(twisted_adapted_point("D", 4)),
        ("twisted", "D", 5): len(twisted_adapted_point("D", 5)),
        ("twisted", "E", 6): len(twisted_adapted_point("E", 6)),
    }
    want = {
        ("adapted", "A", 4): 8,
        ("adapted", "A", 5): 16,
        ("twisted", "A", 5): 16,
        ("twisted", "D", 4): 8,
        ("twisted", "D", 5): 16,
        ("twisted", "E", 6): 32,
    }
    dt = time.time() - t0
    report(1, counts == want and dt < 1800,
           f"cluster-point counts {counts} in {dt:.1f}s")


def test_criterion_2_gamma_q_fixture():
    g = gamma_q(EXAMPLE_Q)
    got = {A4.positive_roots[r]: (i, p2 / 2) for r, i, p2 in g.coords}

    def iv(a, b):
        return tuple(1 if a <= i + 1 <= b else 0 for i in range(4))

    want = {
        iv(1, 1): (1, 0), iv(2, 4): (1, -2), iv(1, 4): (2, -1),
        iv(2, 3): (2, -3), iv(3, 4): (3, 0), iv(1, 3): (3, -2),
        iv(2, 2): (3, -4), iv(3, 3): (4, -1), iv(1, 2): (4, -3),
        iv(4, 4): (4, 1),
    }
    words = read_reduced_words(g)
    ok = got == want and (4, 1, 3, 2, 4, 1, 3, 2, 4, 3) in words
    report(2, ok, "printed Gamma_Q coordinates and reading reproduced")


def test_criterion_3_twisted_constructions():
    cls_gt, _ = twist_quiver_from_a(EXAMPLE_Q, ">")
    cls_lt, _ = twist_quiver_from_a(EXAMPLE_Q, "<")
    # the printed > word lacks one s_2 (14 letters); its unique completion:
    ok = cls_gt == commutation_class(cls_gt.rs, (5, 3, 1, 4, 3, 2, 5, 3, 1, 4, 3, 2, 5, 3, 4))
    ok &= cls_lt == commutation_class(cls_lt.rs, (5, 4, 1, 3, 2, 3, 5, 4, 1, 3, 2, 3, 5, 4, 3))

    def rows(quiver, scale=2):
        out = {}
        for _, i, p2 in quiver.coords:
            out.setdefault(i, set()).add(p2 // scale)
        return out

    _, qu_n = twist_from_d(EXAMPLE_Q, 4)
    _, qu_n1 = twist_from_d(EXAMPLE_Q, 5)
    ok &= rows(qu_n) == {
        1: {-8, -6, -4, -2, 0},
        2: {-9, -7, -5, -3, -1},
        3: {-8, -6, -4, -2, 0},
        4: {-7, -3, 1},
        5: {-5, -1},
    }
    ok &= rows(qu_n1)[4] == {-5, -1} and rows(qu_n1)[5] == {-7, -3, 1}
    report(3, ok, "insertion words and doubling quivers match the figures")


def test_criterion_4_coxeter_compositions():
    rs5 = root_system("A", 5)
    w = (1, 2, 3, 5, 4, 3, 1, 2, 3, 5, 4, 3, 1, 2, 3)
    ok = coxeter_composition(
        commutation_class(rs5, w), rs5.diagram_automorphism()
    ) == (5, 5, 5)
    expected = {
        ("A", 3): (3, 3),
        ("A", 5): (5, 5, 5),
        ("D", 4): (4, 4, 4),
        ("D", 5): (5, 5, 5, 5),
        ("E", 6): (9, 9, 9, 9),
    }
    for (tt, rk), comp in expected.items():
        rs = root_system(tt, rk)
        aut = rs.diagram_automorphism()
        point = twisted_adapted_point(tt, rk)
        ok &= coxeter_composition(point, aut) == comp
        ok &= is_foldable(point, aut)
    report(4, ok, "Coxeter compositions and foldability as printed")


def test_criterion_5_den_dist():
    t0 = time.time()
    results = {}
    for target, n in [("B", 2), ("B", 3), ("C", 3), ("C", 4)]:
        rep = verify_den_dist(target, n)
        results[(target, n)] = (rep.ok, rep.checked)
    dt = time.time() - t0
    ok = all(v[0] for v in results.values()) and dt < 600
    want_checked = {("B", 2): 12, ("B", 3): 96, ("C", 3): 48, ("C", 4): 160}
    ok &= {k: v[1] for k, v in results.items()} == want_checked
    report(5, ok, f"den = dist-poly x diagonal exactly, {results} in {dt:.1f}s")


def test_criterion_6_class_invariance():
    ok = True
    for target, n in [("B", 2), ("B", 3), ("C", 3), ("C", 4)]:
        ok &= verify_class_invariance(target, n).ok
    report(6, ok, "distance polynomials identical across each cluster point")


def _pairs(rs):
    for a in range(rs.num_positive):
        for b in range(a + 1, rs.num_positive):
            yield a, b


def _under(cls, p):
    """Every sequence below p in the class order, by brute force over the
    full same-weight poset."""
    rs = cls.rs
    allm = sequences_of_weight(rs, weight_of(rs, p))
    return [m for m in allm if m != p and class_less(cls, m, p)]


def _definitional_socle(cls, p, under):
    """The unique simple sequence weakly below the pair p, or None;
    ``under`` is `_under(cls, p)`."""
    if not under:
        return p
    simples = [m for m in under if is_simple(cls, m)]
    return simples[0] if len(simples) == 1 else None


def test_criterion_7_socle_dist_suite():
    t0 = time.time()
    ok = True
    for tt, rk in [("A", 3), ("A", 5), ("D", 4)]:
        for cls in twisted_adapted_point(tt, rk):
            rs = cls.rs
            for a, b in _pairs(rs):
                p = sequence_from_roots(rs, [a, b])
                under = _under(cls, p)
                ok &= sorted(under) == sorted(pair_below(cls, a, b))
                d = dist(cls, p)
                s = socle(cls, p)
                ok &= d <= 2
                if not under:
                    ok &= d == 0 and s == p
                    continue
                ok &= s is not None and s == _definitional_socle(cls, p, under)
                if d == 2:
                    mids = [m for m in under if m != s and class_less(cls, s, m)]
                    ok &= len(mids) == 1 and class_less(cls, mids[0], p)
                if d == 1:
                    # p must be a minimal element above its socle
                    ok &= not any(
                        m != s and class_less(cls, s, m) and class_less(cls, m, p)
                        for m in under
                    )
                assert ok
    dt = time.time() - t0
    report(7, ok, f"socle/dist suite vs brute-force poset in {dt:.1f}s")


@pytest.mark.parametrize("tt, rk", [("A", 5), ("D", 5)])
def test_pair_socle_equals_definitional_socle(tt, rk):
    for cls in twisted_adapted_point(tt, rk):
        for a, b in _pairs(cls.rs):
            p = sequence_from_roots(cls.rs, [a, b])
            assert socle(cls, p) == _definitional_socle(cls, p, _under(cls, p))


def test_criterion_8_minimal_sequences_are_summing_pairs():
    ok = True
    for tt, rk in [("A", 3), ("A", 5), ("D", 4)]:
        for point in (adapted_point(tt, rk) if tt == "A" else set()) | set(
            twisted_adapted_point(tt, rk)
        ):
            cls = point
            rs = cls.rs
            for g in range(rs.num_positive):
                if sum(rs.positive_roots[g]) == 1:
                    continue
                s = sequence_from_roots(rs, [g])
                for m in minimal_sequences(cls, s):
                    ok &= is_pair(m)
                    x, y = support(m)
                    ok &= tuple(
                        u + v for u, v in zip(
                            rs.positive_roots[x], rs.positive_roots[y])
                    ) == rs.positive_roots[g]
                assert ok
    report(8, ok, "minimal sequences of non-simple roots are summing pairs")


def test_criterion_9_dorey():
    t0 = time.time()
    ok = True
    notes = []
    for target, n in [("B", 2), ("B", 3), ("C", 3)]:
        rep = verify_dorey(target, n)
        ok &= rep.ok
        notes.extend(rep.notes)
    ok &= verify_minimal_pair_predicate("C", 4).ok
    dt = time.time() - t0
    report(9, ok,
           f"Dorey inclusions + predicate equivalences in {dt:.1f}s "
           f"(B branch (ii) printed exponents corrected, see report notes)")


def test_criterion_10_e6_f4_exceptional():
    t0 = time.time()
    rs = root_system("E", 6)
    fq = e6_folded_quiver()
    ok = len(fq.cells) == 36
    labels = root_labels(fq)
    ok &= labels[(1, 4)] == (0, 0, 1, 1, 1, 0)
    ok &= labels[(1, 20)] == (1, 0, 0, 0, 0, 0)

    r1 = folded_reflection(fq, 1)
    want = {(res, pos): root for res, pos, root in _load_table("e6_folded_r1.txt")}
    got = {(res, pos): rs.positive_roots[r] for r, (res, pos) in enumerate(r1.cells)}
    ok &= got == want

    rep = verify_f4_conjecture()
    # class invariance over all 32 classes and a named closest convention
    ok &= not any("not class-invariant" in str(m) for m in rep.mismatches)
    ok &= any("closest sign convention: D" in n for n in rep.notes)
    dt = time.time() - t0
    report(10, ok and dt < 3600,
           f"fixture, r_1 reflection, 32-class invariance in {dt:.1f}s; "
           "listed-table equality tracked separately (known conjecture defect)")


@pytest.mark.xfail(
    strict=True,
    reason="the conjectural exceptional denominator list differs from "
    "the definitional distance polynomials at (1,2),(2,2),(2,3): the "
    "computation (verified by unpruned brute force and by definitional "
    "sampling over member words) carries strictly more factors; see the "
    "decisions ledger",
)
def test_criterion_10_listed_table_matches_verbatim():
    rep = verify_f4_conjecture()
    assert rep.ok  # requires all 10 listed entries to match exactly


def test_criterion_10_discrepancy_is_pinned():
    """Regression: the known table discrepancy, exactly as analyzed."""
    fqs = twisted_folded_quivers("E", 6)
    cls = sorted(fqs, key=lambda c: c.canonical_word)[0]
    fq = fqs[cls]
    extra = RootedPolynomial.from_factors([den_dist_extra_factor("F", 4)])
    mismatched = {}
    for k in range(1, 5):
        for l in range(k, 5):
            dhat = distance_polynomial(fq, k, l, "D")
            if k == l:
                dhat = dhat * extra
            if dhat != f4_denominator(k, l):
                mismatched[(k, l)] = dhat
    assert set(mismatched) == {(1, 2), (2, 2), (2, 3)}
    assert mismatched[(1, 2)] == RootedPolynomial.from_factors(
        [(1, 6), (1, 8), (1, 10), (1, 12), (1, 14), (1, 16)]
    )
    assert mismatched[(2, 2)] == RootedPolynomial.from_factors(
        [(1, 4), (1, 6)] + [(1, 8), (1, 10), (1, 12), (1, 14)] * 2
        + [(1, 16), (1, 18)]
    )
    assert mismatched[(2, 3)] == RootedPolynomial.from_factors(
        [(-1, 5), (-1, 7), (-1, 9), (-1, 9), (-1, 11), (-1, 11),
         (-1, 13), (-1, 15), (-1, 17)]
    )
