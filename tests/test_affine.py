import hashlib
import json
from dataclasses import replace
from functools import lru_cache
from itertools import combinations
from math import ceil

import pytest

from arfold import affine, seqorder
from arfold.rootsys import FoldingError, root_system
from arfold.arquiver import DynkinQuiver, all_quivers, gamma_q
from arfold.twistfold import twisted_folded_quivers
from arfold.seqorder import RootedPolynomial, distance_polynomial, exponent_rows, row_polynomial
from arfold.affine import (
    SpectralParameter,
    den_dist_extra_factor,
    denominator,
    dorey_triples,
    f4_denominator,
    minimal_pair_coordinates,
    minimal_pair_predicate,
    v_assign,
    v_untwisted_twisted,
    verify_class_invariance,
    verify_counts,
    verify_den_dist,
    verify_dorey,
    verify_f4_conjecture,
    verify_minimal_pair_predicate,
)
from arfold.cli import verify_socle_dist
from oracles import dorey_sweep_by_class, read_classes, twin_class, walk_tables

SP = SpectralParameter


def _over(x, z):
    """The spectral parameter x / z, a ratio the tests read labels by."""
    return SP(x.phase - z.phase, x.exp - z.exp)


def test_spectral_parameter_algebra():
    a = SP.minus_q_power(3)      # (-q)^3 = -qs^6
    assert (a.phase, a.exp) == (2, 6)
    b = SP.minus_qs_power(5)     # (-qs)^5 = -qs^5
    assert (b.phase, b.exp) == (2, 5)
    assert (a * b).phase == 0 and (a * b).exp == 11
    assert a * SP(-b.phase, -b.exp) == SP(0, 1)
    assert str(SP(2, 5)) == "-qs^5"
    with pytest.raises(ValueError):
        SP(1, 0).sign()


def test_denominator_b2_examples():
    assert denominator("B", 2, 2, 2) == RootedPolynomial.from_factors(
        [(1, 2), (1, 6)]
    )
    assert denominator("B", 2, 1, 1) == RootedPolynomial.from_factors(
        [(1, 4), (1, 6)]
    )


@pytest.mark.parametrize("target, n, message", [
    ("B", 1, "B target needs n >= 2"), ("C", 2, "C target needs n >= 3"),
])
def test_denominator_and_dorey_refuse_a_target_without_a_folding(target, n, message):
    # B_1 and C_2 have no folding; both printed tables refuse them alike
    with pytest.raises(FoldingError):
        affine.folding_to(target, n)
    with pytest.raises(ValueError, match=message):
        denominator(target, n, 1, 1)
    with pytest.raises(ValueError, match=message):
        dorey_triples(target, n)


def test_denominator_f4_example():
    assert denominator("F", 4, 4, 4) == RootedPolynomial.from_factors(
        [(1, 2), (1, 8), (1, 12), (1, 18)]
    )
    assert f4_denominator(1, 4) == RootedPolynomial.from_factors(
        [(1, 8), (1, 14)]
    )


def test_denominator_refuses_an_f_target_of_another_rank():
    # the printed list is F_4's alone, as den_dist_extra_factor has it
    for n in (3, 5, 7):
        with pytest.raises(ValueError, match=f"F target needs n = 4, not F_{n}"):
            denominator("F", n, 1, 1)
        with pytest.raises(FoldingError):
            den_dist_extra_factor("F", n)


def test_denominator_symmetry_and_positive_exponents():
    for target, n in [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)]:
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                d = denominator(target, n, k, l)
                assert d == denominator(target, n, l, k)
                assert all(t > 0 for (_, t), _ in d.factors)
    for k in range(1, 5):
        for l in range(k, 5):
            assert all(t > 0 for (_, t), _ in f4_denominator(k, l).factors)


def test_denominator_bad_indices():
    with pytest.raises(ValueError):
        denominator("B", 3, 0, 1)
    with pytest.raises(ValueError):
        denominator("C", 3, 1, 4)


def test_v_assign_spec_examples():
    # B target, folded coordinate (3,4) -> node 3, (-1)^3 qs^4
    fqs = twisted_folded_quivers("A", 5)
    cls, fq = sorted(fqs.items(), key=lambda kv: kv[0].canonical_word)[0]
    for r, (i, p) in enumerate(fq.cells):
        lab = v_assign(fq, r)
        assert lab.node == i
        assert lab.parameter == SP(2 * i, p)
    # C target: (-qs)^p
    fqs = twisted_folded_quivers("D", 4)
    cls, fq = sorted(fqs.items(), key=lambda kv: kv[0].canonical_word)[0]
    for r, (i, p) in enumerate(fq.cells):
        lab = v_assign(fq, r)
        assert lab.node == i and lab.parameter == SP.minus_qs_power(p)


def test_v_assign_injective_on_classes():
    fqs = twisted_folded_quivers("A", 5)
    for cls, fq in fqs.items():
        labels = {(v_assign(fq, r).node, v_assign(fq, r).parameter)
                  for r in range(len(fq.cells))}
        assert len(labels) == 15


A4 = root_system("A", 4)
EXAMPLE_Q = DynkinQuiver(A4, frozenset({(2, 1), (2, 3), (3, 4)}))


def test_v_untwisted_twisted_a4_examples():
    rs = A4
    coord = gamma_q(EXAMPLE_Q).coord_of()
    at = {v: r for r, v in coord.items()}
    beta = at[(2, -2)]  # the (2,-1) vertex of the printed table
    lab = v_untwisted_twisted(EXAMPLE_Q, beta, 1)
    assert lab.node == 2 and lab.parameter == SP.minus_q_power(-1)
    beta = at[(4, 2)]  # the (4,1) vertex
    lab = v_untwisted_twisted(EXAMPLE_Q, beta, 2)
    # branch: i=4 >= floor((n+1)/2): node n+1-i = 1, sign (-1)^n = +1
    assert lab.node == 1 and lab.parameter == SP.minus_q_power(1)


def test_v_untwisted_twisted_d_fork():
    rsd = root_system("D", 4)
    q = DynkinQuiver(rsd, frozenset({(2, 1), (2, 3), (2, 4)}))
    coord = gamma_q(q).coord_of()
    for r, (i, p2) in coord.items():
        if i in (3, 4):  # fork nodes n-1, n with n = 4
            lab = v_untwisted_twisted(q, r, 2)
            assert lab.node == 3
            want = SP.minus_q_power(p2 // 2) * SP(2 * i, 0)
            assert lab.parameter == want


def test_v_untwisted_twisted_d2_quarter_phase():
    rsd = root_system("D", 4)
    q = DynkinQuiver(rsd, frozenset({(2, 1), (2, 3), (2, 4)}))
    coord = gamma_q(q).coord_of()
    for r, (i, p2) in coord.items():
        if i <= 2:
            lab = v_untwisted_twisted(q, r, 2)
            assert lab.parameter.phase == (4 - i + p2) % 4


def test_dorey_c_first_case():
    entries = dorey_triples("C", 3)
    want_y, want_x = SP.minus_qs_power(-1), SP.minus_qs_power(2)
    assert any(
        e.i == 1 and e.j == 2 and e.k == 3 and e.branch == "C l=k"
        and e.y_over_z == want_y and e.x_over_z == want_x
        for e in entries
    )


def test_dorey_b_printed_branch_ii():
    # the s = i branch, verbatim from the printed table
    entries = dorey_triples("B", 3, convention="printed")
    i, n = 1, 3
    want_y = SP(0, -4 * i - 4)
    want_x = SP(2 * (i + n), 2 * (n - 1 - i) - 1)
    assert any(
        e.branch == "B(ii) s=i" and e.i == i
        and e.y_over_z == want_y and e.x_over_z == want_x
        for e in entries
    )


def test_dorey_c_entries_are_distinct():
    # each (i, j, k) fixes l = (i + j + k) / 2, so the C loops meet it once
    for n in range(3, 9):
        keys = [(e.i, e.j, e.k) for e in dorey_triples("C", n)]
        assert len(keys) == len(set(keys)) == 3 * n * (n - 1) // 2


def test_dorey_sum_constraint():
    for e in dorey_triples("B", 3):
        if e.branch.startswith("B(i)"):
            l = max(e.i, e.j, e.k)
            assert e.i + e.j + e.k == 2 * l


def test_verify_den_dist_b2():
    rep = verify_den_dist("B", 2)
    assert rep.ok and rep.checked == 4 * 3


def test_verify_class_invariance_c3():
    rep = verify_class_invariance("C", 3)
    assert rep.ok


def _fresh_distance_memo(monkeypatch):
    monkeypatch.setattr(
        affine, "_exponent_rows",
        lru_cache(maxsize=None)(affine._exponent_rows.__wrapped__),
    )


def _exponent_row(row: dict) -> tuple:
    """((t, ceil(o_t / 2)), ...) over the t of a table row {t: o_t} with
    o_t > 0, sorted by t: the factor exponents by their definition."""
    return tuple(sorted((t, ceil(o / 2)) for t, o in row.items() if o))


@pytest.mark.parametrize("target", [("C", 4), ("F", 4)])
def test_exponent_rows_are_read_once_per_datum(target, monkeypatch):
    # one read of the counts per datum the walk hands out, its rows shared
    # by the classes of the datum: one read class per orbit {c, c^v,
    # sigma c, sigma c^v}, whose four classes share one datum on C4, while
    # on E6 sigma c and sigma c^v take a second, their records relabelled;
    # every class's rows are its own table's, and on these passing points
    # every class has one row object per key
    _fresh_distance_memo(monkeypatch)
    counts_read = []
    real = affine.exponent_rows
    monkeypatch.setattr(
        affine, "exponent_rows", lambda counts: counts_read.append(counts) or real(counts)
    )
    rows_of = affine._exponent_rows(target)
    point = twisted_folded_quivers(*affine.folding_to(*target).source)
    data = len(point) // 4 * (2 if target == ("F", 4) else 1)
    assert len(counts_read) == data and set(rows_of) == set(point)
    keys = affine._keys(target[1])
    for fq, table in walk_tables(point):
        assert rows_of[fq.source_class] == tuple(_exponent_row(table.get(key, {})) for key in keys)
    assert len({id(rows) for rows in rows_of.values()}) == 1


def test_den_dist_builds_each_distance_polynomial_once(monkeypatch):
    # a fresh memo, so none of the point's rows is read yet; den-dist
    # builds one polynomial per distinct (key, row), and on a passing
    # point that is one per key; class invariance builds none
    _fresh_distance_memo(monkeypatch)
    calls = []
    real = affine.row_polynomial
    monkeypatch.setattr(
        affine, "row_polynomial", lambda *args: calls.append(args) or real(*args)
    )
    assert verify_den_dist("C", 4).ok
    folding = affine.folding_to("C", 4)
    keys = affine._keys(4)
    rows = {
        (key, row)
        for rows in affine._exponent_rows(folding.target).values()
        for key, row in zip(keys, rows)
    }
    assert len(rows) == len(keys)
    assert sorted(((k, l), row) for row, k, l, _ in calls) == sorted(rows)
    assert {conv for *_, conv in calls} == {folding.sign_convention}
    calls.clear()
    rep = verify_class_invariance("C", 4)
    assert rep.ok and rep.checked > len(rows) > 0
    assert calls == []


def _definitional_polynomial(row: dict, k: int, l: int, convention: str) -> RootedPolynomial:
    """The folded distance polynomial of a table row {t: o_t} at (k, l) by
    its definition: ceil(o_t / 2) factors (z - eps q_s^t) per t, eps =
    (-1)^(k+l) under convention "A" and (-1)^t under "D"."""
    factors = []
    for t, o in row.items():
        eps = (-1) ** (k + l) if convention == "A" else (-1) ** t
        factors.extend([(eps, t)] * ceil(o / 2))
    return RootedPolynomial.from_factors(factors)


@pytest.mark.parametrize(
    "target", [("B", 3), ("B", 4), ("B", 5), ("C", 4), ("C", 5), ("C", 6), ("F", 4)]
)
def test_a_distance_polynomial_reads_its_exponent_row_alone(target):
    # each class's row gives its table's polynomial under both
    # conventions, and so does the single-quiver read on the point's
    # first class; and over the distinct full rows {t: o_t} at a key, two
    # rows have one polynomial under a convention iff one exponent row
    rows_of = affine._exponent_rows(target)
    keys = affine._keys(target[1])
    point = twisted_folded_quivers(*affine.folding_to(*target).source)
    full = {key: {} for key in keys}
    for k, (fq, table) in enumerate(walk_tables(point)):
        for key, row in zip(keys, rows_of[fq.source_class]):
            full[key].setdefault(tuple(sorted(table.get(key, {}).items())), row)
            for conv in ("A", "D"):
                want = _definitional_polynomial(table.get(key, {}), *key, conv)
                assert row_polynomial(row, *key, conv) == want
                assert k or distance_polynomial(fq, *key, conv) == want
    assert max(len(by_full) for by_full in full.values()) > 1
    for key, by_full in full.items():
        for (f1, r1), (f2, r2) in combinations(by_full.items(), 2):
            for conv in ("A", "D"):
                same = _definitional_polynomial(dict(f1), *key, conv) == (
                    _definitional_polynomial(dict(f2), *key, conv))
                assert same == (r1 == r2)


@pytest.mark.parametrize("old, new, suite", [
    ("if o:", "if True:", verify_class_invariance),  # keeps the o_t = 0 entries
    ("(t, (o + 1) // 2)", "(t, o)", verify_den_dist),  # keeps o_t itself
])
@pytest.mark.parametrize("target", [("B", 3), ("C", 4)])
def test_a_row_keeping_more_than_the_exponents_fails(
    monkeypatch, recompiled, old, new, suite, target
):
    # o_t = 0 entries come and go across classes, so class invariance
    # fails; o_t itself stays class-invariant, but its polynomial is not den
    _fresh_distance_memo(monkeypatch)
    monkeypatch.setattr(affine, "exponent_rows", recompiled(exponent_rows, old, new))
    assert not suite(*target).ok


def test_den_dist_builds_each_denominator_once(monkeypatch):
    # one printed denominator per (k, l), not one per class and key
    calls = []
    real = affine.denominator
    monkeypatch.setattr(
        affine, "denominator", lambda *args: calls.append(args) or real(*args)
    )
    rep = verify_den_dist("C", 5)
    assert rep.ok and rep.checked == 480
    assert sorted(calls) == [("C", 5, k, l) for k in range(1, 6) for l in range(k, 6)]


def test_f4_walks_e6_once_for_both_conventions(monkeypatch):
    _fresh_distance_memo(monkeypatch)
    # one seed read and one pair reader, which the whole walk shares, and
    # one polynomial per convention and key of the class-invariant rows
    seeds, readers, built = [], [], []
    real, real_reader, real_poly = seqorder._scratch, seqorder._pair_reader, affine.row_polynomial
    monkeypatch.setattr(
        seqorder, "_scratch", lambda fq, reader: seeds.append(fq) or real(fq, reader)
    )
    monkeypatch.setattr(
        seqorder, "_pair_reader", lambda rs: readers.append(rs) or real_reader(rs)
    )
    monkeypatch.setattr(
        affine, "row_polynomial", lambda *args: built.append(args[1:]) or real_poly(*args)
    )
    verify_f4_conjecture()
    assert len(seeds) == 1 and seeds[0].source_class.parent is None
    assert readers == [seeds[0].rs]
    assert sorted(built) == sorted((*key, c) for c in "AD" for key in affine._keys(4))


def test_verify_dorey_b2():
    rep = verify_dorey("B", 2)
    assert rep.ok
    assert any("suspected typos" in note for note in rep.notes)


def test_verify_dorey_c3():
    rep = verify_dorey("C", 3)
    assert rep.ok
    assert not any("suspected typos" in note for note in rep.notes)


def test_minimal_pair_predicate_equivalence_quick():
    rep = verify_minimal_pair_predicate("B", 2)
    assert rep.ok and rep.checked > 0


def _summing_pairs(rs):
    """Every summing pair as (a, b, g), a < b, by root g, then by a."""
    return [(a, b, g) for g in range(rs.num_positive) for a, b in rs.summing_pairs(g)]


@pytest.mark.parametrize("target, n", [("C", 3), ("B", 4)])
def test_verify_dorey_reads_the_seed_and_the_pairs_at_alpha_i_once(monkeypatch, target, n):
    # one class read of each orbit {c, sigma c}, so half the point: the
    # seed reads every summing pair, and a class reached by the folded
    # reflection at alpha_i only its pairs {alpha_i, beta}, in walk order;
    # the predicate still checks every summing pair of every class
    calls = []
    pair_keys = affine._pair_keys
    monkeypatch.setattr(
        affine, "_pair_keys", lambda *args: calls.append(args[1:]) or pair_keys(*args)
    )
    rep = verify_minimal_pair_predicate(target, n)
    point = twisted_folded_quivers(*affine.folding_to(target, n).source)
    rs = next(iter(point)).rs
    every = _summing_pairs(rs)
    walked = read_classes(point, mirror=False)
    assert len(walked) == len(point) // 2
    read = []
    for cls in walked:
        if cls.parent is None:
            read += every
        else:
            r = rs.simple_root_index[cls.parent[1]]
            read += [p for p in every if r in p[:2]]
    assert calls == read
    assert len(read) < len(point) * len(every) == rep.checked


def _walked_and_oracle(monkeypatch, target, n) -> tuple[str, str]:
    """The JSON of `verify_dorey` through the walk and through the
    class-by-class oracle."""
    walked = json.dumps(verify_dorey(target, n).as_dict(), sort_keys=True)
    with monkeypatch.context() as m:
        m.setattr(affine, "_dorey_sweep", dorey_sweep_by_class)
        oracle = json.dumps(verify_dorey(target, n).as_dict(), sort_keys=True)
    return walked, oracle


@pytest.mark.parametrize("target, n", [
    ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("C", 4), ("C", 5), ("C", 6), ("C", 7),
])
def test_walked_dorey_report_equals_the_class_by_class_oracle(monkeypatch, target, n):
    walked, oracle = _walked_and_oracle(monkeypatch, target, n)
    assert walked == oracle


def test_walked_dorey_equals_the_oracle_on_the_printed_table(monkeypatch):
    # the printed B(ii) branches as the validated table: mismatches in many
    # classes, so the walk's final sort is pinned record by record
    printed = frozenset(affine._plain_key(e.key()) for e in dorey_triples("B", 4, "printed"))
    monkeypatch.setattr(affine, "_validated_keys", lambda *_: printed)
    walked, oracle = _walked_and_oracle(monkeypatch, "B", 4)
    assert walked == oracle
    mismatches = json.loads(walked)["mismatches"]
    assert sum("pair not in table" in m for m in mismatches) > 100
    assert sum("'predicate'" in m for m in mismatches) > 100


def test_dorey_twin_mismatches_not_relabelled_fail_the_oracle(monkeypatch):
    # sigma c handed c's mismatches as they are, under the printed table,
    # whose mismatches are in many classes
    printed = frozenset(affine._plain_key(e.key()) for e in dorey_triples("B", 4, "printed"))
    monkeypatch.setattr(affine, "_validated_keys", lambda *_: printed)
    walked, oracle = _walked_and_oracle(monkeypatch, "B", 4)
    assert walked == oracle
    monkeypatch.setattr(affine, "_twin_pairs", lambda data, sigma: data)
    walked, oracle = _walked_and_oracle(monkeypatch, "B", 4)
    assert walked != oracle


@pytest.mark.parametrize("target, n", [("B", 3), ("C", 4)])
def test_a_dorey_twin_cell_moved_by_one_is_refused(monkeypatch, target, n):
    point = twisted_folded_quivers(*affine.folding_to(target, n).source)
    seed = next(iter(point))
    twin = twin_class(point[seed])
    cells = list(point[twin].cells)
    r = next(r for r, (res, p) in enumerate(cells) if (res, p + 1) not in cells)
    cells[r] = (cells[r][0], cells[r][1] + 1)
    bad = {**point, twin: replace(point[twin], cells=tuple(cells))}
    monkeypatch.setattr(affine, "twisted_folded_quivers", lambda *source: bad)
    with pytest.raises(AssertionError, match="untwinned cells") as refused:
        verify_dorey(target, n)
    assert str(seed.canonical_word) in str(refused.value)


def _child_skips_its_pairs(monkeypatch):
    real = affine._read_pairs
    monkeypatch.setattr(
        affine, "_read_pairs",
        lambda fq, *args: (0, []) if fq.source_class.parent else real(fq, *args),
    )


def _parent_keeps_its_pairs(monkeypatch):
    def carry(data, parent, i, at_i):
        count, mismatches = data
        perm = parent.rs.reflection_permutation(i)
        return count, [
            (perm[g], *sorted((perm[a], perm[b])), listed) for g, a, b, listed in mismatches
        ]

    monkeypatch.setattr(affine, "_carry", carry)


@pytest.mark.parametrize("mutant", [_child_skips_its_pairs, _parent_keeps_its_pairs])
def test_walk_mutants_fail_the_dorey_oracle(monkeypatch, mutant):
    mutant(monkeypatch)
    for target, n in [("B", 3), ("C", 4)]:
        walked, oracle = _walked_and_oracle(monkeypatch, target, n)
        assert walked != oracle


LEMMA_SOURCES = (
    [("A", r) for r in (5, 7, 9, 11)] + [("D", r) for r in (5, 6, 7, 8)] + [("E", 6)]
)


@pytest.mark.parametrize("tt, rk", LEMMA_SOURCES)
def test_a_folded_reflection_keeps_every_pair_off_alpha_i(tt, rk):
    # on every edge of the BFS tree: alpha_i is minimal in the parent and
    # maximal in the child, and every summing pair without it keeps its
    # minimality under s_i and its three cells
    point = twisted_folded_quivers(tt, rk)
    rs = next(iter(point)).rs
    every = _summing_pairs(rs)

    def minimal(cls):
        below, above = cls.below(), cls.above()
        return {
            (a, b, g) for a, b, g in every
            if seqorder.is_minimal_pair(below, above, rs.summing_pairs(g), a, b)
        }

    minimal_of = {cls: minimal(cls) for cls in point}
    for child, fq in point.items():
        if child.parent is None:
            continue
        up, i = child.parent
        parent = point[up]
        r, perm = rs.simple_root_index[i], rs.reflection_permutation(i)
        assert up.below()[r] == 0 and child.above()[r] == 0
        moved = {
            (*sorted((perm[a], perm[b])), perm[g]) for a, b, g in minimal_of[up]
            if r not in (a, b)
        }
        assert moved == {p for p in minimal_of[child] if r not in p[:2]}
        for a, b, g in every:
            if r not in (a, b):
                assert all(parent.cells[x] == fq.cells[perm[x]] for x in (a, b, g))


@pytest.mark.parametrize("target, n", [("B", 3), ("C", 3)])
def test_dorey_and_predicate_fail_without_any_one_table_entry(monkeypatch, target, n):
    # and the walk reports each failure as the class-by-class oracle does
    keys = affine._validated_keys(target, n)
    for dropped in keys:
        monkeypatch.setattr(affine, "_validated_keys", lambda *_: keys - {dropped})
        assert not verify_dorey(target, n).ok, dropped
        assert not verify_minimal_pair_predicate(target, n).ok, dropped
        walked, oracle = _walked_and_oracle(monkeypatch, target, n)
        assert walked == oracle, dropped


# sha256 of each report's sorted-key JSON: the sweep's plain integer keys
# and mask tests must leave every report string as it was
DOREY_REPORT_DIGESTS = {
    ("B", 3): "8283d85fbe5438afeb0729db71bec3d58d16dacd9fa080a48448c6fa59d402cb",
    ("B", 4): "f8801b9bffe1332f165c49a750084550f4502b261ccdedd02de43a8f5a72f2b4",
    ("C", 4): "2b21b7cc196d1f4ee2dbcdd838e523efc0af9557e724f7b9697b746ee25f5967",
    ("C", 5): "67c83828d3d4c2c02e25c199c8a3f237b2ba93d1ff0b01ea692bb4630240cc0f",
    ("C", 6): "3847e2b9b1261350c5ca49511c9c85bf71d669259608be0268250790c845b66b",
}


@pytest.mark.parametrize("target, n", sorted(DOREY_REPORT_DIGESTS))
def test_dorey_report_is_pinned(target, n):
    doc = json.dumps(verify_dorey(target, n).as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == DOREY_REPORT_DIGESTS[target, n]


# sha256 of each distance and socle report's sorted-key JSON: the one walk
# over a point and the single-quiver tables must leave every report string
# as it was
DISTANCE_REPORT_DIGESTS = {
    ("den-dist", "B3"): "9e4f8546e523e4635704f282bbe51d536c530b380bc84bcece518fa41a087597",
    ("den-dist", "B4"): "1a450af7c3debb5183a861b331f00b8fd22119d484c1c99816e8b726d6059750",
    ("den-dist", "C4"): "77693bc509f3a76e2f9ccd0db6a0a47c1af532f267bad2969b60fc4fd8fada70",
    ("den-dist", "C5"): "fb0f5aa0ad7bbf255c6b398144f83c3d0cd05b512614a9298da34762c3368701",
    ("den-dist", "C6"): "46ffc32f31daa0f24f631f562dfe5b0eb0a07f35a62285861941b274de1e5541",
    ("class-invariance", "B3"): "46f865ca7c6939d76f6770defe00dd0df520a2631f3c12edeaa29ee0449dacae",
    ("class-invariance", "B4"): "9e023771eb3ff0ffa3213dc68fb60f03bd4d0836c90e62be96265311d0c04b0d",
    ("class-invariance", "C4"): "195b665709aaf6eaaf3fffe66fab57cfff9b5091d18e507d9e098b08c507bf87",
    ("class-invariance", "C5"): "1957f68c5f7d5810d36ffbd99d4c2af7aad509bf2739f44e5fc56e194cb39223",
    ("class-invariance", "C6"): "ba8f94df5ac00946e0683491304d8ddef35b27531d1449569ce4c8bf4310951c",
    ("f4", "F4"): "f2339db6e39d37da1587131d1603e43d24a38a11c993547df20a0a06c498b9da",
    ("socle-dist", "A5"): "6cc0166d7e0f6ac704b4d32b55bbd24990b2222b15eab637aa866c97b361e834",
    ("socle-dist", "A7"): "19e2dd2bd5def1ce8099e65d3b2ef23212523c79eba5eb403b8af0deb7dc39ca",
    ("socle-dist", "D5"): "5a6697e1dae401888d7cf184cb87d02de3d9778f7d722be931d4b65875e95cbc",
    ("socle-dist", "D6"): "05c9bbd94146c6313e4d8dd415d67a4a305bc0967d662cd25f34446287b1a902",
}
DISTANCE_SUITES = {
    "den-dist": lambda spec: verify_den_dist(spec[0], int(spec[1:])),
    "class-invariance": lambda spec: verify_class_invariance(spec[0], int(spec[1:])),
    "f4": lambda spec: verify_f4_conjecture(),
    "socle-dist": lambda spec: verify_socle_dist(spec[0], int(spec[1:])),
}


@pytest.mark.parametrize("suite, spec", sorted(DISTANCE_REPORT_DIGESTS))
def test_distance_report_is_pinned(suite, spec):
    doc = json.dumps(DISTANCE_SUITES[suite](spec).as_dict(), sort_keys=True)
    digest = hashlib.sha256(doc.encode()).hexdigest()
    assert digest == DISTANCE_REPORT_DIGESTS[suite, spec]


@pytest.mark.parametrize("target, n", [("B", 3), ("C", 4)])
def test_an_unrealized_entry_is_named_by_its_ratios(monkeypatch, target, n):
    pair_keys = affine._pair_keys
    for e in dorey_triples(target, n):
        dropped = affine._plain_key(e.key())
        monkeypatch.setattr(affine, "_pair_keys", lambda *args: [
            key for key in pair_keys(*args) if key != dropped
        ])
        rep = verify_dorey(target, n)
        assert not rep.ok
        named = [m[1] for m in rep.mismatches if m[0] == "unrealized validated entries"]
        ratios = (str(e.y_over_z), str(e.x_over_z))
        assert named == [[(e.i, e.j, e.k, *ratios)]]
        assert all("qs^" in r for r in ratios)


@pytest.mark.parametrize("target, n", [("B", 3), ("C", 3)])
def test_dorey_and_predicate_fail_with_two_residues_swapped(monkeypatch, target, n):
    # the whole label moves: a C parameter does not depend on the residue
    label, swap = affine._plain_spectral, {1: 2, 2: 1}
    monkeypatch.setattr(
        affine, "_plain_spectral", lambda t, i, p: label(t, swap.get(i, i), p)
    )
    assert not verify_dorey(target, n).ok
    assert not verify_minimal_pair_predicate(target, n).ok


@pytest.mark.parametrize("call, named", [
    (lambda fq: seqorder.minimal_pairs_of_root(fq.source_class, -1), "-1 "),
    (lambda fq: seqorder.minimal_pairs_of_root(fq.source_class, 99), "99 "),
    (lambda fq: fq.rs.summing_pairs(-1), "-1 "),
    (lambda fq: minimal_pair_coordinates(fq, 99), "99 "),
    (lambda fq: minimal_pair_coordinates(fq, (5, 5, 5)), r"\(5, 5, 5\) "),
    (lambda fq: v_assign(fq, -1), "-1 "),
    (lambda fq: v_assign(fq, 99), "99 "),
    (lambda fq: v_untwisted_twisted(all_quivers(fq.rs)[0], (5, 5, 5), 1), r"\(5, 5, 5\) "),
    (lambda fq: v_untwisted_twisted(all_quivers(fq.rs)[0], 99, 1), "99 "),
], ids=["pairs-of-root-negative", "pairs-of-root-too-big", "summing-pairs-negative",
        "coordinates-index", "coordinates-tuple", "v-assign-negative", "v-assign-too-big",
        "untwisted-twisted-tuple", "untwisted-twisted-index"])
def test_a_bad_root_is_refused(call, named):
    fqs = twisted_folded_quivers("A", 5)
    fq = fqs[min(fqs, key=lambda c: c.canonical_word)]
    for _ in range(2):  # refused on every call, not only the first
        with pytest.raises(ValueError, match=named + "is not a positive root of "):
            call(fq)


def test_minimal_pair_coordinates_op():
    fqs = twisted_folded_quivers("A", 3)
    cls, fq = sorted(fqs.items(), key=lambda kv: kv[0].canonical_word)[0]
    rs = cls.rs
    # a simple root has no minimal pairs
    assert minimal_pair_coordinates(fq, rs.simple_root(1)) == []
    coord = fq.cells
    seen = 0
    for g in range(rs.num_positive):
        for (ip, jq, kr) in minimal_pair_coordinates(fq, g):
            seen += 1
            assert kr == coord[g]
            assert minimal_pair_predicate("B", 2, ip, jq, kr)
    assert seen > 0


def _b_pair_oracle(n, i, p, j, q, k, r):
    """The validated B coordinate conditions, written out branch by branch."""
    l = max(i, j, k)
    if l <= n - 1 and i + j + k == 2 * l and (q - r) % 2 == 0 and (p - r) % 2 == 0:
        half = ((q - r) // 2, (p - r) // 2)
        if l == k and half == (-i, j):
            return True
        if l == i and half == (i - (2 * n - 1), j):
            return True
        if l == j and half == (-i, 2 * n - 1 - j):
            return True
    s = min(i, j, k)
    if s <= n - 1 and sorted((i, j, k))[1:] == [n, n]:
        d = (q - r, p - r)
        if s == k and i == j == n and d == (-(2 * (n - k) - 1), 2 * (n - k) - 1):
            return True
        if s == i and j == k == n and d == (-4 * i, 2 * (n - i) - 1):
            return True
        if s == j and i == k == n and d == (-(2 * (n - j) - 1), 4 * j):
            return True
    return False


def _c_pair_oracle(n, i, p, j, q, k, r):
    """The C coordinate conditions, written out branch by branch."""
    l = max(i, j, k)
    if not (l <= n and i + j + k == 2 * l):
        return False
    d = (q - r, p - r)
    if l == k and d == (-i, j):
        return True
    if l == i and d == (i - (2 * n + 2), j):
        return True
    if l == j and d == (-i, 2 * n + 2 - j):
        return True
    return False


@pytest.mark.parametrize("target, n", [("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4)])
def test_predicate_is_the_coordinate_conditions(target, n):
    # the predicate reads only differences of positions, so the summed
    # root sits at position 0
    oracle = _b_pair_oracle if target == "B" else _c_pair_oracle
    span = range(-(4 * n + 4), 4 * n + 5)
    accepted = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for p in span:
                    for q in span:
                        want = oracle(n, i, p, j, q, k, 0) or oracle(n, j, q, i, p, k, 0)
                        got = minimal_pair_predicate(target, n, (i, p), (j, q), (k, 0))
                        assert got == want, (i, p, j, q, k)
                        accepted += got
    assert accepted > 0


@pytest.mark.parametrize("target, n", [("F", 4), ("X", 3)])
def test_predicate_refuses_a_target_without_a_table(target, n):
    with pytest.raises(ValueError):
        minimal_pair_predicate(target, n, (1, 0), (1, 2), (2, 1))


@pytest.mark.parametrize("target, n, a, b, g", [
    ("B", 3, (9, 0), (9, 2), (9, 1)),
    ("C", 3, (0, 0), (-1, 2), (5, 1)),
    ("B", 3, (1, 0), (2, 2), (4, 1)),
    ("C", 4, (0, 0), (1, 2), (2, 1)),
])
def test_predicate_refuses_a_residue_outside_the_diagram(target, n, a, b, g):
    with pytest.raises(ValueError, match=f"outside 1..{n}"):
        minimal_pair_predicate(target, n, a, b, g)


def test_printed_b_ii_s_k_phases_are_no_label_ratio():
    # the ratio of the B labels at residues i and k has phase 2(i - k); the
    # printed B(ii) s=k entries are the only ones no minimal pair can match
    for n in range(2, 7):
        for e in dorey_triples("B", n, "printed"):
            x, y, z = (affine._label("B", node, 0).parameter for node in (e.i, e.j, e.k))
            reachable = (_over(y, z).phase == e.y_over_z.phase
                         and _over(x, z).phase == e.x_over_z.phase)
            assert reachable == (e.branch != "B(ii) s=k"), e


@pytest.mark.parametrize("suite", [verify_dorey, verify_minimal_pair_predicate])
@pytest.mark.parametrize("target, n, source", [("B", 400, "A"), ("C", 40, "D")])
def test_unsupported_rank_is_refused_before_any_table(monkeypatch, suite, target, n, source):
    def no_table(*args):
        raise AssertionError("a Dorey table was built")

    monkeypatch.setattr(affine, "dorey_triples", no_table)
    rank = 2 * n - 1 if target == "B" else n + 1
    with pytest.raises(FoldingError, match=f"{target}_{n}: rank {rank} of type {source}"):
        suite(target, n)


def test_dorey_triple_realized_in_multiple_classes():
    # existence, not uniqueness: some entry has witnesses in >= 2 classes
    from arfold.seqorder import minimal_pairs_of_root

    keys = {(e.i, e.j, e.k, e.y_over_z, e.x_over_z)
            for e in dorey_triples("B", 2)}
    witnesses = {}
    for cls, fq in twisted_folded_quivers("A", 3).items():
        for g in range(cls.rs.num_positive):
            for a, b in minimal_pairs_of_root(cls, g):
                la, lb, lg = (v_assign(fq, r) for r in (a, b, g))
                for first, second in ((la, lb), (lb, la)):
                    key = (second.node, first.node, lg.node,
                           _over(first.parameter, lg.parameter),
                           _over(second.parameter, lg.parameter))
                    if key in keys:
                        witnesses.setdefault(key, set()).add(cls)
    assert any(len(v) >= 2 for v in witnesses.values())


def test_extra_factor_values():
    assert den_dist_extra_factor("B", 2) == (1, 6)   # (z - q^3)
    assert den_dist_extra_factor("C", 3) == (1, 8)   # (z - q^4)
    assert den_dist_extra_factor("F", 4) == (1, 18)  # (z - (-qs)^18)


def test_verify_counts():
    rep = verify_counts()
    assert rep.ok and rep.checked == 6


def test_report_as_dict():
    rep = verify_den_dist("B", 2)
    doc = rep.as_dict()
    assert doc["ok"] is True and doc["name"].startswith("den-dist")
