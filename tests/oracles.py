"""References and printed fixtures that the tests compare against: small
reads of classes and roots, the cover trichotomy, the class-by-class
Dorey sweep, the E_6 folded quiver of the printed table (with the tables
in ``tests/data``), Coxeter compositions and words.  No suite or CLI path
runs them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

from arfold import affine, seqorder
from arfold.rootsys import Root, RootSystem, folding_from, folding_to, root_system
from arfold.words import CommutationClass, Word, commutation_class
from arfold.arquiver import DynkinQuiver
from arfold.twistfold import FoldedQuiver
from arfold.seqorder import (
    Sequence,
    class_less,
    is_pair,
    minimal_pairs_of_root,
    pair_below,
    support,
)

DATA = Path(__file__).resolve().parent / "data"


def is_positive(v: Root) -> bool:
    """A root's coefficients are all nonnegative and not all zero."""
    return all(c >= 0 for c in v) and any(c > 0 for c in v)


def length(cls: CommutationClass) -> int:
    """The number of letters of the class's words: N."""
    return len(cls.canonical_word)


def comparable(cls: CommutationClass, a: int, b: int) -> bool:
    """Root a comes before root b, or b before a, in every member word."""
    return cls.precedes(a, b) or cls.precedes(b, a)


def interval(cls: CommutationClass, a: int, b: int) -> list[int]:
    """Root indices strictly between a and b in the convex order: the
    bits of above[a] & below[b], listed in canonical-word order."""
    mask = cls.above()[a] & cls.below()[b]
    return [r for r in cls.roots() if mask >> r & 1]


def walk_data(point) -> dict:
    """{class: datum} of one `seqorder.walk_point` walk over a twisted
    point: a read class and its mirror each with the one datum the walk
    hands out for both.  A class handed out twice, not at all, or with a
    quiver that is not the point's is an AssertionError."""
    data = {}
    for datum, quivers in seqorder.walk_point(point):
        for fq in quivers:
            cls = fq.source_class
            if cls in data or point.get(cls) is not fq:
                raise AssertionError(f"class {cls.canonical_word} handed out twice or foreign")
            data[cls] = datum
    if len(data) != len(point):
        raise AssertionError(f"the walk handed out {len(data)} of {len(point)} classes")
    return data


def table_of(counts: dict) -> dict:
    """The table {(k, l): {t: o_t}} of a datum's bucket counts."""
    table: dict[tuple[int, int], dict[int, int]] = {}
    for (k, l, t), (o, _) in counts.items():
        table.setdefault((k, l), {})[t] = o
    return table


def walk_tables(point) -> list[tuple[FoldedQuiver, dict]]:
    """(quiver, table) for every quiver of a twisted point, in the point's
    order, from one walk (`walk_data`): each class once, with a table of
    its own built from its datum's counts."""
    data = walk_data(point)
    return [(fq, table_of(data[cls][0])) for cls, fq in point.items()]


def twin_class(fq: FoldedQuiver) -> CommutationClass:
    """sigma c by definition: the class of c's canonical word relabelled by
    the diagram automorphism of the quiver's folding, canonicalised by
    `commutation_class`."""
    perm = fq.folding.automorphism.perm
    return commutation_class(fq.rs, tuple(perm[i] for i in fq.source_class.canonical_word))


def mirror_class(cls: CommutationClass) -> CommutationClass:
    """c^v by definition: the class of c's reversed, starred canonical
    word, canonicalised by `commutation_class`."""
    star = cls.rs.star()
    return commutation_class(cls.rs, tuple(star[i] for i in reversed(cls.canonical_word)))


def read_classes(point, mirror: bool = True) -> list[CommutationClass]:
    """The classes a walk over a twisted point reads, in the point's order:
    the first class of each orbit {c, sigma c}, or with ``mirror`` of each
    orbit {c, c^v, sigma c, sigma c^v}, the images by `twin_class` and
    `mirror_class`."""
    seen: set = set()
    out = []
    for cls, fq in point.items():
        if cls in seen:
            continue
        orbit = {cls, twin_class(fq)}
        if mirror:
            orbit |= {mirror_class(c) for c in orbit}
        seen |= orbit
        out.append(cls)
    return out


def root_labels(fq: FoldedQuiver) -> dict[tuple[int, int], Root]:
    """The root at each cell of a folded quiver."""
    return {c: fq.rs.positive_roots[r] for r, c in enumerate(fq.cells)}


# ---------------------------------------------------------------------------
# the cover trichotomy


@dataclass(frozen=True)
class CoverClassification:
    """A maximal sequence below a pair, tagged by the printed trichotomy."""

    pair: tuple[int, int]
    cover: Sequence
    case: int  # 1 = summed root, 2 = triple, 3 = pair
    details: tuple[tuple[str, bool], ...] = ()


def classify_cover(cls: CommutationClass, m: Sequence) -> list[CoverClassification]:
    """Classify the maximal sequences below a pair of positive distance."""
    rs = cls.rs
    if not is_pair(m):
        raise ValueError("cover classification applies to pairs")
    a, b = support(m)
    if cls.precedes(b, a):
        a, b = b, a
    below = pair_below(cls, a, b)
    if not below:
        raise ValueError("pair has distance 0")
    covers = [
        x for x in below if not any(y != x and class_less(cls, x, y) for y in below)
    ]
    out = []
    for cov in covers:
        size = sum(cov)
        supp = support(cov)
        if size == 1:
            details = (
                ("pair_is_minimal_pair_of_sum",
                 _pair_is_minimal_of(cls, a, b, supp[0])),
            )
            out.append(CoverClassification((a, b), cov, 1, details))
        elif size == 3 and len(supp) == 3:
            details = _triple_conditions(cls, a, b, supp)
            out.append(CoverClassification((a, b), cov, 2, details))
        elif size == 2:
            details = _pair_cover_conditions(cls, a, b, supp)
            out.append(CoverClassification((a, b), cov, 3, details))
        else:
            out.append(CoverClassification((a, b), cov, 0))
    return out


def _pair_is_minimal_of(cls: CommutationClass, a: int, b: int, g: int) -> bool:
    return tuple(sorted((a, b))) in {
        tuple(sorted(p)) for p in minimal_pairs_of_root(cls, g)
    }


def _triple_conditions(cls, a, b, supp):
    """Conditions (i)-(iv) for the triple case, tried over assignments."""
    rs = cls.rs
    alpha, beta = rs.positive_roots[a], rs.positive_roots[b]
    sum_not_root = tuple(x + y for x, y in zip(alpha, beta)) not in rs.root_index

    def minus(u, v):
        return tuple(x - y for x, y in zip(u, v))

    for mu, nu, eta in permutations(supp):
        mv, nv, ev = (rs.positive_roots[r] for r in (mu, nu, eta))
        mn = tuple(x + y for x, y in zip(mv, nv))
        if mn not in rs.root_index:
            continue
        am, bn = minus(alpha, mv), minus(beta, nv)
        if am not in rs.root_index or bn not in rs.root_index:
            continue
        cond_i = _pair_is_minimal_of(cls, mu, nu, rs.root_index[mn])
        cond_ii = not comparable(cls, eta, mu) and not comparable(cls, eta, nu)
        cond_iii = (
            tuple(x + y for x, y in zip(am, bn)) == ev
            and _pair_is_minimal_of(
                cls, rs.root_index[am], rs.root_index[bn], eta
            )
        )
        cond_iv = _pair_is_minimal_of(
            cls, rs.root_index[am], mu, a
        ) and _pair_is_minimal_of(cls, nu, rs.root_index[bn], b)
        if cond_i and cond_ii and cond_iii and cond_iv:
            return (
                ("sum_not_root", sum_not_root),
                ("i", True),
                ("ii", True),
                ("iii", True),
                ("iv", True),
            )
    return (("sum_not_root", sum_not_root), ("conditions", False))


def _pair_cover_conditions(cls, a, b, supp):
    """Root-difference conditions for the pair case of the trichotomy."""
    rs = cls.rs
    alpha, beta = rs.positive_roots[a], rs.positive_roots[b]

    def diff_in_phi(u, v):
        d = tuple(x - y for x, y in zip(u, v))
        return d in rs.root_index

    # a cover 2 * root has one support root r: both orderings are (r, r)
    for ap, bp in ((supp[0], supp[-1]), (supp[-1], supp[0])):
        av, bv = rs.positive_roots[ap], rs.positive_roots[bp]
        fwd = diff_in_phi(av, alpha) and diff_in_phi(beta, bv)
        bwd = diff_in_phi(alpha, av) and diff_in_phi(bv, beta)
        if fwd or bwd:
            return (("forward", fwd), ("backward", bwd))
    return (("forward", False), ("backward", False))


# ---------------------------------------------------------------------------
# the Dorey sweep, class by class


def dorey_sweep_by_class(target: str, n: int):
    """`affine._dorey_sweep` read anew on every class of the twisted
    point, in canonical-word order: each root's label made plain once per
    class, each summing pair's Dorey keys computed once, its minimality
    read from `minimal_pairs_of_root`.  The table, the keys and the labels
    are read through the ``affine`` module, so a test's mutant of them
    reaches this oracle too."""
    folding = folding_to(target, n)
    validated = affine._validated_keys(target, n)
    pairs = affine.Report(f"dorey {target} n={n}", 0)
    predicate = affine.Report(f"minimal-pair predicate {target} n={n}", 0)
    realized: set = set()
    point = affine.twisted_folded_quivers(*folding.source)
    for cls in sorted(point, key=lambda c: c.canonical_word):
        coord = point[cls].cells
        labels = [affine._plain_spectral(target, *c) for c in coord]
        for g in range(cls.rs.num_positive):
            minimal = set(minimal_pairs_of_root(cls, g))
            for a, b in cls.rs.summing_pairs(g):
                if (b, a) in minimal:
                    a, b = b, a  # a minimal pair in the convex order
                keys = affine._pair_keys(labels, a, b, g)
                listed = not validated.isdisjoint(keys)
                is_minimal = (a, b) in minimal
                predicate.checked += 1
                if listed != is_minimal:
                    predicate.mismatches.append(
                        (cls.canonical_word, coord[a], coord[b], coord[g],
                         "predicate", listed)
                    )
                if is_minimal:
                    pairs.checked += 1
                    realized.update(keys)
                    if not listed:
                        pairs.mismatches.append(
                            ("pair not in table", cls.canonical_word,
                             coord[a], coord[b], coord[g])
                        )
    return pairs, realized, predicate


# ---------------------------------------------------------------------------
# E_6 fixtures


def _load_table(name: str) -> list[tuple[int, int, Root]]:
    out = []
    text = (DATA / name).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        res, pos, digits = line.split()
        out.append((int(res), int(pos), tuple(int(c) for c in digits)))
    return out


@lru_cache(maxsize=None)
def e6_folded_quiver() -> FoldedQuiver:
    """The printed 36-vertex folded quiver of E_6."""
    rs = root_system("E", 6)
    folding = folding_from("E", 6)
    cls = commutation_class(rs, folding.twisted_longest_word())
    cells = [None] * rs.num_positive
    for res, pos, root in _load_table("e6_folded.txt"):
        cells[rs.root_index[root]] = (res, pos)
    return FoldedQuiver(rs, tuple(cells), cls, folding)


# ---------------------------------------------------------------------------
# Coxeter words


def coxeter_composition(
    point: frozenset[CommutationClass] | CommutationClass, aut
) -> tuple[int, ...]:
    """Letter counts per orbit of the automorphism, one entry per label.

    The counts are the same for every member word of every class of a
    cluster point; this is validated across the classes given.
    """
    classes = [point] if isinstance(point, CommutationClass) else sorted(
        point, key=lambda c: c.canonical_word
    )
    comps = set()
    for c in classes:
        counts: dict[int, int] = {}
        for i in c.canonical_word:
            lab = aut.orbit_label[i]
            counts[lab] = counts.get(lab, 0) + 1
        comps.add(tuple(counts.get(lab, 0) for lab in sorted(set(aut.orbit_label.values()))))
    if len(comps) != 1:
        raise AssertionError("Coxeter composition differs across the cluster point")
    return comps.pop()


def is_foldable(point, aut) -> bool:
    comp = coxeter_composition(point, aut)
    return len(set(comp)) == 1


def twisted_coxeter_elements(rs: RootSystem, aut) -> list[Word]:
    """All twisted Coxeter words: one reflection per orbit, in any order.

    Words giving the same group element are deduplicated; the
    lexicographically least word represents each element.
    """
    label = aut.orbit_label
    orbits = sorted({tuple(j for j in rs.nodes if label[j] == label[i]) for i in rs.nodes})
    best: dict[tuple[Root, ...], Word] = {}
    for choice in product(*orbits):
        for order in permutations(choice):
            key = tuple(
                rs.apply_word(order, rs.simple_root(j)) for j in rs.nodes
            )
            if key not in best or order < best[key]:
                best[key] = order
    return sorted(best.values())


def coxeter_element_of(q: DynkinQuiver) -> Word:
    """The unique Coxeter word adapted to Q, by peeling sinks."""
    word = []
    cur = q
    remaining = set(q.rs.nodes)
    while remaining:
        i = min(j for j in remaining if cur.is_sink(j))
        word.append(i)
        cur = cur.reflect(i)
        remaining.discard(i)
    return tuple(word)
