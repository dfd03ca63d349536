"""Denominator formulas, spectral assignments and Dorey-rule checks.

Spectral parameters are eps * q_s^t with eps a fourth root of unity
(stored as a power of i); everything outside the twisted assignment of
`v_untwisted_twisted` stays in {+1, -1}.  q = q_s^2 throughout.

The Dorey table for the B target ships in two conventions: "printed",
the branch data in its printed form, and "validated", in which the
three min-index branches carry the exponents that the exhaustive
minimal-pair sweep (and the zero set of the denominator formulas)
forces.  `verify_dorey` reports the discrepancy rather than hiding it.

Dorey's rule is stated once, as that table.  `_plain_spectral` is the
spectral assignment of a folded coordinate as a plain (node, phase,
exponent) triple, and the coordinate characterization of minimal
pairs, `minimal_pair_predicate`, is the "validated" table read through
it: a pair summing to a root is accepted iff the key
(i, j, k, y/z, x/z) of either ordering is an entry.  Keys are compared
as plain integer tuples (i, j, k, y/z phase, y/z exponent, x/z phase,
x/z exponent), made by `_pair_keys` from those triples and by
`_plain_key` from table entries.

`verify_dorey` reads the summing pairs of the twisted point along the
BFS tree of its folded reflections (`_dorey_sweep`).  A folded
reflection at the sink alpha_i keeps every other summing pair, relabelled
by s_i, with its minimality and its cells, so with its keys and its
verdict: the seed reads each of its summing pairs, and every other class
read keeps its parent's verdicts and reads only its own pairs at
alpha_i.  One class of each orbit {c, c^v, sigma c, sigma c^v} is read,
a quarter of the point, sigma the diagram automorphism and c^v the
mirror.  sigma c has the minimal pairs of c relabelled by sigma, and its
cells are c's relabelled up to one shift, which Dorey keys, made of
position differences, do not see.  c^v has the minimal pairs of c, and
its cells (res, C - p) negate every position difference, so its keys
are those of the labels at (res, -p): each pair read gives two
verdicts, c's and c^v's, and c^v takes the two swapped.

The distance suites are reductions over one memo per target,
`_exponent_rows`, each class's exponent row at every key (k, l): class
invariance is one row per key, and a polynomial is built at compare
time, once per distinct (key, row).
"""

from __future__ import annotations

from functools import lru_cache

from .rootsys import Frozen, folding_to
from .arquiver import DynkinQuiver, gamma_q
from .twistfold import FoldedQuiver, twisted_folded_quivers
from .seqorder import (
    RootedPolynomial,
    exponent_rows,
    factor_minus_q_power,
    factor_minus_qs_power,
    factor_plus_q_power,
    is_minimal_pair,
    minimal_pairs_of_root,
    row_polynomial,
    walk_orbits,
    walk_point,
)


class SpectralParameter(Frozen):
    """eps * q_s^exp with eps = i^phase, phase modulo 4."""

    __slots__ = _shown = ("phase", "exp")

    def __init__(self, phase: int, exp: int):
        object.__setattr__(self, "phase", phase % 4)
        object.__setattr__(self, "exp", exp)

    def _key(self) -> tuple:
        return (self.phase, self.exp)

    @classmethod
    def minus_q_power(cls, a: int) -> SpectralParameter:
        return cls(2 * a, 2 * a)

    @classmethod
    def minus_qs_power(cls, a: int) -> SpectralParameter:
        return cls(2 * a, a)

    def __mul__(self, other: SpectralParameter) -> SpectralParameter:
        return SpectralParameter(self.phase + other.phase, self.exp + other.exp)

    def sign(self) -> int:
        if self.phase % 2:
            raise ValueError("parameter is not real")
        return 1 if self.phase == 0 else -1

    def __str__(self) -> str:
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase]
        return f"{pre}qs^{self.exp}"


class FundamentalModuleLabel(Frozen):
    __slots__ = _shown = ("node", "parameter")

    def __init__(self, node: int, parameter: SpectralParameter):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "parameter", parameter)

    def _key(self) -> tuple:
        return (self.node, self.parameter)


# ---------------------------------------------------------------------------
# denominator formulas


def _check_rank(target: str, n: int) -> None:
    """A ValueError for a B or C target of a rank no folding reaches."""
    least = {"B": 2, "C": 3}.get(target, 0)
    if n < least:
        raise ValueError(f"{target} target needs n >= {least}")


def denominator(target: str, n: int, k: int, l: int) -> RootedPolynomial:
    """The printed denominator of the (k, l) fundamental R-matrix."""
    if target == "F":
        if n != 4:
            raise ValueError(f"F target needs n = 4, not F_{n}")
        return f4_denominator(k, l)
    _check_rank(target, n)
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"indices ({k},{l}) out of range for rank {n}")
    if target == "B":
        if k > l:
            k, l = l, k
        factors = []
        if l <= n - 1:
            for s in range(1, min(k, l) + 1):
                factors.append(factor_minus_q_power(abs(k - l) + 2 * s))
                factors.append(factor_plus_q_power(2 * n - k - l - 1 + 2 * s))
        elif k <= n - 1:
            for s in range(1, k + 1):
                sign = (-1) ** (n + k)
                factors.append((sign, 2 * n - 2 * k - 1 + 4 * s))
        else:
            factors = [(1, 4 * s - 2) for s in range(1, n + 1)]
        return RootedPolynomial.from_factors(factors)
    if target == "C":
        factors = []
        for s in range(1, min(k, l, n - k, n - l) + 1):
            factors.append(factor_minus_qs_power(abs(k - l) + 2 * s))
        for s in range(1, min(k, l) + 1):
            factors.append(factor_minus_qs_power(2 * n + 2 - k - l + 2 * s))
        return RootedPolynomial.from_factors(factors)
    raise ValueError(f"unknown target {target!r}")


_F4_EXPONENTS = {
    (1, 1): [4, 10, 12, 18],
    (1, 2): [6, 10, 12, 14, 16],
    (1, 3): [7, 9, 13, 15],
    (1, 4): [8, 14],
    (2, 2): [4, 6, 8, 10, 12, 14, 14, 16, 18],
    (2, 3): [5, 7, 9, 11, 11, 13, 15, 17],
    (2, 4): [6, 10, 12, 16],
    (3, 3): [2, 6, 8, 10, 12, 16, 18],
    (3, 4): [3, 7, 11, 13, 17],
    (4, 4): [2, 8, 12, 18],
}


def f4_denominator(k: int, l: int) -> RootedPolynomial:
    """The conjectural F_4 denominators of the printed exceptional list."""
    key = (min(k, l), max(k, l))
    if key not in _F4_EXPONENTS:
        raise ValueError(f"no F_4 entry for ({k},{l})")
    return RootedPolynomial.from_factors(
        factor_minus_qs_power(t) for t in _F4_EXPONENTS[key]
    )


def den_dist_extra_factor(target: str, n: int) -> tuple[int, int]:
    """The diagonal factor (z - q^{h_dual}) relating den and dist polys.

    For F_4 this is (z - (-q_s)^18), the natural extrapolation.
    """
    return (1, 2 * folding_to(target, n).h_dual)


# ---------------------------------------------------------------------------
# spectral assignments


def _plain_spectral(target: str, i: int, p: int) -> tuple[int, int, int]:
    """(node, phase, exponent) of V(pi_i) at the folded coordinate (i, p):
    (-1)^i q_s^p for the B target, (-q_s)^p for C."""
    if target == "B":
        return (i, 2 * i % 4, p)
    if target == "C":
        return (i, 2 * p % 4, p)
    raise ValueError("spectral assignment is printed for B and C targets only")


def _label(target: str, i: int, p: int) -> FundamentalModuleLabel:
    """`_plain_spectral` as a FundamentalModuleLabel."""
    node, phase, exp = _plain_spectral(target, i, p)
    return FundamentalModuleLabel(node, SpectralParameter(phase, exp))


def _root_index(rs, gamma) -> int:
    """The index of a positive root of ``rs`` named by its index or by its
    coefficients; anything naming no positive root is a ValueError."""
    g = gamma if isinstance(gamma, int) else rs.root_index.get(tuple(gamma))
    if g is None or not 0 <= g < rs.num_positive:
        raise ValueError(f"{gamma!r} is not a positive root of {rs}")
    return g


def v_assign(fq: FoldedQuiver, root_idx: int) -> FundamentalModuleLabel:
    """V(pi_i) with parameter read off the folded coordinate of a root."""
    return _label(fq.folding.target[0], *fq.cells[_root_index(fq.rs, root_idx)])


def v_untwisted_twisted(q: DynkinQuiver, beta, t: int) -> FundamentalModuleLabel:
    """V^(1) and V^(2) labels for a root of an adapted class of type A/D."""
    rs = q.rs
    i, p2 = gamma_q(q).coord_of()[_root_index(rs, beta)]
    if p2 % 2:
        raise AssertionError("Gamma_Q positions must be integers")
    p = p2 // 2
    base = SpectralParameter.minus_q_power(p)
    if t == 1:
        return FundamentalModuleLabel(i, base)
    if t != 2:
        raise ValueError("t must be 1 or 2")
    n = rs.rank
    if rs.type_tag == "A":
        if i <= (n + 1) // 2:
            return FundamentalModuleLabel(i, base)
        sign = SpectralParameter(2 * n, 0)
        return FundamentalModuleLabel(n + 1 - i, sign * base)
    if rs.type_tag == "D":
        if i <= n - 2:
            phase = SpectralParameter(n - i, 0)  # (sqrt(-1))^(n-i)
            return FundamentalModuleLabel(i, phase * base)
        sign = SpectralParameter(2 * i, 0)
        return FundamentalModuleLabel(n - 1, sign * base)
    raise ValueError("twisted assignment is printed for types A and D")


# ---------------------------------------------------------------------------
# Dorey's rule


class DoreyEntry(Frozen):
    __slots__ = _shown = ("i", "j", "k", "y_over_z", "x_over_z", "branch")

    def __init__(self, i: int, j: int, k: int, y_over_z: SpectralParameter,
                 x_over_z: SpectralParameter, branch: str):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "y_over_z", y_over_z)
        object.__setattr__(self, "x_over_z", x_over_z)
        object.__setattr__(self, "branch", branch)

    def _key(self) -> tuple:
        return self.key() + (self.branch,)

    def key(self) -> tuple:
        return (self.i, self.j, self.k, self.y_over_z, self.x_over_z)


def dorey_triples(target: str, n: int, convention: str = "validated") -> list[DoreyEntry]:
    """The finite Dorey condition table for the B or C target.

    For B, branch (ii) differs between the printed text and the version
    the minimal-pair sweep validates; both are available.
    """
    if convention not in ("printed", "validated"):
        raise ValueError("convention must be 'printed' or 'validated'")
    _check_rank(target, n)
    out: list[DoreyEntry] = []
    sp = SpectralParameter
    if target == "B":
        for l in range(1, n):
            for k in range(1, l + 1):
                for i in range(1, l + 1):
                    j = 2 * l - i - k
                    if not 1 <= j <= l or max(i, j, k) != l:
                        continue
                    if l == k:
                        y = sp((j + k) * 2, -2 * i)
                        x = sp((i + k) * 2, 2 * j)
                        out.append(DoreyEntry(i, j, k, y, x, "B(i) l=k"))
                    elif l == i:
                        y = sp((j + k) * 2, 2 * (i - (2 * n - 1)))
                        x = sp((i + k) * 2, 2 * j)
                        out.append(DoreyEntry(i, j, k, y, x, "B(i) l=i"))
                    else:
                        y = sp((j + k) * 2, -2 * i)
                        x = sp((i + k) * 2, 2 * (2 * n - 1 - j))
                        out.append(DoreyEntry(i, j, k, y, x, "B(i) l=j"))
        for s in range(1, n):
            if convention == "printed":
                e = 2 * (n - 1 - s) - 1
                out.append(DoreyEntry(
                    n, n, s,
                    sp(2 * (n + s), -e), sp(2 * (n + 1 + s), e), "B(ii) s=k"))
                out.append(DoreyEntry(
                    s, n, n,
                    sp(0, -4 * s - 4), sp(2 * (s + n), e), "B(ii) s=i"))
                out.append(DoreyEntry(
                    n, s, n,
                    sp(2 * (s + n), -e), sp(0, 4 * s + 4), "B(ii) s=j"))
            else:
                e = 2 * (n - s) - 1
                out.append(DoreyEntry(
                    n, n, s,
                    sp(2 * (n + s), -e), sp(2 * (n + s), e), "B(ii) s=k"))
                out.append(DoreyEntry(
                    s, n, n,
                    sp(0, -4 * s), sp(2 * (s + n), e), "B(ii) s=i"))
                out.append(DoreyEntry(
                    n, s, n,
                    sp(2 * (s + n), -e), sp(0, 4 * s), "B(ii) s=j"))
        return out
    if target == "C":
        for l in range(1, n + 1):
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    j = 2 * l - i - k
                    if not 1 <= j <= n or max(i, j, k) != l:
                        continue
                    if l == k:
                        y, x = sp.minus_qs_power(-i), sp.minus_qs_power(j)
                        out.append(DoreyEntry(i, j, k, y, x, "C l=k"))
                    elif l == i:
                        y = sp.minus_qs_power(i - (2 * n + 2))
                        x = sp.minus_qs_power(j)
                        out.append(DoreyEntry(i, j, k, y, x, "C l=i"))
                    elif l == j:
                        y = sp.minus_qs_power(-i)
                        x = sp.minus_qs_power(2 * n + 2 - j)
                        out.append(DoreyEntry(i, j, k, y, x, "C l=j"))
        return out
    raise ValueError(f"unknown target {target!r}")


def minimal_pair_coordinates(
    fq: FoldedQuiver, gamma
) -> list[tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """Folded coordinate triples ((i,p),(j,q),(k,r)) of the minimal pairs
    of a positive root in the quiver's class, the pair ordered by the
    convex order.  A root index or tuple naming no positive root is a
    ValueError."""
    g = _root_index(fq.rs, gamma)
    coord = fq.cells
    return [
        (coord[a], coord[b], coord[g])
        for a, b in minimal_pairs_of_root(fq.source_class, g)
    ]


def _plain_key(key: tuple) -> tuple:
    """A Dorey key (i, j, k, y/z, x/z) as the plain integer tuple
    (i, j, k, y/z phase, y/z exponent, x/z phase, x/z exponent)."""
    i, j, k, y, x = key
    return (i, j, k, y.phase, y.exp, x.phase, x.exp)


@lru_cache(maxsize=None)
def _validated_keys(target: str, n: int) -> frozenset:
    return frozenset(_plain_key(e.key()) for e in dorey_triples(target, n))


def _pair_keys(labels, a, b, g) -> list:
    """The plain Dorey keys of both orderings of the pair {a, b} summing
    to g, from (node, phase, exponent) labels; in each ordering the first
    root gives i and x."""
    k, zp, ze = labels[g]
    return [
        (i, j, k, (yp - zp) % 4, ye - ze, (xp - zp) % 4, xe - ze)
        for (i, xp, xe), (j, yp, ye) in ((labels[a], labels[b]), (labels[b], labels[a]))
    ]


def minimal_pair_predicate(target: str, n: int, a_coord, b_coord, g_coord) -> bool:
    """The coordinate characterization of minimal pairs: the validated
    Dorey table read through the spectral assignment.

    Coordinates are folded (residue, position) pairs for the pair
    (alpha, beta) and the summed root; the predicate holds iff the key of
    either ordering of the pair is an entry of ``dorey_triples(target, n)``.
    A residue outside 1..n is a ValueError.
    """
    keys = _validated_keys(target, n)
    for i, _ in (a_coord, b_coord, g_coord):
        if not 1 <= i <= n:
            raise ValueError(f"residue {i} outside 1..{n} of {target}_{n}")
    labels = [_plain_spectral(target, *c) for c in (a_coord, b_coord, g_coord)]
    return not keys.isdisjoint(_pair_keys(labels, 0, 1, 2))


# ---------------------------------------------------------------------------
# verification sweeps


class Report:
    """Outcome of one verification suite: it passes iff it has no
    mismatch.  A report is mutable and unhashable, and each has its own
    lists."""

    __slots__ = ("name", "checked", "mismatches", "notes")

    def __init__(self, name: str, checked: int, mismatches: list | None = None,
                 notes: list | None = None):
        self.name = name
        self.checked = checked
        self.mismatches = [] if mismatches is None else mismatches
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.checked, self.mismatches, self.notes)
                == (other.name, other.checked, other.mismatches, other.notes))

    def __repr__(self) -> str:
        return (f"Report(name={self.name!r}, checked={self.checked!r}, "
                f"mismatches={self.mismatches!r}, notes={self.notes!r})")

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "mismatches": [str(m) for m in self.mismatches],
            "notes": list(self.notes),
        }


def _keys(n: int) -> list[tuple[int, int]]:
    """The keys (k, l), 1 <= k <= l <= n, of a distance table, in order."""
    return [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]


@lru_cache(maxsize=None)
def _exponent_rows(target: tuple[str, int]) -> dict:
    """{cls: rows} over the twisted point folding onto ``target``: the
    exponent row of the class's counts at each key of `_keys`
    (`exponent_rows`), read off one `walk_point` walk, the classes that
    share a datum with one rows tuple.
    Equal rows are one object, and so are equal rows tuples.

    A row is all that a distance polynomial reads: under either sign
    convention the polynomial at (k, l) is the product over t of
    (z - eps q_s^t)^ceil(o_t / 2), eps a function of (convention, k, l, t)
    alone, and `RootedPolynomial` keys its factors by (eps, t).  So equal
    rows give equal polynomials under both conventions, and equal
    polynomials equal rows, as each t has one factor: a polynomial is
    class-invariant at (k, l) iff the classes have one row there.
    Memoised per target; callers must not change it.
    """
    keys = _keys(target[1])
    interned: dict = {}
    rows_of = {}
    point = twisted_folded_quivers(*folding_to(*target).source)
    for (counts, _), quivers in walk_point(point):
        by_key = exponent_rows(counts)
        rows = tuple(by_key.get(key, ()) for key in keys)
        rows = interned.setdefault(rows, tuple(interned.setdefault(r, r) for r in rows))
        for fq in quivers:
            rows_of[fq.source_class] = rows
    return rows_of


def _classes_by_rows(target: tuple[str, int]) -> dict:
    """{rows: classes}: the classes of `_exponent_rows` by their rows."""
    groups: dict = {}
    for cls, rows in _exponent_rows(target).items():
        groups.setdefault(rows, []).append(cls)
    return groups


def _polynomial(target: tuple[str, int], key, row, convention: str) -> RootedPolynomial:
    """The distance polynomial of an exponent row at ``key`` = (k, l)
    under one convention, times the diagonal factor at k = l."""
    poly = row_polynomial(row, *key, convention)
    extra = RootedPolynomial.from_factors([den_dist_extra_factor(*target)])
    return poly * extra if key[0] == key[1] else poly


def verify_den_dist(target: str, n: int) -> Report:
    """den = dist poly x diagonal factor, class by class, exactly: one
    polynomial per distinct (key, row), one denominator per key."""
    folding = folding_to(target, n)
    groups = _classes_by_rows(folding.target)
    keys = _keys(n)
    rep = Report(f"den-dist {target} n={n}", sum(map(len, groups.values())) * len(keys))
    for j, key in enumerate(keys):
        den = denominator(target, n, *key)
        polys = {row: _polynomial(folding.target, key, row, folding.sign_convention)
                 for row in {rows[j] for rows in groups}}
        for rows, classes in groups.items():
            if polys[rows[j]] != den:
                rep.mismatches.extend(
                    (cls.canonical_word, key, str(polys[rows[j]]), str(den)) for cls in classes)
    rep.mismatches.sort(key=lambda m: m[:2])  # by class, then by key
    return rep


def verify_class_invariance(target: str, n: int) -> Report:
    """The distance polynomial must not depend on the class: one
    exponent row per key (`_exponent_rows`)."""
    folding = folding_to(target, n)
    groups = _classes_by_rows(folding.target)
    keys = _keys(n)
    rep = Report(f"class-invariance {target} n={n}", sum(map(len, groups.values())) * len(keys))
    for j, key in enumerate(keys):
        if len({rows[j] for rows in groups}) != 1:
            rep.mismatches.append((key, "polynomials differ across classes"))
    return rep


def _read_pairs(fq: FoldedQuiver, pairs, target: str, validated, realized: set) -> tuple:
    """(minimal pairs, mismatches, mirror mismatches) of some summing pairs
    (g, a, b), a < b, of the quiver's class, each pair read once: its
    minimality (`is_minimal_pair`), then two verdicts, each whether some
    Dorey key of the pair is ``validated``.  The first reads the keys of
    the plain labels of its cells (res, p), the second those of the labels
    at (res, -p), which are the keys of the class's mirror (`_dorey_sweep`).
    The keys of a minimal pair, both kinds, join ``realized``.  A mismatch
    is (g, a, b, listed), a pair whose verdict is not its minimality."""
    cls = fq.source_class
    below, above, summing = cls.below(), cls.above(), cls.rs.summing_pairs
    cells = fq.cells
    labels, mirrored = {}, {}
    for x in {x for pair in pairs for x in pair}:
        res, p = cells[x]
        labels[x] = _plain_spectral(target, res, p)
        mirrored[x] = _plain_spectral(target, res, -p)
    count, mismatches, mirror_mismatches = 0, [], []
    for g, a, b in pairs:
        minimal = is_minimal_pair(below, above, summing(g), a, b)
        keys, mirror_keys = _pair_keys(labels, a, b, g), _pair_keys(mirrored, a, b, g)
        listed = not validated.isdisjoint(keys)
        mirror_listed = not validated.isdisjoint(mirror_keys)
        if minimal:
            count += 1
            realized.update(keys, mirror_keys)
        if listed != minimal:
            mismatches.append((g, a, b, listed))
        if mirror_listed != minimal:
            mirror_mismatches.append((g, a, b, mirror_listed))
    return count, mismatches, mirror_mismatches


def _carry(data: tuple, parent: FoldedQuiver, i: int, at_i) -> tuple:
    """The parent's (minimal pairs, mismatches, mirror mismatches) without
    its pairs at alpha_i, ``at_i``, the rest relabelled by s_i.

    alpha_i is minimal in the parent's convex order and maximal in the
    child's, so a pair at alpha_i never lies below another pair.  Every
    other summing pair {a, b} of g becomes {s_i a, s_i b} of s_i g with
    its order, its minimality and its three cells, so its keys, its
    mirror keys and both its verdicts are kept.
    """
    count, *found = data
    rs, cls = parent.rs, parent.source_class
    below, above = cls.below(), cls.above()
    count -= sum(is_minimal_pair(below, above, rs.summing_pairs(g), a, b) for g, a, b in at_i)
    r, perm = rs.simple_root_index[i], rs.reflection_permutation(i)
    return (count, *[
        [(perm[g], *sorted((perm[a], perm[b])), listed)
         for g, a, b, listed in mismatches if r != a and r != b]
        for mismatches in found
    ])


def _twin_pairs(data: tuple, sigma) -> tuple:
    """The (minimal pairs, mismatches, mirror mismatches) of a class's sigma
    twin: the same count, and both lists relabelled by sigma on root
    indices."""
    count, *found = data
    return (count, *[
        [(sigma[g], *sorted((sigma[a], sigma[b])), listed) for g, a, b, listed in mismatches]
        for mismatches in found
    ])


def _mirror_pairs(data: tuple) -> tuple:
    """The (minimal pairs, mismatches, mirror mismatches) of a class's
    mirror: the same count, and the two lists swapped."""
    count, mismatches, mirror_mismatches = data
    return count, mirror_mismatches, mismatches


def _dorey_sweep(target: str, n: int) -> tuple[Report, set, Report]:
    """One walk over the summing pairs of every class of the twisted point.

    Each class keeps its minimal-pair count and two lists of mismatches,
    by root index, its own and its mirror's, along the BFS tree of the
    walk over the orbits {c, c^v, sigma c, sigma c^v} (`walk_orbits`),
    which reads one class of each: the seed reads every summing pair
    (`_read_pairs`), and a child reached by the folded reflection at the
    sink alpha_i keeps its parent's, without the parent's pairs at alpha_i
    (`_carry`), and reads only its own pairs at alpha_i, the pairs
    {alpha_i, beta} with alpha_i + beta a root.

    sigma c takes c's count and both lists relabelled by sigma
    (`_twin_pairs`): sigma carries c's summing pairs and their order onto
    sigma c's, and its cells are c's up to one shift, which the walk
    checks (`_assert_twinned`).  A Dorey key is made of differences of
    the plain labels (node, phase, exponent) of three cells, and a shift
    of every position by s adds s to every exponent and one amount to
    every phase (2 s for C, 0 for B, whose phase is 2 res), so no key
    sees it, and every key and verdict is kept.

    c^v takes c's count and the two lists swapped (`_mirror_pairs`).  Its
    convex order is c's reversed, and a summing pair {c', d'} lies below
    {a, b} iff c' and d' are both inner in the four roots, which the
    reversal keeps: c^v has c's minimal pairs.  Its cells are (res, C - p)
    for c's (res, p), one C per class, which the walk checks before the
    read (`_assert_mirrored`).  That is the cells (res, -p) shifted by C,
    so by the rule above c^v's keys are `_pair_keys` of the labels
    `_plain_spectral(target, res, -p)` of c's cells: each exponent
    difference negated, each phase difference kept, as 2 d = -2 d modulo
    4.  So each pair read gives c's verdict and c^v's, and the keys of a
    minimal pair at c and at c^v join the realized keys.  Every class's
    keys are then those of the seed, of its mirror and of the new pairs
    at alpha_i of the classes read and of their mirrors.

    Returns the minimal-pair report (checked = minimal pairs, a mismatch
    per pair whose keys are not in the validated table), the realized
    keys, and the report of the predicate against minimality over all
    summing pairs, the mismatches sorted by canonical word, root and
    summing pair, as a class-by-class sweep finds them.
    """
    folding = folding_to(target, n)  # refuse an unsupported rank before any table
    validated = _validated_keys(target, n)
    point = twisted_folded_quivers(*folding.source)
    rs = next(iter(point)).rs
    every = [(g, a, b) for g in range(rs.num_positive) for a, b in rs.summing_pairs(g)]
    at = {i: [p for p in every if rs.simple_root_index[i] in p[1:]] for i in rs.nodes}
    realized: set = set()

    def read(fq, up):
        if up is None:
            return _read_pairs(fq, every, target, validated, realized)
        data, parent, i = up
        count, kept, kept_mirror = _carry(data, parent, i, at[i])
        new_count, new, new_mirror = _read_pairs(fq, at[i], target, validated, realized)
        return count + new_count, kept + new, kept_mirror + new_mirror

    pairs = Report(f"dorey {target} n={n}", 0)
    predicate = Report(f"minimal-pair predicate {target} n={n}", len(point) * len(every))
    found = []
    for (count, mismatches, _), quivers in walk_orbits(point, read, _twin_pairs, _mirror_pairs):
        for fq in quivers:
            pairs.checked += count
            if mismatches:
                found.append((fq.source_class.canonical_word, fq, mismatches))
    for word, fq, mismatches in sorted(found, key=lambda f: f[0]):
        cls, coord = fq.source_class, fq.cells
        for g, a, b, listed in sorted(mismatches):  # (g, a): the summing-pair order
            if not listed and cls.precedes(b, a):
                a, b = b, a  # a minimal pair in the convex order
            predicate.mismatches.append(
                (word, coord[a], coord[b], coord[g], "predicate", listed))
            if not listed:
                pairs.mismatches.append(
                    ("pair not in table", word, coord[a], coord[b], coord[g]))
    return pairs, realized, predicate


def verify_dorey(target: str, n: int) -> Report:
    """Both inclusions of the Dorey correspondence, plus the predicate.

    (<=): the spectral ratios of every minimal pair appear in the table;
    (>=): every table entry is realized by a minimal pair in some class.
    The coordinate predicate is checked to be exactly equivalent to
    minimality, in the same pass over the summing pairs.  Branches of
    the printed table that never match are reported.
    """
    rep, realized, predicate = _dorey_sweep(target, n)
    missing = _validated_keys(target, n) - realized
    if missing:
        sp = SpectralParameter
        rep.mismatches.append(("unrealized validated entries", sorted(
            (i, j, k, str(sp(yp, ye)), str(sp(xp, xe)))
            for i, j, k, yp, ye, xp, xe in missing)))
    bad_branches = sorted({
        e.branch for e in dorey_triples(target, n, "printed")
        if _plain_key(e.key()) not in realized
    })
    if bad_branches:
        rep.notes.append(
            "printed branches never realized by any minimal pair "
            f"(suspected typos): {bad_branches}"
        )
    rep.notes.append(
        "table convention 'validated' corrects the B(ii) exponents; "
        "see dorey_triples for both versions"
        if target == "B" else "printed table used as-is"
    )
    rep.checked += predicate.checked
    rep.mismatches.extend(predicate.mismatches)
    return rep


def verify_minimal_pair_predicate(target: str, n: int) -> Report:
    """Coordinate predicate == minimality, over all summing pairs."""
    return _dorey_sweep(target, n)[2]


def verify_f4_conjecture() -> Report:
    """Class invariance over E_6 and the match with the listed F_4 table.

    The diagonal factor (z - (-q_s)^18) is the natural extrapolation of
    the den = dist x diagonal pattern, a hypothesis rather than an
    established identity.  The
    report names the sign convention that matches and lists, entry by
    entry, where the definitional distance polynomial differs from the
    listed table (it carries strictly more factors at three entries).
    It passes iff the polynomials are class-invariant and exactly one
    convention matches every entry: two full matches are a mismatch.
    """
    target = ("F", 4)
    groups = _classes_by_rows(target)
    classes = sum(map(len, groups.values()))
    rep = Report("f4 conjecture", 0)
    entry_match = {"A": {}, "D": {}}
    invariant = True
    computed: dict[tuple[int, int], dict[str, RootedPolynomial]] = {}
    for conv in ("A", "D"):
        for j, key in enumerate(_keys(4)):
            rep.checked += classes
            distinct = {rows[j] for rows in groups}
            if len(distinct) != 1:
                invariant = False
                rep.mismatches.append((conv, key, "not class-invariant"))
                continue
            dhat = _polynomial(target, key, distinct.pop(), conv)
            computed.setdefault(key, {})[conv] = dhat
            entry_match[conv][key] = dhat == f4_denominator(*key)
    full = [c for c in ("A", "D") if all(entry_match[c].values())]
    if len(full) == 2:
        rep.mismatches.append(("A", "D", "both conventions match every entry"))
    counts = {c: sum(entry_match[c].values()) for c in ("A", "D")}
    best = max(counts, key=lambda c: counts[c])
    entries, h = len(_F4_EXPONENTS), folding_to("F", 4).h_dual
    rep.notes.append(f"class-invariance over all {classes} classes: {invariant}")
    rep.notes.append(
        f"entries matching the listed table: A {counts['A']}/{entries}, "
        f"D {counts['D']}/{entries}"
        + (f"; full match under {full}" if full else "; no full match")
    )
    rep.notes.append(f"closest sign convention: {best}")
    for key, ok in sorted(entry_match[best].items()):
        if not ok:
            rep.mismatches.append(
                (best, key, f"computed {computed[key][best]}",
                 f"listed {f4_denominator(*key)}")
            )
    rep.notes.append(
        f"diagonal factor (z-(-qs)^{2 * h}) = (z-q^{h}) with {h} the dual Coxeter "
        "number of F_4: extrapolated hypothesis, not a printed identity"
    )
    return rep


def verify_counts() -> Report:
    """Cluster-point cardinalities for the printed cases."""
    from .words import adapted_point, twisted_adapted_point

    rep = Report("counts", 0)
    expected = [
        ("adapted", "A", 4, 8),
        ("adapted", "A", 5, 16),
        ("twisted", "A", 5, 16),
        ("twisted", "D", 4, 8),
        ("twisted", "D", 5, 16),
        ("twisted", "E", 6, 32),
    ]
    for kind, tt, rk, want in expected:
        point = (adapted_point if kind == "adapted" else twisted_adapted_point)(tt, rk)
        rep.checked += 1
        if len(point) != want:
            rep.mismatches.append((kind, tt, rk, len(point), want))
    return rep
