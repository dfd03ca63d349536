"""Finite root systems of type A/D/E with exact integer arithmetic.

Roots are coefficient vectors over the simple roots, stored as tuples of
ints.  Nodes are labelled 1..rank following the usual conventions:
type A is the path 1-2-...-n; type D_m is the path 1-...-(m-2) with both
m-1 and m attached to m-2; type E6 is the path 1-2-3-4-5 with 6 attached
to 3.

Each printed folding is stated once, as the `Folding` record of
`folding_to`; `RootSystem.diagram_automorphism` reads its automorphism
from there, and only the D_4 triality has its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Root = tuple[int, ...]


class UnsupportedTypeError(ValueError):
    pass


class FoldingError(ValueError):
    pass


# The largest rank of type A or D that root_system builds.  The Weyl-group
# combinatorics of this package is out of reach long before it.
MAX_RANK = 32


def check_type_rank(type_tag: str, rank: int) -> None:
    """Raise UnsupportedTypeError, naming the field, unless root_system
    supports (type_tag, rank); builds nothing."""
    if type_tag not in ("A", "D", "E"):
        raise UnsupportedTypeError(f"unknown type {type_tag!r}")
    if type(rank) is not int:
        raise UnsupportedTypeError(f"rank {rank!r} is not an integer")
    low, high = {"A": (1, MAX_RANK), "D": (4, MAX_RANK), "E": (6, 6)}[type_tag]
    if not low <= rank <= high:
        raise UnsupportedTypeError(
            f"rank {rank} of type {type_tag} is not supported "
            f"(need {low} <= rank <= {high})"
        )


def _edges(type_tag: str, rank: int) -> list[tuple[int, int]]:
    if type_tag == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if type_tag == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    return [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A diagram automorphism together with its orbit labelling.

    ``perm`` maps each node to its image, ``orbit_label`` maps each node
    to the label of its orbit in the folded diagram.
    """

    perm: dict[int, int]
    order: int
    orbit_label: dict[int, int]

    def orbit_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.orbit_label.values())))

    def orbit(self, i: int) -> frozenset[int]:
        members, j = set(), i
        while j not in members:
            members.add(j)
            j = self.perm[j]
        return frozenset(members)


@dataclass(frozen=True)
class Folding:
    """One printed folding, source (type, rank) onto target (letter, n).

    ``h_dual`` is the dual Coxeter number of the target, ``symmetrizer``
    the diagonal of its symmetrizer by orbit label, ``sign_convention``
    the sign convention its distance polynomials match,
    ``twisted_coxeter_word`` has one source letter per orbit, and
    ``automorphism`` is the diagram automorphism of the source that
    folds it, with its orbits labelled as the target's nodes.
    """

    source: tuple[str, int]
    target: tuple[str, int]
    h_dual: int
    symmetrizer: dict[int, int]
    sign_convention: str
    twisted_coxeter_word: tuple[int, ...]
    automorphism: DiagramAutomorphism

    def twisted_longest_word(self) -> tuple[int, ...]:
        """h_dual twisted repetitions of the Coxeter word: a word of w_0."""
        perm = self.automorphism.perm
        word: list[int] = []
        for k in range(self.h_dual):
            word.extend(perm[i] if k % 2 else i for i in self.twisted_coxeter_word)
        return tuple(word)


def folding_to(letter: str, n: int) -> Folding:
    """The folding A_{2n-1} -> B_n, D_{n+1} -> C_n or E_6 -> F_4.

    A FoldingError names the rank when root_system does not support the
    source, before anything is built for it.
    """

    def source(type_tag: str, rank: int) -> tuple[str, int]:
        try:
            check_type_rank(type_tag, rank)
        except UnsupportedTypeError as exc:
            raise FoldingError(f"no supported folding onto {letter}_{n}: {exc}") from None
        return type_tag, rank

    if letter == "B" and n >= 2:
        src, m = source("A", 2 * n - 1), 2 * n
        aut = DiagramAutomorphism({i: m - i for i in range(1, m)}, 2,
                                  {i: min(i, m - i) for i in range(1, m)})
        sym = {i: 2 if i < n else 1 for i in range(1, n + 1)}
        return Folding(src, ("B", n), 2 * n - 1, sym, "A", tuple(range(1, n + 1)), aut)
    if letter == "C" and n >= 3:
        src = source("D", n + 1)
        perm = {i: i for i in range(1, n + 2)}
        perm[n], perm[n + 1] = n + 1, n
        aut = DiagramAutomorphism(perm, 2, {i: min(i, n) for i in perm})
        sym = {i: 1 if i < n else 2 for i in range(1, n + 1)}
        return Folding(src, ("C", n), n + 1, sym, "D", tuple(range(1, n + 1)), aut)
    if (letter, n) == ("F", 4):
        # orbit labels as in the folded table: {1,5}->1, {2,4}->2, {3}->3, {6}->4
        aut = DiagramAutomorphism({1: 5, 5: 1, 2: 4, 4: 2, 3: 3, 6: 6}, 2,
                                  {1: 1, 5: 1, 2: 2, 4: 2, 3: 3, 6: 4})
        sym = {1: 2, 2: 2, 3: 1, 4: 1}
        return Folding(("E", 6), ("F", 4), 9, sym, "D", (1, 2, 6, 3), aut)
    raise FoldingError(f"no printed folding onto {letter}_{n}")


def folding_from(type_tag: str, rank: int) -> Folding:
    """The printed folding whose source is type_tag of this rank."""
    targets = {"A": ("B", (rank + 1) // 2), "D": ("C", rank - 1), "E": ("F", 4)}
    try:
        folding = folding_to(*targets[type_tag])
    except (KeyError, FoldingError):
        folding = None
    if folding is None or folding.source != (type_tag, rank):
        raise FoldingError(f"{type_tag}_{rank} has no printed folding")
    return folding


class RootSystem:
    """Positive roots, Cartan matrix and Weyl combinatorics for one type.

    Positive roots are enumerated once, ordered by (height, coefficients)
    so indices are stable across runs.  All state is immutable after
    construction, apart from memos filled on first use, which only grow.
    """

    def __init__(self, type_tag: str, rank: int):
        check_type_rank(type_tag, rank)
        self.type_tag = type_tag
        self.rank = rank
        self.nodes = tuple(range(1, rank + 1))
        self.edges = tuple(_edges(type_tag, rank))
        adj: dict[int, set[int]] = {i: set() for i in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self.adjacent = {i: frozenset(adj[i]) for i in self.nodes}
        # Cartan matrix entries a[i][j], 1-based dict of dicts.
        self.cartan = {
            i: {j: 2 if i == j else (-1 if j in adj[i] else 0) for j in self.nodes}
            for i in self.nodes
        }
        self.positive_roots = self._generate_positive_roots()
        self.root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self.num_positive = len(self.positive_roots)
        self.simple_root_index = {
            i: self.root_index[self.simple_root(i)] for i in self.nodes
        }
        # memos kept per root system, each filled once: the longest word,
        # i -> i*, the summing pairs, the reflection permutations, and
        # seqorder's packed roots and height ranks
        self._cache: dict = {}
        self._hash = hash((type_tag, rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.type_tag}{self.rank})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootSystem):
            return NotImplemented
        return (self.type_tag, self.rank) == (other.type_tag, other.rank)

    def __hash__(self) -> int:
        return self._hash

    def simple_root(self, i: int) -> Root:
        v = [0] * self.rank
        v[i - 1] = 1
        return tuple(v)

    def pairing(self, v: Root, i: int) -> int:
        """<v, h_i> for a vector v in the root lattice."""
        return sum(self.cartan[i][j + 1] * c for j, c in enumerate(v) if c)

    def reflect(self, v: Root, i: int) -> Root:
        c = self.pairing(v, i)
        if not c:
            return v
        w = list(v)
        w[i - 1] -= c
        return tuple(w)

    def reflection_permutation(self, i: int) -> tuple[int, ...]:
        """The action of s_i on positive-root indices, alpha_i to itself.

        s_i permutes the positive roots other than alpha_i; alpha_i, sent
        to -alpha_i, is kept in place by convention.  Built once per i.
        """
        key = ("reflection_permutation", i)
        if key not in self._cache:
            r_i = self.simple_root_index[i]
            self._cache[key] = tuple(
                r if r == r_i else self.root_index[self.reflect(root, i)]
                for r, root in enumerate(self.positive_roots)
            )
        return self._cache[key]

    def apply_word(self, word: tuple[int, ...] | list[int], v: Root) -> Root:
        """Apply s_{i_1} ... s_{i_k} to v (rightmost letter acts first)."""
        for i in reversed(word):
            v = self.reflect(v, i)
        return v

    def is_positive(self, v: Root) -> bool:
        return all(c >= 0 for c in v) and any(c > 0 for c in v)

    def _generate_positive_roots(self) -> tuple[Root, ...]:
        found = {self.simple_root(i) for i in self.nodes}
        frontier = set(found)
        while frontier:
            new = set()
            for r in frontier:
                for i in self.nodes:
                    s = self.reflect(r, i)
                    if self.is_positive(s) and s not in found:
                        new.add(s)
            found |= new
            frontier = new
        roots = sorted(found, key=lambda r: (sum(r), r))
        expected = {
            "A": rank_count_a,
            "D": rank_count_d,
            "E": lambda n: 36,
        }[self.type_tag](self.rank)
        if len(roots) != expected:
            raise AssertionError(
                f"generated {len(roots)} positive roots, expected {expected}"
            )
        return tuple(roots)

    # -- longest element -------------------------------------------------

    def longest_word(self) -> tuple[int, ...]:
        """Some reduced word for the longest element, deterministic."""
        if "longest_word" not in self._cache:
            # images of the simple roots under the product built so far
            images = [self.simple_root(i) for i in self.nodes]
            word: list[int] = []
            while True:
                for i in self.nodes:
                    if self.is_positive(images[i - 1]):
                        break
                else:
                    break
                word.append(i)
                # right-multiply by s_i: new images w*s_i(alpha_j)
                si_alpha = [self.reflect(self.simple_root(j), i) for j in self.nodes]
                images = [
                    tuple(
                        sum(images[k][m] * c for k, c in enumerate(v) if c)
                        for m in range(self.rank)
                    )
                    for v in si_alpha
                ]
            if len(word) != self.num_positive:
                raise AssertionError("longest-element search terminated early")
            self._cache["longest_word"] = tuple(word)
        return self._cache["longest_word"]

    def star(self) -> dict[int, int]:
        """The involution i -> i* with w_0(alpha_i) = -alpha_{i*}."""
        if "star" not in self._cache:
            w0 = self.longest_word()
            star = {}
            for i in self.nodes:
                img = self.apply_word(w0, self.simple_root(i))
                neg = tuple(-c for c in img)
                if neg not in self.root_index or sum(neg) != 1:
                    raise AssertionError("w_0 image of a simple root is not -simple")
                star[i] = neg.index(1) + 1
            self._cache["star"] = star
        return self._cache["star"]

    def diagram_automorphism(self, triality: bool = False) -> DiagramAutomorphism:
        """The automorphism of this type's printed folding, that of
        `folding_from`: A_{2n-1} -> B_n, D_{n+1} -> C_n, E_6 -> F_4 and,
        with ``triality``, D_4 -> G_2.
        """
        if triality:
            if (self.type_tag, self.rank) != ("D", 4):
                raise UnsupportedTypeError("triality only exists for D_4")
            perm = {1: 3, 3: 4, 4: 1, 2: 2}
            labels = {1: 1, 3: 1, 4: 1, 2: 2}
            return DiagramAutomorphism(perm, 3, labels)
        try:
            return folding_from(self.type_tag, self.rank).automorphism
        except FoldingError as exc:
            raise UnsupportedTypeError(str(exc)) from None

    def summing_pairs(self, g: int) -> tuple[tuple[int, int], ...]:
        """The index pairs (a, b), a < b, of positive roots summing to root g.

        One pass over all pairs fills the table for every root at once.
        An index outside 0..N-1 is a ValueError.
        """
        if not 0 <= g < self.num_positive:
            raise ValueError(f"{g!r} is not a positive-root index of {self}")
        if "summing_pairs" not in self._cache:
            table: list[list[tuple[int, int]]] = [[] for _ in self.positive_roots]
            roots, index = self.positive_roots, self.root_index
            for a, ra in enumerate(roots):
                for b in range(a + 1, len(roots)):
                    g_ab = index.get(tuple(x + y for x, y in zip(ra, roots[b])))
                    if g_ab is not None:
                        table[g_ab].append((a, b))
            self._cache["summing_pairs"] = tuple(tuple(pairs) for pairs in table)
        return self._cache["summing_pairs"][g]


def rank_count_a(n: int) -> int:
    return n * (n + 1) // 2


def rank_count_d(n: int) -> int:
    return n * (n - 1)


def trivial_automorphism(rs: RootSystem) -> DiagramAutomorphism:
    ident = {i: i for i in rs.nodes}
    return DiagramAutomorphism(ident, 1, dict(ident))


@lru_cache(maxsize=None)
def root_system(type_tag: str, rank: int) -> RootSystem:
    """Shared, memoized root-system instances."""
    return RootSystem(type_tag, rank)
