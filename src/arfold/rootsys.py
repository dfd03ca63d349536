"""Finite root systems of type A/D/E with exact integer arithmetic.

Roots are coefficient vectors over the simple roots, stored as tuples of
ints.  Nodes are labelled 1..rank following the usual conventions:
type A is the path 1-2-...-n; type D_m is the path 1-...-(m-2) with both
m-1 and m attached to m-2; type E6 is the path 1-2-3-4-5 with 6 attached
to 3.

The positive roots, a reduced word of w_0 and the involution i -> i*
come from one walk from e to w_0 (`RootSystem._walk_longest_element`).

Each printed folding is stated once, as the `Folding` record of
`folding_to`; `RootSystem.diagram_automorphism` reads its automorphism
from there.

The package's records are plain classes on one frozen base, `Frozen`:
slots, hand-written constructors, and equality and hashing over the
fields each compares.  No module imports `dataclasses`, whose class
set-up would run at every import.

Every positive root is also kept packed into one int, one field per
coordinate (`pack`), at the pair width of its root system: the highest
root's largest coefficient doubled, plus a top bit that stays clear.  The
sum of two roots then never carries out of a field, so it is the sum of
their packed ints, and `RootSystem.summing_pairs` finds a pair's sum by
one int add and one dict read.  ``seqorder`` packs its pair weights the
same way.
"""

from __future__ import annotations

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


def pack(v, f: int) -> int:
    """A vector of nonnegative coordinates as one int, f bits per coordinate."""
    k = 0
    for c in reversed(v):
        k = k << f | c
    return k


def _pair_width(roots) -> int:
    """The field width of every pair weight of the positive roots ``roots``,
    sorted by height: the highest root's largest coefficient doubled, plus
    a top bit that stays clear."""
    return (2 * max(roots[-1])).bit_length() + 1


def _edges(type_tag: str, rank: int) -> list[tuple[int, int]]:
    if type_tag == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if type_tag == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    return [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]


class Frozen:
    """Base of the package's frozen records.

    A record lists its fields in ``__slots__`` and sets them in its
    ``__init__`` through ``object.__setattr__``; after that, assigning or
    deleting a field is an AttributeError.  ``_key()`` is the tuple of the
    fields the record compares: two records are equal iff they are of one
    class and their keys are equal, and a record's hash is its key's, the
    value a frozen dataclass would give, so sets of records keep their
    order.  A record holding a dict sets ``__hash__ = None``.  The repr
    shows the fields named in ``_shown``, and copies and pickles rebuild
    the record from them through its constructor.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._shown)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DiagramAutomorphism(Frozen):
    """A diagram automorphism together with its orbit labelling.

    ``perm`` maps each node to its image, ``orbit_label`` maps each node
    to the label of its orbit in the folded diagram.
    """

    __slots__ = _shown = ("perm", "orbit_label")
    __hash__ = None

    def __init__(self, perm: dict[int, int], orbit_label: dict[int, int]):
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "orbit_label", orbit_label)

    def _key(self) -> tuple:
        return (self.perm, self.orbit_label)


class Folding(Frozen):
    """One printed folding, source (type, rank) onto target (letter, n).

    ``h_dual`` is the dual Coxeter number of the target, ``symmetrizer``
    the diagonal of its symmetrizer by orbit label, ``sign_convention``
    the sign convention its distance polynomials match,
    ``twisted_coxeter_word`` has one source letter per orbit, and
    ``automorphism`` is the diagram automorphism of the source that
    folds it, with its orbits labelled as the target's nodes.  ``steps``,
    read off the symmetrizer d, gives each orbit label the steps
    (j, min(d_res, d_j)) of the arrows out of a folded vertex at it, one
    per folded neighbour j; it takes no part in equality or repr.
    """

    _shown = ("source", "target", "h_dual", "symmetrizer", "sign_convention",
              "twisted_coxeter_word", "automorphism")
    __slots__ = _shown + ("steps",)
    __hash__ = None

    def __init__(self, source: tuple[str, int], target: tuple[str, int], h_dual: int,
                 symmetrizer: dict[int, int], sign_convention: str,
                 twisted_coxeter_word: tuple[int, ...], automorphism: DiagramAutomorphism):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "h_dual", h_dual)
        object.__setattr__(self, "symmetrizer", symmetrizer)
        object.__setattr__(self, "sign_convention", sign_convention)
        object.__setattr__(self, "twisted_coxeter_word", twisted_coxeter_word)
        object.__setattr__(self, "automorphism", automorphism)
        d = symmetrizer
        object.__setattr__(self, "steps", {
            res: tuple((j, min(d[res], d[j])) for j in (res - 1, res + 1) if j in d)
            for res in d
        })

    def _key(self) -> tuple:
        return (self.source, self.target, self.h_dual, self.symmetrizer,
                self.sign_convention, self.twisted_coxeter_word, self.automorphism)

    def twisted_longest_word(self) -> tuple[int, ...]:
        """h_dual twisted repetitions of the Coxeter word: a word of w_0."""
        perm = self.automorphism.perm
        word: list[int] = []
        for k in range(self.h_dual):
            word.extend(perm[i] if k % 2 else i for i in self.twisted_coxeter_word)
        return tuple(word)


def _printed_source(letter: str, n: int) -> tuple[str, int] | None:
    """The source of the printed folding onto letter_n, or None if no
    printed folding reaches letter_n."""
    if letter == "B" and n >= 2:
        return "A", 2 * n - 1
    if letter == "C" and n >= 3:
        return "D", n + 1
    if (letter, n) == ("F", 4):
        return "E", 6
    return None


def folding_to(letter: str, n: int) -> Folding:
    """The folding A_{2n-1} -> B_n, D_{n+1} -> C_n or E_6 -> F_4.

    A FoldingError names the rank when root_system does not support the
    source, before anything is built for it.
    """
    src = _printed_source(letter, n)
    if src is None:
        raise FoldingError(f"no printed folding onto {letter}_{n}")
    try:
        check_type_rank(*src)
    except UnsupportedTypeError as exc:
        raise FoldingError(f"no supported folding onto {letter}_{n}: {exc}") from None
    if letter == "B":
        m = 2 * n
        aut = DiagramAutomorphism({i: m - i for i in range(1, m)},
                                  {i: min(i, m - i) for i in range(1, m)})
        sym = {i: 2 if i < n else 1 for i in range(1, n + 1)}
        return Folding(src, ("B", n), 2 * n - 1, sym, "A", tuple(range(1, n + 1)), aut)
    if letter == "C":
        perm = {i: i for i in range(1, n + 2)}
        perm[n], perm[n + 1] = n + 1, n
        aut = DiagramAutomorphism(perm, {i: min(i, n) for i in perm})
        sym = {i: 1 if i < n else 2 for i in range(1, n + 1)}
        return Folding(src, ("C", n), n + 1, sym, "D", tuple(range(1, n + 1)), aut)
    # orbit labels as in the folded table: {1,5}->1, {2,4}->2, {3}->3, {6}->4
    aut = DiagramAutomorphism({1: 5, 5: 1, 2: 4, 4: 2, 3: 3, 6: 6},
                              {1: 1, 5: 1, 2: 2, 4: 2, 3: 3, 6: 4})
    sym = {1: 2, 2: 2, 3: 1, 4: 1}
    return Folding(src, ("F", 4), 9, sym, "D", (1, 2, 6, 3), aut)


def folding_from(type_tag: str, rank: int) -> Folding:
    """The printed folding whose source is type_tag of this rank.

    A source that no printed folding reaches is a FoldingError saying so;
    a printed folding whose source rank root_system does not support
    raises `folding_to`'s error, which names that rank.
    """
    targets = {"A": ("B", (rank + 1) // 2), "D": ("C", rank - 1), "E": ("F", 4)}
    target = targets.get(type_tag)
    if target is None or _printed_source(*target) != (type_tag, rank):
        raise FoldingError(f"{type_tag}_{rank} has no printed folding")
    return folding_to(*target)


class RootSystem:
    """Positive roots, Cartan matrix and Weyl combinatorics for one type.

    One greedy walk of w_0 gives the positive roots, the longest word
    and i -> i*.  The roots are ordered by (height, coefficients) so
    indices are stable across runs.  All state is immutable after
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
        # {i: the jumpers of i}, nodes without any left out: a jumper of i
        # commutes with i and with a neighbour j of i, j < a < i.  Where
        # none precedes the moved i, `words.reflect` canonicalises by
        # deletion and insertion alone.  The A and D labellings have none.
        jumpers = {
            i: frozenset(a for j in adj[i] for a in range(j + 1, i)
                         if a not in adj[i] and a not in adj[j])
            for i in self.nodes
        }
        self.jumpers = {i: at for i, at in jumpers.items() if at}
        # Cartan matrix entries a[i][j], 1-based dict of dicts.
        self.cartan = {
            i: {j: 2 if i == j else (-1 if j in adj[i] else 0) for j in self.nodes}
            for i in self.nodes
        }
        self._longest_word, roots, self._star = self._walk_longest_element()
        self.positive_roots = tuple(sorted(roots, key=lambda r: (sum(r), r)))
        self.root_index = {r: k for k, r in enumerate(self.positive_roots)}
        self.num_positive = len(self.positive_roots)
        self.simple_root_index = {
            i: self.root_index[self.simple_root(i)] for i in self.nodes
        }
        self.pair_width = _pair_width(self.positive_roots)
        self.packed_roots = tuple(pack(r, self.pair_width) for r in self.positive_roots)
        # memos kept per root system, each filled once: the summing pairs,
        # the reflection permutations, and seqorder's packings and height
        # ranks
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
        """<v, h_i> for a vector v in the root lattice, read from the
        coordinates at i and its neighbours, the only nonzero entries of
        row i of the Cartan matrix."""
        row = self.cartan[i]
        return 2 * v[i - 1] + sum(row[j] * v[j - 1] for j in self.adjacent[i])

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

    def _walk_longest_element(self) -> tuple[tuple[int, ...], list[Root], dict[int, int]]:
        """One greedy walk from e to w_0: (its word, the roots it meets, i*).

        images[j] is w(alpha_j) for the word w read so far.  Each step
        appends the least i with w(alpha_i) > 0, which lengthens w, and
        sets w s_i(alpha_j) = w(alpha_j) - a_ij w(alpha_i).  The walk
        stops when every image is negative, i.e. at w_0; the w(alpha_i)
        it appends are the positive roots, each once, and it ends at
        w_0(alpha_j) = -alpha_{j*}.
        """
        images = {j: self.simple_root(j) for j in self.nodes}
        word: list[int] = []
        roots: list[Root] = []
        while True:
            # every image is plus or minus a root: positive iff some c > 0
            i = next((i for i in self.nodes if max(images[i]) > 0), None)
            if i is None:
                break
            beta = images[i]
            word.append(i)
            roots.append(beta)
            for j in self.adjacent[i]:
                c = self.cartan[i][j]
                images[j] = tuple(x - c * y for x, y in zip(images[j], beta))
            images[i] = tuple(-y for y in beta)
        star = {}
        for j, img in images.items():
            if sorted(img) != [-1] + [0] * (self.rank - 1):
                raise AssertionError("w_0 image of a simple root is not -simple")
            star[j] = img.index(-1) + 1
        return tuple(word), roots, star

    def longest_word(self) -> tuple[int, ...]:
        """The reduced word of the longest element that the greedy walk
        reads: at each step the least letter that lengthens."""
        return self._longest_word

    def star(self) -> dict[int, int]:
        """The involution i -> i* with w_0(alpha_i) = -alpha_{i*}."""
        return self._star

    def diagram_automorphism(self) -> DiagramAutomorphism:
        """The automorphism of this type's printed folding, that of
        `folding_from`: A_{2n-1} -> B_n, D_{n+1} -> C_n or E_6 -> F_4.
        """
        try:
            return folding_from(self.type_tag, self.rank).automorphism
        except FoldingError as exc:
            raise UnsupportedTypeError(str(exc)) from None

    def summing_pairs(self, g: int) -> tuple[tuple[int, int], ...]:
        """The index pairs (a, b), a < b, of positive roots summing to root g.

        One pass over all pairs fills the table for every root at once: the
        packed sum of a pair names its root in one dict of the packed roots.
        An index outside 0..N-1 is a ValueError.
        """
        if not 0 <= g < self.num_positive:
            raise ValueError(f"{g!r} is not a positive root of {self}")
        if "summing_pairs" not in self._cache:
            packed = self.packed_roots
            index = {p: r for r, p in enumerate(packed)}
            table: list[list[tuple[int, int]]] = [[] for _ in packed]
            for a, pa in enumerate(packed):
                for b in range(a + 1, len(packed)):
                    g_ab = index.get(pa + packed[b])
                    if g_ab is not None:
                        table[g_ab].append((a, b))
            self._cache["summing_pairs"] = tuple(map(tuple, table))
        return self._cache["summing_pairs"][g]


@lru_cache(maxsize=None)
def root_system(type_tag: str, rank: int) -> RootSystem:
    """Shared, memoized root-system instances."""
    return RootSystem(type_tag, rank)
