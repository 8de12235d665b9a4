"""k-uniform hypergraphs with dense colex-rank indexing.

A k-subset of the vertex range [0, n) is a strictly increasing tuple of
ints.  Subsets are ordered colexicographically (compare the largest
differing element), and a hypergraph stores one indicator byte per rank,
giving O(1) membership and a canonical iteration order.  Hypergraphs are
immutable: every operation returns a new instance, so shared read-only use
is safe.

Ranking uses the combinatorial number system (Knuth, TAOCP 4A 7.2.1.3):
the colex rank of s is the sum of comb(s[i], i + 1).  The hot paths
(building a hypergraph, parsing, relabeling, coverage counts) look those
binomials up in a table built lazily and cached per (n, k), holding only
the k * (n - k + 1) values a valid subset can reach.  Nothing is ever
unranked on the way out: `edges()` walks every k-subset in colex order and
keeps those whose indicator byte is set, and the parser ranks each edge
line straight from its tokens.  `rank_colex`, `subset_rank` and
`unrank_colex` remain the table-free per-subset entry points.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, compress, islice, repeat
from math import comb
from operator import add, getitem, itemgetter, lt, sub
from pathlib import Path

__all__ = [
    "MAX_POSITIONS",
    "Hypergraph",
    "Permutation",
    "colex_walk",
    "coverage",
    "from_edge_list_text",
    "rank_colex",
    "read_edge_list",
    "subset_rank",
    "to_edge_list_text",
    "unrank_colex",
    "validate_ksubset",
    "write_edge_list",
]

# Refuse indicator allocations past this many subset positions; a clear
# error beats an accidental multi-gigabyte bytearray.
MAX_POSITIONS = 1 << 24


def subset_rank(s) -> int:
    """Colex rank of a strictly increasing vertex tuple (no validation)."""
    return sum(comb(v, i + 1) for i, v in enumerate(s))


def validate_ksubset(s, n: int, k: int) -> None:
    """Raise ValueError unless s is a strictly increasing k-tuple inside [0, n)."""
    if len(s) != k:
        raise ValueError(f"subset {tuple(s)} has {len(s)} vertices, expected {k}")
    prev = -1
    for v in s:
        if v <= prev:
            raise ValueError(f"subset {tuple(s)} is not strictly increasing")
        prev = v
    if k and (s[0] < 0 or s[-1] >= n):
        raise ValueError(f"subset {tuple(s)} leaves the vertex range [0, {n})")


def rank_colex(s, n: int, k: int) -> int:
    """Colex rank of the k-subset s among all k-subsets of [0, n)."""
    s = tuple(s)
    validate_ksubset(s, n, k)
    return subset_rank(s)


def unrank_colex(r: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of [0, n) with colex rank r; inverse of rank_colex."""
    total = comb(n, k)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {total}) for n={n}, k={k}")
    out = [0] * k
    c = n - 1
    for size in range(k, 0, -1):
        # Largest c with comb(c, size) <= r picks the biggest remaining vertex.
        while comb(c, size) > r:
            c -= 1
        out[size - 1] = c
        r -= comb(c, size)
        c -= 1
    return tuple(out)


@lru_cache(maxsize=64)
def _binomial_table(n: int, k: int) -> tuple:
    """rows[i][v - i] == comb(v, i + 1) for 0 <= i < k and i <= v <= n - k + i.

    Position i of a strictly increasing k-subset of [0, n) holds a vertex in
    [i, n - k + i], so each row is indexed by the vertex minus its position
    and holds n - k + 1 values; the whole table stays O(n + comb(n, k)).
    """
    span = range(n - k + 1)
    return tuple(
        span if i == 0 else tuple(comb(u + i, i + 1) for u in span)
        for i in range(k)
    )


def _column_ranks(rows, columns):
    """Colex ranks, lazily, of the subsets whose i-th vertices run down
    columns[i]; rows is the binomial table for their n and k (no validation)."""
    ranks = columns[0]
    for i in range(1, len(columns)):
        shifted = map(sub, columns[i], repeat(i))
        ranks = map(add, ranks, map(rows[i].__getitem__, shifted))
    return ranks


def colex_walk(n: int, k: int):
    """Every k-subset of [0, n) in colex order, as a lazy iterator.

    The subsets whose largest vertex is `top` come right after all subsets
    of [0, top), in the colex order of their first k - 1 vertices; those
    are the first comb(top, k - 1) (k-1)-subsets of [0, n - 1).  One list of
    those, extended by each top in turn, yields the whole walk while
    holding only comb(n - 1, k - 1) tuples.
    """
    if k == 0:
        return iter(((),))
    heads = list(colex_walk(n - 1, k - 1))
    return chain.from_iterable(
        map(tuple.__add__, islice(heads, comb(top, k - 1)), repeat((top,)))
        for top in range(k - 1, n)
    )


def _positions(n: int, k: int) -> int:
    """comb(n, k), after checking that a hypergraph of that shape is supported."""
    if not 1 <= k <= n:
        raise ValueError(f"uniformity k={k} must satisfy 1 <= k <= n={n}")
    positions = comb(n, k)
    if positions > MAX_POSITIONS:
        raise ValueError(
            f"comb({n},{k})={positions} subset positions exceed the "
            f"supported bound of {MAX_POSITIONS}"
        )
    return positions


class Permutation:
    """A bijection on the vertex range [0, n), stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"images {images} are not a permutation of 0..{n - 1}")
            seen[v] = True
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v]

    def apply_to_subset(self, s) -> tuple[int, ...]:
        """Image of a vertex subset, re-sorted ascending."""
        return tuple(sorted(self.images[v] for v in s))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for v, w in enumerate(self.images):
            inv[w] = v
        return Permutation(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self * other: apply other first, then self."""
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different lengths")
        return Permutation(self.images[w] for w in other.images)

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)!r})"


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    Edges are k-subsets kept as an indicator over colex ranks plus the
    sorted rank tuple, so membership is O(1) and iteration order is
    canonical.  Two hypergraphs are equal iff they have the same n, k, and
    edge set.
    """

    __slots__ = ("n", "k", "positions", "_bits", "_ranks", "_edge_memo")

    def __init__(self, n: int, k: int, edges=()):
        subsets = [tuple(e) for e in edges]
        for s in subsets:
            validate_ksubset(s, n, k)
        positions = _positions(n, k)
        columns = [map(itemgetter(i), subsets) for i in range(k)]
        ranks = list(_column_ranks(_binomial_table(n, k), columns))
        self._setup(n, k, positions, ranks)

    @classmethod
    def from_ranks(cls, n: int, k: int, ranks) -> "Hypergraph":
        """Build from colex ranks directly (validated for range and duplicates)."""
        obj = cls.__new__(cls)
        obj._setup(n, k, _positions(n, k), list(ranks))
        return obj

    @classmethod
    def empty(cls, n: int, k: int) -> "Hypergraph":
        return cls.from_ranks(n, k, ())

    @classmethod
    def complete(cls, n: int, k: int) -> "Hypergraph":
        return cls.from_ranks(n, k, range(comb(n, k)))

    def _setup(self, n, k, positions, ranks):
        bits = bytearray(positions)
        for r in ranks:
            if not 0 <= r < positions:
                raise ValueError(f"edge rank {r} out of range [0, {positions})")
            if bits[r]:
                raise ValueError(f"duplicate edge at rank {r}")
            bits[r] = 1
        self.n = n
        self.k = k
        self.positions = positions
        self._bits = bits
        self._ranks = tuple(sorted(ranks))
        self._edge_memo = None

    @property
    def edge_count(self) -> int:
        return len(self._ranks)

    @property
    def edge_ranks(self) -> tuple[int, ...]:
        """Colex ranks of the edges, ascending."""
        return self._ranks

    @property
    def indicator(self) -> memoryview:
        """Read-only bytes over the colex ranks: byte r is 1 iff rank r is an edge."""
        return memoryview(self._bits).toreadonly()

    def has_rank(self, r: int) -> bool:
        if not 0 <= r < self.positions:
            raise ValueError(f"rank {r} out of range [0, {self.positions})")
        return bool(self._bits[r])

    def has_edge(self, s) -> bool:
        return bool(self._bits[rank_colex(tuple(s), self.n, self.k)])

    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge subsets in colex-rank order (memoized)."""
        if self._edge_memo is None:
            self._edge_memo = tuple(
                compress(colex_walk(self.n, self.k), self._bits)
            )
        return self._edge_memo

    def complement(self) -> "Hypergraph":
        """Same vertices, edge set flipped to the unused k-subsets."""
        bits = self._bits
        return Hypergraph.from_ranks(
            self.n, self.k, [r for r in range(self.positions) if not bits[r]]
        )

    def permute(self, sigma: Permutation) -> "Hypergraph":
        """Relabel vertices through sigma; edges are re-sorted images."""
        if sigma.n != self.n:
            raise ValueError(f"permutation length {sigma.n} != order {self.n}")
        image = sigma.images.__getitem__
        rows = _binomial_table(self.n, self.k)
        shifts = range(self.k)
        return Hypergraph.from_ranks(
            self.n,
            self.k,
            [
                sum(map(getitem, rows, map(sub, sorted(map(image, e)), shifts)))
                for e in self.edges()
            ],
        )

    def is_complete_on(self, vertices) -> bool:
        """True iff every k-subset of the given vertex set is an edge."""
        vs = sorted(vertices)
        for prev, v in zip([-1] + vs, vs):
            if v == prev:
                raise ValueError(f"vertex set has a repeated vertex {v}")
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range [0, {self.n})")
        if len(vs) < self.k:
            raise ValueError(f"need at least k={self.k} vertices, got {len(vs)}")
        bits = self._bits
        return all(bits[subset_rank(c)] for c in combinations(vs, self.k))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self._ranks) == (other.n, other.k, other._ranks)

    def __hash__(self):
        return hash((self.n, self.k, self._ranks))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, k={self.k}, edges={self.edge_count})"


def coverage(h: Hypergraph, t: int) -> list[int]:
    """counts[r] is the number of edges containing the t-subset of colex rank r.

    For each choice of t of the k positions in an edge, the ranks of the
    chosen t-subsets are summed column by column from the binomial table
    and tallied in one pass, so no t-subset is built as a tuple.
    """
    if not 1 <= t <= h.k:
        raise ValueError(f"need 1 <= t <= k={h.k}, got t={t}")
    rows = _binomial_table(h.n, t)
    edges = h.edges()
    tally = Counter()
    for places in combinations(range(h.k), t):
        columns = [map(itemgetter(j), edges) for j in places]
        tally.update(_column_ranks(rows, columns))
    return list(map(tally.get, range(comb(h.n, t)), repeat(0)))


# ---------------------------------------------------------------------------
# Edge-list text format
#
# Line 1:  "p hsc <n> <k>"
# then     optional comment lines "c <text>"
# then     one line per edge "e <v1> <v2> ..." with vertices ascending and
#          edges in colex-rank order; single spaces, decimal integers,
#          newline-terminated.
# ---------------------------------------------------------------------------


def to_edge_list_text(h: Hypergraph, comments=()) -> str:
    """Serialize a hypergraph to the edge-list text format (bit-exact)."""
    lines = [f"p hsc {h.n} {h.k}"]
    for c in comments:
        if "\n" in c:
            raise ValueError("comments must be single lines")
        lines.append(f"c {c}")
    for e in h.edges():
        lines.append("e " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def _parse_uint(token: str, context: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{context}: expected a decimal integer, got {token!r}")
    return int(token)


# Edge lines per block on the fast parse route: enough to amortise the
# per-block calls, few enough that a block's token strings (about 0.2 MB
# at k = 3) stay small next to the hypergraph being parsed.
_PARSE_BLOCK = 1024


def _fast_edge_ranks(lines, n: int, k: int) -> list[int] | None:
    """Colex ranks of edge lines that are all on the fast route, else None.

    The fast route takes exactly the lines the strict loop accepts without
    complaint: "e" and k ASCII-digit tokens joined by single spaces, with
    values strictly increasing and below n.  Each block of lines is checked
    and ranked column by column; any other line makes the whole document
    fall back to the strict loop, which reports it.
    """
    rows = _binomial_table(n, k)
    width = k + 1
    ranks = []
    for start in range(0, len(lines), _PARSE_BLOCK):
        block = lines[start : start + _PARSE_BLOCK]
        text = " ".join(block)
        fields = text.split(" ")
        # Every line opens with an "e" field and every other field must be
        # digits, so width * len(block) fields put each line at width fields.
        if not (
            text.isascii()
            and len(fields) == width * len(block)
            and all(map(str.startswith, block, repeat("e ")))
        ):
            return None
        del fields[::width]
        if not all(map(str.isdigit, fields)):
            return None
        values = list(map(int, fields))
        columns = [values[i::k] for i in range(k)]
        if max(columns[-1]) >= n or not all(
            all(map(lt, low, high)) for low, high in zip(columns, columns[1:])
        ):
            return None
        ranks.extend(_column_ranks(rows, columns))
    return ranks


def from_edge_list_text(text: str) -> Hypergraph:
    """Parse the edge-list text format; strict about shape and duplicates."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty edge-list document")
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "p" or head[1] != "hsc":
        raise ValueError(f"bad header line: {lines[0]!r}")
    n = _parse_uint(head[2], "header order")
    k = _parse_uint(head[3], "header uniformity")
    if 1 <= k <= n and comb(n, k) <= MAX_POSITIONS:
        edge_lines = [
            line for line in lines[1:] if not (line.startswith("c ") or line == "c")
        ]
        ranks = _fast_edge_ranks(edge_lines, n, k)
        if ranks is not None:
            return Hypergraph.from_ranks(n, k, ranks)
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("c ") or line == "c":
            continue
        parts = line.split(" ")
        if parts[0] != "e":
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
        if len(parts) != k + 1:
            raise ValueError(f"line {lineno}: edge needs exactly {k} vertices")
        edges.append(tuple(_parse_uint(p, f"line {lineno}") for p in parts[1:]))
    return Hypergraph(n, k, edges)


def write_edge_list(h: Hypergraph, path, comments=()) -> None:
    Path(path).write_bytes(to_edge_list_text(h, comments).encode("ascii"))


def read_edge_list(path) -> Hypergraph:
    return from_edge_list_text(Path(path).read_bytes().decode("ascii"))
