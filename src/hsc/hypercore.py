"""k-uniform hypergraphs with dense colex-rank indexing.

A k-subset of the vertex range [0, n) is a strictly increasing tuple of
ints.  Subsets are ordered colexicographically (compare the largest
differing element), and a hypergraph stores its edge set once, as one
indicator byte per rank, giving O(1) membership and a canonical iteration
order.  Hypergraphs are immutable: every operation returns a new instance,
so shared read-only use is safe.

Ranks come from the combinatorial number system in `hsc.colex`, whose
per-subset entry points this module re-exports.  The hot paths (building
a hypergraph, parsing, relabeling, coverage counts, serializing) work on
vertex columns (column i holds the i-th vertex of every edge): they check,
rank, relabel or print one column at a time through the vertex-indexed
binomial table, in C-level `map`/`zip`/`bytes` passes with no Python code
run per edge.  Nothing is ever unranked on the way out: a hypergraph's
columns are the colex columns of all k-subsets compressed against its
indicator bytes; the parser looks each vertex token up among the decimal
labels of [0, n) and ranks each edge line straight from its tokens; the
serializer joins the same labels.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress, repeat
from math import comb
from operator import itemgetter, lt
from pathlib import Path

from .colex import (
    _FLIP,
    _PARSE_BLOCK,
    _binomial_table,
    _colex_columns,
    _column_ranks,
    _image_ranks,
    _valid_columns,
    colex_walk,
    rank_colex,
    subset_rank,
    unrank_colex,
    validate_ksubset,
)

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

# Refuse more subset positions than this.  On the construction, one fresh
# process per command (2 vCPUs, Python 3.11, peak = VmHWM), `construct` and
# `verify` take 3.5-4.1 s at 342 MB and 7.1-7.6 s at 327 MB at n = 302, and
# 15.3 s at 1.41 GB and 30.0 s at 1.16 GB at n = 466, the largest order under it.
MAX_POSITIONS = 1 << 24

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

    The edge set is stored once, as one indicator byte per colex rank, so
    membership is O(1) and iteration order is canonical.  Every other view
    is derived from the indicator: the edge ranks and edge tuples on each
    call, and the edges' vertex columns on first use, kept for later calls.
    Two hypergraphs are equal iff they have the same n, k, and edge set.
    """

    __slots__ = ("n", "k", "positions", "edge_count", "_bits", "_column_memo")

    def __init__(self, n: int, k: int, edges=()):
        subsets = list(map(tuple, edges))
        if not _valid_columns(subsets, n, k):
            # Rerun the per-subset checks only to report the first bad
            # subset with its message.
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
        """Fill the instance from a list of edge ranks in any order."""
        bits = bytearray(positions)
        if ranks and 0 <= min(ranks) and max(ranks) < positions:
            # bytearray.__setitem__ returns None, so any() runs it on every
            # rank; fewer set bytes than ranks means a duplicate.
            any(map(bits.__setitem__, ranks, repeat(1)))
        if bits.count(1) != len(ranks):
            # Find the first bad rank, in input order, for its message.
            bits = bytearray(positions)
            for r in ranks:
                if not 0 <= r < positions:
                    raise ValueError(f"edge rank {r} out of range [0, {positions})")
                if bits[r]:
                    raise ValueError(f"duplicate edge at rank {r}")
                bits[r] = 1
        self._fill(n, k, bits, len(ranks))

    def _fill(self, n, k, bits, edge_count):
        """Fill the instance from its indicator bytes and their count of 1s."""
        self.n = n
        self.k = k
        self.positions = len(bits)
        self.edge_count = edge_count
        self._bits = bits
        self._column_memo = None

    @property
    def edge_ranks(self) -> tuple[int, ...]:
        """Colex ranks of the edges, ascending."""
        return tuple(compress(range(self.positions), self._bits))

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
        """Edge subsets in colex-rank order."""
        return tuple(zip(*self.columns()))

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The vertex columns of the edges in colex-rank order (memoized):
        column i holds the i-th vertex of every edge, so edges() is their
        zip.  Column passes read these instead of the edge tuples."""
        if self._column_memo is None:
            self._column_memo = tuple(
                tuple(compress(column, self._bits))
                for column in _colex_columns(self.n, self.k)
            )
        return self._column_memo

    def complement(self) -> "Hypergraph":
        """Same vertices, edge set flipped to the unused k-subsets."""
        obj = Hypergraph.__new__(Hypergraph)
        flipped = self._bits.translate(_FLIP)
        obj._fill(self.n, self.k, flipped, self.positions - self.edge_count)
        return obj

    def permute(self, sigma: Permutation) -> "Hypergraph":
        """Relabel vertices through sigma; edges are re-sorted images, ranked
        column-wise one block of edges at a time."""
        if sigma.n != self.n:
            raise ValueError(f"permutation length {sigma.n} != order {self.n}")
        rows = _binomial_table(self.n, self.k)
        ranks = _image_ranks(self.columns(), sigma.images, rows)
        return Hypergraph.from_ranks(self.n, self.k, ranks)

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
        return (self.n, self.k, self._bits) == (other.n, other.k, other._bits)

    def __hash__(self):
        return hash((self.n, self.k, bytes(self._bits)))

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
    columns = h.columns()
    tally = Counter()
    for places in combinations(range(h.k), t):
        tally.update(_column_ranks(rows, [columns[j] for j in places]))
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
    columns = h.columns()
    # Indexing a tuple of the decimal labels beats str() per vertex token:
    # at k = 3 each label is printed about n * n / 4 times.  Building them
    # is O(n), no more than the colex replay behind the columns: at k = 1
    # and n = 4e6, where each label is printed at most once, one edge takes
    # 1.7 s against 1.1 s with str().
    label = tuple(map(str, range(h.n))).__getitem__
    # One string per block of edge lines, so that the line strings of only
    # one block exist at a time next to the growing text.
    for start in range(0, h.edge_count, _PARSE_BLOCK):
        stop = start + _PARSE_BLOCK
        labels = [map(label, column[start:stop]) for column in columns]
        lines.append("\n".join(map(" ".join, zip(repeat("e"), *labels))))
    return "\n".join(lines) + "\n"


def _parse_uint(token: str, context: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{context}: expected a decimal integer, got {token!r}")
    return int(token)


def _fast_edge_ranks(lines, n: int, k: int) -> list[int] | None:
    """Colex ranks of edge lines that are all on the fast route, else None.

    The fast route takes exactly the lines the strict loop accepts without
    complaint: "e" and k vertex labels joined by single spaces, strictly
    increasing.  Each block of lines is split into fields, each vertex field
    is looked up among the labels of [0, n), and the block is checked and
    ranked column by column; any other line makes the whole document fall
    back to the strict loop, which reports it.
    """
    rows = _binomial_table(n, k)
    # The vertex tokens the format allows are exactly the decimal labels of
    # [0, n): leading zeros, signs, non-ASCII digits and n itself all miss.
    vertex = {str(v): v for v in range(n)}.__getitem__
    width = k + 1
    ranks = []
    for start in range(0, len(lines), _PARSE_BLOCK):
        block = lines[start : start + _PARSE_BLOCK]
        fields = " ".join(block).split(" ")
        # Every line opens with an "e" field, which is no vertex label, so
        # with width * len(block) fields any line not at exactly width
        # fields leaves some line's "e" among the vertex fields.
        if not (
            len(fields) == width * len(block)
            and all(map(str.startswith, block, repeat("e ")))
        ):
            return None
        del fields[::width]
        try:
            values = list(map(vertex, fields))
        except KeyError:
            return None
        columns = [values[i::k] for i in range(k)]
        if not all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:])):
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
    edge_lines = lines[1:]
    # The fast route's label map costs O(n) whatever the document's length,
    # about 120 bytes and 0.16-0.75 us per vertex, and pays back per vertex
    # token; only k = 1 reaches orders where that matters.  At k = 1 the
    # label route beat the strict loop from between n / 4 and n / 2 lines
    # on at n = 4e5, and from between n / 2 and n lines on at n = 4e6, and
    # the strict loop always peaked lower in memory, so documents with
    # fewer vertex tokens than vertices take the strict loop.
    if 1 <= k <= n <= k * len(edge_lines) and comb(n, k) <= MAX_POSITIONS:
        if any(map(str.startswith, edge_lines, repeat("c"))):
            edge_lines = [
                line
                for line in edge_lines
                if not (line.startswith("c ") or line == "c")
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
