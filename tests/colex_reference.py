"""Slow reference implementations of the colex ranking kernel's hot paths.

These are the straightforward per-subset versions that the table-driven
kernel in `hsc.hypercore`, its column passes (build, permute, complement,
serialize) and the one-pass K4 profile, table-ranked backtracking, orbit
map and candidate enumeration in `hsc.verify` and `hsc.search` replaced.  They rank with
`subset_rank`'s comb sum and unrank with `unrank_colex`, so they share no
code with the binomial table, the colex walk, the column ranking or the
pair-link bitsets, and the differential tests compare the two routes on
the same inputs.

The next group holds the whole-edge-set versions that the streamed paths
replaced: the construction's families as tuples; the regularity proof's
four pair cases found by scanning those tuples once per pair, which one
coverage pass per family's indicator replaced, beside the closed-form
table, as a function of the side modulus m, that both routes must show;
the parse's fast route over the whole document at once; and a relabeling
through the full list of image ranks.  `colex_columns_replayed` is the colex column replay as it was
before its heads were cached: it rebuilds them recursively on every call.

`coverage_by_counter` and `antimorphism_by_permute` are the column-pass
versions of coverage and the antimorphism check that the colex-block lane
sums and the link masks replaced: they replay every edge's vertex columns,
tally t-subset ranks in a Counter, and relabel the whole edge set.

The last group holds the whole-edge-set versions that the indicator-built
construction, the colex-block writer, the file-chunk reader and the
blocked link rows replaced: the construction's families as three vertex
columns each, ranked into one indicator; the serializer that prints the
memoized `Hypergraph.columns()`; the parse of the whole document read and
decoded at once; and the antimorphism check over every link row at once.

The first group holds members that left `hsc` because only tests called
them: the per-subset colex ranks `subset_rank` and `rank_colex`, the
per-subset colex unrank `unrank_colex` and the colex walk `colex_walk`, the
permutation algebra, the empty and complete hypergraphs, the complement,
the membership queries, the enumeration of all alternating assignments, the
union-find of the automorphism orbits and `relabel`, which relabels a
hypergraph through the column-wise image ranks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from math import comb
from operator import add, eq, lt, ne, xor
from pathlib import Path

from hsc.colex import (
    _PARSE_BLOCK,
    _binomial_table,
    _colex_columns,
    _column_ranks,
    _image_ranks,
    validate_ksubset,
)
from hsc.construct import half, side_modulus
from hsc.hypercore import (
    MAX_POSITIONS,
    Hypergraph,
    Permutation,
    _parse_uint,
    _positions,
    _set_ranks,
    from_edge_list_text,
)
from hsc.search import (
    DEFAULT_CANDIDATE_CAP,
    OrbitDecomposition,
    _candidates,
    _feasible_orbits,
)
from hsc.verify import (
    _BINARY_DIGITS,
    AntimorphismCheck,
    RegularityReport,
    SearchBudgetExceeded,
    _link_rows,
    _relabel_masks,
)


def subset_rank(s) -> int:
    """Colex rank of a strictly increasing vertex tuple (no validation)."""
    return sum(comb(v, i + 1) for i, v in enumerate(s))


def rank_colex(s, n: int, k: int) -> int:
    """Colex rank of the k-subset s among all k-subsets of [0, n)."""
    s = tuple(s)
    validate_ksubset(s, n, k)
    return subset_rank(s)


def colex_walk(n: int, k: int):
    """Every k-subset of [0, n) in colex order, as a lazy iterator."""
    if k == 0:
        return iter(((),))
    return zip(*_colex_columns(n, k))


def unrank_colex(r: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of [0, n) with colex rank r."""
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


def identity(n: int) -> Permutation:
    return Permutation(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: apply q first, then p."""
    if p.n != q.n:
        raise ValueError("cannot compose permutations of different lengths")
    return Permutation(p.images[w] for w in q.images)


def subset_image(sigma: Permutation, s) -> tuple[int, ...]:
    """Image of a vertex subset under sigma, re-sorted ascending."""
    return tuple(sorted(sigma.images[v] for v in s))


def empty(n: int, k: int) -> Hypergraph:
    return Hypergraph.from_ranks(n, k, ())


def complete(n: int, k: int) -> Hypergraph:
    return Hypergraph.from_ranks(n, k, range(comb(n, k)))


def flipped(h: Hypergraph) -> Hypergraph:
    """The complement of h: the same vertices and the unused k-subsets."""
    bits = bytearray(h.indicator).translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    return Hypergraph._from_indicator(h.n, h.k, bits, h.positions - h.edge_count)


def edge_ranks(h: Hypergraph) -> tuple[int, ...]:
    """Colex ranks of the edges, ascending."""
    return tuple(compress(range(h.positions), h.indicator))


def has_edge(h: Hypergraph, s) -> bool:
    return bool(h.indicator[rank_colex(s, h.n, h.k)])


def is_complete_on(h: Hypergraph, vertices) -> bool:
    """True iff every k-subset of the given vertex set is an edge."""
    vs = sorted(vertices)
    for prev, v in zip([-1] + vs, vs):
        if v == prev:
            raise ValueError(f"vertex set has a repeated vertex {v}")
        if not 0 <= v < h.n:
            raise ValueError(f"vertex {v} out of range [0, {h.n})")
    if len(vs) < h.k:
        raise ValueError(f"need at least k={h.k} vertices, got {len(vs)}")
    bits = h.indicator
    return all(bits[subset_rank(c)] for c in itertools.combinations(vs, h.k))


def alternating_assignments(
    n: int, k: int, tau: Permutation, *, cap: int = DEFAULT_CANDIDATE_CAP
):
    """All hypergraphs for which tau exchanges edges and non-edges, lazily,
    in the enumeration order of `hsc.search`; raises CandidateCapExceeded
    up front when there are more than `cap` of them."""
    return _candidates(_feasible_orbits(n, k, tau, cap))


def orbits_by_union_find(n: int, autos) -> tuple[tuple[int, ...], ...]:
    """The vertex orbits of the group generated by the permutations autos,
    by joining each vertex with its image under each of them."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in autos:
        for v, w in enumerate(p.images):
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rw] = rv
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(g) for g in sorted(groups.values()))


def relabel(h: Hypergraph, sigma: Permutation) -> Hypergraph:
    """h relabeled through sigma: the edges' re-sorted images, ranked
    column-wise one block of edges at a time and set straight into the new
    indicator."""
    if sigma.n != h.n:
        raise ValueError(f"permutation length {sigma.n} != order {h.n}")
    rows = _binomial_table(h.n, h.k)
    bits = bytearray(h.positions)
    _set_ranks(bits, _image_ranks(h.columns(), sigma.images, rows))
    # A bijection maps distinct edges to distinct images.
    count = bits.count(1)
    if count != h.edge_count:
        raise RuntimeError(
            f"relabeling gives {count} distinct edges, not {h.edge_count}"
        )
    return Hypergraph._from_indicator(h.n, h.k, bits, count)


def edges_by_unranking(h: Hypergraph):
    """Edge subsets in colex order, unranking every edge rank."""
    return tuple(unrank_colex(r, h.n, h.k) for r in edge_ranks(h))


def setup_ranks(positions: int, ranks) -> tuple[int, ...]:
    """The sorted rank tuple of a hypergraph with these edge ranks, checking
    each rank in input order for range and duplicates."""
    bits = bytearray(positions)
    for r in ranks:
        if not 0 <= r < positions:
            raise ValueError(f"edge rank {r} out of range [0, {positions})")
        if bits[r]:
            raise ValueError(f"duplicate edge at rank {r}")
        bits[r] = 1
    return tuple(sorted(ranks))


def build_ranks(n: int, k: int, edges) -> tuple[int, ...]:
    """The edge ranks `Hypergraph(n, k, edges)` must hold: every subset
    validated in input order, then the shape, then each rank."""
    subsets = [tuple(e) for e in edges]
    for s in subsets:
        validate_ksubset(s, n, k)
    positions = empty(n, k).positions
    return setup_ranks(positions, [subset_rank(s) for s in subsets])


def permute(h: Hypergraph, sigma: Permutation) -> tuple[int, ...]:
    """Edge ranks of h relabeled through sigma, one sorted image per edge."""
    images = [subset_image(sigma, e) for e in edges_by_unranking(h)]
    return setup_ranks(h.positions, [subset_rank(s) for s in images])


def complement(h: Hypergraph) -> tuple[int, ...]:
    """Edge ranks of the complement: every position whose byte is clear."""
    bits = h.indicator
    return tuple(r for r in range(h.positions) if not bits[r])


def serialize(h: Hypergraph) -> str:
    """The edge-list text, one formatted line per unranked edge."""
    lines = [f"p hsc {h.n} {h.k}"]
    for e in edges_by_unranking(h):
        lines.append("e " + " ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def tau_orbits(n: int, k: int, tau: Permutation) -> OrbitDecomposition:
    """Cycles of tau on the k-subset ranks, unranking every subset."""
    total = comb(n, k)
    seen = bytearray(total)
    orbits = []
    for start in range(total):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        r = subset_rank(subset_image(tau, unrank_colex(start, n, k)))
        while r != start:
            cycle.append(r)
            seen[r] = 1
            r = subset_rank(subset_image(tau, unrank_colex(r, n, k)))
        orbits.append(tuple(cycle))
    return OrbitDecomposition(n=n, k=k, orbits=tuple(orbits))


def candidates_by_bits(dec: OrbitDecomposition):
    """The sorted edge ranks of every alternating assignment, in the order
    of `hsc.search`'s enumeration: candidate c is read off the bits of c,
    the first orbit's most significant, and bit 1 puts the orbit's even
    positions (its least rank first) in the edge set, bit 0 its odd ones."""
    o = dec.orbit_count
    for c in range(1 << o):
        ranks = []
        for j, orbit in enumerate(dec.orbits):
            bit = (c >> (o - 1 - j)) & 1
            for pos, r in enumerate(orbit):
                if (pos % 2 == 0) == bool(bit):
                    ranks.append(r)
        yield tuple(sorted(ranks))


def coverage_by_combinations(h: Hypergraph, t: int) -> list[int]:
    """Coverage of every t-subset, ranking each contained t-subset."""
    counts = [0] * comb(h.n, t)
    for e in edges_by_unranking(h):
        for sub in itertools.combinations(e, t):
            counts[subset_rank(sub)] += 1
    return counts


def regularity(h: Hypergraph, t: int) -> RegularityReport:
    """t-subset regularity with the witness at the colex-first deviation."""
    counts = coverage_by_combinations(h, t)
    first = counts[0]
    for r in range(1, len(counts)):
        if counts[r] != first:
            return RegularityReport(
                t=t,
                valence=None,
                witness=unrank_colex(r, h.n, t),
                witness_count=counts[r],
                first_count=first,
            )
    return RegularityReport(t=t, valence=first)


def euler_characteristic(h: Hypergraph) -> int:
    """V - E + F, raising the same ValueError as the kernel on a non-candidate."""
    counts = coverage_by_combinations(h, 2)
    for r, c in enumerate(counts):
        if c != 2:
            raise ValueError(
                f"not a triangulation candidate: pair {unrank_colex(r, h.n, 2)}"
                f" lies in {c} edges, need exactly 2"
            )
    return h.n - len(counts) + h.edge_count


def antimorphism(h: Hypergraph, tau) -> AntimorphismCheck:
    """Scan every k-subset in lex order; stop at the first violation."""
    edges = set(edges_by_unranking(h))
    for e in itertools.combinations(range(h.n), h.k):
        if (e in edges) == (subset_image(tau, e) in edges):
            return AntimorphismCheck(ok=False, witness=e)
    return AntimorphismCheck(ok=True)


def parse(text: str) -> Hypergraph:
    """The strict line-by-line edge-list parser, ranking with `subset_rank`;
    the first faulty line wins.  The header's shape counts as line 1, and
    each later line is checked for its format, its subset, a repeated edge
    and then an edge below the previous one, before the next line is read."""
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
    _positions(n, k)
    ranks, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("c ") or line == "c":
            continue
        parts = line.split(" ")
        if parts[0] != "e":
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
        if len(parts) != k + 1:
            raise ValueError(f"line {lineno}: edge needs exactly {k} vertices")
        edge = tuple(_parse_uint(p, f"line {lineno}") for p in parts[1:])
        validate_ksubset(edge, n, k)
        rank = subset_rank(edge)
        if rank in seen:
            raise ValueError(f"duplicate edge at rank {rank}")
        if ranks and rank < ranks[-1]:
            raise ValueError(f"line {lineno}: edge {edge} is out of colex order")
        seen.add(rank)
        ranks.append(rank)
    return Hypergraph.from_ranks(n, k, ranks)


def vertex_k4_by_scan(h: Hypergraph, v: int) -> int:
    """K4 count of v: scan every trio of other vertices and rank the four
    triples of the 4-subset it forms with v."""
    bits = h.indicator
    others = [u for u in range(h.n) if u != v]
    count = 0
    for trio in itertools.combinations(others, 3):
        quad = tuple(sorted(trio + (v,)))
        if all(bits[subset_rank(c)] for c in itertools.combinations(quad, 3)):
            count += 1
    return count


def k4_count(h: Hypergraph) -> int:
    """Number of 4-subsets whose four triples are all edges."""
    bits = h.indicator
    return sum(
        all(bits[subset_rank(c)] for c in itertools.combinations(quad, 3))
        for quad in itertools.combinations(range(h.n), 4)
    )


def backtrack_images(h: Hypergraph, *, want_equal, node_budget, first_only):
    """The image search of `hsc.verify._backtrack_images`, ranking every
    subset and its sorted image with `subset_rank`; returns the permutations
    found and the number of nodes spent."""
    n, k = h.n, h.k
    bits = h.indicator
    images = [0] * n
    used = [False] * n
    tails = [list(itertools.combinations(range(v), k - 1)) for v in range(n)]
    found = []
    nodes = 0

    def extend(v):
        nonlocal nodes
        if v == n:
            found.append(Permutation(list(images)))
            return first_only
        for cand in range(n):
            if used[cand]:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SearchBudgetExceeded(nodes)
            images[v] = cand
            ok = True
            for rest in tails[v]:
                e = rest + (v,)
                mapped = sorted(images[w] for w in e)
                if (bits[subset_rank(e)] == bits[subset_rank(mapped)]) != want_equal:
                    ok = False
                    break
            if ok:
                used[cand] = True
                if extend(v + 1):
                    return True
                used[cand] = False
        return False

    extend(0)
    return found, nodes


def gamma_families(n: int):
    """The construction's (side0, midpoint, off-midpoint) families as tuples
    of sorted triples, one Python loop step per edge."""
    m = side_modulus(n)
    side0 = tuple(itertools.combinations(range(m), 3))
    midpoint = []
    for a, b in itertools.combinations(range(m), 2):
        c = half((a + b) % m, m)
        if c == a or c == b:
            raise RuntimeError(f"midpoint {c} of {a} and {b} mod {m} is an endpoint")
        midpoint.append((a, b, c + m))
    off_midpoint = []
    for b, c in itertools.combinations(range(m), 2):
        banned = half((b + c) % m, m)
        for a in range(m):
            if a != banned:
                off_midpoint.append((a, b + m, c + m))
    return side0, tuple(midpoint), tuple(off_midpoint)


def pair_case_table(m: int) -> dict[str, set[tuple[int, int, int]]]:
    """The regularity proof's four-case count in closed form, as
    `pair_case_breakdown` reports it for side modulus m: each case's one
    (side0, midpoint, off-midpoint) triple, summing to m - 1."""
    return {
        "a": {(m - 2, 1, 0)},
        "b": {(0, 0, m - 1)},
        "c": {(0, 0, m - 1)},
        "d": {(0, 1, m - 2)},
    }


def pair_cases_by_scan(n: int) -> dict[str, set[tuple[int, int, int]]]:
    """The four pair cases of `gamma_families(n)`, each pair classified and
    its covering edges counted by a scan of every family's tuples."""
    m, families = n // 2, gamma_families(n)
    cases = {case: set() for case in "abcd"}
    for u, v in itertools.combinations(range(n), 2):
        if v < m:
            case = "a"
        elif u >= m:
            case = "b"
        else:
            case = "c" if u == v - m else "d"
        counts = (sum(1 for e in f if u in e and v in e) for f in families)
        cases[case].add(tuple(counts))
    return cases


def permute_by_rank_list(h: Hypergraph, sigma: Permutation) -> Hypergraph:
    """h relabeled through sigma via the full list of image ranks."""
    rows = _binomial_table(h.n, h.k)
    ranks = list(_image_ranks(h.columns(), sigma.images, rows))
    return Hypergraph.from_ranks(h.n, h.k, ranks)


def _whole_document_ranks(lines, n: int, k: int):
    """Colex ranks of edge lines that are all on the fast route and in
    increasing colex order, else None; every line of the document is held
    at once."""
    rows = _binomial_table(n, k)
    vertex = {str(v): v for v in range(n)}.__getitem__
    width = k + 1
    ranks = []
    for start in range(0, len(lines), 1024):
        block = lines[start : start + 1024]
        fields = " ".join(block).split(" ")
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
    return ranks if all(map(lt, ranks, ranks[1:])) else None


def parse_whole_document(text: str) -> Hypergraph:
    """The parser with its fast route over the whole document's line list,
    falling back to the strict `parse` for any other document."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if lines:
        head = lines[0].split(" ")
        if len(head) == 4 and head[:2] == ["p", "hsc"] and all(
            t.isascii() and t.isdigit() for t in head[2:]
        ):
            n, k = int(head[2]), int(head[3])
            edge_lines = lines[1:]
            if 1 <= k <= n <= k * len(edge_lines) and comb(n, k) <= MAX_POSITIONS:
                edge_lines = [
                    line
                    for line in edge_lines
                    if not (line.startswith("c ") or line == "c")
                ]
                ranks = _whole_document_ranks(edge_lines, n, k)
                if ranks is not None:
                    return Hypergraph.from_ranks(n, k, ranks)
    return parse(text)


def colex_columns_replayed(n: int, k: int) -> list[list[int]]:
    """The vertex columns of every k-subset of [0, n) in colex order, as
    lists: the heads, the columns of the (k-1)-subsets of [0, n - 1), are
    rebuilt recursively on every call, and each top vertex replays a prefix
    of them."""
    if k == 0:
        return []
    heads = colex_columns_replayed(n - 1, k - 1)
    counts = [comb(top, k - 1) for top in range(k - 1, n)]
    columns = [
        list(chain.from_iterable(map(islice, repeat(head), counts))) for head in heads
    ]
    columns.append(list(chain.from_iterable(map(repeat, range(k - 1, n), counts))))
    return columns


def coverage_by_counter(h: Hypergraph, t: int) -> list[int]:
    """Coverage of every t-subset from the edges' vertex columns: for each
    choice of t columns the chosen t-subsets are ranked column-wise, and one
    Counter tallies the ranks of all choices."""
    rows = _binomial_table(h.n, t)
    choices = itertools.combinations(h.columns(), t)
    tally = Counter(chain.from_iterable(map(_column_ranks, repeat(rows), choices)))
    return list(map(tally.get, range(comb(h.n, t)), repeat(0)))


def antimorphism_by_permute(h: Hypergraph, tau: Permutation) -> AntimorphismCheck:
    """Pull h back through tau and compare it with h's complement; on a
    mismatch, the lex-least k-subset where the two indicators agree."""
    pulled = relabel(h, tau.inverse())
    if pulled == flipped(h):
        return AntimorphismCheck(ok=True)
    agree = map(eq, h.indicator, pulled.indicator)
    witness = min(compress(colex_walk(h.n, h.k), agree))
    return AntimorphismCheck(ok=False, witness=witness)


class Triples:
    """Vertex triples held as three columns (column i holds the i-th vertex
    of every triple).  len, iteration (as tuples) and slicing work as on a
    tuple of triples."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, index: slice) -> "Triples":
        return Triples(column[index] for column in self.columns)


def _valid_columns(columns, n: int) -> bool:
    """True iff the subsets whose i-th vertices run down columns[i] are
    strictly increasing tuples inside [0, n): the first column is at least
    0, the last is below n and each column lies strictly below the next."""
    if not (columns and columns[0]):
        return True
    return (
        min(columns[0]) >= 0
        and max(columns[-1]) < n
        and all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:]))
    )


@dataclass(frozen=True)
class ColumnFamilies:
    """The construction's three edge families, each as three vertex columns."""

    n: int
    m: int
    side0_triples: Triples
    midpoint_triples: Triples
    off_midpoint_triples: Triples

    def _families(self):
        return (self.side0_triples, self.midpoint_triples, self.off_midpoint_triples)

    def all_edges(self):
        return tuple(chain.from_iterable(self._families()))

    def to_hypergraph(self) -> Hypergraph:
        """Rank each family column-wise into one indicator; a triple that
        is invalid or repeated (fewer set bytes than triples) sends all the
        edges through the Hypergraph constructor, which reports it."""
        n, families = self.n, self._families()
        bits = bytearray(_positions(n, 3))
        edges = sum(map(len, families))
        if all(_valid_columns(f.columns, n) for f in families):
            rows = _binomial_table(n, 3)
            for f in families:
                _set_ranks(bits, _column_ranks(rows, f.columns))
            if bits.count(1) == edges:
                return Hypergraph._from_indicator(n, 3, bits, edges)
        return Hypergraph(n, 3, self.all_edges())


def gamma_family_columns(n: int) -> ColumnFamilies:
    """The construction's families as vertex columns built from the colex
    columns of the residue pairs and triples: a residue pair (a, b) is the
    side-0 pair of one midpoint triple and, shifted by m, the side-1 pair
    of m - 1 off-midpoint triples."""
    m = side_modulus(n)
    _positions(n, 3)
    side0 = Triples(list(column) for column in _colex_columns(m, 3))
    a, b = (list(column) for column in _colex_columns(m, 2))
    halves = [half(x % m, m) for x in range(2 * m - 1)]
    mid = list(map(halves.__getitem__, map(add, a, b)))
    midpoint = Triples((a, b, list(map(m.__add__, mid))))
    others = [tuple(range(c)) + tuple(range(c + 1, m)) for c in range(m)]

    def spread(column):
        side1 = map(m.__add__, column)
        return list(chain.from_iterable(map(repeat, side1, repeat(m - 1))))

    first = list(chain.from_iterable(map(others.__getitem__, mid)))
    off_midpoint = Triples((first, spread(a), spread(b)))
    return ColumnFamilies(n, m, side0, midpoint, off_midpoint)


def serialize_by_columns(h: Hypergraph) -> str:
    """The edge-list text printed from the memoized vertex columns, one
    block of _PARSE_BLOCK edges at a time."""
    columns = h.columns()
    label = tuple(map(str, range(h.n))).__getitem__
    blocks = [f"p hsc {h.n} {h.k}\n"]
    for start in range(0, h.edge_count, _PARSE_BLOCK):
        stop = start + _PARSE_BLOCK
        labels = [map(label, column[start:stop]) for column in columns]
        blocks.append("\n".join(map(" ".join, zip(repeat("e"), *labels))) + "\n")
    return "".join(blocks)


def read_whole_document(path) -> Hypergraph:
    """An edge-list file read and decoded whole, then parsed."""
    return from_edge_list_text(Path(path).read_bytes().decode("ascii"))


def antimorphism_by_link_rows(h: Hypergraph, tau: Permutation) -> AntimorphismCheck:
    """The link-mask antimorphism check over the link rows of every
    (k-1)-subset at once: one array of comb(n, k - 1) * n bytes, translated
    to binary digits and reversed whole."""
    n, k = h.n, h.k
    digits = _link_rows(h._bits, n, k, n).translate(_BINARY_DIGITS)[::-1]
    rows = map(slice, range(len(digits) - n, -1, -n), range(len(digits), 0, -n))
    closed = list(map(int, map(digits.__getitem__, rows), repeat(2)))
    image = [0]
    if k > 1:
        heads = [tuple(column) for column in _colex_columns(n, k - 1)]
        image = _image_ranks(heads, tau.images, _binomial_table(n, k - 1))
    moved = _relabel_masks(closed, tau.images)
    full = (1 << n) - 1
    agree = map(xor, map(closed.__getitem__, image), moved)
    flips = list(map(xor, agree, repeat(full)))
    counts = map(int.bit_count, flips)
    bad = list(compress(range(len(flips)), map(ne, counts, repeat(k - 1))))
    if not bad:
        return AntimorphismCheck(ok=True)
    back = _relabel_masks([flips[r] for r in bad], tau.inverse().images)
    witness = None
    for r, mask in zip(bad, back):
        head = unrank_colex(r, n, k - 1)
        mask &= ~sum(1 << v for v in head)
        subset = tuple(sorted(head + ((mask & -mask).bit_length() - 1,)))
        if witness is None or subset < witness:
            witness = subset
    return AntimorphismCheck(ok=False, witness=witness)
