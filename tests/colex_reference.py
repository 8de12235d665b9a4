"""Slow reference implementations of the colex ranking kernel's hot paths.

These are the straightforward per-subset versions that the table-driven
kernel in `hsc.hypercore`, its column passes (build, permute, complement,
serialize) and the one-pass K4 profile, table-ranked backtracking, orbit
map and candidate enumeration in `hsc.verify` and `hsc.search` replaced.  They rank with
`subset_rank`'s comb sum and unrank with `unrank_colex`, so they share no
code with the binomial table, the colex walk, the column ranking or the
pair-link bitsets, and the differential tests compare the two routes on
the same inputs.
"""

from __future__ import annotations

import itertools
from math import comb

from hsc.hypercore import (
    Hypergraph,
    Permutation,
    _parse_uint,
    subset_rank,
    unrank_colex,
    validate_ksubset,
)
from hsc.search import OrbitDecomposition
from hsc.verify import AntimorphismCheck, RegularityReport, SearchBudgetExceeded


def edges_by_unranking(h: Hypergraph):
    """Edge subsets in colex order, unranking every edge rank."""
    return tuple(unrank_colex(r, h.n, h.k) for r in h.edge_ranks)


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
    positions = Hypergraph.empty(n, k).positions
    return setup_ranks(positions, [subset_rank(s) for s in subsets])


def permute(h: Hypergraph, sigma: Permutation) -> tuple[int, ...]:
    """Edge ranks of h relabeled through sigma, one sorted image per edge."""
    images = [sigma.apply_to_subset(e) for e in edges_by_unranking(h)]
    return setup_ranks(h.positions, [subset_rank(s) for s in images])


def complement(h: Hypergraph) -> tuple[int, ...]:
    """Edge ranks of the complement: every position whose byte is clear."""
    bits = h.indicator
    return tuple(r for r in range(h.positions) if not bits[r])


def serialize(h: Hypergraph, comments=()) -> str:
    """The edge-list text, one formatted line per unranked edge."""
    lines = [f"p hsc {h.n} {h.k}"]
    for c in comments:
        if "\n" in c:
            raise ValueError("comments must be single lines")
        lines.append(f"c {c}")
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
        r = subset_rank(tau.apply_to_subset(unrank_colex(start, n, k)))
        while r != start:
            cycle.append(r)
            seen[r] = 1
            r = subset_rank(tau.apply_to_subset(unrank_colex(r, n, k)))
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
        if (e in edges) == (tau.apply_to_subset(e) in edges):
            return AntimorphismCheck(ok=False, witness=e)
    return AntimorphismCheck(ok=True)


def parse(text: str) -> Hypergraph:
    """The strict line-by-line edge-list parser, ranking with `subset_rank`."""
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
    return Hypergraph.from_ranks(n, k, build_ranks(n, k, edges))


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
