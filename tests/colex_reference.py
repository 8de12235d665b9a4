"""Slow reference implementations of the colex ranking kernel's hot paths.

These are the straightforward per-subset versions that the table-driven
kernel in `hsc.hypercore` replaced.  They rank with `subset_rank`'s comb
sum and unrank with `unrank_colex`, so they share no code with the binomial
table, the colex walk or the column ranking, and the differential tests
compare the two routes on the same inputs.
"""

from __future__ import annotations

import itertools
from math import comb

from hsc.hypercore import Hypergraph, _parse_uint, rank_colex, subset_rank, unrank_colex
from hsc.verify import AntimorphismCheck, RegularityReport


def edges_by_unranking(h: Hypergraph):
    """Edge subsets in colex order, unranking every edge rank."""
    return tuple(unrank_colex(r, h.n, h.k) for r in h.edge_ranks)


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


def euler_characteristic(h: Hypergraph, skeleton: str = "complete") -> int:
    """V - E + F, raising the same ValueError as the kernel on a non-candidate."""
    counts = coverage_by_combinations(h, 2)
    required = (2,) if skeleton == "complete" else (0, 2)
    for r, c in enumerate(counts):
        if c not in required:
            raise ValueError(
                f"not a triangulation candidate: pair {unrank_colex(r, h.n, 2)}"
                f" lies in {c} edges, need exactly 2"
            )
    if skeleton == "complete":
        skeleton_edges = len(counts)
    else:
        skeleton_edges = sum(1 for c in counts if c)
    return h.n - skeleton_edges + h.edge_count


def antimorphism(h: Hypergraph, tau) -> AntimorphismCheck:
    """Scan every k-subset in lex order; stop at the first violation."""
    edges = set(edges_by_unranking(h))
    for e in itertools.combinations(range(h.n), h.k):
        if (e in edges) == (tau.apply_to_subset(e) in edges):
            return AntimorphismCheck(ok=False, witness=e)
    return AntimorphismCheck(ok=True)


def parse(text: str) -> Hypergraph:
    """The strict line-by-line edge-list parser, ranking with `rank_colex`."""
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
    ranks = [rank_colex(e, n, k) for e in edges]
    return Hypergraph.from_ranks(n, k, ranks)
