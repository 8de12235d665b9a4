"""Mechanical checks for constructed hypergraphs: subset-regularity with
its valence, antimorphism verification and backtracking search, per-pair
coverage split by edge family, vertex-transitivity evidence, and the Euler
characteristic of 2-valent triple systems.

All checks are pure functions of their inputs.  The antimorphism check
relabels the edges once, column-wise, and passes when the relabeled
hypergraph is the original's complement; only a failing check walks the
k-subsets for the lex-first witness.  The exhaustive searches
(antimorphism and automorphism enumeration) are gated by order: orders up
to 8 run freely, 9 and 10 need an explicit opt-in, anything larger is
refused outright; they rank each image subset through the binomial table.

The K4 vertex invariant is asked one vertex at a time but computed for all
vertices at once: one pass over the edges fills pair-link bitsets (the
third vertices of the edges through each pair) and intersects the three
links of every edge.  No profile is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb
from operator import eq, getitem

from .colex import _binomial_table, colex_walk, unrank_colex
from .construct import AdmissibilityError, EdgeFamilies
from .hypercore import Hypergraph, Permutation, coverage

__all__ = [
    "AntimorphismCheck",
    "PairCaseBreakdown",
    "RegularityReport",
    "SearchBudgetExceeded",
    "SearchOrderError",
    "automorphism_vertex_orbits",
    "euler_characteristic_triangulation",
    "expected_valence",
    "find_antimorphism",
    "pair_case_breakdown",
    "t_subset_regularity",
    "verify_antimorphism",
    "vertex_invariant_k4",
]

# Orders up to this bound may be searched exhaustively without opting in.
FREE_SEARCH_ORDER = 8
# Hard ceiling for the exhaustive searches (n! roots grow too fast beyond).
MAX_SEARCH_ORDER = 10


class SearchOrderError(ValueError):
    """The order is too large for the exhaustive search policy."""


class SearchBudgetExceeded(RuntimeError):
    """A backtracking search ran out of node budget; result is inconclusive."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


# ---------------------------------------------------------------------------
# Subset-regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of a t-subset coverage check.

    On success `valence` holds the common coverage; on failure `witness` is
    the first t-subset (in colex order) whose coverage differs from that of
    the colex-first t-subset, with both counts attached.
    """

    t: int
    valence: int | None
    witness: tuple[int, ...] | None = None
    witness_count: int | None = None
    first_count: int | None = None

    @property
    def regular(self) -> bool:
        return self.valence is not None

    def __bool__(self) -> bool:
        return self.regular


def t_subset_regularity(h: Hypergraph, t: int) -> RegularityReport:
    """Check whether every t-subset of vertices lies in the same number of edges.

    One coverage pass counts the edges through each of the comb(n,t)
    t-subsets; a scan over those counts then either certifies the common
    valence or produces a witness.
    """
    if not 1 <= t < h.k:
        raise ValueError(f"need 1 <= t < k={h.k}, got t={t}")
    counts = coverage(h, t)
    first = counts[0]
    for r, count in enumerate(counts):
        if count != first:
            return RegularityReport(
                t=t,
                valence=None,
                witness=unrank_colex(r, h.n, t),
                witness_count=count,
                first_count=first,
            )
    # Double counting: valence * comb(n,t) == |E| * comb(k,t).
    if first * len(counts) != h.edge_count * comb(h.k, t):
        raise RuntimeError(
            f"double counting fails: valence {first} * comb({h.n},{t}) != "
            f"{h.edge_count} edges * comb({h.k},{t})"
        )
    return RegularityReport(t=t, valence=first)


def expected_valence(n: int, k: int, t: int) -> int:
    """The only t-valence a hypergraph paired with its complement can have:
    half of comb(n-t, k-t)."""
    if not 0 < t < k <= n:
        raise ValueError(f"need 0 < t < k <= n, got t={t}, k={k}, n={n}")
    c = comb(n - t, k - t)
    if c % 2:
        raise AdmissibilityError(
            f"comb({n - t},{k - t})={c} is odd; no such valence exists"
        )
    return c // 2


# ---------------------------------------------------------------------------
# Pair coverage by family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCaseBreakdown:
    """Coverage of one vertex pair, split across the three edge families.

    The case letter classifies the pair: (a) both side 0, (b) both side 1,
    (c) same residue on opposite sides, (d) different residues on opposite
    sides.
    """

    case: str
    side0_count: int
    midpoint_count: int
    off_midpoint_count: int

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.side0_count, self.midpoint_count, self.off_midpoint_count)

    @property
    def total(self) -> int:
        return sum(self.counts)


def pair_case_breakdown(families: EdgeFamilies, pair) -> PairCaseBreakdown:
    """Classify a vertex pair and count its covering edges per family."""
    u, v = pair
    if u == v:
        raise ValueError("pair vertices must be distinct")
    for w in (u, v):
        if not 0 <= w < families.n:
            raise ValueError(f"vertex {w} out of range [0, {families.n})")
    m = families.m
    (u, v) = (min(u, v), max(u, v))
    su, sv = u // m, v // m
    if su == 0 and sv == 0:
        case = "a"
    elif su == 1 and sv == 1:
        case = "b"
    elif u % m == v % m:
        case = "c"
    else:
        case = "d"

    def cover(fam):
        return sum(1 for e in fam if u in e and v in e)

    return PairCaseBreakdown(
        case=case,
        side0_count=cover(families.side0_triples),
        midpoint_count=cover(families.midpoint_triples),
        off_midpoint_count=cover(families.off_midpoint_triples),
    )


# ---------------------------------------------------------------------------
# Antimorphisms and automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AntimorphismCheck:
    """Result of checking `e is an edge  xor  image of e is an edge` for all e."""

    ok: bool
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_antimorphism(h: Hypergraph, tau: Permutation) -> AntimorphismCheck:
    """True iff tau exchanges edges and non-edges; witness is the first
    k-subset (lex order) violating the exchange.

    s is an edge of the pull-back under tau iff tau(s) is an edge of h, so
    tau passes exactly when the pull-back is h's complement: one comparison
    of indicator bytes.  Only on failure does a colex walk look for the
    violations, where the two indicators agree.
    """
    if tau.n != h.n:
        raise ValueError(f"permutation length {tau.n} != order {h.n}")
    pulled = h.permute(tau.inverse())
    if pulled == h.complement():
        return AntimorphismCheck(ok=True)
    agree = map(eq, h.indicator, pulled.indicator)
    witness = min(compress(colex_walk(h.n, h.k), agree))
    return AntimorphismCheck(ok=False, witness=witness)


def _require_search_order(n: int, allow_large: bool) -> None:
    if n <= FREE_SEARCH_ORDER:
        return
    if n <= MAX_SEARCH_ORDER:
        if allow_large:
            return
        raise SearchOrderError(
            f"exhaustive search at order {n} needs an explicit opt-in "
            f"(orders above {FREE_SEARCH_ORDER} have factorially many roots)"
        )
    raise SearchOrderError(
        f"order {n} exceeds the exhaustive search ceiling of {MAX_SEARCH_ORDER}"
    )


def _backtrack_images(h, *, want_equal, node_budget, first_only):
    """Enumerate permutations mapping edges to edges (want_equal) or edges to
    non-edges (not want_equal), assigning vertices in increasing order with
    candidate images ascending.  Prunes on every k-subset completed by the
    newest assignment."""
    n, k = h.n, h.k
    bits = h.indicator
    rows = _binomial_table(n, k)
    flip = 0 if want_equal else 1
    images = [0] * n
    image = images.__getitem__
    used = [False] * n
    # tails[v]: the k-subsets with largest vertex v, each with the indicator
    # byte its image must have (the walk's position is the subset's rank).
    tails = [[] for _ in range(n)]
    for r, e in enumerate(colex_walk(n, k)):
        tails[e[-1]].append((e, bits[r] ^ flip))
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
            for e, want in tails[v]:
                mapped = sorted(map(image, e))
                if bits[sum(map(getitem, rows, mapped))] != want:
                    break
            else:
                used[cand] = True
                if extend(v + 1):
                    return True
                used[cand] = False
        return False

    extend(0)
    return found


def find_antimorphism(
    h: Hypergraph, node_budget: int | None = None, *, allow_large: bool = False
) -> Permutation | None:
    """First permutation (deterministic search order) exchanging edges and
    non-edges, or None when none exists.

    The counting obstruction 2*|E| == comb(n,k) is checked before any
    search.  Raises SearchBudgetExceeded when the node budget runs out
    (inconclusive, as opposed to a definite None).
    """
    if 2 * h.edge_count != comb(h.n, h.k):
        return None
    _require_search_order(h.n, allow_large)
    found = _backtrack_images(
        h, want_equal=False, node_budget=node_budget, first_only=True
    )
    return found[0] if found else None


def automorphism_vertex_orbits(
    h: Hypergraph, *, allow_large: bool = False, node_budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the full automorphism group,
    found by exhaustive backtracking; a single orbit means vertex-transitive."""
    _require_search_order(h.n, allow_large)
    autos = _backtrack_images(
        h, want_equal=True, node_budget=node_budget, first_only=False
    )
    parent = list(range(h.n))

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
    for v in range(h.n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(g) for g in sorted(groups.values()))


# ---------------------------------------------------------------------------
# Per-vertex invariants and the Euler characteristic
# ---------------------------------------------------------------------------


def _k4_profile(h: Hypergraph) -> tuple[int, ...]:
    """K4 count of every vertex, from one pass over the edges.

    links[a][b] (a < b) is the bitset of the third vertices x with {a, b, x}
    an edge.  For an edge {a, b, c}, the common bits of its three pair links
    are the x completing it to a K4 {a, b, c, x}; each such K4 is seen from
    its four edges, and a vertex lies in three of them, so the tallies
    divided by 3 are the per-vertex counts.
    """
    n = h.n
    bit = [1 << v for v in range(n)]
    links = [[0] * n for _ in range(n)]
    columns = h.columns()
    for a, b, c in zip(*columns):
        row = links[a]
        row[b] |= bit[c]
        row[c] |= bit[b]
        links[b][c] |= bit[a]
    totals = [0] * n
    for a, b, c in zip(*columns):
        row = links[a]
        w = (row[b] & row[c] & links[b][c]).bit_count()
        if w:
            totals[a] += w
            totals[b] += w
            totals[c] += w
    return tuple(t // 3 for t in totals)


def vertex_invariant_k4(h: Hypergraph, v: int) -> int:
    """Number of 4-subsets through v whose four triples are all edges.

    A cheap vertex invariant: any automorphism preserves it, so two vertices
    with different values certify that the hypergraph is not
    vertex-transitive.  Each call computes the whole profile in one pass
    over the edges (O(|E|) operations on n-bit ints) and keeps nothing, so
    asking for all n vertices costs O(n |E|).
    """
    if h.k != 3:
        raise ValueError("defined for 3-uniform hypergraphs only")
    if h.n < 4:
        raise ValueError(f"need n >= 4, got {h.n}")
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range [0, {h.n})")
    return _k4_profile(h)[v]


def euler_characteristic_triangulation(h: Hypergraph) -> int:
    """V - E + F for the triangle complex of a 3-uniform hypergraph in which
    every one of the comb(n,2) vertex pairs is a 1-cell lying in exactly two
    triangles."""
    if h.k != 3:
        raise ValueError("defined for 3-uniform hypergraphs only")
    counts = coverage(h, 2)
    for r, c in enumerate(counts):
        if c != 2:
            raise ValueError(
                f"not a triangulation candidate: pair {unrank_colex(r, h.n, 2)}"
                f" lies in {c} edges, need exactly 2"
            )
    return h.n - len(counts) + h.edge_count
