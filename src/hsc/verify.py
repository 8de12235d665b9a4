"""Mechanical checks for constructed hypergraphs: subset-regularity with
its valence, antimorphism verification and backtracking search, the pair
coverage of the regularity proof's four cases split by edge family,
vertex-transitivity evidence, and the Euler characteristic of 2-valent
triple systems.

All checks are pure functions of their inputs.  Regularity, the pair cases
and the antimorphism check read the indicator's colex blocks and list no
edge: the pair cases take one coverage pass per family's indicator, and
the antimorphism check compares every (k-1)-subset's link mask with the
image of another under tau.  The exhaustive searches
(antimorphism and automorphism enumeration) are gated by order: orders up
to 8 run freely, 9 and 10 need an explicit opt-in, anything larger is
refused outright; they look each image subset up by its vertex bitmask in a
dict of indicator bytes filled from the cached colex columns.

The K4 vertex invariant is asked one vertex at a time but computed for all
vertices at once: one pass over the edges fills pair-link bitsets (the
third vertices of the edges through each pair) and intersects the three
links of every edge.  No profile is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat, tee
from math import comb
from operator import ne, or_, xor

from .colex import (
    _PARSE_BLOCK,
    _binomial_table,
    _image_ranks,
    _subset_at,
    _subset_columns,
)
from .construct import EdgeFamilies
from .hypercore import Hypergraph, Permutation, coverage

__all__ = [
    "AntimorphismCheck",
    "RegularityReport",
    "SearchBudgetExceeded",
    "SearchOrderError",
    "automorphism_vertex_orbits",
    "euler_characteristic_triangulation",
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

# Byte table printing 0/1 bytes as binary digits.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


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
    if counts.count(first) != len(counts):
        r = next(compress(range(len(counts)), map(first.__ne__, counts)))
        return RegularityReport(
            t=t,
            valence=None,
            witness=_subset_at(r, h.n, t),
            witness_count=counts[r],
            first_count=first,
        )
    # Double counting: valence * comb(n,t) == |E| * comb(k,t).
    if first * len(counts) != h.edge_count * comb(h.k, t):
        raise RuntimeError(
            f"double counting fails: valence {first} * comb({h.n},{t}) != "
            f"{h.edge_count} edges * comb({h.k},{t})"
        )
    return RegularityReport(t=t, valence=first)


# ---------------------------------------------------------------------------
# Pair coverage by family
# ---------------------------------------------------------------------------


def pair_case_breakdown(families: EdgeFamilies) -> dict[str, set[tuple[int, ...]]]:
    """The (side0, midpoint, off-midpoint) counts of covering edges that the
    pairs of each case show, as a set per case letter: (a) both on side 0,
    (b) both on side 1, (c) the same residue on opposite sides, (d)
    different residues on opposite sides.  One coverage pass per family
    counts every pair at once; pair (u, v), u < v, is at colex rank
    u + comb(v, 2)."""
    m = families.m
    # Pairs in colex order: the comb(m, 2) on side 0, then for each v on
    # side 1 the u on side 0, with u = v - m in case (c), and those on side 1.
    letters = ["a" * comb(m, 2)]
    for v in range(m, families.n):
        letters.append("d" * (v - m) + "c" + "d" * (2 * m - 1 - v) + "b" * (v - m))
    passes = (families.side0, families.midpoint, families.off_midpoint)
    cases = {case: set() for case in "abcd"}
    for case, counts in zip("".join(letters), zip(*(coverage(f, 2) for f in passes))):
        cases[case].add(counts)
    return cases


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

    closed(T) is the n-bit mask of the (k-1)-subset T's vertices and of
    every x with T + {x} an edge.  tau passes iff, for every T, closed(tau T)
    and tau(closed(T)) agree on tau T only: the complement of their xor has
    just those k - 1 bits.  Any other bit y is a violation at T + {tau^-1 y},
    and the least such vertex of each T gives its lex-first violation.
    """
    if tau.n != h.n:
        raise ValueError(f"permutation length {tau.n} != order {h.n}")
    n, k = h.n, h.k
    closed = []
    for rows in _link_blocks(h._bits, n, k):
        # Reversed, the rows come last-first and each reads as a binary
        # numeral with bit x = byte x.
        digits = rows.translate(_BINARY_DIGITS)[::-1]
        cuts = map(slice, range(len(digits) - n, -1, -n), range(len(digits), 0, -n))
        closed += map(int, map(digits.__getitem__, cuts), repeat(2))
    # At k = 1 the only T is the empty set, its own image (rank 0).
    heads, image = (), [0]
    if k > 1:
        heads = _subset_columns(n, k - 1)
        image = _image_ranks(heads, tau.images, _binomial_table(n, k - 1))
    moved = _relabel_masks(closed, tau.images)
    full = (1 << n) - 1
    agree = map(xor, map(closed.__getitem__, image), moved)
    flips, counted = tee(map(xor, agree, repeat(full)))
    odd = map(ne, map(int.bit_count, counted), repeat(k - 1))
    bad = list(compress(enumerate(flips), odd))
    if not bad:
        return AntimorphismCheck(ok=True)
    back = _relabel_masks([flip for _, flip in bad], tau.inverse().images)
    witness = None
    for (r, _), mask in zip(bad, back):
        head = tuple(column[r] for column in heads)
        mask &= ~sum(1 << v for v in head)
        subset = tuple(sorted(head + ((mask & -mask).bit_length() - 1,)))
        if witness is None or subset < witness:
            witness = subset
    return AntimorphismCheck(ok=False, witness=witness)


def _link_blocks(bits, n: int, k: int):
    """The link rows (see `_link_rows`) of the (k-1)-subsets T of [0, n),
    n bytes each, one block per top vertex c of T.  Below c, they are the
    link rows on [0, c) of the block of edges with top c; byte x above c is
    the byte of T + {x}, at rank(T) in the block of edges with top x."""
    if k == 1:
        # The empty subset's row is the indicator itself.
        yield bits
        return
    for c in range(k - 2, n):
        low, high = comb(c, k - 1), comb(c + 1, k - 1)
        rows = _link_rows(bits[comb(c, k) : comb(c + 1, k)], c, k - 1, n)
        rows[c::n] = b"\x01" * (high - low)
        for x in range(c + 1, n):
            rows[x::n] = bits[comb(x, k) + low : comb(x, k) + high]
        yield rows


def _link_rows(bits, n: int, k: int, width: int) -> bytearray:
    """One row of `width` bytes per (k-1)-subset T of [0, n), in colex order:
    byte x is 1 iff x is in T or T + {x} is an edge of what bits indicates.

    The block of edges with top vertex c, indexed by their other vertices,
    is column c of the rows of the (k-1)-subsets of [0, c); below c, the
    rows of the T with top c are the block's own rows on [0, c).
    """
    if k == 1:
        row = bytearray(width)
        row[:n] = bits
        return row
    rows = bytearray(comb(n, k - 1) * width)
    # The first (k-1)-subset, {0, ..., k-2}, has no vertex below its top.
    rows[: k - 1] = b"\x01" * (k - 1)
    for c in range(k - 1, n):
        block = bits[comb(c, k) : comb(c + 1, k)]
        low, high = comb(c, k - 1) * width, comb(c + 1, k - 1) * width
        rows[low:high] = _link_rows(block, c, k - 1, width)
        rows[low + c : high : width] = b"\x01" * ((high - low) // width)
        rows[c:low:width] = block
    return rows


def _relabel_masks(masks, images):
    """Lazily, the image of each n-bit mask in the list `masks` under the
    vertex map `images`: byte j of a mask picks from a table of the images
    of the vertex sets of 8j, ..., 8j + 7, and the ceil(n / 8) picks are
    or-ed, for one block of _PARSE_BLOCK masks' bytes at a time."""
    width = (len(images) + 7) >> 3
    tables = [[0] for _ in range(width)]
    for v, w in enumerate(images):
        tables[v >> 3] += [m | 1 << w for m in tables[v >> 3]]
    for start in range(0, len(masks), _PARSE_BLOCK):
        block = masks[start : start + _PARSE_BLOCK]
        data = b"".join(map(int.to_bytes, block, repeat(width), repeat("little")))
        moved = repeat(0)
        for j, table in enumerate(tables):
            moved = map(or_, moved, map(table.__getitem__, data[j::width]))
        yield from moved


def _require_search_order(n: int, node_budget: int | None) -> None:
    if n <= FREE_SEARCH_ORDER:
        return
    if n <= MAX_SEARCH_ORDER:
        if node_budget is not None:
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
    newest assignment.

    An image subset is looked up by its vertex bitmask: byte_of maps the
    bitmask of each k-subset to its indicator byte, and shifted[w] holds
    1 << images[w], so the image of e has bitmask sum(map(shift, e)), with
    no sort and no rank.  The search order allows n <= 10, so byte_of has
    at most comb(10, 5) = 252 entries."""
    n, k = h.n, h.k
    bits = h.indicator
    flip = 0 if want_equal else 1
    bit = [1 << v for v in range(n)]
    images = [0] * n
    shifted = [0] * n
    shift = shifted.__getitem__
    used = [False] * n
    # tails[v]: the k-subsets with largest vertex v, each with the indicator
    # byte its image must have (the walk's position is the subset's rank).
    tails = [[] for _ in range(n)]
    byte_of = {}
    for r, e in enumerate(zip(*_subset_columns(n, k))):
        byte_of[sum(map(bit.__getitem__, e))] = bits[r]
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
            shifted[v] = bit[cand]
            for e, want in tails[v]:
                if byte_of[sum(map(shift, e))] != want:
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
    h: Hypergraph, node_budget: int | None = None
) -> Permutation | None:
    """First permutation (deterministic search order) exchanging edges and
    non-edges, or None when none exists.

    The counting obstruction 2*|E| == comb(n,k) is checked before any
    search.  A node budget opts in to the orders past FREE_SEARCH_ORDER.
    Raises SearchBudgetExceeded when the node budget runs out
    (inconclusive, as opposed to a definite None).
    """
    if 2 * h.edge_count != comb(h.n, h.k):
        return None
    _require_search_order(h.n, node_budget)
    found = _backtrack_images(
        h, want_equal=False, node_budget=node_budget, first_only=True
    )
    return found[0] if found else None


def automorphism_vertex_orbits(
    h: Hypergraph, *, node_budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the full automorphism group,
    found by exhaustive backtracking; a single orbit means vertex-transitive.
    A node budget opts in to the orders past FREE_SEARCH_ORDER."""
    _require_search_order(h.n, node_budget)
    autos = _backtrack_images(
        h, want_equal=True, node_budget=node_budget, first_only=False
    )
    # The search lists the whole group, so a vertex's orbit is the set of
    # its images, read down its column of the image tuples.
    images = zip(*(p.images for p in autos))
    return tuple(sorted({tuple(sorted(set(column))) for column in images}))


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
            pair = _subset_at(r, h.n, 2)
            raise ValueError(
                f"not a triangulation candidate: pair {pair}"
                f" lies in {c} edges, need exactly 2"
            )
    return h.n - len(counts) + h.edge_count
