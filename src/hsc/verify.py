"""Mechanical checks for constructed hypergraphs: subset-regularity with
its valence, antimorphism verification and backtracking search, the pair
coverage of the regularity proof's four cases split by edge family,
vertex-transitivity evidence, and the Euler characteristic of 2-valent
triple systems.

All checks are pure functions of their inputs.  Regularity, the pair cases
and the antimorphism check read the indicator's colex blocks and list no
edge: the pair cases take one coverage pass per family's indicator, and
the antimorphism check compares the link row of every (k-1)-subset, one
byte per vertex, with the row of its image under tau pulled back through
tau, a chunk of rows at a time, and relabels no bit.  The exhaustive searches
(antimorphism and automorphism enumeration) are gated by order: orders up
to 8 run freely, 9 and 10 need an explicit opt-in, anything larger is
refused outright; they look each image subset up by its vertex bitmask in a
dict of indicator bytes, zipped per call onto bitmasks cached per shape.  At
k = 3 they try as images of a vertex only those of its K4 class, and the
orbit search seeks only generators of the automorphism group, pruned by
their orbits.
A node, one candidate tried, is counted in that pruned tree, so a budget
that ran out on the whole tree may now be enough.

The K4 vertex invariant is asked one vertex at a time but computed for all
vertices at once: it intersects the closed link masks of every edge's three
pairs, read as n-bit ints from the pairs' link rows, one top vertex at a time.
The masks are kept on the hypergraph; no profile is kept between calls.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from math import comb
from operator import add, mul

from .colex import _image_ranks, _subset_at, _subset_columns
from .construct import EdgeFamilies
from .hypercore import Hypergraph, Permutation, _coverage_lanes, coverage

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

# Byte table printing link-row bytes as binary digits, a member byte as 1.
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"011")
# Byte table exchanging edges and non-edges of an indicator or of link rows,
# whose member bytes it leaves alone.
_COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# Link rows per chunk of the antimorphism check.  On the `certify` benchmark
# (Python 3.11, 2 vCPUs) 1024 rows raised the peak to 16.90 MB against
# 16.49 MB for 256, at no gain in speed.  At n = 466, 128, 256 and 1024 rows
# took the same time within the machine's noise, 0.38-0.61 s for a swap
# check, at a VmHWM of 81.3, 81.6 and 84.0 MB.
_CHUNK_ROWS = 256


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


class RegularityReport(
    namedtuple(
        "RegularityReport",
        "t valence witness witness_count first_count",
        defaults=(None, None, None),
    )
):
    """Outcome of a t-subset coverage check.

    On success `valence` holds the common coverage; on failure `witness` is
    the first t-subset (in colex order) whose coverage differs from that of
    the colex-first t-subset, with both counts attached.
    """

    __slots__ = ()

    @property
    def regular(self) -> bool:
        return self.valence is not None

    def __bool__(self) -> bool:
        return self.regular


def t_subset_regularity(h: Hypergraph, t: int) -> RegularityReport:
    """Check whether every t-subset of vertices lies in the same number of edges.

    One coverage pass counts the edges through each of the comb(n,t)
    t-subsets as the lanes of one int, unpacked into no list: the counts are
    all equal iff the int is its first lane repeated in every lane, and
    otherwise the lowest bit where the two differ is in the witness's lane.
    """
    if not 1 <= t < h.k:
        raise ValueError(f"need 1 <= t < k={h.k}, got t={t}")
    lanes, subsets, width = _coverage_lanes(h, t)
    lane = 8 * width
    mask = (1 << lane) - 1
    first = lanes & mask
    # A 1 in every lane: the all-ones int divided by one lane's all-ones.
    ones = ((1 << lane * subsets) - 1) // mask
    off = lanes ^ first * ones
    if off:
        r = ((off & -off).bit_length() - 1) // lane
        count = lanes >> lane * r & mask
        return RegularityReport(t, None, _subset_at(r, h.n, t), count, first)
    # Double counting: valence * comb(n,t) == |E| * comb(k,t).
    if first * subsets != h.edge_count * comb(h.k, t):
        raise RuntimeError(
            f"double counting fails: valence {first} * comb({h.n},{t}) != "
            f"{h.edge_count} edges * comb({h.k},{t})"
        )
    return RegularityReport(t, first)


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


class AntimorphismCheck(
    namedtuple("AntimorphismCheck", "ok witness", defaults=(None,))
):
    """Result of checking `e is an edge  xor  image of e is an edge` for all e."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_antimorphism(h: Hypergraph, tau: Permutation) -> AntimorphismCheck:
    """True iff tau exchanges edges and non-edges; witness is the first
    k-subset (lex order) violating the exchange.

    Byte x of the link row of a (k-1)-subset T (`_link_rows`) is 2 if x is
    in T, else 1 or 0 as T + {x} is an edge or not.  tau passes iff, for
    every T, the row of tau T read at tau x is byte x of T's row with 0 and
    1 exchanged: both are 2 on T, and elsewhere they are the bytes of
    tau(T + {x}) and T + {x}.  A chunk of rows is checked at once: their
    image rows are gathered, pulled through tau with one strided copy per
    vertex x, and compared with the chunk's own rows complemented.

    Only a chunk that differs is read row by row, and only its rows whose
    bytes differ are read further: their head, skipping the rows lex-after
    the lex-first that differed so far, then their lowest differing byte.
    A violation shows in the row of itself less its largest vertex, the
    lex-first of its rows, so the lex-first violation is T + {x} for the
    lex-first row T that differs, x its lowest differing byte (above T's
    top vertex).  The image ranks come from `_image_ranks` (pairs, at
    k = 3, by lookup), and the heads from the cached subset columns,
    fetched only when a chunk differs.
    """
    if tau.n != h.n:
        raise ValueError(f"permutation length {tau.n} != order {h.n}")
    n, k = h.n, h.k
    rows = _link_rows(h._bits, n, k, n)
    # At k = 1 the only T is the empty set, its own image (rank 0).
    image = _image_ranks(n, k - 1, tau.images) if k > 1 else iter([0])
    witness = None
    for first in range(0, len(rows) // n, _CHUNK_ROWS):
        ranks = list(islice(image, _CHUNK_ROWS))
        starts = map(mul, ranks, repeat(n))
        stops = map(mul, map(add, ranks, repeat(1)), repeat(n))
        gathered = b"".join(map(rows.__getitem__, map(slice, starts, stops)))
        pulled = bytearray(len(gathered))
        for x, y in enumerate(tau.images):
            pulled[x::n] = gathered[y::n]
        own = rows[first * n : first * n + len(pulled)].translate(_COMPLEMENT)
        if pulled == own:
            continue
        heads = _subset_columns(n, k - 1) if k > 1 else ()
        for r, at in enumerate(range(0, len(own), n), first):
            row, image_row = own[at : at + n], pulled[at : at + n]
            if row == image_row:
                continue
            head = tuple(column[r] for column in heads)
            if witness is not None and head > witness[:-1]:
                continue
            diff = int.from_bytes(row, "little") ^ int.from_bytes(image_row, "little")
            witness = head + ((diff & -diff).bit_length() - 1 >> 3,)
    return AntimorphismCheck(ok=witness is None, witness=witness)


def _closed_masks(bits, n: int) -> list[int]:
    """closed(ab) of every pair {a, b} of [0, n) in colex order: the n-bit
    mask of a, b and every x with {a, b, x} an edge of the triples that bits
    indicates, read from the pairs' link rows (see `_link_rows`) one top
    vertex c at a time, a member byte 2 as a set bit.  Below c, the rows of
    the pairs {a, c} are the link rows on [0, c) of the block of triples
    with top c; byte x above c is that of {a, c, x}, at rank a + comb(c, 2)
    in the block of triples with top x, which starts at comb(x, 3)."""
    closed = []
    tops = list(map(comb, range(n + 1), repeat(3)))
    for c in range(1, n):
        low, high = comb(c, 2), comb(c + 1, 2)
        rows = _link_rows(bits[tops[c] : tops[c + 1]], c, 2, n)
        rows[c::n] = b"\x02" * c
        for x, top in enumerate(tops[c + 1 : n], c + 1):
            rows[x::n] = bits[top + low : top + high]
        # Reversed, the rows come last-first and each reads as a binary
        # numeral with bit x = byte x.
        digits = rows.translate(_BINARY_DIGITS)[::-1]
        cuts = map(slice, range(len(digits) - n, -1, -n), range(len(digits), 0, -n))
        closed += map(int, map(digits.__getitem__, cuts), repeat(2))
    return closed


def _link_rows(bits, n: int, k: int, width: int) -> bytearray:
    """One row of `width` bytes per (k-1)-subset T of [0, n), in colex order:
    byte x is the member byte 2 if x is in T, else 1 or 0 as T + {x} is or
    is not an edge of what bits indicates.

    The block of edges with top vertex c, indexed by their other vertices,
    is column c of the rows of the (k-1)-subsets of [0, c); below c, the
    rows of the T with top c are the block's own rows on [0, c).  At k = 2
    one loop writes the member diagonal and moves each block c to row c and
    column c.
    """
    if k == 1:
        row = bytearray(width)
        row[:n] = bits
        return row
    rows = bytearray(comb(n, k - 1) * width)
    if k == 2:
        rows[:: width + 1] = b"\x02" * n
        for c, low in zip(range(1, n), accumulate(range(n))):
            block = bits[low : low + c]
            rows[c * width : c * width + c] = block
            rows[c : c * width : width] = block
        return rows
    # The first (k-1)-subset, {0, ..., k-2}, has no vertex below its top.
    rows[: k - 1] = b"\x02" * (k - 1)
    for c in range(k - 1, n):
        block = bits[comb(c, k) : comb(c + 1, k)]
        low, high = comb(c, k - 1) * width, comb(c + 1, k - 1) * width
        rows[low:high] = _link_rows(block, c, k - 1, width)
        rows[low + c : high : width] = b"\x02" * ((high - low) // width)
        rows[c:low:width] = block
    return rows


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


def _backtrack_images(h, *, want_equal, node_budget, first_only, classes=None):
    """Permutations mapping edges to edges (want_equal) or to non-edges: the
    first found if first_only, else generators of the automorphism group
    (want_equal).  Vertices are assigned in increasing order, images
    from classes[v] (see `_k4_classes`, else every vertex) ascending; a node
    is one candidate tried, pruned on every k-subset it completes.  Orbit
    pruning (McKay): at depth v of the identity path (`fixed`), where every
    generator found fixes 0..v-1, an image w != v in v's orbit under them
    is skipped; off it, a subtree stops at its first leaf, a new generator.
    Only subtrees are cut, so no more nodes are spent than to list the group.

    An image subset is looked up by its vertex bitmask: byte_of maps the
    bitmask of each k-subset to its indicator byte, and shifted[w] holds
    1 << images[w], so the image of e has bitmask sum(map(shift, e)), with
    no sort and no rank.  The bitmasks and the subsets grouped by top vertex
    depend on (n, k) alone (`_search_shape`); a call only zips in the
    indicator bytes."""
    n = h.n
    masks, blocks = _search_shape(n, h.k)
    byte_of = dict(zip(masks, h._bits))
    wanted = iter(h._bits if want_equal else h._bits.translate(_COMPLEMENT))
    # tails[v]: the k-subsets with largest vertex v, each with the indicator
    # byte its image must have.  The blocks run in colex order, so each
    # takes the next bytes; zip reads its block first, so it stops without
    # taking a byte past it.
    tails = [list(zip(block, wanted)) for block in blocks]
    bit = [1 << v for v in range(n)]
    images = [0] * n
    shifted = [0] * n
    shift = shifted.__getitem__
    used = [False] * n
    candidates = classes or [range(n)] * n
    orbit = _orbits(n, ())
    found = []
    nodes = 0

    def extend(v, fixed):
        nonlocal nodes
        if v == n:
            found.append(Permutation(images))
            orbit[:] = _orbits(n, found)
            return True
        for cand in candidates[v]:
            if used[cand] or fixed and cand != v and cand in orbit[v]:
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
                leaf = extend(v + 1, fixed and cand == v)
                used[cand] = False
                if leaf and not fixed:
                    return True
        return False

    extend(0, not first_only)
    return found


@lru_cache(maxsize=16)
def _search_shape(n: int, k: int) -> tuple:
    """(masks, blocks) for `_backtrack_images` on k-uniform hypergraphs of
    order n: masks[r] is the vertex bitmask of the k-subset of colex rank r,
    and blocks[v] the k-subsets with top vertex v, rank by rank.  The search
    order allows n <= 10, so each holds at most comb(10, 5) = 252 subsets."""
    subsets = list(zip(*_subset_columns(n, k)))
    masks = tuple(sum(1 << v for v in e) for e in subsets)
    tops = [comb(v, k) for v in range(n + 1)]
    blocks = tuple(tuple(subsets[tops[v] : tops[v + 1]]) for v in range(n))
    return masks, blocks


def _orbits(n: int, permutations) -> list[set[int]]:
    """The orbit of each vertex under the group the permutations generate,
    one set shared by its members, joined along their cycles."""
    orbit = [{v} for v in range(n)]
    for p in permutations:
        for v, w in enumerate(p.images):
            if orbit[v] is not orbit[w]:
                orbit[v] |= orbit[w]
                for x in orbit[w]:
                    orbit[x] = orbit[v]
    return orbit


def _k4_classes(h: Hypergraph, want_equal: bool) -> list[list[int]] | None:
    """The candidate images of each vertex v for `_backtrack_images` when
    k = 3, else None (every vertex).  An automorphism carries the K4s
    through v onto those through its image w, so K4(w) = K4(v); an
    antimorphism carries them onto the 4-subsets through w whose four
    triples are non-edges, so w's K4 count in the complement is K4(v)."""
    if h.k != 3:
        return None
    own = image = _k4_profile(h)
    if not want_equal:
        flipped = h._bits.translate(_COMPLEMENT)
        edges = h.positions - h.edge_count
        image = _k4_profile(Hypergraph._from_indicator(h.n, 3, flipped, edges))
    return [[w for w in range(h.n) if image[w] == count] for count in own]


def find_antimorphism(
    h: Hypergraph, node_budget: int | None = None
) -> Permutation | None:
    """First permutation (deterministic search order) exchanging edges and
    non-edges, or None when none exists.

    The counting obstruction 2*|E| == comb(n,k) is checked before any
    search.  A node budget opts in to the orders past FREE_SEARCH_ORDER.
    At k = 3 a vertex's images are tried only among the vertices whose K4
    count in the complement is its own, so a node is one such candidate.
    Raises SearchBudgetExceeded when the node budget runs out
    (inconclusive, as opposed to a definite None).
    """
    if 2 * h.edge_count != comb(h.n, h.k):
        return None
    _require_search_order(h.n, node_budget)
    classes = _k4_classes(h, want_equal=False)
    found = _backtrack_images(
        h, want_equal=False, node_budget=node_budget, first_only=True, classes=classes
    )
    return found[0] if found else None


def automorphism_vertex_orbits(
    h: Hypergraph, *, node_budget: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the vertices under the full automorphism group,
    joined along the cycles of the generators that the pruned backtracking
    finds; a single orbit means vertex-transitive.  A node budget opts in to
    the orders past FREE_SEARCH_ORDER.  A node is one image tried in that
    search: at k = 3 only among the vertices of its K4 count, and on the
    identity path none already in its orbit.  With no edges, or all, every
    permutation is an automorphism, so the one orbit needs no search."""
    _require_search_order(h.n, node_budget)
    if h.edge_count in (0, h.positions):
        return (tuple(range(h.n)),)
    classes = _k4_classes(h, want_equal=True)
    generators = _backtrack_images(
        h, want_equal=True, node_budget=node_budget, first_only=False, classes=classes
    )
    return tuple(sorted({tuple(sorted(o)) for o in _orbits(h.n, generators)}))


# ---------------------------------------------------------------------------
# Per-vertex invariants and the Euler characteristic
# ---------------------------------------------------------------------------


def _k4_profile(h: Hypergraph) -> tuple[int, ...]:
    """K4 count of every vertex, from the closed pair masks kept on h.

    For an edge {a, b, c} of c's colex block, closed(ab) & closed(ac) &
    closed(bc) holds a, b, c and each x completing it to a K4; ac and bc are
    entries a and b of c's slice of the masks.  Each K4 is seen from its
    four edges, and a vertex lies in three of them, so the tallies divided
    by 3 are the per-vertex counts.
    """
    n, bits = h.n, h._bits
    if h._pair_masks is None:
        h._pair_masks = _closed_masks(bits, n)
    masks = h._pair_masks
    firsts, seconds = _subset_columns(n, 2)
    totals = [0] * n
    for c in range(2, n):
        top = masks[comb(c, 2) : comb(c + 1, 2)]
        block = bits[comb(c, 3) : comb(c + 1, 3)]
        for a, b, ab in compress(zip(firsts, seconds, masks), block):
            w = (ab & top[a] & top[b]).bit_count() - 3
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
    over the edges (O(|E|) operations on n-bit ints) and keeps only the
    pair masks on h, so asking for all n vertices costs O(n |E|).
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
