"""Independent rediscovery oracle: enumerate every hypergraph for which a
given permutation exchanges edges with non-edges, and filter the
subset-regular survivors.

The permutation acts on k-subset ranks; membership must alternate along
each of its orbits, so an orbit of odd length rules the permutation out
entirely, and otherwise each orbit contributes one free bit (whether its
colex-least subset is an edge).  The candidate space is exactly
2**orbit_count, enumerated in lexicographic bit order with the first
orbit's bit most significant.
"""

from collections import namedtuple
from itertools import product
from math import comb
from operator import eq

from .colex import _image_ranks
from .hypercore import Hypergraph, Permutation, _positions
from .verify import t_subset_regularity

__all__ = [
    "DEFAULT_CANDIDATE_CAP",
    "CandidateCapExceeded",
    "InfeasibleAntimorphismError",
    "OrbitDecomposition",
    "SearchSummary",
    "search_regular_sc",
    "tau_orbits_on_ksubsets",
]

DEFAULT_CANDIDATE_CAP = 1 << 20

# Refuse a search whose 2^orbits candidates times comb(n, t) coverage lanes
# each exceed this.  With the side swap (one process, 2 vCPUs, Python 3.11)
# a lane costs 12-31 ns once comb(n, t) passes a few thousand: (n, k, t) =
# (20, 19, 5), 1.6e7 lanes, took 0.38 s and (30, 29, 2), 1.4e7, 0.36 s; past
# the bound (22, 21, 5), 5.4e7, took 1.1 s, (24, 23, 5), 1.7e8, 3.1 s, and
# (30, 29, 5), 4.7e9, about 107 s.  `search --n 6` sums 15 360.
MAX_SEARCH_LANES = 1 << 24


class InfeasibleAntimorphismError(ValueError):
    """The permutation has an odd-length orbit on k-subsets, so no
    edge/non-edge alternation exists."""


class CandidateCapExceeded(RuntimeError):
    """The assignment space is larger than the enumeration cap."""


class OrbitDecomposition(namedtuple("OrbitDecomposition", "n k orbits")):
    """Cycles of a permutation acting on the colex ranks of k-subsets.

    Each orbit is listed as the cycle starting from its smallest rank;
    orbits are ordered by that smallest rank.
    """

    __slots__ = ()

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


def tau_orbits_on_ksubsets(n: int, k: int, tau: Permutation) -> OrbitDecomposition:
    """Decompose the action of tau on all comb(n,k) subset ranks into cycles.

    The images of all k-subsets in colex order (a subset's position is its
    rank) are ranked in one pass (`_image_ranks`: pairs by lookup, other
    sizes column-wise through the binomial table), and the cycles are read
    off that map of ranks.
    """
    if tau.n != n:
        raise ValueError(f"permutation length {tau.n} != order {n}")
    total = comb(n, k)
    # The empty set, the only 0-subset, is its own image; with k > n there
    # are no subsets to map.
    image = [0]
    if 0 < k <= n:
        image = list(_image_ranks(n, k, tau.images))
    seen = bytearray(total)
    orbits = []
    for start in range(total):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        r = image[start]
        while r != start:
            cycle.append(r)
            seen[r] = 1
            r = image[r]
        orbits.append(tuple(cycle))
    return OrbitDecomposition(n=n, k=k, orbits=tuple(orbits))


def _feasible_orbits(
    n: int, k: int, tau: Permutation, cap: int, t: int | None = None
) -> OrbitDecomposition:
    """Decompose tau's action on the k-subsets, then refuse, in this order:
    an odd orbit (a finding about tau, whatever t is), a t outside [1, k)
    when t is given, more than `cap` candidates, and, when t is given, more
    than MAX_SEARCH_LANES coverage lanes over all of them.  A uniformity
    outside [1, n] or past the position bound is refused before the
    decomposition.
    An involution is judged without one: its odd orbits are the k-subsets
    it fixes, the colex-least first, and if it fixes none its comb(n, k) / 2
    orbits have length 2.
    """
    _positions(n, k)
    dec = None
    fixed = _involution_fixed_ksubsets(n, k, tau)
    if fixed is None:
        dec = tau_orbits_on_ksubsets(n, k, tau)
        odd = next((o for o in dec.orbits if len(o) % 2), None)
    else:
        odd = (_least_fixed_rank(tau.images, k),) if fixed else None
    if odd:
        raise InfeasibleAntimorphismError(
            f"orbit of odd length {len(odd)} starting at rank {odd[0]} "
            f"admits no alternating edge assignment"
        )
    if t is not None and not 1 <= t < k:
        raise ValueError(f"need 1 <= t < k={k}, got t={t}")
    orbit_count = comb(n, k) // 2 if dec is None else dec.orbit_count
    if 1 << orbit_count > cap:
        raise CandidateCapExceeded(
            f"2^{orbit_count} candidates exceed the cap of {cap}"
        )
    if t is not None and comb(n, t) << orbit_count > MAX_SEARCH_LANES:
        raise ValueError(
            f"2^{orbit_count} candidates x comb({n},{t})={comb(n, t)} lanes "
            f"exceed the search bound of {MAX_SEARCH_LANES} lanes"
        )
    if dec is None:
        dec = tau_orbits_on_ksubsets(n, k, tau)
    return dec


def _involution_fixed_ksubsets(n: int, k: int, tau: Permutation) -> int | None:
    """How many k-subsets of [0, n) tau fixes if it is an involution of
    [0, n), else None: each is j of its p 2-cycles and k - 2j of its f
    fixed points."""
    images = tau.images
    if len(images) != n or any(images[w] != v for v, w in enumerate(images)):
        return None
    f = sum(map(eq, images, range(n)))
    p = (n - f) // 2
    return sum(comb(p, j) * comb(f, k - 2 * j) for j in range(k // 2 + 1))


def _least_fixed_rank(images, k: int) -> int:
    """The colex rank of the least k-subset that the involution `images`
    fixes, one being known to exist.  Such a subset is a union of cycles,
    and in colex order a k-subset is as large as its bitmask, so adding
    the cycles by their larger vertex keeps the least union of each size:
    one found first is below any that takes a later cycle."""
    least = {0: 0}
    for v, w in enumerate(images):
        if w <= v:
            size, mask = 1 + (w < v), 1 << v | 1 << w
            for s, union in list(least.items()):
                least.setdefault(s + size, union | mask)
    union = least[k]
    vertices = [v for v in range(len(images)) if union >> v & 1]
    return sum(comb(v, i + 1) for i, v in enumerate(vertices))


def _candidates(dec: OrbitDecomposition):
    """Yield every alternating assignment in lexicographic bit order (bit of
    the first orbit most significant; bit 1 puts the orbit's least rank in
    the edge set).

    Each orbit's two picks are made once as byte masks, ints with byte r
    set to 1 for each picked rank r; the orbits are disjoint, so a
    candidate's indicator is the sum of its picks' masks.  An alternating
    assignment takes half of every even orbit, so it has exactly half the
    positions as edges."""
    positions = comb(dec.n, dec.k)
    half = positions // 2
    masks = [
        (_byte_mask(orbit[1::2]), _byte_mask(orbit[::2])) for orbit in dec.orbits
    ]
    for picks in product(*masks):
        bits = bytearray(sum(picks).to_bytes(positions, "little"))
        count = bits.count(1)
        if count != half:
            raise RuntimeError(
                f"candidate has {count} edges, not half of {positions} positions"
            )
        yield Hypergraph._from_indicator(dec.n, dec.k, bits, half)


def _byte_mask(ranks) -> int:
    """The int whose little-endian bytes are 1 at the given ranks, else 0."""
    return sum(1 << (8 * r) for r in ranks)


class SearchSummary(namedtuple("SearchSummary", "orbit_count regular")):
    """Result of an enumeration filtered by subset-regularity: the orbit
    count and the regular candidates, a tuple of `Hypergraph`s."""

    __slots__ = ()

    @property
    def candidate_total(self) -> int:
        return 1 << self.orbit_count

    @property
    def examined(self) -> int:
        """Candidates tested for regularity: all of them."""
        return self.candidate_total

    def summary_line(self) -> str:
        return (
            f"orbits={self.orbit_count} candidates={self.candidate_total} "
            f"regular={len(self.regular)}"
        )


def search_regular_sc(
    n: int,
    k: int,
    t: int,
    tau: Permutation,
    *,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> SearchSummary:
    """Enumerate the alternating assignments for tau and keep the t-subset
    regular ones, in enumeration order."""
    dec = _feasible_orbits(n, k, tau, cap, t)
    survivors = tuple(h for h in _candidates(dec) if t_subset_regularity(h, t))
    return SearchSummary(orbit_count=dec.orbit_count, regular=survivors)
