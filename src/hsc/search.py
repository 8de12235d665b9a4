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

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import comb

from .colex import _binomial_table, _colex_columns, _image_ranks
from .hypercore import Hypergraph, Permutation
from .verify import t_subset_regularity

__all__ = [
    "DEFAULT_CANDIDATE_CAP",
    "CandidateCapExceeded",
    "InfeasibleAntimorphismError",
    "OrbitDecomposition",
    "SearchSummary",
    "enumerate_sc_hypergraphs",
    "search_regular_sc",
    "tau_orbits_on_ksubsets",
]

DEFAULT_CANDIDATE_CAP = 1 << 20


class InfeasibleAntimorphismError(ValueError):
    """The permutation has an odd-length orbit on k-subsets, so no
    edge/non-edge alternation exists."""


class CandidateCapExceeded(RuntimeError):
    """The assignment space is larger than the enumeration cap."""


@dataclass(frozen=True)
class OrbitDecomposition:
    """Cycles of a permutation acting on the colex ranks of k-subsets.

    Each orbit is listed as the cycle starting from its smallest rank;
    orbits are ordered by that smallest rank.
    """

    n: int
    k: int
    orbits: tuple[tuple[int, ...], ...]

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    @property
    def all_even(self) -> bool:
        return all(len(o) % 2 == 0 for o in self.orbits)


def tau_orbits_on_ksubsets(n: int, k: int, tau: Permutation) -> OrbitDecomposition:
    """Decompose the action of tau on all comb(n,k) subset ranks into cycles.

    The vertex columns of all k-subsets in colex order (a subset's position
    is its rank) are relabeled and ranked column-wise through the binomial
    table in one pass, and the cycles are read off that map of ranks.
    """
    if tau.n != n:
        raise ValueError(f"permutation length {tau.n} != order {n}")
    total = comb(n, k)
    # The empty set, the only 0-subset, is its own image; with k > n there
    # are no subsets to map.
    image = [0]
    if 0 < k <= n:
        columns = [tuple(column) for column in _colex_columns(n, k)]
        image = _image_ranks(columns, tau.images, _binomial_table(n, k))
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


def _feasible_orbits(n: int, k: int, tau: Permutation, cap: int) -> OrbitDecomposition:
    """Decompose tau's action on the k-subsets and refuse an odd orbit or a
    candidate space larger than `cap`."""
    dec = tau_orbits_on_ksubsets(n, k, tau)
    for o in dec.orbits:
        if len(o) % 2:
            raise InfeasibleAntimorphismError(
                f"orbit of odd length {len(o)} starting at rank {o[0]} "
                f"admits no alternating edge assignment"
            )
    if 1 << dec.orbit_count > cap:
        raise CandidateCapExceeded(
            f"2^{dec.orbit_count} candidates exceed the cap of {cap}"
        )
    return dec


def _candidates(dec: OrbitDecomposition):
    """Yield every alternating assignment in lexicographic bit order (bit of
    the first orbit most significant; bit 1 puts the orbit's least rank in
    the edge set)."""
    choices = [(orbit[1::2], orbit[::2]) for orbit in dec.orbits]
    for picks in product(*choices):
        yield Hypergraph.from_ranks(dec.n, dec.k, chain.from_iterable(picks))


def enumerate_sc_hypergraphs(
    n: int, k: int, tau: Permutation, *, cap: int = DEFAULT_CANDIDATE_CAP
):
    """All hypergraphs for which tau exchanges edges and non-edges.

    Returns a lazy generator over the 2**orbit_count alternating
    assignments; raises CandidateCapExceeded up front when there are more
    than `cap` of them.  Take a prefix with `itertools.islice`.
    """
    return _candidates(_feasible_orbits(n, k, tau, cap))


@dataclass(frozen=True)
class SearchSummary:
    """Result of an enumeration filtered by subset-regularity."""

    orbit_count: int
    regular: tuple[Hypergraph, ...]

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
    dec = _feasible_orbits(n, k, tau, cap)
    survivors = tuple(h for h in _candidates(dec) if t_subset_regularity(h, t))
    return SearchSummary(orbit_count=dec.orbit_count, regular=survivors)
