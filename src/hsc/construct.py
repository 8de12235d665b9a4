"""Split-residue construction of 2-subset-regular self-complementary
3-uniform hypergraphs for orders n >= 6 with n % 4 == 2.

Vertices come in two sides, each a copy of Z_m with m = n/2 odd.  The
vertex (a, side i) is linearized to the index a + i*m, so side 0 occupies
0..m-1 and side 1 occupies m..n-1.  Because m is odd, 2 is invertible mod
m and every pair of residues has a well-defined midpoint (a+b)/2; the edge
set is the disjoint union of three families built from that midpoint
arithmetic:

  * side0 triples:        every 3-subset of side 0;
  * midpoint triples:     {a_0, b_0, c_1} with a != b and c = (a+b)/2;
  * off-midpoint triples: {a_0, b_1, c_1} with b != c and a any residue
                          except (b+c)/2.

Swapping the two sides maps every edge to a non-edge and vice versa, and
every 2-subset of vertices lies in exactly (n-2)/2 edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .hypercore import Hypergraph, Permutation, _positions

__all__ = [
    "AdmissibilityError",
    "EdgeFamilies",
    "build_gamma",
    "build_gamma_families",
    "edge_counts",
    "half",
    "side_modulus",
    "swap_antimorphism",
    "vertex_label",
]


class AdmissibilityError(ValueError):
    """A parameter fails a congruence or divisibility requirement."""


def side_modulus(n: int) -> int:
    """The odd residue modulus m = n/2 shared by both vertex sides of an
    admissible order n; raises AdmissibilityError for any other order."""
    if n < 6 or n % 4 != 2:
        raise AdmissibilityError(
            f"inadmissible order n={n}: need n >= 6 and n % 4 == 2"
        )
    return n // 2


def half(x: int, m: int) -> int:
    """The unique residue y with 2*y == x (mod m), for odd m; the inverse of
    2 mod m is (m+1)/2."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")
    if not 0 <= x < m:
        raise ValueError(f"residue {x} out of range [0, {m})")
    return x * ((m + 1) // 2) % m


def vertex_label(v: int, m: int) -> str:
    """Human-readable residue_side label of a linear vertex index."""
    if not 0 <= v < 2 * m:
        raise ValueError(f"vertex {v} out of range [0, {2 * m})")
    return f"{v % m}_{v // m}"


@dataclass(frozen=True)
class EdgeFamilies:
    """The three disjoint edge families of a constructed hypergraph.

    Edges are sorted vertex triples under the linear indexing; the families
    are distinguished by how many vertices they take from side 0 (3, 2, 1).
    """

    n: int
    m: int
    side0_triples: tuple[tuple[int, int, int], ...]
    midpoint_triples: tuple[tuple[int, int, int], ...]
    off_midpoint_triples: tuple[tuple[int, int, int], ...]

    def sizes(self) -> tuple[int, int, int]:
        return (
            len(self.side0_triples),
            len(self.midpoint_triples),
            len(self.off_midpoint_triples),
        )

    def all_edges(self) -> tuple[tuple[int, int, int], ...]:
        return self.side0_triples + self.midpoint_triples + self.off_midpoint_triples

    def to_hypergraph(self) -> Hypergraph:
        # The Hypergraph constructor rejects duplicate edges, so this also
        # enforces pairwise disjointness of the families.
        return Hypergraph(self.n, 3, self.all_edges())


def build_gamma_families(n: int) -> EdgeFamilies:
    """Build the edge families of the order-n construction, kept separate.

    The subset-position bound is checked before any family is built: past
    it the families alone would take seconds and gigabytes to build, only
    for the Hypergraph constructor to refuse them.
    """
    m = side_modulus(n)
    _positions(n, 3)

    side0 = tuple(combinations(range(m), 3))

    midpoint = []
    for a, b in combinations(range(m), 2):
        c = half((a + b) % m, m)
        # c == a would force a == b mod m; guards against modulus bugs.
        if c == a or c == b:
            raise RuntimeError(f"midpoint {c} of {a} and {b} mod {m} is an endpoint")
        midpoint.append((a, b, c + m))

    off_midpoint = []
    for b, c in combinations(range(m), 2):
        banned = half((b + c) % m, m)
        for a in range(m):
            if a != banned:
                off_midpoint.append((a, b + m, c + m))

    return EdgeFamilies(
        n=n,
        m=m,
        side0_triples=side0,
        midpoint_triples=tuple(midpoint),
        off_midpoint_triples=tuple(off_midpoint),
    )


def build_gamma(n: int) -> Hypergraph:
    """The order-n constructed hypergraph; exactly comb(n,3)/2 edges."""
    h = build_gamma_families(n).to_hypergraph()
    if 2 * h.edge_count != comb(n, 3):
        raise RuntimeError(
            f"order {n} gives {h.edge_count} edges, not half of comb({n},3)"
        )
    return h


def swap_antimorphism(n: int) -> Permutation:
    """The side swap a + i*m  <->  a + (1-i)*m; an involution without fixed points."""
    if n <= 0 or n % 2:
        raise ValueError(f"order must be even and positive, got {n}")
    m = n // 2
    return Permutation((v + m) % n for v in range(n))


def edge_counts(n: int) -> tuple[int, int, int]:
    """Closed-form family sizes (side0, midpoint, off-midpoint); sum comb(n,3)/2."""
    m = side_modulus(n)
    return (comb(m, 3), comb(m, 2), comb(m, 2) * (m - 1))
