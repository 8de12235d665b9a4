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
from itertools import chain, repeat
from math import comb
from operator import add

from .colex import _binomial_table, _colex_columns, _column_ranks, _valid_columns
from .hypercore import Hypergraph, Permutation, _positions, _set_ranks

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


@dataclass(frozen=True)
class EdgeFamilies:
    """The three disjoint edge families of a constructed hypergraph.

    Edges are sorted vertex triples under the linear indexing; the families
    are distinguished by how many vertices they take from side 0 (3, 2, 1).
    """

    n: int
    m: int
    side0_triples: Triples
    midpoint_triples: Triples
    off_midpoint_triples: Triples

    def _families(self) -> tuple[Triples, Triples, Triples]:
        return (self.side0_triples, self.midpoint_triples, self.off_midpoint_triples)

    def sizes(self) -> tuple[int, int, int]:
        return tuple(map(len, self._families()))

    def all_edges(self) -> tuple[tuple[int, int, int], ...]:
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


def build_gamma_families(n: int) -> EdgeFamilies:
    """Build the edge families of the order-n construction, kept separate.

    Each family is built as three vertex columns from the colex columns of
    the residue pairs and triples, with no tuple per edge: a residue pair
    (a, b) is the side-0 pair of one midpoint triple and, shifted by m, the
    side-1 pair of m - 1 off-midpoint triples.  The subset-position bound is
    checked first: past it the families alone would take seconds and
    gigabytes to build, only for the hypergraph to be refused.
    """
    m = side_modulus(n)
    _positions(n, 3)

    side0 = Triples(list(column) for column in _colex_columns(m, 3))

    a, b = (list(column) for column in _colex_columns(m, 2))
    # halves[a + b] is the midpoint residue (a + b) / 2 mod m.
    halves = [half(x % m, m) for x in range(2 * m - 1)]
    mid = list(map(halves.__getitem__, map(add, a, b)))
    for x, y, c in zip(a, b, mid):
        # c == x would force x == y mod m; guards against modulus bugs.
        if c == x or c == y:
            raise RuntimeError(f"midpoint {c} of {x} and {y} mod {m} is an endpoint")
    midpoint = Triples((a, b, list(map(m.__add__, mid))))

    # others[c]: every residue but c, the first vertices of the off-midpoint
    # triples through the side-1 pair with midpoint c.
    others = [tuple(range(c)) + tuple(range(c + 1, m)) for c in range(m)]

    def spread(column):
        """Each side-1 vertex of the column, repeated for its m - 1 triples."""
        side1 = map(m.__add__, column)
        return list(chain.from_iterable(map(repeat, side1, repeat(m - 1))))

    first = list(chain.from_iterable(map(others.__getitem__, mid)))
    off_midpoint = Triples((first, spread(a), spread(b)))

    return EdgeFamilies(n, m, side0, midpoint, off_midpoint)


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
