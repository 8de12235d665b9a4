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

In colex ranks the families have a closed form, so `build_gamma` writes
the indicator straight from it, one run of ranks per residue pair, and
`build_gamma_families` cuts that indicator into three colex-rank slices,
one indicator per family; no edge is listed.
"""

from collections import namedtuple
from math import comb

from .hypercore import Hypergraph, Permutation, _positions

__all__ = [
    "AdmissibilityError",
    "EdgeFamilies",
    "build_gamma",
    "build_gamma_families",
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


class EdgeFamilies(namedtuple("EdgeFamilies", "n m side0 midpoint off_midpoint")):
    """The three disjoint edge families of a constructed hypergraph, each a
    `Hypergraph` on all n vertices; they are distinguished by how many
    vertices their edges take from side 0 (3, 2, 1).
    """

    __slots__ = ()


def build_gamma_families(n: int) -> EdgeFamilies:
    """The order-n construction split into its families, as slices of its
    indicator: side 0's triples hold the ranks [0, comb(m, 3)); the block of
    each top vertex c on side 1 starts with the comb(m, 2) pairs of side 0,
    its midpoint triples, and ends with its off-midpoint triples."""
    bits = _gamma_indicator(n)
    m = n // 2
    side0, midpoint, off_midpoint = (bytearray(len(bits)) for _ in range(3))
    side0[: comb(m, 3)] = bits[: comb(m, 3)]
    for c in range(m, n):
        low, high = comb(c, 3), comb(c + 1, 3)
        cut = low + comb(m, 2)
        midpoint[low:cut] = bits[low:cut]
        off_midpoint[cut:high] = bits[cut:high]
    families = (side0, midpoint, off_midpoint)
    return EdgeFamilies(
        n, m, *(Hypergraph._from_indicator(n, 3, f, f.count(1)) for f in families)
    )


def _gamma_indicator(n: int) -> bytearray:
    """The indicator of the order-n construction: side 0's triples, the
    ranks [0, comb(m, 3)), are all edges; each residue pair b < c sets its
    midpoint triple {b, c, m + mid(b, c)} and its m triples {x, m + b, m + c}
    with x on side 0, a run of ranks, but for x = mid(b, c).  The position
    bound is checked before any byte is made."""
    m = side_modulus(n)
    bits = bytearray(_positions(n, 3))
    bits[: comb(m, 3)] = b"\x01" * comb(m, 3)
    # halves[a + b] is the midpoint residue (a + b) / 2 mod m; holes[x] is
    # a run of m edges but for a non-edge at x.
    halves = [half(x % m, m) for x in range(2 * m - 1)]
    holes = [b"\x01" * x + b"\x00" + b"\x01" * (m - 1 - x) for x in range(m)]
    for c in range(m):
        for b in range(c):
            x = halves[b + c]
            # x == b would force b == c mod m; guards against modulus bugs.
            if x == b or x == c:
                raise RuntimeError(
                    f"midpoint {x} of {b} and {c} mod {m} is an endpoint"
                )
            bits[b + comb(c, 2) + comb(m + x, 3)] = 1
            run = comb(m + b, 2) + comb(m + c, 3)
            bits[run : run + m] = holes[x]
    return bits


def build_gamma(n: int) -> Hypergraph:
    """The order-n constructed hypergraph; exactly comb(n,3)/2 edges."""
    bits = _gamma_indicator(n)
    edges = bits.count(1)
    if 2 * edges != comb(n, 3):
        raise RuntimeError(f"order {n} gives {edges} edges, not half of comb({n},3)")
    return Hypergraph._from_indicator(n, 3, bits, edges)


def swap_antimorphism(n: int) -> Permutation:
    """The side swap a + i*m  <->  a + (1-i)*m; an involution without fixed points."""
    if n <= 0 or n % 2:
        raise ValueError(f"order must be even and positive, got {n}")
    m = n // 2
    return Permutation((v + m) % n for v in range(n))
