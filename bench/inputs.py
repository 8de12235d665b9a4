"""Seeded input generator and the independent arithmetic the checks use.

Nothing here imports ``hsc``: the edge lists, relabelings, permutation
files and corrupted copies are built from the construction's definition,
so set-up cost does not depend on the speed of the code under test and the
expected results do not come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

# sha256 of `hsc construct --n N --out FILE` at the commit that defined the
# benchmark; the construction's output must stay byte-identical.
CONSTRUCT_SHA256 = {
    6: "90a8a55f915a40020d98fa455a8642fda41a8d2cc66e911735d268e0c3f70a23",
    10: "84460a1edbc7abcae56cc62dc5acb89b27caa427173f5ed49f3c330113480d9c",
    50: "9d60243c5ab44309aa96803f8474a5844720ed9460994c63c0909efde371083b",
    102: "20df81298f24e4d31c600e30072c3e60a3c7915d7e94b1ac7ae1f0c8e0f572ac",
}


def colex_key(s):
    """Sort key putting ascending vertex tuples in colex order."""
    return s[::-1]


def gamma_edges(n: int) -> list[tuple[int, int, int]]:
    """Edges of the order-n construction, ascending triples in colex order."""
    m = n // 2
    inv2 = (m + 1) // 2
    edges = list(combinations(range(m), 3))
    edges += [(a, b, (a + b) * inv2 % m + m) for a, b in combinations(range(m), 2)]
    edges += [
        (a, b + m, c + m)
        for b, c in combinations(range(m), 2)
        for a in range(m)
        if a != (b + c) * inv2 % m
    ]
    edges.sort(key=colex_key)
    return edges


def edge_list_text(n: int, edges) -> str:
    """The documented edge-list format for edges already in colex order."""
    return f"p hsc {n} 3\n" + "".join(f"e {a} {b} {c}\n" for a, b, c in edges)


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Order and edges of an edge-list document (comment lines skipped)."""
    lines = text.splitlines()
    n = int(lines[0].split()[2])
    edges = [tuple(map(int, ln.split()[1:])) for ln in lines[1:] if ln.startswith("e ")]
    return n, edges


def relabel(edges, sigma) -> list[tuple[int, ...]]:
    """Images of the edges under the vertex map sigma, in colex order."""
    out = [tuple(sorted(sigma[v] for v in e)) for e in edges]
    out.sort(key=colex_key)
    return out


def random_permutation(rng, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def conjugated_swap(sigma) -> list[int]:
    """sigma o swap o sigma^-1: the side swap carried onto the relabeled copy."""
    n = len(sigma)
    inverse = [0] * n
    for v, w in enumerate(sigma):
        inverse[w] = v
    return [sigma[(inverse[w] + n // 2) % n] for w in range(n)]


def permutation_text(images) -> str:
    return "c sigma swap sigma^-1\n" + " ".join(map(str, images)) + "\n"


def pair_coverage(edges, pair) -> int:
    u, v = pair
    return sum(1 for e in edges if u in e and v in e)


@dataclass(frozen=True)
class Corruption:
    """One edge exchanged for one non-edge in an antimorphic hypergraph."""

    removed: tuple[int, int, int]
    added: tuple[int, int, int]
    tau: tuple[int, ...]

    def changed_pairs(self) -> dict[tuple[int, int], int]:
        """Net coverage change of every vertex pair the exchange touches."""
        delta: dict[tuple[int, int], int] = {}
        for triple, step in ((self.removed, -1), (self.added, 1)):
            for p in combinations(triple, 2):
                delta[p] = delta.get(p, 0) + step
        return {p: d for p, d in delta.items() if d}

    def antimorphism_violations(self) -> list[tuple[int, ...]]:
        """k-subsets S with S and tau(S) now both edges or both non-edges."""
        changed = {self.removed, self.added}

        def image(s):
            return tuple(sorted(self.tau[v] for v in s))

        candidates = {s for c in changed for s in (c, image(c))}
        return sorted(s for s in candidates if (s in changed) != (image(s) in changed))


def corrupt(rng, edges, tau) -> tuple[list[tuple[int, ...]], Corruption]:
    """Exchange one seeded edge for one seeded non-edge.

    Both triples, and their images under tau, use only vertices in the upper
    half of the labels.  Every pair touched then lies after the colex-first
    pair, and the first antimorphism violation lies in the last eighth of the
    lex scan, so the cost of the fail path is the same on every seed.
    """
    n = len(tau)
    high = [v for v in range(n) if v >= n // 2 and tau[v] >= n // 2]
    edge_set = set(edges)

    def draw(want_edge):
        while True:
            t = tuple(sorted(rng.sample(high, 3)))
            if (t in edge_set) == want_edge:
                return t

    removed = draw(True)
    tau_removed = tuple(sorted(tau[v] for v in removed))
    added = draw(False)
    while added == tau_removed:
        added = draw(False)
    edge_set.discard(removed)
    edge_set.add(added)
    return sorted(edge_set, key=colex_key), Corruption(removed, added, tuple(tau))


def admissible_residues(k: int, t: int, modulus: int) -> list[int]:
    """Residues mod `modulus` of orders with comb(n-i, k-i) even for i <= t."""
    return sorted(
        {
            n % modulus
            for n in range(k + 1, k + 1 + 8 * modulus)
            if all(comb(n - i, k - i) % 2 == 0 for i in range(t + 1))
        }
    )


def k4_profile(n: int, sigma) -> list[int]:
    """Per-vertex K4 counts of a relabeled construction: vertex sigma(v) has
    comb(m-1, 3) when v is on side 0 and none on side 1."""
    m = n // 2
    out = [0] * n
    for v in range(m):
        out[sigma[v]] = comb(m - 1, 3)
    return out


def side_orbits(n: int, sigma) -> list[list[int]]:
    """The two sides of a relabeled construction, as sorted vertex lists."""
    m = n // 2
    return sorted(sorted(sigma[v] for v in side) for side in (range(m), range(m, n)))
