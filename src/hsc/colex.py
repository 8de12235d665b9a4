"""The combinatorial number system on k-subsets of [0, n) in colex order.

A k-subset is a strictly increasing tuple of vertices, and its colex rank
(Knuth, TAOCP 4A 7.2.1.3) is the sum of comb(s[i], i + 1).  One check,
`validate_ksubset`, tells a valid subset from an invalid one, a subset at a
time.  The hot paths of `hsc.hypercore` work on vertex columns (column i
holds the i-th vertex of every subset): they look the binomials up in a
table whose rows are indexed by vertex, cached per (n, k), and rank or
relabel a whole column at a time in C-level `map`/`zip` passes, with no
Python code run per subset.  The columns of all k-subsets in colex order
are replayed from those of the (k-1)-subsets, cached per (n, k), so no hot
path unranks: the subset of colex rank r is read as entry r of each cached
column (`_subset_columns`).  A lone witness, one subset of a shape whose
columns can take tens of MB, is unranked instead, by walking its colex
blocks down to the pairs, which it unranks in closed form (`_subset_at`).
The images of all j-subsets under a vertex map are ranked in colex order
(`_image_ranks`): pairs by lookup in one row of pair ranks per image of
their top vertex, so no pair is sorted, and other sizes by sorting a block
of image subsets at a time.

Coverage, the antimorphism check and the writer list no edges at all.
The k-subsets with top vertex c hold the colex ranks [comb(c, k),
comb(c + 1, k)), in the colex order of their other k - 1 vertices, so the
block of an indicator over those ranks is itself an indicator over the
(k-1)-subsets of [0, c); these kernels walk or recurse over the blocks.
"""

from functools import lru_cache
from itertools import chain, islice, repeat
from math import comb, isqrt
from operator import add

__all__ = ["validate_ksubset"]

# Subsets per block on the passes that relabel subsets: enough to amortise
# the per-block calls, few enough that a block's image subsets stay small
# next to the hypergraph.
_PARSE_BLOCK = 1024


def validate_ksubset(s, n: int, k: int) -> None:
    """Raise ValueError unless s is a strictly increasing k-tuple inside [0, n)."""
    if len(s) != k:
        raise ValueError(f"subset {tuple(s)} has {len(s)} vertices, expected {k}")
    prev = -1
    for v in s:
        if v <= prev:
            raise ValueError(f"subset {tuple(s)} is not strictly increasing")
        prev = v
    if k and (s[0] < 0 or s[-1] >= n):
        raise ValueError(f"subset {tuple(s)} leaves the vertex range [0, {n})")


@lru_cache(maxsize=64)
def _binomial_table(n: int, k: int) -> tuple:
    """rows[i][v] == comb(v, i + 1) for 0 <= i < k and i <= v <= n - k + i.

    Rows are indexed by vertex: position i of a strictly increasing k-subset
    of [0, n) holds a vertex v in [i, n - k + i], and rows[i][v] is its term
    of the colex rank, looked up with no shift.  Row 0 is the range itself
    (comb(v, 1) == v); the other rows are dicts over just those n - k + 1
    vertices, so the whole table holds k * (n - k + 1) values even when k is
    close to n, where rows over all n vertices would hold k * n.
    """
    return tuple(
        range(n - k + 1)
        if i == 0
        else {v: comb(v, i + 1) for v in range(i, n - k + i + 1)}
        for i in range(k)
    )


def _column_ranks(rows, columns):
    """Colex ranks, lazily, of the subsets whose i-th vertices run down
    columns[i]; rows is the binomial table for their n and k (no validation)."""
    ranks = columns[0]
    for row, column in zip(rows[1:], columns[1:]):
        ranks = map(add, ranks, map(row.__getitem__, column))
    return ranks


def _image_ranks(n: int, j: int, images):
    """Colex ranks, lazily, of the images under the vertex map `images` of
    all j-subsets of [0, n), j >= 1, in colex order.

    Pairs rank by lookup: the pairs with top vertex b are {a, b} for a < b,
    in order of a, and the image {images[a], w} with w = images[b] has rank
    comb(w, 2) + x for x = images[a] below w and comb(x, 2) + w above it.
    So one row of those ranks per w, a range below w and the pair ranks
    shifted by w above it, is read at images[a] for each a < b, and no pair
    is sorted.  Other sizes work through _PARSE_BLOCK subsets at a time: a
    block's vertex columns are mapped through `images` and zipped into
    subsets, each is sorted, and the sorted subsets are zipped back into
    columns and ranked, so only one block of image subsets exists at once.
    """
    if j == 2:
        tops = list(map(comb, range(n), repeat(2)))

        def pairs(b):
            w = images[b]
            above = map(add, tops[w + 1 :], repeat(w))
            row = [*range(tops[w], tops[w] + w + 1), *above]
            return map(row.__getitem__, images[:b])

        return chain.from_iterable(map(pairs, range(1, n)))
    columns = _colex_columns(n, j)
    rows = _binomial_table(n, j)
    image = images.__getitem__

    def block(size):
        mapped = zip(*[map(image, islice(column, size)) for column in columns])
        return _column_ranks(rows, list(zip(*map(sorted, mapped))))

    sizes = map(min, repeat(_PARSE_BLOCK), range(comb(n, j), 0, -_PARSE_BLOCK))
    return chain.from_iterable(map(block, sizes))


def _replay(heads, n: int, k: int) -> list:
    """The k vertex columns of every k-subset of [0, n) in colex order,
    k >= 2, as lazy iterators, from `heads`, the k - 1 columns of the
    (k-1)-subsets of [0, n - 1) in colex order.

    The subsets whose largest vertex is `top` come right after all subsets
    of [0, top), in the colex order of their first k - 1 vertices; those
    are the first comb(top, k - 1) heads.  So each of the first k - 1
    columns replays a prefix of one head column for every top in turn, and
    the last column repeats each top comb(top, k - 1) times.
    """
    counts = [comb(top, k - 1) for top in range(k - 1, n)]
    columns = [chain.from_iterable(map(islice, repeat(head), counts)) for head in heads]
    columns.append(chain.from_iterable(map(repeat, range(k - 1, n), counts)))
    return columns


@lru_cache(maxsize=64)
def _subset_columns(n: int, k: int) -> tuple:
    """The vertex columns of every k-subset of [0, n) in colex order, k >= 1,
    as tuples so that no caller can change the cached values: the subset of
    rank r is entry r of each.  Each level j < k is replayed from the one
    below it and dropped, so the cache holds only the (n, k) asked for.  At
    (n, k) = (465, 2) they are two columns of 107 880 entries, about 1.7 MB."""
    columns = (tuple(range(n - k + 1)),)
    for j in range(2, k + 1):
        columns = tuple(map(tuple, _replay(columns, n - k + j, j)))
    return columns


def _subset_at(r: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of [0, n) of colex rank r, k >= 1, for one witness, where
    `_subset_columns` would cache k * comb(n, k) entries: its top vertex c
    has the colex block [comb(c, k), comb(c + 1, k)) that holds r, and the
    rest is the (k-1)-subset of rank r - comb(c, k).  The blocks are walked
    down to level 3, at most n + k binomials; at level 2 the top is the
    largest c with comb(c, 2) <= r, (isqrt(8r + 1) + 1) // 2, and the rank
    left is the least vertex."""
    subset = []
    for i in range(k, 2, -1):
        while comb(n, i) > r:
            n -= 1
        subset.append(n)
        r -= comb(n, i)
    if k > 1:
        c = (isqrt(8 * r + 1) + 1) // 2
        subset.append(c)
        r -= comb(c, 2)
    return (r, *reversed(subset))


def _colex_columns(n: int, k: int) -> list:
    """The vertex columns of every k-subset of [0, n) in colex order, as k
    lazy iterators: column i runs through the i-th vertex of each subset.
    The heads are cached by `_subset_columns`, so a repeat call only
    replays (`_replay`); the 1-subsets are the vertex range itself."""
    if k == 0:
        return []
    if k == 1:
        return [iter(range(n))]
    return _replay(_subset_columns(n - 1, k - 1), n, k)
