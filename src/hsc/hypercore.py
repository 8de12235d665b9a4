"""k-uniform hypergraphs with dense colex-rank indexing.

A k-subset of [0, n) is a strictly increasing tuple of ints, ordered
colexicographically (the largest differing element decides).  An immutable
hypergraph stores its edge set once, as one indicator byte per colex rank.

Ranks come from the combinatorial number system in `hsc.colex`.  The
k-subsets with top vertex c hold the colex block [comb(c, k), comb(c + 1, k))
of ranks, over the (k-1)-subsets of [0, c), so nothing is unranked.  Coverage
sums the blocks, or on small shapes the rows of a cached table.  Only
`Hypergraph.edges()` replays the edges' vertex columns.

The edge-list text is "p hsc <n> <k>", then comment lines "c" or "c <text>"
and a line "e <v1> ... <vk>" per edge, vertices ascending, edges in colex
order, single spaces.  The writer joins each block's edge prefixes ("e" and
the first k - 1 vertices) with the tail " c\\n".  The parser reads a document
once, in chunks of whole lines.  It splits each run of c's lines once on that
tail and looks each piece up as one prefix; a chunk where that fails, and
every chunk of a document too short to repay the prefix map, is read line by
line, which accepts the chunk or names its first faulty line (the header's
shape is line 1).

Every shape passes `_positions`, whose bounds keep the kernels' recursions
shallow; the constructors check each subset or rank in input order.
"""

import re
from functools import lru_cache, partial
from itertools import accumulate, chain, combinations, compress, count, islice, repeat
from math import comb
from operator import add, getitem, itemgetter, mul, setitem

from .colex import (
    _binomial_table,
    _colex_columns,
    _column_ranks,
    _subset_columns,
    validate_ksubset,
)

__all__ = [
    "MAX_POSITIONS",
    "MAX_UNIFORMITY",
    "Hypergraph",
    "Permutation",
    "coverage",
    "from_edge_list_text",
    "read_edge_list",
    "to_edge_list_text",
    "write_edge_list",
]

# Bytes per read of the parse, and indicator bytes per span of the writer.
# Parsing the n = 50 file peaked at 0.12, 0.19 and 0.37 MB (tracemalloc) with
# 8, 16 and 64 KB reads; at n = 102 and 302 times were flat from 4 to 32 KB.
# A writer span's lines take up to about 1 MB.
_PARSE_CHUNK = _WRITE_SPAN = 1 << 14

# Refuse more subset positions.  At n = 466, the largest order under it (one
# fresh process, 2 vCPUs, Python 3.11, peak = VmHWM), `construct --out` takes
# 0.5-0.7 s at 40 MB and `verify` 2.4-3.4 s at 83 MB: the 16.7 MB indicator,
# the writer's 7.2 MB of prefixes or the parser's map, and 50 MB link rows.
MAX_POSITIONS = 1 << 24

# Refuse a larger uniformity k, 2.5x below the first failure of a kernel that
# recurses about k deep.  Under pytest (Python 3.11) the colex-head replay of
# the writer, parser and antimorphism check raised RecursionError from k = 321,
# coverage from k = 960; `_column_ranks` segfaulted the CLI at k = 99 999.
MAX_UNIFORMITY = 128

# Most lane bytes, comb(n, k) * comb(n, t) * w, for which `coverage` sums a
# cached table.  A one-shot call pays the whole build.  At k = 3, t = 2 (one
# process, 2 vCPUs, Python 3.11) the table takes 0.12 ms and 1 KB at n = 6,
# 0.23 ms and 8 KB at n = 10 (repaid by the fifth call) and 0.33 ms and
# 17 KB at n = 12, the largest order under this bound; past it, 2.4 ms and
# 0.28 MB at n = 22 and 7.8 ms and 1.3 MB at n = 30.
_TABLE_BYTES = 1 << 14

# Refuse coverage of more t-subsets.  `verify --t` on one edge (one fresh
# process, 2 vCPUs, Python 3.11) took 0.38 s / 72 MB at (n, k, t) = (44, 43,
# 5), 1 086 008 lanes, 1.4 s / 252 MB at (40, 39, 6) and 8.3 s / 1.35 GB at
# (40, 39, 7).
MAX_LANES = 1 << 20


@lru_cache(maxsize=64)
def _capped_comb(n: int, k: int, cap: int) -> int | None:
    """comb(n, k), for 0 <= k <= n and cap >= 1, if it is at most cap, else
    None: with j = min(k, n - k) it grows comb(n - j + i, i), i = 1, ..., j,
    and stops at the first past cap.  Each factor at least doubles it, so a
    huge shape costs about log2(cap) steps, not a binomial of huge size.
    Cached, as every coverage call asks it for its shape's lane count."""
    j = min(k, n - k)
    positions = 1
    for i in range(1, j + 1):
        positions = positions * (n - j + i) // i
        if positions > cap:
            return None
    return positions


def _positions(n: int, k: int) -> int:
    """comb(n, k), after checking 1 <= k <= n, MAX_POSITIONS, then
    MAX_UNIFORMITY; a refusal names a count of up to 100 digits and never
    computes a larger one."""
    if not 1 <= k <= n:
        raise ValueError(f"uniformity k={k} must satisfy 1 <= k <= n={n}")
    positions = _capped_comb(n, k, 10**100)
    if positions is None or positions > MAX_POSITIONS:
        count = "" if positions is None else f"={positions}"
        raise ValueError(
            f"comb({n},{k}){count} subset positions exceed the "
            f"supported bound of {MAX_POSITIONS}"
        )
    if k > MAX_UNIFORMITY:
        raise ValueError(
            f"uniformity k={k} exceeds the supported bound of {MAX_UNIFORMITY}"
        )
    return positions


class Permutation:
    """A bijection on the vertex range [0, n), stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        # source[w] is the position whose image is w, -1 while none is.
        source = [-1] * n
        for v, w in enumerate(images):
            if not 0 <= w < n:
                raise ValueError(f"image {w} at position {v} is out of range [0, {n})")
            if source[w] >= 0:
                raise ValueError(
                    f"image {w} at position {v} repeats position {source[w]}:"
                    f" not a permutation of 0..{n - 1}"
                )
            source[w] = v
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for v, w in enumerate(self.images):
            inv[w] = v
        return Permutation(inv)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)!r})"


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1.

    The edge set is stored once, as one indicator byte per colex rank, so
    membership is O(1) and iteration order is canonical.  Every other view
    is derived from the indicator: the edge tuples on each call, and the
    closed pair masks of the K4 profile on first use, kept for later calls.
    Two hypergraphs are equal iff they have the same n, k, and edge set.
    """

    __slots__ = ("n", "k", "positions", "edge_count", "_bits", "_pair_masks")

    def __init__(self, n: int, k: int, edges=()):
        subsets = list(map(tuple, edges))
        for s in subsets:
            validate_ksubset(s, n, k)
        positions = _positions(n, k)
        columns = [list(map(itemgetter(i), subsets)) for i in range(k)]
        ranks = list(_column_ranks(_binomial_table(n, k), columns))
        self._setup(n, k, positions, ranks)

    @classmethod
    def from_ranks(cls, n: int, k: int, ranks) -> "Hypergraph":
        """Build from colex ranks directly (validated for range and duplicates)."""
        obj = cls.__new__(cls)
        obj._setup(n, k, _positions(n, k), list(ranks))
        return obj

    @classmethod
    def _from_indicator(cls, n, k, bits, edge_count) -> "Hypergraph":
        """Wrap indicator bytes that have edge_count bytes set (unchecked)."""
        obj = cls.__new__(cls)
        obj._fill(n, k, bits, edge_count)
        return obj

    def _setup(self, n, k, positions, ranks):
        """Fill the instance from a list of edge ranks in any order, refusing
        the first one out of range or repeated."""
        bits = bytearray(positions)
        for r in ranks:
            if not 0 <= r < positions:
                raise ValueError(f"edge rank {r} out of range [0, {positions})")
            if bits[r]:
                raise ValueError(f"duplicate edge at rank {r}")
            bits[r] = 1
        self._fill(n, k, bits, len(ranks))

    def _fill(self, n, k, bits, edge_count):
        """Fill the instance from its indicator bytes and their count of 1s."""
        self.n = n
        self.k = k
        self.positions = len(bits)
        self.edge_count = edge_count
        self._bits = bits
        self._pair_masks = None

    @property
    def indicator(self) -> memoryview:
        """Read-only bytes over the colex ranks: byte r is 1 iff rank r is an edge."""
        return memoryview(self._bits).toreadonly()

    def edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge subsets in colex-rank order."""
        return tuple(compress(zip(*_colex_columns(self.n, self.k)), self._bits))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.k, self._bits) == (other.n, other.k, other._bits)

    def __hash__(self):
        return hash((self.n, self.k, bytes(self._bits)))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, k={self.k}, edges={self.edge_count})"


def _set_ranks(bits: bytearray, ranks) -> None:
    """Set byte r of an indicator to 1 for every rank r (no range check)."""
    # setitem returns None, so any() runs it on every rank; it takes half
    # the time of bits.__setitem__ (3.3 against 6.7 ms for 85 850 ranks).
    any(map(setitem, repeat(bits), ranks, repeat(1)))


def coverage(h: Hypergraph, t: int) -> list[int]:
    """counts[r] is the number of edges containing the t-subset of colex rank r.

    The counts are summed from the indicator as one int with a w-byte lane
    per t-subset, w the least power of two holding comb(n - t, k - t), the
    most edges a t-subset lies in, so no lane carries into the next.

    Small shapes, t < k < n with comb(n, k) * comb(n, t) * w at most
    _TABLE_BYTES, sum the edges' rows of a cached table (`_coverage_table`)
    in one C-level pass: at k = 3, t = 2, 2.0-2.1 us at n = 6 and 4.4-4.5 us
    at n = 10, against 10.5-10.6 and 29-31 us on the blocks.  Other shapes
    sum the colex blocks in one recursion (`_lane_sums`) whose pair level is
    one loop: against a Counter of every edge's t-subset ranks, 14-16x
    faster at (n, k, t) = (202, 3, 2) and 1.4-6.3x for t < k - 1.  At k = n
    the one block is a closed form, where the table's comb(k, t) picks of t
    columns took 1.8 s at (25, 25, 21).  More than MAX_LANES t-subsets are
    refused.
    """
    lanes, subsets, width = _coverage_lanes(h, t)
    raw = lanes.to_bytes(subsets * width, "little")
    # Read each lane's little-endian bytes, most significant first.
    counts = raw[width - 1 :: width]
    for j in range(width - 2, -1, -1):
        counts = map(add, map(mul, counts, repeat(256)), raw[j::width])
    return list(counts)


def _coverage_lanes(h: Hypergraph, t: int) -> tuple[int, int, int]:
    """The coverage of `coverage` before unpacking: (lanes, subsets, width),
    the int whose width-byte lane r counts the edges through the t-subset of
    colex rank r, the number comb(n, t) of lanes and their width."""
    if not 1 <= t <= h.k:
        raise ValueError(f"need 1 <= t <= k={h.k}, got t={t}")
    n, k = h.n, h.k
    subsets = _capped_comb(n, t, MAX_LANES)
    if subsets is None:
        raise ValueError(f"comb({n},{t}) {t}-subsets exceed the bound of {MAX_LANES}")
    width = 1
    while comb(n - t, k - t) >> 8 * width:
        width *= 2
    if t < k < n and h.positions * subsets * width <= _TABLE_BYTES:
        lanes = sum(compress(_coverage_table(n, k, t, 8 * width), h._bits))
    else:
        memo = {} if 2 <= t <= k - 2 else None
        lanes = _lane_sums(h._bits, n, k, t, 8 * width, memo)
    return lanes, subsets, width


@lru_cache(maxsize=16)
def _coverage_table(n: int, k: int, t: int, lane: int) -> tuple:
    """The t-vs-k inclusion matrix, one `lane`-bit lane int per k-subset:
    row r has a 1 in the lane of each t-subset of the k-subset of rank r, so
    the rows of the edges sum to the coverage lanes.  Each choice of t of
    the k vertex columns ranks one t-subset of every k-subset at once."""
    rows = _binomial_table(n, t)
    ones = [
        map((1).__lshift__, map(lane.__mul__, _column_ranks(rows, picked)))
        for picked in combinations(_subset_columns(n, k), t)
    ]
    return tuple(map(sum, zip(*ones)))


def _lane_sums(bits, n: int, k: int, t: int, lane: int, memo=None, start=0) -> int:
    """An int whose `lane`-bit lane r counts the k-subsets that bits
    indicates over [0, n) through the t-subset of colex rank r.

    The block of k-subsets with top vertex c is indexed by their other
    vertices, a (k-1)-subset of [0, c): its (k-1, t) sums add at lane 0,
    and its (k-1, t-1) sums, with c added, at lane comb(c, t); at (2, 1)
    one loop adds each block's bytes as its own lanes and its count at lane c.
    For 2 <= t <= k - 2 both recurse into the same sub-blocks' (k-2, t-1)
    sums, so a dict `memo` keeps them by k, t and the block's first rank
    `start`; other t repeat none and pass None (at k = 3, n = 466 a memo
    would hold 0.3-0.5 MB of sums never read again, for no change in time).
    """
    if t == 0:
        return bits.count(1)
    if t == k:
        # Each edge covers only itself: its indicator byte is its lane.
        if lane == 8:
            return int.from_bytes(bits, "little")
        spread = bytearray(len(bits) * (lane >> 3))
        spread[:: lane >> 3] = bits
        return int.from_bytes(spread, "little")
    if n == k:
        # The one k-subset covers all comb(k, t) t-subsets once.
        return bits[0] * ((1 << lane * comb(k, t)) - 1) // ((1 << lane) - 1)
    if memo is not None and (start, k, t) in memo:
        return memo[start, k, t]
    total = low = 0
    if k == 2:
        step = lane >> 3
        spread = bytearray(len(bits) * step)
        spread[::step] = bits
        for c, low in zip(range(1, n), accumulate(range(n))):
            block = spread[low * step : (low + c) * step]
            total += int.from_bytes(block, "little") + (block.count(1) << lane * c)
    else:
        for c in range(k - 1, n):
            high = comb(c + 1, k)
            block, at = bits[low:high], start + low
            total += _lane_sums(block, c, k - 1, t, lane, memo, at) + (
                _lane_sums(block, c, k - 1, t - 1, lane, memo, at) << lane * comb(c, t)
            )
            low = high
    if memo is not None:
        memo[start, k, t] = total
    return total


def _prefixes(m: int, j: int, size: int):
    """The edge-line prefixes, "e" and a space before each vertex, of the
    first `size` j-subsets of [0, m) in colex order, j >= 1, the last level
    joined lazily.  The writer joins a top c's prefixes with " c\\n"; the
    parser splits on it.

    They are joined a level at a time: the i-subsets with top v are the
    first comb(v, i - 1) (i-1)-subsets, each with v added, so level i
    appends " v" to those prefixes of level i - 1 for each top v in turn.
    Only the least number of vertices whose j-subsets reach `size` is used,
    so the work follows `size`."""
    order = 0
    while order < m and comb(order, j) < size:
        order += 1
    level = ["e"]
    for i in range(1, j + 1):
        tops = range(i - 1, order - j + i)
        heads = map(islice, repeat(level), map(comb, tops, repeat(i - 1)))
        tails = map(repeat, map(" {}".format, tops))
        level = chain.from_iterable(map(map, repeat(add), heads, tails))
        if i < j:
            level = list(level)
    return islice(level, size)


def _edge_list_blocks(h: Hypergraph):
    """The edge-list text in pieces: the header line, then the edge lines of
    each span of at most _WRITE_SPAN indicator bytes that holds an edge.
    For k >= 2 the `_prefixes` up to the last edge's top vertex are
    formatted once; the edges with top c pick theirs by compressing the
    first comb(c, k - 1) against c's colex block, and the tail " c\\n"
    joins and closes them.  At k = 1 the lines are the vertices compressed
    against the indicator."""
    yield f"p hsc {h.n} {h.k}\n"
    n, k, bits = h.n, h.k, h._bits
    if k == 1:
        for low in range(0, n, _WRITE_SPAN):
            span = bits[low : low + _WRITE_SPAN]
            if 1 in span:
                vertices = compress(range(low, low + len(span)), span)
                yield "".join(map("e {}\n".format, vertices))
        return
    last = bits.rfind(1)
    if last < 0:
        return
    top = k - 1
    while comb(top + 1, k) <= last:
        top += 1
    # About 67 bytes a prefix with its list slot: 7.2 MB at n = 466, k = 3.
    prefixes = list(_prefixes(n - 1, k - 1, comb(top, k - 1)))
    for c in range(k - 1, top + 1):
        start, stop, tail = comb(c, k), comb(c + 1, k), f" {c}\n"
        for low in range(start, stop, _WRITE_SPAN):
            span = bits[low : min(low + _WRITE_SPAN, stop)]
            if 1 in span:
                picked = prefixes[low - start : low - start + len(span)]
                yield tail.join(compress(picked, span)) + tail


def to_edge_list_text(h: Hypergraph) -> str:
    """Serialize a hypergraph to the edge-list text format (bit-exact)."""
    return "".join(_edge_list_blocks(h))


def _parse_uint(token: str, context: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{context}: expected a decimal integer, got {token!r}")
    return int(token)


def _header(line: str) -> tuple[int, int]:
    """(n, k) from the header line "p hsc <n> <k>"."""
    head = line.split(" ")
    if len(head) != 4 or head[0] != "p" or head[1] != "hsc":
        raise ValueError(f"bad header line: {line!r}")
    n = _parse_uint(head[2], "header order")
    return n, _parse_uint(head[3], "header uniformity")


def _line_chunks(pieces):
    """The lines of a document given in pieces of text, in chunks of whole
    lines joined by newlines: each piece ends its chunk at its last newline
    and carries the rest into the next.  A final newline opens no line."""
    parts = []
    for piece in pieces:
        head, newline, tail = piece.rpartition("\n")
        if newline:
            yield "".join(parts) + head
            parts = []
        parts.append(tail)
    if "".join(parts):
        yield "".join(parts)


def _prefix_ranks(n: int, k: int) -> dict:
    """The colex rank of each `_prefixes` string of the (k-1)-subsets of
    [0, n - 1), or at k = 1 of the whole lines of [0, n).  Only what the
    format allows is a key: leading zeros, signs and n itself all miss."""
    m, j = (n - 1, k - 1) if k > 1 else (n, 1)
    return dict(zip(_prefixes(m, j, comb(m, j)), count()))


def _parse(chunks) -> Hypergraph:
    """Parse a document given as `_line_chunks`, refusing its first faulty
    line; the header's shape, checked by `_positions`, is line 1.  Each chunk
    is tried whole by `_set_runs`, and one it does not take is read by
    `_set_lines`.  A document shorter than a shortest edge line (2k + 2
    bytes) per key of the prefix map builds none: `_set_lines` reads it all.
    """
    first = next(chunks, None)
    if first is None:
        raise ValueError("empty edge-list document")
    header, newline, rest = first.partition("\n")
    n, k = _header(header)
    positions = _positions(n, k)
    gate = (comb(n - 1, k - 1) if k > 1 else n) * (2 * k + 2)
    ahead = [rest] if newline else []
    size = len(rest) + 1 if newline else 0  # each chunk and its newline
    while size < gate and (chunk := next(chunks, None)) is not None:
        ahead.append(chunk)
        size += len(chunk) + 1
    prefix_rank = _prefix_ranks(n, k).__getitem__ if size >= gate else None
    # Made after the map, so that the indicator and the map's build never
    # peak together.
    bits = bytearray(positions)
    lineno, last, width = 1, -1, 0
    for chunk in chain(ahead, chunks):
        if prefix_rank:
            runs = _set_runs(bits, chunk, n, k, prefix_rank, last, width)
            if runs:
                last, width = runs
                lineno += chunk.count("\n") + 1
                continue
        lineno, last = _set_lines(bits, chunk, n, k, lineno, last)
    return Hypergraph._from_indicator(n, k, bits, bits.count(1))


def _set_runs(bits, chunk, n, k, prefix_rank, last, width):
    """Set the edges of a chunk of lines by top-vertex runs and return the
    last rank set and the next window, or set nothing and return None unless
    every line but a comment is a canonical edge above rank `last`.
    In colex order the lines of a top vertex c are contiguous and end in
    " c\\n", so each run reads c from its first line and splits a window of
    whole lines, twice the last run's length, once on that tail.  Each piece
    but the last is a prefix whose rank is set in c's block; at k = 1 each
    line is one."""
    text = chunk + "\n"
    if text.startswith("c") or "\nc" in text:
        text = re.sub(r"(?m)^c(?: .*)?\n", "", text)
    view, start, pos, taken = memoryview(bits), last + 1, 0, 0
    try:
        while pos < len(text):
            if k > 1:
                eol = text.index("\n", pos)
                label = text[text.rfind(" ", pos, eol) + 1 : eol]
                c = int(label) if label.isdigit() else -1
                if str(c) != label or c >= n:
                    break
                low, high, tail = comb(c, k), comb(c + 1, k), f" {label}\n"
                stop = max(text.rfind("\n", eol, pos + width), eol) + 1
            else:
                low, high, tail, stop = 0, n, "\n", len(text)
            pieces = text[pos:stop].split(tail)
            after = stop - len(pieces.pop())
            ranks = list(map(prefix_rank, pieces))
            in_block = last < low + ranks[0] and ranks[-1] < high - low
            if not in_block or ranks != sorted(ranks):
                break
            _set_ranks(view[low:high], ranks)
            last = low + ranks[-1]
            taken += len(ranks)
            width = 2 * (after - pos)
            pos = after
    except (KeyError, IndexError, ValueError):
        pass
    # The ranks rose run by run, so a repeat within a run sets fewer bytes.
    if pos == len(text) and bits.count(1, start, last + 1) == taken:
        return last, width
    bits[start : last + 1] = bytes(last + 1 - start)
    return None


def _set_lines(bits, chunk, n, k, lineno, last):
    """Set the edges of a chunk whose lines are numbered from lineno + 1 one
    line at a time, and return its last line number and the last rank set.
    Each line but a comment must be "e" and k decimal integers, a valid
    subset, no repeat and above the previous edge in colex order; the first
    that is not is named in a ValueError."""
    rows = _binomial_table(n, k)
    for lineno, line in enumerate(chunk.split("\n"), lineno + 1):
        if line.startswith("c ") or line == "c":
            continue
        parts = line.split(" ")
        if parts[0] != "e":
            raise ValueError(f"line {lineno}: unrecognized line {line!r}")
        if len(parts) != k + 1:
            raise ValueError(f"line {lineno}: edge needs exactly {k} vertices")
        edge = tuple(_parse_uint(p, f"line {lineno}") for p in parts[1:])
        validate_ksubset(edge, n, k)
        rank = sum(map(getitem, rows, edge))
        if bits[rank]:
            raise ValueError(f"duplicate edge at rank {rank}")
        if rank < last:
            raise ValueError(f"line {lineno}: edge {edge} is out of colex order")
        bits[rank], last = 1, rank
    return lineno, last


def from_edge_list_text(text: str) -> Hypergraph:
    """Parse the edge-list text format (see the module docstring)."""
    pieces = (text[i : i + _PARSE_CHUNK] for i in range(0, len(text), _PARSE_CHUNK))
    return _parse(_line_chunks(pieces))


def write_edge_list(h: Hypergraph, path) -> None:
    """Write the edge-list text to path one block at a time, as made."""
    with open(path, "wb") as f:
        f.writelines(map(str.encode, _edge_list_blocks(h)))


def _ascii_reads(f):
    """The _PARSE_CHUNK reads of an open binary file, decoded as ASCII; a
    non-ASCII byte raises UnicodeDecodeError at its offset in the file (the
    bytes before it, all ASCII, stand in as zeros)."""
    offset = 0
    for data in iter(partial(f.read, _PARSE_CHUNK), b""):
        if not data.isascii():
            (bytes(offset) + data).decode("ascii")
        offset += len(data)
        yield data.decode("ascii")


def read_edge_list(path) -> Hypergraph:
    """Parse an edge-list file in one pass of _PARSE_CHUNK reads.  A refused
    file is read on to its end, so that a non-ASCII byte anywhere is named,
    at its offset, before its first faulty line."""
    with open(path, "rb") as f:
        reads = _ascii_reads(f)
        try:
            return _parse(_line_chunks(reads))
        except ValueError:
            for _ in reads:
                pass
            raise
