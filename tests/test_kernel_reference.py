"""Differential tests: the table-driven colex kernel and its column passes
(build, permute, complement, serialize, parse), the colex-block lane
coverage, the link-mask antimorphism check, the one-pass K4 profile, the
table-ranked image search, the orbit map and the candidate order against
the slow reference implementations in `colex_reference`."""

import dataclasses
import random
import tracemalloc
from types import SimpleNamespace
from itertools import chain, combinations, islice
from math import comb

import pytest

import colex_reference as ref
from colex_reference import colex_walk
from hsc import colex, hypercore
from hsc.cli import main
from hsc.construct import build_gamma, build_gamma_families, swap_antimorphism
from hsc.hypercore import (
    MAX_POSITIONS,
    Hypergraph,
    Permutation,
    coverage,
    from_edge_list_text,
    to_edge_list_text,
    write_edge_list,
)
from hsc.search import tau_orbits_on_ksubsets
from hsc.verify import (
    SearchBudgetExceeded,
    _backtrack_images,
    automorphism_vertex_orbits,
    euler_characteristic_triangulation,
    find_antimorphism,
    t_subset_regularity,
    verify_antimorphism,
    vertex_invariant_k4,
)

ORDERS = {1: (1, 2, 7), 2: (2, 3, 5, 8, 13), 3: (3, 4, 6, 9, 12), 4: (4, 5, 7, 10)}


def random_hypergraph(rng, n, k, density=0.5):
    ranks = [r for r in range(comb(n, k)) if rng.random() < density]
    return Hypergraph.from_ranks(n, k, ranks)


def random_permutation(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def sample_hypergraphs():
    """Seeded random hypergraphs of several densities, plus the empty and
    complete ones, for every k and order in ORDERS."""
    rng = random.Random(20240531)
    for k, orders in ORDERS.items():
        for n in orders:
            yield ref.empty(n, k)
            yield ref.complete(n, k)
            for density in (0.1, 0.5, 0.9):
                yield random_hypergraph(rng, n, k, density)


# (n, k, tau): every orbit of tau on the k-subsets has even length.
EXCHANGERS = (
    (5, 2, (1, 2, 3, 0, 4)),
    (8, 2, (1, 2, 3, 0, 5, 6, 7, 4)),
    (6, 3, (3, 4, 5, 0, 1, 2)),
    (10, 3, (5, 6, 7, 8, 9, 0, 1, 2, 3, 4)),
    (8, 4, (1, 2, 3, 4, 5, 6, 7, 0)),
)


def exchanged_hypergraphs():
    """Hypergraphs with a known antimorphism, for k = 2, 3, 4: the first
    alternating assignments along the orbits of each exchanger, relabeled by
    a random permutation."""
    rng = random.Random(7)
    for n, k, images in EXCHANGERS:
        sigma = random_permutation(rng, n)
        tau = ref.compose(ref.compose(sigma, Permutation(images)), sigma.inverse())
        # Lift the cap past the 2**orbit_count candidates: the prefix costs
        # only what islice takes.
        candidates = ref.alternating_assignments(n, k, tau, cap=1 << comb(n, k))
        for h in islice(candidates, 3):
            yield h, tau


# Edge counts on both sides of the column passes' block boundaries.
BLOCK_EDGE_COUNTS = (1, 1023, 1024, 1025, 2048, 2049)


def boundary_hypergraphs():
    """Seeded random hypergraphs with BLOCK_EDGE_COUNTS edges, k = 2, 3, 4."""
    rng = random.Random(1025)
    for n, k in ((80, 2), (30, 3), (18, 4)):
        for count in BLOCK_EDGE_COUNTS:
            yield Hypergraph.from_ranks(n, k, rng.sample(range(comb(n, k)), count))


def block_and_sample_hypergraphs():
    return chain(sample_hypergraphs(), boundary_hypergraphs())


def test_colex_walk_is_colex_order():
    for n in range(0, 9):
        for k in range(0, 5):
            walk = list(colex_walk(n, k))
            expected = sorted(combinations(range(n), k), key=lambda s: s[::-1])
            assert walk == expected


def test_cached_colex_columns_match_the_uncached_replay():
    colex._subset_columns.cache_clear()
    for n in range(13):
        for k in range(n + 2):
            expected = ref.colex_columns_replayed(n, k)
            # The first call fills the cache for (n, k); the repeat reads it.
            for _ in range(2):
                assert list(map(list, colex._colex_columns(n, k))) == expected
            if k >= 2:
                heads = colex._subset_columns(n - 1, k - 1)
                assert type(heads) is tuple
                assert all(type(head) is tuple for head in heads)


def test_subset_columns_cache_only_the_shape_asked_for():
    # The columns of (66, 63) are replayed through 62 lower levels, which
    # would hold 295 MB if each stayed cached; the top one holds 22 MB.
    colex._subset_columns.cache_clear()
    tracemalloc.start()
    try:
        colex._subset_columns(66, 63)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert colex._subset_columns.cache_info().currsize == 1
    assert retained < 40 << 20


def test_subset_columns_match_unranking():
    for n in range(1, 10):
        for k in range(1, n + 1):
            columns = colex._subset_columns(n, k)
            assert len(columns) == k
            for r in range(comb(n, k)):
                subset = tuple(column[r] for column in columns)
                assert subset == ref.unrank_colex(r, n, k) == colex._subset_at(r, n, k)


def test_edges_match_unranking():
    for h in sample_hypergraphs():
        assert h.edges() == ref.edges_by_unranking(h)
        columns = h.columns()
        assert len(columns) == h.k
        assert all(len(column) == h.edge_count for column in columns)
        assert tuple(zip(*columns)) == h.edges()


def test_constructor_ranks_match_rank_colex():
    for h in sample_hypergraphs():
        rebuilt = Hypergraph(h.n, h.k, ref.edges_by_unranking(h))
        assert ref.edge_ranks(rebuilt) == ref.edge_ranks(h)


def test_coverage_and_regularity_match_reference():
    for h in sample_hypergraphs():
        for t in range(1, h.k):
            assert coverage(h, t) == ref.coverage_by_combinations(h, t)
            assert t_subset_regularity(h, t) == ref.regularity(h, t)


def test_lane_coverage_matches_counter_reference():
    for h in sample_hypergraphs():
        for t in range(1, h.k + 1):
            assert coverage(h, t) == ref.coverage_by_counter(h, t)


def spy_lane_sums(monkeypatch):
    """Record the name of each call of the block-sum kernel in the returned
    list."""
    calls = []
    real = hypercore._lane_sums

    def counted(*args):
        calls.append("_lane_sums")
        return real(*args)

    monkeypatch.setattr(hypercore, "_lane_sums", counted)
    return calls


def test_lane_sums_sum_each_block_once(monkeypatch):
    # For 2 <= t <= k - 2 the (k-1, t) and (k-1, t-1) sums of a block both
    # recurse into the (k-2, t-1) sums of the same sub-blocks.  Summed once
    # per block, the first two shapes take 2069 and 31791 calls, not 7459
    # and 346299 (one per path).  At k = 3, t = 2, which verify runs, no sum
    # repeats and the recursion keeps no memo, one call per block and t.
    calls = spy_lane_sums(monkeypatch)
    rng = random.Random(16)
    for n, k, t, most in ((12, 6, 3, 2069), (16, 8, 4, 31791)):
        h = random_hypergraph(rng, n, k)
        calls.clear()
        assert coverage(h, t) == ref.coverage_by_counter(h, t)
        # Both shapes are past the table bound, so they sum the blocks.
        assert 0 < len(calls) <= most
    calls.clear()
    built = hypercore._coverage_table.cache_info().misses
    assert coverage(build_gamma(102), 2) == [50] * comb(102, 2)
    assert calls == ["_lane_sums"] * 10299
    assert hypercore._coverage_table.cache_info().misses == built


def test_coverage_lane_width_edges():
    # A vertex of the complete graph lies in n - 1 edges: 255 fills a
    # one-byte lane, 256 needs two.
    assert coverage(ref.complete(256, 2), 1) == [255] * 256
    assert coverage(ref.complete(257, 2), 1) == [256] * 257


def table_bytes(n, k, t):
    """The bytes `coverage` compares with `_TABLE_BYTES`: comb(n, k) rows of
    comb(n, t) lanes, each of the least power-of-two width holding comb(n -
    t, k - t)."""
    width = 1
    while comb(n - t, k - t) >= 1 << 8 * width:
        width *= 2
    return comb(n, k) * comb(n, t) * width


def straddling_shapes():
    """For several (k, t) with t < k, the largest order whose table is
    within the bound and the next one, past it."""
    for k, t in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)):
        n = k + 1
        while table_bytes(n + 1, k, t) <= hypercore._TABLE_BYTES:
            n += 1
        yield n, k, t, True
        yield n + 1, k, t, False


def test_table_and_block_coverage_match_counter_reference(monkeypatch):
    # Force each path on every sample shape: a bound of 0 sends all of them
    # to the block sums, a huge one every t < k < n to the table.  The complete
    # 4-uniform hypergraph on 14 vertices has 286 edges at a vertex, so its
    # t = 1 table needs two-byte lanes.
    rng = random.Random(13)
    wide = [ref.complete(14, 4), random_hypergraph(rng, 14, 4, 0.95)]
    for bound in (0, 1 << 40):
        monkeypatch.setattr(hypercore, "_TABLE_BYTES", bound)
        hypercore._coverage_table.cache_clear()
        for h in sample_hypergraphs():
            for t in range(1, h.k + 1):
                assert coverage(h, t) == ref.coverage_by_counter(h, t)
        for h in wide:
            assert coverage(h, 1) == ref.coverage_by_counter(h, 1)
        assert coverage(wide[0], 1) == [286] * 14
        assert bool(hypercore._coverage_table.cache_info().misses) == bool(bound)


def test_coverage_straddles_the_table_bound(monkeypatch):
    calls = spy_lane_sums(monkeypatch)
    rng = random.Random(17)
    for n, k, t, inside in straddling_shapes():
        assert (table_bytes(n, k, t) <= hypercore._TABLE_BYTES) == inside
        cases = [ref.complete(n, k)]
        cases += [random_hypergraph(rng, n, k, d) for d in (0.1, 0.5, 0.9)]
        for h in cases:
            calls.clear()
            assert coverage(h, t) == ref.coverage_by_counter(h, t)
            assert bool(calls) != inside
            assert t_subset_regularity(h, t) == ref.regularity(h, t)


def test_regularity_matches_reference_on_both_sides_of_the_bound():
    # The construction at n = 10 is within the bound and at n = 14 past it;
    # each loses one edge at a time for a witness.
    rng = random.Random(19)
    for n in (10, 14):
        g = build_gamma(n)
        assert (table_bytes(n, 3, 2) <= hypercore._TABLE_BYTES) == (n == 10)
        assert t_subset_regularity(g, 2) == ref.regularity(g, 2)
        assert t_subset_regularity(g, 2).regular
        ranks = list(ref.edge_ranks(g))
        for _ in range(5):
            h = Hypergraph.from_ranks(n, 3, ranks[:rng.randrange(len(ranks))])
            for t in (1, 2):
                assert t_subset_regularity(h, t) == ref.regularity(h, t)


def test_coverage_at_k_equal_n_builds_no_table():
    # The one k-subset covers each t-subset once.  A table would rank
    # comb(k, t) picks of t columns: 1.8 s at (25, 25, 21).
    hypercore._coverage_table.cache_clear()
    assert coverage(ref.complete(25, 25), 21) == [1] * comb(25, 21)
    assert coverage(ref.empty(25, 25), 21) == [0] * comb(25, 21)
    assert hypercore._coverage_table.cache_info().misses == 0


def test_small_orders_build_their_table_once(monkeypatch):
    # The search and verify orders 6 and 10 at k = 3, t = 2 sum a table,
    # built on the first call of each shape and reused after it.
    calls = spy_lane_sums(monkeypatch)
    hypercore._coverage_table.cache_clear()
    rng = random.Random(23)
    for n in (6, 10):
        for h in [build_gamma(n)] + [random_hypergraph(rng, n, 3) for _ in range(3)]:
            assert t_subset_regularity(h, 2) == ref.regularity(h, 2)
    info = hypercore._coverage_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 6, 2)
    assert calls == []


def test_regularity_witnesses_match_reference():
    rng = random.Random(3)
    for n in (10, 14):
        g = build_gamma(n)
        for _ in range(5):
            ranks = list(ref.edge_ranks(g))
            del ranks[rng.randrange(len(ranks))]
            h = Hypergraph.from_ranks(n, 3, ranks)
            report = t_subset_regularity(h, 2)
            assert not report.regular
            assert report == ref.regularity(h, 2)


def test_euler_characteristic_matches_reference():
    rng = random.Random(11)
    tetrahedron = list(combinations(range(4), 3))
    cases = [build_gamma(6), Hypergraph(7, 3, tetrahedron)]
    cases += [random_hypergraph(rng, n, 3) for n in (5, 6, 8)]
    for h in cases:
        try:
            expected = ref.euler_characteristic(h)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                euler_characteristic_triangulation(h)
            assert str(got.value) == str(exc)
        else:
            assert euler_characteristic_triangulation(h) == expected


def test_antimorphism_passes_match_reference():
    for h, tau in exchanged_hypergraphs():
        assert verify_antimorphism(h, tau) == ref.antimorphism(h, tau)
        assert verify_antimorphism(h, tau).ok
    for n in (6, 10, 14):
        assert verify_antimorphism(build_gamma(n), swap_antimorphism(n)).ok


def test_antimorphism_witnesses_match_reference():
    rng = random.Random(5)
    for h in sample_hypergraphs():
        tau = random_permutation(rng, h.n)
        assert verify_antimorphism(h, tau) == ref.antimorphism(h, tau)
    for h, tau in exchanged_hypergraphs():
        if h.edge_count == 0:
            continue
        ranks = list(ref.edge_ranks(h))
        non_edges = [r for r in range(h.positions) if not h.indicator[r]]
        ranks[rng.randrange(len(ranks))] = rng.choice(non_edges)
        corrupted = Hypergraph.from_ranks(h.n, h.k, ranks)
        check = verify_antimorphism(corrupted, tau)
        assert not check.ok
        assert check == ref.antimorphism(corrupted, tau)


def test_link_antimorphism_matches_permute_reference():
    rng = random.Random(13)
    for h, tau in exchanged_hypergraphs():
        assert verify_antimorphism(h, tau) == ref.antimorphism_by_permute(h, tau)
        if 0 < h.edge_count < h.positions:
            # Exchange one edge for one non-edge other than its image, which
            # would keep an orbit of length 2 alternating.
            ranks = list(ref.edge_ranks(h))
            i = rng.randrange(len(ranks))
            image = ref.subset_image(tau, ref.unrank_colex(ranks[i], h.n, h.k))
            non_edges = [r for r in range(h.positions) if not h.indicator[r]]
            non_edges.remove(ref.subset_rank(image))
            ranks[i] = rng.choice(non_edges)
            corrupted = Hypergraph.from_ranks(h.n, h.k, ranks)
            check = verify_antimorphism(corrupted, tau)
            assert not check.ok
            assert check == ref.antimorphism_by_permute(corrupted, tau)
        sigma = random_permutation(rng, h.n)
        assert verify_antimorphism(h, sigma) == ref.antimorphism_by_permute(h, sigma)


def test_verify_command_never_builds_the_columns(tmp_path, monkeypatch, capsys):
    good, bad = tmp_path / "g50.hsc", tmp_path / "bad50.hsc"
    g = build_gamma(50)
    write_edge_list(g, good)
    ranks = list(ref.edge_ranks(g))
    ranks[-1] = next(r for r in range(g.positions) if not g.indicator[r])
    write_edge_list(Hypergraph.from_ranks(50, 3, ranks), bad)

    def spy(self):
        raise AssertionError("Hypergraph.columns called")

    monkeypatch.setattr(Hypergraph, "columns", spy)
    for path, code in ((good, 0), (bad, 1)):
        for fmt in ("kv", "text"):
            assert main(["verify", "--in", str(path), "--format", fmt]) == code
    out = capsys.readouterr().out
    assert "antimorphism_ok=true" in out and "antimorphism_ok=false" in out
    assert "regular=false" in out


def test_antimorphism_witness_is_lex_first_not_colex_first():
    # The violating pairs are {0,3} (edge to edge {0,2}) and {1,2} (non-edge
    # to non-edge {1,3}): {0,3} comes first in lex order, {1,2} in colex.
    h = Hypergraph(4, 2, [(0, 2), (0, 3), (2, 3)])
    tau = Permutation([0, 3, 1, 2])
    check = verify_antimorphism(h, tau)
    assert check == ref.antimorphism(h, tau)
    assert check.witness == (0, 3)


def text_of(n, k, edges):
    lines = [f"p hsc {n} {k}"] + ["e " + " ".join(map(str, e)) for e in edges]
    return "\n".join(lines) + "\n"


def parse_both(text):
    """Parse with the kernel and the reference; both succeed alike or raise
    the same message."""
    try:
        expected = ref.parse(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_edge_list_text(text)
        assert str(got.value) == str(exc)
        return None
    got = from_edge_list_text(text)
    assert got == expected == ref.parse_whole_document(text)
    return got


def test_parser_accepts_what_the_reference_accepts():
    g = build_gamma(10)
    text = to_edge_list_text(g)
    assert parse_both(text) == g
    assert parse_both(text.replace("\n", "\nc a\nc b c\n", 1)) == g
    assert parse_both(text.replace("e 0 1 2\n", "e 000 01 2\n")) == g
    shuffled = list(g.edges())
    random.Random(1).shuffle(shuffled)
    # Edges out of colex order are refused, with the first one's line.
    assert parse_both(text_of(10, 3, shuffled)) is None
    five = sorted(shuffled[:5], key=lambda e: e[::-1])
    assert parse_both(text_of(10, 3, five) + "c\nc trailing\n").edge_count == 5
    assert parse_both("p hsc 5 3\n") == ref.empty(5, 3)
    for k in (1, 2, 4):
        h = random_hypergraph(random.Random(k), 9, k)
        assert parse_both(to_edge_list_text(h)) == h


# Each case edits one line of a valid document: (old line, new line).
BAD_LINES = {
    "double space": ("e 0 3 4", "e 0  3 4"),
    "leading double space": ("e 0 3 4", "e  0 3 4"),
    "trailing space": ("e 0 3 4", "e 0 3 4 "),
    "carriage return": ("e 0 3 4", "e 0 3 4\r"),
    "tab": ("e 0 3 4", "e 0\t3 4"),
    "plus sign": ("e 0 3 4", "e 0 3 +4"),
    "underscore": ("e 0 3 4", "e 0 3 0_4"),
    "full-width digit": ("e 0 3 4", "e 0 3 ４"),
    "arabic-indic digit": ("e 0 3 4", "e 0 3 ٤"),
    "superscript digit": ("e 0 3 4", "e 0 3 ⁴"),
    "vertex equal to n": ("e 0 3 4", "e 0 3 6"),
    "vertex above n": ("e 0 3 4", "e 0 3 99"),
    "non-increasing": ("e 0 3 4", "e 0 4 3"),
    "repeated vertex": ("e 0 3 4", "e 0 3 3"),
    "duplicate edge": ("e 0 3 4", "e 0 1 2"),
    "out of colex order": ("e 0 3 4", "e 0 1 3"),
    "too few vertices": ("e 0 3 4", "e 0 3"),
    "too many vertices": ("e 0 3 4", "e 0 3 4 5"),
    "bare e": ("e 0 3 4", "e"),
    "empty line": ("e 0 3 4", ""),
    "unknown tag": ("e 0 3 4", "f 0 3 4"),
    "uppercase tag": ("e 0 3 4", "E 0 3 4"),
    "comment without space": ("e 0 3 4", "cx"),
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_parser_rejects_with_the_reference_message(case):
    old, new = BAD_LINES[case]
    text = to_edge_list_text(build_gamma(6))
    assert f"\n{old}\n" in text
    assert parse_both(text.replace(f"\n{old}\n", f"\n{new}\n", 1)) is None


def test_parser_crlf_document():
    text = to_edge_list_text(build_gamma(6)).replace("\n", "\r\n")
    assert parse_both(text) is None


def test_parser_errors_beyond_the_first_block():
    # comb(32, 3) = 4960 edge lines: more than one chunk of the parse.
    h = ref.complete(32, 3)
    lines = to_edge_list_text(h).split("\n")
    for lineno in (4500, len(lines) - 2):
        for bad in ("e 0 1", lines[lineno] + " ", "e 0  2", "e 1 0 2", "e 0 1 32"):
            edited = lines[:lineno] + [bad] + lines[lineno + 1 :]
            assert parse_both("\n".join(edited)) is None
    # An error near the top still wins over a later one in another block.
    edited = list(lines)
    edited[3] = "e 0 2 1"
    edited[4700] = "e 0 x 1"
    assert refusal("\n".join(edited)) == "subset (0, 2, 1) is not strictly increasing"
    assert parse_both("\n".join(lines)) == h


def refusal(text):
    """The message that both the kernel and the reference refuse text with."""
    assert parse_both(text) is None
    with pytest.raises(ValueError) as got:
        from_edge_list_text(text)
    return str(got.value)


def test_parser_headers_outside_the_fast_route():
    for text in (
        "p hsc 4 0\ne\n",
        "p hsc 3 5\n",
        f"p hsc {MAX_POSITIONS} 2\ne 0 1\n",
        "p hsc 0 1\n",
    ):
        assert parse_both(text) is None
    # The header's shape is line 1, so it wins over the vertex 4 >= n.
    shape = "uniformity k=5 must satisfy 1 <= k <= n=3"
    assert refusal("p hsc 3 5\ne 0 1 2 3 4\n") == shape


def test_parser_names_the_first_of_two_faults():
    lines = to_edge_list_text(build_gamma(10)).split("\n")

    def edge(at):
        """The edge on line `at` of the unedited document."""
        return tuple(map(int, lines[at - 1].split()[1:]))

    def fault(text, name, at):
        """Put fault `name` on line `at` of text (a list of lines) and
        return the message a document with that fault alone gets."""
        if name == "format":
            text[at - 1] = "e 0 x 1"
            return f"line {at}: expected a decimal integer, got 'x'"
        if name == "subset":
            text[at - 1] = "e 0 2 1"
            return "subset (0, 2, 1) is not strictly increasing"
        if name == "duplicate":
            text[at - 1] = lines[at - 2]
            return f"duplicate edge at rank {ref.subset_rank(edge(at - 1))}"
        # Out of order: lines at - 1 and at swapped.
        text[at - 2], text[at - 1] = lines[at - 1], lines[at - 2]
        return f"line {at}: edge {edge(at - 1)} is out of colex order"

    for pair in (
        ("format", "subset"),
        ("subset", "duplicate"),
        ("out of order", "duplicate"),
    ):
        for first, second in (pair, pair[::-1]):
            text = list(lines)
            expected = fault(text, first, 6)
            fault(text, second, 40)
            assert refusal("\n".join(text)) == expected, (first, second)
    # A subset fault wins over a later vertex past int()'s digit limit.
    padded = "e 0 1 " + "0" * 5000 + "3"
    text = f"p hsc 10 3\ne 0 2 1\n{padded}\n"
    assert refusal(text) == "subset (0, 2, 1) is not strictly increasing"
    # The header's shape is line 1 and wins over any edge line.
    for header in ("p hsc 4 0", "p hsc 3 5", f"p hsc {MAX_POSITIONS} 2"):
        n, k = map(int, header.split()[2:])
        with pytest.raises(ValueError) as shape:
            hypercore._positions(n, k)
        for bad in ("e 0 x 1", "e 0 2 1", "e 1 2", "f 0 1 2"):
            assert refusal(f"{header}\n{bad}\n") == str(shape.value)


def k4_samples():
    """Seeded random 3-uniform hypergraphs at n = 4..14, sparse to dense,
    and relabeled constructions at n = 10 and 14."""
    rng = random.Random(44)
    for n in range(4, 15):
        for density in (0.2, 0.5, 0.85):
            yield random_hypergraph(rng, n, 3, density)
    for n in (10, 14):
        yield ref.relabel(build_gamma(n), random_permutation(rng, n))


def k4_profile(h):
    return [vertex_invariant_k4(h, v) for v in range(h.n)]


def test_k4_profile_matches_scan():
    nonzero = 0
    for h in k4_samples():
        expected = [ref.vertex_k4_by_scan(h, v) for v in range(h.n)]
        assert k4_profile(h) == expected
        nonzero += any(expected)
    assert nonzero >= 20


def test_k4_interleaved_queries_answer_each_hypergraph():
    # Per-vertex queries may alternate between hypergraphs of one order and
    # end on an equal copy; none may be answered from another's profile.
    rng = random.Random(9)
    first = random_hypergraph(rng, 9, 3, 0.7)
    second = random_hypergraph(rng, 9, 3, 0.7)
    expected = {
        id(h): [ref.vertex_k4_by_scan(h, v) for v in range(9)] for h in (first, second)
    }
    assert expected[id(first)] != expected[id(second)]
    for v in range(9):
        for h in (first, second):
            assert vertex_invariant_k4(h, v) == expected[id(h)][v]
    copy = Hypergraph.from_ranks(9, 3, ref.edge_ranks(first))
    assert copy == first and copy is not first
    assert k4_profile(copy) == expected[id(first)]
    assert k4_profile(second) == expected[id(second)]


def assert_search_matches(h, *, want_equal, first_only):
    """The kernel search finds what the reference finds, in the same order,
    and spends exactly the same number of nodes doing so."""
    found, nodes = ref.backtrack_images(
        h, want_equal=want_equal, node_budget=None, first_only=first_only
    )
    got = _backtrack_images(
        h, want_equal=want_equal, node_budget=nodes, first_only=first_only
    )
    assert got == found
    with pytest.raises(SearchBudgetExceeded) as exc:
        _backtrack_images(
            h, want_equal=want_equal, node_budget=nodes - 1, first_only=first_only
        )
    assert exc.value.nodes == nodes
    return found, nodes


def test_automorphism_search_matches_reference():
    rng = random.Random(13)
    for n in (6, 10):
        sigma = random_permutation(rng, n)
        h = ref.relabel(build_gamma(n), sigma)
        autos, nodes = assert_search_matches(h, want_equal=True, first_only=False)
        assert all((p == ref.identity(n)) is (i == 0) for i, p in enumerate(autos))
        orbits = automorphism_vertex_orbits(h, node_budget=nodes)
        sides = [range(n)] if n == 6 else [range(n // 2), range(n // 2, n)]
        assert orbits == tuple(sorted(ref.subset_image(sigma, s) for s in sides))


def test_automorphism_orbits_match_union_find():
    # Sparse random hypergraphs up to order 7 have groups of every size, so
    # their orbits range from all singletons to one orbit.
    rng = random.Random(29)
    sizes = set()
    for n in range(3, 8):
        for k in (2, 3):
            for _ in range(12):
                h = random_hypergraph(rng, n, k, rng.choice((0.1, 0.3, 0.5)))
                autos = _backtrack_images(
                    h, want_equal=True, node_budget=None, first_only=False
                )
                orbits = automorphism_vertex_orbits(h)
                assert orbits == ref.orbits_by_union_find(n, autos), h
                sizes.add(len(orbits))
    assert {1, 2, 3}.issubset(sizes) and max(sizes) >= 5


def test_antimorphism_search_matches_reference():
    rng = random.Random(17)
    for n in (6, 10):
        h = ref.relabel(build_gamma(n), random_permutation(rng, n))
        (tau,), nodes = assert_search_matches(h, want_equal=False, first_only=True)
        assert find_antimorphism(h, nodes) == tau
        assert verify_antimorphism(h, tau).ok
    for h, _ in exchanged_hypergraphs():
        if h.n <= 8:
            assert_search_matches(h, want_equal=False, first_only=True)


def test_search_budget_nodes_match_reference():
    h = ref.relabel(build_gamma(10), random_permutation(random.Random(19), 10))
    for budget in (0, 1, 7, 40):
        for want_equal in (True, False):
            kwargs = dict(want_equal=want_equal, node_budget=budget, first_only=False)
            with pytest.raises(SearchBudgetExceeded) as expected:
                ref.backtrack_images(h, **kwargs)
            with pytest.raises(SearchBudgetExceeded) as got:
                _backtrack_images(h, **kwargs)
            assert got.value.nodes == expected.value.nodes


def search_outcome(search, h, **kwargs):
    """("found", permutations) or ("budget", nodes at exhaustion)."""
    try:
        return "found", search(h, **kwargs)
    except SearchBudgetExceeded as exc:
        return "budget", exc.nodes


def search_samples():
    """Seeded random hypergraphs with k = 2, 3, 4 at n = 5..9, and for each
    exchanger up to n = 9 a random alternating assignment along its orbits,
    relabeled, which has an antimorphism to find."""
    rng = random.Random(4099)
    for k in (2, 3, 4):
        for n in range(5, 10):
            yield random_hypergraph(rng, n, k)
    for n, k, images in EXCHANGERS:
        if n <= 9:
            sigma = random_permutation(rng, n)
            tau = ref.compose(ref.compose(sigma, Permutation(images)), sigma.inverse())
            orbits = tau_orbits_on_ksubsets(n, k, tau).orbits
            ranks = [r for orbit in orbits for r in orbit[rng.randrange(2) :: 2]]
            yield Hypergraph.from_ranks(n, k, ranks)


def test_search_on_random_hypergraphs_matches_reference():
    for h in search_samples():
        for want_equal in (True, False):
            for first_only in (True, False):
                mode = dict(want_equal=want_equal, first_only=first_only)
                assert_search_matches(h, **mode)
                for budget in (0, 1, 7, 40):
                    expected = search_outcome(
                        lambda g, **kw: ref.backtrack_images(g, **kw)[0],
                        h,
                        node_budget=budget,
                        **mode,
                    )
                    got = search_outcome(
                        _backtrack_images, h, node_budget=budget, **mode
                    )
                    assert got == expected


def test_permute_matches_per_edge_reference():
    rng = random.Random(23)
    for h in block_and_sample_hypergraphs():
        sigma = random_permutation(rng, h.n)
        assert ref.edge_ranks(ref.relabel(h, sigma)) == ref.permute(h, sigma)


@pytest.fixture(scope="module")
def gamma102():
    return build_gamma(102)


def test_order_102_relabelings_match_reference(gamma102):
    g = gamma102
    swap = swap_antimorphism(102)
    sigma = random_permutation(random.Random(102), 102)
    assert ref.edge_ranks(ref.relabel(g, ref.identity(102))) == ref.edge_ranks(g)
    swapped = ref.edge_ranks(ref.relabel(g, swap))
    assert swapped == ref.permute(g, swap) == ref.complement(g)
    relabeled = ref.relabel(g, sigma)
    assert ref.edge_ranks(relabeled) == ref.permute(g, sigma)
    assert to_edge_list_text(g) == ref.serialize(g)
    assert to_edge_list_text(relabeled) == ref.serialize(relabeled)


def test_serializer_matches_reference():
    for h in block_and_sample_hypergraphs():
        assert to_edge_list_text(h) == ref.serialize(h)
    # Fewer vertex tokens than vertices still prints every label in use.
    sparse = Hypergraph(50, 1, [(3,), (17,), (49,)])
    assert to_edge_list_text(sparse) == ref.serialize(sparse)


def test_parser_matches_reference_at_block_boundaries():
    for h in boundary_hypergraphs():
        text = to_edge_list_text(h)
        assert parse_both(text) == h
        lines = text.split("\n")
        # Break the last line of the first block, then the first line of
        # the second block (line 1 is the header).
        for lineno in (1024, 1025):
            if lineno < len(lines) - 1:
                edited = lines[:lineno] + ["e " + lines[lineno][2:] + " 0"]
                assert parse_both("\n".join(edited + lines[lineno + 1 :])) is None
    sparse = Hypergraph(50, 1, [(3,), (17,), (49,)])
    assert parse_both(to_edge_list_text(sparse)) == sparse
    # Below and at the prefix map's read-ahead of 2k + 2 bytes per key.
    for n, k, lines in ((6, 2, 2), (6, 2, 3), (7, 1, 6), (7, 1, 7)):
        h = Hypergraph.from_ranks(n, k, range(lines))
        assert parse_both(to_edge_list_text(h)) == h
    # Leading zeros miss the prefix map; the line loop still takes them.
    assert parse_both("p hsc 50 1\ne 03\ne 17\n") == Hypergraph(50, 1, [(3,), (17,)])


def build_both(n, k, edges):
    """Build with the constructor and the reference; equal rank tuples, or
    the same ValueError message."""
    try:
        expected = ref.build_ranks(n, k, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Hypergraph(n, k, edges)
        assert str(got.value) == str(exc)
        return None
    h = Hypergraph(n, k, edges)
    assert ref.edge_ranks(h) == expected
    return h


# Edge lists for n = 6, k = 3 that the constructor must reject.
BAD_SUBSETS = {
    "too few vertices": [(0, 1, 2), (0, 1)],
    "too many vertices": [(0, 1, 2), (0, 1, 2, 3)],
    "non-increasing": [(0, 1, 2), (0, 2, 1)],
    "repeated vertex": [(1, 1, 2)],
    "negative vertex": [(0, 1, 2), (-1, 0, 2)],
    "vertex equal to n": [(0, 1, 6)],
    "vertex above n": [(3, 4, 5), (0, 1, 60)],
    "duplicate edge": [(0, 1, 2), (3, 4, 5), (0, 1, 2)],
    "first bad subset wins": [(0, 1, 2), (0, 3, 1), (0, 1), (-1, 2, 3)],
    "bad subset after a duplicate": [(0, 1, 2), (0, 1, 2), (0, 1, 9)],
    "first duplicate wins": [(1, 2, 3), (0, 1, 2), (1, 2, 3), (0, 1, 2)],
    "range before length": [(0, 1, 9), (0, 1)],
    "lists and tuples": [[0, 1, 2], (0, 1, 2)],
}


@pytest.mark.parametrize("case", sorted(BAD_SUBSETS))
def test_constructor_rejects_with_the_reference_message(case):
    assert build_both(6, 3, BAD_SUBSETS[case]) is None


def test_constructor_matches_reference():
    rng = random.Random(31)
    for h in block_and_sample_hypergraphs():
        edges = list(h.edges())
        rng.shuffle(edges)
        assert build_both(h.n, h.k, list(map(list, edges))) == h
    assert build_both(6, 3, [[0, 1, 5], (2, 3, 4)]).edge_count == 2
    # Bad shapes; where a subset is bad too, its fault is the one reported.
    for n, k, edges in (
        (4, 0, []),
        (4, 0, [()]),
        (4, 0, [(1,)]),
        (0, 1, []),
        (3, 4, [(0, 1, 2, 3)]),
        (4, 2, [(0, 1, 2)]),
        (4_000_000, 2_000_000, [(0, 1)]),
        (1002, 1001, []),
        (1002, 1001, [(0, 1)]),
    ):
        assert build_both(n, k, edges) is None


def test_from_ranks_reports_the_first_bad_rank():
    # comb(6, 3) = 20 positions; a bad shape is reported before any rank.
    cases = [(6, 3, ranks) for ranks in (
        [5, 3, 5, -1], [5, -1, 5], [3, -2], [0, 20], [19, 19], [3, 1, 2, 3],
        [25, -1], [7, 2, 7, 2],
    )] + [(4, 5, [-1]), (1002, 1001, [5000])]
    for n, k, ranks in cases:
        with pytest.raises(ValueError) as expected:
            ref.setup_ranks(ref.empty(n, k).positions, ranks)
        with pytest.raises(ValueError) as got:
            Hypergraph.from_ranks(n, k, ranks)
        assert str(got.value) == str(expected.value)
    assert ref.edge_ranks(Hypergraph.from_ranks(6, 3, [19, 0, 7])) == (0, 7, 19)


def test_complement_matches_reference():
    for h in block_and_sample_hypergraphs():
        c = ref.flipped(h)
        assert ref.edge_ranks(c) == ref.complement(h)
        assert ref.flipped(c) == h


def test_tau_orbits_match_reference():
    rng = random.Random(37)
    for n in (6, 10):
        swap, identity = swap_antimorphism(n), ref.identity(n)
        taus = (swap, random_permutation(rng, n), identity)
        for k in (0, 1, 2, 3, 4, n + 1):
            for tau in taus:
                assert tau_orbits_on_ksubsets(n, k, tau) == ref.tau_orbits(n, k, tau)


# The swap pairs the triples of order 6 (1024 candidates); the 4-cycle
# (0 1 2 3) and the 6-cycle move pairs and triples in longer orbits.
CANDIDATE_CASES = (
    (6, 3, swap_antimorphism(6), [2] * 10),
    (4, 2, Permutation([1, 2, 3, 0]), [2, 4]),
    (6, 3, Permutation([1, 2, 3, 4, 5, 0]), [2, 6, 6, 6]),
)


def test_candidate_order_matches_reference():
    for n, k, tau, lengths in CANDIDATE_CASES:
        dec = tau_orbits_on_ksubsets(n, k, tau)
        assert sorted(map(len, dec.orbits)) == lengths
        got = [ref.edge_ranks(h) for h in ref.alternating_assignments(n, k, tau)]
        assert len(got) == 1 << dec.orbit_count
        assert got == list(ref.candidates_by_bits(dec))


def test_indicator_candidates_equal_rank_built_ones():
    for n, k, tau, _ in CANDIDATE_CASES:
        dec = tau_orbits_on_ksubsets(n, k, tau)
        got = list(ref.alternating_assignments(n, k, tau))
        expected = list(ref.candidates_by_bits(dec))
        assert len(got) == len(expected) == 1 << dec.orbit_count
        for h, ranks in zip(got, expected):
            built = Hypergraph.from_ranks(n, k, ranks)
            assert h == built
            assert h.edge_count == built.edge_count == comb(n, k) // 2
            assert ref.edge_ranks(h) == ref.edge_ranks(built)


# Chunk sizes for the parse: from one line per chunk to the whole document
# in one.
CHUNKS = (1, 2, 5, 11, 16, 40, 1 << 16)


@pytest.fixture
def line_reads(monkeypatch):
    """What the parse reads line by line: `lines` holds the range of line
    numbers of each chunk given to `_set_lines`, and `maps` the shape of each
    prefix map built.  A chunk that the run step takes leaves no entry."""
    seen = SimpleNamespace(lines=[], maps=[])
    set_lines, prefix_ranks = hypercore._set_lines, hypercore._prefix_ranks

    def lines_spy(bits, chunk, n, k, lineno, last):
        seen.lines.append(range(lineno + 1, lineno + 2 + chunk.count("\n")))
        return set_lines(bits, chunk, n, k, lineno, last)

    def maps_spy(n, k):
        seen.maps.append((n, k))
        return prefix_ranks(n, k)

    monkeypatch.setattr(hypercore, "_set_lines", lines_spy)
    monkeypatch.setattr(hypercore, "_prefix_ranks", maps_spy)
    return seen


def taken_by_runs(line_reads, message) -> bool:
    """Check what one parse of a document with at most one edit read line by
    line, given its refusal message (None if it was accepted), and return
    whether it was accepted with a prefix map and every edge set by the run
    step.  At most one prefix map is built.
    With a map, the line loop reads at most one chunk, the edited one; with
    none, it reads every chunk in turn.  A refusal that names a line names
    one in the last chunk read line by line."""
    lines = line_reads.lines
    assert len(line_reads.maps) <= 1
    if line_reads.maps:
        assert len(lines) <= 1, lines
    elif lines:
        assert lines[0].start == 2
        assert [r.start for r in lines[1:]] == [r.stop for r in lines[:-1]]
    if message is not None and message.startswith("line "):
        assert int(message[5 : message.index(":")]) in lines[-1], (message, lines)
    return message is None and bool(line_reads.maps) and not lines


def parse_in_chunks(monkeypatch, line_reads, text):
    """parse_both at every chunk size in CHUNKS; returns the parsed
    hypergraph (None on an error) and whether the run step set every edge,
    the same at every size."""
    try:
        ref.parse(text)
        message = None
    except ValueError as exc:
        message = str(exc)
    results = []
    for size in CHUNKS:
        monkeypatch.setattr(hypercore, "_PARSE_CHUNK", size)
        line_reads.lines.clear()
        line_reads.maps.clear()
        result = parse_both(text)
        results.append((result, taken_by_runs(line_reads, message)))
    assert len(set(results)) == 1
    return results[0]


def test_parser_comments_at_chunk_edges(monkeypatch, line_reads):
    g = build_gamma(10)
    lines = to_edge_list_text(g).split("\n")
    for every in (1, 2, 3, 7):
        edited = list(lines[:1])
        for i, line in enumerate(lines[1:-1]):
            edited.append(line)
            if i % every == 0:
                edited.append(("c", "c x", "c a longer comment line")[i % 3])
        text = "\n".join(edited + [""])
        assert parse_in_chunks(monkeypatch, line_reads, text) == (g, True)
    # A document of comments and a single edge line.
    text = "p hsc 3 3\n" + "c\n" * 30 + "e 0 1 2\n" + "c z\n" * 30
    assert parse_in_chunks(monkeypatch, line_reads, text) == (
        ref.complete(3, 3),
        True,
    )


def test_parser_bad_line_in_the_last_chunk(monkeypatch, line_reads):
    lines = to_edge_list_text(build_gamma(10)).split("\n")
    for bad in ("e 0 1", "e 0 1 2 ", "e 2 1 0", "e 0 1 10", "", "cx"):
        text = "\n".join(lines[:-2] + [bad, ""])
        assert parse_in_chunks(monkeypatch, line_reads, text) == (None, False)
    # An empty last line before the final newline is a line too.
    text = "\n".join(lines) + "\n"
    assert parse_in_chunks(monkeypatch, line_reads, text) == (None, False)
    assert parse_in_chunks(monkeypatch, line_reads, "p hsc 3 3\n\n") == (None, False)


def test_parser_duplicate_split_across_chunks(monkeypatch, line_reads):
    lines = to_edge_list_text(build_gamma(10)).split("\n")
    for first in (1, 2, 30):
        text = "\n".join(lines[:-1] + [lines[first], ""])
        assert parse_in_chunks(monkeypatch, line_reads, text) == (None, False)
        with pytest.raises(ValueError, match="duplicate edge at rank"):
            from_edge_list_text(text)


def test_parser_line_endings_and_short_documents(monkeypatch, line_reads):
    g = build_gamma(10)
    text = to_edge_list_text(g)
    # No final newline: the same hypergraph, still set by the run step.
    assert parse_in_chunks(monkeypatch, line_reads, text[:-1]) == (g, True)
    head, body = text.split("\n", 1)
    for crlf in (
        text.replace("\n", "\r\n"),
        head + "\n" + body.replace("\n", "\r\n"),
        text[:-1] + "\r\n",
    ):
        assert parse_in_chunks(monkeypatch, line_reads, crlf) == (None, False)
    for short in ("p hsc 10 3\n", "p hsc 10 3", "", "\n", "p hsc 10 3\nc\n"):
        result, runs = parse_in_chunks(monkeypatch, line_reads, short)
        assert not runs and not line_reads.maps
        assert result in (None, ref.empty(10, 3))


def test_parser_chunk_edges_at_the_default_chunk_size(line_reads):
    # At n = 50 the edge lines take several chunks of the default size.
    g = build_gamma(50)
    text = to_edge_list_text(g)
    cut = text.index("\n") + 1 + hypercore._PARSE_CHUNK
    edge = text.index("\n", cut)
    assert edge < len(text) - 1
    assert parse_both(text) == g and not line_reads.lines
    # A comment line across the cut, which the first chunk ends with, and
    # one that opens the second chunk.
    comment = "c " + "x" * 20 + "\n"
    for at in (text.rindex("\n", 0, cut) + 1, edge + 1):
        assert parse_both(text[:at] + comment + text[at:]) == g
        assert not line_reads.lines
    lines = text.split("\n")
    # A duplicate of an edge from the first chunk, and a bad line, in the
    # last chunk: only that chunk is read line by line.
    for bad in (lines[:-1] + [lines[5], ""], lines[:-2] + ["e 0 1 50", ""]):
        line_reads.lines.clear()
        assert parse_both("\n".join(bad)) is None
        assert len(line_reads.lines) == 1 and line_reads.lines[0].start > 2


def test_parser_line_starts_at_every_chunk_size(monkeypatch, line_reads):
    # Twelve fields that would rank as three valid edges: only the check
    # that every line opens with "e " tells "e 1 2 3 e 4 5" and "6" apart
    # from two edge lines.
    text = "p hsc 7 3\ne 0 1 2\ne 1 2 3 e 4 5\n6\n"
    assert parse_in_chunks(monkeypatch, line_reads, text) == (None, False)
    g = build_gamma(10)
    lines = to_edge_list_text(g).split("\n")
    for at in (1, 2, 31, len(lines) - 3):
        # Two edge lines re-cut into a long one and a bare vertex.
        head, last = lines[at + 1].rsplit(" ", 1)
        edited = lines[:at] + [f"{lines[at]} {head}", last] + lines[at + 2 :]
        assert parse_in_chunks(monkeypatch, line_reads, "\n".join(edited)) == (
            None,
            False,
        )
        # Comment lines and look-alikes, opening a chunk at chunk size 1.
        for line, ok in (
            ("c", True),
            ("c ", True),
            ("c a comment", True),
            ("cx", False),
            ("c\r", False),
            ("c\tx", False),
            ("ce 0 1 2", False),
        ):
            text = "\n".join(lines[:at] + [line] + lines[at:])
            result = (g, True) if ok else (None, False)
            assert parse_in_chunks(monkeypatch, line_reads, text) == result
        # White space that only the single-space format rules out.
        for edit in (
            lines[at].replace(" ", "  ", 1),
            lines[at].replace(" ", "\t", 1),
            lines[at].replace(" ", "\t"),
            lines[at] + " ",
            lines[at] + "\r",
        ):
            text = "\n".join(lines[:at] + [edit] + lines[at + 1 :])
            assert parse_in_chunks(monkeypatch, line_reads, text) == (None, False)
    crlf = "\r\n".join(lines)
    assert parse_in_chunks(monkeypatch, line_reads, crlf) == (None, False)


def test_families_match_tuple_reference():
    for n in range(6, 103, 4):
        fams = build_gamma_families(n)
        expected = ref.gamma_families(n)
        got = (fams.side0, fams.midpoint, fams.off_midpoint)
        for family, reference in zip(got, expected):
            assert family == Hypergraph(n, 3, reference)
            assert family.edge_count == len(reference)
        columns = ref.gamma_family_columns(n)
        for family, reference in zip(columns._families(), expected):
            assert set(family) == set(reference)
        if n <= 30:
            assert build_gamma(n) == Hypergraph(n, 3, chain(*expected))


def triples(rows):
    return ref.Triples(map(list, zip(*rows)))


def test_to_hypergraph_reports_bad_families_like_the_constructor():
    fams = ref.gamma_family_columns(10)
    side0 = list(fams.side0_triples)
    cases = {
        "repeat in a family": dict(side0_triples=triples(side0 + side0[-1:])),
        "repeat across families": dict(midpoint_triples=triples(side0[:1])),
        "non-increasing": dict(midpoint_triples=triples([(2, 1, 9)])),
        "vertex equal to n": dict(midpoint_triples=triples([(0, 1, 10)])),
        "negative vertex": dict(midpoint_triples=triples([(-1, 1, 9)])),
    }
    for change in cases.values():
        bad = dataclasses.replace(fams, **change)
        with pytest.raises(ValueError) as expected:
            Hypergraph(10, 3, bad.all_edges())
        with pytest.raises(ValueError) as got:
            bad.to_hypergraph()
        assert str(got.value) == str(expected.value)


def test_order_102_permute_matches_rank_list_reference(gamma102):
    g = gamma102
    sigma = random_permutation(random.Random(1020), 102)
    for tau in (ref.identity(102), swap_antimorphism(102), sigma):
        assert ref.relabel(g, tau) == ref.permute_by_rank_list(g, tau)
    rng = random.Random(24)
    for h in block_and_sample_hypergraphs():
        sigma = random_permutation(rng, h.n)
        assert ref.relabel(h, sigma) == ref.permute_by_rank_list(h, sigma)
