"""Differential tests: the table-driven colex kernel and its column passes
(build, permute, complement, serialize, parse), the one-pass K4 profile,
the table-ranked image search, the orbit map and the candidate order
against the slow reference implementations in `colex_reference`."""

import random
from itertools import chain, combinations, islice
from math import comb

import pytest

import colex_reference as ref
from hsc.construct import build_gamma, swap_antimorphism
from hsc.hypercore import (
    MAX_POSITIONS,
    Hypergraph,
    Permutation,
    colex_walk,
    coverage,
    from_edge_list_text,
    to_edge_list_text,
)
from hsc.search import enumerate_sc_hypergraphs, tau_orbits_on_ksubsets
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
            yield Hypergraph.empty(n, k)
            yield Hypergraph.complete(n, k)
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
        tau = sigma * Permutation(images) * sigma.inverse()
        # Lift the cap past the 2**orbit_count candidates: the prefix costs
        # only what islice takes.
        candidates = enumerate_sc_hypergraphs(n, k, tau, cap=1 << comb(n, k))
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
        assert rebuilt.edge_ranks == h.edge_ranks


def test_coverage_and_regularity_match_reference():
    for h in sample_hypergraphs():
        for t in range(1, h.k):
            assert coverage(h, t) == ref.coverage_by_combinations(h, t)
            assert t_subset_regularity(h, t) == ref.regularity(h, t)


def test_regularity_witnesses_match_reference():
    rng = random.Random(3)
    for n in (10, 14):
        g = build_gamma(n)
        for _ in range(5):
            ranks = list(g.edge_ranks)
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
        ranks = list(h.edge_ranks)
        non_edges = [r for r in range(h.positions) if not h.has_rank(r)]
        ranks[rng.randrange(len(ranks))] = rng.choice(non_edges)
        corrupted = Hypergraph.from_ranks(h.n, h.k, ranks)
        check = verify_antimorphism(corrupted, tau)
        assert not check.ok
        assert check == ref.antimorphism(corrupted, tau)


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
    assert got == expected
    return got


def test_parser_accepts_what_the_reference_accepts():
    g = build_gamma(10)
    text = to_edge_list_text(g)
    assert parse_both(text) == g
    assert parse_both(to_edge_list_text(g, comments=("a", "b c"))) == g
    assert parse_both(text.replace("e 0 1 2\n", "e 000 01 2\n")) == g
    shuffled = list(g.edges())
    random.Random(1).shuffle(shuffled)
    assert parse_both(text_of(10, 3, shuffled)) == g
    assert parse_both(text_of(10, 3, shuffled[:5]) + "c\nc trailing\n").edge_count == 5
    assert parse_both("p hsc 5 3\n") == Hypergraph.empty(5, 3)
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
    # comb(32, 3) = 4960 edge lines: more than one block on the fast route.
    h = Hypergraph.complete(32, 3)
    lines = to_edge_list_text(h).split("\n")
    for lineno in (4500, len(lines) - 2):
        for bad in ("e 0 1", lines[lineno] + " ", "e 1 0 2", "e 0 1 32"):
            edited = lines[:lineno] + [bad] + lines[lineno + 1 :]
            assert parse_both("\n".join(edited)) is None
    # An error near the top still wins over a later one in another block.
    edited = list(lines)
    edited[3] = "e 0 2 1"
    edited[4700] = "e 0 x 1"
    assert parse_both("\n".join(edited)) is None
    assert parse_both("\n".join(lines)) == h


def test_parser_headers_outside_the_fast_route():
    for text in (
        "p hsc 4 0\ne\n",
        "p hsc 3 5\ne 0 1 2 3 4\n",
        "p hsc 3 5\n",
        f"p hsc {MAX_POSITIONS} 2\ne 0 1\n",
        "p hsc 0 1\n",
    ):
        assert parse_both(text) is None


def k4_samples():
    """Seeded random 3-uniform hypergraphs at n = 4..14, sparse to dense,
    and relabeled constructions at n = 10 and 14."""
    rng = random.Random(44)
    for n in range(4, 15):
        for density in (0.2, 0.5, 0.85):
            yield random_hypergraph(rng, n, 3, density)
    for n in (10, 14):
        yield build_gamma(n).permute(random_permutation(rng, n))


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
    copy = Hypergraph.from_ranks(9, 3, first.edge_ranks)
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
        h = build_gamma(n).permute(sigma)
        autos, nodes = assert_search_matches(h, want_equal=True, first_only=False)
        assert all(p.is_identity() is (i == 0) for i, p in enumerate(autos))
        orbits = automorphism_vertex_orbits(h, allow_large=True, node_budget=nodes)
        sides = [range(n)] if n == 6 else [range(n // 2), range(n // 2, n)]
        assert orbits == tuple(sorted(tuple(sorted(map(sigma, s))) for s in sides))


def test_antimorphism_search_matches_reference():
    rng = random.Random(17)
    for n in (6, 10):
        h = build_gamma(n).permute(random_permutation(rng, n))
        (tau,), nodes = assert_search_matches(h, want_equal=False, first_only=True)
        assert find_antimorphism(h, nodes, allow_large=True) == tau
        assert verify_antimorphism(h, tau).ok
    for h, _ in exchanged_hypergraphs():
        if h.n <= 8:
            assert_search_matches(h, want_equal=False, first_only=True)


def test_search_budget_nodes_match_reference():
    h = build_gamma(10).permute(random_permutation(random.Random(19), 10))
    for budget in (0, 1, 7, 40):
        for want_equal in (True, False):
            kwargs = dict(want_equal=want_equal, node_budget=budget, first_only=False)
            with pytest.raises(SearchBudgetExceeded) as expected:
                ref.backtrack_images(h, **kwargs)
            with pytest.raises(SearchBudgetExceeded) as got:
                _backtrack_images(h, **kwargs)
            assert got.value.nodes == expected.value.nodes


def test_permute_matches_per_edge_reference():
    rng = random.Random(23)
    for h in block_and_sample_hypergraphs():
        sigma = random_permutation(rng, h.n)
        assert h.permute(sigma).edge_ranks == ref.permute(h, sigma)


@pytest.fixture(scope="module")
def gamma102():
    return build_gamma(102)


def test_order_102_relabelings_match_reference(gamma102):
    g = gamma102
    swap = swap_antimorphism(102)
    sigma = random_permutation(random.Random(102), 102)
    assert g.permute(Permutation.identity(102)).edge_ranks == g.edge_ranks
    assert g.permute(swap).edge_ranks == ref.permute(g, swap) == ref.complement(g)
    relabeled = g.permute(sigma)
    assert relabeled.edge_ranks == ref.permute(g, sigma)
    assert to_edge_list_text(g) == ref.serialize(g)
    assert to_edge_list_text(relabeled) == ref.serialize(relabeled)


def test_serializer_matches_reference():
    for h in block_and_sample_hypergraphs():
        assert to_edge_list_text(h) == ref.serialize(h)
    # Fewer vertex tokens than vertices still prints every label in use.
    sparse = Hypergraph(50, 1, [(3,), (17,), (49,)])
    comments = ("a", "", "b c")
    assert to_edge_list_text(sparse, comments) == ref.serialize(sparse, comments)
    with pytest.raises(ValueError, match="single lines"):
        to_edge_list_text(sparse, ("a\nb",))


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
    # Just below and at n vertex tokens, where the fast route starts.
    for n, k, lines in ((6, 2, 2), (6, 2, 3), (7, 1, 6), (7, 1, 7)):
        h = Hypergraph.from_ranks(n, k, range(lines))
        assert parse_both(to_edge_list_text(h)) == h
    # Leading zeros miss the label map; the strict loop still takes them.
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
    assert h.edge_ranks == expected
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
    for n, k, edges in (
        (4, 0, []),
        (4, 0, [()]),
        (4, 0, [(1,)]),
        (0, 1, []),
        (3, 4, [(0, 1, 2, 3)]),
        (4, 2, [(0, 1, 2)]),
    ):
        assert build_both(n, k, edges) is None


def test_from_ranks_reports_the_first_bad_rank():
    # comb(6, 3) = 20 positions.
    for ranks in ([5, 3, 5, -1], [5, -1, 5], [3, -2], [0, 20], [19, 19], [3, 1, 2, 3]):
        with pytest.raises(ValueError) as expected:
            ref.setup_ranks(20, ranks)
        with pytest.raises(ValueError) as got:
            Hypergraph.from_ranks(6, 3, ranks)
        assert str(got.value) == str(expected.value)
    assert Hypergraph.from_ranks(6, 3, [19, 0, 7]).edge_ranks == (0, 7, 19)


def test_complement_matches_reference():
    for h in block_and_sample_hypergraphs():
        c = h.complement()
        assert c.edge_ranks == ref.complement(h)
        assert c.complement() == h


def test_tau_orbits_match_reference():
    rng = random.Random(37)
    for n in (6, 10):
        swap, identity = swap_antimorphism(n), Permutation.identity(n)
        taus = (swap, random_permutation(rng, n), identity)
        for k in (0, 1, 2, 3, 4, n + 1):
            for tau in taus:
                assert tau_orbits_on_ksubsets(n, k, tau) == ref.tau_orbits(n, k, tau)


def test_candidate_order_matches_reference():
    # The swap pairs the triples of order 6 (1024 candidates); the 4-cycle
    # (0 1 2 3) and the 6-cycle move pairs and triples in longer orbits.
    cases = (
        (6, 3, swap_antimorphism(6), [2] * 10),
        (4, 2, Permutation([1, 2, 3, 0]), [2, 4]),
        (6, 3, Permutation([1, 2, 3, 4, 5, 0]), [2, 6, 6, 6]),
    )
    for n, k, tau, lengths in cases:
        dec = tau_orbits_on_ksubsets(n, k, tau)
        assert sorted(map(len, dec.orbits)) == lengths
        got = [h.edge_ranks for h in enumerate_sc_hypergraphs(n, k, tau)]
        assert len(got) == 1 << dec.orbit_count
        assert got == list(ref.candidates_by_bits(dec))
