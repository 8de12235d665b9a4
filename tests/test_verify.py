import itertools
import tracemalloc
from math import comb

import pytest

import colex_reference as ref
from hsc import colex
from hsc.construct import build_gamma, build_gamma_families, swap_antimorphism
from hsc.hypercore import Hypergraph, Permutation, coverage, from_edge_list_text
from hsc.verify import (
    SearchBudgetExceeded,
    SearchOrderError,
    _k4_profile,
    automorphism_vertex_orbits,
    euler_characteristic_triangulation,
    find_antimorphism,
    pair_case_breakdown,
    t_subset_regularity,
    verify_antimorphism,
    vertex_invariant_k4,
)

# Census over all 720 permutations of the order-6 instance, frozen from the
# first exhaustive run: its antimorphisms form a coset of its order-60
# automorphism group.
GAMMA6_ANTIMORPHISM_COUNT = 60

# Node budget that opts the order-10 searches in; each needs fewer nodes.
ORDER10_BUDGET = 10**6


def octahedron():
    """Three antipodal vertex pairs; faces pick one vertex from each pair."""
    edges = [
        tuple(sorted((a, b, c))) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    return Hypergraph(6, 3, edges)


def test_regularity_of_constructions():
    assert t_subset_regularity(build_gamma(6), 2).valence == 2
    assert t_subset_regularity(build_gamma(10), 2).valence == 4


def test_regularity_complete_hypergraph():
    rep = t_subset_regularity(ref.complete(5, 3), 2)
    assert rep.valence == 3


def test_regularity_witness_after_edge_removal():
    g = build_gamma(6)
    broken = Hypergraph(6, 3, list(g.edges())[1:])
    rep = t_subset_regularity(broken, 2)
    assert not rep.regular
    assert {rep.witness_count, rep.first_count} == {1, 2}
    assert rep.witness is not None and len(rep.witness) == 2


def test_regularity_witness_is_the_colex_first_deviation():
    # The witness is the reference's colex-first deviation, unranked alone:
    # at (n, k, t) = (22, 21, 10) the cached columns of all comb(22, 10)
    # 10-subsets took 52 MB of a 78 MB peak (tracemalloc).
    one_edge = Hypergraph(22, 21, [range(21)])
    colex._subset_columns.cache_clear()
    tracemalloc.start()
    try:
        rep = t_subset_regularity(one_edge, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == ref.regularity(one_edge, 10)
    assert rep.witness == (0, 1, 2, 3, 4, 5, 6, 7, 8, 21)
    assert peak < 16 << 20
    assert colex._subset_columns.cache_info().currsize == 0
    g = build_gamma(10)
    shapes = (
        Hypergraph(10, 3, list(g.edges())[3:]),
        octahedron(),
        Hypergraph(9, 4, [(0, 1, 2, 3), (2, 5, 7, 8)]),
    )
    failures = 0
    for h in shapes:
        for t in range(1, h.k):
            rep = t_subset_regularity(h, t)
            assert rep == ref.regularity(h, t), (h, t)
            failures += not rep.regular
    assert failures == 6
    assert t_subset_regularity(shapes[2], 3).witness == (0, 1, 4)


def test_regularity_rejects_bad_t():
    g = build_gamma(6)
    with pytest.raises(ValueError):
        t_subset_regularity(g, 0)
    with pytest.raises(ValueError):
        t_subset_regularity(g, 3)


def test_regularity_double_counting():
    for h in (build_gamma(6), build_gamma(10), ref.complete(6, 3)):
        for t in (1, 2):
            rep = t_subset_regularity(h, t)
            assert rep.regular
            assert rep.valence * comb(h.n, t) == h.edge_count * comb(h.k, t)


def test_two_regular_implies_one_regular():
    for n in (6, 10, 14, 18):
        g = build_gamma(n)
        lam = (n - 2) // 2
        assert t_subset_regularity(g, 2).valence == lam
        assert t_subset_regularity(g, 1).valence == lam * (n - 1) // 2


def test_complement_valence_relation():
    for n in (6, 10):
        g = build_gamma(n)
        lam = t_subset_regularity(g, 2).valence
        lam_c = t_subset_regularity(ref.flipped(g), 2).valence
        assert lam + lam_c == comb(n - 2, 1)


def test_expected_valence():
    # A t-regular hypergraph exchanged with its complement has valence
    # comb(n - t, k - t) / 2: the construction, and the 5-cycle, which
    # v -> 2v mod 5 exchanges with the pentagram.
    for n in range(6, 51, 4):
        valence = t_subset_regularity(build_gamma(n), 2).valence
        assert valence == comb(n - 2, 1) // 2 == (n - 2) // 2
    cycle = Hypergraph(5, 2, [tuple(sorted((v, (v + 1) % 5))) for v in range(5)])
    assert verify_antimorphism(cycle, Permutation([0, 2, 4, 1, 3])).ok
    assert t_subset_regularity(cycle, 1).valence == comb(4, 1) // 2 == 2


def test_pair_case_examples_order_10():
    assert pair_case_breakdown(build_gamma_families(10)) == {
        "a": {(3, 1, 0)},
        "b": {(0, 0, 4)},
        "c": {(0, 0, 4)},
        "d": {(0, 1, 3)},
    }


def test_pair_cases_exhaustive():
    # The coverage passes against a scan of the tuple families per pair.
    for n in (6, 10, 14):
        cases = pair_case_breakdown(build_gamma_families(n))
        assert cases == ref.pair_cases_by_scan(n) == ref.pair_case_table(n // 2)


def test_pair_case_table_at_large_orders():
    for n in (102, 202):
        assert pair_case_breakdown(build_gamma_families(n)) == ref.pair_case_table(n // 2)


def test_families_and_pair_cases_list_no_edges(monkeypatch):
    def refuse(self):
        raise AssertionError("an edge list was built")

    monkeypatch.setattr(Hypergraph, "edges", refuse)
    cases = pair_case_breakdown(build_gamma_families(50))
    assert cases == ref.pair_case_table(25)


def test_verify_antimorphism_swap():
    for n in (6, 10, 14):
        g = build_gamma(n)
        assert verify_antimorphism(g, swap_antimorphism(n)).ok


def test_verify_antimorphism_identity_fails_with_witness():
    g = build_gamma(6)
    chk = verify_antimorphism(g, ref.identity(6))
    assert not chk.ok
    assert chk.witness == (0, 1, 2)


def test_verify_antimorphism_complete_hypergraph():
    h = ref.complete(5, 3)
    for images in itertools.permutations(range(5)):
        if not verify_antimorphism(h, Permutation(images)).ok:
            continue
        raise AssertionError("complete hypergraph cannot have an antimorphism")


def test_verify_antimorphism_cross_checks_permute_complement():
    cases = [
        (build_gamma(6), swap_antimorphism(6)),
        (build_gamma(6), ref.identity(6)),
        (Hypergraph(5, 3, [(0, 1, 2)]), Permutation([1, 2, 3, 4, 0])),
    ]
    for h, tau in cases:
        assert verify_antimorphism(h, tau).ok == (ref.relabel(h, tau) == ref.flipped(h))


def test_find_antimorphism_on_construction():
    g = build_gamma(6)
    tau = find_antimorphism(g)
    assert tau is not None
    assert verify_antimorphism(g, tau).ok
    assert find_antimorphism(g) == tau  # deterministic


def test_find_antimorphism_counting_obstruction():
    h = Hypergraph(6, 3, [(0, 1, 2)])
    # rejected before any search: a zero budget would otherwise trip
    assert find_antimorphism(h, node_budget=0) is None


def test_find_antimorphism_budget_exhaustion():
    g = build_gamma(6)
    with pytest.raises(SearchBudgetExceeded):
        find_antimorphism(g, node_budget=3)


def test_search_order_policy():
    g = build_gamma(10)
    # A node budget is the opt-in to orders 9 and 10, and to no order past.
    with pytest.raises(SearchOrderError):
        find_antimorphism(g)
    assert find_antimorphism(g, ORDER10_BUDGET) is not None
    big = build_gamma(14)
    with pytest.raises(SearchOrderError):
        find_antimorphism(big, ORDER10_BUDGET)


def test_antimorphism_census_order_6():
    g = build_gamma(6)
    count = sum(
        1
        for images in itertools.permutations(range(6))
        if verify_antimorphism(g, Permutation(images)).ok
    )
    assert count == GAMMA6_ANTIMORPHISM_COUNT


def test_orbits_of_construction_order_6():
    assert automorphism_vertex_orbits(build_gamma(6)) == ((0, 1, 2, 3, 4, 5),)


def test_orbits_of_construction_order_10():
    orbits = automorphism_vertex_orbits(build_gamma(10), node_budget=ORDER10_BUDGET)
    assert len(orbits) >= 2
    assert orbits == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))


def test_orbits_complete_hypergraph():
    assert automorphism_vertex_orbits(ref.complete(5, 3)) == ((0, 1, 2, 3, 4),)


def test_orbits_of_empty_and_complete_hypergraphs_need_no_search(monkeypatch):
    # Every permutation is an automorphism of these, so the one orbit is
    # given without walking n! permutations (about 1 s at `p hsc 8 7`).
    def searched(*args, **kwargs):
        raise AssertionError("_backtrack_images called")

    monkeypatch.setattr("hsc.verify._backtrack_images", searched)
    for text in ("p hsc 8 7\n", "p hsc 7 4\n"):
        h = from_edge_list_text(text)
        assert automorphism_vertex_orbits(h) == (tuple(range(h.n)),)
    assert automorphism_vertex_orbits(ref.complete(8, 3)) == (tuple(range(8)),)
    # Past the free order a budget still opts in, and no node is spent.
    empty = ref.empty(10, 3)
    assert automorphism_vertex_orbits(empty, node_budget=0) == (tuple(range(10)),)
    with pytest.raises(SearchOrderError):
        automorphism_vertex_orbits(empty)
    with pytest.raises(SearchOrderError):
        automorphism_vertex_orbits(ref.empty(11, 3), node_budget=10**6)


def test_k4_classes_are_built_only_for_a_search(monkeypatch):
    # The profiles that cut a k = 3 search are built after the order check
    # and the empty/complete shortcut, so neither pays for one.
    profiled = []

    def spy(h):
        profiled.append(h.n)
        return _k4_profile(h)

    monkeypatch.setattr("hsc.verify._k4_profile", spy)
    g10, g50 = build_gamma(10), build_gamma(50)
    for g, budget in ((g10, None), (g50, ORDER10_BUDGET)):
        with pytest.raises(SearchOrderError):
            find_antimorphism(g, budget)
        with pytest.raises(SearchOrderError):
            automorphism_vertex_orbits(g, node_budget=budget)
    for h in (ref.empty(8, 3), ref.complete(8, 3)):
        assert automorphism_vertex_orbits(h) == (tuple(range(8)),)
        assert find_antimorphism(h) is None
    # k != 3 searches every vertex.
    assert automorphism_vertex_orbits(Hypergraph(4, 2, [(0, 1)])) == (
        (0, 1),
        (2, 3),
    )
    assert profiled == []
    # An automorphism search profiles h; an antimorphism search h and its
    # complement.
    automorphism_vertex_orbits(build_gamma(6))
    assert profiled == [6]
    find_antimorphism(build_gamma(6))
    assert profiled == [6, 6, 6]


def test_orbits_budget_exhaustion():
    with pytest.raises(SearchBudgetExceeded):
        automorphism_vertex_orbits(build_gamma(6), node_budget=5)


def test_k4_invariant_complete():
    h = ref.complete(6, 3)
    for v in range(6):
        assert vertex_invariant_k4(h, v) == comb(5, 3)


def k4_count_oracle(h, v):
    """Independent recount: complete 4-subsets through v via is_complete_on."""
    n = h.n
    return sum(
        1
        for quad in itertools.combinations(range(n), 4)
        if v in quad and ref.is_complete_on(h, quad)
    )


def test_k4_invariant_separates_sides_order_10():
    g = build_gamma(10)
    values = [vertex_invariant_k4(g, v) for v in range(10)]
    assert values == [k4_count_oracle(g, v) for v in range(10)]
    side0, side1 = set(values[:5]), set(values[5:])
    assert side0 == {4} and side1 == {0}
    # side-0 vertices sit in the complete family on side 0, so at least comb(4,3)
    assert all(v >= comb(4, 3) for v in values[:5])


def test_k4_invariant_closed_form_order_102():
    # Every K4 lies inside side 0, whose m = 51 vertices span the complete
    # family, so side 0 reads C(50,3) and side 1 reads 0.
    g = build_gamma(102)
    assert _k4_profile(g) == (comb(50, 3),) * 51 + (0,) * 51
    for v in (0, 50, 51, 101):
        assert vertex_invariant_k4(g, v) == (comb(50, 3) if v < 51 else 0)


def test_k4_keeps_only_the_pair_masks_on_the_hypergraph():
    # One call keeps the comb(102, 2) closed pair masks on g, about 0.3 MB;
    # the edges' vertex columns it used to keep took about 2.1 MB.
    g = build_gamma(102)
    tracemalloc.start()
    try:
        vertex_invariant_k4(g, 0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained


def test_k4_invariant_constant_order_6():
    g = build_gamma(6)
    assert len({vertex_invariant_k4(g, v) for v in range(6)}) == 1


def test_k4_invariant_input_errors():
    with pytest.raises(ValueError):
        vertex_invariant_k4(ref.complete(5, 2), 0)
    with pytest.raises(ValueError):
        vertex_invariant_k4(ref.complete(3, 3), 0)
    with pytest.raises(ValueError):
        vertex_invariant_k4(ref.complete(6, 3), 6)
    # The checks run in this order: uniformity, order, then the vertex.
    with pytest.raises(ValueError, match="3-uniform"):
        vertex_invariant_k4(ref.complete(3, 2), 9)
    with pytest.raises(ValueError, match="need n >= 4"):
        vertex_invariant_k4(ref.complete(3, 3), 9)
    with pytest.raises(ValueError, match="out of range"):
        vertex_invariant_k4(ref.complete(6, 3), -1)


def test_euler_characteristic_projective_plane():
    assert euler_characteristic_triangulation(build_gamma(6)) == 1


def test_euler_characteristic_tetrahedron():
    assert euler_characteristic_triangulation(ref.complete(4, 3)) == 2


def test_euler_characteristic_octahedron_covered_skeleton():
    # The octahedron's non-antipodal pairs lie in two faces each, but its
    # antipodal pairs lie in none, and every pair counts as a 1-cell.
    octa = octahedron()
    with pytest.raises(ValueError, match="lies in 0 edges"):
        euler_characteristic_triangulation(octa)
    # Only the covered pairs form the sphere's 1-skeleton: V - E + F = 2.
    counts = coverage(octa, 2)
    assert sorted(set(counts)) == [0, 2]
    covered = sum(1 for c in counts if c)
    assert (octa.n, covered, octa.edge_count) == (6, 12, 8)
    assert octa.n - covered + octa.edge_count == 2


def test_euler_characteristic_rejects_non_triangulations():
    with pytest.raises(ValueError):
        euler_characteristic_triangulation(build_gamma(10))
    with pytest.raises(ValueError):
        euler_characteristic_triangulation(ref.complete(5, 2))


def test_regularity_double_counting_check_is_explicit(monkeypatch):
    # Coverage counts that cannot come from the edges must fail the double
    # counting check with an exception, not an assert that -O strips.
    # Every one-byte lane reads 1, though the hypergraph has no edge.
    def lanes(h, t):
        return int.from_bytes(b"\x01" * comb(h.n, t), "little"), comb(h.n, t), 1

    monkeypatch.setattr("hsc.verify._coverage_lanes", lanes)
    with pytest.raises(RuntimeError, match="double counting"):
        t_subset_regularity(ref.empty(6, 3), 2)
