import itertools
import random
import tracemalloc
from math import comb

import pytest

import colex_reference as ref
from colex_reference import rank_colex, relabel, subset_rank, unrank_colex
from hsc import hypercore
from hsc.colex import validate_ksubset
from hsc.construct import build_gamma, swap_antimorphism
from hsc.hypercore import (
    Hypergraph,
    Permutation,
    from_edge_list_text,
    read_edge_list,
    to_edge_list_text,
    write_edge_list,
)


def colex_sorted_subsets(n, k):
    """Independent oracle: all k-subsets ordered by reversed-tuple comparison,
    which is exactly the colex order."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def test_rank_colex_known_values():
    assert rank_colex((0, 1, 2), 6, 3) == 0
    assert rank_colex((3, 4, 5), 6, 3) == comb(6, 3) - 1
    assert rank_colex((0, 1, 3), 6, 3) == 1


def test_rank_matches_enumeration_oracle():
    for n, k in [(6, 3), (7, 2), (8, 4), (5, 1)]:
        for pos, s in enumerate(colex_sorted_subsets(n, k)):
            assert rank_colex(s, n, k) == pos
            assert unrank_colex(pos, n, k) == s


def test_unrank_known_values():
    assert unrank_colex(0, 6, 3) == (0, 1, 2)
    assert unrank_colex(19, 6, 3) == (3, 4, 5)
    assert unrank_colex(1, 6, 3) == (0, 1, 3)


def test_rank_unrank_bijective_up_to_n12_k4():
    for n in range(1, 13):
        for k in range(1, min(n, 4) + 1):
            seen = set()
            for r in range(comb(n, k)):
                s = unrank_colex(r, n, k)
                assert rank_colex(s, n, k) == r
                seen.add(s)
            assert len(seen) == comb(n, k)


def test_rank_input_errors():
    with pytest.raises(ValueError):
        rank_colex((0, 1), 6, 3)
    with pytest.raises(ValueError):
        rank_colex((0, 2, 1), 6, 3)
    with pytest.raises(ValueError):
        rank_colex((0, 1, 6), 6, 3)
    with pytest.raises(ValueError):
        rank_colex((-1, 0, 1), 6, 3)
    with pytest.raises(ValueError):
        unrank_colex(20, 6, 3)
    with pytest.raises(ValueError):
        unrank_colex(-1, 6, 3)


def test_validate_ksubset_accepts_valid():
    validate_ksubset((0, 3, 5), 6, 3)


def test_permutation_basics():
    p = Permutation([2, 0, 1])
    assert p.images[0] == 2 and p.n == 3
    assert ref.subset_image(p, (0, 1)) == (0, 2)
    assert p.inverse() == Permutation([1, 2, 0])
    assert ref.compose(p.inverse(), p) == ref.identity(3)
    assert ref.compose(p, p.inverse()) == ref.identity(3)
    assert p != ref.identity(3) and hash(p) == hash(Permutation([2, 0, 1]))


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError, match=r"^image 0 at position 1 repeats position 0:"):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError, match=r"^image 3 at position 2 is out of range"):
        Permutation([0, 1, 3])


def test_hypergraph_membership_and_counts():
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert h.edge_count == 2
    assert ref.has_edge(h, (0, 1, 2))
    assert not ref.has_edge(h, (0, 1, 3))
    assert h.indicator.tobytes() == b"\x01\x00\x00\x01"
    assert list(h.edges()) == [(0, 1, 2), (1, 2, 3)]


def test_every_route_builds_the_same_hypergraph():
    edges = [(2, 3, 5), (0, 1, 2), (1, 3, 4), (0, 4, 5), (0, 2, 4)]
    ordered = sorted(edges, key=lambda s: tuple(reversed(s)))
    ranks = [subset_rank(e) for e in ordered]
    shuffled = ranks[::-1]
    text = "p hsc 6 3\n" + "".join(f"e {a} {b} {c}\n" for a, b, c in ordered)
    h = Hypergraph(6, 3, edges)
    routes = [
        h,
        Hypergraph.from_ranks(6, 3, shuffled),
        ref.flipped(ref.flipped(h)),
        relabel(h, ref.identity(6)),
        from_edge_list_text(text),
    ]
    for g in routes:
        assert g.edge_count == 5
        assert ref.edge_ranks(g) == tuple(ranks)
        assert g.edges() == tuple(ordered)
        assert g.columns() == tuple(zip(*ordered))
        assert g.indicator.tobytes() == bytes(r in ranks for r in range(comb(6, 3)))
        assert g == h and hash(g) == hash(h)
    assert h != Hypergraph(6, 3, edges[1:])
    # The edge-list format lists edges in colex order only.
    shuffled = "p hsc 6 3\n" + "".join(f"e {a} {b} {c}\n" for a, b, c in edges)
    message = r"line 3: edge \(0, 1, 2\) is out of colex order"
    with pytest.raises(ValueError, match=message):
        from_edge_list_text(shuffled)
    # Equal indicator bytes (four ones) with a different k.
    assert ref.complete(4, 1) != ref.complete(4, 3)


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError):
        Hypergraph(4, 3, [(0, 1, 4)])
    with pytest.raises(ValueError):
        Hypergraph(4, 5, [])
    with pytest.raises(ValueError):
        Hypergraph.from_ranks(4, 3, [4])


def test_complement_involution_and_balance():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 3, 4), (0, 2, 4)])
    hc = ref.flipped(h)
    assert h.edge_count + hc.edge_count == comb(5, 3)
    assert ref.flipped(hc) == h
    assert not set(h.edges()) & set(hc.edges())


def test_complement_of_empty_is_complete():
    h = ref.empty(4, 3)
    assert ref.flipped(h) == ref.complete(4, 3)
    assert ref.flipped(h).edge_count == 4


def test_permute_identity_and_inverse_round_trip():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 3, 4)])
    assert relabel(h, ref.identity(5)) == h
    sigma = Permutation([4, 2, 0, 1, 3])
    assert relabel(relabel(h, sigma), sigma.inverse()) == h
    assert relabel(h, sigma).edge_count == h.edge_count


def test_permute_is_group_action():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 3, 4), (0, 2, 4)])
    sigma = Permutation([1, 2, 3, 4, 0])
    rho = Permutation([0, 2, 1, 4, 3])
    assert relabel(relabel(h, sigma), rho) == relabel(h, ref.compose(rho, sigma))


def test_permute_length_mismatch():
    h = Hypergraph(5, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        relabel(h, ref.identity(4))


def test_is_complete_on():
    h = ref.complete(5, 3)
    assert ref.is_complete_on(h, range(5))
    g = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert ref.is_complete_on(g, [0, 1, 2, 3])
    assert not ref.is_complete_on(g, [0, 1, 2, 4])
    with pytest.raises(ValueError):
        ref.is_complete_on(g, [0, 1])
    with pytest.raises(ValueError):
        ref.is_complete_on(g, [0, 1, 1, 2])
    with pytest.raises(ValueError):
        ref.is_complete_on(g, [0, 1, 2, 5])


def test_subset_rank_consistency():
    for s in itertools.combinations(range(7), 3):
        assert subset_rank(s) == rank_colex(s, 7, 3)


def test_indicator_agrees_with_edge_list():
    h = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 5), (1, 4, 5)])
    for r in range(h.positions):
        assert h.indicator[r] == (unrank_colex(r, 6, 3) in set(h.edges()))


def test_capped_comb_stops_past_the_cap():
    for n in range(40):
        for k in range(n + 1):
            c = comb(n, k)
            for cap in {1, c - 1, c, c + 1, 10**6} - {0}:
                assert hypercore._capped_comb(n, k, cap) == (c if c <= cap else None)


def test_empty_edge_set_is_refused_before_any_column(monkeypatch):
    # Each vertex column is built with one itemgetter.  An unsupported shape
    # must be refused before the first, so comb(4000000,2000000) never builds
    # its 2 000 000 empty columns; a supported one builds at most
    # MAX_UNIFORMITY of them.
    def no_columns(i):
        pytest.fail(f"built vertex column {i} of an empty edge set")

    with monkeypatch.context() as patched:
        patched.setattr(hypercore, "itemgetter", no_columns)
        with pytest.raises(ValueError, match=r"^comb\(4000000,2000000\) subset positions exceed"):
            Hypergraph(4_000_000, 2_000_000, [])
        with pytest.raises(ValueError, match=r"^uniformity k=5 must satisfy 1 <= k <= n=4$"):
            Hypergraph(4, 5, [])
        k = hypercore.MAX_UNIFORMITY + 1
        with pytest.raises(ValueError, match=rf"^uniformity k={k} exceeds the supported bound"):
            Hypergraph(k + 1, k, [])
    empty = Hypergraph(6, 3, iter(()))
    assert empty == ref.empty(6, 3) and empty.edge_count == 0 and empty.positions == 20


def test_edge_list_text_exact_bytes():
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert to_edge_list_text(h) == "p hsc 4 3\ne 0 1 2\ne 1 2 3\n"
    assert to_edge_list_text(ref.empty(4, 3)) == "p hsc 4 3\n"


def test_edge_list_round_trip(tmp_path):
    h = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 5), (1, 4, 5)])
    path = tmp_path / "h.hsc"
    write_edge_list(h, path)
    again = read_edge_list(path)
    assert again == h
    assert to_edge_list_text(again) == to_edge_list_text(h)


def test_edge_list_parser_accepts_comments_and_rejects_junk():
    assert from_edge_list_text("p hsc 4 3\nc note\ne 0 1 2\n").edge_count == 1
    with pytest.raises(ValueError):
        from_edge_list_text("")
    with pytest.raises(ValueError):
        from_edge_list_text("p xyz 4 3\ne 0 1 2\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p hsc 4 3\nf 0 1 2\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p hsc 4 3\ne 0 1\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p hsc 4 3\ne 0 2 1\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p hsc 4 3\ne 0 1 2\ne 0 1 2\n")
    with pytest.raises(ValueError):
        from_edge_list_text("p hsc 4 3\ne 0  1 2\n")


def test_write_edge_list_streams_the_same_bytes(tmp_path):
    for h in (build_gamma(14), ref.empty(14, 3), Hypergraph(9, 1, [(4,)])):
        path = tmp_path / "h.hsc"
        write_edge_list(h, path)
        assert path.read_bytes() == to_edge_list_text(h).encode("ascii")


def test_permute_count_check_is_explicit(monkeypatch):
    g = build_gamma(6)
    # Every image ranked 0: one set byte for ten edges.
    monkeypatch.setattr(ref, "_image_ranks", lambda columns, images, rows: [0] * 10)
    with pytest.raises(RuntimeError, match="gives 1 distinct edges, not 10"):
        relabel(g, ref.identity(6))


def test_streamed_paths_peak_small_at_order_102(tmp_path):
    # At n = 102 the indicator takes 0.17 MB and the memoized vertex columns
    # 2.1 MB.  The whole-edge-set paths these replaced peaked at 11.2 MB
    # (construct and write), 11.7 MB (read) and 6.2 MB (a first relabeling).
    path = tmp_path / "g102.hsc"
    sigma = list(range(102))
    random.Random(102).shuffle(sigma)
    peaks = {}

    def measure(name, step):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = step()
        peaks[name] = tracemalloc.get_traced_memory()[1] - base
        return result

    tracemalloc.start()
    try:
        measure("construct and write", lambda: write_edge_list(build_gamma(102), path))
        g = measure("read", lambda: read_edge_list(path))
        measure("first relabeling", lambda: relabel(g, Permutation(sigma)))
        measure("swap", lambda: relabel(g, swap_antimorphism(102)))
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 4e6, peaks
