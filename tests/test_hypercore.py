import itertools
import random
import tracemalloc
from math import comb

import pytest

from hsc.construct import build_gamma, swap_antimorphism
from hsc.hypercore import (
    Hypergraph,
    Permutation,
    from_edge_list_text,
    rank_colex,
    read_edge_list,
    subset_rank,
    to_edge_list_text,
    unrank_colex,
    validate_ksubset,
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
    assert p(0) == 2
    assert p.apply_to_subset((0, 1)) == (0, 2)
    assert p.inverse() * p == Permutation.identity(3)
    assert (p * p.inverse()).is_identity()
    assert Permutation.identity(4).is_identity()


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])


def test_hypergraph_membership_and_counts():
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert h.edge_count == 2
    assert h.has_edge((0, 1, 2))
    assert not h.has_edge((0, 1, 3))
    assert h.edge_ranks == (0, 3)
    assert list(h.edges()) == [(0, 1, 2), (1, 2, 3)]


def test_every_route_builds_the_same_hypergraph():
    edges = [(2, 3, 5), (0, 1, 2), (1, 3, 4), (0, 4, 5), (0, 2, 4)]
    ordered = sorted(edges, key=lambda s: tuple(reversed(s)))
    ranks = [subset_rank(e) for e in ordered]
    shuffled = ranks[::-1]
    text = "p hsc 6 3\n" + "".join(f"e {a} {b} {c}\n" for a, b, c in edges)
    h = Hypergraph(6, 3, edges)
    routes = [
        h,
        Hypergraph.from_ranks(6, 3, shuffled),
        h.complement().complement(),
        h.permute(Permutation.identity(6)),
        from_edge_list_text(text),
    ]
    for g in routes:
        assert g.edge_count == 5
        assert g.edge_ranks == tuple(ranks)
        assert g.edges() == tuple(ordered)
        assert g.columns() == tuple(zip(*ordered))
        assert g.indicator.tobytes() == bytes(r in ranks for r in range(comb(6, 3)))
        assert g == h and hash(g) == hash(h)
    assert h != Hypergraph(6, 3, edges[1:])
    # Equal indicator bytes (four ones) with a different k.
    assert Hypergraph.complete(4, 1) != Hypergraph.complete(4, 3)


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
    hc = h.complement()
    assert h.edge_count + hc.edge_count == comb(5, 3)
    assert hc.complement() == h
    assert not set(h.edges()) & set(hc.edges())


def test_complement_of_empty_is_complete():
    h = Hypergraph.empty(4, 3)
    assert h.complement() == Hypergraph.complete(4, 3)
    assert h.complement().edge_count == 4


def test_permute_identity_and_inverse_round_trip():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 3, 4)])
    ident = Permutation.identity(5)
    assert h.permute(ident) == h
    sigma = Permutation([4, 2, 0, 1, 3])
    assert h.permute(sigma).permute(sigma.inverse()) == h
    assert h.permute(sigma).edge_count == h.edge_count


def test_permute_is_group_action():
    h = Hypergraph(5, 3, [(0, 1, 2), (1, 3, 4), (0, 2, 4)])
    sigma = Permutation([1, 2, 3, 4, 0])
    rho = Permutation([0, 2, 1, 4, 3])
    assert h.permute(sigma).permute(rho) == h.permute(rho * sigma)


def test_permute_length_mismatch():
    h = Hypergraph(5, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        h.permute(Permutation.identity(4))


def test_is_complete_on():
    h = Hypergraph.complete(5, 3)
    assert h.is_complete_on(range(5))
    g = Hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert g.is_complete_on([0, 1, 2, 3])
    assert not g.is_complete_on([0, 1, 2, 4])
    with pytest.raises(ValueError):
        g.is_complete_on([0, 1])
    with pytest.raises(ValueError):
        g.is_complete_on([0, 1, 1, 2])
    with pytest.raises(ValueError):
        g.is_complete_on([0, 1, 2, 5])


def test_subset_rank_consistency():
    for s in itertools.combinations(range(7), 3):
        assert subset_rank(s) == rank_colex(s, 7, 3)


def test_indicator_agrees_with_edge_list():
    h = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 5), (1, 4, 5)])
    for r in range(h.positions):
        assert h.has_rank(r) == (unrank_colex(r, 6, 3) in set(h.edges()))


def test_edge_list_text_exact_bytes():
    h = Hypergraph(4, 3, [(0, 1, 2), (1, 2, 3)])
    assert to_edge_list_text(h) == "p hsc 4 3\ne 0 1 2\ne 1 2 3\n"
    assert to_edge_list_text(h, comments=("hello",)) == (
        "p hsc 4 3\nc hello\ne 0 1 2\ne 1 2 3\n"
    )


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
    h = build_gamma(14)
    path = tmp_path / "g14.hsc"
    write_edge_list(h, path, comments=("a", "b c"))
    assert path.read_bytes() == to_edge_list_text(h, ("a", "b c")).encode("ascii")
    # A bad comment is refused before the file is opened.
    for comments in (("a\nb",), ("caf\u00e9",)):
        with pytest.raises(ValueError):
            write_edge_list(h, tmp_path / "bad.hsc", comments)
        assert not (tmp_path / "bad.hsc").exists()


def test_permute_count_check_is_explicit(monkeypatch):
    g = build_gamma(6)
    # Every image ranked 0: one set byte for ten edges.
    monkeypatch.setattr(
        "hsc.hypercore._image_ranks", lambda columns, images, rows: [0] * 10
    )
    with pytest.raises(RuntimeError, match="gives 1 distinct edges, not 10"):
        g.permute(Permutation.identity(6))


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
        measure("first relabeling", lambda: g.permute(Permutation(sigma)))
        measure("swap", lambda: g.permute(swap_antimorphism(102)))
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 4e6, peaks
