from itertools import islice
from math import comb

import pytest

import colex_reference as ref
from colex_reference import alternating_assignments
from hsc.cli import main
from hsc.construct import build_gamma, swap_antimorphism
from hsc.hypercore import Permutation, to_edge_list_text
from hsc.search import (
    CandidateCapExceeded,
    InfeasibleAntimorphismError,
    _involution_fixed_ksubsets,
    _least_fixed_rank,
    search_regular_sc,
    tau_orbits_on_ksubsets,
)
from hsc.verify import t_subset_regularity, verify_antimorphism

# Count of 2-subset-regular survivors among the 1024 side-swap candidates at
# order 6, frozen from the first exhaustive enumeration run.
SURVIVOR_COUNT_ORDER_6 = 8


def test_orbits_under_side_swap_order_6():
    dec = tau_orbits_on_ksubsets(6, 3, swap_antimorphism(6))
    assert dec.orbit_count == 10
    assert all(len(o) == 2 for o in dec.orbits)


def test_orbits_under_side_swap_order_10():
    dec = tau_orbits_on_ksubsets(10, 3, swap_antimorphism(10))
    assert dec.orbit_count == 60
    assert all(len(o) == 2 for o in dec.orbits)


def test_orbits_under_identity():
    dec = tau_orbits_on_ksubsets(6, 3, ref.identity(6))
    assert dec.orbit_count == comb(6, 3)
    assert all(len(o) == 1 for o in dec.orbits)


def test_orbits_partition_ranks():
    dec = tau_orbits_on_ksubsets(6, 3, swap_antimorphism(6))
    covered = sorted(r for o in dec.orbits for r in o)
    assert covered == list(range(comb(6, 3)))


def test_enumeration_count_and_balance():
    candidates = list(alternating_assignments(6, 3, swap_antimorphism(6)))
    assert len(candidates) == 1024
    assert all(h.edge_count == 10 for h in candidates)
    assert len({ref.edge_ranks(h) for h in candidates}) == 1024


def test_every_candidate_passes_antimorphism_check():
    phi = swap_antimorphism(6)
    for h in alternating_assignments(6, 3, phi):
        assert verify_antimorphism(h, phi).ok


def test_candidate_set_closed_under_complement():
    phi = swap_antimorphism(6)
    candidates = list(alternating_assignments(6, 3, phi))
    keys = {ref.edge_ranks(h) for h in candidates}
    # flipping every orbit bit complements the hypergraph, so candidate c and
    # candidate 2^10 - 1 - c are complements of each other
    for c in (0, 1, 37, 500, 1023):
        assert ref.flipped(candidates[c]) == candidates[1023 - c]
        assert ref.edge_ranks(ref.flipped(candidates[c])) in keys


def test_construction_appears_in_stream():
    g = build_gamma(6)
    assert any(h == g for h in alternating_assignments(6, 3, swap_antimorphism(6)))


def test_identity_is_infeasible():
    with pytest.raises(InfeasibleAntimorphismError):
        alternating_assignments(6, 3, ref.identity(6))
    with pytest.raises(InfeasibleAntimorphismError):
        search_regular_sc(6, 3, 2, ref.identity(6))


def test_cap_refusal_names_candidate_count():
    phi = swap_antimorphism(10)
    with pytest.raises(CandidateCapExceeded, match=r"2\^60"):
        alternating_assignments(10, 3, phi)
    with pytest.raises(CandidateCapExceeded):
        search_regular_sc(10, 3, 2, phi)


def test_truncated_enumeration():
    # The enumeration is lazy: a prefix under a large enough cap costs only
    # the candidates it takes.
    phi = swap_antimorphism(6)
    got = list(islice(alternating_assignments(6, 3, phi), 8))
    assert len(got) == 8
    full = list(alternating_assignments(6, 3, phi))
    assert len(full) == 1024
    assert got == full[:8]
    with pytest.raises(CandidateCapExceeded):
        alternating_assignments(6, 3, phi, cap=8)


def test_search_survivors_order_6():
    phi = swap_antimorphism(6)
    res = search_regular_sc(6, 3, 2, phi)
    assert res.orbit_count == 10
    assert res.candidate_total == res.examined == 1024
    assert len(res.regular) == SURVIVOR_COUNT_ORDER_6
    assert res.summary_line() == "orbits=10 candidates=1024 regular=8"
    assert all(t_subset_regularity(h, 2).valence == 2 for h in res.regular)
    assert any(h == build_gamma(6) for h in res.regular)


def test_search_is_deterministic_as_a_set():
    phi = swap_antimorphism(6)
    first = search_regular_sc(6, 3, 2, phi)
    second = search_regular_sc(6, 3, 2, phi)
    assert first.regular == second.regular
    assert {to_edge_list_text(h) for h in first.regular} == {
        to_edge_list_text(h) for h in second.regular
    }


def test_survivors_closed_under_complement():
    res = search_regular_sc(6, 3, 2, swap_antimorphism(6))
    keys = {ref.edge_ranks(h) for h in res.regular}
    assert all(ref.edge_ranks(ref.flipped(h)) in keys for h in res.regular)


def test_tau_length_mismatch():
    with pytest.raises(ValueError):
        tau_orbits_on_ksubsets(6, 3, ref.identity(5))


def test_feasible_swap_with_even_uniformity_is_rejected():
    # with k=2 the side swap fixes every pair {a, a+m}, an odd orbit
    with pytest.raises(InfeasibleAntimorphismError):
        alternating_assignments(6, 2, swap_antimorphism(6))


def test_bad_parameters_are_refused(monkeypatch):
    # t is refused before any candidate is made.
    swap = swap_antimorphism(6)
    for t in (0, 3):
        with pytest.raises(ValueError) as exc:
            search_regular_sc(6, 3, t, swap)
        assert str(exc.value) == f"need 1 <= t < k=3, got t={t}"

    # The uniformity is refused before the decomposition.
    def refuse(*args):
        raise AssertionError("decomposed")

    monkeypatch.setattr("hsc.search.tau_orbits_on_ksubsets", refuse)
    for k in (0, 7):
        with pytest.raises(ValueError) as exc:
            search_regular_sc(6, k, 2, swap)
        assert str(exc.value) == f"uniformity k={k} must satisfy 1 <= k <= n=6"
    with pytest.raises(ValueError, match="uniformity k=0"):
        alternating_assignments(6, 0, swap)


def test_involution_orbit_count_matches_the_decomposition():
    # An involution's orbits on the k-subsets are its fixed k-subsets and
    # 2-cycles; the first fixed one starts the first odd orbit.
    involutions = [swap_antimorphism(n) for n in range(6, 31, 2)]
    involutions += [
        Permutation((1, 0, 2, 3, 4, 5, 6)),
        Permutation((0, 1, 3, 2, 5, 4, 6, 9, 8, 7)),
    ]
    for tau in involutions:
        for k in range(1, 5):
            fixed = _involution_fixed_ksubsets(tau.n, k, tau)
            dec = tau_orbits_on_ksubsets(tau.n, k, tau)
            assert (comb(tau.n, k) + fixed) // 2 == dec.orbit_count
            assert fixed == sum(len(o) == 1 for o in dec.orbits)
            if fixed:
                first = next(o for o in dec.orbits if len(o) % 2)
                assert first == (_least_fixed_rank(tau.images, k),)
    assert _involution_fixed_ksubsets(6, 3, Permutation([1, 2, 0, 3, 4, 5])) is None


def test_over_cap_search_is_refused_before_the_decomposition(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("decomposed")

    monkeypatch.setattr("hsc.search.tau_orbits_on_ksubsets", refuse)
    assert main(["search", "--n", "202"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 2^676700 candidates exceed the cap of 1048576; "
        "raise the cap with --cap\n"
    )


def test_infeasible_search_is_refused_before_the_decomposition(monkeypatch, capsys):
    # comb(28, 10) = 13 123 110 subsets: decomposing them took minutes and
    # gigabytes to name the side swap's first fixed 10-subset,
    # {0, ..., 4, 14, ..., 18}.
    def refuse(*args):
        raise AssertionError("decomposed")

    monkeypatch.setattr("hsc.search.tau_orbits_on_ksubsets", refuse)
    assert main(["search", "--n", "28", "--k", "10"]) == 1
    assert capsys.readouterr() == (
        "",
        "infeasible: orbit of odd length 1 starting at rank "
        f"{ref.subset_rank([0, 1, 2, 3, 4, 14, 15, 16, 17, 18])} "
        "admits no alternating edge assignment\n",
    )
