"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest -s` or `-rA` to see them) and holding the
stated runtime bound.  All expected values are exact integers."""

import itertools
import time
from math import comb

import colex_reference as ref
from colex_reference import unrank_colex
from hsc.construct import build_gamma, build_gamma_families, swap_antimorphism
from hsc.hypercore import (
    Permutation,
    from_edge_list_text,
    read_edge_list,
    to_edge_list_text,
    write_edge_list,
)
from hsc.parity import admissible, binom_parity, residue_classes
from hsc.search import search_regular_sc, tau_orbits_on_ksubsets
from hsc.verify import (
    _k4_profile,
    automorphism_vertex_orbits,
    euler_characteristic_triangulation,
    pair_case_breakdown,
    t_subset_regularity,
    verify_antimorphism,
    vertex_invariant_k4,
)

SWEEP_ORDERS = list(range(6, 51, 4))

# Frozen from the first exhaustive enumeration run at order 6 (not a
# published number): regular survivors among the 1024 side-swap candidates.
SURVIVOR_COUNT_ORDER_6 = 8


def _finish(name, start, ok, detail=""):
    elapsed = time.perf_counter() - start
    tail = f" {detail}" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s){tail}")
    return elapsed


def test_criterion_1_construction_sweep():
    start = time.perf_counter()
    problems = []
    for n in SWEEP_ORDERS:
        g = build_gamma(n)
        if 2 * g.edge_count != comb(n, 3):
            problems.append(f"n={n}: edge count {g.edge_count}")
        rep = t_subset_regularity(g, 2)
        if rep.valence != (n - 2) // 2:
            problems.append(f"n={n}: valence {rep.valence}")
        if not verify_antimorphism(g, swap_antimorphism(n)).ok:
            problems.append(f"n={n}: side swap is not an antimorphism")
    ok = not problems
    elapsed = _finish("criterion 1 (construction sweep 6..50)", start, ok)
    assert ok, problems
    assert elapsed < 10.0


def test_criterion_2_pair_case_analysis():
    start = time.perf_counter()
    problems = []
    for n in SWEEP_ORDERS:
        cases = pair_case_breakdown(build_gamma_families(n))
        if cases != ref.pair_case_table(n // 2):
            problems.append(f"n={n}: pair cases {cases}")
    ok = not problems
    _finish("criterion 2 (pair case analysis 6..50)", start, ok)
    assert ok, problems


def test_criterion_3_admissibility_and_residues():
    start = time.perf_counter()
    congruence_ok = all(
        admissible(n, 3, 2).admissible == (n % 4 == 2) for n in range(4, 1025)
    )
    residues_ok = (
        residue_classes(2, 1, 4) == {1}
        and residue_classes(3, 1, 4) == {1, 2}
        and residue_classes(3, 2, 4) == {2}
    )
    ok = congruence_ok and residues_ok
    _finish("criterion 3 (admissibility 4..1024 and residue classes)", start, ok)
    assert congruence_ok
    assert residues_ok


def test_criterion_4_order_6_invariants():
    start = time.perf_counter()
    g = build_gamma(6)
    valence_ok = t_subset_regularity(g, 2).valence == 2
    euler_ok = euler_characteristic_triangulation(g) == 1

    # exhaustive check over all 720 permutations of the vertex set
    autos = [
        Permutation(images)
        for images in itertools.permutations(range(6))
        if ref.relabel(g, Permutation(images)) == g
    ]
    covered = set()
    orbit_count = 0
    for v in range(6):
        if v in covered:
            continue
        orbit_count += 1
        covered.update(p.images[v] for p in autos)
    transitive_ok = orbit_count == 1
    cross_check_ok = automorphism_vertex_orbits(g) == ((0, 1, 2, 3, 4, 5),)

    ok = valence_ok and euler_ok and transitive_ok and cross_check_ok
    elapsed = _finish(
        "criterion 4 (order-6 valence, Euler characteristic, vertex orbit)",
        start,
        ok,
        f"automorphisms={len(autos)}",
    )
    assert valence_ok and euler_ok and transitive_ok and cross_check_ok
    assert elapsed < 1.0


def test_criterion_5_order_10_not_vertex_transitive():
    start = time.perf_counter()
    g = build_gamma(10)
    values = [vertex_invariant_k4(g, v) for v in range(10)]
    distinct = len(set(values))
    side_split = set(values[:5]) != set(values[5:])
    ok = distinct >= 2 and side_split
    elapsed = _finish(
        "criterion 5 (order-10 K4 invariant separates vertices)",
        start,
        ok,
        f"values={values}",
    )
    assert ok, values
    assert elapsed < 5.0


def test_criterion_6_search_oracle():
    start = time.perf_counter()
    phi = swap_antimorphism(6)
    dec = tau_orbits_on_ksubsets(6, 3, phi)
    orbits_ok = dec.orbit_count == 10

    res = search_regular_sc(6, 3, 2, phi)
    count_ok = res.candidate_total == 1024 and res.examined == 1024

    all_anti_ok = all(
        verify_antimorphism(h, phi).ok for h in ref.alternating_assignments(6, 3, phi)
    )
    gamma_found = any(h == build_gamma(6) for h in res.regular)
    survivors_ok = len(res.regular) == SURVIVOR_COUNT_ORDER_6 and res.regular

    ok = orbits_ok and count_ok and all_anti_ok and gamma_found and bool(survivors_ok)
    elapsed = _finish(
        "criterion 6 (order-6 search oracle)", start, ok, res.summary_line()
    )
    assert orbits_ok and count_ok and all_anti_ok and gamma_found
    assert len(res.regular) == SURVIVOR_COUNT_ORDER_6
    assert elapsed < 5.0


def test_criterion_7_property_suite():
    start = time.perf_counter()
    problems = []

    # complement involution and complement valence relation
    for n in (6, 10):
        g = build_gamma(n)
        if ref.flipped(ref.flipped(g)) != g:
            problems.append(f"n={n}: complement is not an involution")
        lam = t_subset_regularity(g, 2).valence
        lam_c = t_subset_regularity(ref.flipped(g), 2).valence
        if lam + lam_c != comb(n - 2, 1):
            problems.append(f"n={n}: valences {lam}+{lam_c}")

    # double counting identity on regular instances
    for h, t in [
        (build_gamma(6), 2),
        (build_gamma(6), 1),
        (build_gamma(10), 2),
        (ref.complete(6, 3), 2),
    ]:
        rep = t_subset_regularity(h, t)
        if rep.valence * comb(h.n, t) != h.edge_count * comb(h.k, t):
            problems.append(f"double counting fails for {h!r} t={t}")

    # digit-test parity against exact binomials
    for a in range(65):
        for b in range(a + 1):
            if binom_parity(a, b) != comb(a, b) % 2:
                problems.append(f"parity mismatch at ({a},{b})")

    # colex rank/unrank bijectivity
    for n in range(1, 13):
        for k in range(1, min(n, 4) + 1):
            for r in range(comb(n, k)):
                if ref.rank_colex(unrank_colex(r, n, k), n, k) != r:
                    problems.append(f"rank/unrank mismatch at r={r}, n={n}, k={k}")

    ok = not problems
    _finish("criterion 7 (property suite)", start, ok)
    assert ok, problems[:5]


def test_criterion_8_serialization_round_trip(tmp_path):
    start = time.perf_counter()
    problems = []
    for n in SWEEP_ORDERS:
        g = build_gamma(n)
        text = to_edge_list_text(g)
        if to_edge_list_text(build_gamma(n)) != text:
            problems.append(f"n={n}: text not byte-stable")
        if from_edge_list_text(text) != g:
            problems.append(f"n={n}: in-memory round trip lost information")
        path = tmp_path / f"g{n}.hsc"
        write_edge_list(g, path)
        again = read_edge_list(path)
        if again != g or to_edge_list_text(again) != text:
            problems.append(f"n={n}: file round trip not lossless")
        if not verify_antimorphism(again, swap_antimorphism(n)).ok:
            problems.append(f"n={n}: reread instance fails verification")
    ok = not problems
    _finish("criterion 8 (serialization round trip)", start, ok)
    assert ok, problems


def test_criterion_9_k4_closed_form():
    start = time.perf_counter()
    problems = []
    for n in SWEEP_ORDERS:
        m = n // 2
        profile = _k4_profile(build_gamma(n))
        if profile != (comb(m - 1, 3),) * m + (0,) * m:
            problems.append(f"n={n}: K4 profile {profile}")
    ok = not problems
    _finish("criterion 9 (K4 closed form 6..50)", start, ok)
    assert ok, problems
