from math import comb

import pytest

import colex_reference as ref
from hsc.construct import (
    AdmissibilityError,
    build_gamma,
    build_gamma_families,
    half,
    side_modulus,
    swap_antimorphism,
    vertex_label,
)
from hsc.hypercore import MAX_POSITIONS, to_edge_list_text

ADMISSIBLE_ORDERS = [6, 10, 14, 18]

# Direct evaluation of the set-builder rules at n=6 (m=3, 1/2 = 2 mod 3),
# with vertex (a, i) at index a + 3*i.
GAMMA6_EDGES = {
    (0, 1, 2),
    (0, 1, 5),
    (0, 2, 4),
    (1, 2, 3),
    (0, 3, 4),
    (1, 3, 4),
    (0, 3, 5),
    (2, 3, 5),
    (1, 4, 5),
    (2, 4, 5),
}


def test_inverse_of_two_small():
    # The inverse of 2 mod odd m is half(1, m).
    assert half(1, 3) == 2
    assert half(1, 5) == 3


def test_inverse_of_two_closed_form():
    for kp in range(1, 21):
        m = 2 * kp + 1
        inv = half(1, m)
        assert inv == kp + 1
        assert 2 * inv % m == 1


def test_inverse_of_two_rejects_even():
    with pytest.raises(ValueError):
        half(0, 4)
    with pytest.raises(ValueError):
        half(0, 1)


def test_half_known_values():
    for m in (3, 5, 7, 9):
        assert half(0, m) == 0
    assert half(4, 5) == 2
    # brute-force oracle: the unique y with 2y == x (mod m)
    for m in (3, 5, 7):
        for x in range(m):
            brute = [y for y in range(m) if 2 * y % m == x]
            assert brute == [half(x, m)]


def test_half_rejects_bad_inputs():
    with pytest.raises(ValueError):
        half(1, 4)
    with pytest.raises(ValueError):
        half(3, 3)
    with pytest.raises(ValueError):
        half(-1, 5)


def test_construction_params():
    assert side_modulus(10) == 5
    for n in (8, 2):
        with pytest.raises(AdmissibilityError) as exc:
            side_modulus(n)
        assert str(exc.value) == (
            f"inadmissible order n={n}: need n >= 6 and n % 4 == 2"
        )


def test_vertex_indexing_helpers():
    assert vertex_label(2, 3) == "2_0"
    assert vertex_label(5, 3) == "2_1"
    with pytest.raises(ValueError):
        vertex_label(6, 3)


def test_families_refused_past_the_position_bound():
    # 470 is the least admissible order with comb(n, 3) > MAX_POSITIONS; the
    # refusal must come before any family is built.
    assert comb(466, 3) <= MAX_POSITIONS < comb(470, 3)
    with pytest.raises(ValueError, match="exceed the supported bound"):
        build_gamma_families(470)


def test_gamma6_exact_edge_set():
    g = build_gamma(6)
    assert set(g.edges()) == GAMMA6_EDGES
    assert ref.has_edge(g, (0, 1, 2))


def test_gamma10_edge_count():
    g = build_gamma(10)
    assert g.edge_count == 60 == comb(10, 3) // 2


def test_build_gamma_rejects_inadmissible_orders():
    for n in (4, 5, 7, 8, 9, 12, 0, -2):
        with pytest.raises(AdmissibilityError):
            build_gamma(n)


def family_edges(fams):
    """The (side0, midpoint, off-midpoint) families' edge tuples."""
    return tuple(f.edges() for f in (fams.side0, fams.midpoint, fams.off_midpoint))


def family_sizes(fams):
    return tuple(map(len, family_edges(fams)))


def edge_counts(n):
    """Closed-form family sizes (side0, midpoint, off-midpoint)."""
    m = n // 2
    return (comb(m, 3), comb(m, 2), comb(m, 2) * (m - 1))


def test_edge_counts_closed_forms():
    assert edge_counts(6) == (1, 3, 6)
    assert edge_counts(10) == (10, 10, 40)
    for n in range(6, 51, 4):
        assert sum(edge_counts(n)) == comb(n, 3) // 2
        assert family_sizes(build_gamma_families(n)) == edge_counts(n)


def test_families_disjoint_and_sized():
    for n in ADMISSIBLE_ORDERS:
        fams = build_gamma_families(n)
        side0, midpoint, off_midpoint = family_edges(fams)
        assert tuple(map(len, (side0, midpoint, off_midpoint))) == edge_counts(n)
        all_edges = side0 + midpoint + off_midpoint
        assert len(set(all_edges)) == len(all_edges)
        # families are separated by how many side-0 vertices an edge uses
        m = fams.m
        assert all(sum(v < m for v in e) == 3 for e in side0)
        assert all(sum(v < m for v in e) == 2 for e in midpoint)
        assert all(sum(v < m for v in e) == 1 for e in off_midpoint)


def test_family_arithmetic_invariants():
    for n in ADMISSIBLE_ORDERS:
        fams = build_gamma_families(n)
        m = fams.m
        for a, b, c1 in fams.midpoint.edges():
            assert 2 * (c1 - m) % m == (a + b) % m
        for a, b1, c1 in fams.off_midpoint.edges():
            assert 2 * a % m != (b1 + c1 - 2 * m) % m


def test_swap_antimorphism_mapping():
    phi = swap_antimorphism(6)
    assert phi.images[0] == 3 and phi.images[3] == 0 and phi.images[2] == 5
    for n in ADMISSIBLE_ORDERS:
        phi = swap_antimorphism(n)
        assert phi.inverse() == phi
        assert all(phi.images[v] != v for v in range(n))


def test_swap_antimorphism_rejects_odd():
    with pytest.raises(ValueError):
        swap_antimorphism(7)
    with pytest.raises(ValueError):
        swap_antimorphism(0)


def test_self_complementarity():
    for n in ADMISSIBLE_ORDERS:
        g = build_gamma(n)
        assert ref.relabel(g, swap_antimorphism(n)) == ref.flipped(g)


def test_complement_of_gamma6():
    g = build_gamma(6)
    gc = ref.flipped(g)
    assert gc.edge_count == 10
    assert not set(g.edges()) & set(gc.edges())


def test_side0_is_complete_but_side1_is_not():
    g = build_gamma(10)
    assert ref.is_complete_on(g, range(5))
    assert not ref.is_complete_on(g, range(5, 10))


def test_build_is_deterministic():
    for n in (6, 10):
        assert to_edge_list_text(build_gamma(n)) == to_edge_list_text(build_gamma(n))


def test_midpoint_check_is_explicit(monkeypatch):
    monkeypatch.setattr("hsc.construct.half", lambda x, m: 0)
    with pytest.raises(RuntimeError, match="is an endpoint"):
        build_gamma_families(6)


def test_midpoint_check_covers_the_larger_endpoint(monkeypatch):
    # A midpoint of m - 1 lands on the larger residue of every pair (a, m - 1)
    # and on the smaller one of none.
    monkeypatch.setattr("hsc.construct.half", lambda x, m: m - 1)
    with pytest.raises(RuntimeError, match="midpoint 4 of 0 and 4 mod 5 is an endpoint"):
        build_gamma_families(10)


def test_edge_count_check_is_explicit(monkeypatch):
    import hsc.construct

    real = hsc.construct._gamma_indicator

    def short(n):
        bits = real(n)
        bits[0] = 0
        return bits

    monkeypatch.setattr("hsc.construct._gamma_indicator", short)
    with pytest.raises(RuntimeError, match="not half of comb"):
        build_gamma(6)
