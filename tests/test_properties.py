"""Property tests of the K4 vertex profile over small random 3-uniform
hypergraphs."""

from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import colex_reference as ref
from hsc.hypercore import Hypergraph, Permutation
from hsc.verify import vertex_invariant_k4


@st.composite
def hypergraphs(draw, max_n=9):
    """A 3-uniform hypergraph on 4..max_n vertices with any edge set; one
    coin per triple, so dense ones with many K4s are common."""
    n = draw(st.integers(4, max_n))
    positions = comb(n, 3)
    coins = draw(st.lists(st.booleans(), min_size=positions, max_size=positions))
    return Hypergraph.from_ranks(n, 3, [r for r, c in enumerate(coins) if c])


@st.composite
def relabelings(draw):
    h = draw(hypergraphs())
    return h, Permutation(draw(st.permutations(range(h.n))))


def profile(h):
    return [vertex_invariant_k4(h, v) for v in range(h.n)]


@settings(deadline=None)
@given(relabelings())
def test_k4_is_invariant_under_relabeling(case):
    h, sigma = case
    relabeled = h.permute(sigma)
    for v in range(h.n):
        assert vertex_invariant_k4(relabeled, sigma(v)) == vertex_invariant_k4(h, v)


@settings(deadline=None)
@given(st.integers(4, 24))
def test_k4_of_complete_hypergraph(n):
    assert profile(Hypergraph.complete(n, 3)) == [comb(n - 1, 3)] * n


@settings(deadline=None)
@given(hypergraphs())
def test_k4_profile_counts_each_k4_four_times(h):
    assert sum(profile(h)) == 4 * ref.k4_count(h)
