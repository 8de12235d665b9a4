"""Property tests over small random hypergraphs: the K4 vertex profile, the
rank/unrank bijection, the permute/complement algebra, the edge-list round
trip, a parser fuzz against the strict reference loop and single-character
edits read on the parse's fast route."""

import re
from math import comb
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import colex_reference as ref
from colex_reference import rank_colex, relabel, unrank_colex
from hsc import hypercore
from hsc.hypercore import (
    Hypergraph,
    Permutation,
    from_edge_list_text,
    to_edge_list_text,
)
from hsc.verify import vertex_invariant_k4
from test_edge_list_format import fast_route


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
    relabeled = relabel(h, sigma)
    for v in range(h.n):
        image = sigma.images[v]
        assert vertex_invariant_k4(relabeled, image) == vertex_invariant_k4(h, v)


@settings(deadline=None)
@given(st.integers(4, 24))
def test_k4_of_complete_hypergraph(n):
    assert profile(ref.complete(n, 3)) == [comb(n - 1, 3)] * n


@settings(deadline=None)
@given(hypergraphs())
def test_k4_profile_counts_each_k4_four_times(h):
    assert sum(profile(h)) == 4 * ref.k4_count(h)


@st.composite
def uniform_hypergraphs(draw, max_n=9):
    """A k-uniform hypergraph, k = 1..4, on k..max_n vertices, one coin per
    k-subset."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, max_n))
    positions = comb(n, k)
    coins = draw(st.lists(st.booleans(), min_size=positions, max_size=positions))
    return Hypergraph.from_ranks(n, k, [r for r, c in enumerate(coins) if c])


@st.composite
def ranked_positions(draw):
    n = draw(st.integers(0, 40))
    k = draw(st.integers(0, min(n, 6)))
    return n, k, draw(st.integers(0, comb(n, k) - 1))


@settings(deadline=None)
@given(ranked_positions())
def test_rank_and_unrank_are_inverse(case):
    n, k, r = case
    s = unrank_colex(r, n, k)
    assert list(s) == sorted(set(s)) and all(0 <= v < n for v in s)
    assert rank_colex(s, n, k) == r


@st.composite
def vertex_subsets(draw):
    n = draw(st.integers(1, 40))
    return n, tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=6))))


@settings(deadline=None)
@given(vertex_subsets())
def test_unrank_inverts_rank(case):
    n, s = case
    assert unrank_colex(rank_colex(s, n, len(s)), n, len(s)) == s


@st.composite
def hypergraphs_with_two_permutations(draw):
    h = draw(uniform_hypergraphs())
    sigma = Permutation(draw(st.permutations(range(h.n))))
    pi = Permutation(draw(st.permutations(range(h.n))))
    return h, sigma, pi


@settings(deadline=None)
@given(hypergraphs_with_two_permutations())
def test_permute_and_complement_algebra(case):
    h, sigma, pi = case
    assert relabel(relabel(h, sigma), pi) == relabel(h, ref.compose(pi, sigma))
    assert relabel(relabel(h, sigma), sigma.inverse()) == h
    assert relabel(ref.flipped(h), sigma) == ref.flipped(relabel(h, sigma))
    assert ref.flipped(ref.flipped(h)) == h
    assert relabel(h, sigma).edge_count == h.edge_count


@settings(deadline=None)
@given(uniform_hypergraphs(), st.lists(st.text("ab c", max_size=4), max_size=3))
def test_edge_list_round_trip(h, comments):
    text = to_edge_list_text(h)
    assert text == ref.serialize(h)
    assert from_edge_list_text(text) == h
    # The parser skips comment lines after the header.
    header, rest = text.split("\n", 1)
    commented = header + "\n" + "".join(f"c {c}\n" for c in comments) + rest
    assert from_edge_list_text(commented) == h


FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
# Edits that take a token or a separator off the documented format, or
# (leading zero, vertex n) keep its shape but change what the strict loop
# says about it.
TOKEN_EDITS = (
    lambda tok, n: "0" + tok,
    lambda tok, n: "+" + tok,
    lambda tok, n: tok.translate(FULL_WIDTH),
    lambda tok, n: str(n),
    lambda tok, n: tok + "\t",
    lambda tok, n: tok + " ",
    lambda tok, n: " " + tok,
)


@st.composite
def mutated_documents(draw):
    h = draw(uniform_hypergraphs())
    lines = to_edge_list_text(h).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row].split(" ")
        col = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(TOKEN_EDITS))
        tokens[col] = edit(tokens[col], h.n)
        lines[row] = " ".join(tokens)
    return "\n".join(lines)


@settings(deadline=None)
@given(mutated_documents())
def test_parser_fuzz_matches_strict_loop(text):
    try:
        expected = ref.parse(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_edge_list_text(text)
        assert str(got.value) == str(exc)
    else:
        assert from_edge_list_text(text) == expected


# Characters an edit inserts or puts in place of another: the format's own,
# and a few it never allows.
EDIT_CHARACTERS = "0123456789 \nepc\r\tx"


@st.composite
def edited_documents(draw):
    """A valid document of a random hypergraph with enough edge lines that
    one edit cannot leave the fast route short of n vertex tokens, and one
    random single-character edit: half the time a vertex digit of an edge
    line replaced by a digit, which often keeps the line's shape but breaks
    the order of its vertices, else an insertion, deletion or replacement
    anywhere."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(max(k, 3), 9))
    positions = comb(n, k)
    low = min(positions, -(-n // k) + 2)
    ranks = draw(st.sets(st.integers(0, positions - 1), min_size=low))
    text = to_edge_list_text(Hypergraph.from_ranks(n, k, ranks))
    if draw(st.booleans()):
        body = text.index("\n")
        at = draw(st.sampled_from([i for i in range(body, len(text)) if text[i].isdigit()]))
        return text[:at] + draw(st.sampled_from("0123456789")) + text[at + 1 :]
    at = draw(st.integers(0, len(text)))
    op = draw(st.sampled_from(("insert", "delete", "replace")))
    char = draw(st.sampled_from(EDIT_CHARACTERS))
    if op == "insert":
        return text[:at] + char + text[at:]
    return text[:at] + (char if op == "replace" else "") + text[at + 1 :]


@settings(deadline=None, max_examples=300)
@given(edited_documents(), st.integers(1, 40))
def test_fast_route_agrees_with_the_strict_loop(text, size):
    try:
        strict = ref.parse(text)
    except ValueError:
        strict = None
    fast = fast_route(text, size)
    if fast is not None:
        assert fast == strict
    else:
        # The fast route leaves to the strict loop only a refusal, a vertex
        # written with a leading zero, or (an edit of the header's order)
        # fewer lines than n / k, which a final newline does not open.
        lines = text.count("\n") - text.endswith("\n")
        assert (
            strict is None
            or re.search(" 0[0-9]", text)
            or strict.k * lines < strict.n
        )
    with mock.patch.object(hypercore, "_PARSE_CHUNK", size):
        try:
            got = from_edge_list_text(text)
        except ValueError:
            got = None
    assert got == strict
