"""Property tests over small random hypergraphs: the K4 vertex profile, the
rank/unrank bijection, the permute/complement algebra, the edge-list round
trip, a parser fuzz against the strict reference loop, single-character
edits read by the parse's run step, line-level edits of colex documents
read from a file at every chunk size, and the bytes the parse scans."""

import re
from itertools import islice
from math import comb
from types import SimpleNamespace
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

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
from test_blocked_paths import read_at_every_chunk
from test_edge_list_format import runs_only, short_of_the_read_ahead
from test_kernel_reference import line_reads  # noqa: F401


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
    """A valid document of a random hypergraph with a line per prefix key
    and one more, so that one edit cannot leave the parse short of its
    read-ahead, and one random single-character edit: half the time a
    vertex digit of an edge line replaced by a digit, which often keeps the
    line's shape but breaks the order of its vertices, else an insertion,
    deletion or replacement anywhere."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(max(k, 3), 9))
    positions = comb(n, k)
    low = min(positions, (comb(n - 1, k - 1) if k > 1 else n) + 1)
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
def test_run_step_agrees_with_the_line_loop(text, size):
    try:
        strict = ref.parse(text)
    except ValueError:
        strict = None
    runs = runs_only(text, size)
    if runs is not None:
        assert runs == strict
    else:
        # The run step leaves to the line loop only a refusal, a vertex
        # written with a leading zero, or a document short of its read-ahead.
        assert (
            strict is None
            or re.search(" 0[0-9]", text)
            or short_of_the_read_ahead(text)
        )
    with mock.patch.object(hypercore, "_PARSE_CHUNK", size):
        try:
            got = from_edge_list_text(text)
        except ValueError:
            got = None
    assert got == strict


# Edits of a colex document; each keeps or breaks the line loop's format.
RUN_EDITS = (
    "none",
    "swapped lines",
    "repeated line",
    "missing label",
    "extra label",
    "label equal to n",
    "oversized top label",
    "leading zero",
    "prefix reaching the top",
    "blank line",
    "comments between runs",
)


@st.composite
def edited_colex_documents(draw):
    """A colex document at k = 1..4, sparse to complete, with one edit
    from RUN_EDITS; the chunk sizes of READ_CHUNKS split its runs of one
    top vertex over several chunks and put edits at chunk edges."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, (40, 16, 10, 9)[k - 1]))
    positions = comb(n, k)
    keep = draw(st.sampled_from((0.2, 0.6, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    ranks = [r for r in range(positions) if rng.random() < keep]
    text = to_edge_list_text(Hypergraph.from_ranks(n, k, ranks))
    header, *lines = text.split("\n")[:-1]
    edit = draw(st.sampled_from(RUN_EDITS)) if lines else "none"
    at = draw(st.integers(0, len(lines) - 1)) if lines else 0
    words = lines[at].split(" ") if lines else []
    label = draw(st.integers(1, k))
    if edit == "swapped lines":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif edit == "repeated line":
        lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    elif edit == "missing label":
        lines[at] = " ".join(words[:label] + words[label + 1 :])
    elif edit == "extra label":
        lines[at] = " ".join(words[:label] + [str(rng.randrange(n))] + words[label:])
    elif edit == "label equal to n":
        lines[at] = " ".join(words[:label] + [str(n)] + words[label + 1 :])
    elif edit == "oversized top label":
        lines[at] = " ".join(words[:-1] + ["9" * 60])
    elif edit == "leading zero":
        lines[at] = " ".join(words[:label] + ["0" + words[label]] + words[label + 1 :])
    elif edit == "prefix reaching the top" and k > 1:
        lines[at] = " ".join(words[:-2] + [words[-1], words[-1]])
    elif edit == "blank line":
        lines.insert(at, "")
    elif edit == "comments between runs":
        tops = [line.rsplit(" ", 1)[1] for line in lines]
        bounds = [i for i in range(1, len(lines)) if tops[i] != tops[i - 1]]
        for i in reversed([0, *bounds, len(lines)]):
            lines.insert(i, rng.choice(("c", "c x", "c " + "y" * 40)))
    return "\n".join([header, *lines, ""])


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=edited_colex_documents())
def test_reader_runs_match_the_whole_document_parse(
    tmp_path, monkeypatch, line_reads, text
):
    # The same hypergraph or message at every chunk size, a prefix map
    # exactly for the documents with enough bytes for their read-ahead, and
    # the run step sets every edge of exactly the accepted ones of those
    # with no leading zero.
    expected, runs = read_at_every_chunk(
        tmp_path, monkeypatch, line_reads, text.encode("ascii")
    )
    mapped = not short_of_the_read_ahead(text)
    assert bool(line_reads.maps) == mapped
    assert runs == (expected is not None and not re.search(" 0[0-9]", text) and mapped)


class Scanned(str):
    """A chunk that records the length of every slice taken of it, and
    stays one when the parse appends its newline."""

    lengths: list = []

    def __add__(self, other):
        return Scanned(str.__add__(self, other))

    def __getitem__(self, key):
        piece = str.__getitem__(self, key)
        if isinstance(key, slice):
            Scanned.lengths.append(len(piece))
        return piece


@pytest.mark.parametrize(
    "layout", ["one line per top", "colex-first edges", "a comment every 10 lines"]
)
def test_parse_scans_each_byte_a_few_times(monkeypatch, layout):
    # One line per top vertex is the most runs a document can hold.  Each
    # run slices its top label and a window of at most twice the last run;
    # a window of the whole rest per run would slice about 22 KB a line
    # here, about 2000 times the document in all.  The run step takes every
    # line, comment lines included: none is read by the line loop.
    n = 5000
    if layout == "colex-first edges":
        edges = islice(((a, c) for c in range(n) for a in range(c)), n - 1)
    else:
        edges = ((0, c) for c in range(1, n))
    lines = [f"e {a} {c}\n" for a, c in edges]
    if layout == "a comment every 10 lines":
        lines[::10] = [f"c {i}\n{line}" for i, line in enumerate(lines[::10])]
    body = "".join(lines)
    scanned = []
    monkeypatch.setattr(Scanned, "lengths", scanned)
    monkeypatch.setattr(hypercore, "_set_lines", mock.Mock(side_effect=AssertionError))
    # The chunk with its comment lines dropped is scanned in turn.
    sub = re.sub
    scanning = SimpleNamespace(sub=lambda *args: Scanned(sub(*args)))
    monkeypatch.setattr(hypercore, "re", scanning)
    h = hypercore._parse(iter([f"p hsc {n} 2", Scanned(body[:-1])]))
    monkeypatch.undo()
    assert h == from_edge_list_text(f"p hsc {n} 2\n{body}")
    assert h.edge_count == n - 1
    assert sum(scanned) < 4 * len(body)
