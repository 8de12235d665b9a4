"""Differential tests of the bounded-memory paths against the whole-edge-set
versions in `colex_reference`: the construction built straight into the
indicator, the writer that prints colex blocks, the reader that parses the
open file in chunks and the antimorphism check that pulls the link rows
through tau one chunk at a time, against the int masks relabeled through
byte tables.  A spy checks that `construct` and `verify` never
replay the edges' vertex columns."""

import io
import os
import random
import threading
import tracemalloc
from itertools import chain
from math import comb

import pytest

import colex_reference as ref
from hsc import hypercore, verify
from hsc.cli import main
from hsc.construct import build_gamma, swap_antimorphism
from hsc.hypercore import Hypergraph, Permutation, read_edge_list, to_edge_list_text
from hsc.verify import verify_antimorphism
from test_kernel_reference import (  # noqa: F401
    BAD_LINES,
    exchanged_hypergraphs,
    line_reads,
    random_hypergraph,
    random_permutation,
    sample_hypergraphs,
    taken_by_runs,
)

# Every admissible order up to 150, then two larger ones: the family-column
# reference takes about a second at n = 302 alone, and 15 s over every
# admissible order up to 302.
GAMMA_ORDERS = (*range(6, 151, 4), 202, 302)


def test_indicator_matches_the_family_columns():
    for n in GAMMA_ORDERS:
        expected = ref.gamma_family_columns(n).to_hypergraph()
        assert build_gamma(n).indicator == expected.indicator, n


def one_edge_hypergraphs():
    """For k = 1..4, hypergraphs whose one edge is the colex-first, a
    middle or the colex-last k-subset."""
    for k, n in ((1, 7), (2, 8), (3, 9), (4, 10)):
        for r in (0, comb(n, k) // 2, comb(n, k) - 1):
            yield Hypergraph.from_ranks(n, k, [r])


def writer_shapes():
    return chain(sample_hypergraphs(), one_edge_hypergraphs(), [build_gamma(14)])


def test_writer_matches_the_column_serializer():
    ks = set()
    for h in writer_shapes():
        ks.add(h.k)
        assert to_edge_list_text(h) == ref.serialize_by_columns(h)
    assert ks == {1, 2, 3, 4}


@pytest.mark.parametrize("span", (1, 2, 3, 7, 64))
def test_writer_pieces_at_every_span(monkeypatch, span):
    expected = [ref.serialize_by_columns(h) for h in writer_shapes()]
    monkeypatch.setattr(hypercore, "_WRITE_SPAN", span)
    assert [to_edge_list_text(h) for h in writer_shapes()] == expected


def test_writer_cost_follows_edges_at_k1():
    # One edge among 4e6 positions: no label per vertex, no piece per empty
    # span of the indicator.
    h = Hypergraph.from_ranks(4_000_000, 1, [1_234_567])
    tracemalloc.start()
    try:
        text = to_edge_list_text(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "p hsc 4000000 1\ne 1234567\n"
    assert peak < 1e6


def test_writer_cost_follows_edges_at_k3():
    # At n = 466 every prefix would take about 7.2 MB.  With no edge none is
    # joined, and with edges only up to top vertex 20 only the 190 with a
    # top below 20.  At k = 5 the levels below the last are listed, so they
    # too stop at top vertex 20: whole, they would peak at about 2.4 MB.
    empty = Hypergraph(466, 3, [])
    sparse = Hypergraph(466, 3, [(0, 1, 2), (3, 7, 20)])
    sparse5 = Hypergraph(60, 5, [(0, 1, 2, 3, 4), (16, 17, 18, 19, 20)])
    texts, peaks = [], []
    for h in (empty, sparse, sparse5):
        tracemalloc.start()
        try:
            texts.append(to_edge_list_text(h))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert texts == [
        "p hsc 466 3\n",
        "p hsc 466 3\ne 0 1 2\ne 3 7 20\n",
        "p hsc 60 5\ne 0 1 2 3 4\ne 16 17 18 19 20\n",
    ]
    assert max(peaks) < 1e6, peaks


def test_construct_stdout_streams_the_file_bytes(tmp_path, capsys):
    path = tmp_path / "g50.hsc"
    assert main(["construct", "--n", "50", "--out", str(path)]) == 0
    summary = capsys.readouterr().out
    assert main(["construct", "--n", "50"]) == 0
    out, err = capsys.readouterr()
    assert out.encode("ascii") == path.read_bytes()
    assert err == summary == "edges=9800 valence=24\n"


def test_construct_and_verify_never_replay_the_columns(tmp_path, monkeypatch, capsys):
    def spy(self):
        raise AssertionError("Hypergraph.edges called")

    monkeypatch.setattr(Hypergraph, "edges", spy)
    path = tmp_path / "g50.hsc"
    assert main(["construct", "--n", "50", "--out", str(path)]) == 0
    assert main(["construct", "--n", "50"]) == 0
    assert main(["verify", "--in", str(path)]) == 0
    assert "result=pass" in capsys.readouterr().out


# Chunk sizes for the reader, from one byte per read up: lines of the
# order-10 construction take 8 to 10 bytes.
READ_CHUNKS = (1, 2, 3, 5, 8, 9, 13, 16, 31, 64)


def read_at_every_chunk(tmp_path, monkeypatch, line_reads, data: bytes):
    """read_edge_list at every chunk size in READ_CHUNKS against the parse
    of the whole document: the same hypergraph, or the same message, and
    the reads that `taken_by_runs` allows.  Returns the hypergraph (None on
    an error) and whether the run step set every edge, the same at every
    size."""
    path = tmp_path / "doc.hsc"
    path.write_bytes(data)
    try:
        expected, message = ref.read_whole_document(path), None
    except ValueError as exc:
        expected, message = None, str(exc)
    runs = []
    for size in READ_CHUNKS:
        monkeypatch.setattr(hypercore, "_PARSE_CHUNK", size)
        line_reads.lines.clear()
        line_reads.maps.clear()
        if expected is None:
            with pytest.raises(ValueError) as got:
                read_edge_list(path)
            assert str(got.value) == message
        else:
            assert read_edge_list(path) == expected
        runs.append(taken_by_runs(line_reads, message))
    assert len(set(runs)) == 1
    return expected, runs[0]


def test_reader_matches_the_whole_document_parse(tmp_path, monkeypatch, line_reads):
    g = build_gamma(10)
    text = to_edge_list_text(g)

    def read(doc):
        return read_at_every_chunk(tmp_path, monkeypatch, line_reads, doc.encode())

    assert read(text) == (g, True)
    # No final newline.
    assert read(text[:-1]) == (g, True)
    lines = text.split("\n")
    # Comment lines everywhere, one longer than the largest chunk.
    long = "c " + "y" * 100
    commented = [lines[0], "c", long] + [
        f"{line}\n{('c', 'c x', long)[i % 3]}" for i, line in enumerate(lines[1:-1])
    ]
    assert read("\n".join(commented) + "\n") == (g, True)
    assert read("p hsc 3 3\n" + "c\n" * 30 + "e 0 1 2\n" + "c z\n" * 30) == (
        ref.complete(3, 3),
        True,
    )
    # Line endings, white space, a blank line, a repeated edge: the line
    # loop's messages, with their line numbers.
    head, body = text.split("\n", 1)
    for bad in (
        text.replace("\n", "\r\n"),
        head + "\n" + body.replace("\n", "\r\n"),
        text[:-1] + "\r\n",
        text.replace("e 0 1 2\n", "e 0\t1 2\n"),
        text.replace("e 0 1 2\n", "e 0  1 2\n"),
        text.replace("e 0 1 2\n", "e 0 1 2 \n"),
        text.replace("e 0 1 2\n", "e 0 1 " + "9" * 60 + "\n"),
        text + "\n",
        text + lines[5] + "\n",
        text[:-1] + "\n" + lines[30],
    ):
        assert read(bad) == (None, False)
    # Short documents, bad headers and an order read line by line with no
    # prefix map (fewer than 2k + 2 bytes per prefix key).
    sparse = Hypergraph.from_ranks(100, 1, [5, 7])
    for doc in (
        "",
        "\n",
        "p hsc 10 3",
        "p hsc 10 3\n",
        "p hsc 10 3\nc\n",
        "q hsc 10 3\ne 0 1 2\n",
        "p hsc 10 x\n",
        "p hsc 100 1\ne 5\ne 7\n",
    ):
        result, runs = read(doc)
        assert not runs and not line_reads.maps
        assert result in (None, ref.empty(10, 3), sparse)


def test_a_wide_header_over_comments_builds_no_prefix_map(tmp_path, monkeypatch):
    # The map would hold comb(21, 10) = 352 716 prefixes of 10 labels each,
    # about 110 MB, against 100 KB of comment lines.  No map is built: the
    # line loop reads the empty hypergraph.
    path = tmp_path / "wide.hsc"
    path.write_text("p hsc 22 11\n" + "c\n" * 50000)

    def built(n, k):
        raise AssertionError(f"prefix map built for ({n}, {k})")

    monkeypatch.setattr(hypercore, "_prefix_ranks", built)
    tracemalloc.start()
    try:
        h = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == Hypergraph(22, 11)
    assert peak < 4 << 20


def test_a_refused_document_is_read_in_bounded_memory(tmp_path):
    # The 107 910 edge lines of the order-110 construction, the last one
    # repeated: the parse holds the 215 820-byte indicator, its prefix map
    # and one chunk, not lists of the lines and edges (28 MB when it did).
    text = to_edge_list_text(build_gamma(110))
    last = text[text.rindex("e", 0, len(text) - 1) :]
    path = tmp_path / "repeated.hsc"
    path.write_text(text + last)
    rank = ref.subset_rank(map(int, last.split()[1:]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^duplicate edge at rank {rank}$"):
            read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_reader_rejects_with_the_whole_document_message(
    tmp_path, monkeypatch, line_reads, case
):
    old, new = BAD_LINES[case]
    text = to_edge_list_text(build_gamma(6))
    doc = text.replace(f"\n{old}\n", f"\n{new}\n", 1).encode("utf-8")
    assert read_at_every_chunk(tmp_path, monkeypatch, line_reads, doc) == (None, False)


def test_reader_reports_a_non_ascii_byte_at_its_offset(
    tmp_path, monkeypatch, line_reads
):
    text = to_edge_list_text(build_gamma(10)).encode("ascii")
    # The byte in the header, in a comment line and in two edge lines.
    start = text.index(b"e 0 1 2")
    docs = [(start + 5, text[:start] + b"c caf\xe9\n" + text[start:])]
    for at in (3, len(text) // 2, len(text) - 2):
        docs.append((at, text[:at] + b"\xe9" + text[at:]))
    for at, doc in docs:
        result = read_at_every_chunk(tmp_path, monkeypatch, line_reads, doc)
        assert result == (None, False)
        with pytest.raises(UnicodeDecodeError, match=f"position {at}:"):
            read_edge_list(tmp_path / "doc.hsc")


def test_a_file_is_read_once(tmp_path, monkeypatch):
    # Each byte of an accepted or a refused file is taken from the open file
    # once: a refusal reads on from its fault only to look for a non-ASCII
    # byte, and a non-ASCII byte ends the reads.  A fast pass, an ASCII scan
    # and a strict pass took three times a refused file's size.
    taken = []

    class Counted(io.BufferedReader):
        def read(self, size=-1):
            data = super().read(size)
            taken.append(len(data))
            return data

    def counted_open(path, mode):
        return Counted(io.FileIO(path, mode))

    monkeypatch.setattr(hypercore, "open", counted_open, raising=False)
    text = to_edge_list_text(build_gamma(50))
    lines = text.split("\n")
    path = tmp_path / "doc.hsc"
    commented = text.replace("e 0 1 2\n", "e 0 1 2\nc caf\xe9\n")
    for doc, refusal in (
        (text, None),
        (text + lines[-2] + "\n", "duplicate edge at rank"),
        ("\n".join(lines[:99] + ["e 0 1"] + lines[100:]), "line 100: edge needs"),
        (commented, f"position {commented.index(chr(0xE9))}:"),
        (text[:-9] + "\xe9" + text[-9:], f"position {len(text) - 9}:"),
    ):
        path.write_bytes(doc.encode("latin-1"))
        taken.clear()
        if refusal is None:
            assert read_edge_list(path) == build_gamma(50)
        else:
            with pytest.raises(ValueError, match=refusal):
                read_edge_list(path)
        assert sum(taken) == len(doc) if doc.isascii() else sum(taken) <= len(doc)


def test_reader_takes_a_pipe_like_a_file(tmp_path):
    text = to_edge_list_text(build_gamma(10))
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    for doc in (text, text.replace("e 0 1 2\n", "e 0 1\n")):
        writer = threading.Thread(target=pipe.write_text, args=(doc,))
        writer.start()
        try:
            got = read_edge_list(pipe)
        except ValueError as exc:
            got = str(exc)
        writer.join()
        try:
            expected = ref.parse(doc)
        except ValueError as exc:
            expected = str(exc)
        assert got == expected
    assert expected == "line 2: edge needs exactly 3 vertices"


def test_blocked_link_check_matches_the_whole_array():
    rng = random.Random(31)
    failures = 0
    for h, tau in exchanged_hypergraphs():
        check = verify_antimorphism(h, tau)
        assert check.ok and check == ref.antimorphism_by_link_rows(h, tau)
        ranks = list(ref.edge_ranks(h))
        non_edges = [r for r in range(h.positions) if not h.indicator[r]]
        for _ in range(3):
            ranks[rng.randrange(len(ranks))] = rng.choice(non_edges)
            corrupted = Hypergraph.from_ranks(h.n, h.k, set(ranks))
            check = verify_antimorphism(corrupted, tau)
            assert check == ref.antimorphism_by_link_rows(corrupted, tau)
            failures += not check.ok
    assert failures >= 30
    for h in sample_hypergraphs():
        for tau in (ref.identity(h.n), random_permutation(rng, h.n)):
            assert verify_antimorphism(h, tau) == ref.antimorphism_by_link_rows(h, tau)
    g = build_gamma(50)
    swap = swap_antimorphism(50)
    assert verify_antimorphism(g, swap) == ref.antimorphism_by_link_rows(g, swap)
    ranks = list(ref.edge_ranks(g))
    ranks[-1] = next(r for r in range(g.positions) if not g.indicator[r])
    bad = Hypergraph.from_ranks(50, 3, ranks)
    assert verify_antimorphism(bad, swap) == ref.antimorphism_by_link_rows(bad, swap)


def run_permutation(rng, n, runs):
    """A permutation of [0, n) that cuts it at random into `runs` runs of
    consecutive vertices and maps them, in a shuffled order, onto
    consecutive runs (1 run is the identity)."""
    cuts = sorted(rng.sample(range(1, n), runs - 1))
    pieces = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    rng.shuffle(pieces)
    return Permutation(chain.from_iterable(pieces))


def flipped_at(h, r):
    """h with the k-subset of colex rank r flipped."""
    bits = bytearray(h.indicator)
    bits[r] ^= 1
    return Hypergraph._from_indicator(h.n, h.k, bits, bits.count(1))


def test_chunked_pull_matches_the_relabeled_masks(monkeypatch):
    # The chunked pull of link-row bytes against the int masks relabeled
    # through byte tables: every order up to 70, those not a multiple of 8
    # among them, at k = 1..3 and at k = 4 up to 30 and at 45 (the reference
    # takes 0.7 s at (70, 4)), under permutations of 1 to n runs.
    rng = random.Random(26)
    checked = passed = 0

    def same(h, tau):
        nonlocal checked, passed
        check = verify_antimorphism(h, tau)
        assert check == ref.antimorphism_by_link_rows(h, tau), (h.n, h.k, tau)
        checked += 1
        passed += check.ok

    for n in range(1, 71):
        most = 4 if n <= 30 or n == 45 else 3
        for k in range(1, min(n, most) + 1):
            h = random_hypergraph(rng, n, k)
            same(h, run_permutation(rng, n, rng.randint(1, n)))
            same(flipped_at(h, rng.randrange(h.positions)), random_permutation(rng, n))
    # comb(24, 2) = 276 and comb(60, 2) = 1770 rows cross the 256-row chunk
    # boundary.
    for n in (24, 60):
        h = random_hypergraph(rng, n, 3)
        same(h, random_permutation(rng, n))
        same(h, run_permutation(rng, n, 2))
    for n in (26, 62, 102):
        g = build_gamma(n)
        swap = swap_antimorphism(n)
        sigma = random_permutation(rng, n)
        relabeled = ref.relabel(g, sigma)
        conjugate = ref.compose(ref.compose(sigma, swap), sigma.inverse())
        same(g, swap)
        same(relabeled, conjugate)
        for r in (0, g.positions // 2, g.positions - 1):
            same(flipped_at(g, r), swap)
            same(flipped_at(relabeled, r), conjugate)
    # One transposition away from the swap at n = 102.
    images = list(swap_antimorphism(102).images)
    images[3], images[70] = images[70], images[3]
    same(build_gamma(102), Permutation(images))
    # The identity fails on every row, so every chunk differs whole and
    # its rows after the first are skipped as lex-after the witness.
    for n in (62, 102):
        same(build_gamma(n), ref.identity(n))
    # Chunks of 1, 2 and 7 rows on the exchanged hypergraphs and their
    # corruptions: chunks that pass come before and after those that fail.
    for rows in (1, 2, 7):
        monkeypatch.setattr(verify, "_CHUNK_ROWS", rows)
        for h, tau in exchanged_hypergraphs():
            same(h, tau)
            same(flipped_at(h, rng.randrange(h.positions)), tau)
        same(build_gamma(26), swap_antimorphism(26))
        same(flipped_at(build_gamma(26), 1000), swap_antimorphism(26))
    assert passed >= 30 and checked - passed >= 300, (checked, passed)
