"""Both ends of the edge-list format: the writer's bytes against the
per-edge reference serializer and pinned digests, and the parse's run step
(`_set_runs`) against its line loop (`_set_lines`) on golden documents
(`test_properties.py` adds random single-character edits)."""

import hashlib
import random
from math import comb
from unittest import mock

import pytest

import colex_reference as ref
from hsc import hypercore
from hsc.cli import main
from hsc.construct import build_gamma
from hsc.hypercore import (
    Hypergraph,
    from_edge_list_text,
    read_edge_list,
    to_edge_list_text,
)


def writer_cases():
    """For k = 1..5 and every order k <= n <= 14: the empty, the complete
    and a random hypergraph."""
    rng = random.Random(14)
    for k in range(1, 6):
        for n in range(k, 15):
            positions = comb(n, k)
            yield ref.empty(n, k)
            yield ref.complete(n, k)
            yield Hypergraph.from_ranks(n, k, rng.sample(range(positions), positions // 3))


@pytest.mark.parametrize("span", (None, 1, 2, 5, 17))
def test_writer_matches_the_reference_serializer(monkeypatch, span):
    # Small spans split the colex blocks, and at k = 1 the vertex range.
    if span is not None:
        monkeypatch.setattr(hypercore, "_WRITE_SPAN", span)
    for h in writer_cases():
        assert to_edge_list_text(h) == ref.serialize(h), (h, span)


# sha256 of `hsc construct --n N --out FILE`, the same digests the benchmark
# checks its construct steps against.
CONSTRUCT_SHA256 = {
    6: "90a8a55f915a40020d98fa455a8642fda41a8d2cc66e911735d268e0c3f70a23",
    10: "84460a1edbc7abcae56cc62dc5acb89b27caa427173f5ed49f3c330113480d9c",
    50: "9d60243c5ab44309aa96803f8474a5844720ed9460994c63c0909efde371083b",
    102: "20df81298f24e4d31c600e30072c3e60a3c7915d7e94b1ac7ae1f0c8e0f572ac",
}


@pytest.mark.parametrize("n", sorted(CONSTRUCT_SHA256))
def test_construct_file_digests(tmp_path, capsys, n):
    path = tmp_path / f"g{n}.hsc"
    assert main(["construct", "--n", str(n), "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_SHA256[n]


G6 = to_edge_list_text(build_gamma(6))
HEADER, BODY = G6.split("\n", 1)

# (document, the line loop's message, or None where it accepts).  Each
# case is read whole and in chunks of every size in PARSE_CHUNKS.
GOLDEN = {
    # One merged label map would read this as the edges 1 2 3, 4 5 6 and
    # 0 1 2.
    "five vertices then two": (
        "p hsc 7 3\ne 1 2 3 4\ne 5 6\ne 0 1 2\n",
        "line 2: edge needs exactly 3 vertices",
    ),
    "trailing space before a newline": (
        G6.replace("e 0 3 4\n", "e 0 3 4 \n"),
        "line 5: edge needs exactly 3 vertices",
    ),
    "blank line": (
        G6.replace("e 0 3 4\n", "e 0 3 4\n\n"),
        "line 6: unrecognized line ''",
    ),
    "carriage return": (
        G6.replace("e 0 3 4\n", "e 0 3 4\r\n"),
        "line 5: expected a decimal integer, got '4\\r'",
    ),
    "CRLF": (
        G6.replace("\n", "\r\n"),
        "header uniformity: expected a decimal integer, got '3\\r'",
    ),
    "CRLF after the header": (
        HEADER + "\n" + BODY.replace("\n", "\r\n"),
        "line 2: expected a decimal integer, got '2\\r'",
    ),
    "line opening in ex": (
        G6.replace("e 0 3 4\n", "e 0 3 4\nex 1 2 4\n"),
        "line 6: unrecognized line 'ex 1 2 4'",
    ),
    "glued ex": (
        G6.replace("e 0 3 4\ne", "e 0 3 4\nex"),
        "line 6: unrecognized line 'ex 1 3 4'",
    ),
    "first two vertices out of order": (
        G6.replace("e 0 3 4\n", "e 3 0 4\n"),
        "subset (3, 0, 4) is not strictly increasing",
    ),
    "last two vertices out of order": (
        G6.replace("e 0 3 4\n", "e 0 4 3\n"),
        "subset (0, 4, 3) is not strictly increasing",
    ),
    "repeated edge": (
        G6.replace("e 0 3 4\n", "e 0 1 2\n"),
        "duplicate edge at rank 0",
    ),
    "edge out of colex order": (
        G6.replace("e 0 3 4\n", "e 0 1 3\n"),
        "line 5: edge (0, 1, 3) is out of colex order",
    ),
    "swapped lines": (
        G6.replace("e 0 2 4\ne 0 3 4\n", "e 0 3 4\ne 0 2 4\n"),
        "line 5: edge (0, 2, 4) is out of colex order",
    ),
    "swapped tops": (
        G6.replace("e 1 3 4\ne 0 1 5\n", "e 0 1 5\ne 1 3 4\n"),
        "line 7: edge (1, 3, 4) is out of colex order",
    ),
    "no final newline": (G6[:-1], None),
    "comment lines": (
        HEADER + "\nc\n" + BODY.replace("e 0 3 4\n", "e 0 3 4\nc one\nc\n") + "c z",
        None,
    ),
}

# Chunk sizes for the read: every size up to a few lines, then sizes that
# put a chunk boundary right after a newline (18 = the header and one line,
# 26 and 34 two and three lines) or right before a comment line.
PARSE_CHUNKS = (1, 2, 3, 4, 7, 8, 9, 17, 18, 19, 26, 34, 64, 1 << 14)


def read_in_chunks(tmp_path, text, size):
    path = tmp_path / "doc.hsc"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(hypercore, "_PARSE_CHUNK", size):
        return from_edge_list_text(text), read_edge_list(path)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_parse_golden_documents(tmp_path, case):
    text, message = GOLDEN[case]
    for size in PARSE_CHUNKS:
        if message is None:
            got = read_in_chunks(tmp_path, text, size)
            assert got == (build_gamma(6),) * 2, size
        else:
            with pytest.raises(ValueError) as err:
                read_in_chunks(tmp_path, text, size)
            assert str(err.value) == message, size


class LineRead(Exception):
    """Raised in place of reading a chunk line by line."""


def runs_only(text: str, size: int):
    """The hypergraph that the run step alone sets from text read in pieces
    of size, or None if the parse reads a chunk line by line or refuses the
    header."""
    pieces = (text[i : i + size] for i in range(0, len(text), size))
    with mock.patch.object(hypercore, "_set_lines", side_effect=LineRead):
        try:
            return hypercore._parse(hypercore._line_chunks(pieces))
        except (LineRead, ValueError):
            return None


def short_of_the_read_ahead(text: str) -> bool:
    """True iff the text after a valid header line, its last line counted
    with a newline, holds fewer than 2k + 2 bytes per prefix key: the parse
    then reads it line by line without building its map."""
    header, _, body = text.partition("\n")
    n, k = map(int, header.split(" ")[2:])
    keys = comb(n - 1, k - 1) if k > 1 else n
    return len(body) + (body != "" and not body.endswith("\n")) < keys * (2 * k + 2)


def test_chunks_that_end_on_a_line_boundary():
    # Each chunk holds whole lines: one, two or three edge lines of 8 bytes.
    assert G6.index("\n") == 9 and len(G6) == 10 + 10 * 8
    for size in (10, 18, 26, 34):
        assert runs_only(G6, size) == build_gamma(6)
    # A chunk that opens with a comment line.
    commented = HEADER + "\n" + BODY.replace("e 0 2 4\n", "c x\ne 0 2 4\n")
    assert commented[26:30] == "c x\n"
    assert runs_only(commented, 26) == build_gamma(6)


def test_prefix_keys_are_the_writers_prefixes():
    # The keys are the writer's line prefixes, each with its colex rank; a
    # line is a key and its top's tail " c\n".
    ranks = hypercore._prefix_ranks(7, 3)
    assert list(ranks) == list(hypercore._prefixes(6, 2, comb(6, 2)))
    assert ranks["e 0 1"] == 0 and ranks["e 4 5"] == comb(5, 2) + 4
    assert list(ranks.values()) == list(range(comb(6, 2)))
    for miss in ("e 0 6", "e 1 0", "e 01 2", "e 0 1 ", "e 0", "e 0 1 2", "0 1"):
        assert miss not in ranks
    # At k = 1 each whole line is a key.
    assert hypercore._prefix_ranks(7, 1) == {f"e {v}": v for v in range(7)}
    heads = hypercore._prefix_ranks(10, 3)
    for line in to_edge_list_text(build_gamma(10)).split("\n")[1:-1]:
        head, top = line.rsplit(" ", 1)
        assert head in heads and int(top) > int(head.rsplit(" ", 1)[1])
    assert runs_only(GOLDEN["five vertices then two"][0], 1 << 14) is None


def test_parse_builds_one_prefix_map_per_read(monkeypatch):
    built = []
    real = hypercore._prefix_ranks

    def spy(n, k):
        built.append(n)
        return real(n, k)

    monkeypatch.setattr(hypercore, "_prefix_ranks", spy)
    g6, g10 = build_gamma(6), build_gamma(10)
    for h in (g6, g10, g6, g10):
        assert from_edge_list_text(to_edge_list_text(h)) == h
    assert built == [6, 10, 6, 10]
