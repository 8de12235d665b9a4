"""A fuzz of the `hsc` command line in this process: argv for all six
subcommands with small ints, and edge-list documents under 1 KB passed to
`verify` and `invariants`.  Every call exits 0, 1 or 2 with no exception
escaping, within a wall budget and a tracemalloc budget."""

import contextlib
import io
import tempfile
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from hsc import cli, colex, construct, hypercore, parity, search, verify
from hsc.construct import build_gamma
from hsc.hypercore import Hypergraph, to_edge_list_text

SUBCOMMANDS = ("construct", "verify", "invariants", "parity", "residues", "search")
WALL_BUDGET_S = 2.0
PEAK_BUDGET_BYTES = 32 << 20

# Headers that the parse and CLI tests refuse, each with its shape bound or
# format fault; the long edge lines some of them carry there are left out.
REFUSED_HEADERS = (
    "p hsc 470 3",
    "p hsc 1000 4",
    "p hsc 4000000 2000000",
    "p hsc 1002 1001",
    "p hsc 100000 99999",
    f"p hsc {hypercore.MAX_POSITIONS} 2",
    "p hsc 4 0",
    "p hsc 3 5",
    "p hsc 0 1",
    "p hsc 6 3\r",
    "q hsc 10 3",
    "p hsc 10 x",
)

# Characters an edit puts in place of one of a document or permutation
# file: the formats' own, a few they never allow and a non-ASCII one.
EDIT_CHARACTERS = "0123456789 \nepc\r\tx\x1c\xe9"

# Small ints for the options, negative ones included: argparse refuses a
# negative --budget or --cap.  Orders stay at most 30: past them, `verify`
# at a high k and a small n - k breaks the wall budget (3.1 s on one edge
# of `p hsc 66 64`).
ORDERS = st.integers(-2, 30)
SIZES = st.integers(-1, 30)
BUDGETS = st.integers(-1, 10**4)
MODULI = st.integers(-1, 64)
CAPS = st.integers(-1, 1 << 20)


@st.composite
def edited(draw, text: str) -> str:
    """text, half the time with one character replaced by an edit."""
    if not text or draw(st.booleans()):
        return text
    at = draw(st.integers(0, len(text) - 1))
    return text[:at] + draw(st.sampled_from(EDIT_CHARACTERS)) + text[at + 1 :]


@st.composite
def documents(draw) -> str:
    """An edge-list document under 1 KB: a refused header over a short
    body, or the header of a shape with n <= 30 and comb(n, k) <= 4096 over
    the lines of a construction of order 6 or 10 or of a random edge set,
    cut at a line under 1 KB, the lines perhaps edited."""
    kind = draw(st.sampled_from(("refused", "construction", "random")))
    if kind == "refused":
        header = draw(st.sampled_from(REFUSED_HEADERS))
        return header + "\n" + draw(st.sampled_from(("", "e 0 1 2\n", "c\n")))
    if kind == "construction":
        text = to_edge_list_text(build_gamma(draw(st.sampled_from((6, 10)))))
    else:
        n = draw(st.integers(1, 30))
        k = draw(st.sampled_from([k for k in range(1, n + 1) if comb(n, k) <= 4096]))
        keep = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
        rng = draw(st.randoms(use_true_random=False))
        ranks = [r for r in range(comb(n, k)) if rng.random() < keep]
        text = to_edge_list_text(Hypergraph.from_ranks(n, k, ranks))
        if len(text) > 1000:
            text = text[: text.rindex("\n", 0, 1000) + 1]
    header, body = text.split("\n", 1)
    return header + "\n" + draw(edited(body))


@st.composite
def permutation_files(draw) -> str:
    """The images of a permutation of order up to 30, one per token, with
    an optional comment line and edit."""
    images = draw(st.permutations(range(draw(st.integers(0, 30)))))
    comment = draw(st.sampled_from(("", "c\n", "c the images\n")))
    return draw(edited(comment + " ".join(map(str, images)) + "\n"))


@st.composite
def options(draw, **values):
    """argv for optional int options, each absent or present with a value."""
    argv = []
    for name, value in values.items():
        if draw(st.booleans()):
            argv += [f"--{name}", str(draw(value))]
    return argv


@st.composite
def commands(draw):
    """(argv, files): argv of one subcommand, where "{dir}" stands for a
    scratch directory, and the text of each file it reads by name."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    files = {}
    argv = [command]
    if command == "construct":
        argv += ["--n", str(draw(ORDERS))]
        argv += draw(st.sampled_from(([], ["--out", "{dir}/out.hsc"])))
    elif command in ("verify", "invariants"):
        files["doc.hsc"] = draw(documents())
        argv += ["--in", "{dir}/doc.hsc"]
        if command == "verify":
            argv += draw(options(t=SIZES))
            tau = draw(st.sampled_from(("swap", "search", "file")))
            if tau == "file":
                files["tau.perm"] = draw(permutation_files())
                tau = "{dir}/tau.perm"
            argv += ["--tau", tau]
        argv += draw(options(budget=BUDGETS))
        argv += draw(st.sampled_from(([], ["--format", "text"], ["--format", "kv"])))
    elif command == "parity":
        argv += ["--n", str(draw(ORDERS))]
        argv += draw(options(k=SIZES, t=SIZES))
    elif command == "residues":
        argv += draw(options(k=SIZES, t=SIZES, mod=MODULI))
    else:
        argv += ["--n", str(draw(ORDERS))]
        argv += draw(options(k=SIZES, t=SIZES, cap=CAPS))
        argv += draw(st.sampled_from(([], ["--emit", "{dir}/emit"])))
    return argv, files


def clear_caches():
    """Empty every functools cache of `hsc`, so each call pays for its own."""
    for module in (cli, colex, construct, hypercore, parity, search, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def call(argv):
    """(exit code, stdout, stderr) of hsc.cli.main(argv), with its caches
    empty; a usage error leaves argparse through SystemExit(2)."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_every_call_exits_0_1_or_2_within_its_budgets(command):
    # One call is timed and a second one traced: tracemalloc slows the
    # allocation-heavy calls about tenfold.  Both give the same result.
    template, files = command
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            data = text.encode("utf-8")
            assert len(data) < 1024
            Path(scratch, name).write_bytes(data)
        argv = [arg.replace("{dir}", scratch) for arg in template]
        start = time.perf_counter()
        result = call(argv)
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            assert call(argv) == result
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result[0] in (0, 1, 2), (argv, result)
    assert wall < WALL_BUDGET_S, (argv, wall)
    assert peak < PEAK_BUDGET_BYTES, (argv, peak)
