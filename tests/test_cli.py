import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import colex_reference as ref
import hsc
from hsc.cli import _spelled, main
from hsc.construct import build_gamma
from hsc.hypercore import read_edge_list, to_edge_list_text, write_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args, timeout):
    """`python ARGS` in a fresh process that imports this checkout's hsc."""
    src = str(Path(hsc.__file__).resolve().parent.parent)
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    command = [sys.executable, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)


def test_cli_import_leaves_out_the_heavy_standard_modules():
    # -S: no site hook preloads anything, so the import shows all it loads.
    code = (
        "import sys; import hsc.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] != 'hsc')))"
    )
    proc = run_process("-S", "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "argparse" in loaded
    for heavy in ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib"):
        assert heavy not in loaded


def test_construct_writes_file_and_summary(capsys, tmp_path):
    out = tmp_path / "g6.hsc"
    code, stdout, _ = run(capsys, "construct", "--n", "6", "--out", str(out))
    assert code == 0
    assert stdout == "edges=10 valence=2\n"
    text = out.read_bytes().decode()
    assert text == to_edge_list_text(build_gamma(6))
    assert sum(1 for line in text.splitlines() if line.startswith("e ")) == 10


def test_construct_to_stdout(capsys):
    code, stdout, stderr = run(capsys, "construct", "--n", "6")
    assert code == 0
    assert stdout == to_edge_list_text(build_gamma(6))
    assert "edges=10" in stderr


def test_construct_rejects_inadmissible_order(capsys):
    code, _, stderr = run(capsys, "construct", "--n", "8")
    assert code == 2
    assert "n % 4 == 2" in stderr


def test_construct_large_order(capsys, tmp_path):
    out = tmp_path / "g50.hsc"
    code, stdout, _ = run(capsys, "construct", "--n", "50", "--out", str(out))
    assert code == 0
    assert stdout == f"edges={comb(50, 3) // 2} valence=24\n"
    assert read_edge_list(out).edge_count == 9800


def test_verify_passes_on_construction(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    lines = stdout.splitlines()
    assert "balance=true" in lines
    assert "regular=true" in lines
    assert "valence=2" in lines
    assert "antimorphism_ok=true" in lines
    assert "result=pass" in lines


def test_verify_text_format(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--format", "text")
    assert code == 0
    assert "verdict: pass" in stdout
    assert "every 2-subset lies in 2 edges" in stdout


def test_verify_reports_witness_on_broken_regularity(capsys, tmp_path):
    g = build_gamma(6)
    broken = list(g.edges())[1:]
    import hsc

    path = tmp_path / "broken.hsc"
    write_edge_list(hsc.Hypergraph(6, 3, broken), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "regular=false" in stdout
    assert any(line.startswith("witness=") for line in stdout.splitlines())
    assert "result=fail" in stdout


def test_verify_with_permutation_file(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    perm = tmp_path / "identity.perm"
    perm.write_text("c the identity\n0 1 2 3 4 5\n")
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--tau", str(perm))
    assert code == 1
    assert "antimorphism_ok=false" in stdout
    assert "antimorphism_witness=0,1,2" in stdout


@pytest.mark.parametrize(
    "images", ["3 4 5 0_0 1 2", "3 4 5 0 +1 2", "3 4 5 0 1 \uff12"]
)
def test_verify_rejects_lax_permutation_tokens(capsys, tmp_path, images):
    # Each file is the swap with one token that int() would have accepted.
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    perm = tmp_path / "swap.perm"
    perm.write_text(images + "\n", encoding="utf-8")
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--tau", str(perm))
    assert code == 2
    assert stdout == ""
    # A non-ASCII digit is refused as a non-ASCII byte, at its offset.
    assert ("non-integer token" if images.isascii() else "in position 10:") in stderr


def test_verify_refuses_a_long_non_permutation_in_one_short_line(capsys, tmp_path):
    # 200 000 zeros: the refusal names the first repeat, not every image.
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    perm = tmp_path / "zeros.perm"
    perm.write_text("0\n" * 200_000)
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--tau", str(perm))
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: image 0 at position 1 repeats position 0:"
        " not a permutation of 0..199999\n"
    )
    assert len(stderr.encode()) < 200


def test_verify_with_search_tau(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--tau", "search")
    assert code == 0
    assert "antimorphism=search" in stdout
    assert "antimorphism_ok=true" in stdout


def test_verify_missing_file(capsys, tmp_path):
    code, _, stderr = run(capsys, "verify", "--in", str(tmp_path / "nope.hsc"))
    assert code == 2
    assert "error:" in stderr


def test_invariants_order_6(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    code, stdout, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 0
    lines = stdout.splitlines()
    assert "k4=0,0,0,0,0,0" in lines
    assert "orbit=0,1,2,3,4,5" in lines
    assert "orbit_count=1" in lines
    assert "euler_characteristic=1" in lines


def test_invariants_order_10_defaults_to_inconclusive_orbits(capsys, tmp_path):
    path = tmp_path / "g10.hsc"
    write_edge_list(build_gamma(10), path)
    code, stdout, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 0
    assert "orbit_count=inconclusive" in stdout
    k4_line = next(l for l in stdout.splitlines() if l.startswith("k4="))
    values = {int(x) for x in k4_line.removeprefix("k4=").split(",")}
    assert len(values) >= 2


def test_invariants_order_10_with_budget(capsys, tmp_path):
    path = tmp_path / "g10.hsc"
    write_edge_list(build_gamma(10), path)
    code, stdout, _ = run(
        capsys, "invariants", "--in", str(path), "--budget", "2000000"
    )
    assert code == 0
    assert "orbit_count=2" in stdout


def test_invariants_relabeled_order_50(capsys, tmp_path):
    # Relabeling moves each vertex's K4 count with it: C(24,3) for the images
    # of side 0, none for the images of side 1.
    images = list(range(50))
    random.Random(50).shuffle(images)
    sigma = hsc.Permutation(images)
    path = tmp_path / "g50.hsc"
    write_edge_list(ref.relabel(build_gamma(50), sigma), path)
    code, stdout, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 0
    k4 = [0] * 50
    for v in range(25):
        k4[sigma.images[v]] = comb(24, 3)
    assert stdout == (
        f"n=50\nk=3\nedges={comb(50, 3) // 2}\n"
        f"k4={','.join(map(str, k4))}\nk4_distinct=2\norbit_count=inconclusive\n"
    )


def test_invariants_complete_hypergraph(capsys, tmp_path):
    path = tmp_path / "k5.hsc"
    write_edge_list(ref.complete(5, 3), path)
    code, stdout, _ = run(capsys, "invariants", "--in", str(path))
    assert code == 0
    assert "orbit_count=1" in stdout


def test_invariants_budget_gives_the_one_orbit_of_an_empty_order_9(capsys, tmp_path):
    # Every permutation is an automorphism, so no node of the budget is
    # spent; without a budget order 9 is still refused.
    path = tmp_path / "empty9.hsc"
    path.write_text("p hsc 9 3\n")
    head = "n=9\nk=3\nedges=0\nk4=0,0,0,0,0,0,0,0,0\nk4_distinct=1\n"
    assert run(capsys, "invariants", "--in", str(path), "--budget", "0") == (
        0,
        head + "orbit=0,1,2,3,4,5,6,7,8\norbit_count=1\n",
        "",
    )
    assert run(capsys, "invariants", "--in", str(path)) == (
        0,
        head + "orbit_count=inconclusive\n",
        "",
    )


def test_paths_are_named_as_pathlib_spells_them(capsys, tmp_path, monkeypatch):
    # The readers once opened pathlib paths, so error messages name a file
    # as pathlib spells it; `_spelled` keeps that without pathlib.
    parts = ["/", "//", ".", "..", "a", "b."]
    for first in parts:
        for second in parts:
            for third in ("", "/", "/."):
                path = first + second + third
                assert _spelled(path) == str(Path(path)), path
    monkeypatch.chdir(tmp_path)
    missing = "error: [Errno 2] No such file or directory: 'gone/g.hsc'\n"
    assert run(capsys, "verify", "--in", "./gone//g.hsc") == (2, "", missing)
    assert run(capsys, "invariants", "--in", "gone/./g.hsc") == (2, "", missing)
    write_edge_list(build_gamma(6), "g6.hsc")
    code, _, stderr = run(capsys, "verify", "--in", "g6.hsc", "--tau", "./x//y.perm")
    assert code == 2
    assert stderr == "error: [Errno 2] No such file or directory: 'x/y.perm'\n"


def test_parity_command(capsys):
    code, stdout, _ = run(capsys, "parity", "--n", "7", "--k", "3", "--t", "2")
    assert code == 0
    assert stdout.splitlines()[-1] == "admissible false"
    code, stdout, _ = run(capsys, "parity", "--n", "6")
    assert code == 0
    assert stdout.splitlines() == [
        "i=0 C(6,3) even",
        "i=1 C(5,2) even",
        "i=2 C(4,1) even",
        "admissible true",
    ]


def test_parity_rejects_bad_parameters(capsys):
    code, _, stderr = run(capsys, "parity", "--n", "3", "--k", "3", "--t", "2")
    assert code == 2
    assert "error:" in stderr


def test_residues_command(capsys):
    assert run(capsys, "residues", "--k", "3", "--t", "2", "--mod", "4")[:2] == (
        0,
        "{2}\n",
    )
    assert run(capsys, "residues", "--k", "2", "--t", "1", "--mod", "4")[:2] == (
        0,
        "{1}\n",
    )
    assert run(capsys, "residues", "--k", "3", "--t", "1", "--mod", "4")[:2] == (
        0,
        "{1, 2}\n",
    )


def test_residues_unstable_scan(capsys):
    code, _, stderr = run(capsys, "residues", "--k", "3", "--t", "1", "--mod", "2")
    assert code == 1
    assert "unstable" in stderr


def test_parity_and_residues_refuse_a_t_past_the_bound(capsys, monkeypatch):
    # Both are refused before any parity is computed.  Unbounded, the
    # residue scan took 0.82 s at t = 100000, linear in t.
    def computed(a, b):
        raise AssertionError(f"parity of comb({a}, {b}) computed")

    with monkeypatch.context() as patched:
        patched.setattr(hsc.parity, "binom_parity", computed)
        for argv in (
            ("residues", "--k", "100001", "--t", "100000", "--mod", "4"),
            ("residues", "--k", "66", "--t", "65"),
            ("parity", "--n", "10000002", "--k", "10000001", "--t", "10000000"),
        ):
            t = argv[argv.index("--t") + 1]
            message = f"error: t={t} exceeds the bound of 64\n"
            assert run(capsys, *argv) == (2, "", message)
    # The bound itself is accepted.
    assert run(capsys, "parity", "--n", "66", "--k", "65", "--t", "64")[0] == 0


def test_residues_refuses_a_modulus_past_the_bound(capsys):
    # Twice the bound is refused before any order is scanned.
    assert run(capsys, "residues", "--mod", "131072") == (
        2,
        "",
        "error: modulus 131072 exceeds the bound of 65536\n",
    )


def test_residues_refuses_t_outside_0_and_k_naming_only_k_and_t(capsys):
    # The scan's first order, k + 1, is no input, so no order is named.
    for k, t in ((1, 1), (3, 3), (3, 0)):
        assert run(capsys, "residues", "--k", str(k), "--t", str(t)) == (
            2,
            "",
            f"error: need 0 < t < k, got t={t}, k={k}\n",
        )


def test_search_summary(capsys):
    code, stdout, _ = run(capsys, "search", "--n", "6")
    assert code == 0
    assert stdout == "orbits=10 candidates=1024 regular=8\n"


def test_search_cap_refusal(capsys):
    code, _, stderr = run(capsys, "search", "--n", "10")
    assert code == 2
    assert "2^60" in stderr
    assert "--cap" in stderr


def test_search_past_the_lane_bound_is_refused_at_once(capsys):
    # 2^15 candidates of comb(30, 5) lanes each: the search took about
    # 107 s before the bound.
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "search", "--n", "30", "--k", "29", "--t", "5")
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: 2^15 candidates x comb(30,5)=142506 lanes exceed the search "
        "bound of 16777216 lanes\n"
    )


def test_search_odd_orbit_is_a_mathematical_failure(capsys, tmp_path):
    # The side swap fixes every pair {a, a+3}, so its orbits on pairs include
    # odd ones: no alternating assignment exists.
    emit = tmp_path / "survivors"
    code, stdout, stderr = run(
        capsys, "search", "--n", "6", "--k", "2", "--emit", str(emit)
    )
    assert code == 1
    assert stdout == ""
    assert stderr == (
        "infeasible: orbit of odd length 1 starting at rank 3 "
        "admits no alternating edge assignment\n"
    )
    assert not emit.exists()
    # An odd order has no side swap at all: still a usage error.
    code, _, stderr = run(capsys, "search", "--n", "7")
    assert code == 2
    assert stderr.startswith("error: ")


@pytest.mark.parametrize(
    "option, stderr",
    [
        (["--k", "0"], "error: uniformity k=0 must satisfy 1 <= k <= n=6\n"),
        (["--k", "7"], "error: uniformity k=7 must satisfy 1 <= k <= n=6\n"),
        (["--t", "0"], "error: need 1 <= t < k=3, got t=0\n"),
        (["--t", "3"], "error: need 1 <= t < k=3, got t=3\n"),
    ],
)
def test_search_parameter_errors_are_usage_errors(capsys, option, stderr):
    assert run(capsys, "search", "--n", "6", *option) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["--n", "10", "--t", "3"], "error: need 1 <= t < k=3, got t=3\n"),
        (["--n", "10", "--t", "0"], "error: need 1 <= t < k=3, got t=0\n"),
        (["--n", "6", "--t", "3"], "error: need 1 <= t < k=3, got t=3\n"),
    ],
)
def test_search_bad_t_is_refused_before_the_cap(capsys, argv, stderr):
    # At n = 10 the 2^60 candidates exceed the default cap: a bad t must
    # still read as a bad t, not as a cap refusal.
    assert run(capsys, "search", *argv) == (2, "", stderr)


def test_search_emit_files_verify(capsys, tmp_path):
    emit = tmp_path / "survivors"
    code, stdout, _ = run(capsys, "search", "--n", "6", "--emit", str(emit))
    assert code == 0
    files = sorted(emit.iterdir())
    assert len(files) == 8
    for f in files:
        code, stdout, _ = run(capsys, "verify", "--in", str(f))
        assert code == 0


def test_round_trip_construct_then_verify(capsys, tmp_path):
    for n in (6, 10, 18, 26):
        path = tmp_path / f"g{n}.hsc"
        code, _, _ = run(capsys, "construct", "--n", str(n), "--out", str(path))
        assert code == 0
        code, stdout, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0
        assert f"valence={(n - 2) // 2}" in stdout


def test_outputs_are_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.hsc", tmp_path / "b.hsc"
    run(capsys, "construct", "--n", "14", "--out", str(a))
    run(capsys, "construct", "--n", "14", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "6", "--cap", "-1"],
        ["verify", "--in", "g.hsc", "--tau", "search", "--budget", "-1"],
        ["invariants", "--in", "g.hsc", "--budget", "-3"],
    ],
)
def test_negative_cap_and_budget_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_zero_cap_and_budget_are_accepted(capsys, tmp_path):
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    code, _, stderr = run(capsys, "search", "--n", "6", "--cap", "0")
    assert code == 2
    assert "exceed the cap of 0" in stderr
    code, stdout, _ = run(
        capsys, "verify", "--in", str(path), "--tau", "search", "--budget", "0"
    )
    assert code == 1
    assert "antimorphism_ok=inconclusive" in stdout


def test_verify_checks_survive_python_O(capsys, tmp_path):
    # Exchange one edge of the order-10 construction for a non-edge, then run
    # verify under -O, which strips assert statements.
    g = build_gamma(10)
    ranks = list(ref.edge_ranks(g))
    ranks[5] = g.indicator.tobytes().index(0)
    path = tmp_path / "corrupted.hsc"
    write_edge_list(hsc.Hypergraph.from_ranks(10, 3, ranks), path)
    code, expected, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    proc = run_process("-O", "-m", "hsc.cli", "verify", "--in", str(path), timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == expected
    assert "regular=false" in proc.stdout
    assert "antimorphism_witness=" in proc.stdout


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct"])  # missing required --n
    assert exc.value.code == 2


# Exact stdout and exit code of every verify and invariants report branch.
# The inputs are the order-6 construction, that construction without its
# colex-first edge (unbalanced, not regular, no antimorphism) and the complete
# 3-uniform hypergraph on 5 vertices; `id.perm` holds the identity of order 6.
GOLDEN_VERIFY = {
    ("g6.hsc", "swap"): (
        0,
        "n=6\nk=3\nt=2\nedges=10\nbalance=true\nregular=true\nvalence=2\n"
        "antimorphism=swap\nantimorphism_ok=true\nresult=pass\n",
        "hypergraph n=6 k=3 with 10 edges\n"
        "edge balance: 10 of 20 subsets are edges; balanced\n"
        "2-subset coverage: regular, every 2-subset lies in 2 edges\n"
        "antimorphism (swap): verified\n"
        "verdict: pass\n",
    ),
    ("broken.hsc", "swap"): (
        1,
        "n=6\nk=3\nt=2\nedges=9\nbalance=false\nregular=false\nwitness=0,3\n"
        "witness_count=2\nfirst_count=1\nantimorphism=swap\n"
        "antimorphism_ok=false\nantimorphism_witness=0,1,2\nresult=fail\n",
        "hypergraph n=6 k=3 with 9 edges\n"
        "edge balance: 9 of 20 subsets are edges; NOT balanced\n"
        "2-subset coverage: NOT regular; {0 (0_0), 3 (0_1)} lies in 2 edges "
        "while the colex-first subset lies in 1\n"
        "antimorphism (swap): FAILS at {0 (0_0), 1 (1_0), 2 (2_0)}\n"
        "verdict: fail\n",
    ),
    ("g6.hsc", "id.perm"): (
        1,
        "n=6\nk=3\nt=2\nedges=10\nbalance=true\nregular=true\nvalence=2\n"
        "antimorphism=file:id.perm\nantimorphism_ok=false\n"
        "antimorphism_witness=0,1,2\nresult=fail\n",
        "hypergraph n=6 k=3 with 10 edges\n"
        "edge balance: 10 of 20 subsets are edges; balanced\n"
        "2-subset coverage: regular, every 2-subset lies in 2 edges\n"
        "antimorphism (file:id.perm): FAILS at {0 (0_0), 1 (1_0), 2 (2_0)}\n"
        "verdict: fail\n",
    ),
    ("broken.hsc", "search"): (
        1,
        "n=6\nk=3\nt=2\nedges=9\nbalance=false\nregular=false\nwitness=0,3\n"
        "witness_count=2\nfirst_count=1\nantimorphism=search\n"
        "antimorphism_ok=none\nresult=fail\n",
        "hypergraph n=6 k=3 with 9 edges\n"
        "edge balance: 9 of 20 subsets are edges; NOT balanced\n"
        "2-subset coverage: NOT regular; {0 (0_0), 3 (0_1)} lies in 2 edges "
        "while the colex-first subset lies in 1\n"
        "antimorphism (search): none found\n"
        "verdict: fail\n",
    ),
    ("g6.hsc", "search", "--budget", "0"): (
        1,
        "n=6\nk=3\nt=2\nedges=10\nbalance=true\nregular=true\nvalence=2\n"
        "antimorphism=search\nantimorphism_ok=inconclusive\nresult=fail\n",
        "hypergraph n=6 k=3 with 10 edges\n"
        "edge balance: 10 of 20 subsets are edges; balanced\n"
        "2-subset coverage: regular, every 2-subset lies in 2 edges\n"
        "antimorphism (search): inconclusive, budget exhausted\n"
        "verdict: fail\n",
    ),
}

GOLDEN_INVARIANTS = {
    "g6.hsc": (
        "n=6\nk=3\nedges=10\nk4=0,0,0,0,0,0\nk4_distinct=1\norbit=0,1,2,3,4,5\n"
        "orbit_count=1\neuler_characteristic=1\n",
        "n: 6\nk: 3\nedges: 10\nk4: 0,0,0,0,0,0\nk4_distinct: 1\n"
        "orbit: 0 (0_0), 1 (1_0), 2 (2_0), 3 (0_1), 4 (1_1), 5 (2_1)\n"
        "orbit_count: 1\neuler_characteristic: 1\n",
    ),
    "g10.hsc": (
        "n=10\nk=3\nedges=60\nk4=4,4,4,4,4,0,0,0,0,0\nk4_distinct=2\n"
        "orbit_count=inconclusive\n",
        "n: 10\nk: 3\nedges: 60\nk4: 4,4,4,4,4,0,0,0,0,0\nk4_distinct: 2\n"
        "orbit_count: inconclusive\n",
    ),
    "k5.hsc": (
        "n=5\nk=3\nedges=10\nk4=4,4,4,4,4\nk4_distinct=1\norbit=0,1,2,3,4\n"
        "orbit_count=1\n",
        "n: 5\nk: 3\nedges: 10\nk4: 4,4,4,4,4\nk4_distinct: 1\n"
        "orbit: 0,1,2,3,4\norbit_count: 1\n",
    ),
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    # Relative paths keep the `file:` label of a permutation file stable.
    monkeypatch.chdir(tmp_path)
    write_edge_list(build_gamma(6), "g6.hsc")
    write_edge_list(hsc.Hypergraph(6, 3, build_gamma(6).edges()[1:]), "broken.hsc")
    write_edge_list(build_gamma(10), "g10.hsc")
    write_edge_list(ref.complete(5, 3), "k5.hsc")
    Path("id.perm").write_text("0 1 2 3 4 5\n")
    return tmp_path


@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY))
def test_verify_golden_output(capsys, golden_dir, case):
    path, tau, *extra = case
    code, kv_out, text_out = GOLDEN_VERIFY[case]
    argv = ["verify", "--in", path, "--tau", tau, *extra]
    assert run(capsys, *argv, "--format", "kv") == (code, kv_out, "")
    assert run(capsys, *argv, "--format", "text") == (code, text_out, "")


@pytest.mark.parametrize("path", sorted(GOLDEN_INVARIANTS))
def test_invariants_golden_output(capsys, golden_dir, path):
    kv_out, text_out = GOLDEN_INVARIANTS[path]
    argv = ["invariants", "--in", path]
    assert run(capsys, *argv, "--format", "kv") == (0, kv_out, "")
    assert run(capsys, *argv, "--format", "text") == (0, text_out, "")


# Exact stderr for the swap of order 6 with its images separated by white
# space that is not ASCII (U+3000, U+0085) or by ASCII control characters
# that str.split() takes as white space (0x1C-0x1F); both files passed.
GOLDEN_PERMUTATION_ERRORS = {
    "non-ASCII separators": (
        "3 4 5\u30000 1\u00852\n",
        "error: 'ascii' codec can't decode byte 0xe3 in position 5: "
        "ordinal not in range(128)\n",
    ),
    "control-character separators": (
        "3\x1c4\x1d5\x1e0\x1f1 2\n",
        "error: permutation file swap.perm holds a non-integer token\n",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PERMUTATION_ERRORS))
def test_verify_refuses_permutation_separators(capsys, golden_dir, case):
    images, stderr = GOLDEN_PERMUTATION_ERRORS[case]
    Path("swap.perm").write_text(images, encoding="utf-8")
    assert run(capsys, "verify", "--in", "g6.hsc", "--tau", "swap.perm") == (
        2,
        "",
        stderr,
    )
    # The same images separated by ASCII white space pass.
    Path("swap.perm").write_text("3 4\t5\r\n0\x0b1\x0c2\n")
    assert run(capsys, "verify", "--in", "g6.hsc", "--tau", "swap.perm")[0] == 0


def test_verify_refuses_the_swap_on_an_odd_order(capsys, golden_dir):
    # The side swap needs two equal sides; the refusal names the option and
    # the selectors that work at any order.
    Path("odd.hsc").write_text("p hsc 7 3\n")
    refusal = (
        2,
        "",
        "error: --tau swap needs an even order, got 7; "
        "use --tau search or --tau FILE\n",
    )
    for tau in ([], ["--tau", "swap"]):
        for form in ("kv", "text"):
            argv = ["verify", "--in", "odd.hsc", *tau, "--format", form]
            assert run(capsys, *argv) == refusal
    code, stdout, stderr = run(capsys, "verify", "--in", "odd.hsc", "--tau", "search")
    assert (code, stderr) == (1, "")
    assert "antimorphism=search\nantimorphism_ok=none\n" in stdout
    # search builds the swap itself and keeps its message.
    assert run(capsys, "search", "--n", "7") == (
        2,
        "",
        "error: order must be even and positive, got 7\n",
    )


def test_parser_is_built_once_and_survives_usage_errors(capsys, tmp_path):
    from hsc import cli

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    path = tmp_path / "g6.hsc"
    write_edge_list(build_gamma(6), path)
    argv = ["verify", "--in", str(path), "--tau", "search", "--format", "text"]
    alone = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(path), "--budget", "-1", "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *argv) == alone
    assert run(capsys, "verify", "--in", str(path)) == (
        0,
        GOLDEN_VERIFY[("g6.hsc", "swap")][1],
        "",
    )


def test_construct_refuses_past_the_position_bound(capsys):
    # Refused before the families are built, with the Hypergraph message.
    code, stdout, stderr = run(capsys, "construct", "--n", "470")
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"error: comb(470,3)={comb(470, 3)} subset positions exceed the "
        f"supported bound of {hsc.hypercore.MAX_POSITIONS}\n"
    )


def test_verify_refuses_coverage_lanes_past_the_bound(capsys, tmp_path, monkeypatch):
    # comb(40, 20) = 137846528820 lanes: unbounded, this died of a
    # MemoryError (exit 1) under a 2 GB address-space limit.  The refusal
    # comes before any lane is summed.
    path = tmp_path / "wide.hsc"
    path.write_text("p hsc 40 39\ne " + " ".join(map(str, range(39))) + "\n")

    def summed(*args):
        raise AssertionError("coverage lanes summed")

    with monkeypatch.context() as patched:
        patched.setattr(hsc.hypercore, "_lane_sums", summed)
        patched.setattr(hsc.hypercore, "_coverage_table", summed)
        assert run(capsys, "verify", "--in", str(path), "--t", "20") == (
            2,
            "",
            "error: comb(40,20) 20-subsets exceed the bound of 1048576\n",
        )
    # comb(40, 5) = 658008 lanes, under the bound, are counted.
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--t", "5")
    assert code == 1
    assert stdout.split()[:5] == ["n=40", "k=39", "t=5", "edges=1", "balance=false"]


def test_verify_refuses_edges_out_of_colex_order(capsys, tmp_path):
    lines = to_edge_list_text(build_gamma(10)).split("\n")
    path = tmp_path / "swapped.hsc"
    for at in (2, 30, len(lines) - 2):
        edited = lines[: at - 1] + [lines[at], lines[at - 1]] + lines[at + 1 :]
        path.write_text("\n".join(edited))
        edge = tuple(map(int, lines[at - 1].split()[1:]))
        assert run(capsys, "verify", "--in", str(path)) == (
            2,
            "",
            f"error: line {at + 1}: edge {edge} is out of colex order\n",
        )


def test_verify_refuses_a_huge_header_without_its_binomial(capsys, tmp_path):
    # A count of up to 100 digits is still named, as before.
    path = tmp_path / "wide.hsc"
    path.write_text("p hsc 1000 4\ne 0 1 2 3\n")
    assert run(capsys, "verify", "--in", str(path)) == (
        2,
        "",
        f"error: comb(1000,4)={comb(1000, 4)} subset positions exceed the "
        f"supported bound of {hsc.hypercore.MAX_POSITIONS}\n",
    )
    # comb(4000000, 2000000) has over a million digits: the refusal must not
    # compute it, and the message carries no count.
    path = tmp_path / "huge.hsc"
    path.write_text("p hsc 4000000 2000000\n")
    proc = run_process("-m", "hsc.cli", "verify", "--in", str(path), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: comb(4000000,2000000) subset positions exceed the "
        f"supported bound of {hsc.hypercore.MAX_POSITIONS}\n"
    )


def test_verify_refuses_a_uniformity_past_the_bound(capsys, tmp_path):
    # A 16-byte header: the coverage recursion, about k deep, raised an
    # uncaught RecursionError here (exit 1 and a traceback).
    bound = hsc.hypercore.MAX_UNIFORMITY
    path = tmp_path / "deep.hsc"
    path.write_text("p hsc 1002 1001\n")
    assert run(capsys, "verify", "--in", str(path), "--t", "1") == (
        2,
        "",
        f"error: uniformity k=1001 exceeds the supported bound of {bound}\n",
    )
    # One edge at k = 99999 (589 KB): the k nested maps of the column
    # ranking segfaulted (exit 139), so it runs in a process of its own.
    path = tmp_path / "wide.hsc"
    path.write_text("p hsc 100000 99999\ne " + " ".join(map(str, range(99999))) + "\n")
    proc = run_process("-m", "hsc.cli", "verify", "--in", str(path), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: uniformity k=99999 exceeds the supported bound of {bound}\n"
    )
    # At the bound the shape is read and its coverage counted.
    path = tmp_path / "bound.hsc"
    edge = " ".join(map(str, range(bound)))
    path.write_text(f"p hsc {bound + 1} {bound}\ne {edge}\n")
    argv = ["verify", "--in", str(path), "--t", "1", "--tau", "search"]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stderr) == (1, "")
    fields = dict(line.split("=") for line in stdout.split())
    assert fields["k"] == fields["witness"] == str(bound) and fields["edges"] == "1"
    assert (fields["antimorphism_ok"], fields["result"]) == ("none", "fail")
