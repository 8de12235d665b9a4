"""Tests of the benchmark itself: its generator, its output checks, its
tracer and its refusal to run without the program."""

from __future__ import annotations

import hashlib
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from bench import check, child, inputs, run, tracer, workloads
from hsc import cli

BENCH = Path(__file__).resolve().parent


def outcome_of(step):
    (outcome,) = child.run_script(cli, [step.argv])
    return outcome


@pytest.mark.parametrize("n", sorted(inputs.CONSTRUCT_SHA256))
def test_generator_reproduces_construct_digests(n):
    text = inputs.edge_list_text(n, inputs.gamma_edges(n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == inputs.CONSTRUCT_SHA256[n]


def test_checker_rejects_wrong_digest(tmp_path):
    step = check.construct_step(10, str(tmp_path / "g10.hsc"))
    outcome = outcome_of(step)
    assert check.problems(step, outcome) == []
    path = tmp_path / "g10.hsc"
    path.write_bytes(path.read_bytes().replace(b"e 0 1 2\n", b"c 0 1 2\n"))
    assert any("sha256" in p for p in check.problems(step, outcome))


def test_checker_rejects_wrong_k4_vector(tmp_path):
    rng = random.Random(3)
    sigma = inputs.random_permutation(rng, 10)
    path = tmp_path / "g10.hsc"
    path.write_text(inputs.edge_list_text(10, inputs.relabel(inputs.gamma_edges(10), sigma)))
    step = check.invariants_step(10, str(path), sigma, "text", workloads.ORDER10_BUDGET)
    outcome = outcome_of(step)
    assert check.problems(step, outcome) == []
    # The unrelabeled profile is wrong for a relabeled input.
    unmapped = ",".join(map(str, inputs.k4_profile(10, list(range(10)))))
    mapped = ",".join(map(str, inputs.k4_profile(10, sigma)))
    assert unmapped != mapped
    wrong = dict(outcome, out=outcome["out"].replace(f"k4: {mapped}", f"k4: {unmapped}"))
    assert any("stdout" in p for p in check.problems(step, wrong))


def test_checker_rejects_wrong_exit_code():
    step = check.search_refused_step()
    outcome = outcome_of(step)
    assert check.problems(step, outcome) == []
    assert check.problems(step, dict(outcome, rc=0)) == ["exit code 0, expected 2"]


def test_corrupted_copy_witnesses_are_checked(tmp_path):
    n, rng = 26, random.Random(5)
    sigma = inputs.random_permutation(rng, n)
    edges = inputs.relabel(inputs.gamma_edges(n), sigma)
    tau = inputs.conjugated_swap(sigma)
    bad, corruption = inputs.corrupt(rng, edges, tau)
    assert len(bad) == len(edges) and set(bad) != set(edges)
    path, perm = tmp_path / "bad.hsc", tmp_path / "tau.perm"
    path.write_text(inputs.edge_list_text(n, bad))
    perm.write_text(inputs.permutation_text(tau))
    step = check.verify_corrupted_step(n, str(path), str(perm), bad, corruption)
    outcome = outcome_of(step)
    assert outcome["rc"] == 1
    assert check.problems(step, outcome) == []
    # A witness pair that is in fact covered at the valence is refused.
    good = dict(outcome, out=outcome["out"].replace("witness=", "witness=0,1\nx=", 1))
    assert any("valence coverage" in p for p in check.problems(step, good))


def test_traced_self_times_add_up_to_command_times(tmp_path):
    g6, g10 = str(tmp_path / "g6.hsc"), str(tmp_path / "g10.hsc")
    argvs = [
        ["construct", "--n", "6", "--out", g6],
        ["construct", "--n", "10", "--out", g10],
        ["verify", "--in", g10],
        ["invariants", "--in", g6],
        ["search", "--n", "6"],
        ["residues", "--mod", "8"],
    ]
    plain = child.run_script(cli, argvs)
    t = tracer.Tracer()
    t.install()
    try:
        traced = child.run_script(cli, argvs)
    finally:
        t.uninstall()
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert t.missing == []
    assert [o["out"] for o in traced] == [o["out"] for o in plain]

    own = tracer.self_times(t.spans)
    roots = [i for i, span in enumerate(t.spans) if span[1] == -1]
    assert [t.spans[i][0] for i in roots] == ["cli"] * len(argvs)
    for k, (root, outcome) in enumerate(zip(roots, traced)):
        end = roots[k + 1] if k + 1 < len(roots) else len(t.spans)
        total = sum(own[root:end])
        # Spans of one command are contiguous, and their self times
        # partition the command's measured time up to the wrapper's own cost.
        assert total <= outcome["seconds"] <= total + 0.002 + 0.05 * total
    overhead = sum(o["seconds"] for o in traced) / sum(o["seconds"] for o in plain)
    assert 0.5 < overhead < 3

    layers = tracer.layer_metrics(t.spans, t.counts)
    assert layers["verify.k4_calls"] == 6
    assert layers["search.candidates"] == 1024
    assert layers["verify.regularity_calls"] == 1024 + 2
    assert layers["hypercore.parse_s"] > 0 and layers["hypercore.serialize_s"] > 0
    assert sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(
        sum(own)
    )


def test_account_removes_reference_passes_and_normalizes():
    outcomes = [{"start": 0.0, "seconds": 1.0}, {"start": 2.0, "seconds": 0.1}]
    # Two passes of 0.01 s interrupt the first call; none lands in the second.
    samples = [(0.2, 0.01), (0.6, 0.01), (3.0, 0.03)]
    norm = run.account(outcomes, samples)
    assert [o["net"] for o in outcomes] == pytest.approx([0.98, 0.1])
    assert norm == pytest.approx(0.98 / 0.01 + 0.1 / 0.02)
    assert run.account([{"start": 0.0, "seconds": 1.0}], []) is None


def test_reference_clock_samples_during_a_long_call():
    with child.ReferenceClock() as clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 4 * child.REFERENCE_PERIOD_S:
            pass
    assert len(clock.samples) >= 2
    assert all(t0 <= start < perf_counter() and 0 < d for start, d in clock.samples)


def test_oracle_process_is_correct():
    work_root = run.ROOT / ".bench_work" / "test-oracle"
    try:
        sample = run.run_process("oracle", 7, 0, True, work_root, perf_counter() + 120)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    assert sample["failures"] == []
    assert sample["layers"]["verify.orbits_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
