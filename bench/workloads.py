"""The benchmark's workloads: each writes its seeded inputs into a work
directory and returns the fixed script of CLI steps to run on them.

- ``certify``: the headline construct-and-verify pipeline on one large
  working set (ranking, unranking, serialising, parsing, regularity and the
  antimorphism check), over both the pass and the fail path, with no K4 or
  search calls.
- ``invariants``: dominated by the per-vertex K4 scan, with little parsing;
  ``certify`` is its same-code control, where a K4 change moves nothing.
- ``oracle``: the same hypercore and verify layers as ``certify`` but as
  about a thousand calls per round on tiny hypergraphs, most failing
  regularity early, so per-call set-up and the early-exit path dominate.
"""

from __future__ import annotations

from pathlib import Path

from . import check, inputs

# Node budget for the order-10 searches; every seeded relabeling needs fewer
# than 10^4 nodes, so a budget hit is a failure, not an inconclusive run.
ORDER10_BUDGET = 1_000_000
# Oracle rounds per workload process.
ORACLE_ROUNDS = 8


def _write(path: Path, text: str) -> str:
    path.write_bytes(text.encode("ascii"))
    return str(path)


def _relabeled(rng, work: Path, n: int, name: str, base=None):
    """Write a seeded relabeling of the order-n construction."""
    sigma = inputs.random_permutation(rng, n)
    edges = inputs.relabel(base or inputs.gamma_edges(n), sigma)
    return sigma, edges, _write(work / name, inputs.edge_list_text(n, edges))


def certify(rng, work: Path) -> list[check.Step]:
    n = 102
    sigma, edges, relabeled = _relabeled(rng, work, n, "g102_relabeled.hsc")
    tau = inputs.conjugated_swap(sigma)
    permfile = _write(work / "tau.perm", inputs.permutation_text(tau))
    bad_edges, corruption = inputs.corrupt(rng, edges, tau)
    corrupted = _write(work / "g102_corrupted.hsc", inputs.edge_list_text(n, bad_edges))
    g102 = str(work / "g102.hsc")
    return [
        check.construct_step(50, str(work / "g50.hsc")),
        check.construct_step(n, g102),
        check.verify_pass_step(n, g102, "swap"),
        check.verify_pass_step(n, relabeled, permfile),
        check.verify_corrupted_step(n, corrupted, permfile, bad_edges, corruption),
    ]


def invariants(rng, work: Path) -> list[check.Step]:
    steps = []
    for n, fmt, budget in ((6, "kv", None), (10, "text", ORDER10_BUDGET), (50, "kv", None)):
        sigma, _, path = _relabeled(rng, work, n, f"g{n}.hsc")
        steps.append(check.invariants_step(n, path, sigma, fmt, budget))
    return steps


def oracle(rng, work: Path) -> list[check.Step]:
    base = {n: inputs.gamma_edges(n) for n in (6, 10)}
    steps = []
    for r in range(ORACLE_ROUNDS):
        emit = work / f"survivors{r}"
        steps.append(check.search_emit_step(str(emit)))
        steps += [check.verify_pass_step(6, str(emit / name)) for name in check.SURVIVOR_NAMES]
        for n in (6, 10):
            budget = ORDER10_BUDGET if n == 10 else None
            sigma, _, path = _relabeled(rng, work, n, f"g{n}_{r}.hsc", base[n])
            steps.append(check.verify_pass_step(n, path, "search", budget))
            steps.append(check.invariants_step(n, path, sigma, "kv", budget))
        steps.append(check.parity_step(rng.randrange(7, 1 << 20)))
        steps.append(check.residues_step(rng.choice((4, 8, 16))))
        steps.append(check.search_refused_step())
    return steps


WORKLOADS = {"certify": certify, "invariants": invariants, "oracle": oracle}
