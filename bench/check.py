"""Expected results of each ``hsc`` command and the checks against them.

The expectations come from the construction's mathematics and the seeded
inputs (see ``bench.inputs``), never from the code being measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable

from . import inputs


@dataclass
class Step:
    """One CLI call with its expected exit code and output.

    ``extra`` checks what the exact text cannot: files the command wrote, or
    facts recomputed from the benchmark's own edge lists.
    """

    argv: list[str]
    rc: int
    stdout: str
    stderr: str = ""
    extra: list[Callable[[dict], list[str]]] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


def problems(step: Step, outcome: dict) -> list[str]:
    """Every way the outcome of one call differs from the step's expectation."""
    found = []
    if outcome["rc"] != step.rc:
        found.append(f"exit code {outcome['rc']}, expected {step.rc}")
    for stream in ("stdout", "stderr"):
        got = outcome["out" if stream == "stdout" else "err"]
        want = getattr(step, stream)
        if got != want:
            found.append(f"{stream} {got[:200]!r}, expected {want[:200]!r}")
    for check in step.extra:
        found.extend(check(outcome))
    return found


def _kv(pairs) -> str:
    return "".join(f"{k}={v}\n" for k, v in pairs)


def file_digest(path, n: int):
    """Check that a written edge-list file has the pinned construct digest."""

    def check(outcome):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if digest != inputs.CONSTRUCT_SHA256[n]:
            return [f"{path}: sha256 {digest}, expected {inputs.CONSTRUCT_SHA256[n]}"]
        return []

    return check


def construct_step(n: int, out: str) -> Step:
    return Step(
        ["construct", "--n", str(n), "--out", out],
        rc=0,
        stdout=f"edges={comb(n, 3) // 2} valence={(n - 2) // 2}\n",
        extra=[file_digest(out, n)],
    )


def verify_pass_step(n: int, path: str, tau="swap", budget=None) -> Step:
    argv = ["verify", "--in", path, "--tau", tau]
    if budget is not None:
        argv += ["--budget", str(budget)]
    label = tau if tau in ("swap", "search") else f"file:{tau}"
    stdout = _kv(
        [
            ("n", n),
            ("k", 3),
            ("t", 2),
            ("edges", comb(n, 3) // 2),
            ("balance", "true"),
            ("regular", "true"),
            ("valence", (n - 2) // 2),
            ("antimorphism", label),
            ("antimorphism_ok", "true"),
            ("result", "pass"),
        ]
    )
    return Step(argv, rc=0, stdout=stdout)


def witness_coverage(edges, valence: int):
    """Check, on the benchmark's own edge list, that the reported witness pair
    really is covered `witness_count` times and off the valence."""

    def check(outcome):
        fields = dict(ln.split("=", 1) for ln in outcome["out"].splitlines() if "=" in ln)
        if "witness" not in fields:
            return ["no regularity witness reported"]
        pair = tuple(int(v) for v in fields["witness"].split(","))
        cover = inputs.pair_coverage(edges, pair)
        found = []
        if cover == valence:
            found.append(f"witness pair {pair} has the valence coverage {valence}")
        if str(cover) != fields.get("witness_count"):
            found.append(
                f"witness pair {pair} lies in {cover} edges, reported {fields.get('witness_count')}"
            )
        return found

    return check


def verify_corrupted_step(n, path, permfile, edges, corruption) -> Step:
    """`verify` of a corrupted copy: exit 1, regularity witness at the
    colex-first touched pair, antimorphism witness at the lex-first violation."""
    valence = (n - 2) // 2
    delta = corruption.changed_pairs()
    if (0, 1) in delta:  # the reported witness is relative to the colex-first pair
        raise ValueError("corruption touches the colex-first pair")
    witness = min(delta, key=inputs.colex_key)
    stdout = _kv(
        [
            ("n", n),
            ("k", 3),
            ("t", 2),
            ("edges", comb(n, 3) // 2),
            ("balance", "true"),
            ("regular", "false"),
            ("witness", f"{witness[0]},{witness[1]}"),
            ("witness_count", valence + delta[witness]),
            ("first_count", valence),
            ("antimorphism", f"file:{permfile}"),
            ("antimorphism_ok", "false"),
            ("antimorphism_witness", ",".join(map(str, min(corruption.antimorphism_violations())))),
            ("result", "fail"),
        ]
    )
    return Step(
        ["verify", "--in", path, "--tau", permfile],
        rc=1,
        stdout=stdout,
        extra=[witness_coverage(edges, valence)],
    )


def invariants_step(n, path, sigma, fmt="kv", budget=None) -> Step:
    argv = ["invariants", "--in", path, "--format", fmt]
    if budget is not None:
        argv += ["--budget", str(budget)]
    k4 = inputs.k4_profile(n, sigma)
    pairs = [("n", n), ("k", 3), ("edges", comb(n, 3) // 2)]
    pairs += [("k4", ",".join(map(str, k4))), ("k4_distinct", len(set(k4)))]
    if n <= 8 or (n <= 10 and budget is not None):
        # Order 6 is vertex-transitive; from order 10 on the sides differ.
        orbits = [list(range(n))] if n == 6 else inputs.side_orbits(n, sigma)
        pairs += [("orbit", ",".join(map(str, o))) for o in orbits]
        pairs.append(("orbit_count", len(orbits)))
    else:
        pairs.append(("orbit_count", "inconclusive"))
    if n == 6:
        pairs.append(("euler_characteristic", 1))  # the projective plane
    if fmt == "text":
        m = n // 2

        def render(key, value):
            if key == "orbit":
                value = ", ".join(f"{v} ({v % m}_{v // m})" for v in map(int, value.split(",")))
            return f"{key}: {value}\n"

        stdout = "".join(render(k, str(v)) for k, v in pairs)
    else:
        stdout = _kv(pairs)
    return Step(argv, rc=0, stdout=stdout)


def parity_step(n: int) -> Step:
    odd = [comb(n - i, 3 - i) % 2 for i in range(3)]
    lines = [f"i={i} C({n - i},{3 - i}) {('even', 'odd')[p]}" for i, p in enumerate(odd)]
    lines.append(f"admissible {'false' if any(odd) else 'true'}")
    return Step(["parity", "--n", str(n)], rc=0, stdout="\n".join(lines) + "\n")


def residues_step(modulus: int) -> Step:
    residues = inputs.admissible_residues(3, 2, modulus)
    return Step(
        ["residues", "--k", "3", "--t", "2", "--mod", str(modulus)],
        rc=0,
        stdout="{" + ", ".join(map(str, residues)) + "}\n",
    )


# sha256 over the eight order-6 survivor files, concatenated in name order.
SURVIVORS_SHA256 = "68cc53a7c3e14945696678c05eff8af9b6e9928f6079461c1828ea57f20167fd"
SURVIVOR_NAMES = [f"survivor_{i:04d}.hsc" for i in range(8)]


def survivors(emit_dir: str):
    """Check the emitted survivors: the expected eight files, each 2-regular
    with valence 2 and exchanged with its complement by the side swap."""

    def check(outcome):
        names = sorted(p.name for p in Path(emit_dir).iterdir())
        if names != SURVIVOR_NAMES:
            return [f"{emit_dir} holds {names}"]
        found = []
        blob = b""
        swap = [(v + 3) % 6 for v in range(6)]
        for name in names:
            data = (Path(emit_dir) / name).read_bytes()
            blob += data
            n, edges = inputs.parse_edge_list(data.decode("ascii"))
            edge_set = set(edges)
            if n != 6 or len(edges) != 10:
                found.append(f"{name}: order {n} with {len(edges)} edges")
            elif any(inputs.pair_coverage(edges, p) != 2 for p in combinations(range(6), 2)):
                found.append(f"{name}: not 2-regular with valence 2")
            elif any(tuple(sorted(swap[v] for v in e)) in edge_set for e in edges):
                found.append(f"{name}: the side swap maps an edge to an edge")
        digest = hashlib.sha256(blob).hexdigest()
        if digest != SURVIVORS_SHA256:
            found.append(f"survivor files sha256 {digest}, expected {SURVIVORS_SHA256}")
        return found

    return check


def search_emit_step(emit_dir: str) -> Step:
    return Step(
        ["search", "--n", "6", "--emit", emit_dir],
        rc=0,
        stdout="orbits=10 candidates=1024 regular=8\n",
        extra=[survivors(emit_dir)],
    )


def search_refused_step() -> Step:
    return Step(
        ["search", "--n", "10"],
        rc=2,
        stdout="",
        stderr="error: 2^60 candidates exceed the cap of 1048576; raise the cap with --cap\n",
    )
