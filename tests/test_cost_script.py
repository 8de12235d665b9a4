"""tools/cost.py, which prints CI's command cost lines: each mode, run once
at a small order, prints lines of the shape the report shows, and `gate`
exits by the call's exit code.  Only the shape is checked, never a figure."""

import re
from pathlib import Path

from test_cli import run_process

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cost.py"
MS = r"\d+\.\d ms"
PEAK = r"VmHWM \d+\.\d MB"


def cost(*args):
    """`python tools/cost.py ARGS` in a fresh process."""
    return run_process(str(SCRIPT), *map(str, args), timeout=60)


def test_each_mode_prints_its_lines(tmp_path):
    g10 = tmp_path / "g10.hsc"
    cases = [
        (
            ("cli", 1, "construct", "--n", 10, "--out", g10),
            rf"construct --n 10 --out g10\.hsc: exit 0, median of 1 {MS}, {PEAK}",
        ),
        (
            ("cli", 3, "residues", "--mod", 4),
            rf"residues --mod 4: exit 0, median of 3 {MS}, {PEAK}",
        ),
        (("cover", 10, 3, 2), r"coverage n=10 k=3 t=2: median of 9 \d+\.\d\d ms"),
        (
            ("parse", g10),
            rf"read_edge_list g10\.hsc \(\d+ edges\): median of 5 {MS}",
        ),
        (
            ("k4", 10),
            rf"vertex_invariant_k4 build_gamma\(10\): one call \d+\.\d\d s, {PEAK}",
        ),
        (
            ("anti", 10),
            r"verify_antimorphism build_gamma\(10\): swap \d+\.\d\d s \(ok=True\), "
            rf"random \d+\.\d\d s \(ok=False\), swap's image ranks alone {MS}, {PEAK}",
        ),
        (("prefix", 10, 3), rf"_prefix_ranks\(10, 3\) \(\d+ keys\): median of 5 {MS}"),
        (
            ("orbits", 6, 1000),
            r"automorphism_vertex_orbits relabeled build_gamma\(6\) --budget 1000: "
            r"\d+ orbits, \d+ nodes, median of 9 \d+\.\d\d ms",
        ),
        (("imports",), rf"import hsc\.cli: median of 5 {MS}, {PEAK}, added[ \w.]*"),
        (
            ("names", "hsc", "hsc.cli"),
            r"hsc\.__all__: \d+ names\nhsc\.cli\.__all__: \d+ names",
        ),
    ]
    for args, pattern in cases:
        done = cost(*args)
        assert done.returncode == 0, (args, done.stderr)
        assert re.fullmatch(pattern + "\n", done.stdout), (args, done.stdout)


def test_gate_exits_1_unless_the_call_exits_the_expected_code():
    line = rf"residues --mod 6: exit 2, median of 1 {MS}, {PEAK}\n"
    for expected, status in ((2, 0), (0, 1), (1, 1)):
        done = cost("gate", expected, "residues", "--mod", 6)
        assert done.returncode == status, (expected, done.stderr)
        assert re.fullmatch(line, done.stdout)
        assert done.stderr == "error: modulus must be a power of two, got 6\n"
