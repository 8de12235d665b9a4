"""What `hsc` commands and kernels cost, one line per mode's run:
`PYTHONPATH=src python tools/cost.py MODE ARGS...`.  Times are medians of
in-process calls, and a peak is the process's VmHWM."""

import io
import json
import os
import sys
import time


def peak_mb() -> float:
    """This process's peak resident memory (VmHWM) in MB."""
    with open("/proc/self/status") as status:
        return next(int(s.split()[1]) for s in status if s.startswith("VmHWM")) / 1024


def median(values):
    values = sorted(values)
    middle = len(values) // 2
    return (values[middle] + values[~middle]) / 2


def timed(calls: int, call):
    """The median wall time (s) of `calls` calls of call(), and the last result."""
    walls = []
    for _ in range(calls):
        start = time.perf_counter()
        result = call()
        walls.append(time.perf_counter() - start)
    return median(walls), result


def cli(calls, *argv):
    """cli CALLS ARGV...: the exit code and time of hsc.cli.main(ARGV), then the peak."""
    import contextlib
    from hsc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        wall, code = timed(int(calls), lambda: main(list(argv)))
    peak = peak_mb()
    shown = " ".join(map(os.path.basename, argv))
    print(f"{shown}: exit {code}, median of {calls} {wall * 1e3:.1f} ms, VmHWM {peak:.1f} MB")
    return code, peak


def gate(code, *argv):
    """gate CODE ARGV...: `cli 1 ARGV...`; exit 1 unless it exits CODE under 100 MB."""
    exit_code, peak = cli(1, *argv)
    sys.exit(exit_code != int(code) or peak >= 100)


def cover(n, k, t):
    """cover N K T: coverage(h, T) on a seeded random half of the K-subsets."""
    import random
    from math import comb
    from hsc.hypercore import Hypergraph, coverage

    rng = random.Random(16)
    ranks = [r for r in range(comb(int(n), int(k))) if rng.random() < 0.5]
    h = Hypergraph.from_ranks(int(n), int(k), ranks)
    wall, _ = timed(9, lambda: coverage(h, int(t)))
    print(f"coverage n={n} k={k} t={t}: median of 9 {wall * 1e3:.2f} ms")


def parse(path):
    """parse FILE: read_edge_list(FILE), the parse with no check after it."""
    from hsc.hypercore import read_edge_list

    wall, h = timed(5, lambda: read_edge_list(path))
    name = os.path.basename(path)
    print(f"read_edge_list {name} ({h.edge_count} edges): median of 5 {wall * 1e3:.1f} ms")


def k4(n):
    """k4 N: one K4 profile (and its pair masks) of build_gamma(N)."""
    from hsc.construct import build_gamma
    from hsc.verify import vertex_invariant_k4

    h = build_gamma(int(n))
    wall, _ = timed(1, lambda: vertex_invariant_k4(h, 0))
    print(f"vertex_invariant_k4 build_gamma({n}): one call {wall:.2f} s, VmHWM {peak_mb():.1f} MB")


def anti(n):
    """anti N: antimorphism checks of build_gamma(N) with the swap and with a
    seeded random permutation, then the swap's image ranks of the pairs."""
    import random
    from collections import deque
    from hsc.colex import _image_ranks
    from hsc.construct import build_gamma, swap_antimorphism
    from hsc.hypercore import Permutation
    from hsc.verify import verify_antimorphism

    n = int(n)
    h = build_gamma(n)
    images = list(range(n))
    random.Random(26).shuffle(images)
    checks = []
    for tau in (swap_antimorphism(n), Permutation(images)):
        wall, ok = timed(1, lambda: verify_antimorphism(h, tau).ok)
        checks.append(f"{wall:.2f} s (ok={ok})")
    swap = swap_antimorphism(n).images
    ranks, _ = timed(1, lambda: deque(_image_ranks(n, 2, swap), maxlen=0))
    print(
        f"verify_antimorphism build_gamma({n}): swap {checks[0]}, random {checks[1]}, "
        f"swap's image ranks alone {ranks * 1e3:.1f} ms, VmHWM {peak_mb():.1f} MB"
    )


def prefix(n, k):
    """prefix N K: _prefix_ranks(N, K), the parse's map of line prefixes."""
    from hsc.hypercore import _prefix_ranks

    wall, keys = timed(5, lambda: len(_prefix_ranks(int(n), int(k))))
    print(f"_prefix_ranks({n}, {k}) ({keys} keys): median of 5 {wall * 1e3:.1f} ms")


def orbits(n, budget):
    """orbits N BUDGET: the orbit search on a relabeled build_gamma(N), its nodes."""
    import random
    from hsc.construct import build_gamma
    from hsc.hypercore import Hypergraph
    from hsc.verify import SearchBudgetExceeded, automorphism_vertex_orbits

    n, budget = int(n), int(budget)
    images = list(range(n))
    random.Random(27).shuffle(images)
    h = Hypergraph(n, 3, [sorted(images[v] for v in e) for e in build_gamma(n).edges()])
    wall, found = timed(9, lambda: automorphism_vertex_orbits(h, node_budget=budget))
    low, high = 0, budget
    while low < high:
        middle = (low + high) // 2
        try:
            automorphism_vertex_orbits(h, node_budget=middle)
            high = middle
        except SearchBudgetExceeded:
            low = middle + 1
    print(
        f"automorphism_vertex_orbits relabeled build_gamma({n}) --budget {budget}: "
        f"{len(found)} orbits, {low} nodes, median of 9 {wall * 1e3:.2f} ms"
    )


def imports(child=None):
    """imports: import hsc.cli in 5 fresh processes (no bytecode cache, only json,
    io and time loaded): its time, the peak and the modules outside hsc it added."""
    if child:
        before = set(sys.modules)
        wall, _ = timed(1, lambda: __import__("hsc.cli"))
        added = sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "hsc")
        return print(json.dumps([wall, peak_mb(), added]))
    import subprocess

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, __file__, "imports", "child"]
    runs = [
        json.loads(subprocess.run(command, env=env, capture_output=True, check=True).stdout)
        for _ in range(5)
    ]
    walls, peaks, added = zip(*runs)
    print(
        f"import hsc.cli: median of 5 {median(walls) * 1e3:.1f} ms, "
        f"VmHWM {median(peaks):.1f} MB, added {' '.join(added[0])}"
    )


def names(*modules):
    """names MODULE...: the number of names in each module's __all__."""
    for module in modules:
        __import__(module)
        print(f"{module}.__all__: {len(sys.modules[module].__all__)} names")


MODES = {f.__name__: f for f in (cli, gate, cover, parse, k4, anti, prefix, orbits, imports, names)}

if __name__ == "__main__":
    MODES[sys.argv[1]](*sys.argv[2:])
