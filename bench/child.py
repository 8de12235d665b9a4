"""One workload process: import ``hsc``, run a fixed script of in-process
``hsc.cli.main(argv)`` calls, and write what each call returned.

Usage: ``python3 -m bench.child PLAN.json RESULT.json`` with ``src`` on
``PYTHONPATH``.  The plan holds ``argvs`` (a list of argument lists) and
``trace`` (whether to record spans).  Checking the outputs is left to the
parent, so this process holds little besides the program and its data.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
from itertools import combinations
from math import comb
from time import perf_counter


# Order whose triples one pass of the reference loop walks: about 3 ms.
REFERENCE_ORDER = 30
# Seconds between reference passes while the script runs.
REFERENCE_PERIOD_S = 0.05


def reference_pass():
    """A fixed loop in the program's own idiom: walk the triples of a small
    order, re-sort each, rank it with ``math.comb`` and test and set its
    byte in an indicator."""
    bits = bytearray(comb(REFERENCE_ORDER, 3))
    hits = 0
    for a, b, c in combinations(range(REFERENCE_ORDER), 3):
        x, y, z = sorted((c, a, b))
        r = comb(x, 1) + comb(y, 2) + comb(z, 3)
        hits += bits[r]
        bits[r] = 1
    return hits


class ReferenceClock:
    """Runs one reference pass every ``REFERENCE_PERIOD_S`` of wall time,
    from a ``SIGALRM`` handler, and records ``(start, seconds)`` of each.

    The machine's speed drifts by tens of percent within a minute, because
    other tenants share its cores.  The passes slow down with it, so a
    call's time divided by the passes taken during it cancels most of the
    drift.  The handler runs between bytecodes of the program, so the
    passes land inside long calls too; their time is subtracted from the
    call that they interrupted.  They add about 6% to a process's run time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        # The pass must not run the program's garbage collections.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_pass()
        self.samples.append((t0, perf_counter() - t0))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_script(cli, argvs):
    """Call ``cli.main`` on each argv and return the outcomes.

    ``cli.main`` is looked up on every call, so a tracer installed on the
    module is seen.  Each outcome's ``start`` and ``seconds`` span the call.
    """
    outcomes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse reports usage errors this way
                rc = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - t0
        outcomes.append(
            {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "start": t0, "seconds": seconds}
        )
    return outcomes


def peak_rss_kb() -> int:
    """High-water resident set size of this process, in KiB.

    ``ru_maxrss`` would do, except that Linux carries it across ``execve``
    from the parent that forked this process; ``VmHWM`` counts only this
    process image.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(plan_path, result_path):
    with open(plan_path) as f:
        plan = json.load(f)
    t0 = perf_counter()
    from hsc import cli

    import_s = perf_counter() - t0
    tracer, clock = None, ReferenceClock()
    if plan["trace"]:
        from bench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
        # No reference passes here: they would land inside the spans.
        outcomes = run_script(cli, plan["argvs"])
    else:
        with clock:
            outcomes = run_script(cli, plan["argvs"])
    result = {
        "import_s": import_s,
        "reference": clock.samples,
        "peak_rss_kb": peak_rss_kb(),
        "outcomes": outcomes,
    }
    if tracer is not None:
        tracer.uninstall()
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(*sys.argv[1:])
