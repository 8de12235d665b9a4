"""Run one benchmark workload against the ``hsc`` command line.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Until ``--seconds`` have passed (and at least a few times), the benchmark
generates a fresh seeded input set, starts a fresh single-threaded Python
process that imports ``hsc`` and runs the workload's fixed script of
in-process ``hsc.cli.main(argv)`` calls, then checks every exit code and
output.  It prints each metric as ``name value unit`` and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, or with ``--trace 1`` the
per-layer metrics from traced processes, alternated with untraced ones that
give the tracing overhead.  Each metric is the median over the processes.

Exit codes: 0 all outputs correct, 1 an output was wrong or a workload
process failed, 2 the program could not be imported.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from bench import check, tracer, workloads  # noqa: E402

COMMANDS = ("construct", "verify", "invariants", "search")
# End-to-end metrics in the final JSON line: the ones every workload has, that
# are never zero and that repeat within their bound.  wall_s, the per-command
# times and error_ratio are printed above it (see bench/METRICS.md).
GATED = ("setup_s", "wall_norm", "peak_rss_mb")
# Fewest workload processes per run, so that every median has samples.
MIN_PROCESSES = 3
# Every run ends within this many seconds, whatever --seconds asks.
HARD_LIMIT_S = 170


def account(outcomes, samples) -> float | None:
    """Set each outcome's ``net`` seconds, without the reference passes that
    interrupted the call, and return the script time in reference passes:
    each call's net time divided by the mean of the passes taken during it,
    or of the nearest ones before and after when it was too short for any.
    Returns None when no passes were taken."""
    starts = [t for t, _ in samples]
    total = 0.0
    for o in outcomes:
        lo = bisect.bisect_left(starts, o["start"])
        hi = bisect.bisect_left(starts, o["start"] + o["seconds"])
        inside = [d for _, d in samples[lo:hi]]
        o["net"] = o["seconds"] - sum(inside)
        near = inside or [d for _, d in samples[max(lo - 1, 0) : lo + 1]]
        if near:
            total += o["net"] / (sum(near) / len(near))
    return total if samples else None


def run_process(workload, seed, index, traced, work_root, deadline):
    """Generate one input set, run it in a fresh process, check the outputs."""
    work = work_root / f"p{index}"
    work.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}:{index}")
    t0 = perf_counter()
    steps = workloads.WORKLOADS[workload](rng, work)
    gen_s = perf_counter() - t0
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"argvs": [s.argv for s in steps], "trace": traced}))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.child", str(plan), str(result)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(result.read_text())
    failures = []
    for step, outcome in zip(steps, res["outcomes"], strict=True):
        found = check.problems(step, outcome)
        if found:
            failures.append(f"{' '.join(step.argv)}: {'; '.join(found)}")
    shutil.rmtree(work)
    wall_norm = account(res["outcomes"], res["reference"])
    sample = {
        "traced": traced,
        "attempted": len(steps),
        "failures": failures,
        "setup_s": gen_s + res["import_s"],
        "wall_s": sum(o["net"] for o in res["outcomes"]),
        "wall_norm": wall_norm,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "commands": {s.command for s in steps},
    }
    for name in COMMANDS:
        sample[f"cmd.{name}_s"] = sum(
            o["net"] for s, o in zip(steps, res["outcomes"]) if s.command == name
        )
    if traced:
        sample["layers"] = tracer.layer_metrics(res["spans"], res["counts"])
        if res["missing"]:
            print(f"tracer: not found: {', '.join(res['missing'])}", file=sys.stderr)
    return sample


def summarize(samples):
    """Median end-to-end metrics and, for traced runs, per-layer metrics,
    each as (value, unit)."""
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(len(s["failures"]) for s in samples)
    end_to_end = {
        "setup_s": (median(s["setup_s"] for s in plain), "s"),
        "wall_s": (median(s["wall_s"] for s in plain), "s"),
        "wall_norm": (median(s["wall_norm"] for s in plain), "ref"),
        "peak_rss_mb": (median(s["peak_rss_mb"] for s in plain), "MB"),
    }
    # Per-command times exist only on workloads that run the command.
    for name in COMMANDS:
        if name in samples[0]["commands"]:
            end_to_end[f"{name}_s"] = (median(s[f"cmd.{name}_s"] for s in plain), "s")
    end_to_end["error_ratio"] = (failed / attempted, "ratio")
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else (
                "B" if key.endswith("_bytes") else "count"
            )
            layers[key] = (median(s["layers"][key] for s in traced), unit)
        for name in COMMANDS:
            layers[f"cmd.{name}_s"] = (median(s[f"cmd.{name}_s"] for s in plain), "s")
        layers["trace.overhead_ratio"] = (
            median(s["wall_s"] for s in traced) / end_to_end["wall_s"][0],
            "ratio",
        )
    return end_to_end, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import hsc.cli  # noqa: F401  (also leaves compiled bytecode for the workers)
    except ImportError as exc:
        print(f"error: cannot import hsc from {SRC}: {exc}", file=sys.stderr)
        return 2

    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    least = MIN_PROCESSES + 1 if args.trace else MIN_PROCESSES
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    samples = []
    longest = 0.0
    try:
        # Start another process only while it can finish within --seconds.
        while len(samples) < least or perf_counter() - start + longest <= args.seconds:
            traced = bool(args.trace) and len(samples) % 2 == 1
            t0 = perf_counter()
            samples.append(
                run_process(args.workload, args.seed, len(samples), traced, work_root, deadline)
            )
            longest = max(longest, perf_counter() - t0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    end_to_end, layers = summarize(samples)
    failures = [f for s in samples for f in s["failures"]]
    for failure in failures:
        print(f"mismatch: {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} processes={len(samples)} "
          f"traced={sum(s['traced'] for s in samples)}")
    for name, (value, unit) in {**end_to_end, **layers}.items():
        print(f"{name} {value:.6g} {unit}")
    reported = layers if args.trace else {k: end_to_end[k] for k in GATED}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
