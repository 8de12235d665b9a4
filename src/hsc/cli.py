"""Command-line front end for constructing and checking hypergraphs.

Subcommands: construct, verify, invariants, parity, residues, search.
Exit codes: 0 all requested checks passed, 1 a mathematical check failed,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from math import comb
from pathlib import Path

from .construct import build_gamma, swap_antimorphism, vertex_label
from .hypercore import Permutation, read_edge_list, to_edge_list_text, write_edge_list
from .parity import PeriodicityError, admissible, residue_classes
from .search import (
    CandidateCapExceeded,
    DEFAULT_CANDIDATE_CAP,
    InfeasibleAntimorphismError,
    search_regular_sc,
)
from .verify import (
    SearchBudgetExceeded,
    SearchOrderError,
    euler_characteristic_triangulation,
    find_antimorphism,
    t_subset_regularity,
    verify_antimorphism,
    automorphism_vertex_orbits,
    vertex_invariant_k4,
)

__all__ = ["build_parser", "main"]


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


def _subset_words(s, n: int) -> str:
    """Render a vertex subset, with residue_side labels when n is even."""
    if n % 2 == 0:
        m = n // 2
        return ", ".join(f"{v} ({vertex_label(v, m)})" for v in s)
    return ", ".join(str(v) for v in s)


def _read_permutation(path) -> Permutation:
    tokens: list[str] = []
    for line in Path(path).read_text().split("\n"):
        if line.startswith("c ") or line in ("c", ""):
            continue
        tokens.extend(line.split())
    # Plain ASCII digits only: int() would also take "0_2", "+3" and
    # non-ASCII digits.
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"permutation file {path} holds a non-integer token")
    return Permutation(map(int, tokens))


class _NonNegative(argparse.Action):
    """Store an int option, rejecting a negative value as a usage error."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be non-negative, got {value}")
        setattr(namespace, self.dest, value)


def _cmd_construct(args) -> int:
    h = build_gamma(args.n)
    text = to_edge_list_text(h)
    summary = f"edges={h.edge_count} valence={(args.n - 2) // 2}"
    if args.out:
        Path(args.out).write_bytes(text.encode("ascii"))
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _resolve_tau(h, args):
    """Return (tau_or_None, source_label, inconclusive_flag)."""
    selector = args.tau
    if selector == "swap":
        return swap_antimorphism(h.n), "swap", False
    if selector == "search":
        budget = args.budget
        try:
            tau = find_antimorphism(h, budget, allow_large=budget is not None)
        except SearchBudgetExceeded:
            return None, "search", True
        return tau, "search", False
    return _read_permutation(selector), f"file:{selector}", False


def _cmd_verify(args) -> int:
    h = read_edge_list(args.in_path)
    t = args.t
    balance_ok = 2 * h.edge_count == comb(h.n, h.k)
    reg = t_subset_regularity(h, t)
    tau, tau_label, inconclusive = _resolve_tau(h, args)
    anti = verify_antimorphism(h, tau) if tau is not None else None

    all_ok = balance_ok and reg.regular and anti is not None and anti.ok
    if args.format == "kv":
        lines = [
            f"n={h.n}",
            f"k={h.k}",
            f"t={t}",
            f"edges={h.edge_count}",
            f"balance={_bool_word(balance_ok)}",
            f"regular={_bool_word(reg.regular)}",
        ]
        if reg.regular:
            lines.append(f"valence={reg.valence}")
        else:
            lines.append(f"witness={','.join(map(str, reg.witness))}")
            lines.append(f"witness_count={reg.witness_count}")
            lines.append(f"first_count={reg.first_count}")
        lines.append(f"antimorphism={tau_label}")
        if inconclusive:
            lines.append("antimorphism_ok=inconclusive")
        elif tau is None:
            lines.append("antimorphism_ok=none")
        else:
            lines.append(f"antimorphism_ok={_bool_word(anti.ok)}")
            if not anti.ok:
                lines.append(
                    f"antimorphism_witness={','.join(map(str, anti.witness))}"
                )
        lines.append(f"result={'pass' if all_ok else 'fail'}")
    else:
        lines = [f"hypergraph n={h.n} k={h.k} with {h.edge_count} edges"]
        lines.append(
            f"edge balance: {h.edge_count} of {comb(h.n, h.k)} subsets are edges; "
            + ("balanced" if balance_ok else "NOT balanced")
        )
        if reg.regular:
            lines.append(
                f"{t}-subset coverage: regular, every {t}-subset lies in "
                f"{reg.valence} edges"
            )
        else:
            lines.append(
                f"{t}-subset coverage: NOT regular; {{{_subset_words(reg.witness, h.n)}}} "
                f"lies in {reg.witness_count} edges while the colex-first subset "
                f"lies in {reg.first_count}"
            )
        if inconclusive:
            lines.append(f"antimorphism ({tau_label}): inconclusive, budget exhausted")
        elif tau is None:
            lines.append(f"antimorphism ({tau_label}): none found")
        elif anti.ok:
            lines.append(f"antimorphism ({tau_label}): verified")
        else:
            lines.append(
                f"antimorphism ({tau_label}): FAILS at "
                f"{{{_subset_words(anti.witness, h.n)}}}"
            )
        lines.append(f"verdict: {'pass' if all_ok else 'fail'}")
    print("\n".join(lines))
    return 0 if all_ok else 1


def _cmd_invariants(args) -> int:
    h = read_edge_list(args.in_path)
    lines = [f"n={h.n}", f"k={h.k}", f"edges={h.edge_count}"]

    k4 = None
    if h.k == 3 and h.n >= 4:
        k4 = [vertex_invariant_k4(h, v) for v in range(h.n)]
        lines.append("k4=" + ",".join(map(str, k4)))
        lines.append(f"k4_distinct={len(set(k4))}")

    try:
        orbits = automorphism_vertex_orbits(
            h, allow_large=args.budget is not None, node_budget=args.budget
        )
    except (SearchOrderError, SearchBudgetExceeded):
        lines.append("orbit_count=inconclusive")
    else:
        for orbit in orbits:
            lines.append("orbit=" + ",".join(map(str, orbit)))
        lines.append(f"orbit_count={len(orbits)}")

    if h.k == 3:
        reg = t_subset_regularity(h, 2)
        if reg.regular and reg.valence == 2:
            lines.append(
                f"euler_characteristic={euler_characteristic_triangulation(h)}"
            )

    if args.format == "text":
        out = []
        for line in lines:
            key, _, value = line.partition("=")
            if key == "orbit" and h.n % 2 == 0:
                value = _subset_words([int(v) for v in value.split(",")], h.n)
            out.append(f"{key}: {value}")
        print("\n".join(out))
    else:
        print("\n".join(lines))
    return 0


def _cmd_parity(args) -> int:
    report = admissible(args.n, args.k, args.t)
    print("\n".join(report.to_lines()))
    return 0


def _cmd_residues(args) -> int:
    try:
        residues = residue_classes(args.k, args.t, args.mod)
    except PeriodicityError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 1
    print("{" + ", ".join(map(str, sorted(residues))) + "}")
    return 0


def _cmd_search(args) -> int:
    tau = swap_antimorphism(args.n)
    try:
        result = search_regular_sc(args.n, args.k, args.t, tau, cap=args.cap)
    except CandidateCapExceeded as exc:
        print(f"error: {exc}; raise the cap with --cap", file=sys.stderr)
        return 2
    except InfeasibleAntimorphismError as exc:
        # An odd orbit is a mathematical result about the swap, not bad input.
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(result.summary_line())
    if args.emit:
        emit_dir = Path(args.emit)
        emit_dir.mkdir(parents=True, exist_ok=True)
        width = max(4, len(str(len(result.regular))))
        for i, h in enumerate(result.regular):
            write_edge_list(h, emit_dir / f"survivor_{i:0{width}d}.hsc")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsc",
        description=(
            "Construct and verify subset-regular hypergraphs that are "
            "exchanged with their complements by a vertex permutation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the order-n hypergraph")
    p.add_argument("--n", type=int, required=True, help="order (n >= 6, n % 4 == 2)")
    p.add_argument("--out", help="output edge-list path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check balance, regularity, antimorphism")
    p.add_argument("--in", dest="in_path", required=True, help="edge-list file")
    p.add_argument("--t", type=int, default=2, help="subset size for regularity")
    p.add_argument(
        "--tau",
        default="swap",
        help="antimorphism selector: swap, search, or a permutation file path",
    )
    p.add_argument(
        "--budget", type=int, action=_NonNegative, help="node budget for --tau search"
    )
    p.add_argument("--format", choices=("text", "kv"), default="kv")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariants", help="per-vertex counts, orbits, Euler characteristic")
    p.add_argument("--in", dest="in_path", required=True, help="edge-list file")
    p.add_argument(
        "--budget",
        type=int,
        action=_NonNegative,
        help="node budget for the orbit search; also opts in to orders 9 and 10",
    )
    p.add_argument("--format", choices=("text", "kv"), default="kv")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("parity", help="binomial parity admissibility report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("residues", help="admissible order residues mod a power of two")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--mod", type=int, default=4)
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("search", help="enumerate side-swap candidates, filter regular")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--t", type=int, default=2)
    p.add_argument(
        "--cap", type=int, action=_NonNegative, default=DEFAULT_CANDIDATE_CAP
    )
    p.add_argument("--emit", help="directory for surviving edge-list files")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
