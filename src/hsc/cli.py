"""Command-line front end for constructing and checking hypergraphs.

Subcommands: construct, verify, invariants, parity, residues, search.
Exit codes: 0 all requested checks passed, 1 a mathematical check failed,
2 usage or input errors.
"""

import argparse
import functools
import os
import sys
from math import comb

from .construct import build_gamma, swap_antimorphism, vertex_label
from .hypercore import Permutation, _edge_list_blocks, read_edge_list, write_edge_list
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


def _word(value) -> str:
    """Render one report value: booleans as true/false, tuples comma-joined."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _kv(fields) -> str:
    return "\n".join(f"{key}={_word(value)}" for key, value in fields)


def _subset_words(s, n: int) -> str:
    """Render a vertex subset, with residue_side labels when n is even."""
    if n % 2 == 0:
        m = n // 2
        return ", ".join(f"{v} ({vertex_label(v, m)})" for v in s)
    return ", ".join(str(v) for v in s)


def _spelled(path: str) -> str:
    """path as pathlib spells it, so that an error message names a file as
    before: no empty or "." parts, and two leading slashes kept, but one or
    three or more cut to one."""
    parts = [part for part in path.split("/") if part not in ("", ".")]
    lead = len(path) - len(path.lstrip("/"))
    return "/" * (1 + (lead == 2) if lead else 0) + "/".join(parts) or "."


def _read_permutation(path) -> Permutation:
    """The images in a permutation file: ASCII digits separated by ASCII
    white space, with comment lines "c" and "c <text>".  A non-ASCII byte is
    refused at its offset, as by the edge-list reader."""
    with open(_spelled(path), "rb") as f:
        data = f.read()
    data.decode("ascii")  # names the first non-ASCII byte's offset
    tokens: list[bytes] = []
    for line in data.splitlines():
        if line.startswith(b"c ") or line in (b"c", b""):
            continue
        tokens.extend(line.split())
    # Digits only: int() would also take "0_2" and "+3".
    if not all(map(bytes.isdigit, tokens)):
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
    summary = f"edges={h.edge_count} valence={(args.n - 2) // 2}"
    if args.out:
        write_edge_list(h, args.out)
        print(summary)
    else:
        sys.stdout.writelines(_edge_list_blocks(h))
        print(summary, file=sys.stderr)
    return 0


def _resolve_tau(h, args):
    """Return (tau_or_None, source_label, inconclusive_flag)."""
    selector = args.tau
    if selector == "swap":
        if h.n % 2:
            hint = "use --tau search or --tau FILE"
            raise ValueError(f"--tau swap needs an even order, got {h.n}; {hint}")
        return swap_antimorphism(h.n), "swap", False
    if selector == "search":
        try:
            tau = find_antimorphism(h, args.budget)
        except SearchBudgetExceeded:
            return None, "search", True
        return tau, "search", False
    return _read_permutation(selector), f"file:{selector}", False


def _cmd_verify(args) -> int:
    h = read_edge_list(_spelled(args.in_path))
    reg = t_subset_regularity(h, args.t)
    tau, tau_label, inconclusive = _resolve_tau(h, args)
    anti = verify_antimorphism(h, tau) if tau is not None else None
    balance_ok = 2 * h.edge_count == comb(h.n, h.k)

    fields = [
        ("n", h.n),
        ("k", h.k),
        ("t", args.t),
        ("edges", h.edge_count),
        ("balance", balance_ok),
        ("regular", reg.regular),
    ]
    if reg.regular:
        fields.append(("valence", reg.valence))
    else:
        fields += [
            ("witness", reg.witness),
            ("witness_count", reg.witness_count),
            ("first_count", reg.first_count),
        ]
    # One of true, false, none (no antimorphism exists) or inconclusive.
    anti_state = (
        "inconclusive" if inconclusive else "none" if anti is None else _word(anti.ok)
    )
    fields += [("antimorphism", tau_label), ("antimorphism_ok", anti_state)]
    if anti_state == "false":
        fields.append(("antimorphism_witness", anti.witness))
    all_ok = balance_ok and reg.regular and anti_state == "true"
    fields.append(("result", "pass" if all_ok else "fail"))
    print(_kv(fields) if args.format == "kv" else _verify_text(dict(fields)))
    return 0 if all_ok else 1


def _verify_text(f) -> str:
    """The verify report as sentences, from the same fields as its kv form."""
    n, k, t, edges = f["n"], f["k"], f["t"], f["edges"]
    if f["regular"]:
        coverage = f"regular, every {t}-subset lies in {f['valence']} edges"
    else:
        coverage = (
            f"NOT regular; {{{_subset_words(f['witness'], n)}}} lies in "
            f"{f['witness_count']} edges while the colex-first subset lies in "
            f"{f['first_count']}"
        )
    state = f["antimorphism_ok"]
    verdict = {
        "true": "verified",
        "none": "none found",
        "inconclusive": "inconclusive, budget exhausted",
    }.get(state) or f"FAILS at {{{_subset_words(f['antimorphism_witness'], n)}}}"
    return "\n".join(
        [
            f"hypergraph n={n} k={k} with {edges} edges",
            f"edge balance: {edges} of {comb(n, k)} subsets are edges; "
            + ("balanced" if f["balance"] else "NOT balanced"),
            f"{t}-subset coverage: {coverage}",
            f"antimorphism ({f['antimorphism']}): {verdict}",
            f"verdict: {f['result']}",
        ]
    )


def _cmd_invariants(args) -> int:
    h = read_edge_list(_spelled(args.in_path))
    fields = [("n", h.n), ("k", h.k), ("edges", h.edge_count)]
    if h.k == 3 and h.n >= 4:
        k4 = tuple(vertex_invariant_k4(h, v) for v in range(h.n))
        fields += [("k4", k4), ("k4_distinct", len(set(k4)))]
    try:
        orbits = automorphism_vertex_orbits(h, node_budget=args.budget)
    except (SearchOrderError, SearchBudgetExceeded):
        fields.append(("orbit_count", "inconclusive"))
    else:
        fields += [("orbit", orbit) for orbit in orbits]
        fields.append(("orbit_count", len(orbits)))
    if h.k == 3:
        reg = t_subset_regularity(h, 2)
        if reg.regular and reg.valence == 2:
            fields.append(
                ("euler_characteristic", euler_characteristic_triangulation(h))
            )

    print(_kv(fields) if args.format == "kv" else _invariants_text(fields, h.n))
    return 0


def _invariants_text(fields, n: int) -> str:
    """`key: value` lines; orbits carry residue_side labels at even n only."""
    return "\n".join(
        f"{key}: "
        + (_subset_words(value, n) if key == "orbit" and n % 2 == 0 else _word(value))
        for key, value in fields
    )


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
        os.makedirs(_spelled(args.emit), exist_ok=True)
        width = max(4, len(str(len(result.regular))))
        for i, h in enumerate(result.regular):
            name = f"survivor_{i:0{width}d}.hsc"
            write_edge_list(h, _spelled(os.path.join(args.emit, name)))
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
        "--budget",
        type=int,
        action=_NonNegative,
        help="node budget for --tau search (at k = 3 a node is one image in "
        "the vertex's K4 class)",
    )
    p.add_argument("--format", choices=("text", "kv"), default="kv")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariants", help="per-vertex counts, orbits, Euler characteristic")
    p.add_argument("--in", dest="in_path", required=True, help="edge-list file")
    p.add_argument(
        "--budget",
        type=int,
        action=_NonNegative,
        help="node budget for the orbit search, pruned to group generators (at "
        "k = 3 a node is one image in the vertex's K4 class); also opts in to "
        "orders 9 and 10",
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


# main parses with one parser per process: building it costs about as much
# as a small command.  build_parser() itself returns a fresh parser.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
