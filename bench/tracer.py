"""Span tracer wrapped around the public functions of each ``hsc`` layer.

The tracer patches functions from the benchmark's side, so no file of the
program changes: each listed function is replaced in its defining module and
in every ``hsc`` module that imported it by name, and the ``Hypergraph``
constructors and ``edges`` are replaced on the class.  Spans nest through a
stack and are kept in memory; the caller writes them out when the run ends.
Per-element helpers (``rank_colex``, ``subset_rank``, ``unrank_colex``) are
left unwrapped on purpose: they run once per subset, so their time is charged
to the calling span (``hypercore.build`` ranks, ``hypercore.edges`` unranks).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("construct", "hypercore", "verify", "search", "parity", "cli")


def _text_bytes(args, result):
    return {"io_bytes": len(args[0])}


def _result_bytes(args, result):
    return {"io_bytes": len(result)}


def _regularity(args, result):
    return {"pass": int(result.regular)}


def _orbits(args, result):
    return {"orbit_count": result.orbit_count}


def _survivors(args, result):
    return {"candidates": result.examined, "survivors": len(result.regular)}


# (module, function, span key, counter).  Counters read the call's arguments
# and result and return counts to add under the span key.
FUNCTIONS = (
    ("hsc.hypercore", "to_edge_list_text", "hypercore.serialize", _result_bytes),
    ("hsc.hypercore", "write_edge_list", "hypercore.serialize", None),
    ("hsc.hypercore", "from_edge_list_text", "hypercore.parse", _text_bytes),
    ("hsc.hypercore", "read_edge_list", "hypercore.parse", None),
    ("hsc.construct", "build_gamma_families", "construct.families", None),
    ("hsc.construct", "build_gamma", "construct.gamma", None),
    ("hsc.construct", "swap_antimorphism", "construct.swap", None),
    ("hsc.verify", "t_subset_regularity", "verify.regularity", _regularity),
    ("hsc.verify", "verify_antimorphism", "verify.antimorphism", None),
    ("hsc.verify", "vertex_invariant_k4", "verify.k4", None),
    ("hsc.verify", "automorphism_vertex_orbits", "verify.orbits", None),
    ("hsc.verify", "find_antimorphism", "verify.find_antimorphism", None),
    ("hsc.verify", "euler_characteristic_triangulation", "verify.euler", None),
    ("hsc.search", "tau_orbits_on_ksubsets", "search.orbits", _orbits),
    ("hsc.search", "search_regular_sc", "search.enumerate", _survivors),
    ("hsc.parity", "admissible", "parity.admissible", None),
    ("hsc.parity", "residue_classes", "parity.residues", None),
    ("hsc.cli", "main", "cli", None),
)

# Hypergraph methods: (attribute, span key); from_ranks is a classmethod.
HYPERGRAPH_METHODS = (
    ("__init__", "hypercore.build"),
    ("from_ranks", "hypercore.build"),
    ("edges", "hypercore.edges"),
)


class Tracer:
    """Records nested spans as [key, parent index, start, end] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, key, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            calls = counts.setdefault(key, {})
            calls["calls"] = calls.get("calls", 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                for name, value in counter(args, result).items():
                    calls[name] = calls.get(name, 0) + value
            return result

        return traced

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every listed function wherever ``hsc`` modules bind it."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hsc"]
        for module_name, name, key, counter in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            wrapped = self.wrap(key, original, counter)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._patch(module, name, wrapped)
        hypergraph = getattr(sys.modules.get("hsc.hypercore"), "Hypergraph", None)
        for name, key in HYPERGRAPH_METHODS:
            attr = hypergraph.__dict__.get(name) if hypergraph else None
            if attr is None:
                self.missing.append(f"hsc.hypercore.Hypergraph.{name}")
            elif isinstance(attr, classmethod):
                self._patch(hypergraph, name, classmethod(self.wrap(key, attr.__func__)))
            else:
                self._patch(hypergraph, name, self.wrap(key, attr))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer self times and counters of one traced run."""
    by_key: dict[str, float] = {}
    for (key, *_), own in zip(spans, self_times(spans)):
        by_key[key] = by_key.get(key, 0.0) + own

    def s(key):
        return by_key.get(key, 0.0)

    def c(key, name="calls"):
        return counts.get(key, {}).get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "hypercore.edges_s": s("hypercore.edges"),
        "hypercore.edges_calls": c("hypercore.edges"),
        "hypercore.build_s": s("hypercore.build"),
        "hypercore.build_calls": c("hypercore.build"),
        "hypercore.serialize_s": s("hypercore.serialize"),
        "hypercore.parse_s": s("hypercore.parse"),
        "hypercore.io_bytes": c("hypercore.serialize", "io_bytes")
        + c("hypercore.parse", "io_bytes"),
        "construct.families_s": s("construct.families"),
        "verify.regularity_s": s("verify.regularity"),
        "verify.regularity_calls": c("verify.regularity"),
        "verify.regularity_pass_ratio": ratio(
            c("verify.regularity", "pass"), c("verify.regularity")
        ),
        "verify.antimorphism_s": s("verify.antimorphism"),
        "verify.antimorphism_calls": c("verify.antimorphism"),
        "verify.k4_s": s("verify.k4"),
        "verify.k4_calls": c("verify.k4"),
        "verify.orbits_s": s("verify.orbits"),
        "verify.find_antimorphism_s": s("verify.find_antimorphism"),
        "search.orbits_s": s("search.orbits"),
        "search.orbit_count": c("search.orbits", "orbit_count"),
        "search.enumerate_s": s("search.enumerate"),
        "search.candidates": c("search.enumerate", "candidates"),
        "search.survivor_ratio": ratio(
            c("search.enumerate", "survivors"), c("search.enumerate", "candidates")
        ),
        "parity.admissible_s": s("parity.admissible"),
        "parity.residues_s": s("parity.residues"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for key, t in by_key.items() if key.split(".")[0] == layer
        )
    return metrics
