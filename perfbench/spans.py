"""Spans around clk's public functions, recorded from outside clk.

clk's modules import each other's functions by name, so a wrapper must
replace the name in every module that looks it up (``clk.cli.k0_report``,
``clk.ktheory.smith_normal_form``, ``clk.linalg.smith_normal_form``, ...).
Each span records its name, parent span, start and end, and the request it
belongs to; spans stay in memory and are written out when the run ends.

Counts come from the wrapped functions' return values (``visited``, the
outcome class of ``equivalent``, ``U``/``V`` of a Smith form, diagram
nodes), never from clk internals.  Reading them takes time inside the
parent span; that interval is recorded with the span and excluded from the
parent's self time.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

# Wrapped functions by home module, with the per-layer time metric that
# collects their self time.
TARGETS = {
    "clk.graphs": {"parse_graph": "graphs.parse_ms"},
    "clk.presentation": {
        "build_presentation": "presentation.build_ms",
        "relation_matrix": "presentation.build_ms",
    },
    "clk.linalg": {
        "smith_normal_form": "linalg.smith_ms",
        "qspan_solve": "linalg.qspan_ms",
        "zspan_solve": "linalg.zspan_ms",
        "element_order_in_quotient": "linalg.order_ms",
    },
    "clk.semigroup": {
        "class_enumerate": "semigroup.search_ms",
        "equivalent": "semigroup.search_ms",
        "closure_contains": "semigroup.search_ms",
        "torsion_type": "semigroup.torsion_ms",
    },
    "clk.ktheory": {
        "ibn_of_algebra": "ktheory.ibn_ms",
        "k0_report": "ktheory.k0_ms",
        "corner_report": "ktheory.corner_ms",
    },
    "clk.diagrams": {
        "render_window": "diagrams.render_ms",
        "build_diagram": "diagrams.render_ms",
    },
}
REQUEST = "request"
SEARCHES = ("class_enumerate", "equivalent", "closure_contains")


def _smith_info(res):
    bits = max((abs(a).bit_length() for m in (res.U, res.V) for row in m for a in row),
               default=0)
    return len(res.U), len(res.V), bits


def _equivalent_info(res):
    kind = type(res).__name__
    if kind == "Inequivalent":
        return "k0" if res.certificate == "k0-mismatch" else "complete", 0
    if kind == "Unknown":
        return "unknown", res.visited
    return "equivalent", 0


EXTRACT = {
    "smith_normal_form": _smith_info,
    "class_enumerate": lambda res: res.visited,
    "equivalent": _equivalent_info,
    "build_diagram": lambda res: len(res.nodes),
}


class Recorder:
    """Installs the wrappers and keeps the spans of one run."""

    def __init__(self):
        # Each span: [name, parent, start, end, covered_until, info, request].
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        extract = EXTRACT.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, 0, None, self.request]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if extract is not None:
                span[5] = extract(result)
            span[4] = perf_counter_ns()
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "clk" or n.startswith("clk.")]
        for home, names in TARGETS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def root(self, main):
        """``main`` wrapped so that each CLI call is a root span of the
        current ``request``, labelled with its subcommand."""
        wrapped = self.wrap(REQUEST, main)

        def call(argv):
            index = len(self.spans)
            try:
                return wrapped(argv)
            finally:
                self.spans[index][5] = argv[0]

        return call

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i, (name, parent, start, end, _, info, request) in enumerate(self.spans):
                out.write(json.dumps([i, parent, request, name, start, end, info]) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics: totals over every recorded request."""
        covered = [0] * len(self.spans)
        for name, parent, start, _, until, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += until - start
        layer = {name: metric for names in TARGETS.values() for name, metric in names.items()}
        layer[REQUEST] = "cli.self_ms"
        time_ns = dict.fromkeys(layer.values(), 0)
        counts = dict.fromkeys(layer, 0)
        smith_dim = coeff_bits = class_states = class_ns = unknown_visited = nodes = 0
        probes = {"k0": 0, "complete": 0, "equivalent": 0, "unknown": 0}
        request_ns = 0
        for i, (name, parent, start, end, _, info, _) in enumerate(self.spans):
            self_ns = end - start - covered[i]
            time_ns[layer[name]] += self_ns
            if name == REQUEST:
                request_ns += end - start
                continue
            counts[name] += 1
            if name == "smith_normal_form":
                rows, cols, bits = info
                smith_dim = max(smith_dim, rows, cols)
                coeff_bits = max(coeff_bits, bits)
            elif name == "class_enumerate":
                class_states += info
                class_ns += self_ns
            elif name == "equivalent":
                outcome, visited = info
                unknown_visited += visited
                if parent >= 0 and self.spans[parent][0] == "torsion_type":
                    probes[outcome] += 1
            elif name == "build_diagram":
                nodes += info
        n_probes = sum(probes.values())
        out = {metric: ns / 1e6 for metric, ns in time_ns.items()}
        out.update({
            "graphs.parse_calls": counts["parse_graph"],
            "presentation.matrix_calls": counts["relation_matrix"],
            "linalg.smith_calls": counts["smith_normal_form"],
            "linalg.smith_max_dim": smith_dim,
            "linalg.coeff_max_bits": coeff_bits,
            "linalg.qspan_calls": counts["qspan_solve"],
            "linalg.zspan_calls": counts["zspan_solve"],
            "linalg.order_calls": counts["element_order_in_quotient"],
            "semigroup.search_calls": sum(counts[n] for n in SEARCHES),
            "semigroup.class_states": class_states,
            "semigroup.class_states_per_s": class_states / (class_ns / 1e9) if class_ns else 0.0,
            "semigroup.unknown_visited": unknown_visited,
            "semigroup.probes": n_probes,
            "semigroup.probes_k0_mismatch": probes["k0"],
            "semigroup.probes_complete_class": probes["complete"],
            "semigroup.probes_equivalent": probes["equivalent"],
            "semigroup.probes_unknown": probes["unknown"],
            "semigroup.probe_search_ratio": (n_probes - probes["k0"]) / n_probes if n_probes else 0.0,
            "ktheory.ibn_calls": counts["ibn_of_algebra"],
            "diagrams.nodes": nodes,
            "trace.request_ms": request_ns / 1e6,
        })
        return out
