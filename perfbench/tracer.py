"""Per-layer spans and work counts, recorded from outside pinkey.

The tracer replaces each layer's public entry point *in the namespace that
calls it* (``pinkey.cli.solve_capacity``, ``pinkey.capacity.solve_lp``,
...) with a wrapper that records a span and, where the layer does
countable work, a count. Nothing in ``src/`` changes, and ``uninstall``
puts every original back.

A span is (id, parent id, layer, label, request id, start, end). Spans stay
in memory until the run ends. A layer's self time is the sum over its
spans of the duration minus the time covered by child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter

LAYERS = ("cli", "modelfile", "model", "capacity", "simplex", "partitions",
          "packing", "protocol", "audit", "gf2")
ROUTES = ("paths", "spanning", "steiner_exact", "steiner_greedy")
COUNTS = ("modelfile.bytes_in", "capacity.lp_columns", "partitions.visited",
          "packing.edges", "packing.trees", "protocol.broadcasts", "gf2.cells",
          "audit.bruteforce_assignments", "cli.bytes_out")


def _packing_route(args, kwargs) -> str:
    """The route steiner_packing takes, by its documented dispatch rule."""
    graph, target = args[0], args[1]
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    if len(target) == 2:
        return "paths"
    if len(target) == graph.m:
        return "spanning"
    return "steiner_greedy" if mode == "greedy" else "steiner_exact"


def _count_packing(args, kwargs, result):
    return (("packing.edges", args[0].total_edges()),
            ("packing.trees", len(result.trees)))


# (module, attribute, layer, label function or None, count function or None)
ENTRY_POINTS = (
    ("pinkey.cli", "main", "cli", None, None),
    ("pinkey.cli", "load_model", "modelfile", None,
     lambda a, k, r: (("modelfile.bytes_in", os.path.getsize(a[0])),)),
    ("pinkey.cli", "realize_multigraph", "model", None, None),
    ("pinkey.cli", "base_scale", "model", None, None),
    ("pinkey.cli", "solve_capacity", "capacity", None, None),
    ("pinkey.capacity", "solve_lp", "simplex", None,
     lambda a, k, r: (("capacity.lp_columns", len(a[0])),)),
    ("pinkey.cli", "best_partition", "partitions", None, None),
    ("pinkey.packing", "nash_williams_count", "partitions", None, None),
    ("pinkey.cli", "steiner_packing", "packing", _packing_route,
     _count_packing),
    ("pinkey.cli", "draw_edge_keys", "protocol", None, None),
    ("pinkey.cli", "run_protocol", "protocol", None,
     lambda a, k, r: (("protocol.broadcasts", len(r.transcript)),)),
    ("pinkey.audit", "recover_key", "protocol", None, None),
    ("pinkey.cli", "export_transcript", "protocol", None, None),
    ("pinkey.cli", "audit", "audit", None, None),
    ("pinkey.audit", "security_index_rank", "audit", None, None),
    ("pinkey.audit", "security_index_bruteforce", "audit", None,
     lambda a, k, r: (("audit.bruteforce_assignments",
                       1 << len(a[0].edge_order)),)),
    ("pinkey.gf2", "gf2_rank", "gf2", None,
     lambda a, k, r: (("gf2.cells", len(a[0]) * a[1]),)),
)
# Partition enumeration is lazy and interleaved with its caller, so it gets
# a yield count but no span of its own.
COUNTED_GENERATORS = (
    ("pinkey.partitions", "enumerate_partitions", "partitions.visited"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request: object = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, layer, label, count in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr,
                        self._span_wrapper(getattr(module, attr), layer,
                                           label or attr, count))
        for module_name, attr, counter in COUNTED_GENERATORS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr,
                        self._yield_counter(getattr(module, attr), counter))
        for name in self.missing:
            print(f"perfbench: entry point {name} not found; its layer "
                  "reports nothing from it", file=sys.stderr)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, original, layer, label, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on exit
            parent = stack[-1] if stack else None
            name = label(args, kwargs) if callable(label) else label
            stack.append(span_id)
            start = clock()
            failed = False
            try:
                result = original(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, layer, name, self.request,
                                  start, end, failed)
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    counts[key] += amount
            return result

        return traced

    def _yield_counter(self, original, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts[counter] += 1
                yield item

        return counted

    def summary(self) -> Counter:
        """Per-layer totals over all spans: self time, calls and errors per
        layer, self time per packing route."""
        spans = self.spans
        child = Counter()
        for span in spans:
            if span[1] is not None:
                child[span[1]] += span[6] - span[5]
        out: Counter = Counter()
        for span_id, _, layer, name, _, start, end, failed in spans:
            own = end - start - child[span_id]
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
            out[f"{layer}.errors"] += failed
            if layer == "packing":
                out[f"packing.{name}.self_s"] += own
        return out

    def dump(self) -> list[dict]:
        keys = ("id", "parent", "layer", "label", "request", "start", "end",
                "failed")
        return [dict(zip(keys, span)) for span in self.spans]
