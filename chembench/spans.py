"""Span tracing for the per-layer run, installed from outside the program.

``installed(tracer)`` replaces the public functions listed in ``LAYERS`` with
wrappers that record a span (id, name, start, end, parent, thread) per call
and add to the layer's counters. A function imported by name into another
module (``protocols`` takes ``dtw``, ``spearman``, ``greedy_pack_count`` and
the kernels that way, and so do ``axioms``, ``cli`` and the package root) is
replaced in every ``chemspace`` module that holds it, and everything is put
back when the block exits. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _load_dataset(counts, args, kwargs, result):
    counts["records"] += len(result)


def _pairwise(counts, args, kwargs, result):
    words = args[0]
    n = words.shape[0]
    counts["pairs"] += n * n
    counts["bytes_computed"] += n * n * words.shape[1] * 8


def _row(counts, args, kwargs, result):
    counts["entries"] += len(result)


def _greedy(counts, args, kwargs, result):
    order = args[3] if len(args) > 3 else kwargs["order"]
    counts["admitted"] += len(result)
    counts["scanned"] += len(order)


def _dtw(counts, args, kwargs, result):
    counts["cells"] += len(args[0]) * len(args[1])


def _render(counts, args, kwargs, result):
    counts["bytes"] += len(result.encode("utf-8"))


KERNELS = ("diversity", "sum_diversity", "diameter", "sum_diameter", "bottleneck", "sum_bottleneck", "dpp")

# (module, attribute, span name, counter). An attribute "Class.method" is
# replaced on the class.
LAYERS = (
    ("fingerprints", "load_dataset", "fingerprints.load_dataset", _load_dataset),
    ("fingerprints", "Dataset.indices_for_labels", "fingerprints.indices_for_labels", None),
    ("distances", "pairwise_tanimoto", "distances.pairwise_tanimoto", _pairwise),
    ("distances", "tanimoto_row", "distances.tanimoto_row", _row),
    *(("measures", f"{k}_from_dmatrix", f"measures.{k}", None) for k in KERNELS),
    ("circles", "greedy_pack_positions", "circles.greedy_pack_positions", _greedy),
    ("circles", "circles_exact", "circles.circles_exact", None),
    ("circles", "max_independent_set", "circles.max_independent_set", None),
    ("stats", "dtw", "stats.dtw", _dtw),
    ("stats", "spearman", "stats.spearman", None),
    ("protocols", "protocol_fixed", "protocols.protocol_fixed", None),
    ("protocols", "protocol_growing", "protocols.protocol_growing", None),
    ("axioms", "random_world", "axioms.random_world", None),
    ("axioms", "world_measure", "axioms.world_measure", None),
    ("cli", "render_json", "cli.render_json", _render),
)


class Tracer:
    """Spans and counters of the calls made while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, counter):
        spans, counts, ids, local = self.spans, self.counts[name], self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += end - start - child_time[span_id]
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def write(self, path: Path, round_no: int, append: bool) -> None:
        with path.open("a" if append else "w", encoding="utf-8") as fh:
            if not append:
                fh.write("round\tid\tname\tstart\tend\tparent\tthread\n")
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(f"{round_no}\t{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{thread}\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every layer function in every chemspace module, then restore."""
    for module_name in {layer[0] for layer in LAYERS}:
        importlib.import_module(f"chemspace.{module_name}")
    modules = [m for name, m in list(sys.modules.items()) if name == "chemspace" or name.startswith("chemspace.")]
    undo = []
    try:
        for module_name, attr, name, counter in LAYERS:
            home = sys.modules[f"chemspace.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, tracer.wrap(name, original, counter))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            traced = tracer.wrap(name, original, counter)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, traced)
                    undo.append((module, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
