"""Spans around the public entry points of each layer, and self-time tables.

The benchmark's traced run installs wrappers (:func:`instrument`) around
the public functions each layer exposes; the program itself is unchanged.
A span records name, start, end, parent and run id, is kept in memory and
is written out when the benchmark ends (:meth:`Tracer.dump`).  Calls too
frequent for one span each (the ACFV observer hooks, once per cache hit)
are *leaf* calls: counted and timed in aggregate, and charged to the span
that was open when they ran.

Wrappers record only while a span is open, so set-up work done outside a
timed run (``build_system`` installing its first topology) is not counted.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name -> the repro module (layer) whose public function it wraps.
LAYER_OF = {
    "run": "repro.sim.engine",
    "sweep": "repro.sim.supervisor",
    "workloads.generate": "repro.workloads",
    "batch.epoch": "repro.sim.batch",
    "acfv.on_hit": "repro.core.acfv",
    "acfv.on_fill": "repro.core.acfv",
    "timing.account": "repro.cpu",
    "controller.end_epoch": "repro.core.controller",
    "hierarchy.set_topology": "repro.caches",
    "serve.job": "repro.serve",
    "serve.submit": "repro.serve",
    "serve.queue_wait": "repro.serve",
    "serve.run": "repro.serve",
    "serve.result": "repro.serve",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self.leaf_time: Dict[str, float] = defaultdict(float)
        self._stack: List[Dict[str, Any]] = []
        self._leaf_total = 0.0
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{os.getpid()}.{self._next}"

    @contextlib.contextmanager
    def span(self, name: str,
             run: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": self._new_id(), "name": name,
            "parent": parent["id"] if parent else None,
            "run": run if run is not None else (parent["run"] if parent
                                                else None),
            "start": perf_counter(), "end": None, "leaf": 0.0,
            "_leaf_at": self._leaf_total, "_child_leaf": 0.0,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            inclusive = self._leaf_total - record.pop("_leaf_at")
            record["leaf"] = inclusive - record.pop("_child_leaf")
            if parent is not None:
                parent["_child_leaf"] += inclusive
            self.spans.append(record)

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[str], run: Optional[str]) -> str:
        """Record a span observed from outside (the service's job phases)."""
        span_id = self._new_id()
        self.spans.append({"id": span_id, "name": name, "parent": parent,
                           "run": run, "start": start, "end": end,
                           "leaf": 0.0})
        return span_id

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # -- wrappers ----------------------------------------------------------

    def spanning(self, name: str,
                 on_result: Optional[Callable[[Any], None]] = None
                 ) -> Callable[[Callable], Callable]:
        """Wrapper factory: each call while active becomes a span."""
        def factory(func: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not self._stack:
                    return func(*args, **kwargs)
                with self.span(name):
                    result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return factory

    def leaf(self, name: str) -> Callable[[Callable], Callable]:
        """Wrapper factory for hot calls: counted and timed in aggregate."""
        counts = self.counts
        leaf_time = self.leaf_time

        def factory(func: Callable) -> Callable:
            def wrapper(*args):
                if not self._stack:
                    return func(*args)
                start = perf_counter()
                result = func(*args)
                elapsed = perf_counter() - start
                self._leaf_total += elapsed
                leaf_time[name] += elapsed
                counts[name] += 1
                return result
            return wrapper
        return factory

    # -- transport and output ----------------------------------------------

    def export(self) -> Dict[str, Any]:
        """A picklable copy, to send from a worker process to its parent."""
        return {"spans": list(self.spans), "counts": dict(self.counts),
                "leaf_time": dict(self.leaf_time)}

    def merge(self, exported: Dict[str, Any],
              parent: Optional[str] = None) -> None:
        """Adopt a worker's spans; its root spans become ``parent``'s."""
        for span in exported["spans"]:
            span = dict(span)
            if span["parent"] is None:
                span["parent"] = parent
            self.spans.append(span)
        self.counts.update(exported["counts"])
        for name, seconds in exported["leaf_time"].items():
            self.leaf_time[name] += seconds

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line of leaf totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "leaf_time": dict(self.leaf_time)},
                                sort_keys=True) + "\n")


# -- analysis ------------------------------------------------------------------

def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time and self time.

    Self time is a span's duration minus the part of it its child spans
    cover (their union, so parallel children are not counted twice) minus
    the leaf calls charged to it.
    """
    kids: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            kids[span["parent"]].append((span["start"], span["end"]))
    rows: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        own = (duration - covered(kids.get(span["id"], []), span["start"],
                                  span["end"]) - span["leaf"])
        row = rows.setdefault(span["name"],
                              {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += own
    return rows


def render_table(tracer: Tracer, per: int, label: str) -> str:
    """The per-layer self-time table, per timed operation."""
    rows = self_times(tracer.spans)
    for name, seconds in tracer.leaf_time.items():
        rows[name] = {"calls": tracer.counts[name], "total_s": seconds,
                      "self_s": seconds}
    grand = sum(row["self_s"] for row in rows.values()) or 1.0
    lines = [f"per-layer self time, per {label} (n={per}):",
             f"  {'layer':<22} {'span':<24} {'calls':>9} {'total_s':>10} "
             f"{'self_s':>10} {'self%':>6}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {LAYER_OF.get(name, '?'):<22} {name:<24} "
            f"{row['calls'] / per:>9.1f} {row['total_s'] / per:>10.4f} "
            f"{row['self_s'] / per:>10.4f} "
            f"{100.0 * row['self_s'] / grand:>5.1f}%")
    return "\n".join(lines)


def total_time(tracer: Tracer, name: str) -> float:
    return sum(s["end"] - s["start"] for s in tracer.spans
               if s["name"] == name)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap each layer's public entry points for the duration."""
    import repro.sim.batch as batch
    from repro.caches.hierarchy import CacheHierarchy
    from repro.core.acfv import AcfvBank
    from repro.core.controller import MorphCacheController
    from repro.cpu.core_model import CoreTimingModel
    from repro.workloads.synthetic import SyntheticThread

    def count_tier(tier: str) -> None:
        tracer.count("batch.epochs." + tier)

    def count_reconfigs(events) -> None:
        tracer.count("controller.reconfigurations", len(events))

    patches = [
        (SyntheticThread, "generate", tracer.spanning("workloads.generate")),
        (batch, "run_epoch_batch",
         tracer.spanning("batch.epoch", on_result=count_tier)),
        (AcfvBank, "on_hit", tracer.leaf("acfv.on_hit")),
        (AcfvBank, "on_fill", tracer.leaf("acfv.on_fill")),
        (CoreTimingModel, "account_batch", tracer.spanning("timing.account")),
        (CoreTimingModel, "account_summary",
         tracer.spanning("timing.account")),
        (MorphCacheController, "end_epoch",
         tracer.spanning("controller.end_epoch", on_result=count_reconfigs)),
        (CacheHierarchy, "set_topology",
         tracer.spanning("hierarchy.set_topology")),
    ]
    saved = []
    try:
        for owner, attr, factory in patches:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
