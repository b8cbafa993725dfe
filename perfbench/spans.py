"""Span recorder for the traced run, built from the benchmark's side only.

Tracing wraps the library's public names where their callers look them
up (a module global or a class attribute), records one span per call,
and puts the originals back afterwards.  No library file changes.

A span is (name, start, end, parent).  Spans live in flat arrays of 30
bytes a span, so that the million spans of a BCP solve (half a million
nearest-neighbour queries and their cost rows) take tens of megabytes,
not hundreds; they are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, class or None, attribute, span name).  Each row wraps one
# binding; a function bound under two names is wrapped at both.
TARGETS = (
    ("subquadratic", None, "run_dijkstra", "search_engine.dijkstra"),
    ("nk_solver", None, "run_dijkstra", "search_engine.dijkstra"),
    ("search_engine", None, "cost_to_many", "geometry.cost_to_many"),
    ("subquadratic", None, "cell_view", "search_engine.view"),
    ("nk_solver", None, "ResidualView", "search_engine.view"),
    ("search_engine", "LinearNNIndex", "query", "search_engine.nn_query"),
    ("search_engine", "KdTreeNNIndex", "query", "search_engine.nn_query"),
    ("subquadratic", None, "build_hierarchy", "hierarchy.build"),
    ("matching_state", "ExtendedMatchingState", "apply_path", "matching_state.apply_path"),
    ("matching_state", "ExtendedMatchingState", "__init__", "matching_state.init"),
    ("nk_solver", None, "reverse_hungarian_search", "nk_solver.search"),
    ("subquadratic", None, "build_gate_graph", "reduction"),
    ("subquadratic", None, "build_matching_graph", "reduction"),
    ("subquadratic", None, "matching_to_partitioning", "reduction"),
    ("subquadratic", None, "partitioning_cost", "reduction"),
    ("nk_solver", None, "build_gate_graph", "reduction"),
    ("nk_solver", None, "matching_to_partitioning", "reduction"),
    ("nk_solver", None, "partitioning_cost", "reduction"),
)


class SpanRecorder:
    """Spans of one process, kept in memory until written out."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self) -> int:
        """The index the next span will get; pass it to summary()."""
        return len(self.start)

    def wrap(self, name: str, fn):
        """fn, recording a span around every call."""
        nid = self._intern(name)
        clock = time.perf_counter
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span of its own (the benchmark's root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def summary(self, first: int = 0) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly because the solvers run on one thread.
        Only spans from index ``first`` on are counted.
        """
        start = np.frombuffer(self.start, dtype=np.float64)[first:]
        end = np.frombuffer(self.end, dtype=np.float64)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:] - first
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)[first:]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        width = len(self.names)
        calls = np.bincount(name_id, minlength=width)
        incl = np.bincount(name_id, weights=dur, minlength=width)
        self_s = np.bincount(name_id, weights=own, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


@contextmanager
def traced(recorder: SpanRecorder, package: str):
    """Install a span wrapper on every TARGETS binding; restore on exit."""
    saved = []
    try:
        for module, cls, attr, name in TARGETS:
            owner = importlib.import_module(f"{package}.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
