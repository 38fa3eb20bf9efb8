"""Span recorder wrapped around the public tdcat calls the benchmark makes.

``Tracer.installed()`` replaces each target below with a wrapper that records
one span per call (name, start, end, parent span, benchmark operation) and
restores the originals on exit.  The wrapped functions run unchanged, so a
traced pass takes the same code paths as an untraced one.  Spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from tdcat import lightcurve, mining, pipeline, skygen, store

# (owner, attribute, span name).  ``pipeline.range_join`` is the name
# ``PartitionWorker.process_frame`` resolves at call time.
TARGETS = (
    (skygen, "build_template", "skygen.build_template"),
    (skygen, "observe_frame", "skygen.observe_frame"),
    (pipeline.PartitionWorker, "process_frame", "pipeline.process_frame"),
    (pipeline, "range_join", "crossmatch.range_join"),
    (store.NightStore, "delta_insert", "store.delta_insert"),
    (store.NightStore, "nightly_merge", "store.nightly_merge"),
    (store.NightStore, "query_records", "store.query_records"),
    (lightcurve.CurveSet, "append_match", "lightcurve.append_match"),
    (lightcurve, "query_curve", "lightcurve.query_curve"),
    (mining.WindowBank, "update_from_match", "mining.window_update"),
    (mining.WindowBank, "update", "mining.window_bank_update"),
    (mining.CandidateTracker, "update", "mining.tracker_update"),
    (mining, "period_search", "mining.period_search"),
    (pipeline, "replay_online", "pipeline.replay_online"),
)

# Self-time groups that make up one process_frame call.
FRAME_LAYERS = {
    "crossmatch": ("crossmatch.range_join",),
    "store": ("store.delta_insert",),
    "lightcurve": ("lightcurve.append_match",),
    "window": ("mining.window_update", "mining.window_bank_update"),
    "tracker": ("mining.tracker_update",),
    "pipeline": ("pipeline.process_frame",),
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory spans; ``op`` is the index of the benchmark operation running."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.paused = False
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def pause(self):
        """Run harness-side checks without recording them."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


def self_seconds(spans) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    child = np.zeros(len(spans))
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    dur = np.array([s[END] - s[START] for s in spans])
    return dur - child


def summarize(spans, op_kinds) -> dict:
    """Per span name: durations, self times and the kind of op each ran in."""
    self_s = self_seconds(spans)
    out: dict = {}
    for span, own in zip(spans, self_s):
        entry = out.setdefault(span[NAME], {"dur": [], "self": [], "kind": []})
        entry["dur"].append(span[END] - span[START])
        entry["self"].append(float(own))
        entry["kind"].append(op_kinds[span[OP]] if span[OP] >= 0 else "harness")
    return out
