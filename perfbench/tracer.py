"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` replaces each entry point listed by ``_entry_points``
with a wrapper that records a span ``[name, qid, parent, start, end, n]``
in memory (``n`` counts the frames or picks the call carried) and
restores the originals on :meth:`Tracer.uninstall`. Synchronous calls
nest on one stack, so a span's parent is the synchronous span that was
open when it began; coroutine spans (batcher waits, wire calls) never
become parents, because other work interleaves while they await. The
query id of a span comes from the object the method was called on, once
a workload bound that object to its query; calls with no bound owner take
the id of the query the calling client is working on, if any.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Dict, List

_NAME, _QID, _PARENT, _START, _END, _N = range(6)


def _first_len(args) -> int:
    return len(args[0])


def _request_len(args) -> int:
    return len(args[1])


def _entry_points():
    """(class, method, span name, counter) for every traced entry point."""
    from repro.core.sampler import Searcher, SearchRun
    from repro.detection.simulated import SimulatedDetector
    from repro.index.store import RepositoryIndex
    from repro.query.engine import ReplaySession, VideoSearchEnvironment
    from repro.query.session import QuerySession
    from repro.serving.batcher import DetectorBatcher
    from repro.serving.fleet import FleetHandle
    from repro.serving.net import FleetClient
    from repro.tracking.discriminator import TrackDiscriminator

    searchers, todo = [], [Searcher]
    while todo:
        cls = todo.pop()
        searchers.append(cls)
        todo.extend(cls.__subclasses__())
    points = []
    for cls in searchers:
        if "pick_batch" in cls.__dict__:
            points.append((cls, "pick_batch", "core.pick", None))
        if "update" in cls.__dict__:
            points.append((cls, "update", "core.update", None))
    points += [
        (SearchRun, "fulfil", "core.fulfil", None),
        (VideoSearchEnvironment, "propose_batch", "query.propose", _first_len),
        (VideoSearchEnvironment, "ingest_batch", "query.ingest", None),
        (QuerySession, "outcome", "query.outcome", None),
        (ReplaySession, "outcome", "query.outcome", None),
        (FleetHandle, "result", "query.outcome", None),
        (TrackDiscriminator, "observe_full_batch", "tracking.match", _first_len),
        (SimulatedDetector, "detect_batch", "detection.detect", _first_len),
        (DetectorBatcher, "detect", "serving.batcher.detect", _request_len),
        (FleetClient, "submit", "serving.net.op", None),
        (FleetClient, "ping", "serving.net.op", None),
        (FleetClient, "stats", "serving.net.op", None),
        (RepositoryIndex, "outcome_for", "index.outcome_for", None),
        (RepositoryIndex, "counts_for", "index.counts_for", None),
        (RepositoryIndex, "record_session", "index.record", None),
    ]
    return points


class Tracer:
    """An in-memory span recorder over wrapped entry points."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._owners: Dict[int, object] = {}
        self._bound: Dict[object, list] = {}
        self._patches: list = []
        #: The query the calling client works on, for calls on shared
        #: objects (the repository index, the engine).
        self.current = contextvars.ContextVar("perfbench_qid", default=None)

    # -- query ownership ----------------------------------------------------

    def bind(self, qid, session) -> None:
        """Attribute calls on ``session`` and its run, searcher, env and
        discriminator to query ``qid``."""
        run = getattr(session, "search_run", None)
        searcher = getattr(run, "searcher", None)
        env = getattr(searcher, "env", None)
        discriminator = getattr(env, "discriminator", None)
        objects = [o for o in (session, run, searcher, env, discriminator) if o is not None]
        for obj in objects:
            self._owners[id(obj)] = qid
        self._bound[qid] = objects  # keeps the ids valid while bound

    def unbind(self, qid) -> None:
        for obj in self._bound.pop(qid, ()):
            self._owners.pop(id(obj), None)

    def _qid(self, obj):
        qid = self._owners.get(id(obj))
        return self.current.get() if qid is None else qid

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for cls, attr, name, count in _entry_points():
            original = cls.__dict__[attr]
            if inspect.iscoroutinefunction(original):
                wrapper = self._async_wrapper(original, name, count)
            else:
                wrapper = self._sync_wrapper(original, name, count)
            setattr(cls, attr, wrapper)
            self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    def _sync_wrapper(self, original, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            n = count(args) if count is not None else 0
            span = [name, self._qid(obj), stack[-1] if stack else None, clock(), 0.0, n]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(obj, *args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        return wrapper

    def _async_wrapper(self, original, name, count):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(original)
        async def wrapper(obj, *args, **kwargs):
            qid = self._qid(obj)
            if name == "serving.batcher.detect":
                # detect(detector, request, handle): the handle's session
                # is the query's.
                qid = self._qid(getattr(args[2], "session", None))
            n = count(args) if count is not None else 0
            span = [name, qid, None, clock(), 0.0, n]
            spans.append(span)
            try:
                return await original(obj, *args, **kwargs)
            finally:
                span[_END] = clock()

        return wrapper

    # -- recording from the workloads ----------------------------------------

    def add_query_spans(self, records) -> None:
        """Add one root span per query and hang its orphan spans under it."""
        roots = {}
        for record in records:
            roots[record.spec.qid] = len(self.spans)
            self.spans.append(["query", record.spec.qid, None, record.t_submit, record.t_done or record.t_submit, 0])
        for span in self.spans:
            if span[_PARENT] is None and span[_NAME] != "query" and span[_QID] in roots:
                span[_PARENT] = roots[span[_QID]]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[_NAME],
                            "qid": span[_QID],
                            "parent": span[_PARENT],
                            "start": span[_START],
                            "end": span[_END],
                            "n": span[_N],
                        }
                    )
                    + "\n"
                )


class SpanSummary:
    """Self times, counts and coverage of the spans inside ``window``."""

    def __init__(self, spans, window):
        start, end = window
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] is not None and spans[span[_PARENT]][_NAME] != "query":
                child[span[_PARENT]] += span[_END] - span[_START]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.n: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        intervals = []
        for index, span in enumerate(spans):
            name = span[_NAME]
            if name == "query" or span[_START] < start or span[_START] > end:
                continue
            duration = span[_END] - span[_START]
            self.self_s[name] += duration - child[index]
            self.calls[name] += 1
            self.n[name] += span[_N]
            self.durations[name].append(duration)
            intervals.append((span[_START], span[_END]))
        self.covered_s = _union(intervals, start, end)
        detects = sorted(
            (s[_START], s[_END]) for s in spans if s[_NAME] == "detection.detect"
        )
        starts = [lo for lo, _ in detects]
        self.batcher_waits = [
            (s[_END] - s[_START]) - _overlap(detects, starts, s[_START], s[_END])
            for s in spans
            if s[_NAME] == "serving.batcher.detect" and start <= s[_START] <= end
        ]


def _union(intervals, start, end) -> float:
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _overlap(sorted_intervals, starts, lo, hi) -> float:
    """Time within [lo, hi] covered by non-overlapping sorted intervals."""
    index = max(bisect.bisect_left(starts, lo) - 1, 0)
    total = 0.0
    for s, e in itertools.islice(sorted_intervals, index, None):
        if s >= hi:
            break
        total += max(0.0, min(e, hi) - max(s, lo))
    return total
