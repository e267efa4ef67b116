"""The four workloads: set-up, a timed closed loop, and layer readings.

Each workload sets up from inputs to ready, then clients work through
its seeded query stream until the run's seconds are spent, each client
sending its next query only once the previous outcome is in hand.
Queries taken before the deadline all finish; the timed phase ends when
the last of them does.

* ``solo``: one client steps ``engine.session(...).stream()``.
* ``served``: 8 clients on one event loop submit to ``engine.serve()``.
* ``fleet``: 8 clients submit to a 2-shard ``FleetRouter``.
* ``repeat``: one client streams sessions of an engine that opened a
  repository index recorded before set-up; it runs a fixed number of
  queries instead of a fixed time (see :class:`Repeat`).

``solo`` and ``served`` run by hand; ``BENCHMARK.json`` lists only
``fleet`` and ``repeat`` (``README.md`` says why).
"""

from __future__ import annotations

import asyncio
import itertools
import math
import multiprocessing
import os
import shutil
import time
from dataclasses import asdict, dataclass, is_dataclass
from typing import Iterator, List, Optional

from checks import trace_bytes
from measure import cpu_delta, cpu_snapshot, median, peak_rss_mb
from stream import QuerySpec, history, live_stream, repeat_stream

from repro.query import QueryEngine
from repro.query.session import ResultFound
from repro.serving import FleetRouter
from repro.video import make_dataset as build_dataset

DATASET = "dashcam"
SCALE = 0.2
DATASET_SEED = 7
ENGINE_SEED = 7
#: Seed of the history ``repeat`` records before set-up.
HISTORY_SEED = 0
#: Queries per second of ``--seconds`` in a ``repeat`` run (see Repeat).
#: Each new query adds a segment that every later read re-merges, so a
#: run's cost grows with the square of its length; at 7 a run fits the
#: benchmark's time budget beside ``fleet``.
REPEAT_QUERIES_PER_SECOND = 7
#: Set-ups per run, half before and half after the timed phase, so
#: their median spans the run; ``setup_s`` is that median.
SETUP_REPEATS = 8
N_SHARDS = 2
clock = time.perf_counter


@dataclass
class Record:
    """What one client saw of one query."""

    spec: QuerySpec
    t_submit: float = 0.0
    t_first: Optional[float] = None
    t_done: Optional[float] = None
    outcome: object = None
    reason: Optional[str] = None
    replayed: bool = False
    error: Optional[str] = None
    admission_wait: Optional[float] = None
    router_wait: Optional[float] = None
    outcome_bytes: Optional[int] = None

    @property
    def live_samples(self) -> int:
        """Frames sampled for this query in this run (0 for a replay)."""
        if self.outcome is None or self.replayed:
            return 0
        return self.outcome.trace.num_samples


@dataclass
class Phase:
    """One timed closed loop: its records and readings."""

    records: List[Record]
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    layers: dict

    @property
    def done(self) -> List[Record]:
        return [r for r in self.records if r.outcome is not None]

    @property
    def samples(self) -> int:
        return sum(r.live_samples for r in self.records)

    @property
    def us_per_sample(self) -> float:
        return (self.end - self.start) / max(self.samples, 1) * 1e6


def make_dataset():
    return build_dataset(DATASET, scale=SCALE, seed=DATASET_SEED)


def _next_spec(specs: Iterator[QuerySpec], deadline: float) -> Optional[QuerySpec]:
    if clock() >= deadline:
        return None
    return next(specs, None)


class Workload:
    """Base: a solo-style engine workload driven by one client."""

    name = "solo"
    clients = 1
    loop = "closed"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dataset = None

    # -- lifecycle -------------------------------------------------------------

    def prepare(self) -> None:
        """Work done before set-up and outside ``setup_s``."""

    def fresh(self) -> None:
        """Make the next set-ups start from the prepared state again."""

    async def setup(self):
        self.dataset = make_dataset()
        return QueryEngine(self.dataset, seed=ENGINE_SEED)

    async def teardown(self, state) -> None:
        """Release what :meth:`setup` built."""

    def stream(self) -> Iterator[QuerySpec]:
        return live_stream(self.dataset.classes, self.seed)

    # -- the timed phase -------------------------------------------------------

    async def drive(self, state, specs, seconds, tracer) -> Phase:
        engine = state
        cache_before = engine.cache_info()
        cpu_before = cpu_snapshot()
        start = clock()
        records = self._drive_sessions(engine, specs, start + seconds, tracer)
        end = max([start] + [r.t_done for r in records])
        cpu_s = cpu_delta(cpu_before, cpu_snapshot())
        layers = {"cache": _delta_ratio(cache_before, engine.cache_info())}
        return Phase(records, start, end, cpu_s, peak_rss_mb(), layers)

    def _drive_sessions(self, engine, specs, deadline, tracer) -> List[Record]:
        records = []
        while (spec := _next_spec(specs, deadline)) is not None:
            record = Record(spec)
            records.append(record)
            token = tracer.current.set(spec.qid) if tracer else None
            record.t_submit = clock()
            try:
                session = engine.session(
                    spec.query(), method=spec.method, run_seed=spec.run_seed
                )
                if tracer:
                    tracer.bind(spec.qid, session)
                for event in session.stream():
                    if record.t_first is None and isinstance(event, ResultFound):
                        record.t_first = clock()
                record.outcome = session.outcome()
                record.reason = session.reason
                record.replayed = session.replayed
            except Exception as exc:  # noqa: BLE001 - counted as failed
                record.error = repr(exc)
            finally:
                record.t_done = clock()
                if tracer:
                    tracer.unbind(spec.qid)
                    tracer.current.reset(token)
        return records

    # -- correctness -------------------------------------------------------------

    def references(self, records) -> Optional[List[bytes]]:
        """Trace bytes of a solo ``engine.run`` of each record's spec, or
        None when the workload is itself the solo path."""
        return None

    def expected(self) -> dict:
        """Trace bytes some specs must also match, by spec key."""
        return {}


class Served(Workload):
    name = "served"
    clients = 8

    async def setup(self):
        engine = await Workload.setup(self)
        return engine, engine.serve()

    async def teardown(self, state) -> None:
        await state[1].aclose()

    async def drive(self, state, specs, seconds, tracer) -> Phase:
        engine, server = state
        cache_before = engine.cache_info()
        records: List[Record] = []
        deadline = clock() + seconds

        async def client():
            while (spec := _next_spec(specs, deadline)) is not None:
                record = Record(spec)
                records.append(record)

                def sink(handle, step, record=record):
                    if record.t_first is None and step.new_results:
                        record.t_first = clock()

                record.t_submit = clock()
                try:
                    handle = await server.submit(
                        spec.query(),
                        method=spec.method,
                        run_seed=spec.run_seed,
                        tenant=spec.tenant,
                        event_sink=sink,
                    )
                    if tracer:
                        tracer.bind(spec.qid, handle.session)
                    record.outcome = await handle.result()
                    record.reason = handle.session.reason
                    record.admission_wait = handle.started_at - handle.submitted_at
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record.error = repr(exc)
                finally:
                    record.t_done = clock()
                    if tracer:
                        tracer.unbind(spec.qid)

        phase = await _run_clients(client, self.clients, tracer, records)
        phase.layers["cache"] = _delta_ratio(cache_before, engine.cache_info())
        phase.layers["batcher"] = server.stats().batcher
        return phase

    def references(self, records) -> List[bytes]:
        """Solo runs on two forked workers: queries are independent here."""
        context = multiprocessing.get_context("fork")
        pool = context.Pool(2, initializer=_open_reference, initargs=(self.dataset,))
        try:
            return pool.map(_reference_trace, [r.spec for r in records], chunksize=2)
        finally:
            pool.close()
            pool.join()


class Fleet(Served):
    name = "fleet"

    async def setup(self):
        self.dataset = make_dataset()
        return await FleetRouter.launch(
            self.dataset,
            n_shards=N_SHARDS,
            placement="hash_tenant",
            engine_seed=ENGINE_SEED,
        )

    async def teardown(self, state) -> None:
        await state.shutdown()

    async def drive(self, state, specs, seconds, tracer) -> Phase:
        router = state
        before = await router.stats()
        records: List[Record] = []
        deadline = clock() + seconds

        async def client():
            while (spec := _next_spec(specs, deadline)) is not None:
                record = Record(spec)
                records.append(record)
                record.t_submit = clock()
                try:
                    handle = await router.submit(spec.item())
                    await handle.admitted()
                    record.router_wait = clock() - record.t_submit
                    frame = await handle.terminal()
                    record.outcome_bytes = len(frame.get("outcome") or "")
                    if tracer:
                        tracer.bind(spec.qid, handle)
                    record.outcome = await handle.result()
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record.error = repr(exc)
                finally:
                    # Fleet handles carry no result events: the first
                    # result reaches the client with the outcome.
                    record.t_done = record.t_first = clock()
                    if tracer:
                        tracer.unbind(spec.qid)

        phase = await _run_clients(client, self.clients, tracer, records)
        phase.layers["fleet_before"] = before
        phase.layers["fleet_after"] = await router.stats()
        return phase


class Repeat(Workload):
    name = "repeat"

    def prepare(self) -> None:
        """Record one block of submissions into a fresh index directory."""
        dataset = make_dataset()
        # The recorded history is a fixture, the same for every workload
        # seed, so runs differ only in the stream they submit.
        self.recorded = history(dataset.classes, HISTORY_SEED)
        self.pristine = os.path.join(self.workdir, "history-index")
        engine = QueryEngine(dataset, seed=ENGINE_SEED, index=self.pristine)
        self.recorded_traces = {spec.key: solo_trace(engine, spec) for spec in self.recorded}
        self.copies = 0

    def _copy(self) -> str:
        self.copies += 1
        path = os.path.join(self.workdir, f"index-{self.copies}")
        shutil.copytree(self.pristine, path)
        return path

    async def setup(self):
        self.dataset = make_dataset()
        engine = QueryEngine(self.dataset, seed=ENGINE_SEED, index=self._index_dir)
        self.preload_rows = len(engine.detection_cache)
        return engine

    def fresh(self) -> None:
        """Point the next set-ups at a new copy of the recorded index."""
        self._index_dir = self._copy()

    def stream(self) -> Iterator[QuerySpec]:
        return repeat_stream(self.dataset.classes, self.seed, self.recorded)

    async def drive(self, state, specs, seconds, tracer) -> Phase:
        # Every new query writes a segment and the next read re-merges
        # them all, so the cost per query grows through the run. A fixed
        # number of queries, sized to take about ``seconds`` here, keeps
        # the index a run grows, and so what it measures, independent of
        # how fast the machine happened to be.
        if math.isfinite(seconds):
            specs = itertools.islice(specs, round(REPEAT_QUERIES_PER_SECOND * seconds))
        phase = await Workload.drive(self, state, specs, math.inf, tracer)
        phase.layers["segments"] = state.index.stats().segment_files
        phase.layers["preload_rows"] = self.preload_rows
        return phase

    def references(self, records) -> List[bytes]:
        """Solo runs in stream order on a fresh copy of the recorded
        index, so each sees the index state its timed twin saw."""
        engine = QueryEngine(self.dataset, seed=ENGINE_SEED, index=self._copy())
        return [solo_trace(engine, r.spec) for r in records]

    def expected(self) -> dict:
        return self.recorded_traces


WORKLOADS = {cls.name: cls for cls in (Workload, Served, Fleet, Repeat)}



def solo_trace(engine, spec: QuerySpec) -> bytes:
    """Trace bytes of a solo ``engine.run`` of ``spec``."""
    outcome = engine.run(spec.query(), method=spec.method, run_seed=spec.run_seed)
    return trace_bytes(outcome.trace)


_reference_engine = None


def _open_reference(dataset) -> None:
    global _reference_engine
    _reference_engine = QueryEngine(dataset, seed=ENGINE_SEED)


def _reference_trace(spec: QuerySpec) -> bytes:
    return solo_trace(_reference_engine, spec)


async def _run_clients(client, clients, tracer, records) -> Phase:
    """Run closed-loop clients on this loop; probe loop lag when tracing."""
    lags: List[float] = []
    stop = asyncio.Event()

    async def probe():
        while not stop.is_set():
            tick = clock()
            await asyncio.sleep(0.001)
            lags.append(clock() - tick - 0.001)

    prober = asyncio.ensure_future(probe()) if tracer else None
    cpu_before = cpu_snapshot()
    start = clock()
    try:
        await asyncio.gather(*(client() for _ in range(clients)))
    finally:
        stop.set()
        if prober is not None:
            await prober
    end = max([start] + [r.t_done for r in records])
    cpu_s = cpu_delta(cpu_before, cpu_snapshot())
    return Phase(records, start, end, cpu_s, peak_rss_mb(), {"lags": lags})


def _delta_ratio(before, after) -> float:
    """Hit ratio of a cache over the interval between two CacheInfos."""
    if before is None or after is None:
        return 0.0
    hits = after.hits - before.hits
    total = hits + after.misses - before.misses
    return hits / total if total else 0.0


def layer_metrics(phase: Phase, s, untraced: Phase) -> dict:
    """Every per-layer metric of a traced phase (0 where a layer is idle),
    from its span summary ``s``."""
    samples = max(phase.samples, 1)

    def us_per_sample(name):
        return s.self_s.get(name, 0.0) / samples * 1e6

    def ms_per_call(name):
        calls = s.calls.get(name, 0)
        return s.self_s.get(name, 0.0) / calls * 1e3 if calls else 0.0

    records = phase.records
    out = {
        "core.pick.us_per_sample": us_per_sample("core.pick"),
        "core.update.us_per_sample": us_per_sample("core.update"),
        "core.fulfil.us_per_sample": us_per_sample("core.fulfil"),
        "query.propose.us_per_sample": us_per_sample("query.propose"),
        "query.ingest.us_per_sample": us_per_sample("query.ingest"),
        "query.outcome.ms_per_query": ms_per_call("query.outcome"),
        "tracking.match.us_per_sample": us_per_sample("tracking.match"),
        "detection.detect.calls": s.calls.get("detection.detect", 0),
        "detection.detect.frames_per_call": _ratio(
            s.n.get("detection.detect", 0), s.calls.get("detection.detect", 0)
        ),
        "detection.detect.us_per_frame": _ratio(
            s.self_s.get("detection.detect", 0.0) * 1e6, s.n.get("detection.detect", 0)
        ),
        "detection.cache.hit_ratio": phase.layers.get("cache", 0.0),
        "serving.server.admission_wait_p50_ms": median(
            [r.admission_wait for r in records if r.admission_wait is not None]
        ) * 1e3,
        "serving.server.loop_lag_p99_ms": _p99(phase.layers.get("lags", [])) * 1e3,
        "serving.batcher.wait_p50_ms": median(s.batcher_waits) * 1e3,
        "serving.net.op_rtt_p50_ms": median(s.durations.get("serving.net.op", [])) * 1e3,
        "serving.net.outcome_bytes_per_query": _mean(
            [r.outcome_bytes for r in records if r.outcome_bytes is not None]
        ),
        "serving.fleet.router_wait_p50_ms": median(
            [r.router_wait for r in records if r.router_wait is not None]
        ) * 1e3,
        "index.outcome_for.ms": ms_per_call("index.outcome_for"),
        "index.counts_for.ms": ms_per_call("index.counts_for"),
        "index.record.ms": ms_per_call("index.record"),
        "index.replay_ratio": _ratio(sum(r.replayed for r in records), len(records)),
        "index.preload_rows": phase.layers.get("preload_rows", 0),
        "index.segments_end": phase.layers.get("segments", 0),
        "trace.overhead_frac": phase.us_per_sample / untraced.us_per_sample - 1.0,
        "trace.unattributed_frac": 1.0 - s.covered_s / max(phase.end - phase.start, 1e-9),
    }
    out.update(_batcher_metrics(phase.layers.get("batcher")))
    out.update(_fleet_metrics(phase.layers))
    return out


def _batcher_metrics(stats) -> dict:
    """Batcher and executor counters from a ``BatcherStats`` or its dict."""
    if stats is None:
        stats = {}
    elif is_dataclass(stats):
        stats = asdict(stats)
    calls = stats.get("detector_calls", 0)
    return {
        "serving.batcher.fused_calls": calls,
        "serving.batcher.frames_per_call": _ratio(stats.get("frames", 0), calls),
        "serving.batcher.requests_per_call": _ratio(stats.get("requests", 0), calls),
        "serving.executors.offloop_busy_s": stats.get("offloop_busy_s", 0.0),
        "serving.executors.deferred_batches": stats.get("deferred_batches", 0),
    }


def _fleet_metrics(layers) -> dict:
    before, after = layers.get("fleet_before"), layers.get("fleet_after")
    if after is None:
        return {
            "serving.net.retries": 0,
            "serving.net.wire_errors": 0,
            "serving.fleet.shard_imbalance": 0.0,
            "serving.fleet.restarts": 0,
            "parallel.shm.cache_hit_ratio": 0.0,
        }
    finished = [
        b["finished"] - a["finished"]
        for a, b in zip(before.per_shard, after.per_shard, strict=True)
    ]
    batcher = {
        key: sum(
            b["batcher"][key] - a["batcher"][key]
            for a, b in zip(before.per_shard, after.per_shard, strict=True)
        )
        for key in ("detector_calls", "frames", "requests", "offloop_busy_s", "deferred_batches")
    }
    out = {
        "serving.net.retries": after.retries - before.retries,
        "serving.net.wire_errors": after.wire_errors - before.wire_errors,
        "serving.fleet.shard_imbalance": _ratio(max(finished), _mean(finished)),
        "serving.fleet.restarts": after.restarts,
        "parallel.shm.cache_hit_ratio": _delta_ratio(before.cache, after.cache),
        "detection.detect.calls": after.detector_calls - before.detector_calls,
        "detection.detect.frames_per_call": _ratio(
            after.detector_frames - before.detector_frames,
            after.detector_calls - before.detector_calls,
        ),
    }
    out.update(_batcher_metrics(batcher))
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
