"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test (``selftest.py``) checks that the two agree and that a run
prints every one of them with its unit.
"""

#: End-to-end metrics, printed by an untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_latency_p50_ms": "ms",
    "query_latency_tail_ms": "ms",
    "first_result_p50_ms": "ms",
    "us_per_sample": "us",
    "cpu_us_per_sample": "us",
    "samples_per_result": "frames",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed by a traced run (``--trace 1``). Layers
#: that do no work on a workload report 0.
PER_LAYER = {
    "core.pick.us_per_sample": "us",
    "core.update.us_per_sample": "us",
    "core.fulfil.us_per_sample": "us",
    "query.propose.us_per_sample": "us",
    "query.ingest.us_per_sample": "us",
    "query.outcome.ms_per_query": "ms",
    "tracking.match.us_per_sample": "us",
    "detection.detect.calls": "count",
    "detection.detect.frames_per_call": "frames",
    "detection.detect.us_per_frame": "us",
    "detection.cache.hit_ratio": "ratio",
    "serving.server.admission_wait_p50_ms": "ms",
    "serving.server.loop_lag_p99_ms": "ms",
    "serving.batcher.fused_calls": "count",
    "serving.batcher.frames_per_call": "frames",
    "serving.batcher.requests_per_call": "requests",
    "serving.batcher.wait_p50_ms": "ms",
    "serving.executors.offloop_busy_s": "s",
    "serving.executors.deferred_batches": "count",
    "serving.net.op_rtt_p50_ms": "ms",
    "serving.net.outcome_bytes_per_query": "bytes",
    "serving.net.retries": "count",
    "serving.net.wire_errors": "count",
    "serving.fleet.router_wait_p50_ms": "ms",
    "serving.fleet.shard_imbalance": "ratio",
    "serving.fleet.restarts": "count",
    "parallel.shm.cache_hit_ratio": "ratio",
    "index.outcome_for.ms": "ms",
    "index.counts_for.ms": "ms",
    "index.record.ms": "ms",
    "index.replay_ratio": "ratio",
    "index.preload_rows": "count",
    "index.segments_end": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}
