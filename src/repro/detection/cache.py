"""Memoized detection results: pay the detector once per frame, ever.

The paper's premise is that "runtime in ExSample is roughly proportional to
the number of frames processed by the detector" (§III), and the simulated
detector is an explicitly *pure* function of ``(seed, video, frame)`` —
detecting the same frame twice yields byte-identical results. Every figure
experiment exploits neither fact: a fig3-style sweep (several methods ×
several seeds over one :class:`~repro.query.engine.QueryEngine`) re-detects
the frames its runs share from scratch, once per run.

:class:`DetectionCache` closes that gap. It memoizes finished detection
lists keyed by ``(video, frame, class_filter)`` so any number of runs over
the same detector pay detection once per distinct frame. Because the
detector is deterministic, a cache hit returns exactly what a fresh
detection would — caching can change wall-clock time, never a trace.

Three policies are supported:

* ``"unbounded"`` — a plain dict; right for experiment sweeps, where the
  working set is the sampled subset of the repository (small by design —
  sampling's whole point is to touch few frames).
* ``"lru"`` — an :class:`collections.OrderedDict` bounded at ``capacity``
  entries with least-recently-used eviction; right for long-lived serving
  processes.
* ``"off"`` — no cache (``make_detection_cache`` returns ``None``).

Caches deliberately do **not** survive :mod:`pickle`: serialising a
detector (e.g. inside a :class:`~repro.query.session.QuerySession`
checkpoint) keeps the cache's *configuration* but drops its contents and
counters, so checkpoints stay small and restore is always correct even if
the world or seed changes between save and load.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: On-disk format version of :meth:`DetectionCache.save` snapshots.
CACHE_SNAPSHOT_VERSION = 1

#: Cache key: (detector scope, video, frame, class_filter-or-None).
CacheKey = Tuple[str, int, int, Optional[str]]

#: What ``QueryEngine(detection_cache=...)`` and the CLI accept.
CacheSpec = Union[str, "DetectionCache", None]


@dataclass(frozen=True)
class ScopeCacheInfo:
    """Hit/miss counts attributed to one cache scope (one detector)."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class CacheInfo:
    """A point-in-time snapshot of cache effectiveness.

    ``per_scope`` breaks the totals down by cache scope — the detector
    identity prefix of each key — so a cache shared by several detectors
    (a multi-dataset sweep's pool cache, a multi-tenant server) reports
    which detector's lookups hit. Empty for a cache that has seen no
    scoped lookups.
    """

    policy: str
    hits: int
    misses: int
    size: int
    capacity: Optional[int]
    per_scope: Mapping[str, ScopeCacheInfo] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        cap = "∞" if self.capacity is None else str(self.capacity)
        return (
            f"{self.policy} cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate, {self.size}/{cap} entries)"
        )


def merge_cache_infos(infos, policy: Optional[str] = None) -> CacheInfo:
    """Sum several :class:`CacheInfo` snapshots into one fleet-level view.

    Hit/miss totals and the per-scope breakdowns add across processes;
    ``size`` takes the maximum rather than the sum, because processes
    sharing one store (the fleet's :class:`~repro.parallel.shm
    .SharedDetectionCache`) each report the same entries — summing would
    count every row once per shard. ``capacity`` survives only when every
    snapshot agrees on it.
    """
    infos = [info for info in infos if info is not None]
    if not infos:
        return CacheInfo(policy=policy or "none", hits=0, misses=0,
                         size=0, capacity=None)
    scopes: Dict[str, List[int]] = {}
    for info in infos:
        for scope, counts in info.per_scope.items():
            entry = scopes.setdefault(scope, [0, 0])
            entry[0] += counts.hits
            entry[1] += counts.misses
    capacities = {info.capacity for info in infos}
    return CacheInfo(
        policy=policy or infos[0].policy,
        hits=sum(info.hits for info in infos),
        misses=sum(info.misses for info in infos),
        size=max(info.size for info in infos),
        capacity=capacities.pop() if len(capacities) == 1 else None,
        per_scope={
            scope: ScopeCacheInfo(hits=h, misses=m)
            for scope, (h, m) in scopes.items()
        },
    )


class DetectionCache:
    """Memo table for per-frame detection lists.

    Parameters
    ----------
    policy:
        ``"unbounded"`` or ``"lru"``.
    capacity:
        Maximum entries for the LRU policy (ignored when unbounded).
    """

    #: Whether keys must be namespaced by the detector's identity (its
    #: :meth:`~repro.detection.simulated.SimulatedDetector.cache_scope`,
    #: a digest of seed, noise profile and world content). Nothing stops
    #: one cache instance from serving several detectors — two engines
    #: handed the same cache, or the cross-process shared cache of a
    #: multi-dataset sweep — and un-scoped ``(video, frame, class)``
    #: keys would then collide across worlds, so every cache demands
    #: scoping; the prefix is a one-time digest per detector.
    scoped = True

    #: Whether ``key in cache`` is a cheap in-process probe. Stat-only
    #: consumers (the serving batcher's per-tenant hit attribution) skip
    #: probing when this is False — a proxy-backed store would pay one
    #: IPC round-trip per probed frame for a statistic.
    fast_contains = True

    def __init__(self, policy: str = "unbounded", capacity: int = 65536):
        if policy not in ("unbounded", "lru"):
            raise ConfigError(
                f"unknown detection cache policy {policy!r} "
                "(expected 'unbounded' or 'lru'; use make_detection_cache"
                "('off') for no cache)"
            )
        if policy == "lru" and capacity < 1:
            raise ConfigError("lru capacity must be >= 1")
        self.policy = policy
        self.capacity = capacity if policy == "lru" else None
        self.hits = 0
        self.misses = 0
        self._scope_hits: Dict[str, int] = {}
        self._scope_misses: Dict[str, int] = {}
        # One cache instance routinely serves interleaved sessions — every
        # tenant of a QueryServer, or several engines on worker threads —
        # so counter updates and LRU reordering are guarded by a lock.
        # Within one event loop the lock is uncontended (asyncio never
        # preempts mid-call); it exists for thread-backed drivers.
        self._lock = threading.Lock()
        self._store: "Dict[CacheKey, List[object]]" = (
            OrderedDict() if policy == "lru" else {}
        )

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: CacheKey) -> bool:
        """Counter-free presence probe.

        Lets a batcher attribute per-tenant hits (which requested frames
        were already memoized when its fused call was issued) without
        perturbing the hit/miss statistics the real lookups maintain.
        """
        return key in self._store

    def contains_many(self, keys) -> List[bool]:
        """Counter-free presence probes under a single lock acquisition.

        One consistent point-in-time answer for a whole batch of keys:
        with detector calls running off the event loop (thread/process
        executors), per-key ``in`` probes could interleave with a
        concurrent batch's ``put`` calls and attribute hits that did not
        exist when the batch was assembled. Probing every key under one
        lock hold pins the snapshot to a single instant.
        """
        with self._lock:
            store = self._store
            return [key in store for key in keys]

    @staticmethod
    def _scope_of(key: CacheKey) -> str:
        """The scope component of a key ('' for legacy un-scoped keys)."""
        return key[0] if key and isinstance(key[0], str) else ""

    def get(self, key: CacheKey) -> Optional[List[object]]:
        """The cached detection list for ``key``, or None on a miss.

        Returns a shallow copy so callers may mutate the returned list
        (detection objects themselves are frozen) without corrupting the
        cache.
        """
        scope = self._scope_of(key)
        with self._lock:
            store = self._store
            try:
                value = store[key]
            except KeyError:
                self.misses += 1
                self._scope_misses[scope] = self._scope_misses.get(scope, 0) + 1
                return None
            self.hits += 1
            self._scope_hits[scope] = self._scope_hits.get(scope, 0) + 1
            if self.capacity is not None:
                store.move_to_end(key)  # type: ignore[attr-defined]
            return list(value)

    def put(self, key: CacheKey, detections: List[object]) -> None:
        """Memoize one frame's finished (already filtered) detections."""
        with self._lock:
            store = self._store
            store[key] = list(detections)
            if self.capacity is not None:
                store.move_to_end(key)  # type: ignore[attr-defined]
                while len(store) > self.capacity:
                    store.popitem(last=False)  # type: ignore[call-arg]

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self._scope_hits.clear()
            self._scope_misses.clear()

    def snapshot(
        self, scope: Optional[str] = None
    ) -> "Dict[CacheKey, List[object]]":
        """A counter-free copy of the stored entries.

        ``scope`` restricts the copy to one detector's keys (see
        :attr:`scoped`). Like :meth:`__contains__`, reading a snapshot
        never perturbs the hit/miss statistics, so :meth:`save` can export
        entries without skewing effectiveness numbers.
        """
        with self._lock:
            items = list(self._store.items())
        if scope is None:
            return {key: list(value) for key, value in items}
        return {
            key: list(value)
            for key, value in items
            if self._scope_of(key) == scope
        }

    def harvest(
        self,
        scope: str,
        frames: Iterable[Tuple[int, int]],
        class_filters: Sequence[Optional[str]],
    ) -> "Dict[CacheKey, List[object]]":
        """The stored rows of some frames, looked up directly.

        Returns every entry keyed ``(scope, video, frame, class_filter)``
        for the given ``(video, frame)`` pairs and class filters — what
        ``snapshot(scope)`` filtered to those frames would hold for them,
        at ``len(frames) * len(class_filters)`` lookups instead of a copy
        of the whole store. Counter-free like :meth:`snapshot` and
        leaves LRU recency alone, so the repository-index recorder can
        harvest a finished query's frames without skewing statistics.
        """
        found = {}
        with self._lock:
            store = self._store
            for video, frame in frames:
                for class_filter in class_filters:
                    key = (scope, video, frame, class_filter)
                    value = store.get(key)
                    if value is not None:
                        found[key] = list(value)
        return found

    # -- explicit on-disk persistence ----------------------------------------

    def save(self, path: str) -> int:
        """Write contents to ``path`` as a digest-checked envelope.

        Pickling a cache deliberately drops its contents (checkpoints must
        stay small); this is the explicit opposite — a warm memo carried
        across processes on purpose. The envelope mirrors the session
        checkpoint format: a version tag, summary metadata (policy,
        capacity, entry count, the scope digests present), a blake2b
        digest of the pickled payload, and the payload itself. Returns the
        number of entries written.
        """
        entries = self.snapshot()
        payload = pickle.dumps(
            {"entries": entries}, protocol=pickle.HIGHEST_PROTOCOL
        )
        envelope = {
            "version": CACHE_SNAPSHOT_VERSION,
            "meta": {
                "policy": self.policy,
                "capacity": self.capacity,
                "entries": len(entries),
                "scopes": sorted({self._scope_of(key) for key in entries}),
            },
            "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return len(entries)

    @classmethod
    def load(cls, path: str, detector=None) -> "DetectionCache":
        """Revive a :meth:`save` snapshot as a warm cache.

        ``detector`` (optional but recommended) pins the load to one
        detector identity: every scope digest recorded in the snapshot
        must equal ``detector.cache_scope()``, otherwise the load is
        refused with a :class:`~repro.errors.ConfigError` — the PR 4
        cross-world cache regression showed what silently adopting rows
        from another world does to results. The payload digest is always
        verified.
        """
        with open(path, "rb") as handle:
            try:
                envelope = pickle.load(handle)
            except Exception as exc:
                raise ConfigError(
                    f"could not decode detection cache snapshot {path!r}: {exc}"
                ) from exc
        if not isinstance(envelope, dict) or "version" not in envelope:
            raise ConfigError(f"{path!r} is not a detection cache snapshot")
        if envelope["version"] != CACHE_SNAPSHOT_VERSION:
            raise ConfigError(
                f"unsupported cache snapshot version {envelope['version']} "
                f"(this library reads version {CACHE_SNAPSHOT_VERSION})"
            )
        digest = hashlib.blake2b(
            envelope["payload"], digest_size=16
        ).hexdigest()
        if digest != envelope["digest"]:
            raise ConfigError(
                f"cache snapshot {path!r} failed its digest check: the file "
                "was corrupted in storage or transit"
            )
        meta = envelope["meta"]
        if detector is not None:
            expected = detector.cache_scope()
            foreign = [s for s in meta.get("scopes", []) if s != expected]
            if foreign:
                raise ConfigError(
                    f"cache snapshot {path!r} holds rows for detector "
                    f"scope(s) {[s[:12] + '…' for s in foreign]} but the "
                    f"attached detector's scope is {expected[:12]}…; the "
                    "world, seed or profile changed since the snapshot — "
                    "refusing to load stale detections"
                )
        state = pickle.loads(envelope["payload"])
        cache = cls(
            policy=meta["policy"],
            capacity=meta["capacity"] if meta["capacity"] is not None else 65536,
        )
        for key, value in state["entries"].items():
            cache.put(key, value)
        return cache

    def _per_scope(self) -> Dict[str, ScopeCacheInfo]:
        scopes = set(self._scope_hits) | set(self._scope_misses)
        return {
            scope: ScopeCacheInfo(
                hits=self._scope_hits.get(scope, 0),
                misses=self._scope_misses.get(scope, 0),
            )
            for scope in sorted(scopes)
        }

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                policy=self.policy,
                hits=self.hits,
                misses=self.misses,
                size=len(self._store),
                capacity=self.capacity,
                per_scope=self._per_scope(),
            )

    def cache_info(self) -> CacheInfo:
        """Alias of :meth:`info`, mirroring ``functools.lru_cache``."""
        return self.info()

    # -- pickling: configuration travels, contents never ---------------------

    def __getstate__(self) -> dict:
        """Serialise the configuration only.

        Session checkpoints pickle the whole environment, detector
        included; shipping the memo table would bloat every checkpoint
        with data that is pure re-computable cache. Contents and counters
        are dropped; the restored cache starts cold with the same policy.
        """
        return {"policy": self.policy, "capacity": self.capacity}

    def __setstate__(self, state: dict) -> None:
        self.policy = state["policy"]
        self.capacity = state["capacity"]
        self.hits = 0
        self.misses = 0
        self._scope_hits = {}
        self._scope_misses = {}
        self._lock = threading.Lock()
        self._store = OrderedDict() if self.capacity is not None else {}


def make_detection_cache(
    spec: CacheSpec, capacity: int = 65536
) -> Optional[DetectionCache]:
    """Resolve a user-facing cache spec to a cache object (or None).

    ``spec`` may be ``None`` / ``"off"`` (no cache), ``"unbounded"``,
    ``"lru"``, ``"shared"`` (one cross-process memo for a worker pool —
    this process's :func:`repro.parallel.shm.shared_detection_cache`),
    or an existing cache instance (returned as-is).
    """
    if spec is None or spec == "off":
        return None
    if isinstance(spec, DetectionCache):
        return spec
    if spec == "shared":
        from repro.parallel.shm import shared_detection_cache

        return shared_detection_cache()
    if isinstance(spec, str):
        return DetectionCache(policy=spec, capacity=capacity)
    raise ConfigError(
        f"detection_cache must be 'off', 'unbounded', 'lru', 'shared' or "
        f"a DetectionCache instance, got {type(spec).__name__}"
    )
