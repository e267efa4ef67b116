"""Shared-memory state transport for process-parallel experiments.

ExSample's premise is that detector invocations dominate cost, so the
machinery *around* detection must be as close to free as the OS allows.
The process-parallel backbone (:mod:`repro.experiments.parallel`) broke
that premise in two ways: every task shipped to a worker re-pickled the
entire :class:`~repro.video.synthetic.SyntheticWorld` (megabytes of
``ObjectInstance`` objects, serialized per *task*, not per worker), and
every worker warmed its own private detection memo, re-paying detection
for frames a sibling had already resolved. EKO (Bang et al., 2021) makes
the same observation for adaptive video sampling at large: amortize
storage and decode state across queries so only the sampling logic stays
on the hot path.

This module closes both gaps:

:class:`SharedWorldStore`
    Parent-side owner of one world's columnar state in a named POSIX
    ``multiprocessing.shared_memory`` segment. Publishing a world flips
    its pickle representation to a ~100-byte :class:`SharedWorldHandle`;
    workers that unpickle the handle attach the segment **once per
    process** (memoized) and rebuild the world as zero-copy numpy views
    over the parent's pages. Spawn-start platforms stop paying per-task
    world serialization entirely; fork platforms stop paying it for
    tasks submitted after a copy-on-write fault would have.

:class:`SharedDetectionCache`
    One detection memo for every process in a pool: a dict proxy served
    by a ``multiprocessing.Manager`` holding *serialized* detection rows
    keyed like :class:`~repro.detection.cache.DetectionCache`. The
    manager server executes each dict operation atomically, and because
    detection is a pure function of ``(seed, video, frame)``, concurrent
    writers racing on one key store byte-identical rows — last write
    wins harmlessly, so no cross-operation lock is needed. Adopt it
    through the existing cache knob: ``QueryEngine(dataset,
    detection_cache="shared")`` or CLI ``--cache shared``.

Segment lifecycle is owned by whoever created the store (normally the
pool lifecycle in :func:`repro.experiments.parallel.parallel_map`):
``close()`` unlinks the segment on normal exit *and* on worker crash
(the pool context manager unwinds through it), and an ``atexit`` hook
backstops segments a hard error left behind. Workers deliberately hand
segment ownership back to the parent after attaching — Python's
resource tracker would otherwise unlink a segment the parent still
serves the moment any one worker exits.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.detection.cache import (
    CacheInfo,
    CacheKey,
    DetectionCache,
    ScopeCacheInfo,
)
from repro.errors import ConfigError

__all__ = [
    "SharedDetectionCache",
    "SharedWorldHandle",
    "SharedWorldStore",
    "adopt_shared_cache",
    "attach_shared_world",
    "publish_worlds",
    "shared_detection_cache",
]

#: Every segment this library creates carries this prefix, so hygiene
#: tests (and a worried operator listing /dev/shm) can tell ours apart.
SEGMENT_PREFIX = "repro_shm_"

#: Segment header: (meta pickle length, absolute offset of the array area).
_HEADER = struct.Struct("<QQ")

#: Array starts are aligned for fast int64/float64 views.
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class SharedWorldHandle:
    """The pickled form of a published world: a segment name, nothing else.

    All layout information (array dtypes/shapes/offsets, video metadata,
    class names) lives inside the segment's own header, so the handle
    stays ~100 bytes however large the world is.
    """

    segment: str


#: Parent-side stores by segment name (for cleanup and same-process attach).
_LIVE_STORES: Dict[str, "SharedWorldStore"] = {}

#: Worker-side attached worlds by segment name: attach once per process.
_ATTACHED_WORLDS: Dict[str, object] = {}

#: Keeps each attached segment's mapping alive while its views are in use.
_ATTACHED_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


class SharedWorldStore:
    """Publishes one world's columnar state into a shared-memory segment.

    Creating the store copies the world's columns — instance arrays, the
    per-video ``(starts, ends, ids)`` interval indexes, repository/video
    metadata — into a fresh named segment and marks the world as
    published: from then until :meth:`close`, pickling the world emits a
    :class:`SharedWorldHandle` instead of its megabytes of instances.

    The creator owns the segment. Use as a context manager (or call
    :meth:`close`) so the name is unlinked from ``/dev/shm`` on success,
    error and worker crash alike; a module ``atexit`` hook backstops
    stores that were never closed.
    """

    def __init__(self, world):
        if getattr(world, "_shared_handle", None) is not None:
            raise ConfigError(
                "world is already published to shared memory; close its "
                "existing SharedWorldStore first"
            )
        columns, meta = world.shared_columns()
        specs: List[Tuple[str, str, tuple, int]] = []
        planned: List[Tuple[int, np.ndarray]] = []
        data_size = 0
        for key, array in columns.items():
            array = np.ascontiguousarray(array)
            offset = _align(data_size)
            specs.append((key, array.dtype.str, array.shape, offset))
            planned.append((offset, array))
            data_size = offset + array.nbytes
        meta_blob = pickle.dumps(
            {"meta": meta, "specs": specs}, protocol=pickle.HIGHEST_PROTOCOL
        )
        data_base = _align(_HEADER.size + len(meta_blob))
        name = SEGMENT_PREFIX + uuid.uuid4().hex[:16]
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(data_base + data_size, 1)
        )
        buf = self._shm.buf
        _HEADER.pack_into(buf, 0, len(meta_blob), data_base)
        buf[_HEADER.size : _HEADER.size + len(meta_blob)] = meta_blob
        for offset, array in planned:
            if array.nbytes == 0:
                continue
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=buf,
                offset=data_base + offset,
            )
            view[...] = array
        self.world = world
        self.handle = SharedWorldHandle(segment=name)
        world._shared_handle = self.handle
        _LIVE_STORES[name] = self

    def close(self) -> None:
        """Unpublish the world and unlink the segment (idempotent)."""
        name = self.handle.segment
        if _LIVE_STORES.pop(name, None) is None:
            return
        if getattr(self.world, "_shared_handle", None) == self.handle:
            self.world._shared_handle = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedWorldStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_worlds(worlds: Iterable) -> List[SharedWorldStore]:
    """Publish every not-yet-published world; returns the stores to close.

    Worlds that already travel as handles (published by an outer scope)
    are left alone — their owner closes them.
    """
    stores: List[SharedWorldStore] = []
    seen: set = set()
    for world in worlds:
        if id(world) in seen:
            continue
        seen.add(id(world))
        if getattr(world, "_shared_handle", None) is not None:
            continue
        stores.append(SharedWorldStore(world))
    return stores


def attach_shared_world(handle: SharedWorldHandle):
    """Rebuild a world from its shared segment (the unpickle target).

    Attachment is memoized per process: however many tasks a worker
    executes, the segment is mapped and parsed once, and every unpickle
    of the same handle returns the *same* world object — preserving
    object identity across an engine's internal references exactly as
    in-process pickling memoization would. In the publishing process
    itself the original world is returned directly.
    """
    world = _ATTACHED_WORLDS.get(handle.segment)
    if world is not None:
        return world
    store = _LIVE_STORES.get(handle.segment)
    if store is not None:
        return store.world
    # Attaching registers the name with the resource tracker a second
    # time; registration is a set shared by the whole process tree, so
    # this collapses harmlessly and the creating store's unlink()
    # unregisters the name once for everyone. The tracker only acts at
    # tree shutdown, which leaves it as exactly the crash backstop we
    # want: a hard-killed parent's segments are still reaped.
    segment = shared_memory.SharedMemory(name=handle.segment)
    meta_len, data_base = _HEADER.unpack_from(segment.buf, 0)
    payload = pickle.loads(bytes(segment.buf[_HEADER.size : _HEADER.size + meta_len]))
    columns: Dict[str, np.ndarray] = {}
    for key, dtype, shape, offset in payload["specs"]:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=data_base + offset
        )
        view.flags.writeable = False
        columns[key] = view
    from repro.video.synthetic import SyntheticWorld

    world = SyntheticWorld.from_shared_columns(columns, payload["meta"], handle)
    _ATTACHED_WORLDS[handle.segment] = world
    _ATTACHED_SEGMENTS[handle.segment] = segment
    return world


def _close_all_stores() -> None:  # pragma: no cover - interpreter shutdown
    for store in list(_LIVE_STORES.values()):
        store.close()


atexit.register(_close_all_stores)


# -- one detection memo for a whole pool -------------------------------------


_MANAGER = None
_PROCESS_CACHE: Optional["SharedDetectionCache"] = None

#: Reserved first element of in-store counter rows; detection keys are
#: ``(scope_digest, video, frame, class_filter)`` tuples whose scope is a
#: blake2 hex digest, so this sentinel can never collide with one.
_COUNTERS_PREFIX = "__repro_counters__"


def _is_counter_key(key) -> bool:
    return (
        isinstance(key, tuple) and len(key) == 2 and key[0] == _COUNTERS_PREFIX
    )


def _manager():
    """The process's lazily started ``multiprocessing.Manager`` server."""
    global _MANAGER
    if _MANAGER is None:
        import multiprocessing

        _MANAGER = multiprocessing.Manager()
    return _MANAGER


class SharedDetectionCache(DetectionCache):
    """A cross-process :class:`~repro.detection.cache.DetectionCache`.

    Detection rows are pickled into a manager-served dict proxy, so all
    workers of a pool (and the parent) read and write one memo: a frame
    any process detected is a hit for every process after it. The
    manager server executes each dict operation atomically, and
    deterministic detection makes concurrent puts on one key
    byte-identical, so races are harmless by construction.

    ``hits``/``misses`` count *this process's* lookups (the store itself
    is shared; counters are deliberately local so reading them costs no
    IPC) — a worker reporting ``hits > 0`` on a cold private start is
    proof the entries came from another process.

    Pickling ships the proxy, not the contents, so an engine carrying
    this cache fans out to workers still wired to the one shared store.
    The proxy only resolves inside the owning process tree while the
    creator is alive — for durable ``QuerySession`` checkpoints use a
    plain per-process cache policy.

    One shared store routinely serves detectors over *different*
    worlds, seeds and noise profiles (a multi-dataset sweep's workers
    all adopt the same cache); like every detection cache it is
    ``scoped``, so each detector namespaces its keys with its
    content-derived ``cache_scope`` and entries can never cross
    detectors.
    """

    #: ``in`` on the manager proxy is an IPC round-trip; stat-only
    #: probes (the serving batcher's hit attribution) must not pay it.
    fast_contains = False

    def __init__(self, store=None):
        self._store = _manager().dict() if store is None else store
        self.policy = "shared"
        self.capacity = None
        self.hits = 0
        self.misses = 0
        self._scope_hits = {}
        self._scope_misses = {}

    def __len__(self) -> int:
        # Counter rows (see publish_counters) live in the same store but
        # are bookkeeping, not memoized detections.
        return sum(
            1 for key in self._store.keys() if not _is_counter_key(key)
        )

    def get(self, key: CacheKey):
        """The cached detection list for ``key``, or None on a miss."""
        scope = self._scope_of(key)
        blob = self._store.get(key)
        if blob is None:
            self.misses += 1
            self._scope_misses[scope] = self._scope_misses.get(scope, 0) + 1
            return None
        self.hits += 1
        self._scope_hits[scope] = self._scope_hits.get(scope, 0) + 1
        return pickle.loads(blob)

    def put(self, key: CacheKey, detections) -> None:
        """Memoize one frame's finished detections for every process."""
        self._store[key] = pickle.dumps(
            list(detections), protocol=pickle.HIGHEST_PROTOCOL
        )

    def clear(self) -> None:
        """Drop the shared entries and reset this process's counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self._scope_hits.clear()
        self._scope_misses.clear()

    def snapshot(self, scope=None):
        """A counter-free copy of the stored entries (see the base class).

        Fetched key by key so only the requested scope's blobs cross the
        manager connection; counter rows (process bookkeeping in the same
        store) are excluded. Pays one IPC round-trip per entry, so it
        suits whole-store exports such as :meth:`save`; callers that know
        which frames they want use :meth:`harvest`.
        """
        entries = {}
        for key in self._store.keys():
            if _is_counter_key(key):
                continue
            if scope is not None and self._scope_of(key) != scope:
                continue
            blob = self._store.get(key)
            if blob is not None:
                entries[key] = pickle.loads(blob)
        return entries

    def harvest(self, scope, frames, class_filters):
        """The stored rows of some frames (see the base class).

        One ``get`` round-trip per candidate key — frames times class
        filters — however many entries the shared store holds.
        """
        found = {}
        store = self._store
        for video, frame in frames:
            for class_filter in class_filters:
                key = (scope, video, frame, class_filter)
                blob = store.get(key)
                if blob is not None:
                    found[key] = pickle.loads(blob)
        return found

    def info(self) -> CacheInfo:
        return CacheInfo(
            policy=self.policy,
            hits=self.hits,
            misses=self.misses,
            size=len(self),
            capacity=None,
            per_scope=self._per_scope(),
        )

    # -- cross-process counter aggregation --------------------------------

    def publish_counters(self) -> None:
        """Publish this process's local counters into the shared store.

        Hit/miss counters are deliberately process-local (reading them
        costs no IPC), which leaves a fleet blind: each shard process
        knows only its own share of the per-scope breakdown. Publishing
        writes this process's cumulative counters under a reserved
        per-process key — one small row, overwritten in place on every
        call — so any process holding the store can assemble the
        fleet-wide picture with :meth:`aggregate_info`. Shard servers
        publish whenever they answer a ``stats`` frame.
        """
        if not hasattr(self, "_counter_token"):
            self._counter_token = f"{os.getpid()}:{uuid.uuid4().hex[:8]}"
        scopes = set(self._scope_hits) | set(self._scope_misses)
        payload = {
            scope: (
                self._scope_hits.get(scope, 0),
                self._scope_misses.get(scope, 0),
            )
            for scope in scopes
        }
        self._store[(_COUNTERS_PREFIX, self._counter_token)] = pickle.dumps(
            (self.hits, self.misses, payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def aggregate_info(self) -> CacheInfo:
        """Fleet-wide :class:`CacheInfo`: every process's published counters.

        Sums the counter rows of all processes that have called
        :meth:`publish_counters` (this process's live counters are
        published first, so they are always included). ``size`` counts
        the shared detection rows once — they are one store, however many
        processes read it. Counter rows are fetched individually so the
        memoized detection blobs never cross the manager connection.
        """
        self.publish_counters()
        hits = misses = size = 0
        scopes: Dict[str, List[int]] = {}
        for key in self._store.keys():
            if not _is_counter_key(key):
                size += 1
                continue
            blob = self._store.get(key)
            if blob is None:
                continue
            row_hits, row_misses, per_scope = pickle.loads(blob)
            hits += row_hits
            misses += row_misses
            for scope, (scope_hits, scope_misses) in per_scope.items():
                entry = scopes.setdefault(scope, [0, 0])
                entry[0] += scope_hits
                entry[1] += scope_misses
        return CacheInfo(
            policy=self.policy,
            hits=hits,
            misses=misses,
            size=size,
            capacity=None,
            per_scope={
                scope: ScopeCacheInfo(hits=h, misses=m)
                for scope, (h, m) in scopes.items()
            },
        )

    def __getstate__(self) -> dict:
        return {"store": self._store}

    def __setstate__(self, state: dict) -> None:
        self._store = state["store"]
        self.policy = "shared"
        self.capacity = None
        self.hits = 0
        self.misses = 0
        self._scope_hits = {}
        self._scope_misses = {}


def shared_detection_cache() -> SharedDetectionCache:
    """This process's shared detection cache (one per process).

    In a pool parent the first call starts the manager server and
    creates the store; workers receive the parent's cache through the
    pool initializer (:func:`adopt_shared_cache`), so their engines —
    including ones built inside the worker via ``dataset_engine`` with
    the ``shared`` cache policy — all join the same memo.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = SharedDetectionCache()
    return _PROCESS_CACHE


def adopt_shared_cache(cache: SharedDetectionCache) -> None:
    """Install a pool parent's shared cache as this process's cache."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = cache
