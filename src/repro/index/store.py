"""The repository index: an on-disk store of cross-query knowledge.

ExSample's premise is that detector invocations dominate runtime (§III).
Everything a completed query learned about a repository — which frames
decode to which detections, which chunks yielded objects, what the final
outcome was — is therefore worth keeping: the next query over the same
repository can start informed instead of uniform. The index records three
layers of knowledge, each keyed by digests so stale knowledge is
structurally unreachable:

1. **Detection rows**, keyed by ``SimulatedDetector.cache_scope()`` (a
   digest of seed, noise profile and world content). Preloaded into a
   :class:`~repro.detection.cache.DetectionCache` they make a new query's
   revisits free.
2. **Per-chunk sampling counts** ``(n_j, N1_j)``, aggregated across
   queries per ``(detector scope, class, chunk signature)``. Through
   :func:`repro.core.belief.beliefs_from_counts` they become per-chunk
   warm-start priors: a run begins with the posterior earlier runs earned
   instead of the uniform ``alpha0/beta0``.
3. **Recorded query outcomes**, keyed by a canonical digest over
   everything that determines a run's trace (detector scope, chunking,
   engine seed, cost model, method, run seed, the query itself, config
   and searcher options). An exact-repeat query short-circuits to its
   recorded outcome with zero detector calls.

On-disk layout — built for concurrent writers::

    index_dir/
      segments/seg-<ns>-<pid>-<uuid>.bin  # one append-only record per session
      compacted.bin                       # merged segments (repro index vacuum)
      vacuum.lock                         # advisory lock held during vacuum

Each file is a digest-checked envelope in the PR 6 checkpoint style
(``{"version", "meta", "digest": blake2b(payload), "payload"}``). Writers
never touch a shared file: every recorded session becomes its own
uniquely named segment, written to a temp file and atomically renamed, so
any number of engines, server tenants or fleet shards may record into one
index directory without locks. ``vacuum()`` folds segments into
``compacted.bin`` under an advisory lock. Corrupted or digest-mismatched
files are skipped with a logged warning — never a crash, and never a
silent adoption of bad rows (the PR 4 cross-world cache read is the
cautionary regression).

Merge semantics: counts **sum** across records; detection rows and
outcomes are first-merged-wins in a deterministic file order. For
outcomes that choice is immaterial to correctness — a digest fully
determines the run that produced it *given the index state it started
from*, and any recorded outcome under a digest is a genuine outcome of
that exact query; repeats replay whichever landed first, byte for byte.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

logger = logging.getLogger("repro.index")

#: On-disk format version; bumped on incompatible envelope/record changes.
INDEX_VERSION = 1

_SEGMENT_DIR = "segments"
_COMPACTED = "compacted.bin"
_VACUUM_LOCK = "vacuum.lock"


def chunk_signature(sizes) -> str:
    """Digest of a chunking (the per-chunk frame counts, in order).

    Counts aggregated under one signature are guaranteed to describe the
    same chunk list: the same world split differently (another chunk
    duration, another video order) gets a different signature and never
    pollutes warm-start priors.
    """
    arr = np.ascontiguousarray(np.asarray(sizes, dtype=np.int64))
    return hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()


def canonical_query_digest(
    *,
    scope: str,
    chunk_sig: str,
    engine_seed: int,
    cost_model,
    method: str,
    run_seed: int,
    query,
    config,
    searcher_kwargs: Optional[dict] = None,
) -> str:
    """Digest of everything that determines one run's trace.

    Two submissions share a digest exactly when, against the same index
    state, they would produce byte-identical traces: same detector
    identity (``scope`` covers seed, profile and world content), same
    chunking, same engine seed (discriminator streams), same cost model,
    same method/run-seed/query/config/options. Deliberately *excludes*
    index-derived warm priors — the digest describes what the user asked,
    not what the index knew at the time.
    """
    kwargs = searcher_kwargs or {}
    material = repr(
        (
            "repro-query-digest",
            INDEX_VERSION,
            scope,
            chunk_sig,
            int(engine_seed),
            (
                getattr(cost_model, "detector_fps", None),
                getattr(cost_model, "scan_fps", None),
                getattr(cost_model, "detailed", False),
                type(getattr(cost_model, "decoder", None)).__name__,
            ),
            str(method),
            int(run_seed),
            repr(query),
            repr(config),
            sorted((str(k), repr(v)) for k, v in kwargs.items()),
        )
    )
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def counts_from_trace(trace, num_chunks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-chunk ``(n_j, N1_j)`` aggregated from one finished trace.

    ``n_j`` counts samples taken in chunk j; ``N1_j`` accumulates
    ``d0 - d1`` there — the paper's local accounting (Algorithm 1 line 9),
    matching what :class:`~repro.core.chunk_state.ChunkStatistics` folds
    in during the run. ``N1_j`` may go negative for chunks whose every
    sighting was a duplicate; consumers clamp at read time exactly as
    :meth:`ExSampleSearcher.belief_parameters` does.
    """
    n = np.zeros(num_chunks, dtype=np.int64)
    n1 = np.zeros(num_chunks, dtype=float)
    if trace.chunks.size:
        np.add.at(n, trace.chunks, 1)
        np.add.at(n1, trace.chunks, trace.d0s - trace.d1s)
    return n, n1


@dataclass(frozen=True)
class IndexStats:
    """Point-in-time summary of one index directory."""

    path: str
    segment_files: int
    compacted: bool
    total_bytes: int
    detection_rows: int
    count_keys: int
    total_samples: int
    outcomes: int
    scopes: Tuple[str, ...]
    skipped_files: int

    def describe(self) -> str:
        lines = [
            (
                f"repository index at {self.path}: "
                f"{self.segment_files} segment(s)"
                + (" + compacted store" if self.compacted else "")
                + f", {self.total_bytes} bytes"
            ),
            (
                f"knowledge: {self.detection_rows} detection rows, "
                f"{self.count_keys} count key(s) covering "
                f"{self.total_samples} samples, "
                f"{self.outcomes} recorded outcome(s)"
            ),
        ]
        for scope in self.scopes:
            lines.append(f"  scope {scope[:12]}…")
        if self.skipped_files:
            lines.append(
                f"warning: {self.skipped_files} unreadable file(s) skipped "
                "(corrupted or foreign; see the repro.index log)"
            )
        return "\n".join(lines)


class _MergedState:
    """Everything readable from an index directory, merged in memory."""

    def __init__(self):
        # {scope: {(video, frame, class_filter): [Detection, ...]}}
        self.detections: Dict[str, Dict[tuple, list]] = {}
        # {(scope, class_name, chunk_sig): [n array, n1 array]}
        self.counts: Dict[Tuple[str, str, str], List[np.ndarray]] = {}
        # {query_digest: outcome record dict}
        self.outcomes: Dict[str, dict] = {}
        self.skipped = 0

    def fold(self, record: dict) -> None:
        for scope, rows in record.get("detections", {}).items():
            bucket = self.detections.setdefault(scope, {})
            for key, detections in rows.items():
                bucket.setdefault(key, detections)
        for key, payload in record.get("counts", {}).items():
            n = np.asarray(payload["n"], dtype=np.int64)
            n1 = np.asarray(payload["n1"], dtype=float)
            entry = self.counts.get(key)
            if entry is None:
                self.counts[key] = [n.copy(), n1.copy()]
            elif entry[0].size != n.size:  # pragma: no cover - defensive
                logger.warning(
                    "repository index: conflicting chunk counts under key "
                    "%s (%d vs %d chunks); keeping the first",
                    key, entry[0].size, n.size,
                )
            else:
                entry[0] += n
                entry[1] += n1
        for digest, outcome in record.get("outcomes", {}).items():
            self.outcomes.setdefault(digest, outcome)


def _scopes_of(state: _MergedState) -> Tuple[str, ...]:
    """Every detector scope with knowledge in a merged state, sorted."""
    found = set(state.detections)
    found.update(key[0] for key in state.counts)
    found.update(record.get("scope", "") for record in state.outcomes.values())
    return tuple(sorted(s for s in found if s))


class RepositoryIndex:
    """On-disk cross-query knowledge for one repository (see module docs).

    Instances are cheap handles over a directory; all state lives on
    disk. Pickling keeps only the path (like
    :class:`~repro.detection.cache.DetectionCache` keeps only its
    configuration), so engines carrying an index can still be shipped to
    worker or shard processes — each process reopens the same directory.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._cache_sig: Optional[tuple] = None
        self._cache_state: Optional[_MergedState] = None
        # Reads fold new segments into the memoised merge in place; one
        # handle shared by threads serialises that behind this lock.
        self._lock = threading.RLock()
        os.makedirs(os.path.join(self.path, _SEGMENT_DIR), exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RepositoryIndex({self.path!r})"

    # -- pickling: the path travels, the in-memory merge cache never ---------

    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._cache_sig = None
        self._cache_state = None
        self._lock = threading.RLock()
        os.makedirs(os.path.join(self.path, _SEGMENT_DIR), exist_ok=True)

    # -- low-level file handling ---------------------------------------------

    def _files(self) -> List[str]:
        """Readable store files, compacted first then segments, sorted."""
        files = []
        compacted = os.path.join(self.path, _COMPACTED)
        if os.path.exists(compacted):
            files.append(compacted)
        seg_dir = os.path.join(self.path, _SEGMENT_DIR)
        try:
            names = sorted(os.listdir(seg_dir))
        except FileNotFoundError:  # pragma: no cover - dir created in init
            names = []
        files.extend(
            os.path.join(seg_dir, name)
            for name in names
            if name.endswith(".bin")
        )
        return files

    def _signature(self) -> Tuple[Tuple[str, int, int], ...]:
        """``(path, mtime_ns, size)`` of every store file, in merge order."""
        sig = []
        for path in self._files():
            try:
                stat = os.stat(path)
                sig.append((path, stat.st_mtime_ns, stat.st_size))
            except OSError:
                sig.append((path, 0, 0))
        return tuple(sig)

    @staticmethod
    def _write_envelope(path: str, record: dict, meta: dict) -> None:
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "version": INDEX_VERSION,
            "meta": meta,
            "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
        tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        with open(tmp, "wb") as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    @staticmethod
    def _read_envelope(path: str) -> Optional[dict]:
        """Decode one envelope; None (with a warning) on any defect."""
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            # A vacuum racing this reader deleted a segment it already
            # merged into the compacted store; nothing is lost.
            return None
        except Exception as exc:  # noqa: BLE001 - unreadable file, skip it
            logger.warning(
                "repository index: skipping unreadable file %s (%s)",
                path, exc,
            )
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != INDEX_VERSION
            or "payload" not in envelope
        ):
            logger.warning(
                "repository index: skipping %s (not a version-%d index "
                "envelope)", path, INDEX_VERSION,
            )
            return None
        digest = hashlib.blake2b(
            envelope["payload"], digest_size=16
        ).hexdigest()
        if digest != envelope.get("digest"):
            logger.warning(
                "repository index: skipping %s (payload digest mismatch — "
                "corrupted in storage)", path,
            )
            return None
        try:
            record = pickle.loads(envelope["payload"])
        except Exception as exc:  # noqa: BLE001 - corrupt payload, skip it
            logger.warning(
                "repository index: skipping %s (payload undecodable: %s)",
                path, exc,
            )
            return None
        return record

    def _load(
        self, signature: Optional[Tuple[Tuple[str, int, int], ...]] = None
    ) -> _MergedState:
        """Merge every readable store file, memoised on the dir listing.

        Segments are append-only and their names sort in write order, so
        the common change between two reads is new files at the end of
        the listing. When the memoised signature is a strict prefix of
        the current one, only the appended files are decoded and folded
        into the memoised state; first-merged-wins order, digest checks
        and the skipped-file count come out exactly as a full merge gives
        them. Any other change — a file vanished or changed, a new name
        sorts before a folded one (a concurrent writer, a clock step),
        ``compacted.bin`` appeared — re-merges from scratch. Callers
        hold ``self._lock`` while they use the returned state.
        """
        if signature is None:
            signature = self._signature()
        cached = self._cache_sig
        state = self._cache_state
        if cached == signature and state is not None:
            return state
        if (
            state is None
            or cached is None
            or signature[: len(cached)] != cached
        ):
            state = _MergedState()
            cached = ()
        # Folding mutates the memoised state in place: drop the memo first
        # so a record that fails mid-fold forces a full re-merge next read.
        self._cache_sig = self._cache_state = None
        for path, _, _ in signature[len(cached):]:
            record = self._read_envelope(path)
            if record is None:
                if os.path.exists(path):
                    state.skipped += 1
                continue
            state.fold(record)
        self._cache_sig = signature
        self._cache_state = state
        return state

    # -- recording -----------------------------------------------------------

    def record_session(
        self,
        *,
        scope: str,
        class_name: str,
        chunk_sig: str,
        num_chunks: int,
        trace,
        query_digest: Optional[str] = None,
        outcome_blob: Optional[bytes] = None,
        reason: Optional[str] = None,
        detections: Optional[Dict[tuple, list]] = None,
    ) -> str:
        """Persist one session's knowledge as a new append-only segment.

        Called by the engine's record-on-completion hook. ``detections``
        maps plain ``(video, frame, class_filter)`` keys to detection
        lists (already verified to belong to ``scope``). Returns the
        segment path. Concurrent callers never conflict: every call
        writes its own uniquely named file.
        """
        n, n1 = counts_from_trace(trace, num_chunks)
        record: dict = {
            "counts": {
                (scope, class_name, chunk_sig): {"n": n, "n1": n1}
            },
            "detections": {scope: dict(detections or {})},
            "outcomes": {},
        }
        if query_digest is not None and outcome_blob is not None:
            record["outcomes"][query_digest] = {
                "blob": outcome_blob,
                "reason": reason,
                "method": getattr(trace, "searcher", ""),
                "class_name": class_name,
                "scope": scope,
                "num_samples": int(trace.num_samples),
                "num_results": int(trace.num_results),
            }
        # Zero-padded nanosecond timestamp first so the sorted merge order
        # approximates write order (pid+uuid break same-instant ties).
        # The timestamp is a filename ordering hint only — payloads are
        # digest-addressed and nothing trace-visible depends on it.
        name = (
            f"seg-{time.time_ns():020d}-{os.getpid()}-"  # repro-lint: allow[DET102]
            f"{uuid.uuid4().hex[:8]}.bin"
        )
        path = os.path.join(self.path, _SEGMENT_DIR, name)
        self._write_envelope(
            path,
            record,
            meta={
                "scope": scope,
                "class_name": class_name,
                "num_samples": int(trace.num_samples),
                "outcomes": len(record["outcomes"]),
                "detections": len(record["detections"][scope]),
            },
        )
        return path

    # -- reading the three layers --------------------------------------------

    def counts_for(
        self, scope: str, class_name: str, chunk_sig: str
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Aggregated ``(n, N1)`` for one (detector, class, chunking).

        None when no query over this exact combination was recorded —
        including every digest-mismatch case (mutated world, different
        detector seed, different chunking), which simply resolves to a
        different key.
        """
        with self._lock:
            entry = self._load().counts.get((scope, class_name, chunk_sig))
            if entry is None or int(entry[0].sum()) == 0:
                return None
            return entry[0].copy(), entry[1].copy()

    def outcome_for(self, query_digest: str) -> Optional[dict]:
        """The recorded outcome record for a canonical query digest."""
        with self._lock:
            record = self._load().outcomes.get(query_digest)
            return dict(record) if record is not None else None

    def detections_for(self, scope: str) -> Dict[tuple, list]:
        """All recorded detection rows for one detector scope."""
        with self._lock:
            rows = self._load().detections.get(scope, {})
            return {key: list(value) for key, value in rows.items()}

    def preload_cache(self, detector) -> int:
        """Load this detector's recorded detection rows into its cache.

        Returns the number of rows loaded. When the index holds knowledge
        but none of it matches the detector's scope — the world content,
        detector seed or noise profile changed since the index was built —
        the index is *ignored* with a logged warning, never adopted (the
        digest keying makes wrong-world rows unreachable by construction;
        the warning makes the staleness visible).
        """
        cache = getattr(detector, "cache", None)
        scope = detector.cache_scope()
        with self._lock:
            state = self._load()
            rows = state.detections.get(scope, {})
            if not rows:
                known = _scopes_of(state)
                if known and scope not in known:
                    logger.warning(
                        "repository index at %s holds knowledge for "
                        "scope(s) %s but this detector's scope is %s…; the "
                        "world, seed or detector profile changed since the "
                        "index was built — ignoring the index for this "
                        "engine",
                        self.path,
                        [s[:12] + "…" for s in sorted(known)],
                        scope[:12],
                    )
                return 0
            if cache is None or not getattr(cache, "scoped", False):
                return 0
            for key, detections in rows.items():
                cache.put((scope,) + key, detections)
            return len(rows)

    def scopes(self) -> Tuple[str, ...]:
        """Every detector scope with recorded knowledge, sorted."""
        with self._lock:
            return _scopes_of(self._load())

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> IndexStats:
        with self._lock:
            signature = self._signature()
            state = self._load(signature)
            paths = [path for path, _, _ in signature]
            return IndexStats(
                path=self.path,
                segment_files=sum(
                    1 for f in paths if os.sep + _SEGMENT_DIR + os.sep in f
                ),
                compacted=any(f.endswith(_COMPACTED) for f in paths),
                total_bytes=sum(size for _, _, size in signature),
                detection_rows=sum(
                    len(rows) for rows in state.detections.values()
                ),
                count_keys=len(state.counts),
                total_samples=int(
                    sum(int(entry[0].sum()) for entry in state.counts.values())
                ),
                outcomes=len(state.outcomes),
                scopes=_scopes_of(state),
                skipped_files=state.skipped,
            )

    def vacuum(self) -> IndexStats:
        """Fold every segment into ``compacted.bin`` (advisory-locked).

        Readers racing a vacuum stay correct: the compacted store is
        written with a temp-file-and-rename before any segment is
        deleted, so at every instant the union of readable files carries
        the full knowledge (counts folded into the compacted store are
        only removed as segments after they are durably merged).
        """
        lock_path = os.path.join(self.path, _VACUUM_LOCK)
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(
                f"another vacuum holds the lock at {lock_path}; remove the "
                "file if its process died"
            ) from None
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            with self._lock:
                signature = self._signature()
                merged_files = [path for path, _, _ in signature]
                state = self._load(signature)
                record = {
                    "detections": state.detections,
                    "counts": {
                        key: {"n": entry[0], "n1": entry[1]}
                        for key, entry in state.counts.items()
                    },
                    "outcomes": state.outcomes,
                }
                self._write_envelope(
                    os.path.join(self.path, _COMPACTED),
                    record,
                    meta={
                        "merged_files": len(merged_files),
                        "outcomes": len(state.outcomes),
                        "count_keys": len(state.counts),
                    },
                )
                self._cache_sig = None
                self._cache_state = None
            for path in merged_files:
                if path.endswith(_COMPACTED):
                    continue
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - raced deletion
                    pass
        finally:
            try:
                os.remove(lock_path)
            except OSError:  # pragma: no cover - lock vanished
                pass
        return self.stats()


def make_repository_index(spec) -> Optional[RepositoryIndex]:
    """Resolve a user-facing index spec to an index object (or None).

    ``spec`` may be None (no index), a directory path (created on
    demand), or an existing :class:`RepositoryIndex` (returned as-is).
    """
    if spec is None:
        return None
    if isinstance(spec, RepositoryIndex):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        return RepositoryIndex(spec)
    raise ConfigError(
        f"index must be None, a directory path or a RepositoryIndex, "
        f"got {type(spec).__name__}"
    )
