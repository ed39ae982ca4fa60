"""Generation-pinned read snapshots: the serving tier's read/write split.

Before this module, every query path shared one service-wide lock with model
forwards and index mutations — a read could block behind a bulk ingest.  The
split works like an MVCC storage engine:

* :class:`ReadSnapshot` is an **immutable** view of one index generation:
  the segment list (memory-mapped shard payloads plus a materialised copy of
  the pending tail) and the per-segment search metadata, shared by reference
  with the index (whose mutations replace a shard's metadata tuple, never
  mutate it).  It duck-types the read surface
  :func:`repro.serve.search.exact_topk` and the searchers' ``fit`` consume
  (``dim`` / ``iter_segments`` / ``search_metadata`` / ``content_fingerprint``), so
  every search path runs unchanged on a snapshot.
* :class:`SnapshotManager` hands out **pinned** snapshots to readers
  (refcounted context managers) and atomically publishes a new snapshot per
  mutation or hot-swap.  Readers in flight finish on the generation they
  pinned; new readers land on the latest one; queries never take the write
  lock.
* Retirement callbacks make the swap **zero-downtime-safe**: when a
  refresh replaces a snapshot whose payload files are obsolete (a compact's
  stale shards, a hot-swapped-away index generation), the unlink work is
  registered on the *old* snapshot and runs only when its last pinned
  reader releases — a reader can never have its mmap'd payload deleted
  under it, and a crash before retirement leaves readable files, never torn
  ones.
"""

from __future__ import annotations

import threading
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .index import Metadata

Segment = Tuple[List[str], List[str], np.ndarray, np.ndarray]


class ReadSnapshot:
    """An immutable, generation-stamped view of an :class:`EmbeddingIndex`.

    Exposes exactly the read surface the search paths need — nothing on a
    snapshot can mutate the underlying index.  Sealed-shard matrices are the
    index's memory-mapped payloads (shared, read-only); the pending tail is
    copied at snapshot time so later ``add`` calls cannot leak into it.
    """

    def __init__(
        self,
        dim: int,
        generation: int,
        segments: List[Segment],
        metadata: List[Metadata],
        content_fingerprint: str,
        directory: Optional[Path] = None,
    ) -> None:
        self.dim = int(dim)
        # The index directory this view was taken from.
        self.directory = directory
        self.generation = int(generation)
        self._segments = list(segments)
        self._metadata = list(metadata)
        self._content_fingerprint = content_fingerprint

    def iter_segments(self) -> Iterator[Segment]:
        """Yield ``(keys, kinds, matrix, norms)`` per segment (search order)."""
        return iter(self._segments)

    def search_metadata(self) -> List[Metadata]:
        """Per-segment ``(keys, kinds_array, live_rows)``, frozen at pin time."""
        return self._metadata

    def content_fingerprint(self) -> str:
        """The index's content hash at pin time (what cached searchers key on)."""
        return self._content_fingerprint


class _Pin:
    """Context manager handed to readers; releases its snapshot on exit."""

    def __init__(self, manager: "SnapshotManager", snapshot: ReadSnapshot) -> None:
        self._manager = manager
        self.snapshot = snapshot
        self._released = False

    def __enter__(self) -> ReadSnapshot:
        return self.snapshot

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def release(self) -> None:
        """Release the pin (idempotent); retirement may run here."""
        if not self._released:
            self._released = True
            self._manager.release(self.snapshot)


class SnapshotManager:
    """Publishes refcounted snapshots and defers retirement until drain.

    ``build`` produces a fresh :class:`ReadSnapshot` of the current index
    state; it runs under the caller's write lock (the service calls
    :meth:`refresh` under its index lock at the end of every mutation).
    Readers call :meth:`pin` — never the write lock — and the returned context manager
    keeps the pinned generation's payload files alive until released.
    """

    def __init__(self, build: Callable[[], ReadSnapshot]) -> None:
        self._build = build
        self._lock = threading.Lock()
        self._current: Optional[ReadSnapshot] = None
        self._pins: Dict[int, int] = {}  # id(snapshot) -> refcount
        self._retired: Dict[int, List[Callable[[], None]]] = {}
        self._refreshes = 0
        self._retirements_run = 0
        self._retirements_failed = 0

    # ------------------------------------------------------------------
    def _run_callbacks(self, callbacks: List[Callable[[], None]]) -> None:
        # Retirement runs on whichever reader happens to release last — a
        # raising callback must neither turn that reader's successful query
        # into an error nor strand the sibling callbacks queued behind it.
        for callback in callbacks:
            try:
                callback()
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                with self._lock:
                    self._retirements_failed += 1
                warnings.warn(
                    f"snapshot retirement callback failed ({error!r}); "
                    "remaining retirements still run",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                with self._lock:
                    self._retirements_run += 1

    def refresh(self, retire: Optional[Callable[[], None]] = None) -> ReadSnapshot:
        """Publish a snapshot of the current index state.

        ``retire`` (optional) is work that must wait for every reader of the
        *previous* snapshot to finish — typically unlinking payload files the
        new generation no longer references.  It runs immediately when no
        reader holds the old snapshot, else on the last release.
        """
        return self.publish(self._build(), retire)

    def publish(
        self, snapshot: ReadSnapshot, retire: Optional[Callable[[], None]] = None
    ) -> ReadSnapshot:
        """Publish an already built ``snapshot``; ``retire`` as in :meth:`refresh`."""
        due: List[Callable[[], None]] = []
        with self._lock:
            previous = self._current
            self._current = snapshot
            self._refreshes += 1
            if previous is not None and previous is not snapshot:
                key = id(previous)
                if retire is not None:
                    self._retired.setdefault(key, []).append(retire)
                if not self._pins.get(key):
                    self._pins.pop(key, None)
                    due = self._retired.pop(key, [])
            elif retire is not None:
                # Nothing replaced (first publish): the caller's obsolete
                # payloads have no readers, retire immediately.
                due = [retire]
        self._run_callbacks(due)
        return snapshot

    def pin(self) -> _Pin:
        """Pin the current snapshot for reading (build lazily on first use)."""
        with self._lock:
            current = self._current
            if current is not None:
                key = id(current)
                self._pins[key] = self._pins.get(key, 0) + 1
                return _Pin(self, current)
        # First reader before any refresh: build outside the manager lock
        # (the build itself may be expensive), then publish-and-pin.
        snapshot = self._build()
        with self._lock:
            if self._current is None:
                self._current = snapshot
                self._refreshes += 1
            current = self._current
            key = id(current)
            self._pins[key] = self._pins.get(key, 0) + 1
            return _Pin(self, current)

    def release(self, snapshot: ReadSnapshot) -> None:
        """Drop one pin; runs deferred retirement when the last reader leaves."""
        due: List[Callable[[], None]] = []
        with self._lock:
            key = id(snapshot)
            remaining = self._pins.get(key, 0) - 1
            if remaining > 0:
                self._pins[key] = remaining
            else:
                self._pins.pop(key, None)
                if snapshot is not self._current:
                    due = self._retired.pop(key, [])
        self._run_callbacks(due)

    def current_generation(self) -> Optional[int]:
        """Generation of the published snapshot (``None`` before the first)."""
        with self._lock:
            return self._current.generation if self._current is not None else None

    def shutdown(self) -> None:
        """Run every still-deferred retirement (call once readers are done)."""
        with self._lock:
            due = [cb for callbacks in self._retired.values() for cb in callbacks]
            self._retired.clear()
        self._run_callbacks(due)

    def stats(self) -> Dict[str, object]:
        """Pin/refresh/retirement counters for service reports."""
        with self._lock:
            return {
                "generation": self._current.generation if self._current else None,
                "pinned_readers": sum(self._pins.values()),
                "refreshes": self._refreshes,
                "retirements_pending": sum(len(v) for v in self._retired.values()),
                "retirements_run": self._retirements_run,
                "retirements_failed": self._retirements_failed,
            }
