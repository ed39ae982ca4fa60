"""Multi-process read replicas over one shared on-disk embedding index.

The serving tier so far is "one process, many threads": a
:class:`~repro.serve.service.NetTAGService` owns the write path and its
readers share the process.  This module adds the "many processes, one index"
shape a corpus-scale deployment runs:

* :class:`ReadReplica` opens an :class:`~repro.serve.index.EmbeddingIndex`
  directory **read-only** — the fingerprinted manifest plus the memory-mapped
  shard payloads; no write lock, no pending buffer — and serves
  exact (:func:`~repro.serve.search.exact_topk`) and HNSW queries through the
  same generation-pinned :class:`~repro.serve.snapshot.ReadSnapshot` surface
  the in-process service uses.
* A **generation watcher** polls the manifest (mtime/size fast path, content
  hash on change), atomically re-opens the index when the writer publishes a
  new generation, and retires the old snapshot through
  :class:`~repro.serve.snapshot.SnapshotManager` — in-flight queries finish
  on the generation they pinned, new queries land on the new one.  The
  writer owns all unlinks (compaction's stale payloads); on POSIX an
  unlinked payload another process has mapped stays readable until the last
  reference drops, so replica retirement is reference-dropping, never file
  surgery.
* Searches go through the same :class:`~repro.serve.read_path.ReadPath` the
  in-process service uses, so HNSW graphs are **loaded, not refitted**: the
  persisted sidecar (written by ``serve index fit-hnsw``) is attached when
  its content fingerprint matches, synced when stale, and a graph is fitted
  only when no sidecar exists.
* :class:`ReplicaPool` spawns N replica worker **processes** (spawn context —
  safe under any start method policy) each holding its own mmaps and
  watcher, and round-robins queries across them over pipes.

Single-writer / many-reader is the supported topology, matching the index's
own contract; replicas never write anything into the index directory.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .index import MANIFEST_NAME, EmbeddingIndex, IndexFormatError
from .read_path import ReadPath
from .search import SearchHit

PathLike = Union[str, Path]

# (st_mtime_ns, st_size, sha256 of the manifest bytes)
_ManifestToken = Tuple[int, int, str]


class ReplicaError(RuntimeError):
    """A read replica (or replica worker process) failed to serve."""


class ReadReplica:
    """A read-only query endpoint over an index another process writes.

    Opens the index directory without ever taking the write path and serves
    ``exact`` / ``hnsw`` queries on pinned read snapshots.  With
    ``watch=True`` (default) a daemon thread polls the manifest every
    ``poll_interval`` seconds and re-opens on change;
    :meth:`check_for_update` is the same poll step for callers that want
    explicit control (tests, single-threaded drivers).

    ``hnsw_params`` is the tuning of an HNSW graph this replica has to
    build with no earlier tuning to inherit; a loaded sidecar always
    carries its own tuning.
    """

    def __init__(
        self,
        directory: PathLike,
        poll_interval: float = 0.25,
        watch: bool = True,
        expected_fingerprints: Optional[Mapping[str, object]] = None,
        hnsw_params: Optional[Mapping[str, object]] = None,
        open_retries: int = 8,
        retry_delay: float = 0.05,
    ) -> None:
        self.directory = Path(directory)
        self.poll_interval = float(poll_interval)
        self._expected = dict(expected_fingerprints or {}) or None
        self._open_retries = max(1, int(open_retries))
        self._retry_delay = float(retry_delay)
        self._reopen_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "poll_checks": 0,
            "reopens": 0,
            "snapshots_retired": 0,
            "watch_errors": 0,
        }
        self._index: Optional[EmbeddingIndex] = None
        self._token: Optional[_ManifestToken] = None
        self.read_path = ReadPath(self._open_index, hnsw_params=hnsw_params)
        self._closed = False
        self._watcher: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        with self._reopen_lock:
            self._reopen_locked(initial=True)
        if watch:
            self.start_watcher()

    # ------------------------------------------------------------------
    # Open / re-open
    # ------------------------------------------------------------------
    def _read_token(self) -> _ManifestToken:
        """Fingerprint the manifest: stat first, bytes second.

        If the writer renames a new manifest in between, the token pairs the
        old mtime with the new content hash — the next poll then sees a
        changed mtime and triggers one redundant (harmless) re-open; a
        change can never be *missed*.
        """
        path = self.directory / MANIFEST_NAME
        stat = path.stat()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return (stat.st_mtime_ns, stat.st_size, digest)

    def _open_index(self) -> EmbeddingIndex:
        index = self._index
        if index is None:
            raise ReplicaError(f"replica over {self.directory} is not open")
        return index

    def _reopen_locked(self, initial: bool = False) -> None:
        """Open the manifest's current generation; retries bridge the window
        where a racing writer has switched the manifest but a just-compacted
        stale payload vanishes before our first mmap touches it."""
        last_error: Optional[Exception] = None
        for _ in range(self._open_retries):
            try:
                token = self._read_token()
                index = EmbeddingIndex.open(
                    self.directory, expected_fingerprints=self._expected
                )
                if self._index is not None:
                    # Shards the new manifest still lists keep their mmap,
                    # norms and metadata: only new shards are read.
                    index._adopt_shards(self._index)
                # Materialise every mmap *now* (the snapshot touches each
                # payload): after this, a writer-side unlink of any of these
                # files is harmless — the mapping keeps the inode alive.
                snapshot = index.snapshot()
            except (FileNotFoundError, IndexFormatError, OSError) as error:
                last_error = error
                time.sleep(self._retry_delay)
                continue
            self._index = index
            self._token = token
            self.read_path.snapshots.publish(
                snapshot, retire=None if initial else self._on_retire
            )
            if not initial:
                with self._stats_lock:
                    self._counters["reopens"] += 1
            return
        raise ReplicaError(
            f"could not open index at {self.directory} after "
            f"{self._open_retries} attempts: {last_error}"
        )

    def _on_retire(self) -> None:
        # Replica-side retirement is pure reference dropping (the writer owns
        # unlinks); the counter makes the deferred-retirement path observable.
        with self._stats_lock:
            self._counters["snapshots_retired"] += 1

    def check_for_update(self) -> bool:
        """One watcher step: re-open if the manifest changed.  Returns True
        when a new generation was published to readers."""
        if self._closed:
            return False
        with self._stats_lock:
            self._counters["poll_checks"] += 1
        try:
            stat = (self.directory / MANIFEST_NAME).stat()
        except OSError:
            return False  # mid-rename or gone; the next poll decides
        if self._token is not None and (stat.st_mtime_ns, stat.st_size) == self._token[:2]:
            return False
        with self._reopen_lock:
            if self._closed:
                return False
            try:
                token = self._read_token()
            except OSError:
                return False
            if token == self._token:
                return False
            self._reopen_locked()
        return True

    # ------------------------------------------------------------------
    # Watcher thread
    # ------------------------------------------------------------------
    def start_watcher(self) -> None:
        """Start the background manifest poller (idempotent)."""
        if self._watcher is not None or self._closed:
            return
        thread = threading.Thread(
            target=self._watch_loop,
            name=f"replica-watch-{self.directory.name}",
            daemon=True,
        )
        self._watcher = thread
        thread.start()

    def _watch_loop(self) -> None:
        while not self._stop_event.wait(self.poll_interval):
            try:
                self.check_for_update()
            except Exception:  # noqa: BLE001 - watcher must survive; retried next tick
                with self._stats_lock:
                    self._counters["watch_errors"] += 1

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def query(
        self,
        queries: np.ndarray,
        k: int = 10,
        kind: Optional[str] = None,
        algorithm: str = "exact",
        exclude_keys: Optional[Sequence[str]] = None,
    ) -> List[List[SearchHit]]:
        """Top-k per query row on a pinned snapshot (one consistent generation).

        ``algorithm`` is ``"exact"`` (default) or ``"hnsw"``;
        ``exclude_keys`` applies to every query row.  See
        :meth:`ReadPath.search <repro.serve.read_path.ReadPath.search>`.
        """
        if self._closed:
            raise ReplicaError("query on a closed ReadReplica")
        rows = 1 if np.ndim(queries) == 1 else len(queries)
        with self.read_path.snapshots.pin() as snapshot:
            return self.read_path.search(
                snapshot, queries, k=k, kind=kind, algorithm=algorithm,
                exclude_keys=[tuple(exclude_keys or ())] * rows,
            )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The manifest generation this replica currently serves."""
        return self._open_index().generation

    def stats(self) -> Dict[str, object]:
        """Watcher / re-open / searcher counters plus snapshot stats."""
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "directory": str(self.directory),
            "generation": self._index.generation if self._index is not None else None,
            "watching": self._watcher is not None and self._watcher.is_alive(),
            "poll_interval": self.poll_interval,
            "snapshots": self.read_path.snapshots.stats(),
            **counters,
            **self.read_path.stats(),
        }

    def close(self) -> None:
        """Stop the watcher and release every snapshot reference (idempotent)."""
        self._closed = True
        self._stop_event.set()
        watcher = self._watcher
        if watcher is not None:
            watcher.join(timeout=10)
            self._watcher = None
        self.read_path.snapshots.shutdown()

    def __enter__(self) -> "ReadReplica":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# Process pool
# ----------------------------------------------------------------------
def _replica_worker(directory: str, conn, options: Dict[str, Any]) -> None:
    """One replica process: a :class:`ReadReplica` behind a request pipe.

    Module-level (spawn-picklable).  Protocol: every message is a
    ``(command, payload)`` tuple and gets exactly one ``(status, result)``
    reply — ``("ok", ...)`` or ``("error", "<type>: <message>")``; a failed
    startup replies ``("fatal", ...)`` and exits.
    """
    try:
        replica = ReadReplica(
            directory,
            poll_interval=float(options.get("poll_interval", 0.2)),
            watch=bool(options.get("watch", True)),
            expected_fingerprints=options.get("expected_fingerprints"),
            hnsw_params=options.get("hnsw_params"),
        )
    except Exception as error:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", "ready"))
        while True:
            try:
                command, payload = conn.recv()
            except (EOFError, OSError):
                break
            try:
                if command == "query":
                    conn.send(("ok", replica.query(**payload)))
                elif command == "stats":
                    conn.send(("ok", replica.stats()))
                elif command == "close":
                    conn.send(("ok", "closing"))
                    break
                else:
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception as error:  # noqa: BLE001 - one request, one reply
                conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        replica.close()
        conn.close()


class ReplicaPool:
    """N spawn-safe replica processes behind a round-robin dispatch helper.

    Each worker is a full query endpoint (own mmaps, own generation watcher,
    own searchers); the pool only routes.  :meth:`query` round-robins across
    workers (or targets one with ``replica=``); per-connection locks make the
    pool safe to drive from many client threads at once.  Use as a context
    manager so the workers are joined on exit.
    """

    def __init__(
        self,
        directory: PathLike,
        num_replicas: int = 2,
        poll_interval: float = 0.2,
        watch: bool = True,
        expected_fingerprints: Optional[Mapping[str, object]] = None,
        hnsw_params: Optional[Mapping[str, object]] = None,
        start: bool = True,
        startup_timeout: float = 120.0,
    ) -> None:
        if num_replicas < 1:
            raise ValueError("need at least one replica")
        self.directory = Path(directory)
        self.num_replicas = int(num_replicas)
        self._options: Dict[str, Any] = {
            "poll_interval": float(poll_interval),
            "watch": bool(watch),
            "expected_fingerprints": dict(expected_fingerprints or {}) or None,
            "hnsw_params": dict(hnsw_params or {}) or None,
        }
        self._startup_timeout = float(startup_timeout)
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._locks: List[threading.Lock] = []
        self._dispatch = itertools.count()
        self._started = False
        if start:
            self.start()

    def start(self) -> "ReplicaPool":
        """Spawn the workers and wait for each readiness handshake."""
        if self._started:
            return self
        for slot in range(self.num_replicas):
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_replica_worker,
                args=(str(self.directory), child_conn, self._options),
                name=f"read-replica-{slot}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)
            self._locks.append(threading.Lock())
        for slot, conn in enumerate(self._conns):
            status, payload = ("fatal", "no readiness handshake")
            if conn.poll(self._startup_timeout):
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError) as error:
                    status, payload = "fatal", repr(error)
            if status != "ok":
                self.close()
                raise ReplicaError(f"replica {slot} failed to start: {payload}")
        self._started = True
        return self

    # ------------------------------------------------------------------
    def _call(self, slot: int, command: str, payload: Any = None) -> Any:
        if not self._started:
            raise ReplicaError("ReplicaPool is not started")
        conn = self._conns[slot]
        try:
            with self._locks[slot]:
                conn.send((command, payload))
                status, result = conn.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            raise ReplicaError(f"replica {slot} died mid-request: {error!r}")
        if status != "ok":
            raise ReplicaError(f"replica {slot}: {result}")
        return result

    def query(
        self,
        queries: np.ndarray,
        k: int = 10,
        kind: Optional[str] = None,
        algorithm: str = "exact",
        exclude_keys: Optional[Sequence[str]] = None,
        replica: Optional[int] = None,
    ) -> List[List[SearchHit]]:
        """Round-robin a query batch to one worker; same contract as
        :meth:`ReadReplica.query`."""
        slot = (
            int(replica) % self.num_replicas
            if replica is not None
            else next(self._dispatch) % self.num_replicas
        )
        payload = {
            "queries": np.asarray(queries, dtype=np.float64),
            "k": int(k),
            "kind": kind,
            "algorithm": algorithm,
            "exclude_keys": list(exclude_keys) if exclude_keys else None,
        }
        return self._call(slot, "query", payload)

    def stats(self) -> List[Dict[str, object]]:
        """Per-worker :meth:`ReadReplica.stats` reports."""
        return [self._call(slot, "stats") for slot in range(self.num_replicas)]

    def close(self) -> None:
        """Shut every worker down and join the processes (idempotent)."""
        for slot, conn in enumerate(self._conns):
            try:
                with self._locks[slot]:
                    conn.send(("close", None))
                    if conn.poll(5):
                        conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                pass
            finally:
                conn.close()
        for process in self._procs:
            process.join(timeout=15)
            if process.is_alive():  # pragma: no cover - stuck worker backstop
                process.terminate()
                process.join(timeout=5)
        self._procs = []
        self._conns = []
        self._locks = []
        self._started = False

    def __enter__(self) -> "ReplicaPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
