"""On-disk sharded embedding index.

:class:`EmbeddingIndex` persists the embeddings :meth:`NetTAG.encode_netlists`
produces so that retrieval workloads (netlist-to-netlist similarity, the
paper's reverse-engineering lookup, near-duplicate detection) do not have to
re-encode a corpus on every query.  The design goals, in order:

* **Bounded memory at any corpus size.**  Vectors live in fixed-size shards;
  each shard's payload is one raw ``.npy`` file that is *memory-mapped* on
  read (``np.load(mmap_mode="r")``), so a query touches only the shard bytes
  the matmul actually streams through.  Raw ``.npy`` is used instead of a
  zipped ``.npz`` archive precisely because zip members cannot be mapped.
* **Crash-safe incremental growth.**  ``add`` buffers rows and seals full
  shards as it goes; shard payloads and the JSON manifest are written
  atomically (temp + rename, like the training checkpoints), so an
  interrupted ingest can never leave a manifest pointing at a truncated
  payload.
* **Provenance.**  The manifest records the embedding dimension, a format
  version and caller-supplied fingerprints (model weights, configuration,
  library version).  :meth:`open` warns when they disagree with what the
  running process expects instead of silently mixing embedding spaces.

Entries are ``(key, kind, vector)`` rows.  ``kind`` partitions one index into
multiple logical namespaces of the same dimension (``"cone"``, ``"circuit"``,
``"rtl"`` and ``"layout"`` in the NetTAG service), so every modality shares
shards, fingerprints and compaction.  Row identity is the ``(key, kind)``
pair: re-adding a key *within* a kind supersedes the old row, while the same
key under different kinds holds one row per kind — that is what lets aligned
cross-modal entries share a key (``repro.serve.crossmodal``) and still be
retrieved per namespace.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
import warnings
from itertools import chain, repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..nn.serialization import atomic_write

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
# Version 2 widened row identity (and therefore tombstones) from plain keys
# to (key, kind) pairs; version-1 manifests are still readable — their
# key-only tombstones are interpreted as covering every kind.
_FORMAT_VERSION = 2
_READABLE_FORMAT_VERSIONS = (1, 2)
_DTYPE = np.float32

# One segment's search metadata: ``(keys, kinds_array, live_rows)``.
Metadata = Tuple[List[str], np.ndarray, np.ndarray]


def _library_version() -> str:
    from .. import __version__

    return __version__


def _shard_id(name: str) -> int:
    """The number in a ``shard-NNNNN`` name (-1 for any other name)."""
    try:
        return int(name.split("-")[1])
    except (IndexError, ValueError):
        return -1


class IndexFormatError(RuntimeError):
    """The directory does not hold a readable embedding index."""


class _Shard:
    """One sealed shard: a memory-mapped payload plus its row metadata."""

    def __init__(self, directory: Path, name: str, count: int) -> None:
        self.directory = directory
        self.name = name
        self.count = count
        self._matrix: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None
        self._keys: Optional[List[str]] = None
        self._kinds: Optional[List[str]] = None
        self._kinds_array: Optional[np.ndarray] = None

    @property
    def payload_path(self) -> Path:
        return self.directory / f"{self.name}.npy"

    @property
    def meta_path(self) -> Path:
        return self.directory / f"{self.name}.meta.json"

    def _load_meta(self) -> None:
        if self._keys is not None:
            return
        try:
            meta = json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise IndexFormatError(f"unreadable shard metadata {self.meta_path}: {error}")
        self._keys = list(meta["keys"])
        self._kinds = list(meta["kinds"])
        if len(self._keys) != self.count or len(self._kinds) != self.count:
            raise IndexFormatError(
                f"shard {self.name}: manifest says {self.count} rows, "
                f"metadata has {len(self._keys)} keys"
            )

    @property
    def keys(self) -> List[str]:
        self._load_meta()
        return self._keys  # type: ignore[return-value]

    @property
    def kinds(self) -> List[str]:
        self._load_meta()
        return self._kinds  # type: ignore[return-value]

    @property
    def kinds_array(self) -> np.ndarray:
        """``kinds`` as an object array (built once: a shard never changes)."""
        if self._kinds_array is None:
            self._kinds_array = np.asarray(self.kinds, dtype=object)
        return self._kinds_array

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.load(self.payload_path, mmap_mode="r")
            if self._matrix.shape[0] != self.count:
                raise IndexFormatError(
                    f"shard {self.name}: payload has {self._matrix.shape[0]} rows, "
                    f"manifest says {self.count}"
                )
        return self._matrix

    @property
    def norms(self) -> np.ndarray:
        """Row L2 norms (computed once per process, cached in RAM)."""
        if self._norms is None:
            matrix = np.asarray(self.matrix, dtype=np.float64)
            self._norms = np.maximum(np.linalg.norm(matrix, axis=1), 1e-12)
        return self._norms


class EmbeddingIndex:
    """Persistent, sharded ``(key, kind, vector)`` store with cosine retrieval.

    Create a fresh index with :meth:`create`, reopen an existing one with
    :meth:`open`.  ``add`` appends rows (auto-sealing full shards), ``save``
    flushes the tail and rewrites the manifest, ``remove`` tombstones keys,
    ``compact`` rewrites the shards dropping tombstones and superseded
    duplicates, and ``merge`` appends every live row of another index.
    """

    def __init__(
        self,
        directory: PathLike,
        dim: int,
        shard_size: int = 1024,
        metric: str = "cosine",
        fingerprints: Optional[Mapping[str, object]] = None,
        _shards: Optional[List[_Shard]] = None,
        _tombstones: Optional[Sequence[str]] = None,
        _generation: int = 0,
        _index_id: Optional[str] = None,
        _next_shard_id: int = 0,
    ) -> None:
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        if shard_size < 1:
            raise ValueError("shard size must be positive")
        self.directory = Path(directory)
        self.dim = int(dim)
        self.shard_size = int(shard_size)
        self.metric = metric
        self.fingerprints: Dict[str, object] = dict(fingerprints or {})
        self._shards: List[_Shard] = list(_shards or [])
        # Tombstones are (key, kind) pairs; kind=None is a wildcard covering
        # every kind (produced by kind-less removes and by legacy manifests).
        self._tombstones: set = {self._tombstone_entry(t) for t in (_tombstones or ())}
        self._pending_keys: List[str] = []
        self._pending_kinds: List[str] = []
        self._pending_rows: List[np.ndarray] = []
        # Bumped on every mutation; derived structures (the cached search
        # metadata below, fitted IVF searchers) key their validity on it.
        # Persisted in the manifest (restored by ``open``) so cross-process
        # readers — :class:`repro.serve.replica.ReadReplica` — see a counter
        # that survives the writer saving, exiting and reopening.
        self._generation = int(_generation)
        # Random id from ``create`` (None for manifests that predate it): a
        # rebuild in place with the same shard layout still fingerprints anew.
        self._index_id = _index_id
        self._search_cache: Optional[Tuple[int, List[Metadata]]] = None
        # Derived read state, maintained incrementally by every mutation and
        # built from scratch only on first use (after ``open``/``compact``):
        # ``_latest`` maps each live ``(key, kind)`` to its latest
        # ``(segment, row)``, ``_shard_meta`` holds one ``(keys, kinds_array,
        # live_rows)`` tuple per sealed shard (replaced, never mutated, so
        # pinned snapshots keep their view) and ``_kinds_seen`` is every kind
        # any row was added under (kind-less lookups probe each).
        self._latest: Optional[Dict[Tuple[str, str], Tuple[int, int]]] = None
        self._shard_meta: List[Metadata] = []
        self._kinds_seen: Set[str] = set()
        # High-water mark of shard ids: above every listed shard, and above
        # every name ``_next_shard_name`` has handed out since.  Persisted in
        # the manifest, so a later writer process never reuses a name either.
        self._next_shard_id = max(
            max((_shard_id(shard.name) for shard in self._shards), default=-1) + 1,
            int(_next_shard_id),
        )
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Tombstone representation
    # ------------------------------------------------------------------
    @staticmethod
    def _tombstone_entry(entry) -> Tuple[str, Optional[str]]:
        """Normalise a manifest/constructor tombstone into ``(key, kind)``.

        Legacy (format-1) manifests stored plain keys; those become wildcard
        ``(key, None)`` pairs that suppress the key in every kind.
        """
        if isinstance(entry, str):
            return (entry, None)
        key, kind = entry
        return (str(key), None if kind is None else str(kind))

    def _is_dead(self, key: str, kind: str) -> bool:
        """Whether the ``(key, kind)`` row is tombstoned (wildcards included)."""
        return (key, kind) in self._tombstones or (key, None) in self._tombstones

    # ------------------------------------------------------------------
    # Derived read state
    # ------------------------------------------------------------------
    def _live(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """The latest-row map, built from scratch if nothing maintains it yet."""
        if self._latest is None:
            self._rebuild_live()
        return self._latest  # type: ignore[return-value]

    def _rebuild_live(self) -> None:
        """One pass over every row: the latest-row map and per-shard metadata."""
        latest: Dict[Tuple[str, str], Tuple[int, int]] = {}
        segments = [(shard.keys, shard.kinds) for shard in self._shards]
        segments.append((self._pending_keys, self._pending_kinds))
        for segment, (keys, kinds) in enumerate(segments):
            rows = zip(zip(keys, kinds), zip(repeat(segment), range(len(keys))))
            if self._tombstones:
                rows = ((pair, position) for pair, position in rows if not self._is_dead(*pair))
            latest.update(rows)  # a later row of a pair overwrites its earlier one
        # Live rows per sealed shard: the latest positions, sorted by
        # (segment, row) and cut at segment boundaries.
        positions = np.fromiter(
            chain.from_iterable(latest.values()), dtype=np.int64, count=2 * len(latest)
        ).reshape(-1, 2)
        positions = positions[np.lexsort((positions[:, 1], positions[:, 0]))]
        bounds = np.searchsorted(positions[:, 0], np.arange(len(self._shards) + 1))
        self._shard_meta = [
            (shard.keys, shard.kinds_array, positions[bounds[s] : bounds[s + 1], 1].copy())
            for s, shard in enumerate(self._shards)
        ]
        self._kinds_seen = set().union(*(kinds for _, kinds in segments))
        self._latest = latest

    def _drop_live(self, positions: Iterable[Tuple[int, int]]) -> None:
        """Take superseded or removed sealed rows out of their shard's live rows.

        Copy-on-write: the touched shard gets a new tuple, so a snapshot that
        already holds the old one keeps seeing the row.  Pending positions
        are ignored (the pending tail's live rows are derived per snapshot).
        """
        by_segment: Dict[int, List[int]] = {}
        for segment, row in positions:
            if segment < len(self._shards):
                by_segment.setdefault(segment, []).append(row)
        for segment, rows in by_segment.items():
            keys, kinds_array, live = self._shard_meta[segment]
            self._shard_meta[segment] = (keys, kinds_array, live[~np.isin(live, rows)])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        dim: int,
        shard_size: int = 1024,
        metric: str = "cosine",
        fingerprints: Optional[Mapping[str, object]] = None,
        overwrite: bool = False,
    ) -> "EmbeddingIndex":
        """Start a fresh index at ``directory`` (must not already hold one)."""
        directory = Path(directory)
        manifest = directory / MANIFEST_NAME
        if manifest.exists():
            if not overwrite:
                raise FileExistsError(
                    f"{directory} already holds an embedding index; pass overwrite=True "
                    "to replace it or use EmbeddingIndex.open() to append"
                )
            existing = cls.open(directory)
            for shard in existing._shards:
                shard.payload_path.unlink(missing_ok=True)
                shard.meta_path.unlink(missing_ok=True)
            manifest.unlink()
        index = cls(directory, dim, shard_size=shard_size, metric=metric,
                    fingerprints=fingerprints, _index_id=uuid.uuid4().hex)
        index._write_manifest()
        return index

    @classmethod
    def open(
        cls,
        directory: PathLike,
        expected_fingerprints: Optional[Mapping[str, object]] = None,
    ) -> "EmbeddingIndex":
        """Open an existing index, validating format and provenance.

        Mirrors checkpoint loading: a format-version mismatch is an error
        (the bytes cannot be interpreted), while fingerprint disagreements
        (different model weights, configuration or library version) warn and
        proceed — the caller may be inspecting an index on purpose.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no embedding index at {directory} (missing {MANIFEST_NAME})")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise IndexFormatError(f"unreadable index manifest {manifest_path}: {error}")
        if manifest.get("format_version") not in _READABLE_FORMAT_VERSIONS:
            raise IndexFormatError(
                f"index format version {manifest.get('format_version')!r} is not "
                f"supported (expected one of {_READABLE_FORMAT_VERSIONS})"
            )
        fingerprints = dict(manifest.get("fingerprints", {}))
        for key, expected in (expected_fingerprints or {}).items():
            stored = fingerprints.get(key)
            if stored != expected:
                warnings.warn(
                    f"embedding index fingerprint mismatch for {key!r}: "
                    f"index has {stored!r}, expected {expected!r}; embeddings may "
                    "come from a different model/configuration",
                    stacklevel=2,
                )
        shards = [
            _Shard(directory, entry["name"], int(entry["count"]))
            for entry in manifest.get("shards", [])
        ]
        return cls(
            directory,
            dim=int(manifest["dim"]),
            shard_size=int(manifest.get("shard_size", 1024)),
            metric=manifest.get("metric", "cosine"),
            fingerprints=fingerprints,
            _shards=shards,
            _tombstones=manifest.get("tombstones", []),
            _generation=int(manifest.get("generation", 0)),
            _index_id=manifest.get("index_id"),
            _next_shard_id=int(manifest.get("next_shard_id", 0)),
        )

    def _adopt_shards(self, previous: "EmbeddingIndex") -> None:
        """Reuse the loaded shards of an earlier open of this same index.

        Shards are immutable, so a shard ``previous`` holds under a name and
        row count this manifest still lists is the same shard: its mmap,
        norms and metadata carry over and only new shards are read.  Call
        before the first read.  Nothing is adopted across indexes (a
        ``create(overwrite=True)`` restarts shard names under a new id) or
        from a manifest without an id.
        """
        if self._index_id is None or previous._index_id != self._index_id:
            return
        loaded = {(shard.name, shard.count): shard for shard in previous._shards}
        self._shards = [loaded.get((shard.name, shard.count), shard) for shard in self._shards]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(
        self,
        keys: Sequence[str],
        embeddings: np.ndarray,
        kinds: Union[str, Sequence[str]] = "cone",
    ) -> None:
        """Append rows; full shards are sealed to disk as the buffer fills.

        Row identity is the ``(key, kind)`` pair: re-adding a key within the
        same kind shadows the old row for :meth:`get` and revives a
        tombstoned entry, while the same key under a *different* kind is a
        separate row (aligned cross-modal entries share keys across kinds).
        Superseded rows remain in their shard until :meth:`compact` rewrites
        them away.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim == 1:
            embeddings = embeddings[None, :]
        if embeddings.shape[0] != len(keys):
            raise ValueError(f"got {len(keys)} keys for {embeddings.shape[0]} embedding rows")
        if embeddings.shape[1] != self.dim:
            raise ValueError(
                f"embedding dimension {embeddings.shape[1]} does not match index dim {self.dim}"
            )
        if isinstance(kinds, str):
            kinds = [kinds] * len(keys)
        elif len(kinds) != len(keys):
            raise ValueError(f"got {len(kinds)} kinds for {len(keys)} keys")
        latest = self._live()
        pending_segment = len(self._shards)
        superseded: List[Tuple[int, int]] = []
        for key, kind, row in zip(keys, kinds, embeddings):
            key, kind = str(key), str(kind)
            self._tombstones.discard((key, kind))
            if (key, None) in self._tombstones:
                # Re-adding under one kind revives the key there only: narrow
                # the wildcard to the other kinds that still hold the key.
                self._tombstones.discard((key, None))
                for _, _, existing_key, existing_kind in self._iter_rows(
                    include_tombstoned=True
                ):
                    if existing_key == key and existing_kind != kind:
                        self._tombstones.add((key, existing_kind))
            pair = (key, kind)
            previous = latest.get(pair)
            if previous is not None:
                superseded.append(previous)
            latest[pair] = (pending_segment, len(self._pending_keys))
            self._kinds_seen.add(kind)
            self._pending_keys.append(key)
            self._pending_kinds.append(kind)
            self._pending_rows.append(np.asarray(row, dtype=_DTYPE))
        self._drop_live(superseded)
        self._generation += 1
        while len(self._pending_keys) >= self.shard_size:
            self._seal(self.shard_size)

    def remove(self, keys: Sequence[str], kind: Optional[str] = None) -> int:
        """Tombstone entries (hidden from lookups/search; dropped on compact).

        With ``kind=None`` a key is removed from every kind (namespace); with
        a kind, only that modality's row dies — removing a cone's ``"layout"``
        row keeps its ``"cone"``/``"rtl"`` partners retrievable.  Returns the
        number of live ``(key, kind)`` entries tombstoned.
        """
        latest = self._live()
        kinds = [kind] if kind is not None else list(self._kinds_seen)
        dead: List[Tuple[int, int]] = []
        for key in set(keys):
            for row_kind in kinds:
                position = latest.pop((key, row_kind), None)
                if position is not None:
                    self._tombstones.add((key, row_kind))
                    dead.append(position)
        if dead:
            self._generation += 1
            self._drop_live(dead)
            # Pending rows can be dropped immediately — they are not on disk
            # yet; the survivors' latest-row positions move down with them.
            segment = len(self._shards)
            kept = [r for r, pair in enumerate(zip(self._pending_keys, self._pending_kinds))
                    if not self._is_dead(*pair)]
            self._pending_keys = [self._pending_keys[r] for r in kept]
            self._pending_kinds = [self._pending_kinds[r] for r in kept]
            self._pending_rows = [self._pending_rows[r] for r in kept]
            for new, (old, pair) in enumerate(
                zip(kept, zip(self._pending_keys, self._pending_kinds))
            ):
                if latest.get(pair) == (segment, old):
                    latest[pair] = (segment, new)
            self._write_manifest()
        return len(dead)

    def _next_shard_name(self) -> str:
        """Next shard id above every shard this index has listed or named.

        Ids come from a high-water mark kept in the manifest, so a name is
        not handed out twice even after a failed write, or by a later writer
        process after a compact that dropped every shard (replicas adopt
        loaded shards by name and row count).  A
        candidate whose payload file is already on disk — an orphan left by
        a crash between a payload write and the manifest write — is skipped
        over, never clobbered.
        """
        shard_id = self._next_shard_id
        while (self.directory / f"shard-{shard_id:05d}.npy").exists():
            shard_id += 1
        self._next_shard_id = shard_id + 1
        return f"shard-{shard_id:05d}"

    def _write_shard(
        self, keys: Sequence[str], kinds: Sequence[str], rows: Sequence[np.ndarray]
    ) -> _Shard:
        """Write one shard's payload + metadata atomically (no manifest write)."""
        name = self._next_shard_name()
        matrix = np.stack([np.asarray(row, dtype=_DTYPE) for row in rows])
        shard = _Shard(self.directory, name, len(keys))

        def _write_payload(tmp: Path) -> None:
            with tmp.open("wb") as handle:
                np.save(handle, matrix)

        atomic_write(shard.payload_path, shard.payload_path.name + ".tmp", _write_payload)
        meta = {"keys": list(keys), "kinds": list(kinds)}

        def _write_meta(tmp: Path) -> None:
            tmp.write_text(json.dumps(meta))

        atomic_write(shard.meta_path, shard.meta_path.name + ".tmp", _write_meta)
        shard._keys, shard._kinds = list(keys), list(kinds)
        return shard

    def _seal(self, count: int) -> None:
        """Write the first ``count`` pending rows as a new shard.

        The sealed rows keep their segment number (the pending tail's), so
        only the rows still pending after a partial seal are renumbered.
        """
        latest = self._live()
        shard = self._write_shard(
            self._pending_keys[:count],
            self._pending_kinds[:count],
            self._pending_rows[:count],
        )
        segment = len(self._shards)
        pairs = list(zip(self._pending_keys, self._pending_kinds))
        live = np.fromiter(
            (r for r, pair in enumerate(pairs[:count]) if latest.get(pair) == (segment, r)),
            dtype=np.int64,
        )
        for r, pair in enumerate(pairs[count:], start=count):
            if latest.get(pair) == (segment, r):
                latest[pair] = (segment + 1, r - count)
        self._shards.append(shard)
        self._shard_meta.append((shard.keys, shard.kinds_array, live))
        del self._pending_keys[:count]
        del self._pending_kinds[:count]
        del self._pending_rows[:count]
        self._generation += 1  # rows moved between segments
        self._write_manifest()

    def flush(self) -> None:
        """Seal any buffered rows into a (possibly short) tail shard."""
        if self._pending_keys:
            self._seal(len(self._pending_keys))

    def save(self) -> Path:
        """Flush pending rows and rewrite the manifest; returns its path."""
        if self._pending_keys:
            self.flush()  # sealing writes the manifest
        else:
            self._write_manifest()
        return self.directory / MANIFEST_NAME

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "library_version": _library_version(),
            "dim": self.dim,
            "metric": self.metric,
            "shard_size": self.shard_size,
            "fingerprints": self.fingerprints,
            "generation": self._generation,
            "index_id": self._index_id,
            "next_shard_id": self._next_shard_id,
            "shards": [{"name": s.name, "count": s.count} for s in self._shards],
            "tombstones": [
                list(entry)
                for entry in sorted(self._tombstones, key=lambda e: (e[0], e[1] or ""))
            ],
            "updated": time.time(),
        }
        path = self.directory / MANIFEST_NAME

        def _write(tmp: Path) -> None:
            tmp.write_text(json.dumps(manifest, indent=2))

        atomic_write(path, path.name + ".tmp", _write)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live entries (unique ``(key, kind)`` pairs)."""
        return len(self._live())

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is live under *any* kind."""
        latest = self._live()
        return any((key, kind) in latest for kind in self._kinds_seen)

    def keys(self, kind: Optional[str] = None) -> List[str]:
        """Live keys, first-added order, duplicates collapsed.

        ``kind`` restricts the listing to one namespace (keys are unique
        within a kind; without the filter a cross-modal key appears once even
        when several kinds hold it).
        """
        seen: Dict[str, None] = {}
        for _, _, key, row_kind in self._iter_rows(include_tombstoned=False):
            if kind is None or row_kind == kind:
                seen.setdefault(key, None)
        return list(seen)

    def _iter_rows(
        self, include_tombstoned: bool = False
    ) -> Iterator[Tuple[int, int, str, str]]:
        """Yield ``(segment, row, key, kind)`` over sealed shards then pending."""
        for s, shard in enumerate(self._shards):
            for r, (key, kind) in enumerate(zip(shard.keys, shard.kinds)):
                if include_tombstoned or not self._is_dead(key, kind):
                    yield s, r, key, kind
        for r, (key, kind) in enumerate(zip(self._pending_keys, self._pending_kinds)):
            if include_tombstoned or not self._is_dead(key, kind):
                yield len(self._shards), r, key, kind

    def get(self, key: str, kind: Optional[str] = None) -> Optional[np.ndarray]:
        """The latest live vector stored under ``key`` (a float64 copy).

        ``kind`` selects one namespace; without it the latest live row of any
        kind wins (the only row there is, for single-modality indexes).
        """
        latest = self._live()
        kinds = [kind] if kind is not None else self._kinds_seen
        positions = [latest[(key, k)] for k in kinds if (key, k) in latest]
        if not positions:
            return None
        segment, row = max(positions)
        if segment == len(self._shards):
            return np.asarray(self._pending_rows[row], dtype=np.float64).copy()
        return np.asarray(self._shards[segment].matrix[row], dtype=np.float64)

    def iter_segments(
        self,
    ) -> Iterator[Tuple[List[str], List[str], np.ndarray, np.ndarray]]:
        """Yield ``(keys, kinds, matrix, norms)`` per segment for search.

        Sealed shards yield their memory-mapped payloads; buffered rows yield
        one in-memory tail segment, so search always sees every added row
        without forcing a flush.  Tombstoned keys are *included* here (search
        masks them) to keep row indices aligned with the payload.
        """
        for shard in self._shards:
            yield shard.keys, shard.kinds, shard.matrix, shard.norms
        if self._pending_keys:
            matrix = np.stack(self._pending_rows).astype(_DTYPE)
            norms = np.maximum(np.linalg.norm(matrix.astype(np.float64), axis=1), 1e-12)
            yield list(self._pending_keys), list(self._pending_kinds), matrix, norms

    def is_tombstoned(self, key: str, kind: Optional[str] = None) -> bool:
        """Whether ``key`` is tombstoned (in ``kind``, or in any kind)."""
        if kind is not None:
            return self._is_dead(key, kind)
        return any(entry[0] == key for entry in self._tombstones)

    @property
    def num_shards(self) -> int:
        """Number of sealed on-disk shards."""
        return len(self._shards)

    @property
    def generation(self) -> int:
        """Mutation counter; any add/remove/seal/compact advances it.

        The cached search metadata records the generation it was built at
        and refreshes when it moves — a count-neutral mutation (remove one
        key, add another) still invalidates it.  Searchers key on
        :meth:`content_fingerprint` instead, which cannot collide across
        rebuilds.
        """
        return self._generation

    def content_fingerprint(self) -> str:
        """SHA-256 over the index's logical content (layout, not bytes).

        Covers the index id ``create`` stamps (so a rebuild in place with the
        same layout differs), the sealed-shard layout (names + row counts —
        shards are immutable, so that identifies their content), the
        tombstone set, the buffered tail (keys, kinds and vector bytes) and
        the dimension.  Two opens of the same on-disk state agree, any
        mutation changes it — this is what lets a persisted HNSW graph
        (:meth:`HNSWSearcher.save <repro.serve.search.HNSWSearcher.save>`)
        prove in another process that it was fitted on exactly this content,
        where the generation counter alone could collide across rebuilds.
        """
        digest = hashlib.sha256()
        digest.update(f"dim={self.dim}".encode())
        if self._index_id is not None:
            digest.update(f"|id:{self._index_id}".encode())
        for shard in self._shards:
            digest.update(f"|s:{shard.name}:{shard.count}".encode())
        for key, kind in sorted(self._tombstones, key=lambda e: (e[0], e[1] or "")):
            digest.update(f"|t:{key}\x00{kind or ''}".encode())
        for key, kind, row in zip(
            self._pending_keys, self._pending_kinds, self._pending_rows
        ):
            digest.update(f"|p:{key}\x00{kind}\x00".encode())
            digest.update(np.asarray(row, dtype=_DTYPE).tobytes())
        return digest.hexdigest()

    def search_metadata(self) -> List[Metadata]:
        """Per-segment ``(keys, kinds_array, live_rows)``, cached per generation.

        ``live_rows`` holds the row indices whose key's *latest* live row is
        that row — tombstoned keys and superseded duplicates excluded — so
        search paths get their masking as one cached array instead of
        re-deriving it with a Python scan per query.  Segment order matches
        :meth:`iter_segments`.  Sealed shards' tuples are maintained by the
        mutations themselves, so this costs O(#shards + pending rows).
        """
        if self._search_cache is not None and self._search_cache[0] == self._generation:
            return self._search_cache[1]
        latest = self._live()
        metadata = list(self._shard_meta)
        if self._pending_keys:
            segment = len(self._shards)
            live = np.fromiter(
                (
                    r
                    for r, pair in enumerate(zip(self._pending_keys, self._pending_kinds))
                    if latest.get(pair) == (segment, r)
                ),
                dtype=np.int64,
            )
            kinds_array = np.asarray(self._pending_kinds, dtype=object)
            metadata.append((list(self._pending_keys), kinds_array, live))
        self._search_cache = (self._generation, metadata)
        return metadata

    def live_row_map(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """``(key, kind) -> (segment, row)`` of each live entry's latest row.

        The index's own maintained map: read it, do not mutate it.
        """
        return self._live()

    def snapshot(self) -> "ReadSnapshot":
        """An immutable generation-pinned view for lock-free readers.

        Sealed shards contribute their memory-mapped payloads and their
        metadata tuples by reference (the mapping stays valid while the
        snapshot is pinned — compaction defers unlinking via
        :class:`repro.serve.snapshot.SnapshotManager`); only the pending tail
        is materialised, as a copy, so later ``add`` calls cannot leak into
        the view.  The snapshot duck-types the read surface of this class
        (``dim``/``iter_segments``/``search_metadata``/``content_fingerprint``),
        so :func:`repro.serve.search.exact_topk` and the searchers'
        ``fit``/``sync`` run on it unchanged.
        """
        from .snapshot import ReadSnapshot

        metadata = self.search_metadata()
        return ReadSnapshot(
            dim=self.dim,
            generation=self._generation,
            segments=list(self.iter_segments()),
            metadata=metadata,
            content_fingerprint=self.content_fingerprint(),
            directory=self.directory,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self, unlink_stale: bool = True) -> Dict[str, object]:
        """Rewrite all shards dropping tombstones and superseded duplicates.

        Every surviving ``(key, kind)`` entry keeps its *latest* vector; rows
        are re-packed into full ``shard_size`` shards.  Crash-safe ordering:
        the new shards are written and the manifest is atomically switched to
        them *before* the stale payloads are unlinked, so an interruption at
        any point leaves a readable index (worst case: orphan shard files
        that the next compact removes).  Returns counts of dropped rows.

        With ``unlink_stale=False`` the old payload/meta files are left on
        disk and their paths returned under ``"stale_paths"`` — callers with
        pinned readers (``NetTAGService``) unlink them via a snapshot
        retirement callback once the last reader of the old generation
        releases, so a memory-mapped payload is never deleted mid-read.
        """
        latest: "Dict[Tuple[str, str], Tuple[str, np.ndarray]]" = {}
        total_rows = sum(1 for _ in self._iter_rows(include_tombstoned=True))
        for shard in self._shards:
            matrix = shard.matrix
            for r, (key, kind) in enumerate(zip(shard.keys, shard.kinds)):
                if not self._is_dead(key, kind):
                    latest[(key, kind)] = (kind, np.asarray(matrix[r], dtype=np.float64))
        for r, key in enumerate(self._pending_keys):
            kind = self._pending_kinds[r]
            if not self._is_dead(key, kind):
                latest[(key, kind)] = (
                    kind,
                    np.asarray(self._pending_rows[r], dtype=np.float64),
                )
        dropped: Dict[str, object] = {
            "rows_before": total_rows,
            "rows_after": len(latest),
            "tombstones_dropped": len(self._tombstones),
        }
        # Write the complete new layout first (fresh shard ids above the old
        # ones, so nothing is clobbered), *then* switch the manifest
        # atomically, *then* drop the stale payloads.  A crash at any point
        # leaves either the old index fully intact (plus orphan new shards
        # the next compact removes) or the new index fully intact (plus stale
        # orphans).
        items = list(latest.items())
        new_shards: List[_Shard] = []
        for start in range(0, len(items), self.shard_size):
            chunk = items[start : start + self.shard_size]
            new_shards.append(
                self._write_shard(
                    [key for (key, _), _ in chunk],
                    [kind for _, (kind, _) in chunk],
                    [row for _, (_, row) in chunk],
                )
            )
        old_shards = self._shards
        self._shards = new_shards
        self._pending_keys = []
        self._pending_kinds = []
        self._pending_rows = []
        self._tombstones = set()
        self._latest = None  # rebuilt on first use, over the new layout
        self._generation += 1
        self._write_manifest()
        stale_paths = [
            path
            for stale in old_shards
            for path in (stale.payload_path, stale.meta_path)
        ]
        if unlink_stale:
            for path in stale_paths:
                path.unlink(missing_ok=True)
        else:
            dropped["stale_paths"] = stale_paths
        return dropped

    def merge(self, other: "EmbeddingIndex") -> int:
        """Append every live row of ``other`` (latest-wins within ``other``).

        Streams segment by segment using ``other``'s cached live-row masks —
        one sliced payload read per segment, no per-key scans.
        """
        if other.dim != self.dim:
            raise ValueError(f"cannot merge dim-{other.dim} index into dim-{self.dim} index")
        merged = 0
        for (keys, kinds, matrix, _), (_, _, live_rows) in zip(
            other.iter_segments(), other.search_metadata()
        ):
            if not len(live_rows):
                continue
            block = np.asarray(matrix[live_rows], dtype=np.float64)
            self.add(
                [keys[int(r)] for r in live_rows],
                block,
                kinds=[kinds[int(r)] for r in live_rows],
            )
            merged += len(live_rows)
        return merged

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Occupancy and layout summary for CLI ``index stats`` and reports."""
        payload_bytes = sum(
            shard.payload_path.stat().st_size
            for shard in self._shards
            if shard.payload_path.exists()
        )
        kinds: Dict[str, int] = {}
        for _, _, _, kind in self._iter_rows(include_tombstoned=False):
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "entries": len(self),
            "rows": sum(s.count for s in self._shards) + len(self._pending_keys),
            "pending": len(self._pending_keys),
            "tombstones": len(self._tombstones),
            "shards": self.num_shards,
            "shard_size": self.shard_size,
            "dim": self.dim,
            "metric": self.metric,
            "payload_bytes": payload_bytes,
            "kinds": kinds,
            "fingerprints": dict(self.fingerprints),
        }
