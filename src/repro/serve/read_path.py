"""`ReadPath`: the one read side shared by the service and the replicas.

:class:`~repro.serve.service.NetTAGService` and
:class:`~repro.serve.replica.ReadReplica` both own one :class:`ReadPath`:
the snapshot manager, one searcher cache, the HNSW sidecar ladder and one
:meth:`ReadPath.search`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .index import EmbeddingIndex, IndexFormatError
from .search import HNSWSearcher, IVFSearcher, SearchHit, exact_topk, hnsw_sidecar_path
from .snapshot import ReadSnapshot, SnapshotManager

AnySearcher = Union[IVFSearcher, HNSWSearcher]

ALGORITHMS = ("exact", "ivf", "hnsw")
_SEARCHER_TYPES = {"ivf": IVFSearcher, "hnsw": HNSWSearcher}


def _fitted_on(snapshot: ReadSnapshot) -> Tuple:
    """What a cached searcher must have been fitted on to serve ``snapshot``."""
    return (snapshot.directory, snapshot.content_fingerprint())


class ReadPath:
    """Pinned snapshots plus one searcher cache keyed by ``(algorithm, kind)``.

    A cached searcher is reused only while ``needs_refit`` is false *and*
    the pinned snapshot's index directory and ``content_fingerprint()``
    equal the ones recorded at fit time: generation counters can collide
    across rebuilds and swaps, and two indexes whose manifests carry no id
    can share a layout fingerprint, but not a directory.  A miss first tries
    the snapshot's HNSW sidecar (load → attach when fresh → sync when
    stale), then fits with the stale entry's tuning, else the last tuning
    fitted with that algorithm, else the owner's defaults.

    ``source`` returns the index served now (a service may swap it);
    snapshots are built from it.
    """

    def __init__(
        self,
        source: Callable[[], EmbeddingIndex],
        ivf_params: Optional[Mapping[str, object]] = None,
        hnsw_params: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.snapshots = SnapshotManager(lambda: source().snapshot())
        self._defaults = {"ivf": dict(ivf_params or {}), "hnsw": dict(hnsw_params or {})}
        self._lock = threading.Lock()
        # (algorithm, kind) -> (searcher, (directory, fingerprint) it was fitted on)
        self._cache: Dict[Tuple[str, Optional[str]], Tuple[AnySearcher, Tuple]] = {}
        self._last: Dict[str, AnySearcher] = {}
        self._counters = dict.fromkeys(
            ("hnsw_loaded", "hnsw_synced", "hnsw_refits", "hnsw_sidecar_rejected", "ivf_refits"),
            0,
        )

    def search(
        self,
        snapshot: ReadSnapshot,
        queries: np.ndarray,
        k: int = 10,
        kind: Optional[str] = None,
        algorithm: str = "exact",
        exclude_keys: Optional[Sequence[str]] = None,
    ) -> List[List[SearchHit]]:
        """Top-k per query row on ``snapshot``; ``"exact"`` touches no cache."""
        if algorithm == "exact":
            return exact_topk(snapshot, queries, k=k, kind=kind, exclude_keys=exclude_keys)
        searcher = self.searcher(snapshot, algorithm, kind)
        return searcher.search(queries, k=k, exclude_keys=exclude_keys)

    def searcher(
        self, snapshot: ReadSnapshot, algorithm: str, kind: Optional[str] = None
    ) -> AnySearcher:
        """The cached searcher for ``(algorithm, kind)``, rebuilt when stale.

        Racing rebuilds produce the same deterministic structure, so the
        last one to install wins harmlessly.
        """
        if algorithm not in _SEARCHER_TYPES:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        fitted_on = _fitted_on(snapshot)
        with self._lock:
            entry = self._cache.get((algorithm, kind))
            template = entry[0] if entry is not None else self._last.get(algorithm)
        if entry is not None and not entry[0].needs_refit(snapshot) and entry[1] == fitted_on:
            return entry[0]
        searcher = self._load_sidecar(snapshot, kind) if algorithm == "hnsw" else None
        if searcher is None:
            searcher = (
                template.clone_params(kind=kind)
                if template is not None
                else _SEARCHER_TYPES[algorithm](kind=kind, **self._defaults[algorithm])
            )
            searcher.fit(snapshot)
            self._count(f"{algorithm}_refits")
        self._install(algorithm, kind, searcher, fitted_on)
        return searcher

    def fit(
        self,
        snapshot: ReadSnapshot,
        algorithm: str,
        kind: Optional[str] = None,
        persist: bool = False,
        **params,
    ) -> AnySearcher:
        """Fit a searcher with explicit tuning and cache it.

        ``persist=True`` (HNSW only) also saves the graph as the index's
        sidecar, so replicas load it instead of refitting.
        """
        if algorithm not in _SEARCHER_TYPES:
            raise ValueError(f"unknown searcher algorithm {algorithm!r}; choose 'ivf' or 'hnsw'")
        if persist and algorithm != "hnsw":
            raise ValueError("persist=True applies to the 'hnsw' algorithm only")
        searcher = _SEARCHER_TYPES[algorithm](kind=kind, **params).fit(snapshot)
        if persist:
            searcher.save(hnsw_sidecar_path(snapshot.directory, kind))
        self._install(algorithm, kind, searcher, _fitted_on(snapshot))
        return searcher

    def cached(self, algorithm: str, kind: Optional[str] = None) -> Optional[AnySearcher]:
        """The searcher cached for ``(algorithm, kind)``, fresh or not."""
        with self._lock:
            entry = self._cache.get((algorithm, kind))
        return entry[0] if entry is not None else None

    def _install(self, algorithm, kind, searcher, fitted_on) -> None:
        with self._lock:
            self._cache[(algorithm, kind)] = (searcher, fitted_on)
            self._last[algorithm] = searcher

    def _count(self, counter: str) -> None:
        with self._lock:
            self._counters[counter] += 1

    def _load_sidecar(self, snapshot: ReadSnapshot, kind: Optional[str]) -> Optional[HNSWSearcher]:
        path = hnsw_sidecar_path(snapshot.directory, kind)
        if not path.exists():
            return None
        try:
            loaded = HNSWSearcher.load(path)
        except IndexFormatError:
            self._count("hnsw_sidecar_rejected")
            return None
        if loaded.kind != kind:
            return None
        if loaded.attach(snapshot):
            self._count("hnsw_loaded")
        else:
            # Stale: sync inserts pure appends, and rebuilds on anything else.
            loaded.sync(snapshot)
            self._count("hnsw_synced")
        return loaded

    def stats(self) -> Dict[str, object]:
        """Sidecar/refit counters plus one report per cached searcher."""
        with self._lock:
            return {
                **self._counters,
                "searchers": {
                    f"{algorithm}:{kind or 'all'}": searcher.stats()
                    for (algorithm, kind), (searcher, _) in self._cache.items()
                },
            }
