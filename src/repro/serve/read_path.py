"""`ReadPath`: the one read side shared by the service and the replicas.

:class:`~repro.serve.service.NetTAGService` and
:class:`~repro.serve.replica.ReadReplica` both own one :class:`ReadPath`:
the snapshot manager, one searcher cache, the HNSW sidecar ladder and one
:meth:`ReadPath.search`.  It alone decides when a searcher is refitted,
with which tuning, and which keys a query excludes; the searchers in
:mod:`repro.serve.search` only fit a pinned snapshot and search it.
"""

from __future__ import annotations

import threading
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .index import EmbeddingIndex, IndexFormatError
from .search import HNSWSearcher, IVFSearcher, SearchHit, exact_topk, hnsw_sidecar_path
from .snapshot import ReadSnapshot, SnapshotManager

AnySearcher = Union[IVFSearcher, HNSWSearcher]

ALGORITHMS = ("exact", "ivf", "hnsw")
_SEARCHER_TYPES = {"ivf": IVFSearcher, "hnsw": HNSWSearcher}
# The tuning a persisted HNSW graph carries (its meta block).
_HNSW_TUNING = ("M", "ef_construction", "ef_search", "seed")


def _fitted_on(snapshot: ReadSnapshot) -> Tuple:
    """What a cached searcher must have been fitted on to serve ``snapshot``."""
    return (snapshot.directory, snapshot.content_fingerprint())


class ReadPath:
    """Pinned snapshots plus one searcher cache keyed by ``(algorithm, kind)``.

    One freshness rule: a cached searcher is reused iff the pinned
    snapshot's ``(directory, content_fingerprint())`` equals the pair
    recorded at fit time.  Two indexes whose manifests carry no id can
    share a layout fingerprint, but not a directory.  A miss first tries
    the snapshot's HNSW sidecar (load → attach when fresh → sync when
    stale), then fits ``Searcher(kind=kind, **params)``.

    One tuning source: ``params`` is the tuning last installed for that
    ``(algorithm, kind)``, else the latest tuning installed for the
    algorithm, else the owner's ``ivf_params``/``hnsw_params``.

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
        self._lock = threading.Lock()
        # (algorithm, kind) -> (searcher, (directory, fingerprint) it was fitted on, params)
        self._cache: Dict[Tuple[str, Optional[str]], Tuple[AnySearcher, Tuple, Dict]] = {}
        self._latest = {"ivf": dict(ivf_params or {}), "hnsw": dict(hnsw_params or {})}
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
        exclude_keys: Optional[Sequence[Collection[str]]] = None,
    ) -> List[List[SearchHit]]:
        """Top-k per query row on ``snapshot``; ``"exact"`` touches no cache.

        ``exclude_keys`` holds one collection of keys per query row: no row
        of an excluded key surfaces for that query, in any kind.  This is
        the one place keys are excluded, for every algorithm: it over-fetches,
        filters and cuts to ``k``, and fetches twice as many again while a
        full page filtered below ``k`` (one key may hold a row per kind).
        """
        if algorithm == "exact":
            def run(fetch: int) -> List[List[SearchHit]]:
                return exact_topk(snapshot, queries, k=fetch, kind=kind)
        else:
            searcher = self.searcher(snapshot, algorithm, kind)

            def run(fetch: int) -> List[List[SearchHit]]:
                return searcher.search(queries, k=fetch)
        if not exclude_keys or not any(exclude_keys):
            return run(k)
        if any(isinstance(keys, str) for keys in exclude_keys):
            raise TypeError("exclude_keys holds one key collection per query row")
        excluded = [set(keys) for keys in exclude_keys]
        fetch = k + max(map(len, excluded))
        while True:
            rows = run(fetch)
            kept = [
                [hit for hit in row if hit.key not in drop][:k]
                for row, drop in zip(rows, excluded, strict=True)
            ]
            if all(len(hits) == k or len(row) < fetch for hits, row in zip(kept, rows)):
                return kept
            fetch *= 2

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
            params = entry[2] if entry is not None else self._latest[algorithm]
        if entry is not None and entry[1] == fitted_on:
            return entry[0]
        searcher = self._load_sidecar(snapshot, kind) if algorithm == "hnsw" else None
        if searcher is not None:
            params = {name: getattr(searcher, name) for name in _HNSW_TUNING}
        else:
            searcher = _SEARCHER_TYPES[algorithm](kind=kind, **params).fit(snapshot)
            self._count(f"{algorithm}_refits")
        self._install(algorithm, kind, searcher, fitted_on, params)
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
        self._install(algorithm, kind, searcher, _fitted_on(snapshot), params)
        return searcher

    def cached(self, algorithm: str, kind: Optional[str] = None) -> Optional[AnySearcher]:
        """The searcher cached for ``(algorithm, kind)``, fresh or not."""
        with self._lock:
            entry = self._cache.get((algorithm, kind))
        return entry[0] if entry is not None else None

    def _install(self, algorithm, kind, searcher, fitted_on, params) -> None:
        with self._lock:
            self._cache[(algorithm, kind)] = (searcher, fitted_on, dict(params))
            self._latest[algorithm] = dict(params)

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
                    for (algorithm, kind), (searcher, _, _) in self._cache.items()
                },
            }
