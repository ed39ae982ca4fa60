"""`ReadPath`: the one read side shared by the service and the replicas.

:class:`~repro.serve.service.NetTAGService` and
:class:`~repro.serve.replica.ReadReplica` both own one :class:`ReadPath`:
the snapshot manager, one HNSW searcher cache, the sidecar ladder and one
:meth:`ReadPath.search`.  It alone decides when a searcher is refitted
and with which tuning, and :func:`search_excluding` alone decides which
keys a query excludes; the searchers in :mod:`repro.serve.search` only fit
a pinned snapshot and search it.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .index import EmbeddingIndex, IndexFormatError
from .search import HNSWSearcher, SearchHit, exact_topk, hnsw_sidecar_path
from .snapshot import ReadSnapshot, SnapshotManager

ALGORITHMS = ("exact", "hnsw")
# The tuning a persisted HNSW graph carries (its meta block).
_HNSW_TUNING = ("M", "ef_construction", "ef_search", "seed")


def _fitted_on(snapshot: ReadSnapshot) -> Tuple:
    """What a cached searcher must have been fitted on to serve ``snapshot``."""
    return (snapshot.directory, snapshot.content_fingerprint())


def search_excluding(
    run: Callable[[int], List[List[SearchHit]]],
    k: int,
    exclude_keys: Optional[Sequence[Collection[str]]] = None,
) -> List[List[SearchHit]]:
    """Top-k per query row of ``run(fetch)``, minus each row's excluded keys.

    ``exclude_keys`` holds one key collection per query row: no row of an
    excluded key surfaces for that query, in any kind.  The one place keys
    are excluded, for every algorithm: it over-fetches, filters, cuts to
    ``k`` and doubles the fetch while a full page filtered below ``k``.
    """
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


class ReadPath:
    """Pinned snapshots plus one HNSW searcher cache keyed by ``kind``.

    One freshness rule: a cached searcher is reused iff the pinned
    snapshot's ``(directory, content_fingerprint())`` equals the pair
    recorded at fit time.  Two indexes whose manifests carry no id can
    share a layout fingerprint, but not a directory.  A miss first tries
    the snapshot's HNSW sidecar (load → attach when fresh → sync when
    stale), then fits ``HNSWSearcher(kind=kind, **params)``.

    One tuning source: ``params`` is the tuning last installed for that
    ``kind``, else the latest tuning installed for any kind, else the
    owner's ``hnsw_params``.

    ``source`` returns the index served now (a service may swap it);
    snapshots are built from it.
    """

    def __init__(
        self,
        source: Callable[[], EmbeddingIndex],
        hnsw_params: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.snapshots = SnapshotManager(lambda: source().snapshot())
        self._lock = threading.Lock()
        # kind -> (searcher, (directory, fingerprint) it was fitted on, params)
        self._cache: Dict[Optional[str], Tuple[HNSWSearcher, Tuple, Dict]] = {}
        self._latest = dict(hnsw_params or {})
        self._counters = dict.fromkeys(
            ("hnsw_loaded", "hnsw_synced", "hnsw_refits", "hnsw_sidecar_rejected"), 0
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
        """Top-k per query row on ``snapshot``, minus each row's
        ``exclude_keys`` (:func:`search_excluding`); ``"exact"`` touches no cache."""
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        if algorithm == "exact":
            run = partial(exact_topk, snapshot, queries, kind=kind)
        else:
            run = partial(self.searcher(snapshot, kind).search, queries)
        return search_excluding(run, k, exclude_keys)

    def searcher(self, snapshot: ReadSnapshot, kind: Optional[str] = None) -> HNSWSearcher:
        """The cached HNSW searcher for ``kind``, rebuilt when stale.

        Racing rebuilds produce the same deterministic structure, so the
        last one to install wins harmlessly.
        """
        fitted_on = _fitted_on(snapshot)
        with self._lock:
            entry = self._cache.get(kind)
            params = entry[2] if entry is not None else self._latest
        if entry is not None and entry[1] == fitted_on:
            return entry[0]
        searcher = self._load_sidecar(snapshot, kind)
        if searcher is not None:
            params = {name: getattr(searcher, name) for name in _HNSW_TUNING}
        else:
            searcher = HNSWSearcher(kind=kind, **params).fit(snapshot)
            self._count("hnsw_refits")
        self._install(kind, searcher, fitted_on, params)
        return searcher

    def fit(
        self,
        snapshot: ReadSnapshot,
        kind: Optional[str] = None,
        persist: bool = False,
        **params,
    ) -> HNSWSearcher:
        """Fit an HNSW searcher with explicit tuning and cache it.

        ``persist=True`` also saves the graph as the index's sidecar, so
        replicas load it instead of refitting.
        """
        searcher = HNSWSearcher(kind=kind, **params).fit(snapshot)
        if persist:
            searcher.save(hnsw_sidecar_path(snapshot.directory, kind))
        self._install(kind, searcher, _fitted_on(snapshot), params)
        return searcher

    def cached(self, kind: Optional[str] = None) -> Optional[HNSWSearcher]:
        """The searcher cached for ``kind``, fresh or not."""
        with self._lock:
            entry = self._cache.get(kind)
        return entry[0] if entry is not None else None

    def _install(self, kind, searcher, fitted_on, params) -> None:
        with self._lock:
            self._cache[kind] = (searcher, fitted_on, dict(params))
            self._latest = dict(params)

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
                    kind or "all": searcher.stats()
                    for kind, (searcher, _, _) in self._cache.items()
                },
            }
