"""`NetTAGService`: the concurrent encode + retrieval facade.

One object ties the serving subsystem together: a (pre-trained) NetTAG model
for encoding, an :class:`EmbeddingIndex` for persistence, a
:class:`BatchScheduler` so concurrent callers share packed forwards, and a
:class:`~repro.serve.read_path.ReadPath` for exact or approximate retrieval
on pinned snapshots.

Keys follow one convention everywhere (index, CLI, benchmarks):

* circuit entries are keyed by the netlist name, kind ``"circuit"``;
* register-cone entries are keyed ``"<netlist>::<register>"``, kind ``"cone"``;
* cross-modal entries (kinds ``"rtl"`` and ``"layout"``) reuse the cone key
  of the aligned register cone, so aligned pairs share a key across kinds.

Circuit and cone embeddings share one index (and one dimension): cone vectors
already have the full ``model.index_dim`` width, and circuit vectors are
zero-padded up to it (see :meth:`NetTAG.pad_to_index_dim`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from functools import partial
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..netlist import extract_register_cones
from ..nn import use_backend
from .index import EmbeddingIndex
from .read_path import ALGORITHMS, ReadPath, search_excluding
from .scheduler import BatchScheduler
from .search import HNSWSearcher, SearchHit, exact_topk, live_blocks

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->serve cycle
    from ..core.nettag import CircuitEmbedding, NetTAG
    from ..netlist import Netlist, RegisterCone
    from .crossmodal import CrossModalEncoder, MultimodalCorpusItem

CIRCUIT_KIND = "circuit"
CONE_KIND = "cone"
# Cross-modal namespaces (rows projected from the aligned auxiliary encoders;
# see repro.serve.crossmodal for the projection heads and sidecar format).
RTL_KIND = "rtl"
LAYOUT_KIND = "layout"
INDEX_KINDS = (CONE_KIND, CIRCUIT_KIND, RTL_KIND, LAYOUT_KIND)
# Query source holding a precomputed index-space vector (nothing to encode).
VECTOR_KIND = "vector"
QUERY_SOURCES = (VECTOR_KIND,) + INDEX_KINDS


class QuerySpec(NamedTuple):
    """One retrieval request as it rides the scheduler (``("query", spec)``).

    ``searcher``: ``None`` (exact search at flush), the HNSW graph fitted at
    submission, or the error that fit raised; the flush never fits a graph.
    """

    from_kind: str
    item: object
    to_kind: Optional[str]
    k: int
    exclude_keys: Tuple[str, ...]
    searcher: Union[None, HNSWSearcher, Exception]


def cone_key(netlist_name: str, register_name: str) -> str:
    """The canonical ``"<netlist>::<register>"`` index key of a register cone."""
    return f"{netlist_name}::{register_name}"


def encode_index_rows(model: "NetTAG", netlists: Sequence["Netlist"]) -> List[Tuple[str, str, np.ndarray]]:
    """``(key, kind, padded vector)`` ingest rows for a corpus of netlists.

    This is *the* ingest convention, shared by :meth:`NetTAGService.add_netlists`
    and :meth:`NetTAGPipeline.build_index` so service-ingested and
    pipeline-built indexes always live in the same vector space:

    * one circuit row per netlist (key = netlist name, graph embedding
      zero-padded to ``model.index_dim``),
    * one cone row per register cone of each sequential netlist
      (key = ``"<netlist>::<register>"``), holding the endpoint-augmented
      cone embedding — the same vector ``model.encode_batch`` produces at
      query time.  ``CircuitEmbedding.cone_embeddings`` holds graph-level
      cone vectors without the endpoint, hence the dedicated second batched
      pass over the cone TAGs (cheap: the circuit pass already warmed the
      expression cache).
    """
    netlists = list(netlists)
    rows: List[Tuple[str, str, np.ndarray]] = []
    for embedding in model.encode_netlists(netlists):
        rows.append(
            (embedding.name, CIRCUIT_KIND, model.pad_to_index_dim(embedding.graph_embedding))
        )
    owners: List[str] = []
    all_cones: List["RegisterCone"] = []
    for netlist in netlists:
        if netlist.is_sequential_design():
            for cone in extract_register_cones(netlist):
                owners.append(netlist.name)
                all_cones.append(cone)
    cone_vectors = model.encode_batch(all_cones) if all_cones else []
    for owner, cone, vector in zip(owners, all_cones, cone_vectors):
        rows.append(
            (cone_key(owner, cone.register_name), CONE_KIND, model.pad_to_index_dim(vector))
        )
    return rows


class NetTAGService:
    """Serve concurrent encode and similarity-query requests over one model.

    ``index`` may be omitted for encode-only serving; query/ingest methods
    then raise.  The service owns its scheduler thread: use it as a context
    manager (or call :meth:`close`) so the worker drains and stops.

    Every method is safe to call from any thread, with a **read/write
    split**: model forwards are serialised by a model lock (the model's LRU
    expression cache is not a lock-free structure) and index *mutations* by
    a separate index lock, while every *search* runs lock-free on a
    generation-pinned :class:`ReadSnapshot` — queries never block behind a
    bulk ingest, a query's encode never waits behind :meth:`compact` or
    :meth:`swap_index`, and :meth:`swap_index`/:meth:`swap_model`/
    :meth:`compact` are zero-downtime: in-flight readers finish on the
    snapshot they pinned, new requests land on the new one, and obsolete
    payload files are unlinked only when the old snapshot's last reader
    releases.
    """

    def __init__(
        self,
        model: "NetTAG",
        index: Optional[EmbeddingIndex] = None,
        max_batch_size: int = 32,
        max_latency_ms: float = 10.0,
        crossmodal: Optional["CrossModalEncoder"] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.model = model
        self.index = index
        self.crossmodal = crossmodal
        # Numeric backend for service-side encodes ("reference", "fast", ...).
        # None inherits the process default; a model whose config pins its own
        # backend still wins (its scope nests inside this one).
        self.backend = backend
        # Two locks, never held while *waiting* on a scheduler future
        # (deadlock-free: the worker needs the model lock to make progress)
        # and never taken by the search paths — those pin a ReadSnapshot.
        # The model lock guards encodes and ``swap_model``; the index lock
        # guards index mutations, snapshot republishing and ``swap_index``.
        # An ingest encodes under the model lock and releases it before it
        # takes the index lock, so a query's encode never queues behind a
        # compact; ``swap_model`` and ``add_multimodal`` hold both, always
        # taken model -> index.
        self._model_lock = threading.RLock()
        self._index_lock = threading.RLock()
        self.read_path = ReadPath(self._require_index)
        self._scheduler = BatchScheduler(
            self._flush,
            max_batch_size=max_batch_size,
            max_latency_ms=max_latency_ms,
            name="nettag-encode",
        )

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------
    @classmethod
    def index_fingerprints(cls, model: "NetTAG") -> Dict[str, object]:
        """The provenance fingerprints an index built from ``model`` carries."""
        return {
            "model": model.fingerprint(),
            "preset": model.config.preset,
            "index_dim": model.index_dim,
        }

    @classmethod
    def create_index(
        cls,
        model: "NetTAG",
        directory,
        shard_size: int = 1024,
        overwrite: bool = False,
    ) -> EmbeddingIndex:
        """A fresh on-disk index dimension- and fingerprint-matched to ``model``."""
        return EmbeddingIndex.create(
            directory,
            dim=model.index_dim,
            shard_size=shard_size,
            fingerprints=cls.index_fingerprints(model),
            overwrite=overwrite,
        )

    @classmethod
    def open_index(cls, model: "NetTAG", directory) -> EmbeddingIndex:
        """Open an existing index, warning if it was built by a different model."""
        return EmbeddingIndex.open(
            directory, expected_fingerprints=cls.index_fingerprints(model)
        )

    def _require_index(self) -> EmbeddingIndex:
        if self.index is None:
            raise RuntimeError("this NetTAGService was constructed without an index")
        return self.index

    def _pin_current(self):
        """Pin a snapshot that reflects the index's current generation.

        The fast path never locks: writers republish inside the index lock,
        so the published snapshot is normally current.  If the index was
        mutated *directly* (``service.index.add(...)``), the stale snapshot
        is detected here and rebuilt under the index lock once.
        """
        snapshots = self.read_path.snapshots
        if snapshots.current_generation() != self._require_index().generation:
            with self._index_lock:
                # Re-check under the lock (the index may have been swapped
                # or republished while we waited).
                if snapshots.current_generation() != self._require_index().generation:
                    snapshots.refresh()
        return snapshots.pin()

    # ------------------------------------------------------------------
    # Batched worker
    # ------------------------------------------------------------------
    def _flush(self, requests: List[Tuple[str, object]]) -> List[object]:
        """One flush over ``("encode", (from_kind, item))`` and ``("query", QuerySpec)``.

        Each source kind gets one batched encoder pass under the model lock
        and the service backend (cone encodes and cone queries share one
        ``encode_batch``).  The queries then search outside the lock, one
        search per ``(searcher, k, to_kind)`` group, each request with its
        own exclusions: exact groups search one pinned snapshot and HNSW
        groups the graph fitted at submission (see :meth:`submit_query`), so
        a write landing before the flush never makes the worker refit.  A
        failing search group fails only its own requests.
        """
        results: List[object] = [None] * len(requests)
        by_source: Dict[str, List[int]] = {}
        for position, (what, payload) in enumerate(requests):
            if what not in ("encode", "query"):
                raise ValueError(f"unknown request type {what!r}")
            by_source.setdefault(payload[0], []).append(position)  # both start (from_kind, item)
        vectors = {p: requests[p][1].item for p in by_source.pop(VECTOR_KIND, [])}
        if by_source:
            with self._model_lock, use_backend(self.backend):
                for from_kind, positions in by_source.items():
                    encoded = self._encode(from_kind, [requests[p][1][1] for p in positions])
                    for position, value in zip(positions, encoded):
                        if requests[position][0] == "encode":
                            results[position] = value
                        else:
                            vector = value.graph_embedding if from_kind == CIRCUIT_KIND else value
                            vectors[position] = self.model.pad_to_index_dim(vector)
        groups: Dict[Tuple[object, int, Optional[str]], List[int]] = {}
        for position in vectors:
            spec = requests[position][1]
            groups.setdefault((spec.searcher, spec.k, spec.to_kind), []).append(position)
        if groups:
            with self._pin_current() as snapshot:
                for (searcher, k, to_kind), positions in groups.items():
                    queries = np.stack([vectors[p] for p in positions])
                    excluded = [requests[p][1].exclude_keys for p in positions]
                    try:
                        if isinstance(searcher, Exception):
                            raise searcher
                        run = (partial(exact_topk, snapshot, queries, kind=to_kind)
                               if searcher is None else partial(searcher.search, queries))
                        hits = search_excluding(run, k, excluded)
                    except Exception as error:  # noqa: BLE001 - fails this group only
                        hits = [error] * len(positions)
                    for position, row in zip(positions, hits):
                        results[position] = row
        return results

    def _encode(self, from_kind: str, items: List[object]) -> List[object]:
        if from_kind == CONE_KIND:
            return self.model.encode_batch(items)
        if from_kind == CIRCUIT_KIND:
            return self.model.encode_netlists(items)
        return list(self.crossmodal.encode_queries(from_kind, items))

    # ------------------------------------------------------------------
    # Encoding API (scheduler-backed; safe to call from many threads)
    # ------------------------------------------------------------------
    def submit_cone(self, cone: "RegisterCone") -> "Future[np.ndarray]":
        """Asynchronously encode one register cone through the micro-batcher."""
        return self._scheduler.submit(("encode", (CONE_KIND, cone)))

    def submit_netlist(self, netlist: "Netlist") -> "Future[CircuitEmbedding]":
        """Asynchronously encode one circuit through the micro-batcher."""
        return self._scheduler.submit(("encode", (CIRCUIT_KIND, netlist)))

    def encode_cone(self, cone: "RegisterCone", timeout: Optional[float] = None) -> np.ndarray:
        """Blocking counterpart of :meth:`submit_cone`."""
        return self.submit_cone(cone).result(timeout=timeout)

    def encode_netlist(
        self, netlist: "Netlist", timeout: Optional[float] = None
    ) -> "CircuitEmbedding":
        """Blocking counterpart of :meth:`submit_netlist`."""
        return self.submit_netlist(netlist).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Query API (scheduler-backed; safe to call from many threads)
    # ------------------------------------------------------------------
    def submit_query(
        self,
        item: object,
        from_kind: str,
        to_kind: Optional[str] = CONE_KIND,
        k: int = 10,
        exclude_keys: Optional[Sequence[str]] = None,
        algorithm: str = "exact",
    ) -> "Future[List[SearchHit]]":
        """The query entry point: encode *and* search inside the micro-batch.

        ``item`` follows ``from_kind``: a ``RegisterCone`` (``"cone"``), a
        ``Netlist`` (``"circuit"``), RTL text (``"rtl"``), a ``LayoutGraph``
        (``"layout"``) or a precomputed embedding (``"vector"``).
        ``to_kind`` is the namespace searched (``None`` searches every kind)
        and ``algorithm`` is ``"exact"`` or ``"hnsw"`` (see
        :class:`ReadPath`).  Invalid requests are rejected here, on the
        caller thread.  An HNSW query is answered from the graph the read
        path serves for the index at submission, fitted here if it needs a
        (re)fit, so no co-flushed request waits behind a fit.
        """
        self._require_index()
        if from_kind not in QUERY_SOURCES:
            raise ValueError(f"unknown query modality {from_kind!r}; choose from {QUERY_SOURCES}")
        if to_kind is not None and to_kind not in INDEX_KINDS:
            raise ValueError(f"unknown target kind {to_kind!r}; choose from {INDEX_KINDS}")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
        if k < 1:
            raise ValueError("k must be positive")
        if from_kind == VECTOR_KIND:
            item = self.model.pad_to_index_dim(item)
        elif from_kind in (RTL_KIND, LAYOUT_KIND):
            if self.crossmodal is None:
                raise RuntimeError(
                    f"{from_kind!r} queries need a cross-modal encoder; construct the "
                    "service with crossmodal=CrossModalEncoder.load(index_dir, model)"
                )
            if not self.crossmodal.supports(from_kind):
                raise RuntimeError(
                    f"the attached cross-modal encoder has no {from_kind!r} "
                    "encoder/projection (the index was built without that modality)"
                )
        searcher: Union[None, HNSWSearcher, Exception] = None
        if algorithm != "exact":
            # A failed fit (an empty kind) is reported on this request's future.
            with self._pin_current() as snapshot:
                try:
                    searcher = self.read_path.searcher(snapshot, to_kind)
                except Exception as error:  # noqa: BLE001 - reported on the future
                    searcher = error
        spec = QuerySpec(from_kind, item, to_kind, int(k), tuple(exclude_keys or ()), searcher)
        return self._scheduler.submit(("query", spec))

    def query(
        self,
        item: object,
        from_kind: str,
        to_kind: Optional[str] = CONE_KIND,
        k: int = 10,
        exclude_keys: Optional[Sequence[str]] = None,
        algorithm: str = "exact",
        timeout: Optional[float] = None,
    ) -> List[SearchHit]:
        """Blocking counterpart of :meth:`submit_query`."""
        return self.submit_query(
            item, from_kind, to_kind, k, exclude_keys, algorithm
        ).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_netlists(self, netlists: Sequence["Netlist"], flush: bool = True) -> int:
        """Encode circuits and index circuit + cone rows.

        Row construction is delegated to :func:`encode_index_rows` (the
        single ingest convention, also used by ``NetTAGPipeline.build_index``).
        """
        with self._model_lock, use_backend(self.backend):
            rows = encode_index_rows(self.model, netlists)
        with self._index_lock:
            index = self._require_index()
            if rows:
                keys, kinds, vectors = zip(*rows)
                index.add(list(keys), np.stack(vectors), kinds=list(kinds))
            if flush:
                index.save()
            self.read_path.snapshots.refresh()
        return len(rows)

    def add_cones(
        self, netlist_name: str, cones: Sequence["RegisterCone"], flush: bool = True
    ) -> int:
        """Encode register cones (one batched pass) and index them (one ``add``)."""
        self._require_index()
        with self._model_lock, use_backend(self.backend):
            vectors = [
                self.model.pad_to_index_dim(vector)
                for vector in self.model.encode_batch(list(cones))
            ]
        with self._index_lock:
            index = self._require_index()
            if vectors:
                keys = [cone_key(netlist_name, cone.register_name) for cone in cones]
                index.add(keys, np.stack(vectors), kinds=CONE_KIND)
            if flush:
                index.save()
            self.read_path.snapshots.refresh()
        return len(vectors)

    # ------------------------------------------------------------------
    # Approximate-searcher tuning
    # ------------------------------------------------------------------
    def fit_searcher(
        self, *, kind: Optional[str] = None, persist: bool = False, **params
    ) -> HNSWSearcher:
        """Fit the HNSW searcher over one kind (namespace) with explicit tuning.

        ``params`` go to :class:`~repro.serve.search.HNSWSearcher`
        (``M``, ``ef_construction``, ``ef_search``, ``seed``).  The fitted
        searcher becomes the read path's cached entry for ``kind``: its
        tuning survives later refits of that kind, and a kind never fitted
        inherits the latest tuning.  Fitting reads a pinned snapshot — it
        never blocks queries or ingest.  ``persist=True`` also writes the
        index's sidecar (:func:`~repro.serve.search.hnsw_sidecar_path`) so
        read replicas load the graph instead of refitting per process, and a
        changed index syncs appends into it instead of rebuilding.
        """
        with self._pin_current() as snapshot:
            return self.read_path.fit(snapshot, kind=kind, persist=persist, **params)

    def add_multimodal(
        self,
        netlists: Sequence["Netlist"],
        items: Sequence["MultimodalCorpusItem"],
        modalities: Optional[Sequence[str]] = None,
        l2: float = 1e-6,
        flush: bool = True,
    ) -> int:
        """Encode and index a corpus in every requested modality.

        Requires the attached cross-modal encoder; its projection heads are
        (re)fitted on the aligned pairs of this corpus, so it must be called
        with the *full* corpus: an incremental call would leave previously
        indexed rtl/layout rows in the old heads' projection space while
        queries use the new heads, silently mis-ranking results — such calls
        are rejected (any existing projected-kind key missing from ``items``
        trips the guard).  The refitted heads are persisted back into the
        index's ``multimodal/`` sidecar.  Returns the number of rows added
        across all modalities.
        """
        from .crossmodal import MODALITY_KINDS, PROJECTED_KINDS, encode_multimodal_rows

        if self.crossmodal is None:
            raise RuntimeError(
                "add_multimodal needs a cross-modal encoder; construct the "
                "service with crossmodal=..."
            )
        index = self._require_index()
        # Items whose owner is absent from ``netlists`` get no cone vector in
        # this pass, so their modality rows would silently keep (or miss) the
        # old projection — both incremental shapes are rejected.
        netlist_names = {netlist.name for netlist in netlists}
        uncovered = [item.key for item in items if item.owner not in netlist_names]
        if uncovered:
            raise ValueError(
                f"{len(uncovered)} items (e.g. {uncovered[0]!r}) belong to designs "
                "not in the passed netlists; add_multimodal needs the full aligned "
                "corpus — netlists and items together"
            )
        item_keys = {item.key for item in items}
        for kind in PROJECTED_KINDS:
            if kind not in (modalities or MODALITY_KINDS):
                continue
            orphaned = [key for key in index.keys(kind=kind) if key not in item_keys]
            if orphaned:
                raise ValueError(
                    f"add_multimodal would refit the {kind!r} projection head while "
                    f"{len(orphaned)} existing {kind} rows (e.g. {orphaned[0]!r}) stay "
                    "projected with the old one; pass the full corpus (existing "
                    "designs included) or rebuild the index"
                )
        # Both locks (model -> index): the refit heads project queries too,
        # so no query may encode with them before the rows they fit are in.
        with self._model_lock, use_backend(self.backend), self._index_lock:
            payload = encode_multimodal_rows(
                self.crossmodal,
                netlists,
                items,
                modalities=modalities or MODALITY_KINDS,
                l2=l2,
            )
            if payload.rows:
                keys, kinds, vectors = zip(*payload.rows)
                index.add(list(keys), np.stack(vectors), kinds=list(kinds))
            if flush:
                index.save()
            if payload.projections:
                self.crossmodal.save(index.directory)
            self.read_path.snapshots.refresh()
        return len(payload.rows)

    def near_duplicates(
        self, threshold: float = 0.98, kind: str = CONE_KIND, k: int = 5
    ) -> List[Tuple[str, str, float]]:
        """Pairs of index entries with cosine similarity ≥ ``threshold``.

        Each live entry of ``kind`` is queried against the index (batched
        matmuls, one query block per shard segment, its own key excluded);
        every pair is reported once, lexicographically ordered, most similar
        first.
        """
        self._require_index()
        pairs: Dict[Tuple[str, str], float] = {}
        # Query with each key's *latest live* row only (the cached search
        # metadata) — a superseded duplicate row must not report phantom
        # pairs for a vector that is no longer the key's value.  The whole
        # scan runs on one pinned snapshot, outside the service's locks.
        with self._pin_current() as snapshot:
            for keys, _, rows, block, norms in live_blocks(snapshot, kind):
                own = [keys[int(r)] for r in rows]
                hits = self.read_path.search(
                    snapshot, block / norms[:, None], k=k, kind=kind,
                    exclude_keys=[(key,) for key in own],
                )
                for key, row_hits in zip(own, hits):
                    for hit in row_hits:
                        if hit.score >= threshold:
                            pair = tuple(sorted((key, hit.key)))
                            pairs[pair] = max(pairs.get(pair, -1.0), hit.score)
        ranked = sorted(pairs.items(), key=lambda item: (-item[1], item[0]))
        return [(a, b, score) for (a, b), score in ranked]

    # ------------------------------------------------------------------
    # Maintenance & zero-downtime hot-swap
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Compact the index without ever yanking a payload from a reader.

        The index rewrite (new shards + manifest switch) happens under the
        index lock, but the stale payload files are *not* unlinked there:
        their removal is registered as a retirement callback on the
        pre-compact snapshot and runs only when its last pinned reader
        releases — an in-flight query keeps streaming its memory-mapped
        shard until it finishes, on any platform.  Returns the compact
        counts (``rows_before``/``rows_after``/``tombstones_dropped``).
        """
        with self._index_lock:
            result = self._require_index().compact(unlink_stale=False)
            stale_paths = list(result.pop("stale_paths", []))

            def _unlink_stale() -> None:
                for path in stale_paths:
                    path.unlink(missing_ok=True)

            self.read_path.snapshots.refresh(retire=_unlink_stale)
        return result

    def swap_index(self, new_index: EmbeddingIndex) -> EmbeddingIndex:
        """Atomically switch serving to ``new_index``; returns the old one.

        Zero-downtime: readers pinned to the old index's snapshot finish on
        it untouched; requests arriving after the swap see the new corpus.
        Cached searchers need no reset: the read path reuses one only for the
        index directory and content fingerprint it was fitted on, so a
        structure fitted to the old corpus never answers for the new one.
        The old index object stays valid (and its files stay on disk);
        retiring it is the caller's decision.
        """
        if new_index.dim != self.model.index_dim:
            raise ValueError(
                f"cannot swap in a dim-{new_index.dim} index: the model's index "
                f"dim is {self.model.index_dim}"
            )
        with self._index_lock:
            old_index = self.index
            self.index = new_index
            self.read_path.snapshots.refresh()
        return old_index  # type: ignore[return-value]

    def reload_index(self, directory) -> EmbeddingIndex:
        """Open the index at ``directory`` and hot-swap it in; returns the old one.

        The convenience path for picking up an index rebuilt out-of-process:
        fingerprints are validated against the serving model (mismatches
        warn, as in :meth:`open_index`), then :meth:`swap_index` runs.
        """
        return self.swap_index(self.open_index(self.model, directory))

    def swap_model(self, new_model: "NetTAG") -> "NetTAG":
        """Hot-swap the serving model checkpoint; returns the old model.

        Taken between scheduler flushes (the model lock serialises against
        the worker's batch callback), so no in-flight batch ever mixes
        encoders.  An ingest whose encode finished before the swap still
        adds its rows after it, as if it had completed just before.  The new
        checkpoint must target the same index dimension; the index's
        provenance fingerprints are updated to the new model so a later
        :meth:`open_index` validates against what actually serves.
        Existing index rows are *not* re-encoded — hot-swap is for
        same-space checkpoints (a fine-tuned refresh); a model that changes
        the embedding space needs a rebuilt index and :meth:`swap_index`.
        """
        if new_model.index_dim != self.model.index_dim:
            raise ValueError(
                f"cannot hot-swap to a model with index_dim {new_model.index_dim}: "
                f"the serving index dim is {self.model.index_dim}"
            )
        with self._model_lock, self._index_lock:
            old_model = self.model
            self.model = new_model
            if self.index is not None:
                self.index.fingerprints.update(self.index_fingerprints(new_model))
                self.index.save()
                self.read_path.snapshots.refresh()
        return old_model

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Scheduler, expression-cache and index statistics in one report."""
        report: Dict[str, object] = {
            "scheduler": self._scheduler.stats(),
            "expression_cache": self.model.expr_llm.cache_stats(),
        }
        if self.index is not None:
            report["index"] = self.index.stats()
            report["snapshots"] = self.read_path.snapshots.stats()
            report["read_path"] = self.read_path.stats()
        if self.crossmodal is not None:
            report["crossmodal"] = {
                "modalities": sorted(self.crossmodal.projections),
                "fingerprints": self.crossmodal.fingerprints(),
            }
        return report

    def close(self) -> None:
        """Drain in-flight requests, stop the worker and flush the index.

        Any retirement work still deferred behind pinned readers (stale
        compact payloads) runs now — after the drain, no reader is left.
        """
        self._scheduler.close()
        with self._index_lock:
            if self.index is not None:
                self.index.save()
        self.read_path.snapshots.shutdown()

    def __enter__(self) -> "NetTAGService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
