"""Cosine-similarity retrieval over an :class:`EmbeddingIndex`.

Three search paths share one result format:

* :func:`exact_topk` — a batched query matmul streamed shard by shard.  The
  per-shard similarity block is one ``(num_queries, shard_rows)`` matmul over
  the memory-mapped payload, so exactness costs no per-row Python dispatch
  and memory stays bounded by the largest shard, not the corpus.  It accepts
  a live :class:`EmbeddingIndex` *or* a pinned
  :class:`~repro.serve.snapshot.ReadSnapshot` (anything exposing ``dim``,
  ``iter_segments`` and ``search_metadata``).
* :class:`IVFSearcher` — an IVF-style approximate index: a seeded k-means
  coarse quantiser partitions the corpus into inverted lists, and a query
  only scores the ``nprobe`` lists whose centroids are nearest.
* :class:`HNSWSearcher` — a hierarchical navigable-small-world graph.
  Queries greedily descend layered proximity graphs and beam-search the
  bottom layer, scoring on the order of ``ef_search`` × ``M`` vectors.  The
  build is fully deterministic for a fixed seed and supports incremental
  :meth:`~HNSWSearcher.insert`.

Neither approximate searcher wins on both recall and latency at the index
dims the program serves: at 100k rows and dim 302 both reach recall@10 0.95
only with most lists probed or a wide beam (see ``docs/serving.md``,
"Choosing between exact, IVF and HNSW").

Scores are cosine similarities in ``[-1, 1]``; ties break deterministically
by insertion order so repeated queries (and save→load round-trips) return
identical rankings.  The searchers only fit a view and search it: when to
refit, which tuning to use and which keys to exclude is decided by
:class:`~repro.serve.read_path.ReadPath`.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn.serialization import atomic_write
from .index import EmbeddingIndex, IndexFormatError, _library_version

PathLike = Union[str, Path]

# Version 1: flat-links layout (vectors / levels / link_counts / link_flat /
# keys / kinds arrays + a JSON meta block) written atomically like the index
# manifest.  Bump on any change to the arrays or their interpretation.
_HNSW_FORMAT_VERSION = 1


def hnsw_sidecar_path(directory: PathLike, kind: Optional[str] = None) -> Path:
    """Canonical location of a persisted HNSW graph inside an index directory.

    One sidecar per namespace filter: ``hnsw-all.graph.npz`` for a graph over
    every kind, ``hnsw-<kind>.graph.npz`` for a single-kind graph.  This is
    where ``serve index fit-hnsw`` writes and where read replicas look before
    falling back to a refit.
    """
    suffix = "all" if kind is None else str(kind)
    return Path(directory) / f"hnsw-{suffix}.graph.npz"


def live_blocks(
    index, kind: Optional[str] = None
) -> Iterator[Tuple[List[str], List[str], np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(keys, kinds, rows, vectors, norms)`` per segment with live rows.

    ``rows`` are the segment's live row ids (of ``kind`` when set: latest
    row per key, tombstones excluded), ``vectors`` their float64 payload
    rows and ``norms`` their stored norms — the shared walk of every
    searcher fit and the near-duplicate scan.
    """
    for (keys, kinds, matrix, norms), (_, kinds_array, rows) in zip(
        index.iter_segments(), index.search_metadata()
    ):
        if kind is not None and len(rows):
            rows = rows[kinds_array[rows] == kind]
        if len(rows):
            yield keys, kinds, rows, np.asarray(matrix[rows], dtype=np.float64), norms[rows]


@dataclass
class SearchHit:
    """One retrieved entry: its key, namespace and cosine similarity."""

    key: str
    kind: str
    score: float


def _normalise_queries(queries: np.ndarray, dim: int) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != dim:
        raise ValueError(f"query dimension {queries.shape[1]} does not match index dim {dim}")
    norms = np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
    return queries / norms


def _merge_topk(
    candidates: List[List[Tuple[float, int, str, str]]], k: int
) -> List[List[SearchHit]]:
    """Sort each query's candidate pool by (-score, insertion order)."""
    results: List[List[SearchHit]] = []
    for pool in candidates:
        pool.sort(key=lambda item: (-item[0], item[1]))
        results.append([SearchHit(key=key, kind=kind, score=score) for score, _, key, kind in pool[:k]])
    return results


def exact_topk(
    index: EmbeddingIndex,
    queries: np.ndarray,
    k: int = 10,
    kind: Optional[str] = None,
) -> List[List[SearchHit]]:
    """Exact cosine top-k of each query row against the whole index.

    ``kind`` restricts retrieval to one namespace (e.g. only ``"cone"``
    rows).  Tombstoned and superseded duplicate rows never surface: for a
    key stored several times, only its latest row can be returned.
    """
    if k < 1:
        raise ValueError("k must be positive")
    normalised = _normalise_queries(queries, index.dim)
    # Live-row masks (tombstones and superseded duplicates excluded) are
    # cached on the index per mutation generation; only the kind filter is
    # applied here.
    metadata = index.search_metadata()
    candidates: List[List[Tuple[float, int, str, str]]] = [[] for _ in range(len(normalised))]
    order = 0
    for (keys, kinds, matrix, norms), (_, kinds_array, live_rows) in zip(
        index.iter_segments(), metadata
    ):
        rows = live_rows
        if kind is not None and len(rows):
            rows = rows[kinds_array[rows] == kind]
        if not len(rows):
            order += len(keys)
            continue
        block = np.asarray(matrix[rows], dtype=np.float64)
        sims = normalised @ (block / norms[rows][:, None]).T
        # Per-shard shortlist: only the shard's own top-k can survive the merge.
        take = min(k, len(rows))
        shortlist = np.argpartition(-sims, take - 1, axis=1)[:, :take]
        for q in range(sims.shape[0]):
            for c in shortlist[q]:
                row = int(rows[int(c)])
                candidates[q].append(
                    (float(sims[q, c]), order + row, keys[row], kinds[row])
                )
        order += len(keys)
    return _merge_topk(candidates, k)


# ----------------------------------------------------------------------
# IVF-style approximate search
# ----------------------------------------------------------------------
def _kmeans(
    vectors: np.ndarray, num_centroids: int, iterations: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain seeded k-means on unit vectors (spherical enough for cosine)."""
    num_centroids = min(num_centroids, len(vectors))
    picks = rng.choice(len(vectors), size=num_centroids, replace=False)
    centroids = vectors[picks].copy()
    for _ in range(iterations):
        assignment = np.argmax(vectors @ centroids.T, axis=1)
        for c in range(num_centroids):
            members = vectors[assignment == c]
            if len(members) == 0:
                # Re-seed an empty cluster on the point farthest from its centroid.
                farthest = int(np.argmin(np.max(vectors @ centroids.T, axis=1)))
                centroids[c] = vectors[farthest]
                continue
            mean = members.mean(axis=0)
            centroids[c] = mean / max(float(np.linalg.norm(mean)), 1e-12)
    return centroids


class IVFSearcher:
    """Inverted-file approximate cosine search over an :class:`EmbeddingIndex`.

    :meth:`fit` snapshots the index's live rows (optionally one ``kind``),
    clusters them with seeded k-means and stores one inverted list of
    normalised vectors per centroid.  :meth:`search` scores only the
    ``nprobe`` nearest lists.  The searcher is a derived, in-memory
    structure of the view it was fitted on; it never notices later changes.
    """

    def __init__(
        self,
        num_centroids: int = 32,
        nprobe: int = 4,
        iterations: int = 8,
        seed: int = 0,
        kind: Optional[str] = None,
    ) -> None:
        if num_centroids < 1:
            raise ValueError("num_centroids must be positive")
        if nprobe < 1:
            raise ValueError("nprobe must be positive")
        self.num_centroids = num_centroids
        self.nprobe = nprobe
        self.iterations = iterations
        self.seed = seed
        self.kind = kind
        self._centroids: Optional[np.ndarray] = None
        self._lists: List[Tuple[List[str], List[str], np.ndarray]] = []
        self._dim = 0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` ran (searching before it raises)."""
        return self._centroids is not None

    def fit(self, index: EmbeddingIndex) -> "IVFSearcher":
        """Snapshot the index's live rows and build the inverted lists."""
        keys: List[str] = []
        kinds: List[str] = []
        rows: List[np.ndarray] = []
        for keys_s, kinds_s, selected, block, norms in live_blocks(index, self.kind):
            block = block / norms[:, None]
            for offset, row in enumerate(selected):
                keys.append(keys_s[int(row)])
                kinds.append(kinds_s[int(row)])
                rows.append(block[offset])
        if not rows:
            raise ValueError("cannot fit an IVF searcher on an empty index")
        vectors = np.stack(rows)
        self._dim = vectors.shape[1]
        rng = np.random.default_rng(self.seed)
        self._centroids = _kmeans(vectors, self.num_centroids, self.iterations, rng)
        assignment = np.argmax(vectors @ self._centroids.T, axis=1)
        self._lists = []
        for c in range(len(self._centroids)):
            members = np.flatnonzero(assignment == c)
            self._lists.append(
                (
                    [keys[m] for m in members],
                    [kinds[m] for m in members],
                    vectors[members],
                )
            )
        return self

    def search(self, queries: np.ndarray, k: int = 10) -> List[List[SearchHit]]:
        """Approximate cosine top-k scoring only the ``nprobe`` nearest lists."""
        if self._centroids is None:
            raise RuntimeError("IVFSearcher.search called before fit()")
        if k < 1:
            raise ValueError("k must be positive")
        nprobe = min(self.nprobe, len(self._centroids))
        normalised = _normalise_queries(queries, self._dim)
        centroid_sims = normalised @ self._centroids.T
        probe = np.argpartition(-centroid_sims, nprobe - 1, axis=1)[:, :nprobe]
        candidates: List[List[Tuple[float, int, str, str]]] = []
        for q in range(len(normalised)):
            pool: List[Tuple[float, int, str, str]] = []
            for c in probe[q]:
                keys, kinds, vectors = self._lists[int(c)]
                if not keys:
                    continue
                sims = vectors @ normalised[q]
                take = min(k, len(keys))
                for m in np.argpartition(-sims, take - 1)[:take]:
                    m = int(m)
                    pool.append((float(sims[m]), int(c) * 10**9 + m, keys[m], kinds[m]))
            candidates.append(pool)
        return _merge_topk(candidates, k)

    def stats(self) -> Dict[str, object]:
        """Centroid/list occupancy summary for service reports."""
        sizes = [len(keys) for keys, _, _ in self._lists]
        return {
            "algorithm": "ivf",
            "fitted": self.is_fitted,
            "num_centroids": len(self._centroids) if self._centroids is not None else 0,
            "nprobe": self.nprobe,
            "entries": int(np.sum(sizes)) if sizes else 0,
            "largest_list": int(np.max(sizes)) if sizes else 0,
            "kind": self.kind,
        }


# ----------------------------------------------------------------------
# HNSW approximate search
# ----------------------------------------------------------------------
class HNSWSearcher:
    """Hierarchical navigable-small-world approximate cosine search.

    A layered proximity graph: every vector lives on layer 0, and a
    geometrically-thinning subset also lives on higher layers.  A query
    greedily descends from the top layer's entry point to layer 1, then runs
    a best-first beam search (width ``ef_search``) on layer 0, scoring on
    the order of ``ef_search`` × ``M`` vectors per query.

    Determinism: a node's layer is a pure function of ``(seed, node id)``
    and neighbour selection breaks ties by insertion order, so rebuilding
    from the same index yields a bit-identical graph
    (:meth:`structure_digest`) and identical rankings.  Unlike
    :class:`IVFSearcher`, the graph also supports incremental
    :meth:`insert` — new rows become searchable without a rebuild.

    Tuning (see ``docs/serving.md``): ``M`` is the out-degree budget
    (layer 0 allows ``2M``), ``ef_construction`` the build-time beam width,
    ``ef_search`` the query-time beam width.  Recall rises with all three;
    build cost with ``M``/``ef_construction``; query cost with ``ef_search``.
    """

    def __init__(
        self,
        M: int = 16,
        ef_construction: int = 80,
        ef_search: int = 64,
        seed: int = 0,
        kind: Optional[str] = None,
    ) -> None:
        if M < 2:
            raise ValueError("M must be at least 2")
        if ef_construction < 1 or ef_search < 1:
            raise ValueError("ef_construction and ef_search must be positive")
        self.M = int(M)
        self.M0 = 2 * int(M)
        self.ef_construction = int(ef_construction)
        self.ef_search = int(ef_search)
        self.seed = int(seed)
        self.kind = kind
        # 1/ln(M): the standard level-assignment scale (Malkov & Yashunin).
        self._level_scale = 1.0 / np.log(self.M)
        self._reset()

    def _reset(self) -> None:
        self._keys: List[str] = []
        self._kinds: List[str] = []
        self._vectors: Optional[np.ndarray] = None  # (capacity, dim) float64, unit rows
        self._count = 0
        self._levels: List[int] = []
        # _links[node][level] -> int64 array of neighbour node ids.
        self._links: List[List[np.ndarray]] = []
        self._entry = -1
        self._max_level = -1
        self._dim = 0
        # content_fingerprint() of the view at fit/sync time — the proof a
        # persisted graph offers another process that it matches the on-disk
        # index content.
        self._fitted_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether the graph holds at least one vector."""
        return self._count > 0

    def __len__(self) -> int:
        """Number of indexed vectors."""
        return self._count

    def structure_digest(self) -> str:
        """SHA-256 over vectors, levels and adjacency — bit-identity probe.

        Two searchers built from the same index with the same parameters
        must agree on this digest (the determinism contract the
        property-based tests pin down).
        """
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._matrix()).tobytes())
        digest.update(np.asarray(self._levels, dtype=np.int64).tobytes())
        for per_level in self._links:
            for neighbours in per_level:
                digest.update(np.asarray(neighbours, dtype=np.int64).tobytes())
            digest.update(b"|")
        for key, kind in zip(self._keys, self._kinds):
            digest.update(f"{key}\x00{kind}\x01".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Persist the fitted graph to ``path`` atomically (temp + rename).

        The format is a versioned ``.npz``: the float64 unit vectors, the
        per-node levels, the adjacency flattened to ``(link_counts,
        link_flat)`` in node-major/level order, the key/kind arrays and a
        JSON meta block carrying the tuning parameters plus two provenance
        stamps — the index :meth:`content_fingerprint
        <repro.serve.index.EmbeddingIndex.content_fingerprint>` and this
        graph's :meth:`structure_digest`.  :meth:`load` restores the graph
        bit-identically (same digest); :meth:`attach` uses the fingerprint
        to prove freshness against an independently-opened index.
        """
        if not self.is_fitted:
            raise RuntimeError("HNSWSearcher.save called before fit()/insert()")
        path = Path(path)
        per_node = [self._links[node] for node in range(self._count)]
        link_counts = np.asarray(
            [len(neighbours) for levels in per_node for neighbours in levels],
            dtype=np.int64,
        )
        flat_parts = [neighbours for levels in per_node for neighbours in levels]
        link_flat = (
            np.concatenate(flat_parts).astype(np.int64)
            if flat_parts
            else np.empty(0, dtype=np.int64)
        )
        meta = {
            "format_version": _HNSW_FORMAT_VERSION,
            "library_version": _library_version(),
            "M": self.M,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "seed": self.seed,
            "kind": self.kind,
            "count": self._count,
            "dim": self._dim,
            "entry": self._entry,
            "max_level": self._max_level,
            "index_fingerprint": self._fitted_fingerprint,
            "structure_digest": self.structure_digest(),
        }

        def _write(tmp: Path) -> None:
            with tmp.open("wb") as handle:
                np.savez(
                    handle,
                    meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                    vectors=np.ascontiguousarray(self._matrix()),
                    levels=np.asarray(self._levels, dtype=np.int64),
                    link_counts=link_counts,
                    link_flat=link_flat,
                    keys=np.asarray(self._keys),
                    kinds=np.asarray(self._kinds),
                )

        atomic_write(path, path.name + ".tmp", _write)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "HNSWSearcher":
        """Restore a graph persisted by :meth:`save` (bit-identical).

        Raises :class:`~repro.serve.index.IndexFormatError` when the file is
        unreadable, a different format version, internally inconsistent, or
        its arrays fail the stored :meth:`structure_digest` — a loaded graph
        is either exactly the one saved or an error, never silently wrong.
        A ``fitted_generation`` stamp in older files is ignored.
        """
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(bytes(payload["meta"]).decode())
                vectors = np.ascontiguousarray(payload["vectors"], dtype=np.float64)
                levels = payload["levels"].astype(np.int64)
                link_counts = payload["link_counts"].astype(np.int64)
                link_flat = payload["link_flat"].astype(np.int64)
                keys = [str(key) for key in payload["keys"]]
                kinds = [str(kind) for kind in payload["kinds"]]
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
            raise IndexFormatError(f"unreadable HNSW graph {path}: {error}")
        if meta.get("format_version") != _HNSW_FORMAT_VERSION:
            raise IndexFormatError(
                f"HNSW graph format version {meta.get('format_version')!r} is not "
                f"supported (expected {_HNSW_FORMAT_VERSION})"
            )
        count, dim = int(meta["count"]), int(meta["dim"])
        if (
            vectors.shape != (count, dim)
            or len(levels) != count
            or len(keys) != count
            or len(kinds) != count
            or len(link_counts) != int(np.sum(levels + 1))
        ):
            raise IndexFormatError(f"HNSW graph {path} is internally inconsistent")
        if int(np.sum(link_counts)) != len(link_flat):
            raise IndexFormatError(f"HNSW graph {path} adjacency arrays disagree")
        searcher = cls(
            M=int(meta["M"]),
            ef_construction=int(meta["ef_construction"]),
            ef_search=int(meta["ef_search"]),
            seed=int(meta["seed"]),
            kind=meta.get("kind"),
        )
        searcher._keys = keys
        searcher._kinds = kinds
        searcher._vectors = vectors
        searcher._count = count
        searcher._dim = dim
        searcher._levels = [int(level) for level in levels]
        links: List[List[np.ndarray]] = []
        slot = 0
        flat_cursor = 0
        for node in range(count):
            per_level: List[np.ndarray] = []
            for _ in range(int(levels[node]) + 1):
                n = int(link_counts[slot])
                slot += 1
                per_level.append(link_flat[flat_cursor : flat_cursor + n].copy())
                flat_cursor += n
            links.append(per_level)
        searcher._links = links
        searcher._entry = int(meta["entry"])
        searcher._max_level = int(meta["max_level"])
        searcher._fitted_fingerprint = meta.get("index_fingerprint")
        if searcher.structure_digest() != meta.get("structure_digest"):
            raise IndexFormatError(
                f"HNSW graph {path} failed its structure digest (corrupt payload)"
            )
        return searcher

    def attach(self, index) -> bool:
        """Whether a loaded graph was fitted on exactly ``index``'s content.

        ``True`` only when ``index.content_fingerprint()`` equals the one
        stamped at fit/sync time; callers then serve the graph as is, and
        otherwise fall back to :meth:`sync` or :meth:`fit`.
        """
        return self._fitted_fingerprint == index.content_fingerprint()

    def stats(self) -> Dict[str, object]:
        """Graph occupancy summary for service reports."""
        degrees = [len(per_level[0]) for per_level in self._links] if self._count else []
        return {
            "algorithm": "hnsw",
            "fitted": self.is_fitted,
            "entries": self._count,
            "M": self.M,
            "ef_construction": self.ef_construction,
            "ef_search": self.ef_search,
            "max_level": self._max_level,
            "mean_degree": round(float(np.mean(degrees)), 2) if degrees else 0.0,
            "kind": self.kind,
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _matrix(self) -> np.ndarray:
        if self._vectors is None:
            return np.zeros((0, self._dim), dtype=np.float64)
        return self._vectors[: self._count]

    def _level_for(self, node: int) -> int:
        # Pure function of (seed, node id): rebuilds and incremental inserts
        # agree on every node's level regardless of process history.
        rng = np.random.default_rng([self.seed, node])
        return int(-np.log(max(rng.random(), 1e-300)) * self._level_scale)

    def _ensure_capacity(self, extra: int, dim: int) -> None:
        if self._vectors is None:
            self._dim = dim
            self._vectors = np.empty((max(extra, 64), dim), dtype=np.float64)
            return
        if dim != self._dim:
            raise ValueError(f"vector dimension {dim} does not match graph dim {self._dim}")
        needed = self._count + extra
        if needed > len(self._vectors):
            capacity = max(needed, 2 * len(self._vectors))
            grown = np.empty((capacity, self._dim), dtype=np.float64)
            grown[: self._count] = self._vectors[: self._count]
            self._vectors = grown

    def _greedy_descent(
        self, query: np.ndarray, node: int, sim: float, level: int
    ) -> Tuple[float, int]:
        """Hill-climb to the locally-nearest node of one upper layer."""
        vectors = self._vectors
        while True:
            neighbours = self._links[node][level]
            if not len(neighbours):
                return sim, node
            sims = vectors[neighbours] @ query
            best = int(np.argmax(sims))
            if sims[best] <= sim:
                return sim, node
            sim = float(sims[best])
            node = int(neighbours[best])

    def _search_layer(
        self,
        query: np.ndarray,
        entries: List[Tuple[float, int]],
        ef: int,
        level: int,
    ) -> List[Tuple[float, int]]:
        """Best-first beam search of one layer; returns ``(sim, node)`` pairs.

        Neighbour similarities are computed one gathered matmul per expanded
        node, so the Python cost per hop is a couple of heap operations, not
        a per-neighbour dispatch.
        """
        vectors = self._vectors
        visited = np.zeros(self._count, dtype=bool)
        # candidates: max-heap via negated sims; results: min-heap (worst first).
        candidates: List[Tuple[float, int]] = []
        results: List[Tuple[float, int]] = []
        for sim, node in entries:
            if visited[node]:
                continue
            visited[node] = True
            heapq.heappush(candidates, (-sim, node))
            heapq.heappush(results, (sim, node))
        while candidates:
            neg_sim, node = heapq.heappop(candidates)
            if len(results) >= ef and -neg_sim < results[0][0]:
                break
            neighbours = self._links[node][level]
            if not len(neighbours):
                continue
            fresh = neighbours[~visited[neighbours]]
            if not len(fresh):
                continue
            visited[fresh] = True
            sims = vectors[fresh] @ query
            worst = results[0][0] if len(results) >= ef else -np.inf
            for sim, nb in zip(sims.tolist(), fresh.tolist()):
                if len(results) < ef:
                    heapq.heappush(results, (sim, nb))
                    heapq.heappush(candidates, (-sim, nb))
                    worst = results[0][0]
                elif sim > worst:
                    heapq.heapreplace(results, (sim, nb))
                    heapq.heappush(candidates, (-sim, nb))
                    worst = results[0][0]
        return results

    def _select_neighbours(
        self, candidates: List[Tuple[float, int]], budget: int
    ) -> List[int]:
        """Diversity-pruned neighbour pick (the HNSW heuristic).

        A candidate is kept only if it is closer to the query than to every
        already-kept neighbour — spreading edges across directions instead
        of bunching them in the densest cluster.  Skipped candidates refill
        unused budget (``keepPrunedConnections``), and every comparison is
        insertion-order deterministic.
        """
        ordered = sorted(candidates, key=lambda item: (-item[0], item[1]))
        nodes = np.fromiter((node for _, node in ordered), dtype=np.int64, count=len(ordered))
        sims_to_query = np.fromiter(
            (sim for sim, _ in ordered), dtype=np.float64, count=len(ordered)
        )
        block = self._vectors[nodes]
        # best_to_selected[i]: max similarity of candidate i to any already-
        # selected neighbour — updated with one vectorised max per selection,
        # so the whole pass costs O(budget) numpy calls, not O(pool * budget).
        best_to_selected = np.full(len(nodes), -np.inf)
        selected: List[int] = []
        skipped: List[int] = []
        for i in range(len(nodes)):
            if len(selected) >= budget:
                break
            if best_to_selected[i] > sims_to_query[i]:
                skipped.append(i)
                continue
            selected.append(i)
            best_to_selected = np.maximum(best_to_selected, block @ block[i])
        for i in skipped:
            if len(selected) >= budget:
                break
            selected.append(i)
        return [int(nodes[i]) for i in selected]

    def insert(self, key: str, vector: np.ndarray, kind: str = "cone") -> int:
        """Add one vector to the graph; returns its node id.

        Incremental and deterministic: inserting the same sequence of rows
        yields the same graph as :meth:`fit` over them.  The vector is
        L2-normalised internally (cosine metric).
        """
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        self._ensure_capacity(1, len(vector))
        node = self._count
        norm = max(float(np.linalg.norm(vector)), 1e-12)
        self._vectors[node] = vector / norm
        level = self._level_for(node)
        self._keys.append(str(key))
        self._kinds.append(str(kind))
        self._levels.append(level)
        self._links.append([np.empty(0, dtype=np.int64) for _ in range(level + 1)])
        if self._entry < 0:
            self._count = 1
            self._entry = node
            self._max_level = level
            return node
        query = self._vectors[node]
        sim = float(self._vectors[self._entry] @ query)
        ep = self._entry
        for lc in range(self._max_level, level, -1):
            sim, ep = self._greedy_descent(query, ep, sim, lc)
        entries = [(sim, ep)]
        for lc in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(query, entries, self.ef_construction, lc)
            budget = self.M0 if lc == 0 else self.M
            neighbours = self._select_neighbours(found, self.M)
            self._links[node][lc] = np.asarray(neighbours, dtype=np.int64)
            for nb in neighbours:
                links = self._links[nb][lc]
                if len(links) < budget:
                    self._links[nb][lc] = np.append(links, node)
                else:
                    # Re-select the neighbour's adjacency under its budget,
                    # letting the new node compete with the existing edges.
                    pool_nodes = np.append(links, node)
                    sims = self._vectors[pool_nodes] @ self._vectors[nb]
                    pool = list(zip(sims.tolist(), pool_nodes.tolist()))
                    self._links[nb][lc] = np.asarray(
                        self._select_neighbours(pool, budget), dtype=np.int64
                    )
            entries = sorted(found, key=lambda item: (-item[0], item[1]))
        self._count += 1
        if level > self._max_level:
            self._entry = node
            self._max_level = level
        return node

    def fit(self, index: EmbeddingIndex) -> "HNSWSearcher":
        """Rebuild the graph from the index's live rows (one ``kind`` if set).

        Rows are inserted in segment order — the same deterministic order
        :meth:`IVFSearcher.fit` snapshots — so two fits of the same index
        generation produce bit-identical graphs.  Accepts a live index or a
        pinned read snapshot.
        """
        self._reset()
        for keys_s, kinds_s, selected, block, _ in live_blocks(index, self.kind):
            for offset, row in enumerate(selected):
                row = int(row)
                self.insert(keys_s[row], block[offset], kind=kinds_s[row])
        if not self._count:
            raise ValueError("cannot fit an HNSW searcher on an empty index")
        self._fitted_fingerprint = index.content_fingerprint()
        return self

    def sync(self, index: EmbeddingIndex) -> int:
        """Incrementally absorb rows added since the last fit, if possible.

        Pure appends (new ``(key, kind)`` rows only) are inserted in place
        and the fitted fingerprint moves to ``index``'s; any other mutation
        (remove, or a known row whose vector changed — a supersede or a
        rebuild) falls back to a full :meth:`fit`.  A compaction moves rows without
        changing them, so it costs no rebuild.  Returns the number of rows
        inserted (or re-inserted by the fallback).
        """
        if not self.is_fitted:
            self.fit(index)
            return self._count
        if self.attach(index):
            return 0
        nodes = {pair: node for node, pair in enumerate(zip(self._keys, self._kinds))}
        fresh: List[Tuple[str, str, np.ndarray]] = []
        live_total = 0
        moved = False
        for keys_s, kinds_s, selected, block, _ in live_blocks(index, self.kind):
            live_total += len(selected)
            found = [nodes.get((keys_s[int(r)], kinds_s[int(r)]), -1) for r in selected]
            known = [offset for offset, node in enumerate(found) if node >= 0]
            fresh += [
                (keys_s[int(r)], kinds_s[int(r)], block[o])
                for o, (r, node) in enumerate(zip(selected, found)) if node < 0
            ]
            unit = block[known]
            unit /= np.maximum(np.linalg.norm(unit, axis=1), 1e-12)[:, None]
            moved = moved or not np.allclose(
                self._vectors[[found[o] for o in known]], unit, rtol=0.0, atol=1e-9
            )
        if moved or live_total != self._count + len(fresh):
            # Rows disappeared or hold new vectors (superseded, rebuilt):
            # incremental insert cannot retract edges, rebuild instead.
            self.fit(index)
            return self._count
        for key, kind, vector in fresh:
            self.insert(key, vector, kind=kind)
        self._fitted_fingerprint = index.content_fingerprint()
        return len(fresh)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, queries: np.ndarray, k: int = 10) -> List[List[SearchHit]]:
        """Approximate cosine top-k via greedy descent + layer-0 beam search."""
        if not self.is_fitted:
            raise RuntimeError("HNSWSearcher.search called before fit()/insert()")
        if k < 1:
            raise ValueError("k must be positive")
        ef = max(self.ef_search, k)
        normalised = _normalise_queries(queries, self._dim)
        results: List[List[SearchHit]] = []
        for q in range(len(normalised)):
            query = normalised[q]
            sim = float(self._vectors[self._entry] @ query)
            ep = self._entry
            for lc in range(self._max_level, 0, -1):
                sim, ep = self._greedy_descent(query, ep, sim, lc)
            found = self._search_layer(query, [(sim, ep)], ef, 0)
            ranked = sorted(found, key=lambda item: (-item[0], item[1]))[:k]
            results.append([
                SearchHit(key=self._keys[node], kind=self._kinds[node], score=float(score))
                for score, node in ranked
            ])
        return results


def recall_at_k(
    exact: Sequence[Sequence[SearchHit]], approx: Sequence[Sequence[SearchHit]], k: int = 10
) -> float:
    """Mean fraction of the exact top-k that the approximate top-k recovered."""
    if len(exact) != len(approx):
        raise ValueError("exact/approx result lists differ in length")
    if not exact:
        return 1.0
    total = 0.0
    for exact_hits, approx_hits in zip(exact, approx):
        want = {hit.key for hit in exact_hits[:k]}
        if not want:
            total += 1.0
            continue
        got = {hit.key for hit in approx_hits[:k]}
        total += len(want & got) / len(want)
    return total / len(exact)
