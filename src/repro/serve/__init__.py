"""Serving subsystem: persistent embedding index, retrieval and micro-batching.

``repro.serve`` turns a pre-trained NetTAG model into a queryable service:

* :class:`EmbeddingIndex` — on-disk sharded (memory-mapped) vector store with
  a fingerprinted JSON manifest and append/compact/merge maintenance,
* :func:`exact_topk` / :class:`IVFSearcher` — exact and IVF-style approximate
  cosine retrieval over the index,
* :class:`BatchScheduler` — thread-based micro-batching (size-or-deadline
  flush) so concurrent callers share packed batched forwards,
* :class:`CrossModalEncoder` / :class:`ModalityProjection` — RTL and layout
  modalities projected into the shared index space, so a query in any
  modality retrieves matches in any other (``repro.serve.crossmodal``),
* :class:`ReadPath` — pinned :class:`ReadSnapshot` views plus the one
  content-keyed searcher cache and HNSW sidecar ladder, shared by the
  service and the replicas (``repro.serve.read_path``),
* :class:`NetTAGService` — the facade combining all of the above, with one
  micro-batched query entry point (``submit_query``/``query``), lock-free
  reads and zero-downtime index/model hot-swap,
* :class:`AsyncFrontend` — asyncio admission control (bounded per-kind
  queues, reject-with-retry-after backpressure, per-request deadlines,
  graceful drain) in front of one service (``repro.serve.frontend``),
* :class:`ReadReplica` / :class:`ReplicaPool` — read-only multi-process
  replicas over the shared mmap'd shards, with a manifest generation watcher
  and persisted HNSW graph loading (``repro.serve.replica``).
"""

from .crossmodal import (
    MODALITY_KINDS,
    PROJECTED_KINDS,
    CrossModalEncoder,
    ModalityProjection,
    MultimodalCorpusItem,
    MultimodalRows,
    build_multimodal_index,
    encode_multimodal_rows,
    encoder_fingerprint,
    items_from_netlists,
)
from .frontend import (
    DEFAULT_LIMITS,
    AdmissionError,
    AsyncFrontend,
    DeadlineExceeded,
    FrontendClosed,
)
from .index import EmbeddingIndex, IndexFormatError
from .read_path import ReadPath
from .replica import ReadReplica, ReplicaError, ReplicaPool
from .scheduler import BatchScheduler, SchedulerClosed
from .search import (
    HNSWSearcher,
    IVFSearcher,
    SearchHit,
    exact_topk,
    hnsw_sidecar_path,
    recall_at_k,
)
from .snapshot import ReadSnapshot, SnapshotManager
from .service import (
    CIRCUIT_KIND,
    CONE_KIND,
    LAYOUT_KIND,
    RTL_KIND,
    VECTOR_KIND,
    NetTAGService,
    cone_key,
    encode_index_rows,
)

__all__ = [
    "EmbeddingIndex",
    "IndexFormatError",
    "BatchScheduler",
    "SchedulerClosed",
    "IVFSearcher",
    "HNSWSearcher",
    "SearchHit",
    "exact_topk",
    "recall_at_k",
    "hnsw_sidecar_path",
    "ReadSnapshot",
    "SnapshotManager",
    "ReadPath",
    "ReadReplica",
    "ReplicaPool",
    "ReplicaError",
    "AsyncFrontend",
    "AdmissionError",
    "DeadlineExceeded",
    "FrontendClosed",
    "DEFAULT_LIMITS",
    "NetTAGService",
    "CIRCUIT_KIND",
    "CONE_KIND",
    "RTL_KIND",
    "LAYOUT_KIND",
    "VECTOR_KIND",
    "MODALITY_KINDS",
    "PROJECTED_KINDS",
    "CrossModalEncoder",
    "ModalityProjection",
    "MultimodalCorpusItem",
    "MultimodalRows",
    "build_multimodal_index",
    "encode_multimodal_rows",
    "encoder_fingerprint",
    "items_from_netlists",
    "cone_key",
    "encode_index_rows",
]
