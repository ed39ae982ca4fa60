"""Benchmark of the cross-modal retrieval engine (``repro.serve.crossmodal``).

Two contract points of the multimodal serving path, measured on a ≥200-item
aligned corpus (register cones with RTL cone text and cone layout graphs)
and written to ``BENCH_crossmodal.json``:

* **Aligned-pair retrieval quality** — for every modality pair (RTL ⇄ cone,
  layout ⇄ cone, RTL ⇄ layout), querying with one side must retrieve the
  aligned partner in the top-10.  The synthetic generators emit *exact
  structural duplicates* (the same pipeline-register cone appears in many
  designs and bit positions), and the name-invariant encoders give such
  duplicates byte-identical index vectors — cosine ties no ranking can
  order — so the headline ``recall_at_10`` counts a hit when the retrieved
  entry is the aligned partner **or an exact vector-level duplicate of it**
  (on either the query or the target side).  The strict same-key recall is
  reported alongside for transparency.
* **Concurrent cross-modal serving throughput** — wall-clock for a mixed
  batch of RTL / cone / layout queries served concurrently through
  :class:`~repro.serve.NetTAGService` (modality-aware micro-batching)
  versus handling the same requests one at a time with per-request
  encoding.  The sequential baseline follows ``BENCH_index.json``'s
  convention: a *stateless naive server* — cone requests go through the
  seed's un-packed per-request encode, RTL requests re-encode with a
  cleared text cache, layout requests run one un-packed graph forward each.

Like the other throughput benchmarks, the model is untrained (encode speed
and the projection-head mechanics do not depend on training); the projection
heads are fitted on the benchmark corpus exactly as ``build_multimodal_index``
does in production.
"""

from __future__ import annotations

import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import NetTAGConfig, NetTAGPipeline
from ..netlist import netlist_to_tag
from ..serve import (
    CONE_KIND,
    LAYOUT_KIND,
    RTL_KIND,
    MultimodalCorpusItem,
    NetTAGService,
    exact_topk,
)
from .host import host_snapshot
from .throughput import seed_sequential_encode

BENCH_CROSSMODAL_PATH = Path(__file__).resolve().parents[3] / "BENCH_crossmodal.json"

#: The kind pairs the recall sweep measures (query kind -> target kind).
MODALITY_PAIRS: Tuple[Tuple[str, str], ...] = (
    (RTL_KIND, CONE_KIND),
    (CONE_KIND, RTL_KIND),
    (LAYOUT_KIND, CONE_KIND),
    (CONE_KIND, LAYOUT_KIND),
    (RTL_KIND, LAYOUT_KIND),
    (LAYOUT_KIND, RTL_KIND),
)


def build_crossmodal_pipeline(min_items: int = 220, seed: int = 7) -> NetTAGPipeline:
    """A preprocessed pipeline whose corpus holds ≥ ``min_items`` aligned cones.

    Controller designs with cycling state counts and datapath widths (the
    ``BENCH_index.json`` corpus family), preprocessed with alignment data so
    every cone carries its RTL cone text and cone layout graph.  The
    population contains genuinely repeated cone structures across designs,
    which is what makes the duplicate-aware recall metric necessary.
    """
    from ..rtl import make_controller

    pipeline = NetTAGPipeline(NetTAGConfig.fast(seed=seed))
    designs = []
    i = 0
    while sum(len(d.cones) for d in designs) < min_items:
        module = make_controller(
            f"corpus_{i}",
            seed=100 + i,
            num_states=3 + (i % 6),
            data_width=3 + (i % 7),
        )
        designs.append(pipeline.preprocess_module(module, suite="crossmodal"))
        i += 1
    pipeline.designs = designs
    return pipeline


def _modality_classes(
    items: Sequence[MultimodalCorpusItem],
    vectors_per_modality: Dict[str, np.ndarray],
) -> Dict[str, Dict[str, frozenset]]:
    """Per-modality exact-duplicate classes: ``modality -> key -> class``.

    The synthetic generators emit structural duplicates (the same
    pipeline-register cone recurs across designs and bit positions), and the
    encoders are name-invariant, so duplicate groups produce *byte-identical
    index vectors* — cosine ties that no ranking can order.  Two items are
    therefore duplicates in a modality exactly when their index-space
    vectors (at the index's float32 storage precision) are byte-equal; the
    recall metric treats such groups as interchangeable.  Near-misses stay
    distinct — only provably un-orderable exact ties are grouped.
    """
    classes: Dict[str, Dict[str, frozenset]] = {}
    for modality, matrix in vectors_per_modality.items():
        stored = np.asarray(matrix, dtype=np.float32)
        by_content: Dict[bytes, List[str]] = {}
        for item, row in zip(items, stored):
            by_content.setdefault(row.tobytes(), []).append(item.key)
        per_key: Dict[str, frozenset] = {}
        for keys in by_content.values():
            frozen = frozenset(keys)
            for key in keys:
                per_key[key] = frozen
        classes[modality] = per_key
    return classes


def _recall(
    hits_per_query: Sequence[Sequence],
    items: Sequence[MultimodalCorpusItem],
    classes: Dict[str, Dict[str, frozenset]],
    from_kind: str,
    to_kind: str,
) -> Tuple[float, float]:
    """(duplicate-aware, strict same-key) aligned-pair recall of one sweep.

    A retrieved entry counts as the aligned pair when its key matches the
    query item's, when the retrieved target is an exact duplicate of the
    aligned target (same ``to_kind`` content), or when the query itself is
    an exact duplicate of another item's query (same ``from_kind`` content —
    the system cannot distinguish byte-identical queries, so either item's
    aligned target is a correct answer).
    """
    dup_hits = 0
    strict_hits = 0
    for item, hits in zip(items, hits_per_query):
        keys = {hit.key for hit in hits}
        if item.key in keys:
            strict_hits += 1
        acceptable = classes[from_kind][item.key] | classes[to_kind][item.key]
        if keys & acceptable:
            dup_hits += 1
    total = max(len(items), 1)
    return dup_hits / total, strict_hits / total


def run_crossmodal_bench(
    pipeline: Optional[NetTAGPipeline] = None,
    min_items: int = 220,
    num_queries: int = 48,
    k: int = 10,
    num_threads: int = 32,
    index_dir: Optional[Path] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """Build a multimodal index and measure cross-modal quality + throughput."""
    host = host_snapshot()
    pipeline = pipeline or build_crossmodal_pipeline(min_items=min_items, seed=seed)
    items = [
        item
        for item in pipeline.multimodal_items()
        if item.rtl_text is not None and item.layout is not None
    ]
    if len(items) < min_items:
        raise ValueError(f"corpus holds {len(items)} aligned items < {min_items}")

    def clear_caches() -> None:
        # Cached embeddings keep bits that depend on the batch a text was
        # encoded in, so a run starts and ends with empty caches: a second
        # run on the same pipeline then builds the same rows as the first.
        pipeline.model.clear_caches()
        if pipeline.rtl_encoder is not None:
            pipeline.rtl_encoder.clear_cache()

    cleanup = None
    if index_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        index_dir = Path(cleanup.name) / "index"
    try:
        # ------------------------------------------------------------------
        # Build: every modality from one corpus, projections fitted inline.
        clear_caches()
        start = time.perf_counter()
        index, encoder = pipeline.build_multimodal_index(index_dir)
        build_seconds = time.perf_counter() - start

        # ------------------------------------------------------------------
        # Aligned-pair retrieval recall per modality pair (batched sweeps).
        query_matrices: Dict[str, np.ndarray] = {
            RTL_KIND: encoder.projection(RTL_KIND).project(
                encoder.encode_rtl([item.rtl_text for item in items])
            ),
            LAYOUT_KIND: encoder.projection(LAYOUT_KIND).project(
                encoder.encode_layouts([item.layout for item in items])
            ),
            CONE_KIND: np.stack(
                [index.get(item.key, kind=CONE_KIND) for item in items]
            ),
        }
        classes = _modality_classes(items, query_matrices)
        recall_report: Dict[str, Dict[str, float]] = {}
        for from_kind, to_kind in MODALITY_PAIRS:
            hits = exact_topk(index, query_matrices[from_kind], k=k, kind=to_kind)
            dup_aware, strict = _recall(hits, items, classes, from_kind, to_kind)
            recall_report[f"{from_kind}->{to_kind}"] = {
                "recall_at_10": round(dup_aware, 4),
                "strict_same_key": round(strict, 4),
            }
        aligned_recall = float(
            np.mean([pair["recall_at_10"] for pair in recall_report.values()])
        )

        # ------------------------------------------------------------------
        # Serving throughput on a mixed-modality query slice.
        stride = max(1, len(items) // num_queries)
        positions = list(range(0, stride * num_queries, stride))[:num_queries]
        # Cone-weighted mix: netlist-side similarity stays the dominant
        # production workload; RTL and layout queries are the new capability.
        modality_cycle = (CONE_KIND, RTL_KIND, CONE_KIND, LAYOUT_KIND)
        requests: List[Tuple[str, object]] = []
        for offset, position in enumerate(positions):
            item = items[position]
            from_kind = modality_cycle[offset % len(modality_cycle)]
            payload = {
                RTL_KIND: item.rtl_text,
                CONE_KIND: item.cone,
                LAYOUT_KIND: item.layout,
            }[from_kind]
            requests.append((from_kind, payload))

        # Sequential baseline: a stateless naive server, one request at a
        # time — cone requests encode through the seed's un-packed path
        # (no cross-request expression cache), RTL requests re-tokenise and
        # re-encode from scratch, layout requests run one un-packed forward.
        model = pipeline.model
        clear_caches()
        start = time.perf_counter()
        sequential_hits = []
        for from_kind, payload in requests:
            if from_kind == CONE_KIND:
                tag = netlist_to_tag(payload.netlist, k=model.config.expression_hops)
                vector = model.pad_to_index_dim(
                    seed_sequential_encode(model, [payload], [tag])[0]
                )[None, :]
            elif from_kind == RTL_KIND:
                encoder.rtl_encoder.clear_cache()
                vector = encoder.projection(RTL_KIND).project(
                    encoder.rtl_encoder.encode_texts([payload])
                )
            else:
                vector = encoder.projection(LAYOUT_KIND).project(
                    encoder.layout_encoder.encode(payload)[None, :]
                )
            sequential_hits.append(exact_topk(index, vector, k=k, kind=CONE_KIND)[0])
        sequential_seconds = time.perf_counter() - start

        # Concurrent cross-modal serving: the same requests from a thread
        # pool; the scheduler batches per source kind and answers each
        # flush's queries with one top-k matmul per target kind.
        clear_caches()
        with NetTAGService(
            pipeline.model,
            index=index,
            crossmodal=encoder,
            max_batch_size=16,
            max_latency_ms=2.0,
        ) as service:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=num_threads) as pool:
                concurrent_hits = list(
                    pool.map(
                        lambda request: service.query(
                            request[1], request[0], to_kind=CONE_KIND, k=k
                        ),
                        requests,
                    )
                )
            concurrent_seconds = time.perf_counter() - start
            scheduler_stats = service.stats()["scheduler"]

        # Parity between the serving paths: the corpus holds byte-identical
        # duplicate rows, whose scores tie to within float rounding, so exact
        # key-order equality is ill-defined — compare the per-rank *scores*
        # instead (ties may permute keys, never scores).
        score_deviation = max(
            (
                abs(s.score - c.score)
                for seq, conc in zip(sequential_hits, concurrent_hits)
                for s, c in zip(seq, conc)
            ),
            default=0.0,
        )
        ranking_parity = score_deviation < 1e-6

        per_query_ms = lambda seconds: round(1e3 * seconds / num_queries, 3)  # noqa: E731
        return {
            "host": host,
            "corpus": {
                "num_items": len(items),
                "num_designs": len(pipeline.designs),
                "duplicate_classes": {
                    modality: len({per_key[item.key] for item in items})
                    for modality, per_key in classes.items()
                },
                "index_dim": pipeline.model.index_dim,
                "num_queries": num_queries,
                "num_threads": num_threads,
                "k": k,
            },
            "build": {
                "seconds": round(build_seconds, 4),
                "kinds": index.stats()["kinds"],
                "projection_anchors": {
                    modality: encoder.projection(modality).num_anchors
                    for modality in (RTL_KIND, LAYOUT_KIND)
                },
            },
            "quality": {
                "aligned_pair_recall_at_10": round(aligned_recall, 4),
                "per_pair": recall_report,
                "ranking_parity": bool(ranking_parity),
                "parity_score_deviation": float(score_deviation),
            },
            "latency": {
                "sequential_per_query_ms": per_query_ms(sequential_seconds),
                "concurrent_batched_per_query_ms": per_query_ms(concurrent_seconds),
            },
            "total_seconds": {
                "sequential": round(sequential_seconds, 4),
                "concurrent_batched": round(concurrent_seconds, 4),
            },
            "speedup": {
                "concurrent_vs_sequential": round(
                    sequential_seconds / concurrent_seconds, 2
                ),
            },
            "scheduler": scheduler_stats,
        }
    finally:
        clear_caches()
        if cleanup is not None:
            cleanup.cleanup()


def save_crossmodal_report(report: Dict[str, object], path: Optional[Path] = None) -> Path:
    """Write the benchmark report (defaults to ``BENCH_crossmodal.json``)."""
    path = path or BENCH_CROSSMODAL_PATH
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
