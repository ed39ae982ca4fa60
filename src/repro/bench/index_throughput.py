"""Benchmark of the embedding index + concurrent serving layer (``repro.serve``).

Three contract points of the serving subsystem, measured on a ~500-cone
corpus and written to ``BENCH_index.json``:

* **Round-trip exactness** — saving the index, reopening it and re-running a
  query returns the identical top-k ranking (bit-equal scores).
* **Approximate-search quality** — IVF recall@10 against exact search over
  the whole corpus.
* **Concurrent serving throughput** — wall-clock for a batch of
  encode+query requests served concurrently through
  :class:`~repro.serve.NetTAGService` (micro-batched packed forwards) versus
  handling the same requests one at a time with per-request encoding.

The sequential baseline mirrors ``BENCH_throughput.json``'s convention: each
request is encoded the way the seed served it — one un-packed TAGFormer
forward per request, raw-text caching only within the request (a stateless
naive server).  A second, warm-cache per-request baseline
(:func:`repro.bench.throughput.api_sequential_encode` semantics) is also
reported so the batching win and the caching win stay separately visible.

:func:`run_index_scale_bench` adds the corpus-scale serving-tier section
(``hnsw_scale``): HNSW vs IVF recall/latency on a 100k-vector clustered
corpus and sustained QPS through the generation-pinned snapshot read path
while a writer ingests concurrently.  ``save_index_report`` *merges*
sections into ``BENCH_index.json`` so the tier-1 run and the scheduled
scale run never clobber each other.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import NetTAG, NetTAGConfig
from ..netlist import RegisterCone, extract_register_cones, netlist_to_tag
from .host import available_cores, host_snapshot
from ..rtl import make_controller
from ..serve import (
    CONE_KIND,
    EmbeddingIndex,
    HNSWSearcher,
    IVFSearcher,
    NetTAGService,
    ReplicaPool,
    SnapshotManager,
    cone_key,
    exact_topk,
    hnsw_sidecar_path,
    recall_at_k,
)
from ..synth import synthesize
from .throughput import api_sequential_encode, seed_sequential_encode

BENCH_INDEX_PATH = Path(__file__).resolve().parents[3] / "BENCH_index.json"


def build_index_corpus(
    num_cones: int = 500, seed: int = 100
) -> List[RegisterCone]:
    """Register cones of synthesised controllers until ``num_cones`` exist.

    State counts and datapath widths cycle so cone sizes are mixed; the
    generated population contains genuinely repeated cone structures across
    designs, which is what makes near-duplicate retrieval non-trivial.
    """
    cones: List[RegisterCone] = []
    i = 0
    while len(cones) < num_cones:
        module = make_controller(
            f"corpus_{i}",
            seed=seed + i,
            num_states=3 + (i % 6),
            data_width=3 + (i % 7),
        )
        cones.extend(extract_register_cones(synthesize(module).netlist))
        i += 1
    return cones[:num_cones]


def _owner_name(cone: RegisterCone, position: int) -> str:
    return f"c{position:04d}"


def run_index_bench(
    model: Optional[NetTAG] = None,
    cones: Optional[Sequence[RegisterCone]] = None,
    num_queries: int = 48,
    k: int = 10,
    num_threads: int = 32,
    index_dir: Optional[Path] = None,
    seed: int = 7,
) -> Dict[str, object]:
    """Build an index over the corpus and measure quality + serving throughput."""
    host = host_snapshot()
    model = model or NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(seed))
    cones = list(cones) if cones is not None else build_index_corpus()
    if len(cones) < num_queries:
        raise ValueError(f"corpus of {len(cones)} cones cannot serve {num_queries} queries")
    tags = [netlist_to_tag(cone.netlist, k=model.config.expression_hops) for cone in cones]
    keys = [cone_key(_owner_name(cone, i), cone.register_name) for i, cone in enumerate(cones)]

    cleanup = None
    if index_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        index_dir = Path(cleanup.name) / "index"
    try:
        # ------------------------------------------------------------------
        # Ingest: one batched encode pass over the whole corpus.
        model.clear_caches()
        start = time.perf_counter()
        vectors = model.encode_batch(cones, tags=tags)
        encode_seconds = time.perf_counter() - start
        start = time.perf_counter()
        index = NetTAGService.create_index(model, index_dir, shard_size=128, overwrite=True)
        index.add(keys, np.stack(vectors), kinds=CONE_KIND)
        index.save()
        ingest_seconds = time.perf_counter() - start

        # ------------------------------------------------------------------
        # Round-trip exactness: reopen and compare a query's full ranking.
        probe = np.stack(vectors[:8])
        before = exact_topk(index, probe, k=k)
        reopened = EmbeddingIndex.open(index_dir)
        after = exact_topk(reopened, probe, k=k)
        round_trip_exact = all(
            [hit.key for hit in b] == [hit.key for hit in a]
            and [hit.score for hit in b] == [hit.score for hit in a]
            for b, a in zip(before, after)
        )

        # ------------------------------------------------------------------
        # Approximate search quality on the full corpus.
        query_matrix = np.stack(vectors)
        exact_results = exact_topk(index, query_matrix, k=k)
        searcher = IVFSearcher(num_centroids=32, nprobe=8, seed=0).fit(index)
        approx_results = searcher.search(query_matrix, k=k)
        recall = recall_at_k(exact_results, approx_results, k=k)

        # ------------------------------------------------------------------
        # Serving throughput on a query slice.
        stride = max(1, len(cones) // num_queries)
        query_positions = list(range(0, stride * num_queries, stride))[:num_queries]
        query_cones = [cones[i] for i in query_positions]
        query_tags = [tags[i] for i in query_positions]

        # Every serving path (baselines included) receives the raw cone and
        # builds its TAG per request, exactly like a request arriving over
        # the wire; ``query_tags`` exist only for gate accounting above.
        # Sequential baseline: a stateless naive server — one seed-style
        # (un-packed, raw-text-cached-within-request) encode per request,
        # then an exact top-k for that single query.
        model.clear_caches()
        start = time.perf_counter()
        sequential_hits = []
        for cone in query_cones:
            tag = netlist_to_tag(cone.netlist, k=model.config.expression_hops)
            vector = seed_sequential_encode(model, [cone], [tag])[0]
            sequential_hits.append(exact_topk(index, vector, k=k)[0])
        sequential_seconds = time.perf_counter() - start

        # Warm per-request baseline: same request loop on the current API
        # path (canonical expression cache shared across requests).
        model.clear_caches()
        start = time.perf_counter()
        for cone in query_cones:
            tag = netlist_to_tag(cone.netlist, k=model.config.expression_hops)
            vector = api_sequential_encode(model, [cone], [tag])[0]
            exact_topk(index, vector, k=k)
        warm_sequential_seconds = time.perf_counter() - start

        # Concurrent batched serving: the same requests submitted from a
        # thread pool; the scheduler coalesces them into packed forwards and
        # answers each flush's queries with one batched top-k matmul.
        model.clear_caches()
        with NetTAGService(
            model, index=index, max_batch_size=16, max_latency_ms=2.0
        ) as service:
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=num_threads) as pool:
                concurrent_hits = list(
                    pool.map(lambda cone: service.query(cone, "cone", k=k), query_cones)
                )
            concurrent_seconds = time.perf_counter() - start
            scheduler_stats = service.stats()["scheduler"]

        # The serving paths must agree on what they retrieve.  Key-exact
        # agreement is too strict: the sequential baseline encodes through
        # the unpacked float64 path while the service uses packed forwards,
        # equal only to ~1e-15, so near-tied corpus scores can legitimately
        # swap ranks depending on timing-dependent batch packing.  Compare
        # at score level instead (same idiom as the crossmodal bench).
        score_deviation = max(
            (
                abs(s.score - c.score)
                for seq, conc in zip(sequential_hits, concurrent_hits)
                for s, c in zip(seq, conc)
            ),
            default=0.0,
        )
        ranking_parity = score_deviation < 1e-6

        per_query_ms = lambda seconds: round(1e3 * seconds / num_queries, 3)
        return {
            "host": host,
            "corpus": {
                "num_cones": len(cones),
                "total_gates": sum(tag.num_nodes for tag in tags),
                "index_dim": model.index_dim,
                "num_queries": num_queries,
                "num_threads": num_threads,
                "k": k,
            },
            "ingest": {
                "encode_seconds": round(encode_seconds, 4),
                "index_build_seconds": round(ingest_seconds, 4),
                "shards": index.num_shards,
                "payload_bytes": index.stats()["payload_bytes"],
            },
            "quality": {
                "round_trip_exact": bool(round_trip_exact),
                "ranking_parity": bool(ranking_parity),
                "parity_score_deviation": float(score_deviation),
                "ivf_recall_at_10": round(recall, 4),
                "ivf": searcher.stats(),
            },
            "latency": {
                "sequential_per_query_ms": per_query_ms(sequential_seconds),
                "warm_sequential_per_query_ms": per_query_ms(warm_sequential_seconds),
                "concurrent_batched_per_query_ms": per_query_ms(concurrent_seconds),
            },
            "total_seconds": {
                "sequential": round(sequential_seconds, 4),
                "warm_sequential": round(warm_sequential_seconds, 4),
                "concurrent_batched": round(concurrent_seconds, 4),
            },
            "speedup": {
                "concurrent_vs_sequential": round(sequential_seconds / concurrent_seconds, 2),
                "concurrent_vs_warm_sequential": round(
                    warm_sequential_seconds / concurrent_seconds, 2
                ),
            },
            "scheduler": scheduler_stats,
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def build_scale_corpus(
    num_vectors: int, dim: int, clusters: int, seed: int = 11, noise: float = 1.2
) -> np.ndarray:
    """A clustered synthetic corpus for corpus-scale ANN benchmarking.

    Unit-norm cluster centres plus per-dimension-scaled Gaussian noise
    (``noise / sqrt(dim)`` per axis, so the noise magnitude is
    dimension-independent).  ``noise`` controls cluster overlap: ~0.5
    keeps a query's true neighbours within its local cluster
    neighbourhood (the regime of real cone-embedding geometry), ~1.0+
    disperses them so widely that every approximate method degrades —
    useful as an adversarial stress corpus, not as a serving benchmark.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(0, clusters, size=num_vectors)
    points = centers[assignment] + rng.normal(size=(num_vectors, dim)) * (
        noise / np.sqrt(dim)
    )
    return points


def _timed_queries(search, queries: np.ndarray) -> tuple:
    """Run ``search`` one query at a time; returns (all hits, per-query ms)."""
    hits = []
    start = time.perf_counter()
    for q in range(len(queries)):
        hits.append(search(queries[q][None, :])[0])
    elapsed = time.perf_counter() - start
    return hits, round(1e3 * elapsed / max(len(queries), 1), 4)


def run_index_scale_bench(
    num_vectors: int = 100_000,
    dim: int = 64,
    clusters: Optional[int] = None,
    noise: float = 0.55,
    num_queries: int = 200,
    k: int = 10,
    seed: int = 11,
    M: int = 16,
    ef_construction: int = 100,
    ef_search: int = 320,
    ivf_centroids: int = 256,
    ivf_nprobes: Sequence[int] = (16, 32, 64, 128),
    recall_floor: float = 0.95,
    qps_seconds: float = 5.0,
    qps_reader_threads: int = 4,
    qps_ingest_batch: int = 512,
    replica_counts: Sequence[int] = (1, 2),
    replica_qps_seconds: float = 4.0,
    replica_clients_per_replica: int = 2,
    replica_batch: int = 8,
    replica_ingest_batch: int = 128,
    replica_speedup_floor: float = 1.5,
    index_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Corpus-scale ANN benchmark: HNSW vs IVF, plus QPS under live ingest.

    Three serving-tier claims measured on a ``num_vectors``-point clustered
    corpus (no model in the loop — this benchmarks the index/search layer):

    * **HNSW quality/latency** — recall@k against :func:`exact_topk` ground
      truth and single-query latency of the graph search.
    * **A fair IVF comparison point** — the nprobe sweep's *cheapest*
      configuration reaching ``recall_floor`` (or the best-recall one if
      none does), so HNSW is compared against IVF tuned to the same target
      rather than a strawman.
    * **Sustained QPS under concurrent ingest** — reader threads run
      pin-snapshot → HNSW search → release loops while a writer ingests
      batches and republishes snapshots, exercising the generation-pinned
      read path the service serves queries through.
    * **Multi-process replica scaling** — the index and the synced HNSW
      graph are persisted, then 1..N :class:`~repro.serve.ReplicaPool`
      worker processes serve the same directory over shared mmap'd shards
      (loading the graph sidecar, never refitting) while this process keeps
      ingesting and saving; the report records aggregate client QPS per
      replica count, the N-vs-1 speedup (gated only on multi-core hosts,
      the ``speedup_gate`` convention of the training bench) and whether a
      sidecar load round-trips bit-identically.  Pass ``replica_counts=()``
      to skip the leg.

    The default corpus is *fine-grained*: ``num_vectors / 12`` clusters of
    ~12 rows each, so a query's true top-10 straddles several clusters.
    That is the regime real embedding corpora live in (neighbourhood
    structure below the coarse-quantiser scale) and the one that separates
    the two algorithms: IVF must probe half its cells to cover the
    neighbourhood while the graph walk stays local.
    """
    host = host_snapshot()
    if clusters is None:
        clusters = max(1, num_vectors // 12)
    corpus = build_scale_corpus(num_vectors, dim, clusters, seed=seed, noise=noise)
    # Queries are fresh draws from the same cluster distribution — near
    # corpus points but never identical to one.
    queries = build_scale_corpus(
        num_queries, dim, clusters, seed=seed + 1, noise=noise
    )

    cleanup = None
    if index_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        index_dir = Path(cleanup.name) / "scale-index"
    try:
        shard_size = max(1024, min(16384, num_vectors // 8 or 1))
        index = EmbeddingIndex.create(index_dir, dim=dim, shard_size=shard_size)
        keys = [f"v{i:07d}" for i in range(num_vectors)]
        for start in range(0, num_vectors, shard_size):
            index.add(
                keys[start : start + shard_size],
                corpus[start : start + shard_size],
                kinds=CONE_KIND,
            )
        index.save()

        exact_results = exact_topk(index, queries, k=k)
        _, exact_ms = _timed_queries(lambda q: exact_topk(index, q, k=k), queries[:32])

        # ------------------------------------------------------------------
        # HNSW: seeded deterministic build, then timed single-query search.
        hnsw = HNSWSearcher(
            M=M, ef_construction=ef_construction, ef_search=ef_search, seed=seed
        )
        start = time.perf_counter()
        hnsw.fit(index)
        hnsw_build_seconds = time.perf_counter() - start
        hnsw_hits, hnsw_ms = _timed_queries(lambda q: hnsw.search(q, k=k), queries)
        hnsw_recall = recall_at_k(exact_results, hnsw_hits, k=k)

        # ------------------------------------------------------------------
        # IVF sweep: cheapest nprobe reaching the recall floor is the
        # comparison point (fair fight — IVF tuned to the same target).
        ivf = IVFSearcher(num_centroids=ivf_centroids, nprobe=max(ivf_nprobes), seed=seed)
        start = time.perf_counter()
        ivf.fit(index)
        ivf_build_seconds = time.perf_counter() - start
        sweep: List[Dict[str, float]] = []
        chosen: Optional[Dict[str, float]] = None
        for nprobe in sorted(ivf_nprobes):
            hits, ms = _timed_queries(
                lambda q, nprobe=nprobe: ivf.search(q, k=k, nprobe=nprobe), queries
            )
            recall = recall_at_k(exact_results, hits, k=k)
            point = {
                "nprobe": int(nprobe),
                "recall_at_k": round(recall, 4),
                "per_query_ms": ms,
            }
            sweep.append(point)
            if chosen is None and recall >= recall_floor:
                chosen = point
        if chosen is None:
            chosen = max(sweep, key=lambda point: point["recall_at_k"])

        # ------------------------------------------------------------------
        # Sustained QPS under ingest: readers pin snapshots and search the
        # graph while a writer appends batches and republishes.
        snapshots = SnapshotManager(index.snapshot)
        snapshots.refresh()
        stop = threading.Event()
        query_counts = [0] * qps_reader_threads
        ingested = [0]
        extra = build_scale_corpus(
            max(qps_ingest_batch * 64, 1), dim, clusters, seed=seed + 2, noise=noise
        )

        def _reader(slot: int) -> None:
            rng = np.random.default_rng(seed + 100 + slot)
            while not stop.is_set():
                q = queries[rng.integers(0, num_queries)][None, :]
                with snapshots.pin():
                    hnsw.search(q, k=k)
                query_counts[slot] += 1

        def _writer() -> None:
            offset = 0
            batch_id = 0
            while not stop.is_set():
                block = extra[offset : offset + qps_ingest_batch]
                if len(block) < qps_ingest_batch:
                    offset = 0
                    continue
                index.add(
                    [f"ingest{batch_id:05d}_{i}" for i in range(len(block))],
                    block,
                    kinds=CONE_KIND,
                )
                snapshots.refresh()
                ingested[0] += len(block)
                offset += qps_ingest_batch
                batch_id += 1

        readers = [
            threading.Thread(target=_reader, args=(slot,), daemon=True)
            for slot in range(qps_reader_threads)
        ]
        writer = threading.Thread(target=_writer, daemon=True)
        for thread in readers:
            thread.start()
        writer.start()
        start = time.perf_counter()
        time.sleep(qps_seconds)
        stop.set()
        for thread in readers:
            thread.join()
        writer.join()
        elapsed = time.perf_counter() - start
        total_queries = sum(query_counts)

        # Incremental insert: absorb the rows the writer appended.
        synced = hnsw.sync(index)

        # ------------------------------------------------------------------
        # Multi-process read replicas over the same directory: persist the
        # index and the synced graph, then drive a fixed client population
        # through 1..N replica processes while this process keeps ingesting
        # and saving (so the replicas' generation watchers fire for real).
        replica_section: Optional[Dict[str, object]] = None
        replica_counts = sorted({int(c) for c in replica_counts if int(c) >= 1})
        if replica_counts:
            index.save()
            sidecar = hnsw_sidecar_path(index_dir)
            hnsw.save(sidecar)
            load_bit_identical = (
                HNSWSearcher.load(sidecar).structure_digest()
                == hnsw.structure_digest()
            )

            # The client population is fixed across legs so the only
            # variable is how many processes it spreads over.
            num_clients = max(replica_counts) * replica_clients_per_replica
            runs: List[Dict[str, object]] = []
            for count in replica_counts:
                errors: List[str] = []
                served = [0] * num_clients
                leg_stop = threading.Event()
                with ReplicaPool(
                    index_dir, num_replicas=count, poll_interval=0.2
                ) as pool:
                    # Warm-up: one query per worker so the one-off sidecar
                    # load (and any catch-up sync) lands outside the window.
                    for slot in range(count):
                        pool.query(
                            queries[:1], k=k, algorithm="hnsw", replica=slot
                        )

                    def _client(slot: int) -> None:
                        rng = np.random.default_rng(seed + 500 + slot)
                        while not leg_stop.is_set():
                            picks = rng.integers(0, num_queries, size=replica_batch)
                            try:
                                pool.query(queries[picks], k=k, algorithm="hnsw")
                            except Exception as error:  # noqa: BLE001 - reported
                                errors.append(repr(error))
                                return
                            served[slot] += replica_batch

                    def _replica_writer() -> None:
                        # Smaller batches than the in-process QPS leg: every
                        # save makes each replica re-open and incrementally
                        # sync its graph, and the point is to prove queries
                        # survive that churn, not to drown them in it.
                        offset = 0
                        batch_id = 0
                        while not leg_stop.is_set():
                            block = extra[offset : offset + replica_ingest_batch]
                            if len(block) < replica_ingest_batch:
                                offset = 0
                                continue
                            index.add(
                                [
                                    f"repl{count}_{batch_id:05d}_{i}"
                                    for i in range(len(block))
                                ],
                                block,
                                kinds=CONE_KIND,
                            )
                            index.save()
                            offset += replica_ingest_batch
                            batch_id += 1
                            leg_stop.wait(0.5)

                    clients = [
                        threading.Thread(target=_client, args=(slot,), daemon=True)
                        for slot in range(num_clients)
                    ]
                    leg_writer = threading.Thread(target=_replica_writer, daemon=True)
                    for thread in clients:
                        thread.start()
                    leg_writer.start()
                    leg_start = time.perf_counter()
                    time.sleep(replica_qps_seconds)
                    # QPS is queries completed inside the window over the
                    # window itself; the drain of in-flight requests after
                    # ``leg_stop`` would otherwise deflate the rate.
                    window_served = int(sum(served))
                    leg_elapsed = time.perf_counter() - leg_start
                    leg_stop.set()
                    for thread in clients:
                        thread.join()
                    leg_writer.join()
                    worker_stats = pool.stats()
                runs.append({
                    "replicas": count,
                    "qps": round(window_served / leg_elapsed, 1),
                    "queries": window_served,
                    "seconds": round(leg_elapsed, 2),
                    "clients": num_clients,
                    "errors": errors,
                    "workers": [
                        {
                            "generation": stats["generation"],
                            "reopens": stats["reopens"],
                            "hnsw_loaded": stats["hnsw_loaded"],
                            "hnsw_synced": stats["hnsw_synced"],
                            "hnsw_refits": stats["hnsw_refits"],
                        }
                        for stats in worker_stats
                    ],
                })

            cores = available_cores()
            base_qps = runs[0]["qps"] or 1e-9
            replica_section = {
                "hnsw_sidecar": sidecar.name,
                "hnsw_load_bit_identical": bool(load_bit_identical),
                "runs": runs,
                "total_errors": int(sum(len(run["errors"]) for run in runs)),
                "speedup": {
                    "aggregate_qps_vs_single": round(runs[-1]["qps"] / base_qps, 2),
                },
                "speedup_gate": {
                    "threshold": replica_speedup_floor,
                    "cores": cores,
                    # A single-core host time-slices the replica processes;
                    # its N-vs-1 ratio is scheduler noise, not a floor.
                    "active": bool(cores >= 2 and len(replica_counts) > 1),
                },
            }

        return {
            "host": host,
            "corpus": {
                "num_vectors": num_vectors,
                "dim": dim,
                "clusters": clusters,
                "noise": noise,
                "num_queries": num_queries,
                "k": k,
                "seed": seed,
            },
            "exact_per_query_ms": exact_ms,
            "hnsw": {
                "build_seconds": round(hnsw_build_seconds, 2),
                "recall_at_k": round(hnsw_recall, 4),
                "per_query_ms": hnsw_ms,
                "incremental_synced_rows": int(synced),
                "params": hnsw.stats(),
            },
            "ivf": {
                "build_seconds": round(ivf_build_seconds, 2),
                "num_centroids": ivf_centroids,
                "chosen": chosen,
                "sweep": sweep,
            },
            "comparison": {
                "recall_floor": recall_floor,
                "hnsw_recall_ge_floor": bool(hnsw_recall >= recall_floor),
                "hnsw_latency_le_ivf": bool(hnsw_ms <= chosen["per_query_ms"]),
                "hnsw_recall_ge_ivf": bool(
                    round(hnsw_recall, 4) >= chosen["recall_at_k"]
                ),
            },
            "sustained_qps_under_ingest": {
                "qps": round(total_queries / elapsed, 1),
                "queries": total_queries,
                "seconds": round(elapsed, 2),
                "reader_threads": qps_reader_threads,
                "rows_ingested": ingested[0],
                "ingest_rows_per_second": round(ingested[0] / elapsed, 1),
                "snapshot_stats": snapshots.stats(),
            },
            "replicas": replica_section,
        }
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def save_index_report(report: Dict[str, object], path: Optional[Path] = None) -> Path:
    """Merge ``report``'s top-level sections into the committed benchmark file.

    Merge (not overwrite) semantics: a plain ``scripts/bench_index.py`` run
    refreshes the 500-cone sections, while the corpus-scale ``hnsw_scale``
    section is produced by the scheduled ``scripts/bench_index.py --scale``
    run — each writer must preserve the other's sections.  (The tier-1
    bench guard writes its report to a temp path, never this file.)
    """
    path = path or BENCH_INDEX_PATH
    merged: Dict[str, object] = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged.update(report)
    path.write_text(json.dumps(merged, indent=2) + "\n")
    return path
