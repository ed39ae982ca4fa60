"""Tests for the cross-modal retrieval engine (``repro.serve.crossmodal``).

Covers the (key, kind) row-identity semantics the multimodal index relies
on, the projection heads and their sidecar persistence, the kind-pair query
API, and the edge cases: empty target kinds, modality-encoder fingerprint
mismatches, and IVF refits after one modality's rows are removed.

On a ≥ 220-item aligned corpus (``TestAlignedCorpus``): aligned-pair
recall@10 ≥ 0.8 over the six modality pairs and ≥ 0.5 on each, and a mixed
rtl/layout/cone burst served in few flushes with one encoder pass per source
kind per flush, scoring as a sequential server does.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from encode_reference import held_burst, seed_sequential_encode
from repro.core import NetTAGConfig, NetTAGPipeline
from repro.netlist import netlist_to_tag
from repro.rtl import make_controller
from repro.serve import (
    CIRCUIT_KIND,
    CONE_KIND,
    LAYOUT_KIND,
    RTL_KIND,
    CrossModalEncoder,
    EmbeddingIndex,
    ModalityProjection,
    MultimodalCorpusItem,
    NetTAGService,
    exact_topk,
)


@pytest.fixture(scope="module", autouse=True)
def _reference_backend():
    """Sidecar round-trips assert 1e-9-level equality between saved and
    reloaded projections applied to freshly encoded queries — a float64
    reference-backend contract (float64 projection coefficients applied to
    float32 re-encodes round differently at the 1e-7 level)."""
    from repro.nn import use_backend

    with use_backend("reference"):
        yield


@pytest.fixture(scope="module")
def mm_pipeline():
    """A pipeline preprocessed on two small controllers (alignment data on)."""
    pipeline = NetTAGPipeline(NetTAGConfig.fast())
    modules = [
        make_controller("xm_a", seed=21, num_states=4, data_width=4),
        make_controller("xm_b", seed=22, num_states=5, data_width=3),
    ]
    pipeline.designs = [pipeline.preprocess_module(m, suite="test") for m in modules]
    return pipeline


@pytest.fixture(scope="module")
def mm_index(mm_pipeline, tmp_path_factory):
    """A multimodal index + encoder built from the pipeline corpus."""
    directory = tmp_path_factory.mktemp("crossmodal") / "index"
    index, encoder = mm_pipeline.build_multimodal_index(directory)
    return directory, index, encoder


# ----------------------------------------------------------------------
# (key, kind) row identity in the index
# ----------------------------------------------------------------------
class TestKeyKindIdentity:
    def test_same_key_under_different_kinds_holds_separate_rows(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=3)
        index.add(["k"], np.array([[1.0, 0.0, 0.0]]), kinds="cone")
        index.add(["k"], np.array([[0.0, 1.0, 0.0]]), kinds="rtl")
        assert len(index) == 2
        np.testing.assert_allclose(index.get("k", kind="cone"), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(index.get("k", kind="rtl"), [0.0, 1.0, 0.0])
        # Re-adding within a kind still supersedes that kind's row only.
        index.add(["k"], np.array([[0.5, 0.5, 0.0]]), kinds="cone")
        assert len(index) == 2
        np.testing.assert_allclose(index.get("k", kind="cone"), [0.5, 0.5, 0.0])
        np.testing.assert_allclose(index.get("k", kind="rtl"), [0.0, 1.0, 0.0])

    def test_remove_with_kind_keeps_other_modalities(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=2)
        index.add(["k", "k", "other"], np.eye(3, 2), kinds=["cone", "rtl", "cone"])
        assert index.remove(["k"], kind="rtl") == 1
        assert index.get("k", kind="rtl") is None
        assert index.get("k", kind="cone") is not None
        assert "k" in index
        # Kind-less remove kills the remaining kinds.
        assert index.remove(["k"]) == 1
        assert "k" not in index

    def test_compact_preserves_per_kind_rows(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=2, shard_size=2)
        index.add(["k", "k"], np.array([[1.0, 0.0], [0.0, 1.0]]), kinds=["cone", "rtl"])
        index.remove(["k"], kind="rtl")
        dropped = index.compact()
        assert dropped["rows_after"] == 1
        np.testing.assert_allclose(index.get("k", kind="cone"), [1.0, 0.0])
        assert index.get("k", kind="rtl") is None

    def test_search_masks_superseded_rows_within_kind_only(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=2)
        index.add(["k"], np.array([[1.0, 0.0]]), kinds="cone")
        index.add(["k"], np.array([[1.0, 0.0]]), kinds="rtl")
        hits = exact_topk(index, np.array([[1.0, 0.0]]), k=5)[0]
        assert [(h.key, h.kind) for h in hits] == [("k", "cone"), ("k", "rtl")]

    def test_legacy_v1_manifest_tombstones_cover_every_kind(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=2)
        index.add(["k", "live"], np.eye(2), kinds=["cone", "cone"])
        index.save()
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest["tombstones"] = ["k"]  # legacy key-only tombstone
        manifest_path.write_text(json.dumps(manifest))
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert "k" not in reopened
        assert "live" in reopened
        # Re-adding under one kind revives that kind only.
        reopened.add(["k"], np.array([[0.0, 1.0]]), kinds="rtl")
        assert reopened.get("k", kind="rtl") is not None
        assert reopened.get("k", kind="cone") is None


# ----------------------------------------------------------------------
# Projection heads
# ----------------------------------------------------------------------
class TestModalityProjection:
    def test_fit_interpolates_aligned_pairs(self, fresh_rng):
        embeddings = fresh_rng.normal(size=(20, 6))
        targets = fresh_rng.normal(size=(20, 9))
        projection = ModalityProjection.fit("rtl", embeddings, targets, l2=1e-9)
        np.testing.assert_allclose(projection.project(embeddings), targets, atol=1e-5)

    def test_payload_round_trip(self, fresh_rng):
        embeddings = fresh_rng.normal(size=(8, 4))
        targets = fresh_rng.normal(size=(8, 5))
        projection = ModalityProjection.fit("layout", embeddings, targets)
        rebuilt = ModalityProjection.from_payload(projection.to_payload())
        np.testing.assert_array_equal(
            rebuilt.project(embeddings), projection.project(embeddings)
        )
        assert rebuilt.modality == "layout"
        assert rebuilt.gamma == projection.gamma

    def test_shape_errors(self, fresh_rng):
        with pytest.raises(ValueError):
            ModalityProjection.fit("rtl", np.zeros((3, 4)), np.zeros((2, 5)))
        projection = ModalityProjection.fit(
            "rtl", fresh_rng.normal(size=(4, 3)), fresh_rng.normal(size=(4, 2))
        )
        with pytest.raises(ValueError):
            projection.project(np.zeros((1, 7)))


# ----------------------------------------------------------------------
# Multimodal index build + retrieval
# ----------------------------------------------------------------------
class TestMultimodalBuild:
    def test_every_modality_indexed_under_shared_keys(self, mm_pipeline, mm_index):
        _, index, _ = mm_index
        kinds = index.stats()["kinds"]
        items = mm_pipeline.multimodal_items()
        assert kinds[CIRCUIT_KIND] == len(mm_pipeline.designs)
        assert kinds[CONE_KIND] == len(items)
        assert kinds[RTL_KIND] == sum(1 for it in items if it.rtl_text is not None)
        assert kinds[LAYOUT_KIND] == sum(1 for it in items if it.layout is not None)
        item = items[0]
        for kind in (CONE_KIND, RTL_KIND, LAYOUT_KIND):
            assert index.get(item.key, kind=kind) is not None

    def test_aligned_pair_is_retrieved_across_modalities(self, mm_pipeline, mm_index):
        _, index, encoder = mm_index
        items = [it for it in mm_pipeline.multimodal_items() if it.rtl_text is not None]
        queries = encoder.encode_queries(RTL_KIND, [it.rtl_text for it in items])
        hits = exact_topk(index, queries, k=10, kind=CONE_KIND)
        # Aligned-or-tied: duplicates share byte-identical vectors, so accept
        # any hit whose stored cone vector equals the aligned cone's.
        recalled = 0
        for item, row_hits in zip(items, hits):
            aligned = np.asarray(index.get(item.key, kind=CONE_KIND), dtype=np.float32)
            for hit in row_hits:
                stored = index.get(hit.key, kind=CONE_KIND)
                if stored is None:
                    continue
                got = np.asarray(stored, dtype=np.float32)
                if got.shape == aligned.shape and (got == aligned).all():
                    recalled += 1
                    break
        assert recalled / len(items) >= 0.8

    def test_cached_stage_reuses_rows(self, mm_pipeline, tmp_path):
        pipeline = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=tmp_path / "cache")
        pipeline.designs = mm_pipeline.designs
        first, _ = pipeline.build_multimodal_index(tmp_path / "idx1")
        assert not pipeline.summary.stage_timings[-1].cached
        second, _ = pipeline.build_multimodal_index(tmp_path / "idx2")
        assert pipeline.summary.stage_timings[-1].cached
        key = mm_pipeline.multimodal_items()[0].key
        np.testing.assert_array_equal(
            first.get(key, kind=RTL_KIND), second.get(key, kind=RTL_KIND)
        )

    def test_index_fingerprints_include_modality_encoders(self, mm_pipeline, mm_index):
        _, index, encoder = mm_index
        assert index.fingerprints["rtl_encoder"] == encoder.fingerprints()["rtl_encoder"]
        assert index.fingerprints["layout_encoder"] == encoder.fingerprints()["layout_encoder"]
        assert index.fingerprints["model"] == mm_pipeline.model.fingerprint()


# ----------------------------------------------------------------------
# Sidecar persistence and fingerprint discipline
# ----------------------------------------------------------------------
class TestSidecar:
    def test_round_trip_preserves_projections_and_encoders(self, mm_pipeline, mm_index):
        directory, _, encoder = mm_index
        reloaded = CrossModalEncoder.load(directory, mm_pipeline.model)
        assert sorted(reloaded.projections) == sorted(encoder.projections)
        items = [it for it in mm_pipeline.multimodal_items() if it.rtl_text][:3]
        texts = [it.rtl_text for it in items]
        np.testing.assert_allclose(
            reloaded.encode_queries(RTL_KIND, texts),
            encoder.encode_queries(RTL_KIND, texts),
            atol=1e-9,
        )
        layouts = [it.layout for it in mm_pipeline.multimodal_items()[:2]]
        np.testing.assert_allclose(
            reloaded.encode_queries(LAYOUT_KIND, layouts),
            encoder.encode_queries(LAYOUT_KIND, layouts),
            atol=1e-9,
        )

    def test_missing_sidecar_raises(self, small_model, tmp_path):
        NetTAGService.create_index(small_model, tmp_path / "plain").save()
        assert not CrossModalEncoder.available(tmp_path / "plain")
        with pytest.raises(FileNotFoundError):
            CrossModalEncoder.load(tmp_path / "plain", small_model)

    def test_foreign_model_warns_on_load(self, mm_index, fast_config):
        from repro.core import NetTAG

        directory, _, _ = mm_index
        other = NetTAG(fast_config, rng=np.random.default_rng(12345))
        with pytest.warns(UserWarning, match="written by model"):
            CrossModalEncoder.load(directory, other)

    def test_modality_encoder_fingerprint_mismatch_warns(self, mm_pipeline, mm_index):
        from repro.encoders import RTLEncoder

        _, _, encoder = mm_index
        tampered = CrossModalEncoder(
            mm_pipeline.model,
            rtl_encoder=RTLEncoder(rng=np.random.default_rng(999)),
            layout_encoder=encoder.layout_encoder,
            projections=dict(encoder.projections),
        )
        with pytest.warns(UserWarning, match="rtl projection was fitted against"):
            tampered.check_projection_fingerprints()

    def test_matching_fingerprints_do_not_warn(self, mm_index):
        import warnings

        _, _, encoder = mm_index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encoder.check_projection_fingerprints()


# ----------------------------------------------------------------------
# Kind-pair service API and edge cases
# ----------------------------------------------------------------------
class TestServiceQueries:
    @pytest.fixture()
    def service(self, mm_pipeline, mm_index):
        directory, _, _ = mm_index
        svc = mm_pipeline.serve(index=directory)
        yield svc
        svc.close()

    def test_rtl_query_returns_ranked_cones(self, mm_pipeline, service):
        item = next(it for it in mm_pipeline.multimodal_items() if it.rtl_text)
        hits = service.query(item.rtl_text, RTL_KIND, to_kind=CONE_KIND, k=4)
        assert len(hits) == 4
        assert all(hit.kind == CONE_KIND for hit in hits)
        assert hits[0].score >= hits[-1].score

    def test_layout_query_targets_rtl_namespace(self, mm_pipeline, service):
        item = next(it for it in mm_pipeline.multimodal_items() if it.layout is not None)
        hits = service.query(item.layout, LAYOUT_KIND, to_kind=RTL_KIND, k=3)
        assert len(hits) == 3
        assert all(hit.kind == RTL_KIND for hit in hits)

    def test_netlist_side_kinds_work_without_crossmodal(self, mm_pipeline, mm_index):
        directory, _, _ = mm_index
        service = mm_pipeline.serve(index=directory, multimodal=False)
        try:
            assert service.crossmodal is None
            item = mm_pipeline.multimodal_items()[0]
            hits = service.query(item.cone, CONE_KIND, to_kind=CONE_KIND, k=2)
            assert len(hits) == 2
            with pytest.raises(RuntimeError, match="cross-modal encoder"):
                service.query("always @(posedge clk)", RTL_KIND)
        finally:
            service.close()

    def test_concurrent_mixed_modality_queries(self, mm_pipeline, service):
        items = [it for it in mm_pipeline.multimodal_items() if it.rtl_text][:6]
        futures = []
        for item in items:
            futures.append(service.submit_query(item.rtl_text, RTL_KIND, k=3))
            futures.append(service.submit_query(item.cone, CONE_KIND, k=3))
        results = [future.result(timeout=30) for future in futures]
        assert all(len(hits) == 3 for hits in results)

    def test_empty_target_kind_returns_no_hits(self, mm_pipeline, tmp_path):
        # A cone-only index: rtl/layout namespaces exist as *query* sides but
        # hold no rows, so exact retrieval returns an empty ranking.
        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.designs = mm_pipeline.designs
        index, encoder = pipeline.build_multimodal_index(
            tmp_path / "partial", modalities=(CONE_KIND, RTL_KIND)
        )
        service = NetTAGService(pipeline.model, index=index, crossmodal=encoder)
        try:
            item = pipeline.multimodal_items()[0]
            assert service.query(item.cone, CONE_KIND, to_kind=LAYOUT_KIND, k=3) == []
            # The approximate path cannot fit a coarse quantiser over an
            # empty namespace and says so instead of guessing.
            with pytest.raises(ValueError, match="empty"):
                service.query(
                    item.cone, CONE_KIND, to_kind=LAYOUT_KIND, k=3, algorithm="ivf"
                )
        finally:
            service.close()

    def test_ivf_refit_after_one_modalitys_rows_are_removed(self, mm_pipeline, tmp_path):
        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.designs = mm_pipeline.designs
        index, encoder = pipeline.build_multimodal_index(tmp_path / "refit")
        service = NetTAGService(pipeline.model, index=index, crossmodal=encoder)
        try:
            items = [it for it in pipeline.multimodal_items() if it.rtl_text]
            searcher = service.fit_searcher(num_centroids=4, nprobe=4, kind=RTL_KIND)
            assert service.read_path.cached("ivf", RTL_KIND) is searcher
            removed_keys = [it.key for it in items[:2]]
            assert index.remove(removed_keys, kind=RTL_KIND) == 2
            # The content fingerprint moved: the fitted searcher is stale and
            # the service refits before answering, so removed rtl rows can
            # never surface (their cone/layout partners stay live).
            hits = service.query(
                items[2].rtl_text, RTL_KIND, to_kind=RTL_KIND, k=len(items),
                algorithm="ivf",
            )
            assert removed_keys[0] not in {hit.key for hit in hits}
            assert index.get(removed_keys[0], kind=CONE_KIND) is not None
            refitted = service.read_path.cached("ivf", RTL_KIND)
            assert refitted is not searcher
            assert (refitted.num_centroids, refitted.nprobe) == (4, 4)
        finally:
            service.close()

    @pytest.mark.parametrize("to_kind", [CONE_KIND, CIRCUIT_KIND, RTL_KIND, LAYOUT_KIND])
    @pytest.mark.parametrize("from_kind", ["vector", CONE_KIND, CIRCUIT_KIND, RTL_KIND, LAYOUT_KIND])
    def test_query_matches_exact_topk_on_the_pinned_snapshot(
        self, mm_pipeline, service, from_kind, to_kind
    ):
        item = next(
            it for it in mm_pipeline.multimodal_items() if it.rtl_text and it.layout is not None
        )
        raw = {
            CONE_KIND: item.cone,
            CIRCUIT_KIND: mm_pipeline.designs[0].netlist,
            RTL_KIND: item.rtl_text,
            LAYOUT_KIND: item.layout,
        }
        if from_kind == "vector":
            query_item = service.crossmodal.encode_queries(RTL_KIND, [item.rtl_text])[0]
            vector = query_item
        else:
            query_item = raw[from_kind]
            vector = service.crossmodal.encode_queries(from_kind, [query_item])[0]
        hits = service.query(query_item, from_kind, to_kind=to_kind, k=5)
        with service.read_path.snapshots.pin() as snapshot:
            expected = exact_topk(snapshot, vector[None, :], k=5, kind=to_kind)[0]
        assert hits, "every kind of the multimodal index holds rows"
        assert [(h.key, h.kind) for h in hits] == [(h.key, h.kind) for h in expected]
        np.testing.assert_allclose(
            [h.score for h in hits], [h.score for h in expected], rtol=0, atol=1e-12
        )

    def test_stats_report_crossmodal_state(self, service):
        report = service.stats()
        assert sorted(report["crossmodal"]["modalities"]) == [LAYOUT_KIND, RTL_KIND]
        assert "rtl_encoder" in report["crossmodal"]["fingerprints"]


class TestAddMultimodal:
    def test_ingest_refits_and_persists_the_sidecar(self, mm_pipeline, tmp_path):
        """add_multimodal rewrites the on-disk heads it projected rows with."""
        from repro.serve import NetTAGService

        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.designs = mm_pipeline.designs[:1]
        index, encoder = pipeline.build_multimodal_index(tmp_path / "grow")
        stale = CrossModalEncoder.load(tmp_path / "grow", pipeline.model)
        with NetTAGService(pipeline.model, index=index, crossmodal=encoder) as service:
            extra = mm_pipeline.designs[1]
            added = service.add_multimodal(
                [d.netlist for d in mm_pipeline.designs],
                mm_pipeline.multimodal_items(mm_pipeline.designs),
            )
            assert added > 0
        reloaded = CrossModalEncoder.load(tmp_path / "grow", pipeline.model)
        # The sidecar now holds the refitted (larger-anchor) heads, not the
        # ones from the initial single-design build.
        assert (
            reloaded.projection(RTL_KIND).num_anchors
            == encoder.projection(RTL_KIND).num_anchors
            > stale.projection(RTL_KIND).num_anchors
        )
        assert extra.netlist.name in index

    def test_invalid_modal_submission_fails_on_the_caller_thread(self, mm_pipeline, mm_index):
        directory, _, _ = mm_index
        service = mm_pipeline.serve(index=directory)
        try:
            with pytest.raises(ValueError, match="unknown query modality"):
                service.submit_query("x", "hologram")
        finally:
            service.close()

    def test_unsupported_source_modality_fails_at_submit(self, mm_pipeline, tmp_path):
        """A layout-only sidecar rejects rtl queries on the caller thread."""
        from repro.serve import NetTAGService

        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.designs = mm_pipeline.designs
        index, encoder = pipeline.build_multimodal_index(
            tmp_path / "no-rtl", modalities=(CONE_KIND, LAYOUT_KIND)
        )
        assert not encoder.supports(RTL_KIND) and encoder.supports(LAYOUT_KIND)
        with NetTAGService(pipeline.model, index=index, crossmodal=encoder) as service:
            with pytest.raises(RuntimeError, match="without that modality"):
                service.query("assign x = a;", RTL_KIND, k=2)
            # Co-flushed legitimate queries are unaffected.
            item = pipeline.multimodal_items()[0]
            assert len(service.query(item.layout, LAYOUT_KIND, to_kind=CONE_KIND, k=2)) == 2

    def test_incremental_ingest_without_existing_keys_is_rejected(self, mm_pipeline, tmp_path):
        """Refitting heads while old projected rows stay indexed is refused."""
        from repro.serve import NetTAGService

        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.designs = mm_pipeline.designs
        index, encoder = pipeline.build_multimodal_index(tmp_path / "full")
        with NetTAGService(pipeline.model, index=index, crossmodal=encoder) as service:
            only_second = [mm_pipeline.designs[1]]
            with pytest.raises(ValueError, match="pass the full corpus"):
                service.add_multimodal(
                    [d.netlist for d in only_second],
                    mm_pipeline.multimodal_items(only_second),
                )

    def test_unknown_target_kind_is_rejected_at_submit(self, mm_pipeline, mm_index):
        directory, _, _ = mm_index
        service = mm_pipeline.serve(index=directory)
        try:
            item = mm_pipeline.multimodal_items()[0]
            with pytest.raises(ValueError, match="unknown target kind"):
                service.query(item.cone, CONE_KIND, to_kind="layouts")
        finally:
            service.close()


# ----------------------------------------------------------------------
# Aligned-pair retrieval and modality-batched serving on a 220-item corpus
# ----------------------------------------------------------------------
MIN_ITEMS = 220
NUM_QUERIES = 48
MAX_BATCH_SIZE = 16
K = 10

#: The kind pairs the recall sweep measures (query kind -> target kind).
MODALITY_PAIRS: Tuple[Tuple[str, str], ...] = (
    (RTL_KIND, CONE_KIND),
    (CONE_KIND, RTL_KIND),
    (LAYOUT_KIND, CONE_KIND),
    (CONE_KIND, LAYOUT_KIND),
    (RTL_KIND, LAYOUT_KIND),
    (LAYOUT_KIND, RTL_KIND),
)


def build_crossmodal_pipeline(min_items: int = MIN_ITEMS, seed: int = 7) -> NetTAGPipeline:
    """A preprocessed pipeline whose corpus holds ≥ ``min_items`` aligned cones.

    Controller designs with cycling state counts and datapath widths,
    preprocessed with alignment data so every cone carries its RTL cone text
    and cone layout graph.
    """
    pipeline = NetTAGPipeline(NetTAGConfig.fast(seed=seed))
    designs = []
    i = 0
    while sum(len(d.cones) for d in designs) < min_items:
        module = make_controller(
            f"corpus_{i}", seed=100 + i, num_states=3 + (i % 6), data_width=3 + (i % 7)
        )
        designs.append(pipeline.preprocess_module(module, suite="crossmodal"))
        i += 1
    pipeline.designs = designs
    return pipeline


def modality_classes(
    items: Sequence[MultimodalCorpusItem], vectors_per_modality: Dict[str, np.ndarray]
) -> Dict[str, Dict[str, frozenset]]:
    """Per-modality exact-duplicate classes: ``modality -> key -> class``.

    The generators emit structural duplicates (the same pipeline-register
    cone recurs across designs and bit positions) and the encoders are
    name-invariant, so duplicates get byte-identical index vectors (at the
    index's float32 storage precision): cosine ties no ranking can order.
    Near-misses stay distinct.
    """
    classes: Dict[str, Dict[str, frozenset]] = {}
    for modality, matrix in vectors_per_modality.items():
        by_content: Dict[bytes, List[str]] = {}
        for item, row in zip(items, np.asarray(matrix, dtype=np.float32)):
            by_content.setdefault(row.tobytes(), []).append(item.key)
        classes[modality] = {
            key: frozenset(keys) for keys in by_content.values() for key in keys
        }
    return classes


def duplicate_aware_recall(hits_per_query, items, classes, from_kind, to_kind) -> float:
    """Share of queries whose top-k holds the aligned partner or a duplicate.

    A retrieved entry counts when its key is the query item's, when it is an
    exact duplicate of the aligned target (same ``to_kind`` content), or when
    the query is an exact duplicate of another item's query (same
    ``from_kind`` content: either item's aligned target is a correct answer).
    """
    found = 0
    for item, hits in zip(items, hits_per_query):
        acceptable = classes[from_kind][item.key] | classes[to_kind][item.key]
        found += bool({hit.key for hit in hits} & acceptable)
    return found / max(len(items), 1)


class TestAlignedCorpus:
    @pytest.fixture(scope="class")
    def aligned(self, tmp_path_factory):
        pipeline = build_crossmodal_pipeline()
        items = [
            item
            for item in pipeline.multimodal_items()
            if item.rtl_text is not None and item.layout is not None
        ]
        assert len(items) >= MIN_ITEMS
        pipeline.model.clear_caches()
        pipeline.rtl_encoder.clear_cache()
        directory = tmp_path_factory.mktemp("aligned") / "index"
        index, encoder = pipeline.build_multimodal_index(directory)
        return pipeline, items, index, encoder

    def test_aligned_pair_recall_at_10(self, aligned):
        _, items, index, encoder = aligned
        queries = {
            RTL_KIND: encoder.projection(RTL_KIND).project(
                encoder.encode_rtl([item.rtl_text for item in items])
            ),
            LAYOUT_KIND: encoder.projection(LAYOUT_KIND).project(
                encoder.encode_layouts([item.layout for item in items])
            ),
            CONE_KIND: np.stack([index.get(item.key, kind=CONE_KIND) for item in items]),
        }
        classes = modality_classes(items, queries)
        recall = {}
        for from_kind, to_kind in MODALITY_PAIRS:
            hits = exact_topk(index, queries[from_kind], k=K, kind=to_kind)
            recall[(from_kind, to_kind)] = duplicate_aware_recall(
                hits, items, classes, from_kind, to_kind
            )
        for pair, value in recall.items():
            assert value >= 0.5, pair
        assert np.mean(list(recall.values())) >= 0.8, recall

    @pytest.fixture(scope="class")
    def served(self, aligned):
        """A mixed rtl/layout/cone query slice through a sequential server and
        a held burst, both starting from empty embedding caches."""
        pipeline, items, index, encoder = aligned
        model = pipeline.model
        stride = max(1, len(items) // NUM_QUERIES)
        # Cone-weighted mix: netlist-side similarity stays the dominant workload.
        cycle = (CONE_KIND, RTL_KIND, CONE_KIND, LAYOUT_KIND)
        requests = []
        for offset, position in enumerate(range(0, stride * NUM_QUERIES, stride)):
            item, kind = items[position], cycle[offset % len(cycle)]
            payload = {RTL_KIND: item.rtl_text, CONE_KIND: item.cone, LAYOUT_KIND: item.layout}
            requests.append((payload[kind], kind))

        # A stateless sequential server: cone requests encode through the
        # seed's un-packed path, RTL requests re-encode from an empty text
        # cache, layout requests run one un-packed forward each.
        model.clear_caches()
        sequential = []
        for payload, kind in requests:
            if kind == CONE_KIND:
                tag = netlist_to_tag(payload.netlist, k=model.config.expression_hops)
                vector = model.pad_to_index_dim(
                    seed_sequential_encode(model, [payload], [tag])[0]
                )[None, :]
            elif kind == RTL_KIND:
                encoder.rtl_encoder.clear_cache()
                vector = encoder.projection(RTL_KIND).project(
                    encoder.rtl_encoder.encode_texts([payload])
                )
            else:
                vector = encoder.projection(LAYOUT_KIND).project(
                    encoder.layout_encoder.encode(payload)[None, :]
                )
            sequential.append(exact_topk(index, vector, k=K, kind=CONE_KIND)[0])

        model.clear_caches()
        encoder.rtl_encoder.clear_cache()
        with NetTAGService(
            model, index=index, crossmodal=encoder,
            max_batch_size=MAX_BATCH_SIZE, max_latency_ms=2.0,
        ) as service:
            burst, flushes = held_burst(
                service,
                requests,
                {
                    CONE_KIND: (model, "encode_batch"),
                    RTL_KIND: (encoder.rtl_encoder, "encode_texts"),
                    LAYOUT_KIND: (encoder.layout_encoder, "encode_batch"),
                },
                k=K,
            )
        filled = (model.expr_llm.cache_stats()["size"], len(encoder.rtl_encoder._cache))
        # Cached embeddings keep bits that depend on the batch a text was
        # encoded in, so the run ends with empty caches: a later run on this
        # pipeline then builds the same rows.
        model.clear_caches()
        encoder.rtl_encoder.clear_cache()
        cleared = (model.expr_llm.cache_stats()["size"], len(encoder.rtl_encoder._cache))
        return requests, sequential, burst, flushes, filled, cleared

    def test_mixed_burst_flushes_and_encoder_passes(self, served):
        requests, _, _, flushes, _, _ = served
        assert {kind for _, kind in requests} == {CONE_KIND, RTL_KIND, LAYOUT_KIND}
        assert len(flushes) <= 1 + math.ceil((len(requests) - 1) / MAX_BATCH_SIZE)
        for kinds, passes in flushes:
            assert passes == Counter(dict.fromkeys(kinds, 1))

    def test_mixed_burst_scores_match_the_sequential_server(self, served):
        # Byte-identical duplicate rows tie to within float rounding, so key
        # order is ill-defined at ties: compare per-rank scores instead.
        requests, sequential, burst, _, _, _ = served
        assert len(burst) == len(requests)
        for seq_row, burst_row in zip(sequential, burst):
            assert len(burst_row) == K
            for s, b in zip(seq_row, burst_row):
                assert abs(s.score - b.score) < 1e-6

    def test_run_leaves_no_cached_embeddings(self, served):
        _, _, _, _, filled, cleared = served
        assert min(filled) > 0
        assert cleared == (0, 0)
