"""Tests for the NetTAGService facade and the pipeline index stage."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import NetTAGConfig, NetTAGPipeline
from repro.netlist import extract_register_cones
from repro.rtl import make_controller
from repro.synth import synthesize
from repro.serve import CIRCUIT_KIND, CONE_KIND, NetTAGService, cone_key, exact_topk


@pytest.fixture(scope="module")
def corpus():
    """Two small sequential designs plus their register cones."""
    net_a = synthesize(make_controller("svc_a", seed=11, num_states=4, data_width=4)).netlist
    net_b = synthesize(make_controller("svc_b", seed=12, num_states=5, data_width=3)).netlist
    return [net_a, net_b]


@pytest.fixture(scope="module")
def served(small_model, corpus, tmp_path_factory):
    """A service over an index holding the corpus (module-scoped: encode once)."""
    directory = tmp_path_factory.mktemp("serve") / "index"
    index = NetTAGService.create_index(small_model, directory, shard_size=16)
    service = NetTAGService(small_model, index=index, max_latency_ms=2.0)
    service.add_netlists(corpus)
    yield service
    service.close()


class TestIndexCreation:
    def test_create_index_stamps_model_fingerprints(self, small_model, tmp_path):
        index = NetTAGService.create_index(small_model, tmp_path / "idx")
        assert index.dim == small_model.index_dim
        assert index.fingerprints["model"] == small_model.fingerprint()
        index.save()
        reopened = NetTAGService.open_index(small_model, tmp_path / "idx")
        assert reopened.fingerprints == index.fingerprints

    def test_fingerprint_is_weight_sensitive(self, small_model, fast_config):
        from repro.core import NetTAG

        other = NetTAG(fast_config, rng=np.random.default_rng(1234))
        assert other.fingerprint() != small_model.fingerprint()

    def test_pad_to_index_dim(self, small_model):
        short = np.ones(small_model.graph_embedding_dim)
        padded = small_model.pad_to_index_dim(short)
        assert padded.shape == (small_model.index_dim,)
        np.testing.assert_array_equal(padded[: len(short)], short)
        assert np.all(padded[len(short):] == 0)
        with pytest.raises(ValueError):
            small_model.pad_to_index_dim(np.ones(small_model.index_dim + 1))


class TestIngest:
    def test_add_netlists_indexes_circuits_and_cones(self, served, corpus):
        index = served.index
        kinds = index.stats()["kinds"]
        assert kinds[CIRCUIT_KIND] == len(corpus)
        total_cones = sum(len(extract_register_cones(n)) for n in corpus)
        assert kinds[CONE_KIND] == total_cones
        for netlist in corpus:
            assert netlist.name in index

    def test_indexed_cone_vector_matches_encode_batch(self, served, corpus, small_model):
        cone = extract_register_cones(corpus[0])[0]
        direct = small_model.encode_batch([cone])[0]
        stored = served.index.get(cone_key(corpus[0].name, cone.register_name))
        np.testing.assert_allclose(
            stored, small_model.pad_to_index_dim(direct).astype(np.float32), atol=1e-6
        )


class TestQueries:
    def test_cone_self_query_scores_unit_similarity(self, served, corpus):
        cone = extract_register_cones(corpus[0])[0]
        hits = served.query(cone, CONE_KIND, k=3)
        # The cone's own entry scores ~1.0.  It may tie with a structurally
        # identical cone from the sibling design (the near-duplicate
        # phenomenon the index exists to surface), so top-1 is not guaranteed
        # to be the self key — but the self key must be among the unit-score
        # hits.
        by_key = {hit.key: hit.score for hit in hits}
        self_key = cone_key(corpus[0].name, cone.register_name)
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)
        assert by_key[self_key] == pytest.approx(1.0, abs=1e-5)
        assert all(hit.kind == CONE_KIND for hit in hits)

    def test_exclude_self_drops_own_entry(self, served, corpus):
        cone = extract_register_cones(corpus[0])[0]
        own_key = cone_key(corpus[0].name, cone.register_name)
        hits = served.query(cone, CONE_KIND, k=3, exclude_keys=[own_key])
        assert len(hits) == 3
        assert all(hit.key != own_key for hit in hits)

    def test_netlist_query_retrieves_itself(self, served, corpus):
        hits = served.query(corpus[1], CIRCUIT_KIND, to_kind=CIRCUIT_KIND, k=2)
        assert hits[0].key == corpus[1].name
        assert hits[0].kind == CIRCUIT_KIND
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)

    def test_approximate_query_finds_self(self, served, corpus):
        cone = extract_register_cones(corpus[1])[0]
        served.fit_searcher(num_centroids=4, nprobe=4, kind=CONE_KIND)
        hits = served.query(cone, CONE_KIND, k=3, algorithm="ivf")
        by_key = {hit.key: hit.score for hit in hits}
        assert by_key[cone_key(corpus[1].name, cone.register_name)] == pytest.approx(
            1.0, abs=1e-5
        )

    def test_near_duplicates_detects_identical_cone_structures(self, served):
        # Controllers of the same generator family share identically-wired
        # register cones across designs; those must surface as near-duplicates.
        pairs = served.near_duplicates(threshold=0.999)
        assert pairs, "expected at least one cross-design duplicate cone"
        for a, b, score in pairs:
            assert a < b
            assert score >= 0.999

    def test_approximate_query_does_not_leak_other_kinds(self, served, corpus):
        # A searcher fitted over BOTH namespaces (kind=None) must not be
        # reused for a cone-scoped query — the service refits kind-scoped.
        served.fit_searcher(num_centroids=4, nprobe=4, kind=None)
        cone = extract_register_cones(corpus[0])[0]
        hits = served.query(cone, CONE_KIND, k=8, algorithm="ivf")
        assert hits
        assert all(hit.kind == CONE_KIND for hit in hits)

    def test_near_duplicates_ignores_superseded_rows(self, small_model, tmp_path):
        # near_duplicates only needs the index; craft one where a stale
        # superseded row would create a phantom pair.
        from repro.serve import EmbeddingIndex

        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        other = rng.normal(size=8)
        index = EmbeddingIndex.create(tmp_path / "dup", dim=8)
        index.add(["A", "B"], np.vstack([base, base * 2.0]), kinds=CONE_KIND)  # A ~ B
        index.save()
        index.add(["A"], other[None, :], kinds=CONE_KIND)  # A's live vector moves away
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as service:
            pairs = service.near_duplicates(threshold=0.98)
        assert ("A", "B") not in [(a, b) for a, b, _ in pairs]

    def test_query_without_index_raises(self, small_model):
        with NetTAGService(small_model, max_latency_ms=1.0) as service:
            with pytest.raises(RuntimeError, match="without an index"):
                service.query(np.zeros(small_model.index_dim), "vector", k=1)


class TestConcurrentServing:
    def test_concurrent_encode_parity_with_direct_path(self, served, corpus, small_model):
        cones = extract_register_cones(corpus[0]) + extract_register_cones(corpus[1])
        small_model.clear_caches()
        direct = small_model.encode_batch(cones)
        results = [None] * len(cones)
        errors = []

        def worker(start, stop):
            try:
                futures = [(i, served.submit_cone(cones[i])) for i in range(start, stop)]
                for i, future in futures:
                    results[i] = future.result(timeout=60.0)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        half = len(cones) // 2
        threads = [
            threading.Thread(target=worker, args=(0, half)),
            threading.Thread(target=worker, args=(half, len(cones))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for got, want in zip(results, direct):
            np.testing.assert_allclose(got, want, atol=1e-8)
        assert served.stats()["scheduler"]["batches"] >= 1

    def test_mixed_cone_and_netlist_batches(self, served, corpus):
        cone = extract_register_cones(corpus[0])[0]
        cone_future = served.submit_cone(cone)
        netlist_future = served.submit_netlist(corpus[1])
        vector = cone_future.result(timeout=60.0)
        embedding = netlist_future.result(timeout=60.0)
        assert vector.shape == (served.model.index_dim,)
        assert embedding.name == corpus[1].name

    def test_stats_include_all_components(self, served):
        stats = served.stats()
        assert {"scheduler", "expression_cache", "index"} <= set(stats)

    def test_ingest_while_serving_is_safe(self, small_model, corpus, tmp_path):
        """Caller-thread ingest and worker-thread encodes share one lock."""
        index = NetTAGService.create_index(small_model, tmp_path / "race")
        cones = extract_register_cones(corpus[0])
        errors = []
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as service:

            def ingest():
                try:
                    for _ in range(3):
                        service.add_netlists([corpus[1]])
                except Exception as error:  # pragma: no cover - failure reporting
                    errors.append(error)

            def query():
                try:
                    for cone in cones * 2:
                        service.encode_cone(cone, timeout=60.0)
                except Exception as error:  # pragma: no cover - failure reporting
                    errors.append(error)

            threads = [threading.Thread(target=ingest), threading.Thread(target=query)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert corpus[1].name in index

    def test_user_tuned_searcher_parameters_survive_kind_refit(
        self, small_model, corpus, tmp_path
    ):
        # A brand-new kind (no circuit searcher fitted before) inherits the
        # tuning of the most recently fitted searcher of that algorithm.
        index = NetTAGService.create_index(small_model, tmp_path / "inherit")
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as service:
            service.add_netlists(corpus)
            service.fit_searcher(num_centroids=6, nprobe=5, kind=None)
            assert service.read_path.cached("ivf", CIRCUIT_KIND) is None
            service.query(corpus[0], CIRCUIT_KIND, to_kind=CIRCUIT_KIND, k=2,
                          algorithm="ivf")  # forces a kind fit
            searcher = service.read_path.cached("ivf", CIRCUIT_KIND)
            assert searcher.kind == CIRCUIT_KIND
            assert searcher.num_centroids == 6
            assert searcher.nprobe == 5

    def test_per_kind_searcher_tuning_is_independent(self, small_model, corpus, tmp_path):
        # An explicitly tuned kind keeps its parameters even after another
        # kind is fitted with different ones (no cross-kind clobbering),
        # and across a refit forced by an index mutation.
        index = NetTAGService.create_index(small_model, tmp_path / "per-kind")
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as service:
            service.add_netlists(corpus)
            service.fit_searcher(num_centroids=8, nprobe=3, kind=CONE_KIND)
            service.fit_searcher(num_centroids=2, nprobe=1, kind=CIRCUIT_KIND)
            cone = extract_register_cones(corpus[0])[0]
            service.query(cone, CONE_KIND, k=2, algorithm="ivf")
            fitted = service.read_path.cached("ivf", CONE_KIND)
            assert (fitted.num_centroids, fitted.nprobe) == (8, 3)
            service.add_cones("tuning_probe", [cone])  # generation moves: refit
            service.query(cone, CONE_KIND, k=2, algorithm="ivf")
            refitted = service.read_path.cached("ivf", CONE_KIND)
            assert refitted is not fitted
            assert (refitted.num_centroids, refitted.nprobe) == (8, 3)


class TestPipelineIndexStage:
    def test_build_index_is_cached_and_consistent(self, corpus, tmp_path):
        pipeline = NetTAGPipeline(NetTAGConfig.fast(), cache_dir=tmp_path / "cache")
        index = pipeline.build_index(tmp_path / "idx", netlists=corpus)
        entries = len(index)
        assert entries == len(corpus) + sum(
            len(extract_register_cones(n)) for n in corpus
        )
        # Rebuilding with a warm cache must hit the artifact store.
        pipeline.build_index(tmp_path / "idx", netlists=corpus)
        assert pipeline.artifacts.stats()["hits"] >= 1
        # The persisted index answers queries identically after reopening.
        query = index.get(corpus[0].name)
        reopened = NetTAGService.open_index(pipeline.model, tmp_path / "idx")
        before = exact_topk(index, query, k=4)
        after = exact_topk(reopened, query, k=4)
        assert [h.key for h in before[0]] == [h.key for h in after[0]]

    def test_pipeline_serve_round_trip(self, corpus, tmp_path):
        pipeline = NetTAGPipeline(NetTAGConfig.fast())
        pipeline.build_index(tmp_path / "idx", netlists=corpus)
        with pipeline.serve(index=tmp_path / "idx", max_latency_ms=1.0) as service:
            cone = extract_register_cones(corpus[0])[0]
            hits = service.query(cone, CONE_KIND, k=2)
            assert hits[0].key == cone_key(corpus[0].name, cone.register_name)
