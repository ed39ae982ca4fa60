"""Tests for the shared read path (``repro.serve.read_path``).

Covers what the service and the replicas now share: the content
fingerprint the searcher cache keys on (including an in-place rebuild with
an identical shard layout) and the index directory it pairs with, the
HNSW sidecar ladder as seen from the service, searcher fits kept out of
the scheduler flush (also when a write lands before it), per-group
failure isolation inside one flush, and the service backend applying to
every encode a query triggers.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np
import pytest

from repro.netlist import extract_register_cones
from repro.nn import get_backend, use_backend
from repro.rtl import make_controller
from repro.serve import (
    CIRCUIT_KIND,
    CONE_KIND,
    EmbeddingIndex,
    HNSWSearcher,
    NetTAGService,
    ReadReplica,
    exact_topk,
    hnsw_sidecar_path,
)
from repro.synth import synthesize

DIM = 8


@pytest.fixture(scope="module")
def netlist():
    return synthesize(make_controller("rp", seed=31, num_states=4, data_width=4)).netlist


@pytest.fixture(scope="module")
def cones(netlist):
    return extract_register_cones(netlist)


def _rows(seed: int, n: int = 32) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, DIM))


class TestContentFingerprint:
    def test_rebuild_in_place_changes_the_fingerprint(self, tmp_path):
        directory = tmp_path / "ix"
        first = EmbeddingIndex.create(directory, dim=DIM)
        first.add([f"k{i}" for i in range(32)], _rows(0), kinds="cone")
        first.save()
        before = (first.generation, first.content_fingerprint())

        rebuilt = EmbeddingIndex.create(directory, dim=DIM, overwrite=True)
        rebuilt.add([f"k{i}" for i in range(32)], _rows(1), kinds="cone")
        rebuilt.save()
        # Same layout and generation, different content: only the id differs.
        assert rebuilt.generation == before[0]
        assert rebuilt.content_fingerprint() != before[1]
        reopened = EmbeddingIndex.open(directory)
        assert reopened.content_fingerprint() == rebuilt.content_fingerprint()
        reopened.add(["extra"], _rows(2, 1), kinds="cone")
        reopened.save()
        assert EmbeddingIndex.open(directory)._index_id == rebuilt._index_id

    def test_replica_rejects_a_sidecar_from_before_a_rebuild(self, tmp_path):
        directory = tmp_path / "ix"
        old = EmbeddingIndex.create(directory, dim=DIM)
        old.add([f"k{i}" for i in range(32)], _rows(0), kinds="cone")
        old.save()
        HNSWSearcher(M=8, seed=0).fit(old).save(hnsw_sidecar_path(directory))

        fresh = _rows(1)
        rebuilt = EmbeddingIndex.create(directory, dim=DIM, overwrite=True)
        rebuilt.add([f"k{i}" for i in range(32)], fresh, kinds="cone")
        rebuilt.save()

        with ReadReplica(directory, watch=False) as replica:
            hits = replica.query(fresh[3][None, :], k=1, algorithm="hnsw")[0]
            exact = replica.query(fresh[3][None, :], k=1)[0]
            stats = replica.stats()
        assert stats["hnsw_loaded"] == 0
        assert exact[0].key == "k3"
        assert hits[0].key == "k3"
        assert hits[0].score == pytest.approx(1.0)

    def test_manifest_without_an_id_fingerprints_as_before(self, tmp_path):
        directory = tmp_path / "ix"
        index = EmbeddingIndex.create(directory, dim=DIM, shard_size=16)
        index.add([f"k{i}" for i in range(32)], _rows(0), kinds="cone")
        index.remove(["k5"], kind="cone")
        index.save()
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["index_id"]
        manifest_path.write_text(json.dumps(manifest))

        legacy = EmbeddingIndex.open(directory)
        expected = hashlib.sha256()
        expected.update(f"dim={DIM}".encode())
        for entry in manifest["shards"]:
            expected.update(f"|s:{entry['name']}:{entry['count']}".encode())
        expected.update("|t:k5\x00cone".encode())
        assert legacy.content_fingerprint() == expected.hexdigest()


class TestServiceReadPath:
    @pytest.fixture()
    def service(self, small_model, netlist, tmp_path):
        index = NetTAGService.create_index(small_model, tmp_path / "svc")
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as svc:
            svc.add_netlists([netlist])
            yield svc

    def test_persisted_sidecar_is_served_without_refitting(
        self, small_model, service, cones
    ):
        fitted = service.fit_searcher(kind=CONE_KIND, M=8, persist=True)
        query = small_model.pad_to_index_dim(small_model.encode_batch([cones[0]])[0])
        expected = fitted.search(query[None, :], k=3)[0]
        directory = service.index.directory
        service.close()

        index = NetTAGService.open_index(small_model, directory)
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as fresh:
            hits = fresh.query(cones[0], CONE_KIND, k=3, algorithm="hnsw")
            counters = fresh.stats()["read_path"]
        assert counters["hnsw_loaded"] == 1
        assert counters["hnsw_refits"] == 0
        assert [h.key for h in hits] == [h.key for h in expected]

    def test_swap_between_id_less_indexes_refits_the_searcher(self, small_model, tmp_path):
        # Two indexes whose manifests carry no id, with the same layout and
        # generation but different rows: equal content fingerprints.
        indexes, rows = [], {}
        for name, seed in (("a", 0), ("b", 1)):
            rows[name] = np.random.default_rng(seed).normal(size=(32, small_model.index_dim))
            index = NetTAGService.create_index(small_model, tmp_path / name)
            index.add([f"k{i}" for i in range(32)], rows[name], kinds=CONE_KIND)
            index.save()
            manifest_path = index.directory / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            del manifest["index_id"]
            manifest_path.write_text(json.dumps(manifest))
            indexes.append(NetTAGService.open_index(small_model, index.directory))
        first, second = indexes
        assert first.generation == second.generation
        assert first.content_fingerprint() == second.content_fingerprint()

        with NetTAGService(small_model, index=first, max_latency_ms=1.0) as service:
            service.query(rows["b"][3], "vector", k=1, algorithm="hnsw")
            service.swap_index(second)
            hits = service.query(rows["b"][3], "vector", k=1, algorithm="hnsw")
            counters = service.stats()["read_path"]
        assert counters["hnsw_refits"] == 2
        assert hits[0].key == "k3"
        assert hits[0].score == pytest.approx(1.0)

    def test_an_approximate_fit_never_stalls_exact_queries(
        self, service, cones, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        original = HNSWSearcher.fit

        def parked_fit(searcher, index):
            started.set()
            release.wait(timeout=60)
            return original(searcher, index)

        monkeypatch.setattr(HNSWSearcher, "fit", parked_fit)
        outcome = {}
        approximate = threading.Thread(
            target=lambda: outcome.setdefault(
                "hits", service.query(cones[0], CONE_KIND, k=2, algorithm="hnsw")
            )
        )
        approximate.start()
        try:
            assert started.wait(timeout=60)
            # The first HNSW fit is parked; an exact query still resolves.
            exact = service.query(cones[1], CONE_KIND, k=2, timeout=10)
        finally:
            release.set()
            approximate.join(timeout=60)
        assert exact[0].score == pytest.approx(1.0)
        assert outcome["hits"][0].score == pytest.approx(1.0)

    def test_a_write_before_the_flush_never_refits_in_the_worker(
        self, small_model, netlist, cones, tmp_path, monkeypatch
    ):
        index = NetTAGService.create_index(small_model, tmp_path / "write-race")
        # Two requests fill a batch and the deadline is far off: the HNSW
        # query stays queued while the write lands, then shares one flush
        # with the exact query.
        with NetTAGService(
            small_model, index=index, max_batch_size=2, max_latency_ms=60_000.0
        ) as service:
            service.add_netlists([netlist])
            service.fit_searcher(kind=CONE_KIND)
            batches = service.stats()["scheduler"]["batches"]
            fitted_on_threads = []
            original = HNSWSearcher.fit

            def recording_fit(searcher, snapshot):
                fitted_on_threads.append(threading.current_thread().name)
                return original(searcher, snapshot)

            monkeypatch.setattr(HNSWSearcher, "fit", recording_fit)
            approximate = service.submit_query(cones[0], CONE_KIND, k=5, algorithm="hnsw")
            service.add_cones("late", cones[:1])
            exact = service.submit_query(cones[0], CONE_KIND, k=5)
            exact_keys = {hit.key for hit in exact.result(timeout=60)}
            approximate_keys = {hit.key for hit in approximate.result(timeout=60)}
            stats = service.stats()
        assert fitted_on_threads == []
        assert stats["read_path"]["hnsw_refits"] == 0
        assert stats["scheduler"]["batches"] == batches + 1
        # The exact query reads the index at the flush; the HNSW query reads
        # the graph it was submitted against, fitted before the write.
        late = f"late::{cones[0].register_name}"
        assert late in exact_keys
        assert late not in approximate_keys
        assert f"{netlist.name}::{cones[0].register_name}" in approximate_keys

    def test_a_failing_search_group_fails_only_its_own_requests(
        self, small_model, cones, tmp_path
    ):
        index = NetTAGService.create_index(small_model, tmp_path / "cones-only")
        # A long deadline and a large batch: every submission below shares
        # one flush.
        with NetTAGService(
            small_model, index=index, max_batch_size=64, max_latency_ms=500.0
        ) as service:
            service.add_cones("co", cones)
            batches = service.stats()["scheduler"]["batches"]
            exact = [service.submit_query(cone, CONE_KIND, k=2) for cone in cones]
            failing = service.submit_query(cones[0], CONE_KIND, to_kind=CIRCUIT_KIND,
                                           algorithm="hnsw")
            encode = service.submit_cone(cones[1])
            with pytest.raises(ValueError, match="empty"):
                failing.result(timeout=60)
            for future in exact:
                assert future.result(timeout=60)[0].score == pytest.approx(1.0)
            assert encode.result(timeout=60).shape == (small_model.index_dim,)
            stats = service.stats()["scheduler"]
        assert stats["batches"] == batches + 1
        assert stats["failed"] == 1
        assert stats["submitted"] == stats["completed"] + stats["failed"]

    @pytest.mark.parametrize("algorithm", ["exact", "hnsw"])
    def test_query_encodes_run_on_the_service_backend(
        self, small_model, cones, tmp_path, monkeypatch, algorithm
    ):
        index = NetTAGService.create_index(small_model, tmp_path / "backend")
        seen = []
        original = small_model.encode_batch

        def recording(items):
            seen.append(get_backend().name)
            return original(items)

        with NetTAGService(
            small_model, index=index, max_latency_ms=1.0, backend="fast"
        ) as service:
            service.add_cones("be", cones)
            monkeypatch.setattr(small_model, "encode_batch", recording)
            with use_backend("reference"):
                hits = service.query(cones[0], CONE_KIND, k=2, algorithm=algorithm)
        assert hits
        assert seen == ["fast"]

    def test_ivf_is_not_an_algorithm(self, small_model, service):
        vector = np.zeros(small_model.index_dim)
        vector[0] = 1.0
        with pytest.raises(ValueError, match="'exact', 'hnsw'"):
            service.query(vector, "vector", k=1, algorithm="ivf")
        with service.read_path.snapshots.pin() as snapshot, pytest.raises(ValueError):
            service.read_path.search(snapshot, vector, k=1, algorithm="ivf")
        service.index.save()
        with ReadReplica(service.index.directory, watch=False) as replica:
            with pytest.raises(ValueError, match="'exact', 'hnsw'"):
                replica.query(vector, k=1, algorithm="ivf")

    def test_vector_query_equals_exact_topk(self, small_model, service, cones):
        vector = small_model.pad_to_index_dim(small_model.encode_batch([cones[0]])[0])
        hits = service.query(vector, "vector", k=4)
        with service.read_path.snapshots.pin() as snapshot:
            expected = exact_topk(snapshot, vector[None, :], k=4, kind=CONE_KIND)[0]
        assert [(h.key, h.score) for h in hits] == [(h.key, h.score) for h in expected]
