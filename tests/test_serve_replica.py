"""Multi-process read replicas (``repro.serve.replica``).

Four contract groups:

* **Cross-process correctness** — a :class:`ReadReplica` serves exact top-k
  from an index a *different process* built, without ever taking the write
  path (no new files appear in the index directory).
* **Generation watch** — a writer's ``add``/``save``/``compact`` cycles are
  observed via the fingerprinted manifest token; in-flight queries finish on
  their pinned snapshot, and a hammer run with concurrent writer churn
  produces zero errors and zero stale-mixed responses (the paired-row
  equality probe below).
* **HNSW load-don't-refit** — a persisted sidecar is loaded bit-identically
  and served without a refit; a stale sidecar falls back to ``sync``; a
  corrupt one is rejected and refit from the index.
* **ReplicaPool** — spawn-safe worker processes round-robin queries, track
  the writer's generation, and surface worker-side failures as
  :class:`ReplicaError`.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    EmbeddingIndex,
    HNSWSearcher,
    ReadReplica,
    ReplicaError,
    ReplicaPool,
    exact_topk,
    hnsw_sidecar_path,
)

DIM = 16
RESULT_TIMEOUT = 30.0


def _build_index(directory, n=96, dim=DIM, seed=0, shard_size=32):
    rng = np.random.default_rng(seed)
    index = EmbeddingIndex.create(directory, dim=dim, shard_size=shard_size)
    kinds = ["cone" if i % 2 else "circuit" for i in range(n)]
    index.add([f"row{i:03d}" for i in range(n)], rng.normal(size=(n, dim)), kinds=kinds)
    index.save()
    return index


_BUILDER_SCRIPT = """
import sys
import numpy as np
from repro.serve import EmbeddingIndex

directory, n, dim, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rng = np.random.default_rng(seed)
index = EmbeddingIndex.create(directory, dim=dim, shard_size=32)
kinds = ["cone" if i % 2 else "circuit" for i in range(n)]
index.add([f"row{i:03d}" for i in range(n)], rng.normal(size=(n, dim)), kinds=kinds)
index.save()
print(index.generation, flush=True)
"""


def _build_index_in_subprocess(directory, n=96, dim=DIM, seed=0) -> int:
    env = dict(os.environ)
    root = pathlib.Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = str(root / "src")
    out = subprocess.run(
        [sys.executable, "-c", _BUILDER_SCRIPT, str(directory), str(n), str(dim), str(seed)],
        env=env,
        capture_output=True,
        timeout=120,
        check=True,
    )
    return int(out.stdout.split()[-1])


class TestCrossProcessServing:
    def test_serves_exact_topk_from_index_built_by_another_process(self, tmp_path):
        directory = tmp_path / "ix"
        writer_generation = _build_index_in_subprocess(directory, n=96, seed=3)

        reference = EmbeddingIndex.open(directory)
        rng = np.random.default_rng(99)
        queries = rng.normal(size=(5, DIM))
        expected = exact_topk(reference, queries, k=4)

        with ReadReplica(directory, watch=False) as replica:
            assert replica.generation == writer_generation
            got = replica.query(queries, k=4)
        for exp_row, got_row in zip(expected, got):
            assert [h.key for h in exp_row] == [h.key for h in got_row]
            assert [h.score for h in exp_row] == [h.score for h in got_row]

    def test_replica_is_read_only(self, tmp_path):
        directory = tmp_path / "ix"
        _build_index(directory, n=32)
        before = sorted(p.name for p in directory.iterdir())
        with ReadReplica(directory, watch=False) as replica:
            replica.query(np.zeros((1, DIM)), k=2)
            # The write surface simply does not exist on a replica.
            assert not hasattr(replica, "add")
            assert not hasattr(replica, "save")
            assert not hasattr(replica, "compact")
        assert sorted(p.name for p in directory.iterdir()) == before

    def test_query_after_close_raises(self, tmp_path):
        directory = tmp_path / "ix"
        _build_index(directory, n=16)
        replica = ReadReplica(directory, watch=False)
        replica.close()
        with pytest.raises(ReplicaError):
            replica.query(np.zeros((1, DIM)), k=1)

    def test_missing_directory_raises_replica_error(self, tmp_path):
        with pytest.raises(ReplicaError):
            ReadReplica(tmp_path / "nowhere", watch=False,
                        open_retries=2, retry_delay=0.01)


class TestGenerationWatch:
    def test_check_for_update_tracks_writer_saves(self, tmp_path):
        directory = tmp_path / "ix"
        writer = _build_index(directory, n=48, seed=1)
        with ReadReplica(directory, watch=False) as replica:
            assert replica.check_for_update() is False

            fresh = np.full(DIM, 0.5)
            writer.add(["fresh"], fresh[None, :], kinds="cone")
            writer.save()

            assert replica.check_for_update() is True
            assert replica.generation == writer.generation
            hits = replica.query(fresh[None, :], k=1, kind="cone")
            assert hits[0][0].key == "fresh"
            # Token unchanged -> no redundant reopen.
            assert replica.check_for_update() is False
            assert replica.stats()["reopens"] == 1

    def test_reopen_reads_only_the_newly_sealed_shard(self, tmp_path, monkeypatch):
        from repro.serve.index import _Shard

        directory = tmp_path / "ix"
        writer = _build_index(directory, n=96, seed=4)
        with ReadReplica(directory, watch=False) as replica:
            read: list = []
            load_meta = _Shard._load_meta

            def recording_load_meta(shard):
                if shard._keys is None:
                    read.append(shard.name)
                load_meta(shard)

            monkeypatch.setattr(_Shard, "_load_meta", recording_load_meta)
            rng = np.random.default_rng(8)
            writer.add([f"new{i}" for i in range(8)], rng.normal(size=(8, DIM)), kinds="cone")
            writer.save()
            assert writer.num_shards == 4

            assert replica.check_for_update() is True
            assert read == [writer._shards[-1].name]
            with replica.read_path.snapshots.pin() as snapshot:
                assert len(snapshot.search_metadata()) == 4
            hits = replica.query(writer.get("new3")[None, :], k=1, kind="cone")
            assert hits[0][0].key == "new3"

    def test_later_writer_never_reuses_a_shard_name(self, tmp_path):
        # A replica adopts a loaded shard by name and row count, so a later
        # writer process that named its first shard like a compacted-away
        # one would have the replica keep serving the deleted rows.
        directory = tmp_path / "ix"
        rng = np.random.default_rng(12)
        writer = EmbeddingIndex.create(directory, dim=DIM)
        writer.add(["a", "b"], rng.normal(size=(2, DIM)), kinds="cone")
        writer.save()
        with ReadReplica(directory, watch=False) as replica:
            writer.remove(["a", "b"])
            writer.save()
            writer.compact()
            later = EmbeddingIndex.open(directory)
            fresh = rng.normal(size=(2, DIM))
            later.add(["c", "d"], fresh, kinds="cone")
            later.save()

            assert replica.check_for_update() is True
            hits = replica.query(fresh, k=2)
            assert [sorted(h.key for h in row) for row in hits] == [["c", "d"], ["c", "d"]]
            with replica.read_path.snapshots.pin() as snapshot:
                assert sum(len(live) for _, _, live in snapshot.search_metadata()) == 2

    def test_watcher_thread_reopens_without_explicit_polls(self, tmp_path):
        directory = tmp_path / "ix"
        writer = _build_index(directory, n=48, seed=2)
        with ReadReplica(directory, poll_interval=0.05) as replica:
            writer.add(["late"], np.ones((1, DIM)), kinds="cone")
            writer.save()
            deadline = time.monotonic() + 10.0
            while replica.generation != writer.generation:
                assert time.monotonic() < deadline, "watcher never caught up"
                time.sleep(0.02)
            stats = replica.stats()
            assert stats["watching"] is True
            assert stats["reopens"] >= 1

    def test_hammer_readers_never_see_torn_or_mixed_generations(self, tmp_path):
        """Writer churn (supersede + save + periodic compact) vs reader loops.

        The corpus is orthogonal to the probe axis; the two ``pair::*`` rows
        are rewritten *together* each round with one shared vector, so for
        any single generation their scores against the probe are bit-equal.
        A response mixing segments of two generations would break that
        equality — the classic torn-read symptom.
        """
        directory = tmp_path / "ix"
        rng = np.random.default_rng(7)
        index = EmbeddingIndex.create(directory, dim=DIM, shard_size=16)
        base = rng.normal(size=(40, DIM))
        base[:, 0] = 0.0  # orthogonal to the probe axis
        index.add([f"bg{i}" for i in range(40)], base, kinds="cone")
        pair = np.zeros(DIM)
        pair[0] = 1.0
        index.add(["pair::a", "pair::b"], np.stack([pair, pair]), kinds="cone")
        index.save()

        probe = np.zeros((1, DIM))
        probe[0, 0] = 1.0
        errors: list = []
        stop = threading.Event()

        def _writer() -> None:
            try:
                for round_no in range(12):
                    vec = np.zeros(DIM)
                    vec[0] = 1.0
                    vec[1:] = rng.normal(size=DIM - 1) * 0.05
                    index.add(["pair::a", "pair::b"], np.stack([vec, vec]),
                              kinds="cone")
                    index.save()
                    if round_no % 4 == 3:
                        index.compact()
                        index.save()
                    time.sleep(0.02)
            except Exception as error:  # noqa: BLE001 - surfaced by the test
                errors.append(("writer", repr(error)))
            finally:
                stop.set()

        def _reader(replica: ReadReplica, slot: int) -> None:
            try:
                while not stop.is_set():
                    hits = replica.query(probe, k=4, kind="cone")[0]
                    scores = {hit.key: hit.score for hit in hits}
                    assert "pair::a" in scores and "pair::b" in scores, hits
                    assert scores["pair::a"] == scores["pair::b"], (
                        "stale-mixed response: pair rows from different "
                        f"generations ({scores})"
                    )
            except Exception as error:  # noqa: BLE001 - surfaced by the test
                errors.append((f"reader-{slot}", repr(error)))

        with ReadReplica(directory, poll_interval=0.01) as replica:
            readers = [
                threading.Thread(target=_reader, args=(replica, slot), daemon=True)
                for slot in range(2)
            ]
            writer_thread = threading.Thread(target=_writer, daemon=True)
            for thread in readers:
                thread.start()
            writer_thread.start()
            writer_thread.join(RESULT_TIMEOUT)
            assert not writer_thread.is_alive(), "writer thread hung"
            for thread in readers:
                thread.join(RESULT_TIMEOUT)
                assert not thread.is_alive(), "reader thread hung"
            assert errors == []
            # The watcher must pick up the writer's last manifest on its own
            # (no explicit check_for_update): a reopen under load can take
            # longer than the writer's final sleep, so wait for it, bounded.
            deadline = time.monotonic() + 10.0
            while replica.stats()["generation"] != index.generation:
                assert time.monotonic() < deadline, "watcher missed the last change"
                time.sleep(0.02)
            assert replica.stats()["reopens"] >= 1


class TestHNSWLoadDontRefit:
    def _fitted_sidecar(self, directory, **params):
        index = EmbeddingIndex.open(directory)
        searcher = HNSWSearcher(M=8, ef_construction=48, ef_search=48, seed=0,
                                **params)
        searcher.fit(index)
        searcher.save(hnsw_sidecar_path(directory, searcher.kind))
        return searcher

    def test_sidecar_is_loaded_bit_identically_and_served(self, tmp_path):
        directory = tmp_path / "ix"
        _build_index(directory, n=80, seed=4)
        fitted = self._fitted_sidecar(directory)

        rng = np.random.default_rng(5)
        queries = rng.normal(size=(4, DIM))
        expected = fitted.search(queries, k=3)

        with ReadReplica(directory, watch=False) as replica:
            got = replica.query(queries, k=3, algorithm="hnsw")
            stats = replica.stats()
        assert stats["hnsw_loaded"] == 1
        assert stats["hnsw_refits"] == 0
        assert stats["hnsw_synced"] == 0
        for exp_row, got_row in zip(expected, got):
            assert [h.key for h in exp_row] == [h.key for h in got_row]
        loaded = HNSWSearcher.load(hnsw_sidecar_path(directory))
        assert loaded.structure_digest() == fitted.structure_digest()

    def test_stale_sidecar_syncs_instead_of_refitting(self, tmp_path):
        directory = tmp_path / "ix"
        writer = _build_index(directory, n=80, seed=4)
        self._fitted_sidecar(directory)

        fresh = np.full(DIM, -0.25)
        writer.add(["fresh"], fresh[None, :], kinds="cone")
        writer.save()

        with ReadReplica(directory, watch=False) as replica:
            hits = replica.query(fresh[None, :], k=1, algorithm="hnsw")
            stats = replica.stats()
        assert hits[0][0].key == "fresh"
        assert stats["hnsw_synced"] == 1
        assert stats["hnsw_refits"] == 0

    def test_corrupt_sidecar_is_rejected_and_refit(self, tmp_path):
        directory = tmp_path / "ix"
        _build_index(directory, n=60, seed=4)
        self._fitted_sidecar(directory)
        hnsw_sidecar_path(directory).write_bytes(b"not an npz graph")

        rng = np.random.default_rng(6)
        with ReadReplica(directory, watch=False,
                         hnsw_params={"M": 8, "seed": 0}) as replica:
            hits = replica.query(rng.normal(size=(2, DIM)), k=3, algorithm="hnsw")
            stats = replica.stats()
        assert all(len(row) == 3 for row in hits)
        assert stats["hnsw_sidecar_rejected"] == 1
        assert stats["hnsw_refits"] == 1


class TestReplicaPool:
    def test_round_robin_parity_failure_surface_and_writer_visibility(self, tmp_path):
        directory = tmp_path / "ix"
        writer = _build_index(directory, n=64, seed=8)
        reference = EmbeddingIndex.open(directory)
        rng = np.random.default_rng(9)
        queries = rng.normal(size=(4, DIM))
        expected = exact_topk(reference, queries, k=3)

        with ReplicaPool(directory, num_replicas=2, poll_interval=0.05) as pool:
            # Parity: each worker answers the same batch bit-equal to a
            # direct exact scan (batch-to-batch — BLAS gemm vs gemv order
            # makes single-row scores differ from batched ones in the last
            # ulp, so the comparison must use the same batch shape).
            for slot in range(2):
                rows = pool.query(queries, k=3, replica=slot)
                for exp_row, got_row in zip(expected, rows):
                    assert [h.key for h in got_row] == [h.key for h in exp_row]
                    assert [h.score for h in got_row] == [h.score for h in exp_row]

            # Worker-side failures come back as ReplicaError, not a hang.
            with pytest.raises(ReplicaError, match="ValueError"):
                pool.query(queries[:1], k=3, algorithm="bogus")

            # Writer visibility: both workers converge on the new generation.
            fresh = np.full(DIM, 0.75)
            writer.add(["fresh"], fresh[None, :], kinds="cone")
            writer.save()
            deadline = time.monotonic() + 15.0
            while True:
                generations = [s["generation"] for s in pool.stats()]
                if all(g == writer.generation for g in generations):
                    break
                assert time.monotonic() < deadline, (
                    f"workers stuck at generations {generations}, "
                    f"writer at {writer.generation}"
                )
                time.sleep(0.05)
            hits = pool.query(fresh[None, :], k=1, kind="cone", replica=1)
            assert hits[0][0].key == "fresh"
        # close() is idempotent.
        pool.close()

    def test_unpinned_queries_reach_every_worker(self, tmp_path):
        # Spreading un-pinned queries over the workers is what lets N
        # replicas serve more than one: with no sidecar, each worker fits
        # its own HNSW graph on the first approximate query it answers.
        directory = tmp_path / "ix"
        _build_index(directory, n=64, seed=10)
        queries = np.random.default_rng(11).normal(size=(2, DIM))
        with ReplicaPool(directory, num_replicas=2, watch=False,
                         hnsw_params={"M": 8, "seed": 0}) as pool:
            for _ in range(2):
                pool.query(queries, k=3, algorithm="hnsw")
            assert [s["hnsw_refits"] for s in pool.stats()] == [1, 1]
