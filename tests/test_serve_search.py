"""Tests for exact and IVF-approximate cosine retrieval (repro.serve.search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import EmbeddingIndex, IVFSearcher, ReadPath, exact_topk, recall_at_k


def brute_force_topk(matrix: np.ndarray, query: np.ndarray, k: int) -> list:
    sims = (matrix / np.linalg.norm(matrix, axis=1, keepdims=True)) @ (
        query / np.linalg.norm(query)
    )
    order = np.argsort(-sims, kind="stable")
    return [int(i) for i in order[:k]]


@pytest.fixture()
def filled_index(tmp_path):
    rng = np.random.default_rng(42)
    vectors = rng.normal(size=(40, 12))
    index = EmbeddingIndex.create(tmp_path / "idx", dim=12, shard_size=7)
    index.add([f"k{i}" for i in range(40)], vectors)
    index.save()
    return index, vectors


class TestExactTopK:
    def test_matches_brute_force_across_shards(self, filled_index):
        index, vectors = filled_index
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(5, 12))
        results = exact_topk(index, queries, k=6)
        for q in range(5):
            want = [f"k{i}" for i in brute_force_topk(vectors, queries[q], 6)]
            assert [hit.key for hit in results[q]] == want

    def test_scores_are_cosines(self, filled_index):
        index, vectors = filled_index
        results = exact_topk(index, vectors[3], k=1)
        assert results[0][0].key == "k3"
        assert results[0][0].score == pytest.approx(1.0, abs=1e-6)

    def test_kind_filter_restricts_namespace(self, tmp_path):
        rng = np.random.default_rng(0)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=6)
        index.add(["c0", "c1"], rng.normal(size=(2, 6)), kinds="circuit")
        index.add(["n0", "n1", "n2"], rng.normal(size=(3, 6)), kinds="cone")
        hits = exact_topk(index, rng.normal(size=6), k=10, kind="cone")[0]
        assert {hit.key for hit in hits} == {"n0", "n1", "n2"}
        assert all(hit.kind == "cone" for hit in hits)

    def test_exclude_keys_and_tombstones_never_surface(self, filled_index):
        index, vectors = filled_index
        index.remove(["k0"])
        read_path = ReadPath(lambda: index)
        with read_path.snapshots.pin() as snapshot:
            hits = read_path.search(snapshot, vectors[0], k=5, exclude_keys=[["k1"]])[0]
        keys = {hit.key for hit in hits}
        assert len(keys) == 5 and "k0" not in keys and "k1" not in keys

    def test_superseded_duplicate_rows_do_not_surface(self, tmp_path):
        rng = np.random.default_rng(1)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        stale = rng.normal(size=4)
        index.add(["dup", "x"], np.vstack([stale, rng.normal(size=4)]))
        index.save()
        fresh = -stale  # exactly opposite direction
        index.add(["dup"], fresh[None, :])
        hits = exact_topk(index, stale, k=3)[0]
        by_key = {hit.key: hit.score for hit in hits}
        # The stale row (similarity 1.0 with itself) must be masked; the live
        # "dup" row points the other way.
        assert by_key["dup"] == pytest.approx(-1.0, abs=1e-6)

    def test_save_load_query_identical_topk(self, filled_index, tmp_path):
        index, vectors = filled_index
        queries = vectors[:4] + 0.01
        before = exact_topk(index, queries, k=8)
        reopened = EmbeddingIndex.open(index.directory)
        after = exact_topk(reopened, queries, k=8)
        for b_hits, a_hits in zip(before, after):
            assert [h.key for h in b_hits] == [h.key for h in a_hits]
            np.testing.assert_allclose(
                [h.score for h in b_hits], [h.score for h in a_hits], rtol=0, atol=0
            )

    def test_invalid_k_and_dim(self, filled_index):
        index, _ = filled_index
        with pytest.raises(ValueError):
            exact_topk(index, np.zeros(12), k=0)
        with pytest.raises(ValueError, match="dimension"):
            exact_topk(index, np.zeros(5), k=1)


class TestIVFSearcher:
    def make_clustered_index(self, tmp_path, clusters=8, per_cluster=25, dim=16):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(clusters, dim)) * 4.0
        vectors = np.concatenate(
            [center + rng.normal(size=(per_cluster, dim)) * 0.3 for center in centers]
        )
        index = EmbeddingIndex.create(tmp_path / "ivf", dim=dim, shard_size=64)
        index.add([f"k{i}" for i in range(len(vectors))], vectors)
        index.save()
        return index, vectors

    def test_recall_on_clustered_corpus(self, tmp_path):
        index, vectors = self.make_clustered_index(tmp_path)
        searcher = IVFSearcher(num_centroids=16, nprobe=6, seed=0).fit(index)
        rng = np.random.default_rng(11)
        queries = vectors[rng.choice(len(vectors), size=20, replace=False)] + 0.05
        exact = exact_topk(index, queries, k=10)
        approx = searcher.search(queries, k=10)
        assert recall_at_k(exact, approx, k=10) >= 0.9

    def test_full_probe_equals_exact(self, tmp_path):
        index, vectors = self.make_clustered_index(tmp_path, clusters=4, per_cluster=10)
        searcher = IVFSearcher(num_centroids=4, nprobe=4, seed=0).fit(index)
        queries = vectors[:5]
        exact = exact_topk(index, queries, k=5)
        approx = searcher.search(queries, k=5)
        assert recall_at_k(exact, approx, k=5) == 1.0

    def test_deterministic_given_seed(self, tmp_path):
        index, vectors = self.make_clustered_index(tmp_path, clusters=4, per_cluster=10)
        a = IVFSearcher(num_centroids=4, nprobe=2, seed=5).fit(index)
        b = IVFSearcher(num_centroids=4, nprobe=2, seed=5).fit(index)
        queries = vectors[:3]
        for hits_a, hits_b in zip(a.search(queries, k=4), b.search(queries, k=4)):
            assert [h.key for h in hits_a] == [h.key for h in hits_b]

    # Freshness belongs to ReadPath: a cached searcher is reused iff the
    # snapshot's (directory, content fingerprint) is the one it was fitted on.
    @staticmethod
    def _refits_after(index, mutate) -> bool:
        read_path = ReadPath(lambda: index, ivf_params={"num_centroids": 2, "seed": 0})
        with read_path.snapshots.pin() as snapshot:
            fitted = read_path.searcher(snapshot, "ivf")
            assert read_path.searcher(snapshot, "ivf") is fitted
        mutate(index)
        read_path.snapshots.refresh()
        with read_path.snapshots.pin() as snapshot:
            return read_path.searcher(snapshot, "ivf") is not fitted

    def test_needs_refit_after_index_growth(self, tmp_path):
        index, _ = self.make_clustered_index(tmp_path, clusters=2, per_cluster=5)
        extra = np.random.default_rng(0).normal(size=(1, 16))
        assert self._refits_after(index, lambda ix: ix.add(["extra"], extra))

    def test_needs_refit_after_count_neutral_mutation(self, tmp_path):
        """Remove one key + add another (len unchanged) must invalidate."""
        index, _ = self.make_clustered_index(tmp_path, clusters=2, per_cluster=5)
        before = len(index)
        fresh = np.random.default_rng(1).normal(size=(1, 16))

        def swap_one(ix):
            ix.remove(["k0"])
            ix.add(["fresh"], fresh)

        assert self._refits_after(index, swap_one)
        assert len(index) == before

    def test_needs_refit_after_vector_update(self, tmp_path):
        """Re-adding an existing key with a new vector must invalidate."""
        index, vectors = self.make_clustered_index(tmp_path, clusters=2, per_cluster=5)
        assert self._refits_after(index, lambda ix: ix.add(["k0"], -vectors[0][None, :]))
        assert len(index) == len(vectors)

    def test_fit_skips_tombstoned_and_superseded_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=8, shard_size=4)
        stale = rng.normal(size=8)
        index.add(["dup", "gone", "live"], np.vstack([stale, rng.normal(size=8), rng.normal(size=8)]))
        index.save()
        index.add(["dup"], -stale[None, :])   # supersede
        index.remove(["gone"])                # tombstone
        searcher = IVFSearcher(num_centroids=1, nprobe=1, seed=0).fit(index)
        hits = searcher.search(stale, k=5)[0]
        by_key = {hit.key: hit.score for hit in hits}
        assert "gone" not in by_key
        assert by_key["dup"] == pytest.approx(-1.0, abs=1e-6)  # live vector, not stale

    def test_search_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            IVFSearcher().search(np.zeros(4), k=1)

    def test_fit_empty_index_raises(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "empty", dim=4)
        with pytest.raises(ValueError):
            IVFSearcher().fit(index)

    def test_kind_scoped_searcher(self, tmp_path):
        rng = np.random.default_rng(2)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=8)
        index.add(["c0", "c1", "c2"], rng.normal(size=(3, 8)), kinds="circuit")
        index.add(["n0", "n1", "n2"], rng.normal(size=(3, 8)), kinds="cone")
        searcher = IVFSearcher(num_centroids=2, nprobe=2, seed=0, kind="cone").fit(index)
        hits = searcher.search(rng.normal(size=8), k=6)[0]
        assert {hit.key for hit in hits} <= {"n0", "n1", "n2"}


class TestRecallAtK:
    def test_recall_math(self, tmp_path):
        rng = np.random.default_rng(0)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.add(["a", "b", "c"], rng.normal(size=(3, 4)))
        exact = exact_topk(index, rng.normal(size=(1, 4)), k=2)
        assert recall_at_k(exact, exact, k=2) == 1.0
        with pytest.raises(ValueError):
            recall_at_k(exact, [], k=2)
