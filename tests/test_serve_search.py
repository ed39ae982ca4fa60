"""Tests for exact cosine retrieval and recall@k (repro.serve.search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import EmbeddingIndex, ReadPath, exact_topk, recall_at_k


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


class TestRecallAtK:
    def test_recall_math(self, tmp_path):
        rng = np.random.default_rng(0)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.add(["a", "b", "c"], rng.normal(size=(3, 4)))
        exact = exact_topk(index, rng.normal(size=(1, 4)), k=2)
        assert recall_at_k(exact, exact, k=2) == 1.0
        with pytest.raises(ValueError):
            recall_at_k(exact, [], k=2)
