"""Property-based tests (hypothesis) for :class:`HNSWSearcher`.

Three serving-tier claims, stated as properties over random seeded corpora
rather than a handful of fixtures:

* **Recall floor** — graph search with a generous beam recovers (nearly)
  the exact top-k across dims, corpus sizes and kind filters, and on a
  3000-row clustered corpus it reaches 0.95 and stays within 0.02 of IVF.
* **Deterministic rebuild** — two fits with the same seed over the same
  index produce bit-identical structures (``structure_digest``), the
  property the hot-swap story and the fault-injection suite lean on.
* **Staleness parity with IVF** — the read path refits an HNSW graph
  exactly when it refits an IVF searcher, for every index mutation pattern
  (append, remove, supersede, compact): freshness is one content-fingerprint
  rule, not a per-algorithm check.

Plus the persistence contract (``TestPersistence``): a ``save``d graph
``load``s back bit-identically (same ``structure_digest``), ``attach``
proves freshness via the index content fingerprint, and a tampered,
truncated or version-skewed file raises ``IndexFormatError`` rather than
serving a silently wrong graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    EmbeddingIndex,
    HNSWSearcher,
    IndexFormatError,
    IVFSearcher,
    ReadPath,
    exact_topk,
    recall_at_k,
)


def _corpus_index(tmp_path, n, dim, seed, kinds=("cone",), shard_size=64):
    rng = np.random.default_rng(seed)
    # overwrite=True: hypothesis can replay the same example (same seed/n/dim)
    # into one function-scoped tmp_path.
    index = EmbeddingIndex.create(tmp_path / f"ix-{seed}-{n}-{dim}", dim=dim,
                                  shard_size=shard_size, overwrite=True)
    vectors = rng.normal(size=(n, dim))
    kind_row = [kinds[i % len(kinds)] for i in range(n)]
    index.add([f"k{i}" for i in range(n)], vectors, kinds=kind_row)
    return index


def build_scale_corpus(
    num_vectors: int, dim: int, clusters: int, seed: int = 11, noise: float = 1.2
) -> np.ndarray:
    """A clustered synthetic corpus for approximate-search recall checks.

    Unit-norm cluster centres plus per-dimension-scaled Gaussian noise
    (``noise / sqrt(dim)`` per axis, so the noise magnitude is
    dimension-independent).  ``noise`` controls cluster overlap: ~0.5
    keeps a query's true neighbours within its local cluster
    neighbourhood, ~1.0+ disperses them widely.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assignment = rng.integers(0, clusters, size=num_vectors)
    return centers[assignment] + rng.normal(size=(num_vectors, dim)) * (noise / np.sqrt(dim))


class TestRecallFloor:
    def test_hnsw_beats_recall_floor_and_ivf_on_clustered_corpus(self, tmp_path):
        corpus = build_scale_corpus(3000, 32, clusters=256, seed=5, noise=0.9)
        queries = build_scale_corpus(40, 32, clusters=256, seed=6, noise=0.9)
        index = EmbeddingIndex.create(tmp_path / "guard", dim=32, shard_size=1024)
        index.add([f"v{i}" for i in range(len(corpus))], corpus)
        exact = exact_topk(index, queries, k=10)

        hnsw = HNSWSearcher(M=12, ef_construction=64, ef_search=48, seed=0).fit(index)
        hnsw_recall = recall_at_k(exact, hnsw.search(queries, k=10), k=10)
        ivf = IVFSearcher(num_centroids=48, nprobe=4, seed=0).fit(index)
        ivf_recall = recall_at_k(exact, ivf.search(queries, k=10), k=10)

        assert hnsw_recall >= 0.95, f"HNSW recall@10 {hnsw_recall} below floor"
        assert hnsw_recall >= ivf_recall - 0.02, (
            f"HNSW recall {hnsw_recall} should match/beat IVF nprobe=4 {ivf_recall}"
        )

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=30, max_value=300),
        dim=st.integers(min_value=4, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_recall_at_k_meets_floor(self, tmp_path, n, dim, seed):
        index = _corpus_index(tmp_path, n, dim, seed)
        rng = np.random.default_rng(seed + 1)
        queries = rng.normal(size=(8, dim))
        k = min(10, n)
        exact = exact_topk(index, queries, k=k, kind="cone")
        searcher = HNSWSearcher(M=8, ef_construction=48, ef_search=64, seed=0).fit(index)
        approx = searcher.search(queries, k=k)
        # On unclustered Gaussian corpora of this size, a beam ≥ max(ef, k)
        # recovers nearly everything; 0.9 leaves room for genuinely hard
        # random geometries without letting a broken graph pass.
        assert recall_at_k(exact, approx, k=k) >= 0.9

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_kind_filter_never_leaks(self, tmp_path, seed):
        index = _corpus_index(tmp_path, 80, 16, seed, kinds=("cone", "circuit"))
        rng = np.random.default_rng(seed + 1)
        queries = rng.normal(size=(4, 16))
        searcher = HNSWSearcher(M=8, seed=0, kind="circuit").fit(index)
        for row in searcher.search(queries, k=5):
            assert row, "circuit-only search returned nothing"
            assert all(hit.kind == "circuit" for hit in row)

    def test_exclude_keys_respected_without_shrinking_results(self, tmp_path):
        index = _corpus_index(tmp_path, 60, 12, seed=3)
        rng = np.random.default_rng(4)
        queries = rng.normal(size=(3, 12))
        read_path = ReadPath(lambda: index, hnsw_params={"M": 8, "seed": 0})
        with read_path.snapshots.pin() as snapshot:
            baseline = read_path.search(snapshot, queries, k=5, algorithm="hnsw")
            excluded = {hit.key for hit in baseline[0][:2]}
            rows = read_path.search(
                snapshot, queries, k=5, algorithm="hnsw", exclude_keys=[excluded] * 3
            )
        for row in rows:
            assert len(row) == 5
            assert not excluded & {hit.key for hit in row}


class TestDeterministicRebuild:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(min_value=20, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_same_seed_rebuild_is_bit_identical(self, tmp_path, n, seed):
        index = _corpus_index(tmp_path, n, 16, seed)
        a = HNSWSearcher(M=8, ef_construction=40, seed=7).fit(index)
        b = HNSWSearcher(M=8, ef_construction=40, seed=7).fit(index)
        assert a.structure_digest() == b.structure_digest()

    def test_different_seed_changes_structure(self, tmp_path):
        index = _corpus_index(tmp_path, 120, 16, seed=9)
        a = HNSWSearcher(M=8, seed=1).fit(index)
        b = HNSWSearcher(M=8, seed=2).fit(index)
        assert a.structure_digest() != b.structure_digest()

    def test_incremental_sync_matches_full_rebuild_results(self, tmp_path):
        """Appending via sync() must retrieve the new rows (structure may
        legitimately differ from a scratch rebuild — search results on the
        grown corpus are the contract)."""
        index = _corpus_index(tmp_path, 100, 16, seed=5)
        searcher = HNSWSearcher(M=8, ef_search=128, seed=0).fit(index)
        rng = np.random.default_rng(6)
        fresh = rng.normal(size=(20, 16))
        index.add([f"new{i}" for i in range(20)], fresh, kinds="cone")
        added = searcher.sync(index)
        assert added == 20
        assert searcher.attach(index)
        hits = searcher.search(fresh[:5], k=1)
        assert [row[0].key for row in hits] == [f"new{i}" for i in range(5)]

    def test_sync_rebuilds_when_a_known_row_is_superseded(self, tmp_path):
        index = _corpus_index(tmp_path, 100, 16, seed=5)
        searcher = HNSWSearcher(M=8, seed=0).fit(index)
        moved = np.random.default_rng(8).normal(size=16)
        first_key = index.keys()[0]
        index.add([first_key], moved[None, :], kinds="cone")
        searcher.sync(index)
        assert searcher.attach(index)
        assert searcher.structure_digest() == HNSWSearcher(M=8, seed=0).fit(index).structure_digest()
        hit = searcher.search(moved[None, :], k=1)[0][0]
        assert (hit.key, round(hit.score, 9)) == (first_key, 1.0)


class TestStalenessParityWithIVF:
    """The read path's one freshness rule, seen from both algorithms."""

    @pytest.fixture()
    def pair(self, tmp_path):
        index = _corpus_index(tmp_path, 60, 12, seed=2)
        read_path = ReadPath(
            lambda: index,
            ivf_params={"num_centroids": 8, "nprobe": 4, "seed": 0},
            hnsw_params={"M": 8, "seed": 0},
        )
        with read_path.snapshots.pin() as snapshot:
            hnsw = read_path.searcher(snapshot, "hnsw")
            ivf = read_path.searcher(snapshot, "ivf")
        return index, read_path, hnsw, ivf

    @staticmethod
    def _stale(read_path, fitted) -> dict:
        """Per algorithm: would the read path refit instead of reusing ``fitted``?"""
        read_path.snapshots.refresh()
        with read_path.snapshots.pin() as snapshot:
            return {alg: read_path.searcher(snapshot, alg) is not fitted[alg] for alg in fitted}

    def test_fresh_fit_is_not_stale(self, pair):
        index, read_path, hnsw, ivf = pair
        assert self._stale(read_path, {"hnsw": hnsw, "ivf": ivf}) == {"hnsw": False, "ivf": False}
        assert read_path.stats()["hnsw_refits"] == read_path.stats()["ivf_refits"] == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda ix: ix.add(["extra"], np.ones((1, 12)), kinds="cone"),
            lambda ix: ix.remove(["k0"]),
            lambda ix: ix.add(["k1"], np.ones((1, 12)), kinds="cone"),
            lambda ix: ix.compact(),
        ],
        ids=["append", "remove", "supersede", "compact"],
    )
    def test_every_mutation_marks_both_stale(self, pair, mutate):
        index, read_path, hnsw, ivf = pair
        mutate(index)
        assert self._stale(read_path, {"hnsw": hnsw, "ivf": ivf}) == {"hnsw": True, "ivf": True}

    def test_unfitted_searchers_report_stale(self, tmp_path):
        index = _corpus_index(tmp_path, 60, 12, seed=2)
        read_path = ReadPath(lambda: index)
        assert read_path.cached("hnsw") is None and read_path.cached("ivf") is None
        with read_path.snapshots.pin() as snapshot:
            read_path.searcher(snapshot, "hnsw")
            read_path.searcher(snapshot, "ivf")
        assert read_path.stats()["hnsw_refits"] == read_path.stats()["ivf_refits"] == 1

    def test_refit_keeps_tuning_and_untuned_kinds_inherit_it(self, tmp_path):
        index = _corpus_index(tmp_path, 60, 12, seed=2, kinds=("cone", "circuit"))
        read_path = ReadPath(lambda: index, ivf_params={"num_centroids": 8, "nprobe": 4})
        with read_path.snapshots.pin() as snapshot:
            tuned = read_path.fit(snapshot, "hnsw", kind="cone", M=6, ef_search=20, seed=3)
            untuned = read_path.searcher(snapshot, "hnsw", kind="circuit")
        index.add(["extra"], np.ones((1, 12)), kinds="cone")
        read_path.snapshots.refresh()
        with read_path.snapshots.pin() as snapshot:
            refitted = read_path.searcher(snapshot, "hnsw", kind="cone")
            ivf = read_path.searcher(snapshot, "ivf", kind="cone")
        assert refitted is not tuned and refitted.is_fitted
        for searcher in (refitted, untuned):
            assert (searcher.M, searcher.ef_search, searcher.seed) == (6, 20, 3)
        assert (untuned.kind, refitted.kind) == ("circuit", "cone")
        assert (ivf.num_centroids, ivf.nprobe) == (8, 4)


class TestPersistence:
    """save()/load()/attach(): the graph is bit-identical or an error."""

    def _saved(self, tmp_path, n=90, seed=12):
        index = _corpus_index(tmp_path, n, 16, seed)
        index.save()
        # Fit against the *saved* state so the stored fingerprint matches
        # what an independent open() of the directory reports.
        searcher = HNSWSearcher(M=8, ef_construction=48, ef_search=64, seed=0)
        searcher.fit(index)
        path = tmp_path / "graph.npz"
        searcher.save(path)
        return index, searcher, path

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        _, fitted, path = self._saved(tmp_path)
        loaded = HNSWSearcher.load(path)
        assert loaded.structure_digest() == fitted.structure_digest()
        assert (loaded.M, loaded.ef_construction, loaded.ef_search, loaded.seed,
                loaded.kind) == (fitted.M, fitted.ef_construction,
                                 fitted.ef_search, fitted.seed, fitted.kind)
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(6, 16))
        for a, b in zip(fitted.search(queries, k=5), loaded.search(queries, k=5)):
            assert [(h.key, h.score) for h in a] == [(h.key, h.score) for h in b]

    def test_attach_adopts_generation_only_when_content_matches(self, tmp_path):
        index, _, path = self._saved(tmp_path)
        reopened = EmbeddingIndex.open(index.directory)
        loaded = HNSWSearcher.load(path)
        assert loaded.attach(reopened) is True
        assert loaded.sync(reopened) == 0

        reopened.add(["moved"], np.ones((1, 16)), kinds="cone")
        reopened.save()
        stale = HNSWSearcher.load(path)
        assert stale.attach(reopened) is False
        assert stale.sync(reopened) == 1
        assert stale.attach(reopened) is True

    def test_sidecar_with_a_generation_stamp_loads_and_attaches(self, tmp_path):
        """Older sidecars also stamped ``fitted_generation``; it is ignored."""
        import json as _json

        index, fitted, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name].copy() for name in payload.files}
        meta = _json.loads(bytes(arrays["meta"]).decode())
        assert "fitted_generation" not in meta
        meta["fitted_generation"] = 41
        arrays["meta"] = np.frombuffer(_json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        loaded = HNSWSearcher.load(path)
        assert loaded.structure_digest() == fitted.structure_digest()
        assert loaded.attach(EmbeddingIndex.open(index.directory)) is True

    def test_save_before_fit_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="before fit"):
            HNSWSearcher(M=8).save(tmp_path / "graph.npz")

    def test_tampered_arrays_fail_the_structure_digest(self, tmp_path):
        _, _, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name].copy() for name in payload.files}
        arrays["vectors"][0, 0] += 1e-9  # one flipped mantissa bit is enough
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(IndexFormatError, match="structure digest"):
            HNSWSearcher.load(path)

    def test_garbage_file_raises_index_format_error(self, tmp_path):
        path = tmp_path / "graph.npz"
        path.write_bytes(b"definitely not an npz archive")
        with pytest.raises(IndexFormatError, match="unreadable"):
            HNSWSearcher.load(path)

    def test_unsupported_format_version_raises(self, tmp_path):
        import json as _json

        _, _, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name].copy() for name in payload.files}
        meta = _json.loads(bytes(arrays["meta"]).decode())
        meta["format_version"] = 999
        arrays["meta"] = np.frombuffer(_json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(IndexFormatError, match="format version"):
            HNSWSearcher.load(path)
