"""One exclusion rule and one freshness rule for every search algorithm.

``ReadPath.search`` is the only place keys are excluded.  Through
``NetTAGService.query`` and ``ReadReplica.query``, exact search, IVF with
every list probed and HNSW with a beam wider than the corpus must return
exactly what exact search over all rows returns once the excluded keys are
filtered out and the list is cut to ``k`` — also when one excluded key holds
a row in several kinds, when the excluded key is the top hit, and beside
tombstoned and superseded rows.

A cached searcher is reused iff the pinned snapshot's ``(directory,
content_fingerprint())`` is the one it was fitted on: a count-neutral
remove + add and an in-place rebuild with the same layout both refit, and
an unchanged snapshot reuses the cached searcher.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    CONE_KIND,
    LAYOUT_KIND,
    RTL_KIND,
    EmbeddingIndex,
    NetTAGService,
    ReadPath,
    ReadReplica,
    exact_topk,
)

IVF_FULL_PROBE = {"num_centroids": 2, "nprobe": 2, "seed": 0}
HNSW_WIDE_BEAM = {"M": 8, "ef_search": 128, "seed": 0}
ALGORITHM_PARAMS = {"exact": None, "ivf": IVF_FULL_PROBE, "hnsw": HNSW_WIDE_BEAM}


def _corpus(dim: int):
    """Rows and queries: ``a`` holds a cone, an rtl and a layout row near
    the first query; ``dup`` is superseded and ``gone`` tombstoned, both
    with their stale vector on the second query."""
    rng = np.random.default_rng(23)
    near = rng.normal(size=dim)
    unit_near = near / np.linalg.norm(near)
    stale = rng.normal(size=dim)
    rows = [(f"k{i}", CONE_KIND, rng.normal(size=dim)) for i in range(40)]
    rows += [(f"k{i}", RTL_KIND, rng.normal(size=dim)) for i in range(6)]
    rows += [
        ("a", CONE_KIND, unit_near + 0.05 * rng.normal(size=dim)),
        ("a", RTL_KIND, unit_near + 0.10 * rng.normal(size=dim)),
        ("a", LAYOUT_KIND, unit_near + 0.15 * rng.normal(size=dim)),
        ("b", CONE_KIND, unit_near + 0.30 * rng.normal(size=dim)),
        ("dup", CONE_KIND, stale + 0.01 * rng.normal(size=dim)),
        ("gone", CONE_KIND, stale + 0.02 * rng.normal(size=dim)),
    ]
    queries = np.stack([near, stale])
    return rows, queries, rng.normal(size=dim)


@pytest.fixture(scope="module")
def built(small_model, tmp_path_factory):
    """An index with multi-kind keys, a superseded and a tombstoned row."""
    rows, queries, moved = _corpus(small_model.index_dim)
    index = NetTAGService.create_index(
        small_model, tmp_path_factory.mktemp("parity") / "ix", shard_size=16
    )
    keys, kinds, vectors = zip(*rows)
    index.add(list(keys), np.stack(vectors), kinds=list(kinds))
    index.save()
    index.add(["dup"], moved[None, :], kinds=CONE_KIND)  # supersede
    index.remove(["gone"])  # tombstone
    index.save()
    return index, queries


def _expected(index, query, k, to_kind, excluded):
    everything = exact_topk(index, query, k=len(index) + 8, kind=to_kind)[0]
    return [hit for hit in everything if hit.key not in excluded][:k]


# (to_kind, k, excluded keys per query row): one key in three kinds, the top
# hit excluded, and stale rows beside the live ones.
CASES = {
    "key_in_every_kind": (None, 3, [["a"], ["a"]]),
    "top_hit_excluded": (CONE_KIND, 4, [["a"], ["k3", "b"]]),
    "tombstoned_and_superseded": (None, 5, [["b", "k1"], ["dup"]]),
}


def _assert_parity(got, index, queries, k, to_kind, excluded):
    for q, row in enumerate(got):
        want = _expected(index, queries[q], k, to_kind, set(excluded[q]))
        assert len(want) == k
        assert [(h.key, h.kind) for h in row] == [(h.key, h.kind) for h in want]
        np.testing.assert_allclose(
            [h.score for h in row], [h.score for h in want], rtol=0, atol=1e-9
        )
        assert not {"gone"} & {h.key for h in row}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_PARAMS))
@pytest.mark.parametrize("case", sorted(CASES))
class TestExclusionParity:
    def test_service_query(self, small_model, built, algorithm, case):
        index, queries = built
        to_kind, k, excluded = CASES[case]
        with NetTAGService(small_model, index=index, max_latency_ms=1.0) as service:
            if ALGORITHM_PARAMS[algorithm] is not None:
                service.fit_searcher(algorithm=algorithm, kind=to_kind,
                                     **ALGORITHM_PARAMS[algorithm])
            # Submitted together, so both queries share one flush.
            futures = [
                service.submit_query(queries[q], "vector", to_kind=to_kind, k=k,
                                     exclude_keys=excluded[q], algorithm=algorithm)
                for q in range(len(queries))
            ]
            got = [future.result(timeout=60) for future in futures]
        _assert_parity(got, index, queries, k, to_kind, excluded)

    def test_replica_query(self, built, algorithm, case):
        index, queries = built
        to_kind, k, excluded = CASES[case]
        with ReadReplica(index.directory, watch=False, ivf_params=IVF_FULL_PROBE,
                         hnsw_params=HNSW_WIDE_BEAM) as replica:
            got = [
                replica.query(queries[q], k=k, kind=to_kind, algorithm=algorithm,
                              exclude_keys=excluded[q])[0]
                for q in range(len(queries))
            ]
        _assert_parity(got, index, queries, k, to_kind, excluded)


def test_exclude_keys_needs_one_collection_per_query_row(tmp_path):
    index = EmbeddingIndex.create(tmp_path / "ix", dim=4)
    index.add(["x", "y"], np.eye(4)[:2])
    read_path = ReadPath(lambda: index)
    with read_path.snapshots.pin() as snapshot:
        with pytest.raises(TypeError, match="per query row"):
            read_path.search(snapshot, np.eye(4)[:1], k=1, exclude_keys=["x"])
        with pytest.raises(ValueError):
            read_path.search(snapshot, np.eye(4)[:2], k=1, exclude_keys=[["x"]])


class TestOneFreshnessRule:
    ALGORITHMS = ("ivf", "hnsw")

    @staticmethod
    def _index(directory, seed, overwrite=False):
        index = EmbeddingIndex.create(directory, dim=8, shard_size=16, overwrite=overwrite)
        index.add([f"k{i}" for i in range(32)], np.random.default_rng(seed).normal(size=(32, 8)))
        index.save()
        return index

    def _searchers(self, read_path):
        with read_path.snapshots.pin() as snapshot:
            return {alg: read_path.searcher(snapshot, alg) for alg in self.ALGORITHMS}

    def _read_path(self, source):
        return ReadPath(source, ivf_params={"num_centroids": 2}, hnsw_params={"M": 8})

    def test_unchanged_snapshot_reuses_the_cached_searcher(self, tmp_path):
        index = self._index(tmp_path / "ix", seed=0)
        read_path = self._read_path(lambda: index)
        first = self._searchers(read_path)
        index.save()  # a flush with nothing pending changes no content
        read_path.snapshots.refresh()
        assert self._searchers(read_path) == first
        stats = read_path.stats()
        assert (stats["ivf_refits"], stats["hnsw_refits"]) == (1, 1)

    def test_count_neutral_remove_and_add_refits(self, tmp_path):
        index = self._index(tmp_path / "ix", seed=0)
        read_path = self._read_path(lambda: index)
        first = self._searchers(read_path)
        before = len(index)
        index.remove(["k0"])
        index.add(["fresh"], np.ones((1, 8)))
        assert len(index) == before
        read_path.snapshots.refresh()
        second = self._searchers(read_path)
        assert all(second[alg] is not first[alg] for alg in self.ALGORITHMS)
        with read_path.snapshots.pin() as snapshot:
            for alg in self.ALGORITHMS:
                hits = read_path.search(snapshot, np.ones(8), k=40, algorithm=alg)[0]
                assert "k0" not in {h.key for h in hits}
                assert hits[0].key == "fresh"

    def test_in_place_rebuild_with_the_same_layout_refits(self, tmp_path):
        directory = tmp_path / "ix"
        serving = {"index": self._index(directory, seed=0)}
        read_path = self._read_path(lambda: serving["index"])
        first = self._searchers(read_path)
        rebuilt = self._index(directory, seed=1, overwrite=True)
        # Same directory, layout and generation: only the content differs.
        assert rebuilt.generation == serving["index"].generation
        serving["index"] = rebuilt
        read_path.snapshots.refresh()
        second = self._searchers(read_path)
        assert all(second[alg] is not first[alg] for alg in self.ALGORITHMS)
        query = rebuilt.get("k5")
        with read_path.snapshots.pin() as snapshot:
            for alg in self.ALGORITHMS:
                hit = read_path.search(snapshot, query, k=1, algorithm=alg)[0][0]
                assert (hit.key, round(hit.score, 6)) == ("k5", 1.0)
