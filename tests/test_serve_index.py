"""Tests for the on-disk sharded embedding index (repro.serve.index)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import EmbeddingIndex, IndexFormatError


def make_vectors(n: int, dim: int = 8, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


class TestCreateOpen:
    def test_create_then_open_round_trips_config(self, tmp_path):
        index = EmbeddingIndex.create(
            tmp_path / "idx", dim=8, shard_size=4, fingerprints={"model": "abc"}
        )
        index.add([f"k{i}" for i in range(6)], make_vectors(6), kinds="cone")
        index.save()

        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert reopened.dim == 8
        assert reopened.shard_size == 4
        assert reopened.fingerprints == {"model": "abc"}
        assert len(reopened) == 6

    def test_create_refuses_to_clobber_without_overwrite(self, tmp_path):
        EmbeddingIndex.create(tmp_path / "idx", dim=4)
        with pytest.raises(FileExistsError):
            EmbeddingIndex.create(tmp_path / "idx", dim=4)
        fresh = EmbeddingIndex.create(tmp_path / "idx", dim=5, overwrite=True)
        assert fresh.dim == 5
        assert len(fresh) == 0

    def test_overwrite_removes_old_shard_payloads(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add(["a", "b", "c"], make_vectors(3, 4))
        index.save()
        assert any((tmp_path / "idx").glob("shard-*.npy"))
        EmbeddingIndex.create(tmp_path / "idx", dim=4, overwrite=True)
        assert not any((tmp_path / "idx").glob("shard-*.npy"))

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingIndex.open(tmp_path / "nope")

    def test_open_bad_format_version_raises(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.save()
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError):
            EmbeddingIndex.open(tmp_path / "idx")

    def test_create_takes_no_metric_and_the_manifest_says_cosine(self, tmp_path):
        with pytest.raises(TypeError):
            EmbeddingIndex.create(tmp_path / "l2", dim=4, metric="l2")
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.save()
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["metric"] == "cosine"
        assert index.stats()["metric"] == "cosine"

    def test_open_other_metric_raises(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.save()
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metric"] = "l2"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexFormatError, match="metric 'l2'"):
            EmbeddingIndex.open(tmp_path / "idx")
        del manifest["metric"]  # manifests that never named one are cosine
        manifest_path.write_text(json.dumps(manifest))
        assert EmbeddingIndex.open(tmp_path / "idx").stats()["metric"] == "cosine"

    def test_fingerprint_mismatch_warns_but_opens(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, fingerprints={"model": "old"})
        index.save()
        with pytest.warns(UserWarning, match="fingerprint mismatch"):
            reopened = EmbeddingIndex.open(
                tmp_path / "idx", expected_fingerprints={"model": "new"}
            )
        assert reopened.fingerprints["model"] == "old"

    def test_matching_fingerprints_do_not_warn(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, fingerprints={"model": "same"})
        index.save()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            EmbeddingIndex.open(tmp_path / "idx", expected_fingerprints={"model": "same"})


class TestAddGet:
    def test_round_trip_is_exact_in_float32(self, tmp_path):
        vectors = make_vectors(10, 6)
        index = EmbeddingIndex.create(tmp_path / "idx", dim=6, shard_size=4)
        index.add([f"k{i}" for i in range(10)], vectors)
        index.save()
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        for i in range(10):
            got = reopened.get(f"k{i}")
            np.testing.assert_array_equal(got, vectors[i].astype(np.float32).astype(np.float64))

    def test_full_shards_seal_automatically(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=3)
        index.add([f"k{i}" for i in range(7)], make_vectors(7, 4))
        assert index.num_shards == 2          # 2 sealed shards of 3
        assert index.stats()["pending"] == 1  # 1 buffered row
        index.save()
        assert index.num_shards == 3
        assert index.stats()["pending"] == 0

    def test_pending_rows_are_visible_before_flush(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=100)
        vectors = make_vectors(3, 4)
        index.add(["a", "b", "c"], vectors)
        assert "b" in index
        np.testing.assert_allclose(
            index.get("b"), vectors[1].astype(np.float32).astype(np.float64)
        )

    def test_readding_a_key_shadows_the_old_vector(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        old = make_vectors(1, 4, seed=1)
        new = make_vectors(1, 4, seed=2)
        index.add(["k"], old)
        index.save()
        index.add(["k"], new)
        np.testing.assert_array_equal(
            index.get("k"), new[0].astype(np.float32).astype(np.float64)
        )
        assert len(index) == 1               # one live key
        assert index.stats()["rows"] == 2    # but two physical rows until compact

    def test_dimension_and_length_validation(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        with pytest.raises(ValueError, match="dimension"):
            index.add(["a"], make_vectors(1, 5))
        with pytest.raises(ValueError, match="keys"):
            index.add(["a", "b"], make_vectors(1, 4))
        with pytest.raises(ValueError, match="kinds"):
            index.add(["a", "b"], make_vectors(2, 4), kinds=["x"])


class TestRemoveCompactMerge:
    def test_remove_hides_and_compact_drops(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=3)
        index.add([f"k{i}" for i in range(6)], make_vectors(6, 4))
        index.save()
        assert index.remove(["k1", "k4", "missing"]) == 2
        assert index.get("k1") is None
        assert "k1" not in index
        assert len(index) == 4

        dropped = index.compact()
        assert dropped["rows_after"] == 4
        assert index.stats()["tombstones"] == 0
        # Survivors keep their vectors; reopen sees the compacted layout.
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert sorted(reopened.keys()) == ["k0", "k2", "k3", "k5"]

    def test_compact_keeps_latest_duplicate(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        first = make_vectors(1, 4, seed=3)
        second = make_vectors(1, 4, seed=4)
        index.add(["dup", "other"], np.vstack([first, make_vectors(1, 4, seed=9)]))
        index.save()
        index.add(["dup"], second)
        index.compact()
        assert index.stats()["rows"] == 2
        np.testing.assert_array_equal(
            index.get("dup"), second[0].astype(np.float32).astype(np.float64)
        )

    def test_readd_revives_tombstoned_key(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4)
        index.add(["k"], make_vectors(1, 4))
        index.save()
        index.remove(["k"])
        assert index.get("k") is None
        revived = make_vectors(1, 4, seed=7)
        index.add(["k"], revived)
        np.testing.assert_array_equal(
            index.get("k"), revived[0].astype(np.float32).astype(np.float64)
        )

    def test_merge_appends_live_rows_only(self, tmp_path):
        a = EmbeddingIndex.create(tmp_path / "a", dim=4)
        a.add(["a0", "a1"], make_vectors(2, 4), kinds="circuit")
        b = EmbeddingIndex.create(tmp_path / "b", dim=4)
        b.add(["b0", "b1", "b2"], make_vectors(3, 4, seed=5), kinds="cone")
        b.save()
        b.remove(["b1"])
        assert a.merge(b) == 2
        assert sorted(a.keys()) == ["a0", "a1", "b0", "b2"]
        assert a.stats()["kinds"] == {"circuit": 2, "cone": 2}

    def test_merge_dim_mismatch_raises(self, tmp_path):
        a = EmbeddingIndex.create(tmp_path / "a", dim=4)
        b = EmbeddingIndex.create(tmp_path / "b", dim=5)
        with pytest.raises(ValueError, match="merge"):
            a.merge(b)

    def test_merge_takes_latest_duplicate_vector(self, tmp_path):
        a = EmbeddingIndex.create(tmp_path / "a", dim=4)
        b = EmbeddingIndex.create(tmp_path / "b", dim=4, shard_size=1)
        first = make_vectors(1, 4, seed=1)
        second = make_vectors(1, 4, seed=2)
        b.add(["dup"], first)
        b.save()
        b.add(["dup"], second)
        a.merge(b)
        np.testing.assert_array_equal(
            a.get("dup"), second[0].astype(np.float32).astype(np.float64)
        )


class TestCrashSafety:
    def test_compact_never_unlinks_before_manifest_switch(self, tmp_path):
        """A crash mid-compact must leave a readable index (old or new)."""
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        vectors = make_vectors(6, 4)
        index.add([f"k{i}" for i in range(6)], vectors)
        index.save()
        index.remove(["k1"])

        # Simulate the crash window: new shards written, manifest NOT yet
        # switched, old payloads NOT yet unlinked.  That state is exactly
        # "old manifest + orphan new files" — reopen must see the old data.
        import repro.serve.index as index_module

        original = index_module.EmbeddingIndex._write_manifest
        calls = {"n": 0}

        def crashing_write(self_index):
            calls["n"] += 1
            raise RuntimeError("simulated crash before manifest switch")

        index_module.EmbeddingIndex._write_manifest = crashing_write
        try:
            with pytest.raises(RuntimeError, match="simulated crash"):
                index.compact()
        finally:
            index_module.EmbeddingIndex._write_manifest = original
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        # The pre-compact manifest still describes a fully readable index
        # (the tombstone for k1 was persisted by remove()).
        assert sorted(reopened.keys()) == ["k0", "k2", "k3", "k4", "k5"]
        for key in reopened.keys():
            assert reopened.get(key) is not None

    def test_orphan_shard_files_are_never_clobbered(self, tmp_path):
        """Shard naming skips files on disk that the manifest doesn't know."""
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add(["a", "b"], make_vectors(2, 4))
        index.save()
        # Orphan left by a hypothetical crash after payload write.
        orphan = tmp_path / "idx" / "shard-00001.npy"
        orphan.write_bytes(b"garbage")
        index.add(["c", "d"], make_vectors(2, 4, seed=2))
        index.save()
        assert orphan.read_bytes() == b"garbage"  # untouched
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert sorted(reopened.keys()) == ["a", "b", "c", "d"]

    def test_shard_names_are_not_reused_after_compact_empties_the_index(self, tmp_path):
        """A reader adopts loaded shards by name and row count, so a name the
        writer handed out once must never come back, even after compact
        dropped (and unlinked) every shard that carried it."""
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add(["a", "b"], make_vectors(2, 4))
        index.save()
        index.remove(["a", "b"])
        index.compact()
        assert not any((tmp_path / "idx").glob("shard-*.npy"))
        index.add(["c", "d"], make_vectors(2, 4, seed=2))
        index.save()
        assert [shard.name for shard in index._shards] == ["shard-00001"]
        assert sorted(EmbeddingIndex.open(tmp_path / "idx").keys()) == ["c", "d"]

    def test_compact_removes_orphans_of_its_own_old_layout(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add([f"k{i}" for i in range(5)], make_vectors(5, 4))
        index.save()
        old_payloads = sorted((tmp_path / "idx").glob("shard-*.npy"))
        index.compact()
        for stale in old_payloads:
            assert not stale.exists()
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert len(reopened) == 5


class TestWriteCost:
    def _counting_manifest_writes(self, monkeypatch) -> list:
        calls = []
        original = EmbeddingIndex._write_manifest

        def counting(index):
            calls.append(index.num_shards)
            original(index)

        monkeypatch.setattr(EmbeddingIndex, "_write_manifest", counting)
        return calls

    def test_sealing_save_writes_the_manifest_once(self, tmp_path, monkeypatch):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=8)
        index.add(["a", "b", "c"], make_vectors(3, 4))
        calls = self._counting_manifest_writes(monkeypatch)
        index.save()
        assert calls == [1], "one manifest write, after the tail shard is sealed"
        assert [s["name"] for s in json.loads(
            (tmp_path / "idx" / "manifest.json").read_text())["shards"]] == ["shard-00000"]

    def test_save_without_pending_rows_still_writes_the_manifest(self, tmp_path, monkeypatch):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=8)
        index.add(["a"], make_vectors(1, 4))
        index.save()
        index.fingerprints["model"] = "retrained"
        calls = self._counting_manifest_writes(monkeypatch)
        index.save()
        assert calls == [1]
        reopened = EmbeddingIndex.open(tmp_path / "idx")
        assert reopened.fingerprints["model"] == "retrained"

    def test_sealing_does_not_scan_the_directory(self, tmp_path, monkeypatch):
        import pathlib

        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add([f"k{i}" for i in range(4)], make_vectors(4, 4))
        index.save()

        def no_glob(self, pattern):
            raise AssertionError(f"sealing globbed {self} for {pattern!r}")

        monkeypatch.setattr(pathlib.Path, "glob", no_glob)
        index.add([f"j{i}" for i in range(5)], make_vectors(5, 4, seed=1))
        index.save()
        assert [shard.name for shard in index._shards] == [
            f"shard-{i:05d}" for i in range(5)
        ]


class TestStats:
    def test_stats_report_layout_and_kinds(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add(["c0"], make_vectors(1, 4), kinds="circuit")
        index.add(["n0", "n1"], make_vectors(2, 4, seed=2), kinds="cone")
        index.save()
        stats = index.stats()
        assert stats["entries"] == 3
        assert stats["dim"] == 4
        assert stats["kinds"] == {"circuit": 1, "cone": 2}
        assert stats["payload_bytes"] > 0

    def test_kind_counts_sum_to_entries_after_supersede_and_remove(self, tmp_path):
        index = EmbeddingIndex.create(tmp_path / "idx", dim=4, shard_size=2)
        index.add(["n0", "n1"], make_vectors(2, 4), kinds="cone")
        index.add(["c0"], make_vectors(1, 4, seed=1), kinds="circuit")
        index.save()
        index.add(["n0"], make_vectors(1, 4, seed=2), kinds="cone")  # supersede
        stats = index.stats()
        assert stats["kinds"] == {"cone": 2, "circuit": 1}
        assert sum(stats["kinds"].values()) == stats["entries"] == 3
        index.remove(["n1"])
        index.save()
        stats = EmbeddingIndex.open(tmp_path / "idx").stats()
        assert stats["kinds"] == {"cone": 1, "circuit": 1}
        assert sum(stats["kinds"].values()) == stats["entries"] == 2

    def test_invalid_construction(self, tmp_path):
        with pytest.raises(ValueError):
            EmbeddingIndex.create(tmp_path / "idx", dim=0)
        with pytest.raises(ValueError):
            EmbeddingIndex.create(tmp_path / "idx2", dim=4, shard_size=0)
