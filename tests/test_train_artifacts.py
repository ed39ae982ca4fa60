"""Tests for the artifact store, stage timers and run manifests (repro.train)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.train import ArtifactStore, RunManifest, fingerprint


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert fingerprint({"seed": 0}) != fingerprint({"seed": 1})


class TestArtifactStore:
    def test_miss_then_hit_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = {"seed": 0, "stage": "demo"}
        calls = []

        def compute():
            calls.append(1)
            return {"matrix": np.arange(6).reshape(2, 3), "names": ["a", "b"]}

        first = store.get_or_compute("demo", key, compute)
        second = store.get_or_compute("demo", key, compute)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["matrix"], second["matrix"])
        assert second["names"] == ["a", "b"]
        assert store.stats() == {"hits": 1, "misses": 1}

    def test_key_change_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        store.get_or_compute("demo", {"seed": 0}, compute)
        store.get_or_compute("demo", {"seed": 1}, compute)
        assert len(calls) == 2

    def test_disabled_store_always_computes(self):
        store = ArtifactStore(None)
        calls = []
        for _ in range(2):
            store.get_or_compute("demo", {"k": 1}, lambda: calls.append(1))
        assert len(calls) == 2
        assert not store.enabled

    def test_corrupt_entry_behaves_like_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = {"seed": 0}
        store.get_or_compute("demo", key, lambda: "value")
        for entry in tmp_path.glob("demo-*.pkl"):
            entry.write_bytes(b"not a pickle")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_or_compute("demo", key, lambda: "recomputed") == "recomputed"

    def test_corrupt_manifest_behaves_like_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = {"seed": 1}
        store.get_or_compute("demo", key, lambda: "value")
        for manifest in tmp_path.glob("demo-*.json"):
            manifest.write_text("{truncated")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_or_compute("demo", key, lambda: "recomputed") == "recomputed"
        assert (fresh.hits, fresh.misses) == (0, 1)

    def test_stage_timings_record_cache_state(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = {"seed": 3}
        with store.stage("demo", key) as run:
            assert not run.cached
            run.save([1, 2, 3])
        with store.stage("demo", key) as run:
            assert run.cached
            assert run.load() == [1, 2, 3]
        assert [t.cached for t in store.timings] == [False, True]
        assert all(t.seconds >= 0.0 for t in store.timings)
        assert "cache hit" in store.timings[1].describe()


class TestAtomicWrites:
    def test_checkpoint_save_leaves_no_temp_files(self, tmp_path):
        from repro import nn

        model = nn.Linear(2, 2, rng=np.random.default_rng(0))
        path = tmp_path / "m.ckpt.npz"
        for _ in range(2):  # second call overwrites atomically
            nn.save_training_checkpoint(path, {"m": model}, state={"step": 1})
        assert path.exists()
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_artifact_save_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("demo", "abc", {"x": 1})
        assert list(tmp_path.glob("*.tmp*")) == []


class TestRunManifest:
    def test_same_run_key_keeps_checkpoints(self, tmp_path):
        manifest = RunManifest(tmp_path, run_key="abc")
        assert json.loads(manifest.path.read_text()) == {"run_key": "abc"}
        manifest.checkpoint_path("expr_pretrain").write_bytes(b"resume me")
        reopened = RunManifest(tmp_path, run_key="abc")
        assert reopened.checkpoint_path("expr_pretrain").read_bytes() == b"resume me"

    def test_interrupted_write_keeps_manifest_and_checkpoints(self, tmp_path, monkeypatch):
        manifest = RunManifest(tmp_path, run_key="abc")
        checkpoint = manifest.checkpoint_path("expr_pretrain")
        checkpoint.write_bytes(b"resume me")
        before = manifest.path.read_bytes()

        def torn_write(path, text, *args, **kwargs):
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(KeyboardInterrupt):
            manifest._write()  # a crash mid-rewrite
        monkeypatch.undo()
        assert manifest.path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        # The next open still reads this run's key, so it resets nothing.
        RunManifest(tmp_path, run_key="abc")
        assert checkpoint.read_bytes() == b"resume me"

    def test_key_mismatch_resets_stale_checkpoints(self, tmp_path):
        manifest = RunManifest(tmp_path, run_key="abc")
        manifest.checkpoint_path("expr_pretrain").write_bytes(b"stale")
        # Unrelated files in the same directory (e.g. a saved model the user
        # pointed checkpoint_dir at) must survive the reset.
        (tmp_path / "model.npz").write_bytes(b"precious")

        fresh = RunManifest(tmp_path, run_key="different")
        assert not fresh.checkpoint_path("expr_pretrain").exists()
        assert (tmp_path / "model.npz").read_bytes() == b"precious"
        assert json.loads(fresh.path.read_text()) == {"run_key": "different"}

    def test_checkpoint_paths_are_stage_scoped(self, tmp_path):
        manifest = RunManifest(tmp_path, run_key="abc")
        paths = {manifest.checkpoint_path(s) for s in ("a", "b")}
        assert len(paths) == 2
        assert all(p.parent == tmp_path for p in paths)
