"""Fault injection for the index's crash-safety story (ISSUE 9 satellite).

The contract: **a readable index always survives, at either the old or the
new generation — never a torn one.**  Three adversaries attack it here:

* ``os.replace`` failing at *every* rename an operation performs (disk
  full mid-compact, mid-save, mid-hot-swap) — each failure point is
  exercised individually and the on-disk index must reopen with exactly
  the pre-operation live content.
* ``Path.unlink`` failing after compact's atomic manifest switch — the
  index must reopen at the *new* generation; the orphaned payload files
  must confuse neither ``open`` nor subsequent ingest.
* a writer process SIGKILL'd mid-ingest loop — whatever instant the kill
  lands, ``EmbeddingIndex.open`` succeeds and every surviving row's
  payload is loadable.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.netlist import extract_register_cones
from repro.rtl import make_controller
from repro.serve import EmbeddingIndex, NetTAGService, exact_topk
from repro.synth import synthesize

DIM = 12


def _live_content(index: EmbeddingIndex) -> dict:
    """Map of live ``(key, kind)`` → vector, via the search read surface."""
    live = index.live_row_map()
    segments = list(index.iter_segments())
    content = {}
    for (key, kind), (segment, row) in live.items():
        content[(key, kind)] = np.asarray(segments[segment][2][row], dtype=np.float64)
    return content


def _assert_same_content(actual: dict, expected: dict) -> None:
    assert actual.keys() == expected.keys()
    for pair, vector in expected.items():
        np.testing.assert_allclose(actual[pair], vector, rtol=0, atol=1e-12)


def _build_index(directory, n=40, removed=6, seed=0) -> EmbeddingIndex:
    rng = np.random.default_rng(seed)
    index = EmbeddingIndex.create(directory, dim=DIM, shard_size=8, overwrite=True)
    index.add([f"k{i}" for i in range(n)], rng.normal(size=(n, DIM)), kinds="cone")
    index.save()
    index.remove([f"k{i}" for i in range(removed)])
    index.save()
    return index


class _FlakyReplace:
    """``os.replace`` that raises ENOSPC on its ``fail_at``-th call."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.calls = 0
        self.real = os.replace

    def __call__(self, src, dst):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(28, "No space left on device (injected)")
        return self.real(src, dst)


def _count_replaces(operation, monkeypatch) -> int:
    """How many renames ``operation`` performs when nothing fails."""
    flaky = _FlakyReplace(fail_at=0)  # never fires
    monkeypatch.setattr(os, "replace", flaky)
    try:
        operation()
    finally:
        monkeypatch.setattr(os, "replace", flaky.real)
    return flaky.calls


class TestCompactRenameFailures:
    def test_every_rename_failure_point_leaves_old_generation_readable(
        self, tmp_path, monkeypatch
    ):
        probe = _build_index(tmp_path / "probe")
        total = _count_replaces(probe.compact, monkeypatch)
        assert total >= 3, "compact should rename several payloads + the manifest"

        for fail_at in range(1, total + 1):
            directory = tmp_path / f"fail{fail_at}"
            index = _build_index(directory)
            expected = _live_content(index)
            flaky = _FlakyReplace(fail_at)
            monkeypatch.setattr(os, "replace", flaky)
            try:
                with pytest.raises(OSError, match="injected"):
                    index.compact()
            finally:
                monkeypatch.setattr(os, "replace", flaky.real)
            reopened = EmbeddingIndex.open(directory)
            _assert_same_content(_live_content(reopened), expected)

    def test_failed_compact_does_not_poison_later_ingest(self, tmp_path, monkeypatch):
        index = _build_index(tmp_path / "ix")
        flaky = _FlakyReplace(fail_at=2)
        monkeypatch.setattr(os, "replace", flaky)
        try:
            with pytest.raises(OSError, match="injected"):
                index.compact()
        finally:
            monkeypatch.setattr(os, "replace", flaky.real)
        # The same in-memory index keeps working: ingest, save, compact.
        reopened = EmbeddingIndex.open(tmp_path / "ix")
        rng = np.random.default_rng(9)
        reopened.add(["fresh"], rng.normal(size=(1, DIM)), kinds="cone")
        reopened.save()
        reopened.compact()
        final = EmbeddingIndex.open(tmp_path / "ix")
        assert ("fresh", "cone") in _live_content(final)
        assert ("k39", "cone") in _live_content(final)


class TestSaveRenameFailures:
    def test_interrupted_save_leaves_previously_saved_rows(self, tmp_path, monkeypatch):
        directory = tmp_path / "ix"
        index = _build_index(directory, n=24, removed=0)
        saved = _live_content(EmbeddingIndex.open(directory))
        rng = np.random.default_rng(3)
        index.add(
            [f"extra{i}" for i in range(20)], rng.normal(size=(20, DIM)), kinds="cone"
        )
        for fail_at in (1, 2, 3):
            flaky = _FlakyReplace(fail_at)
            monkeypatch.setattr(os, "replace", flaky)
            try:
                with pytest.raises(OSError, match="injected"):
                    index.save()
            finally:
                monkeypatch.setattr(os, "replace", flaky.real)
            reopened = EmbeddingIndex.open(directory)
            content = _live_content(reopened)
            # Old rows are never lost; the manifest only ever references
            # fully-written shards, so whatever subset of the new rows is
            # visible, each one's payload loads.
            for pair, vector in saved.items():
                np.testing.assert_allclose(content[pair], vector, atol=1e-12)
        # Once renames work again the interrupted save completes fully.
        index.save()
        content = _live_content(EmbeddingIndex.open(directory))
        assert ("extra19", "cone") in content


class TestUnlinkFailures:
    def test_unlink_failure_after_manifest_switch_keeps_new_generation(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "ix"
        index = _build_index(directory)
        expected = _live_content(index)
        real_unlink = pathlib.Path.unlink

        def flaky_unlink(self, missing_ok=False):
            if self.suffix == ".npy":
                raise OSError(1, "Operation not permitted (injected)")
            return real_unlink(self, missing_ok=missing_ok)

        monkeypatch.setattr(pathlib.Path, "unlink", flaky_unlink)
        try:
            with pytest.raises(OSError, match="injected"):
                index.compact()
        finally:
            monkeypatch.setattr(pathlib.Path, "unlink", real_unlink)
        # The manifest switched before the unlinks: the new generation is
        # what reopens, orphaned payloads notwithstanding.
        reopened = EmbeddingIndex.open(directory)
        _assert_same_content(_live_content(reopened), expected)
        assert not reopened.is_tombstoned("k0"), "compacted manifest keeps no tombstones"
        # Orphans do not collide with future shard ids.
        rng = np.random.default_rng(4)
        reopened.add(
            [f"post{i}" for i in range(12)], rng.normal(size=(12, DIM)), kinds="cone"
        )
        reopened.save()
        final = _live_content(EmbeddingIndex.open(directory))
        _assert_same_content(
            {p: v for p, v in final.items() if not p[0].startswith("post")}, expected
        )


class TestServiceLevelFaults:
    @pytest.fixture()
    def service(self, small_model, tmp_path):
        net = synthesize(make_controller("flt", seed=51, num_states=4, data_width=4)).netlist
        index = NetTAGService.create_index(small_model, tmp_path / "svc", shard_size=8)
        with NetTAGService(small_model, index=index, max_latency_ms=2.0) as svc:
            svc.add_netlists([net])
            svc.index.remove(svc.index.keys()[:2])
            svc.index.save()
            yield svc

    def test_service_survives_rename_failure_mid_compact(
        self, service, monkeypatch, small_model
    ):
        expected = _live_content(service.index)
        cone = extract_register_cones(
            synthesize(make_controller("flt", seed=51, num_states=4, data_width=4)).netlist
        )[0]
        before = service.query(cone, "cone", k=2)
        flaky = _FlakyReplace(fail_at=2)
        monkeypatch.setattr(os, "replace", flaky)
        try:
            with pytest.raises(OSError, match="injected"):
                service.compact()
        finally:
            monkeypatch.setattr(os, "replace", flaky.real)
        # Queries still serve, on a consistent snapshot.
        after = service.query(cone, "cone", k=2)
        assert [h.key for h in after] == [h.key for h in before]
        reopened = EmbeddingIndex.open(service.index.directory)
        _assert_same_content(_live_content(reopened), expected)

    def test_service_survives_rename_failure_mid_model_hot_swap(
        self, service, monkeypatch, small_model
    ):
        from repro.core import NetTAG

        expected = _live_content(EmbeddingIndex.open(service.index.directory))
        new_model = NetTAG(small_model.config, rng=np.random.default_rng(99))
        flaky = _FlakyReplace(fail_at=1)
        monkeypatch.setattr(os, "replace", flaky)
        try:
            with pytest.raises(OSError, match="injected"):
                service.swap_model(new_model)
        finally:
            monkeypatch.setattr(os, "replace", flaky.real)
        # On-disk index still reopens at the pre-swap generation.
        reopened = EmbeddingIndex.open(service.index.directory)
        _assert_same_content(_live_content(reopened), expected)
        # The service keeps serving embedding queries.
        rng = np.random.default_rng(1)
        probe = rng.normal(size=small_model.index_dim)
        assert service.query(probe, "vector", to_kind=None, k=1)


_WRITER_SCRIPT = """
import sys
import numpy as np
from repro.serve import EmbeddingIndex

index = EmbeddingIndex.open(sys.argv[1])
rng = np.random.default_rng(1)
print("ready", flush=True)
batch = 0
while True:
    index.add(
        [f"w{batch}_{j}" for j in range(4)],
        rng.normal(size=(4, index.dim)),
        kinds="cone",
    )
    index.save()
    batch += 1
"""


class TestKilledWriter:
    @pytest.mark.parametrize("delay", [0.02, 0.1, 0.3])
    def test_sigkilled_writer_leaves_readable_index(self, tmp_path, delay):
        directory = tmp_path / f"kill-{delay}"
        _build_index(directory, n=16, removed=0)
        baseline = _live_content(EmbeddingIndex.open(directory))

        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(directory)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            time.sleep(delay)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        reopened = EmbeddingIndex.open(directory)
        content = _live_content(reopened)
        # Pre-existing rows always survive, whatever instant the kill landed.
        for pair, vector in baseline.items():
            np.testing.assert_allclose(content[pair], vector, atol=1e-12)
        # Every row the manifest references is actually loadable + searchable.
        for keys, kinds, matrix, norms in reopened.iter_segments():
            assert np.isfinite(np.asarray(matrix, dtype=np.float64)).all()
        some_key, _ = next(iter(baseline))
        query = baseline[(some_key, "cone")]
        hits = exact_topk(reopened, query[np.newaxis, :], k=1)
        assert hits[0][0].key == some_key


class TestRetirementCallbackFaults:
    """A raising retirement callback is counted and warned about — it must
    neither turn the releasing reader's successful query into an error nor
    strand the sibling callbacks queued behind it (ISSUE 10 bugfix)."""

    @staticmethod
    def _manager():
        import itertools

        from repro.serve import ReadSnapshot, SnapshotManager

        generations = itertools.count()
        return SnapshotManager(
            lambda: ReadSnapshot(
                dim=2, generation=next(generations), segments=[], metadata=[],
                content_fingerprint="empty",
            )
        )

    def test_raising_retirement_leaves_releasing_reader_unharmed(self):
        manager = self._manager()
        manager.refresh()
        pin = manager.pin()

        def bad() -> None:
            raise OSError("injected retirement failure")

        manager.refresh(retire=bad)
        # The last reader of the old snapshot triggers the deferred
        # retirement on release; the injected failure must be swallowed
        # (warned + counted), not raised into the reader.
        with pytest.warns(RuntimeWarning, match="retirement callback failed"):
            pin.release()
        stats = manager.stats()
        assert stats["retirements_failed"] == 1
        assert stats["retirements_run"] == 0
        assert stats["retirements_pending"] == 0

    def test_sibling_callbacks_still_run_after_one_raises(self):
        manager = self._manager()
        manager.refresh()
        pin_old = manager.pin()

        def bad() -> None:
            raise OSError("injected retirement failure")

        manager.refresh(retire=bad)
        pin_mid = manager.pin()
        ran = []
        manager.refresh(retire=lambda: ran.append("good"))
        # Both snapshots still pinned -> both retirements deferred; shutdown
        # drains them through one callback pass where bad precedes good.
        with pytest.warns(RuntimeWarning, match="retirement callback failed"):
            manager.shutdown()
        assert ran == ["good"]
        stats = manager.stats()
        assert stats["retirements_failed"] == 1
        assert stats["retirements_run"] == 1
        pin_old.release()
        pin_mid.release()

    def test_service_compact_survives_unlink_failure_on_retirement(
        self, tmp_path, monkeypatch
    ):
        """Integration: compact's stale-payload unlink raising on a reader's
        release leaves the service serving and the failure visible in stats."""
        index = _build_index(tmp_path / "ix")
        expected = _live_content(index)
        from repro.serve import SnapshotManager

        snapshots = SnapshotManager(index.snapshot)
        snapshots.refresh()
        pin = snapshots.pin()  # a reader mid-query across the compact

        result = index.compact()
        assert result["tombstones_dropped"] > 0

        def failing_unlink() -> None:
            raise OSError("injected unlink failure")

        snapshots.refresh(retire=failing_unlink)
        with pytest.warns(RuntimeWarning, match="retirement callback failed"):
            pin.release()
        # New readers keep getting correct, complete answers.
        fresh = snapshots.pin()
        try:
            some_vec = next(iter(expected.values()))
            hits = exact_topk(fresh.snapshot, some_vec[np.newaxis, :], k=1)
            assert hits[0]
        finally:
            fresh.release()
        assert snapshots.stats()["retirements_failed"] == 1
