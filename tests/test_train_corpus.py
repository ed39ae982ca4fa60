"""Tests for the sharded streaming corpus (repro.train.corpus)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.train import ShardedCorpus, ShardStreamPlan


ITEMS = [f"item-{i}" for i in range(23)]


class TestShardedCorpus:
    def test_build_open_round_trip(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        assert len(corpus) == 23
        assert corpus.num_shards == 5
        assert corpus.shard_lengths == [5, 5, 5, 5, 3]

        reopened = ShardedCorpus.open(tmp_path, name="t")
        assert len(reopened) == 23
        assert reopened.fingerprint() == corpus.fingerprint()
        assert reopened.fetch(range(23)) == ITEMS

    def test_fetch_arbitrary_order_and_bounds(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=4)
        got = corpus.fetch([22, 0, 7, 7, 13])
        assert got == ["item-22", "item-0", "item-7", "item-7", "item-13"]
        assert corpus.fetch([]) == []
        with pytest.raises(IndexError):
            corpus.fetch([23])
        with pytest.raises(IndexError):
            corpus.fetch([-1])

    def test_getitem_and_shard_of(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=10)
        assert corpus[0] == "item-0"
        assert corpus[15] == "item-15"
        assert corpus.shard_of(9) == 0
        assert corpus.shard_of(10) == 1
        assert corpus.shard_bounds(1) == (10, 20)
        with pytest.raises(IndexError):
            corpus.shard_of(99)

    def test_lru_keeps_at_most_cache_shards(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=4,
                                     cache_shards=2)
        for index in (0, 5, 9, 13, 17, 21):
            corpus.fetch([index])
        assert len(corpus._cache) <= 2
        # Revisiting an evicted shard reloads from disk.
        loads_before = corpus.stats()["loads"]
        corpus.fetch([0])
        assert corpus.stats()["loads"] == loads_before + 1

    def test_prefetch_double_buffer(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        corpus.prefetch(2)
        payload = corpus.load_shard(2)
        assert payload == ITEMS[10:15]
        assert corpus.stats()["prefetch_hits"] == 1
        # A stale prefetch for one shard must not block a later prefetch.
        corpus.prefetch(3)
        corpus.load_shard(0)  # unrelated synchronous load harvests the buffer
        corpus.prefetch(4)
        assert corpus.load_shard(4) == ITEMS[20:]

    def test_prefetch_finished_before_the_next_hint_still_counts(self, tmp_path):
        # A prefetch that completes before the next prefetch() call is folded
        # into the LRU by that call; serving it later is still a prefetch hit.
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        corpus.prefetch(1)
        corpus._prefetch_thread.join()
        corpus.prefetch(2)
        assert corpus.load_shard(1) == ITEMS[5:10]
        assert corpus.stats()["prefetch_hits"] == 1
        # A second load of the same shard is a plain cache hit.
        corpus.load_shard(1)
        assert corpus.stats()["prefetch_hits"] == 1

    def test_build_or_open_is_idempotent(self, tmp_path):
        first = ShardedCorpus.build_or_open(ITEMS, tmp_path, name="t", shard_size=6)
        manifest_written = first.manifest_path.read_text()
        second = ShardedCorpus.build_or_open(ITEMS, tmp_path, name="t", shard_size=6)
        assert second.fingerprint() == first.fingerprint()
        assert first.manifest_path.read_text() == manifest_written

    def test_different_names_coexist(self, tmp_path):
        a = ShardedCorpus.build(ITEMS[:10], tmp_path, name="a", shard_size=4)
        b = ShardedCorpus.build(ITEMS[10:], tmp_path, name="b", shard_size=4)
        assert a.fetch(range(10)) == ITEMS[:10]
        assert b.fetch(range(13)) == ITEMS[10:]

    def test_open_missing_or_partial_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedCorpus.open(tmp_path, name="absent")
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        corpus._store.payload_path("t", "00002").unlink()
        with pytest.raises(FileNotFoundError, match="missing shard"):
            ShardedCorpus.open(tmp_path, name="t")

    def test_corrupt_manifest_self_heals_on_build_or_open(self, tmp_path):
        # A SIGINT used to be able to leave a truncated manifest that wedged
        # every later run; a corrupt manifest must now read as "absent" so
        # build_or_open rebuilds.
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        corpus.manifest_path.write_text('{"name": "t", "shard_len')  # truncated
        with pytest.raises(FileNotFoundError, match="unreadable"):
            ShardedCorpus.open(tmp_path, name="t")
        healed = ShardedCorpus.build_or_open(ITEMS, tmp_path, name="t", shard_size=5)
        assert healed.fetch(range(23)) == ITEMS
        assert ShardedCorpus.open(tmp_path, name="t").fingerprint() == healed.fingerprint()

    def test_build_uses_store_digests_without_rereading(self, tmp_path):
        from repro.train import ArtifactStore

        store = ArtifactStore(tmp_path)
        digest = store.save("stage", "k", [1, 2, 3])
        assert digest is not None and len(digest) == 64
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        # The manifest digests are prefixes of the store's payload sha256s.
        import hashlib
        payload = corpus._store.payload_path("t", "00000").read_bytes()
        assert corpus.shard_digests[0] == hashlib.sha256(payload).hexdigest()[:16]

    def test_invalid_shard_size(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedCorpus.build(ITEMS, tmp_path, shard_size=0)

    def test_poisoned_prefetch_warns_counts_and_reraises_on_that_shard(
        self, tmp_path
    ):
        """ISSUE 10 bugfix: a failed background prefetch used to surface as an
        unexplained later error; it must warn once, count, and re-raise the
        captured exception eagerly on the next load of *that* shard only."""
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        corpus._store.payload_path("t", "00002").write_bytes(b"\x80not a pickle")

        corpus.prefetch(2)
        with pytest.warns(RuntimeWarning, match="background prefetch of shard 2"):
            with pytest.raises(Exception) as excinfo:
                corpus.load_shard(2)
        assert not isinstance(excinfo.value, AssertionError)
        assert corpus.stats()["prefetch_failures"] == 1

        # Other shards stay loadable; the failure does not wedge the corpus.
        assert corpus.load_shard(0) == ITEMS[:5]
        assert corpus.fetch([21]) == ["item-21"]

    def test_prefetch_failure_warns_once_and_retry_clears_it(self, tmp_path):
        corpus = ShardedCorpus.build(ITEMS, tmp_path, name="t", shard_size=5)
        payload_path = corpus._store.payload_path("t", "00001")
        good_bytes = payload_path.read_bytes()
        payload_path.write_bytes(b"garbage")

        corpus.prefetch(1)
        with pytest.warns(RuntimeWarning, match="warning once per corpus"):
            with pytest.raises(Exception):
                corpus.load_shard(1)

        # Heal the shard: a successful retry loads cleanly, and further
        # failures no longer warn (once per corpus).
        payload_path.write_bytes(good_bytes)
        assert corpus.load_shard(1) == ITEMS[5:10]
        payload_path.write_bytes(b"garbage again")
        corpus._cache.clear()
        corpus._cache_order.clear()
        corpus.prefetch(1)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(Exception) as excinfo:
                corpus.load_shard(1)
        assert not isinstance(excinfo.value, RuntimeWarning)
        assert corpus.stats()["prefetch_failures"] == 2


class TestShardStreamPlan:
    def _collect(self, plan, rng, steps):
        batches = []
        for step in range(steps):
            batch = plan.batch_indices(step, rng)
            batches.append(None if batch is None else np.asarray(batch))
        return batches

    def test_each_pass_covers_every_item_once(self):
        plan = ShardStreamPlan(23, batch_size=4, shard_size=5, num_epochs=2)
        rng = np.random.default_rng(0)
        batches = self._collect(plan, rng, plan.total_steps())
        per_pass = plan.steps_per_pass
        for start in (0, per_pass):
            seen = np.concatenate([b for b in batches[start : start + per_pass] if b is not None])
            np.testing.assert_array_equal(np.sort(seen), np.arange(23))

    def test_batches_are_shard_local(self):
        plan = ShardStreamPlan(23, batch_size=4, shard_size=5, num_epochs=1)
        rng = np.random.default_rng(1)
        for batch in self._collect(plan, rng, plan.total_steps()):
            if batch is None:
                continue
            shards = set(int(i) // 5 for i in batch)
            assert len(shards) == 1

    def test_min_batch_size_skips_ragged_tails(self):
        plan = ShardStreamPlan(10, batch_size=3, shard_size=5, num_epochs=1,
                               min_batch_size=2)
        rng = np.random.default_rng(2)
        batches = self._collect(plan, rng, plan.total_steps())
        # Each 5-item shard yields batches of 3 and 2 — none skipped here…
        assert all(b is not None for b in batches)
        plan2 = ShardStreamPlan(11, batch_size=5, shard_size=11, num_epochs=1,
                                min_batch_size=2)
        batches2 = self._collect(plan2, np.random.default_rng(3), plan2.total_steps())
        # …but an 11-item shard with batch 5 leaves a singleton tail: skipped.
        assert batches2[-1] is None

    def test_num_steps_cycles_passes(self):
        plan = ShardStreamPlan(8, batch_size=4, shard_size=4, num_steps=7)
        assert plan.total_steps() == 7
        assert plan.steps_per_pass == 2
        rng = np.random.default_rng(4)
        batches = self._collect(plan, rng, 7)
        assert all(b is not None for b in batches)
        assert plan.epochs_completed(7) == 3

    def test_resume_mid_pass_is_bit_identical(self):
        def fresh():
            return ShardStreamPlan(23, batch_size=4, shard_size=5, num_epochs=2)

        reference_rng = np.random.default_rng(7)
        reference_plan = fresh()
        reference = self._collect(reference_plan, reference_rng, reference_plan.total_steps())

        plan = fresh()
        rng = np.random.default_rng(7)
        resume_at = 7  # mid-shard, mid-pass
        first_half = self._collect(plan, rng, resume_at)
        state = plan.state_dict()
        rng_state = rng.bit_generator.state

        resumed_plan = fresh()
        resumed_plan.load_state_dict(state)
        resumed_rng = np.random.default_rng(7)
        resumed_rng.bit_generator.state = rng_state
        second_half = [
            resumed_plan.batch_indices(step, resumed_rng)
            for step in range(resume_at, reference_plan.total_steps())
        ]
        combined = first_half + [
            None if b is None else np.asarray(b) for b in second_half
        ]
        assert len(combined) == len(reference)
        for got, want in zip(combined, reference):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_mid_pass_without_state_raises(self):
        plan = ShardStreamPlan(23, batch_size=4, shard_size=5, num_epochs=1)
        with pytest.raises(RuntimeError, match="resume state"):
            plan.batch_indices(3, np.random.default_rng(0))

    def test_prefetch_hints_reach_the_corpus(self, tmp_path):
        corpus = ShardedCorpus.build(list(range(20)), tmp_path, name="t", shard_size=5)
        plan = ShardStreamPlan(20, batch_size=5, shard_size=5, num_epochs=1,
                               corpus=corpus)
        rng = np.random.default_rng(0)
        for step in range(plan.total_steps()):
            batch = plan.batch_indices(step, rng)
            corpus.fetch(batch)
        assert corpus.stats()["prefetch_hits"] >= 1

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one item"):
            ShardStreamPlan(0, batch_size=2, shard_size=4, num_steps=1)
        with pytest.raises(ValueError, match="shard_size"):
            ShardStreamPlan(5, batch_size=2, shard_size=0, num_steps=1)
        with pytest.raises(ValueError, match="exactly one"):
            ShardStreamPlan(5, batch_size=2, shard_size=4)
        with pytest.raises(ValueError, match="exactly one"):
            ShardStreamPlan(5, batch_size=2, shard_size=4, num_steps=1, num_epochs=1)
        corpus = ShardedCorpus.build(list(range(6)), tmp_path, name="t", shard_size=3)
        with pytest.raises(ValueError, match="built for"):
            ShardStreamPlan(5, batch_size=2, shard_size=3, num_steps=1, corpus=corpus)
