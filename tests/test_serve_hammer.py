"""Concurrency hammer: queries vs ingest vs hot-swap, adversarially.

Extends the PR 5 drain-race regression tests to the read/write-split
serving tier (ISSUE 9 satellite).  The invariants hammered here:

* **No dropped or hung futures** — every submitted request resolves
  (result or exception) within a bounded wait, whatever the interleaving
  of queries, ingest and hot swaps.
* **Generation consistency** — a response reflects *some single*
  generation of the index: rows added atomically in one ``add`` appear
  together or not at all, and a response never mixes rows of two
  hot-swapped corpora.
* **Stats conservation** — after a drain the scheduler's counters satisfy
  ``submitted == completed + failed`` with nothing pending, and the
  frontend's per-kind counters balance the same way.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.netlist import extract_register_cones
from repro.rtl import make_controller
from repro.serve import (
    AdmissionError,
    AsyncFrontend,
    DeadlineExceeded,
    FrontendClosed,
    NetTAGService,
    SchedulerClosed,
)
from repro.synth import synthesize

QUERY_THREADS = 4
INGEST_THREADS = 2
QUERIES_PER_THREAD = 25
RESULT_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def corpus():
    net_a = synthesize(make_controller("ham_a", seed=41, num_states=4, data_width=4)).netlist
    net_b = synthesize(make_controller("ham_b", seed=42, num_states=5, data_width=3)).netlist
    return [net_a, net_b]


@pytest.fixture(scope="module")
def cones(corpus):
    return extract_register_cones(corpus[0])


@pytest.fixture()
def service(small_model, corpus, tmp_path):
    index = NetTAGService.create_index(small_model, tmp_path / "hammer", shard_size=32)
    with NetTAGService(small_model, index=index, max_latency_ms=2.0) as svc:
        svc.add_netlists(corpus)
        yield svc


class TestQueryIngestHammer:
    def test_queries_never_drop_while_ingest_and_compact_run(self, service, cones):
        """N query threads + M ingest threads + a compact/hot-swap loop."""
        errors: list = []
        stop = threading.Event()
        resolved = [0]
        resolved_lock = threading.Lock()

        def query_worker(slot: int) -> None:
            rng = np.random.default_rng(slot)
            try:
                for i in range(QUERIES_PER_THREAD):
                    cone = cones[int(rng.integers(0, len(cones)))]
                    future = service.submit_query(cone, "cone", k=3)
                    hits = future.result(timeout=RESULT_TIMEOUT)
                    assert hits, "query returned no hits"
                    with resolved_lock:
                        resolved[0] += 1
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        def ingest_worker(slot: int) -> None:
            try:
                batch = 0
                while not stop.is_set():
                    service.add_cones(f"ingest{slot}_{batch}", cones[:3], flush=False)
                    batch += 1
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def maintenance_worker() -> None:
            try:
                while not stop.is_set():
                    service.compact()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=query_worker, args=(slot,))
            for slot in range(QUERY_THREADS)
        ]
        threads += [
            threading.Thread(target=ingest_worker, args=(slot,), daemon=True)
            for slot in range(INGEST_THREADS)
        ]
        threads.append(threading.Thread(target=maintenance_worker, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads[:QUERY_THREADS]:
            thread.join(timeout=300)
            assert not thread.is_alive(), "query thread hung"
        stop.set()
        for thread in threads[QUERY_THREADS:]:
            thread.join(timeout=60)
            assert not thread.is_alive(), "background thread hung"

        assert not errors, errors
        assert resolved[0] == QUERY_THREADS * QUERIES_PER_THREAD
        stats = service.stats()
        scheduler = stats["scheduler"]
        assert scheduler["submitted"] == scheduler["completed"] + scheduler["failed"] + scheduler["pending"]
        assert stats["snapshots"]["pinned_readers"] == 0

    def test_scheduler_conserves_counts_after_drain(self, service, cones):
        futures = [service.submit_query(cones[i % len(cones)], "cone", k=2) for i in range(40)]
        service._scheduler.close()
        outcomes = 0
        for future in futures:
            try:
                assert future.result(timeout=RESULT_TIMEOUT)
                outcomes += 1
            except SchedulerClosed:
                outcomes += 1
        assert outcomes == len(futures), "a future was dropped"
        stats = service._scheduler.stats()
        assert stats["submitted"] == stats["completed"] + stats["failed"]
        assert stats["pending"] == 0


class TestGenerationConsistency:
    def test_atomic_pairs_appear_together_or_not_at_all(self, service, small_model):
        """Rows added in one ``add`` call are visible atomically to readers."""
        index = service.index
        dim = small_model.index_dim
        rng = np.random.default_rng(77)
        marker = rng.normal(size=dim)
        marker /= np.linalg.norm(marker)
        errors: list = []
        stop = threading.Event()

        def writer() -> None:
            try:
                for i in range(60):
                    pair = np.stack([marker, marker])
                    with service._index_lock:
                        index.add([f"pair{i}_a", f"pair{i}_b"], pair, kinds="cone")
                        service.read_path.snapshots.refresh()
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    hits = service.query(marker, "vector", to_kind="cone", k=2)
                    keys = {hit.key for hit in hits}
                    pair_keys = {key for key in keys if key.startswith("pair")}
                    if pair_keys:
                        # Top-2 for the marker vector is exactly one atomic
                        # pair (all pairs score 1.0; ties broken by
                        # insertion order) — seeing only half a pair means a
                        # torn read.
                        suffixes = {key.split("_")[-1] for key in pair_keys}
                        ids = {key.split("_")[0] for key in pair_keys}
                        assert len(ids) == 1 and suffixes == {"a", "b"}, (
                            f"torn read: {keys}"
                        )
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "hammer thread hung"
        assert not errors, errors

    def test_hot_swap_responses_never_mix_corpora(self, service, small_model, tmp_path):
        """Under a swap loop, each response's rows come from one corpus."""
        dim = small_model.index_dim
        rng = np.random.default_rng(5)
        probe = rng.normal(size=dim)
        probe /= np.linalg.norm(probe)

        def build(tag: str):
            index = NetTAGService.create_index(
                small_model, tmp_path / f"swap-{tag}", shard_size=32, overwrite=True
            )
            noise = rng.normal(size=(20, dim)) * 0.01
            index.add([f"{tag}_{i}" for i in range(20)], probe + noise, kinds="cone")
            index.save()
            return index

        index_a, index_b = build("A"), build("B")
        service.swap_index(index_a)
        errors: list = []
        stop = threading.Event()

        def swapper() -> None:
            try:
                for i in range(40):
                    service.swap_index(index_b if i % 2 == 0 else index_a)
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                stop.set()

        def reader() -> None:
            try:
                while not stop.is_set():
                    hits = service.query(probe, "vector", to_kind="cone", k=5)
                    prefixes = {hit.key.split("_")[0] for hit in hits}
                    assert len(prefixes) == 1, f"mixed-corpus response: {prefixes}"
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=swapper)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "swap hammer thread hung"
        assert not errors, errors


class TestFrontendDrainRace:
    """The PR 5 drain-race regressions, restated against the async front end."""

    def test_submissions_racing_drain_resolve_or_refuse(self, service, cones):
        async def main():
            frontend = AsyncFrontend(service, limits={"query": 64})

            async def client(i: int):
                try:
                    return await frontend.query_cone(cones[i % len(cones)], k=2)
                except (FrontendClosed, AdmissionError, DeadlineExceeded) as error:
                    return error

            tasks = [asyncio.ensure_future(client(i)) for i in range(30)]
            await asyncio.sleep(0.01)
            drain = asyncio.ensure_future(frontend.aclose())
            tasks += [asyncio.ensure_future(client(100 + i)) for i in range(10)]
            results = await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)
            await drain

            assert len(results) == 40, "a frontend future was dropped"
            hung = [r for r in results if r is None]
            assert not hung
            kinds = frontend.stats()["kinds"]["query"]
            assert (
                kinds["admitted"]
                == kinds["completed"] + kinds["failed"] + kinds["timeouts"]
            )
            assert kinds["inflight"] == 0
            served = sum(1 for r in results if isinstance(r, list))
            assert served >= 1, "drain refused everything, including pre-drain work"

        asyncio.run(main())
