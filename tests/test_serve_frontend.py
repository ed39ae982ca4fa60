"""Deadline/backpressure unit tests for the asyncio front end.

The contract under test (ISSUE 9 satellite): a slow encoder produces
*timeouts*, never hangs; an over-limit queue rejects with a retry-after
hint instead of buffering; a graceful drain completes in-flight requests
and refuses new ones.  Everything runs against a real
:class:`NetTAGService` + scheduler — the stalls are injected by wrapping
the scheduler's batch function, exactly where a production stall appears.
"""

from __future__ import annotations

import asyncio
import time

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
)
from repro.synth import synthesize


@pytest.fixture(scope="module")
def corpus():
    net_a = synthesize(make_controller("fe_a", seed=31, num_states=4, data_width=4)).netlist
    net_b = synthesize(make_controller("fe_b", seed=32, num_states=5, data_width=3)).netlist
    return [net_a, net_b]


@pytest.fixture(scope="module")
def cones(corpus):
    return extract_register_cones(corpus[0])


@pytest.fixture()
def service(small_model, corpus, tmp_path):
    index = NetTAGService.create_index(small_model, tmp_path / "fe-index", shard_size=16)
    with NetTAGService(small_model, index=index, max_latency_ms=2.0) as svc:
        svc.add_netlists(corpus)
        yield svc


def run(coro):
    return asyncio.run(coro)


class _Stall:
    """Wraps the scheduler's batch function with a controllable delay."""

    def __init__(self, scheduler, seconds):
        self.original = scheduler.batch_fn
        self.seconds = seconds
        self.scheduler = scheduler
        scheduler.batch_fn = self

    def __call__(self, items):
        time.sleep(self.seconds)
        return self.original(items)

    def undo(self):
        self.scheduler.batch_fn = self.original


class TestHappyPath:
    def test_query_encode_ingest_roundtrip(self, service, corpus, cones):
        async def main():
            async with AsyncFrontend(service) as frontend:
                hits = await frontend.query_cone(cones[0], k=3)
                assert hits and hits[0].score > 0.99
                vector = await frontend.encode_cone(cones[0])
                direct = await frontend.query(vector, "vector", k=3)
                assert {h.key for h in direct} == {h.key for h in hits}
                added = await frontend.add_netlists(corpus)
                assert added > 0
                stats = frontend.stats()
                assert stats["kinds"]["query"]["completed"] == 2
                assert stats["kinds"]["encode"]["completed"] == 1
                assert stats["kinds"]["ingest"]["completed"] == 1

        run(main())

    def test_concurrent_fanout_all_resolve(self, service, cones):
        async def main():
            requests = (cones * 3)[:24]
            async with AsyncFrontend(service, limits={"query": len(requests)}) as frontend:
                rows = await asyncio.gather(
                    *[frontend.query_cone(cone, k=2) for cone in requests]
                )
                assert all(rows)
                stats = frontend.stats()["kinds"]["query"]
                assert stats["completed"] == len(requests)
                assert stats["rejected"] == 0 and stats["inflight"] == 0

        run(main())


class TestDeadlines:
    def test_slow_encoder_times_out_instead_of_hanging(self, service, cones):
        stall = _Stall(service._scheduler, 1.0)
        try:
            async def main():
                async with AsyncFrontend(service, deadline=0.1) as frontend:
                    start = time.monotonic()
                    with pytest.raises(DeadlineExceeded):
                        await frontend.query_cone(cones[0], k=2)
                    assert time.monotonic() - start < 0.8, "timeout fired late"
                    stats = frontend.stats()["kinds"]["query"]
                    assert stats["timeouts"] == 1 and stats["inflight"] == 0

            run(main())
        finally:
            stall.undo()

    def test_per_request_deadline_overrides_default(self, service, cones):
        stall = _Stall(service._scheduler, 0.4)
        try:
            async def main():
                async with AsyncFrontend(service, deadline=30.0) as frontend:
                    with pytest.raises(DeadlineExceeded):
                        await frontend.query_cone(cones[0], k=2, deadline=0.05)
                    # The generous default still succeeds.
                    hits = await frontend.query_cone(cones[0], k=2)
                    assert hits

            run(main())
        finally:
            stall.undo()

    def test_timed_out_request_releases_its_slot(self, service, cones):
        stall = _Stall(service._scheduler, 0.5)
        try:
            async def main():
                async with AsyncFrontend(service, limits={"query": 1}) as frontend:
                    with pytest.raises(DeadlineExceeded):
                        await frontend.query_cone(cones[0], k=2, deadline=0.05)
                    # The slot freed by the timeout admits the next request.
                    hits = await frontend.query_cone(cones[0], k=2)
                    assert hits

            run(main())
        finally:
            stall.undo()


class TestBackpressure:
    def test_over_limit_queue_rejects_with_retry_after(self, service, cones):
        stall = _Stall(service._scheduler, 0.5)
        try:
            async def main():
                async with AsyncFrontend(
                    service, limits={"query": 2}, retry_after=0.125
                ) as frontend:
                    first = asyncio.ensure_future(frontend.query_cone(cones[0], k=2))
                    second = asyncio.ensure_future(frontend.query_cone(cones[1], k=2))
                    await asyncio.sleep(0.05)  # both admitted, still stalled
                    with pytest.raises(AdmissionError) as excinfo:
                        await frontend.query_cone(cones[0], k=2)
                    error = excinfo.value
                    assert error.kind == "query"
                    assert error.limit == 2 and error.depth == 2
                    assert error.retry_after == 0.125
                    assert (await asyncio.gather(first, second))
                    stats = frontend.stats()["kinds"]["query"]
                    assert stats["rejected"] == 1 and stats["completed"] == 2

            run(main())
        finally:
            stall.undo()

    def test_limits_are_per_kind(self, service, cones):
        stall = _Stall(service._scheduler, 0.4)
        try:
            async def main():
                async with AsyncFrontend(service, limits={"query": 1}) as frontend:
                    pending = asyncio.ensure_future(frontend.query_cone(cones[0], k=2))
                    await asyncio.sleep(0.05)
                    # The query queue is full; the encode queue still admits.
                    vector = await frontend.encode_cone(cones[0])
                    assert vector.shape
                    await pending

            run(main())
        finally:
            stall.undo()

    def test_unknown_kind_and_bad_limits_rejected(self, service):
        with pytest.raises(ValueError):
            AsyncFrontend(service, limits={"nonsense": 3})
        with pytest.raises(ValueError):
            AsyncFrontend(service, limits={"query": 0})
        with pytest.raises(ValueError):
            AsyncFrontend(service, retry_after=0.0)
        with pytest.raises(ValueError):
            AsyncFrontend(service, deadline=-1.0)


class TestGracefulDrain:
    def test_drain_completes_inflight_and_refuses_new(self, service, cones):
        stall = _Stall(service._scheduler, 0.2)
        try:
            async def main():
                frontend = AsyncFrontend(service)
                inflight = asyncio.ensure_future(frontend.query_cone(cones[0], k=2))
                await asyncio.sleep(0.05)
                drain = asyncio.ensure_future(frontend.drain())
                await asyncio.sleep(0)  # drain() flips closed before waiting
                with pytest.raises(FrontendClosed):
                    await frontend.query_cone(cones[1], k=2)
                assert await inflight, "in-flight request must complete"
                await drain
                assert frontend.closed
                await frontend.aclose()

            run(main())
        finally:
            stall.undo()

    def test_drain_idempotent_and_immediate_when_idle(self, service):
        async def main():
            frontend = AsyncFrontend(service)
            await asyncio.wait_for(frontend.drain(), timeout=1.0)
            await asyncio.wait_for(frontend.aclose(), timeout=1.0)

        run(main())

    def test_stats_conservation(self, service, cones):
        """admitted == completed + failed + timeouts + rejected-not-counted."""
        stall = _Stall(service._scheduler, 0.3)
        try:
            async def main():
                async with AsyncFrontend(
                    service, limits={"query": 2}, deadline=5.0
                ) as frontend:
                    tasks = [
                        asyncio.ensure_future(frontend.query_cone(cones[0], k=2)),
                        asyncio.ensure_future(frontend.query_cone(cones[1], k=2)),
                        asyncio.ensure_future(
                            frontend.query_cone(cones[0], k=2, deadline=0.05)
                        ),
                    ]
                    results = await asyncio.gather(*tasks, return_exceptions=True)
                    kinds = frontend.stats()["kinds"]["query"]
                    rejected_or_timed = sum(
                        isinstance(r, (AdmissionError, DeadlineExceeded))
                        for r in results
                    )
                    assert rejected_or_timed >= 1
                    assert (
                        kinds["admitted"]
                        == kinds["completed"] + kinds["failed"] + kinds["timeouts"]
                    )
                    assert kinds["inflight"] == 0

            run(main())
        finally:
            stall.undo()


class TestEmbeddingVectorQueries:
    def test_vector_query_rides_the_micro_batch(self, service, cones):
        async def main():
            async with AsyncFrontend(service) as frontend:
                vector = np.asarray(await frontend.encode_cone(cones[0]))
                hits = await frontend.query(vector, "vector", k=2)
                assert hits and hits[0].score > 0.99
                approx = await frontend.query(vector, "vector", k=2, algorithm="hnsw")
                assert approx and approx[0].score > 0.99

        run(main())
