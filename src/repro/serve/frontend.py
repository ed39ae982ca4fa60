"""Asyncio front end with admission control for :class:`NetTAGService`.

The service's thread-based API is happy to accept unbounded work: every
``submit_*`` call lands in the scheduler queue, and under sustained overload
the backlog (and every caller's latency) grows without limit.
:class:`AsyncFrontend` is the load-shedding boundary a deployment puts in
front of it:

* **Bounded per-kind queues** — requests are classified as ``encode``,
  ``query`` or ``ingest``, each with its own in-flight limit, so a burst of
  cheap queries cannot be starved by a bulk ingest (or vice versa).
* **Backpressure, not buffering** — a request arriving when its kind is at
  its limit is rejected *immediately* with :class:`AdmissionError` carrying a
  ``retry_after`` hint, the standard overload contract (HTTP 429/503 +
  Retry-After) instead of a silently growing queue.
* **Per-request deadlines** — every awaitable takes a ``deadline`` (seconds;
  the frontend default applies when omitted).  A stalled encoder produces
  :class:`DeadlineExceeded` for the caller and a cancelled scheduler future,
  never a hung coroutine.
* **Graceful drain** — :meth:`drain` stops admitting new work and waits for
  everything in flight to finish; :meth:`aclose` drains and releases the
  frontend's worker threads.  Requests arriving during/after the drain get
  :class:`FrontendClosed`.

All counters are touched only on the event loop thread, so the frontend
needs no locks of its own; the thread-safe boundary is the service below it.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .search import SearchHit
from .service import CONE_KIND, NetTAGService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist import Netlist, RegisterCone

#: Default per-kind in-flight limits (requests admitted but not yet resolved).
DEFAULT_LIMITS: Dict[str, int] = {"encode": 64, "query": 64, "ingest": 4}


class FrontendClosed(RuntimeError):
    """The frontend is draining or closed; no new requests are admitted."""


class DeadlineExceeded(asyncio.TimeoutError):
    """The request missed its deadline; its scheduler future was cancelled."""


class AdmissionError(RuntimeError):
    """The request was shed: its kind's in-flight limit is reached.

    Carries the machine-readable overload contract: ``kind`` (which queue),
    ``limit``/``depth`` (the bound and where it stands) and ``retry_after``
    (seconds the client should back off before retrying).
    """

    def __init__(self, kind: str, limit: int, depth: int, retry_after: float) -> None:
        super().__init__(
            f"{kind} queue full ({depth}/{limit} in flight); retry in {retry_after}s"
        )
        self.kind = kind
        self.limit = limit
        self.depth = depth
        self.retry_after = retry_after


class AsyncFrontend:
    """Admission-controlled asyncio adapter over one :class:`NetTAGService`.

    Use as an async context manager so the drain always runs::

        async with AsyncFrontend(service, limits={"query": 128}) as frontend:
            hits = await frontend.query_cone(cone, k=5, deadline=0.5)

    The frontend classifies every request into one of three kinds —
    ``encode`` (cone/netlist embedding), ``query`` (retrieval, micro-batched)
    and ``ingest`` (index mutation, run on the frontend's worker
    threads) — and each kind admits at most ``limits[kind]`` requests at a
    time.  The frontend does not own the service: closing the frontend
    drains *its* requests but leaves the service running for other callers.
    """

    def __init__(
        self,
        service: NetTAGService,
        limits: Optional[Dict[str, int]] = None,
        deadline: Optional[float] = None,
        retry_after: float = 0.05,
    ) -> None:
        self.service = service
        self.limits = dict(DEFAULT_LIMITS)
        for kind, limit in (limits or {}).items():
            if kind not in self.limits:
                raise ValueError(
                    f"unknown request kind {kind!r}; choose from {sorted(self.limits)}"
                )
            if limit < 1:
                raise ValueError(f"limit for {kind!r} must be positive")
            self.limits[kind] = int(limit)
        if deadline is not None and deadline <= 0:
            raise ValueError("default deadline must be positive (or None)")
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.deadline = deadline
        self.retry_after = float(retry_after)
        self._inflight: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._admitted: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._rejected: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._completed: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._failed: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._timeouts: Dict[str, int] = {kind: 0 for kind in self.limits}
        self._closed = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Ingest calls block on the service's locks (and approximate
        # query submissions on a searcher fit), so they run off-loop on
        # these workers.
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.limits["ingest"]),
            thread_name_prefix="nettag-frontend",
        )

    # ------------------------------------------------------------------
    # Admission bookkeeping (event-loop thread only)
    # ------------------------------------------------------------------
    def _admit(self, kind: str) -> None:
        if self._closed:
            raise FrontendClosed("frontend is draining/closed; request refused")
        depth = self._inflight[kind]
        if depth >= self.limits[kind]:
            self._rejected[kind] += 1
            raise AdmissionError(
                kind=kind,
                limit=self.limits[kind],
                depth=depth,
                retry_after=self.retry_after,
            )
        self._inflight[kind] = depth + 1
        self._admitted[kind] += 1
        self._idle.clear()

    def _release(self, kind: str) -> None:
        self._inflight[kind] -= 1
        if not any(self._inflight.values()):
            self._idle.set()

    async def _resolve(self, kind: str, future: "Future", deadline: Optional[float]):
        """Await an admitted request's future under its deadline; release."""
        timeout = deadline if deadline is not None else self.deadline
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(future), timeout)
        except asyncio.TimeoutError:
            # The scheduler tolerates cancelled futures (PR 5's drain-race
            # fix); if the batch already started, its result is discarded.
            future.cancel()
            self._timeouts[kind] += 1
            raise DeadlineExceeded(
                f"{kind} request missed its {timeout}s deadline"
            ) from None
        except asyncio.CancelledError:
            future.cancel()
            raise
        except BaseException:
            self._failed[kind] += 1
            raise
        else:
            self._completed[kind] += 1
            return result
        finally:
            self._release(kind)

    def _submit(self, kind: str, submit) -> "Future":
        """Admit a request and obtain its future, releasing on submit failure."""
        self._admit(kind)
        try:
            return submit()
        except BaseException:
            self._failed[kind] += 1
            self._release(kind)
            raise

    # ------------------------------------------------------------------
    # Encode requests (scheduler micro-batched)
    # ------------------------------------------------------------------
    async def encode_cone(
        self, cone: "RegisterCone", deadline: Optional[float] = None
    ) -> np.ndarray:
        """Encode one register cone through the micro-batcher."""
        future = self._submit("encode", lambda: self.service.submit_cone(cone))
        return await self._resolve("encode", future, deadline)

    async def encode_netlist(self, netlist: "Netlist", deadline: Optional[float] = None):
        """Encode one circuit through the micro-batcher."""
        future = self._submit("encode", lambda: self.service.submit_netlist(netlist))
        return await self._resolve("encode", future, deadline)

    # ------------------------------------------------------------------
    # Query requests
    # ------------------------------------------------------------------
    async def query(
        self,
        item: object,
        from_kind: str,
        to_kind: Optional[str] = CONE_KIND,
        k: int = 10,
        exclude_keys: Optional[Sequence[str]] = None,
        algorithm: str = "exact",
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """Retrieve top-k through the micro-batch (see :meth:`NetTAGService.submit_query`).

        An approximate submission may first fit its searcher, so it runs on
        a frontend worker instead of the event loop.
        """
        query = functools.partial(
            self.service.submit_query, item, from_kind, to_kind=to_kind, k=k,
            exclude_keys=exclude_keys, algorithm=algorithm,
        )
        if algorithm != "exact":
            future = self._submit("query", lambda: self._executor.submit(lambda: query().result()))
        else:
            future = self._submit("query", query)
        return await self._resolve("query", future, deadline)

    async def query_cone(
        self,
        cone: "RegisterCone",
        k: int = 10,
        exclude_keys: Optional[Sequence[str]] = None,
        deadline: Optional[float] = None,
    ) -> List[SearchHit]:
        """Cone-to-cone :meth:`query`."""
        return await self.query(cone, CONE_KIND, k=k, exclude_keys=exclude_keys, deadline=deadline)

    # ------------------------------------------------------------------
    # Ingest requests (frontend worker threads; serialised by the service)
    # ------------------------------------------------------------------
    async def add_netlists(
        self,
        netlists: Sequence["Netlist"],
        flush: bool = True,
        deadline: Optional[float] = None,
    ) -> int:
        """Encode and index circuits + cones without blocking the event loop."""
        future = self._submit(
            "ingest",
            lambda: self._executor.submit(
                self.service.add_netlists, netlists, flush=flush
            ),
        )
        return await self._resolve("ingest", future, deadline)

    async def add_cones(
        self,
        netlist_name: str,
        cones: Sequence["RegisterCone"],
        flush: bool = True,
        deadline: Optional[float] = None,
    ) -> int:
        """Encode and index register cones without blocking the event loop."""
        future = self._submit(
            "ingest",
            lambda: self._executor.submit(
                self.service.add_cones, netlist_name, cones, flush=flush
            ),
        )
        return await self._resolve("ingest", future, deadline)

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the frontend has begun draining (new requests are refused)."""
        return self._closed

    async def drain(self) -> None:
        """Refuse new requests and wait until everything in flight resolves.

        Idempotent; in-flight requests run to completion (or their
        deadlines), later submissions raise :class:`FrontendClosed`.
        """
        self._closed = True
        await self._idle.wait()

    async def aclose(self) -> None:
        """Drain, then release the frontend's worker threads."""
        await self.drain()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def stats(self) -> Dict[str, object]:
        """Per-kind admission counters plus the scheduler's live queue depth."""
        per_kind = {
            kind: {
                "limit": self.limits[kind],
                "inflight": self._inflight[kind],
                "admitted": self._admitted[kind],
                "rejected": self._rejected[kind],
                "completed": self._completed[kind],
                "failed": self._failed[kind],
                "timeouts": self._timeouts[kind],
            }
            for kind in self.limits
        }
        return {
            "kinds": per_kind,
            "closed": self._closed,
            "scheduler_queue_depth": self.service._scheduler.queue_depth,
        }
