"""Thread-based micro-batching for concurrent encode/query traffic.

The batched TAG engine (PR 1) made *one* caller with many graphs fast; a
serving deployment has the opposite shape — many concurrent callers with one
graph each.  :class:`BatchScheduler` bridges the two: callers submit single
items and immediately get a future, while one worker thread drains the queue
into micro-batches and hands each batch to a user-supplied batched function
(``NetTAG.encode_batch`` under the hood in :class:`~repro.serve.service.NetTAGService`).

A batch is flushed when it reaches ``max_batch_size`` or when its oldest
request has waited ``max_latency_ms`` — the standard size-or-deadline policy,
so throughput under load comes from full batches and latency when idle is
bounded by the deadline.  Running all model calls on the single worker thread
also makes the (thread-unsafe) LRU expression cache safe under concurrency
without any locking on the hot path.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class SchedulerClosed(RuntimeError):
    """Raised by :meth:`BatchScheduler.submit` after the scheduler is closed."""


class BatchScheduler:
    """Coalesces concurrent single-item requests into batched calls.

    ``batch_fn`` receives a list of items and must return one result per item,
    in order.  A result that is an exception instance fails just that
    request; if ``batch_fn`` raises, every request in that batch receives the
    exception (later batches are unaffected).
    """

    def __init__(
        self,
        batch_fn: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 32,
        max_latency_ms: float = 10.0,
        name: str = "batch-scheduler",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_latency_ms < 0:
            raise ValueError("max_latency_ms must be non-negative")
        self.batch_fn = batch_fn
        self.max_batch_size = int(max_batch_size)
        self.max_latency = float(max_latency_ms) / 1000.0
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: List[Tuple[Any, Future, float]] = []
        self._closed = False
        # Counters (guarded by _lock).
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._batches = 0
        self._full_flushes = 0
        self._deadline_flushes = 0
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, item: Any) -> "Future[Any]":
        """Enqueue one item; returns a future resolved by the worker thread.

        Raises :class:`SchedulerClosed` once :meth:`close` has been called —
        including when the submit races the close: an item either lands in the
        queue before the close flag is set (and is then drained and completed
        by the worker) or the call raises.  It never hangs.
        """
        future: "Future[Any]" = Future()
        with self._lock:
            # A dead worker (it should never die — see _run — but a custom
            # Future-like object or interpreter teardown could still kill it)
            # would strand anything we enqueue, so refuse rather than hang.
            if self._closed or not self._worker.is_alive():
                raise SchedulerClosed("scheduler is closed")
            self._queue.append((item, future, time.monotonic()))
            self._submitted += 1
            self._wakeup.notify()
        return future

    def submit_many(self, items: Sequence[Any]) -> List["Future[Any]"]:
        """Enqueue several items; returns one future per item, in order."""
        return [self.submit(item) for item in items]

    def __call__(self, item: Any, timeout: Optional[float] = None) -> Any:
        """Blocking convenience wrapper: submit and wait for the result."""
        return self.submit(item).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _take_batch(self) -> Optional[List[Tuple[Any, Future, float]]]:
        """Block until a batch is due (full or deadline) or the scheduler closes."""
        with self._lock:
            while True:
                if self._queue:
                    if len(self._queue) >= self.max_batch_size or self._closed:
                        batch = self._queue[: self.max_batch_size]
                        del self._queue[: self.max_batch_size]
                        if len(batch) >= self.max_batch_size:
                            self._full_flushes += 1
                        else:
                            self._deadline_flushes += 1
                        return batch
                    deadline = self._queue[0][2] + self.max_latency
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        batch = self._queue[: self.max_batch_size]
                        del self._queue[: self.max_batch_size]
                        self._deadline_flushes += 1
                        return batch
                    self._wakeup.wait(timeout=remaining)
                elif self._closed:
                    return None
                else:
                    self._wakeup.wait()

    @staticmethod
    def _deliver(future: "Future[Any]", result: Any = None,
                 error: Optional[BaseException] = None) -> None:
        """Resolve one future, tolerating a concurrent cancellation.

        ``Future.cancel`` can land between our ``cancelled()`` check and the
        ``set_result``/``set_exception`` call, which then raises
        ``InvalidStateError``.  Before this guard existed, that race killed
        the worker thread — and every request still queued (or submitted
        later) hung forever.  A future that refuses delivery is already in a
        terminal state (cancelled, or failed by ``_fail_pending``), so nobody
        is waiting on the dropped value.
        """
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except Exception:
            pass

    def _run(self) -> None:
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                items = [item for item, _, _ in batch]
                try:
                    results = list(self.batch_fn(items))
                    if len(results) != len(items):
                        raise RuntimeError(
                            f"batch_fn returned {len(results)} results for {len(items)} items"
                        )
                except BaseException as error:  # propagate to every waiter
                    with self._lock:
                        self._batches += 1
                        self._failed += len(batch)
                    for _, future, _ in batch:
                        if not future.cancelled():
                            self._deliver(future, error=error)
                    continue
                failures = sum(isinstance(result, BaseException) for result in results)
                with self._lock:
                    self._batches += 1
                    self._completed += len(batch) - failures
                    self._failed += failures
                for (_, future, _), result in zip(batch, results):
                    if not future.cancelled():
                        if isinstance(result, BaseException):
                            self._deliver(future, error=result)
                        else:
                            self._deliver(future, result)
        finally:
            # Whatever takes the worker down (normally only a drained close,
            # but _deliver re-raises unexpected delivery failures), nothing
            # still queued may be left hanging: fail the stragglers and stop
            # accepting new work.
            self._fail_pending(SchedulerClosed("scheduler worker stopped"))

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            self._closed = True
            stranded = list(self._queue)
            self._queue.clear()
            self._failed += len(stranded)
            self._wakeup.notify_all()
        for _, future, _ in stranded:
            if not future.cancelled():
                self._deliver(future, error=error)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting work; by default drain the queue before returning."""
        with self._lock:
            if self._closed:
                closed_already = True
            else:
                closed_already = False
                self._closed = True
            self._wakeup.notify_all()
        if wait and not closed_already:
            self._worker.join()
        elif wait:
            self._worker.join(timeout=1.0)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (submissions now raise)."""
        with self._lock:
            return self._closed

    @property
    def queue_depth(self) -> int:
        """Number of submitted items not yet handed to ``batch_fn``.

        The admission-control signal: the asyncio front end compares this to
        its per-kind limits and sheds load (reject-with-retry-after) before
        the backlog grows unbounded.
        """
        with self._lock:
            return len(self._queue)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Request/batch counters; ``mean_batch_size`` is the batching win."""
        with self._lock:
            batches = max(self._batches, 1)
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "pending": len(self._queue),
                "batches": self._batches,
                "full_flushes": self._full_flushes,
                "deadline_flushes": self._deadline_flushes,
                "mean_batch_size": round((self._completed + self._failed) / batches, 3),
            }
