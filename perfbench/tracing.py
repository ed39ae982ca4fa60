"""Spans recorded around the program's public entry points, from outside.

The traced run patches a fixed list of public functions (see
:func:`install`) with thin wrappers that record one span per call: name,
start, end, parent span and the operations the call served.  Nothing inside
``src/`` changes; every patch is undone by :meth:`Tracer.uninstall`.  Spans
stay in memory and are summarised into per-layer metrics when the run ends.

Operation attribution:

* a client sets its operation with :meth:`Tracer.operation` (a context
  variable, so each asyncio task and each client thread carries its own);
* ``BatchScheduler.submit`` remembers the submitting operation per queued
  item, and the flush span of ``batch_fn`` serves the operations of the
  items it flushes; the gap from submit to flush start is that operation's
  queue wait;
* calls on threads no client runs on (the frontend's ingest workers, the
  training loop) belong to :attr:`Tracer.ambient_op`, which the workload
  sets to the one write or training step in flight;
* a nested span serves whatever its parent serves.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


class Span:
    """One call into a layer."""

    __slots__ = ("sid", "name", "start", "end", "parent", "ops", "size")

    def __init__(self, sid, name, start, parent, ops, size) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ops = ops
        self.size = size

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: Dict[int, Tuple[str, float, float]] = {}
        self.queue_waits: List[Tuple[int, float, float]] = []
        self.ambient_op: Optional[int] = None
        self.flush_capacity: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submitted: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.segment_counts: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def new_op(self) -> int:
        return next(self._ids)

    def record_op(self, op: int, kind: str, start: float, end: float) -> None:
        self.ops[op] = (kind, start, end)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """Mark the calls made inside the block as serving one operation."""
        op = self.new_op()
        token = _CURRENT_OP.set(op)
        start = time.perf_counter()
        try:
            yield op
        finally:
            self.record_op(op, kind, start, time.perf_counter())
            _CURRENT_OP.reset(token)

    def _root_ops(self) -> Tuple[int, ...]:
        op = _CURRENT_OP.get()
        if op is None:
            op = self.ambient_op
        return () if op is None else (op,)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0, ops: Optional[Tuple[int, ...]] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ops is None:
            ops = parent.ops if parent is not None else self._root_ops()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.sid if parent is not None else None,
            ops,
            size,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, size_of: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, size=size_of(args, kwargs) if size_of else 0):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Scheduler hooks: queue wait is submit -> flush start per item
    # ------------------------------------------------------------------
    def _wrap_scheduler(self, scheduler_cls) -> None:
        original_submit = scheduler_cls.__dict__["submit"]
        original_init = scheduler_cls.__dict__["__init__"]
        tracer = self

        @functools.wraps(original_submit)
        def submit(self_, item):
            with tracer.span("scheduler.submit") as span:
                tracer._submitted[id(item)] = (span.start, span.ops)
                return original_submit(self_, item)

        @functools.wraps(original_init)
        def init(self_, batch_fn, *args, **kwargs):
            def traced_batch_fn(items):
                flush_start = time.perf_counter()
                ops: List[int] = []
                for item in items:
                    submitted = tracer._submitted.pop(id(item), None)
                    if submitted is None:
                        continue
                    for op in submitted[1]:
                        tracer.queue_waits.append((op, submitted[0], flush_start))
                    ops.extend(submitted[1])
                with tracer.span("scheduler.flush", size=len(items), ops=tuple(ops)):
                    return batch_fn(items)

            original_init(self_, traced_batch_fn, *args, **kwargs)
            tracer.flush_capacity = self_.max_batch_size

        self.patch(scheduler_cls, "submit", submit)
        self.patch(scheduler_cls, "__init__", init)

    def _wrap_exact_topk(self) -> None:
        from repro.serve import search

        original = search.exact_topk
        tracer = self

        @functools.wraps(original)
        def exact_topk(index, queries, *args, **kwargs):
            rows = 1 if getattr(queries, "ndim", 1) == 1 else len(queries)
            with tracer.span("search.exact_topk", size=rows) as span:
                result = original(index, queries, *args, **kwargs)
            tracer.segment_counts.append((span.sid, len(index.search_metadata())))
            return result

        # The function is bound by name in every module that imports it.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                module.__dict__.get("exact_topk") is original
            ):
                self.patch(module, "exact_topk", exact_topk)


def _len_arg(position: int, keyword: str) -> Callable:
    def size_of(args: Sequence, kwargs: Dict) -> int:
        value = args[position] if len(args) > position else kwargs.get(keyword, ())
        return len(value)

    return size_of


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program."""
    from repro import nn
    from repro.core import NetTAG
    from repro.encoders import ExprLLM, TAGFormer
    from repro.nn import Tensor
    from repro.pretrain import TAGFormerPretrainer
    from repro.serve import BatchScheduler, EmbeddingIndex, ReplicaPool, SnapshotManager

    tracer._wrap_scheduler(BatchScheduler)
    tracer.wrap(NetTAG, "encode_batch", "nettag.encode_batch", _len_arg(1, "cones"))
    tracer.wrap(ExprLLM, "encode_texts", "expr_llm.encode_texts", _len_arg(1, "texts"))
    tracer.wrap(TAGFormer, "forward_batch", "tagformer.forward_batch")
    tracer._wrap_exact_topk()
    tracer.wrap(EmbeddingIndex, "add", "index.add", _len_arg(1, "keys"))
    tracer.wrap(EmbeddingIndex, "save", "index.save")
    tracer.wrap(SnapshotManager, "refresh", "snapshot.refresh")
    tracer.wrap(ReplicaPool, "query", "replica.query")
    tracer.wrap(TAGFormerPretrainer, "batch_loss", "tag_pretrain.batch_loss", _len_arg(1, "batch"))
    tracer.wrap(Tensor, "backward", "tensor.backward")
    for optimizer_cls in nn.Optimizer.__subclasses__():
        if "step" in optimizer_cls.__dict__:
            tracer.wrap(optimizer_cls, "step", "optim.step")


# ----------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ----------------------------------------------------------------------
# A layer a workload never calls reports 0.
def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for begin, finish in sorted(intervals):
        begin, finish = max(begin, cursor), min(finish, end)
        if finish > begin:
            total += finish - begin
            cursor = finish
    return total


def unaccounted_share(tracer: Tracer) -> float:
    """Share of operation wall time covered by no top-level layer span.

    Top-level spans are those with no parent on their thread; the queue wait
    between submit and flush counts as covered (the scheduler layer).
    """
    intervals: Dict[int, List[Tuple[float, float]]] = {op: [] for op in tracer.ops}
    for span in tracer.spans:
        if span.parent is None:
            for op in span.ops:
                if op in intervals:
                    intervals[op].append((span.start, span.end))
    for op, begin, finish in tracer.queue_waits:
        if op in intervals:
            intervals[op].append((begin, finish))
    wall = covered = 0.0
    for op, (_, start, end) in tracer.ops.items():
        wall += end - start
        covered += _covered(intervals[op], start, end)
    return 1.0 - covered / wall if wall > 0 else 0.0


def layer_metrics(tracer: Tracer, spans_from: int, spans_to: Optional[int]) -> Dict[str, float]:
    """Per-layer figures from the spans of the measured window and its checks."""
    spans = tracer.spans[spans_from:spans_to]
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def ms(name: str) -> float:
        return _median([span.ms for span in by_name.get(name, ())])

    def sizes(name: str) -> List[int]:
        return [span.size for span in by_name.get(name, ())]

    flushes = by_name.get("scheduler.flush", [])
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None and span.name in ("nettag.encode_batch", "search.exact_topk"):
            children[span.parent] = children.get(span.parent, 0.0) + span.ms
    capacity = tracer.flush_capacity or 0
    searches = {span.sid for span in by_name.get("search.exact_topk", ())}
    waits = [
        1e3 * (finish - begin)
        for op, begin, finish in tracer.queue_waits
        if op in tracer.ops
    ]
    return {
        "scheduler.queue_wait_ms": _median(waits),
        "scheduler.flush_ms": ms("scheduler.flush"),
        "scheduler.batch_size": _mean(sizes("scheduler.flush")),
        "scheduler.deadline_flush_ratio": _mean(
            [1.0 if span.size < capacity else 0.0 for span in flushes]
        ),
        "nettag.encode_ms": ms("nettag.encode_batch"),
        "nettag.cones_per_call": _mean(sizes("nettag.encode_batch")),
        "expr_llm.encode_ms": ms("expr_llm.encode_texts"),
        "expr_llm.texts_encoded": float(sum(sizes("expr_llm.encode_texts"))),
        "tagformer.forward_ms": ms("tagformer.forward_batch"),
        "search.exact_ms": ms("search.exact_topk"),
        "search.queries_per_call": _mean(sizes("search.exact_topk")),
        "search.segments": _mean(
            [count for sid, count in tracer.segment_counts if sid in searches]
        ),
        "index.add_ms": ms("index.add"),
        "index.save_ms": ms("index.save"),
        "snapshot.refresh_ms": ms("snapshot.refresh"),
        "snapshot.refreshes": float(len(by_name.get("snapshot.refresh", ()))),
        "service.lock_wait_ms": _median(
            [span.ms - children.get(span.sid, 0.0) for span in flushes]
        ),
        "replica.roundtrip_ms": ms("replica.query"),
        "tag_pretrain.loss_ms": ms("tag_pretrain.batch_loss"),
        "tensor.backward_ms": ms("tensor.backward"),
        "optim.step_ms": ms("optim.step"),
        "trace.unaccounted_share": unaccounted_share(tracer),
    }
