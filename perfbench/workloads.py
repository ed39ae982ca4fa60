"""The four benchmark workloads: set-up, closed-loop measurement, checks.

Every workload does a fixed number of operations drawn from a schedule that
depends only on ``--seed`` and ``--seconds`` (see ``NOMINAL_RATE``), so two
runs with the same arguments do the same work whatever the host's speed.
The program sees only inputs generated here: synthesised controller designs,
seeded filler rows and seeded operation sequences.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import math
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core import NetTAG, NetTAGConfig
from repro.netlist import extract_register_cones, netlist_to_tag
from repro.pretrain import TAGFormerPretrainer, build_pretrain_sample
from repro.rtl import make_controller
from repro.serve import (
    CONE_KIND,
    AsyncFrontend,
    NetTAGService,
    ReadReplica,
    ReplicaPool,
    cone_key,
)
from repro.synth import synthesize

from tracing import Tracer

K = 10
SCORE_ONE = 1.0 - 1e-6
INGEST_CONES = 8
ENCODE_BATCH = 32  # the scheduler's default max_batch_size
REPLICAS = 2

# Operations per second of ``--seconds``, calibrated on a 2-core host so a
# measured window lasts about ``--seconds`` (``ingest_100k`` and
# ``pretrain_tag`` ~1.4x longer: a write's latency swings with the host's
# memory bandwidth and a training step is short and Python-bound, so both
# need more operations to repeat within a tenth).
# They are constants, never measured: a run's amount of work must not depend
# on how fast the host happens to be.
NOMINAL_RATE = {
    "query_100k": 12.0,     # queries (two clients)
    "ingest_100k": 4.0,     # lockstep rounds (one write + one read)
    "replica_100k": 16.0,   # queries (two client threads)
    "pretrain_tag": 120.0,  # optimiser steps
}


@dataclass
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the harness self-test."""

    rows: int
    real_cones: int
    train_samples: int
    heldout_samples: int
    heldout_reads: int
    setup_repeats: int
    min_ops: int


FULL = Scale(rows=100_000, real_cones=300, train_samples=192, heldout_samples=32,
             heldout_reads=160, setup_repeats=3, min_ops=1)
SMOKE = Scale(rows=3_000, real_cones=40, train_samples=16, heldout_samples=8,
              heldout_reads=4, setup_repeats=2, min_ops=6)


@dataclass
class Outcome:
    """What one measured pass produced."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    window_s: float = 0.0
    units: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    read_latencies_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    digest: str = ""
    spans_from: int = 0        # spans of the measured window and its checks:
    spans_to: Optional[int] = None  # tracer.spans[spans_from:spans_to]
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, condition: bool, problem: str) -> bool:
        if not condition:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)
        return condition

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.correct = False
            self.problems.append(problem)


def op_count(workload: str, seconds: float, scale: Scale) -> int:
    return max(scale.min_ops, int(round(NOMINAL_RATE[workload] * seconds)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def synth_designs(rng: np.random.Generator, prefix: str, min_cones: int,
                  min_designs: int = 0, cones_per_design: int = 0):
    """``(name, cones)`` of synthesised controllers until enough cones exist.

    Register names are unique within a design, so ``cone_key(name, reg)`` is
    unique.  ``cones_per_design`` skips designs with fewer register cones.
    """
    designs: List[Tuple[str, list]] = []
    total = 0
    i = 0
    while total < min_cones or len(designs) < min_designs:
        name = f"{prefix}{i:05d}"
        module = make_controller(
            name,
            seed=int(rng.integers(0, 2**31 - 1)),
            num_states=3 + i % 6,
            data_width=3 + i % 7,
        )
        cones = extract_register_cones(synthesize(module).netlist)
        i += 1
        if cones_per_design and len(cones) < cones_per_design:
            continue
        if cones_per_design:
            cones = cones[:cones_per_design]
        designs.append((name, cones))
        total += len(cones)
    return designs


def fill_index(index, real_matrix: np.ndarray, rows: int, rng: np.random.Generator) -> None:
    """Seeded filler rows clustered around the real cone vectors.

    Each filler row is a real cone vector plus Gaussian noise of 5% of that
    vector's norm (cosine ~0.999 to its centre, never within 1e-6 of 1), so
    top-10 lists mix real and filler rows the way a corpus of near-duplicate
    cones would.  Rows are generated one shard at a time so the harness never
    holds a corpus-sized buffer.
    """
    count, dim = real_matrix.shape
    sigma = 0.05 * np.linalg.norm(real_matrix, axis=1) / math.sqrt(dim)
    filler = rows - count
    block = index.shard_size
    for start in range(0, filler, block):
        n = min(block, filler - start)
        centres = rng.integers(0, count, size=n)
        vectors = real_matrix[centres] + rng.normal(size=(n, dim)) * sigma[centres, None]
        index.add([f"filler::{start + j:07d}" for j in range(n)], vectors, kinds=CONE_KIND)


def own_key_found(hits, key: str) -> bool:
    """The query's own key came back at score >= 1 - 1e-6 (ties allowed)."""
    return any(hit.key == key and hit.score >= SCORE_ONE for hit in hits)


def key_first(hits, key: str, index) -> bool:
    """``key`` is the top hit, tied with it, or a twin hidden by a full tie.

    Synthesised controllers repeat cone structures (accumulator slices), so a
    fresh cone can have more than ``K`` identical rows already indexed; the
    top-k is then all ties at score 1 and the new key may sort after them.
    In that case the stored row of ``key`` must be a twin of the top hit.
    Call only while no write is in flight (``index.get`` reads live state).
    """
    if not hits or hits[0].score < SCORE_ONE:
        return False
    top = hits[0].score
    if any(hit.key == key and hit.score >= top - 1e-9 for hit in hits):
        return True
    if len(hits) < K or hits[-1].score < SCORE_ONE:
        return False
    mine, twin = index.get(key), index.get(hits[0].key)
    if mine is None or twin is None:
        return False
    cosine = float(mine @ twin) / (np.linalg.norm(mine) * np.linalg.norm(twin))
    return cosine >= SCORE_ONE


@dataclass
class Corpus:
    """A 100k-row index directory plus the real cones in it."""

    model: NetTAG
    index: object
    directory: Path
    cones: list
    keys: List[str]
    vectors: np.ndarray
    eligible: np.ndarray       # query candidates: <= 5 exact duplicates


def build_corpus(rng: np.random.Generator, scale: Scale, directory: Path) -> Corpus:
    """Model, synthesised cones, their encodings and the persisted index."""
    model = NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(int(rng.integers(2**31))))
    designs = synth_designs(rng, "corpus", scale.real_cones)
    cones = [cone for _, design_cones in designs for cone in design_cones]
    keys = [cone_key(name, cone.register_name) for name, design_cones in designs
            for cone in design_cones]
    # Encoded in scheduler-sized batches: one call over every cone would make
    # the harness's own buffers the process's peak RSS.
    vectors = np.stack([
        model.pad_to_index_dim(v)
        for start in range(0, len(cones), ENCODE_BATCH)
        for v in model.encode_batch(cones[start:start + ENCODE_BATCH])
    ])
    index = NetTAGService.create_index(model, directory, overwrite=True)
    fill_index(index, vectors, scale.rows, rng)
    index.add(keys, vectors, kinds=CONE_KIND)
    index.save()
    # Structurally identical cones encode to (near-)identical vectors and tie
    # at score 1; a query whose twins could fill the top-k is never asked.
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    twins = (unit @ unit.T >= SCORE_ONE).sum(axis=1)
    eligible = np.flatnonzero(twins <= K // 2)
    return Corpus(model, index, directory, cones, keys, vectors, eligible)


# ----------------------------------------------------------------------
# Serving workloads (query_100k, ingest_100k)
# ----------------------------------------------------------------------
class Serving:
    """One service + frontend over a fresh corpus (one set-up)."""

    def __init__(self, corpus: Corpus, fresh: Sequence[Tuple[str, list]]) -> None:
        self.corpus = corpus
        self.fresh = fresh
        self.service = NetTAGService(corpus.model, index=corpus.index)
        self.frontend = AsyncFrontend(self.service)

    async def warm_up(self) -> None:
        picks = self.corpus.eligible[:4]
        await asyncio.gather(*(self.frontend.query_cone(self.corpus.cones[i], k=K)
                               for i in picks))

    async def close(self) -> None:
        await self.frontend.aclose()
        self.service.close()


async def _timed(call, latencies: List[float]):
    start = time.perf_counter()
    try:
        return await call()
    finally:
        latencies.append(1e3 * (time.perf_counter() - start))


def op_scope(tracer: Optional[Tracer], kind: str):
    return tracer.operation(kind) if tracer is not None else contextlib.nullcontext()


async def measure_query(serving: Serving, rng: np.random.Generator, ops: int,
                        tracer: Optional[Tracer]) -> Outcome:
    """Two closed-loop clients on one loop call ``query_cone(k=10)``."""
    out = Outcome()
    corpus = serving.corpus
    sequence = rng.choice(corpus.eligible, size=ops)
    frontend = serving.frontend

    async def client(picks) -> None:
        for i in picks:
            out.attempted += 1
            with op_scope(tracer, "query"):
                try:
                    hits = await _timed(
                        lambda: frontend.query_cone(corpus.cones[i], k=K), out.latencies_ms)
                except Exception as error:  # noqa: BLE001 - counted as failed
                    out.check(False, f"query {corpus.keys[i]}: {error!r}")
                    continue
            out.check(own_key_found(hits, corpus.keys[i]), f"query {corpus.keys[i]}: own key missing")

    start = time.perf_counter()
    await asyncio.gather(client(sequence[0::2]), client(sequence[1::2]))
    out.window_s = time.perf_counter() - start
    out.units = out.attempted - out.failed
    out.read_latencies_ms = out.latencies_ms
    return out


async def measure_ingest(serving: Serving, rng: np.random.Generator, ops: int,
                         tracer: Optional[Tracer]) -> Outcome:
    """Lockstep rounds: one ``add_cones(flush=True)`` beside one ``query_cone``.

    Each round starts the write and the read together and waits for both, so
    every read meets a write in flight (the read's flush queues behind the
    service write lock).  The read of round ``r`` asks for a cone written in
    round ``r - 1`` and must get that cone's key first: it is the check that
    the previous write is visible.  Answers are checked after the window.
    """
    out = Outcome()
    corpus = serving.corpus
    frontend = serving.frontend
    rows_before = len(serving.service.index)
    verify = [(corpus.keys[i], corpus.cones[i]) for i in rng.choice(corpus.eligible, size=1)]
    write_ok: List[bool] = []

    async def write(name: str, cones: list) -> None:
        with op_scope(tracer, "write") as op:
            if tracer is not None:
                # add_cones runs on a frontend worker thread, which does not
                # see the task's context variable.
                tracer.ambient_op = op
            try:
                added = await _timed(lambda: frontend.add_cones(name, cones, flush=True),
                                     out.latencies_ms)
                write_ok.append(added == len(cones))
            except Exception as error:  # noqa: BLE001 - counted as failed
                write_ok.append(False)
                out.problems.append(f"write {name}: {error!r}")
            finally:
                if tracer is not None:
                    tracer.ambient_op = None

    async def read(cone):
        with op_scope(tracer, "read"):
            try:
                return await _timed(lambda: frontend.query_cone(cone, k=K),
                                    out.read_latencies_ms)
            except Exception as error:  # noqa: BLE001 - counted as failed
                out.problems.append(f"read: {error!r}")
                return None

    answers = []
    start = time.perf_counter()
    for r in range(ops):
        name, cones = serving.fresh[r]
        _, hits = await asyncio.gather(write(name, cones), read(verify[-1][1]))
        answers.append(hits)
        # The largest cone of the write is the least likely to have twins.
        newest = max(cones, key=lambda c: len(c.netlist.gates))
        verify.append((cone_key(name, newest.register_name), newest))
    out.window_s = time.perf_counter() - start
    # The last write is read after the window.
    answers.append(await frontend.query_cone(verify[-1][1], k=K))
    index = serving.service.index
    read_ok = [
        hits is not None and (key_first(hits, key, index) if r else own_key_found(hits, key))
        for r, (hits, (key, _)) in enumerate(zip(answers, verify))
    ]
    # Write r is correct when it added every row and round r + 1 saw it.
    for r in range(ops):
        out.attempted += 2
        out.check(write_ok[r] and read_ok[r + 1], f"write {serving.fresh[r][0]} not visible")
        out.check(read_ok[r], f"read in round {r} failed its check")
    out.units = INGEST_CONES * sum(write_ok)
    rows_after = len(serving.service.index)
    out.require(rows_after == rows_before + INGEST_CONES * ops,
                f"row count {rows_after} != {rows_before} + {INGEST_CONES * ops}")
    return out


def serving_run(workload: str, seed: int, seconds: float, scale: Scale, workdir: Path,
                tracer: Optional[Tracer], repeats: int) -> Tuple[List[float], Outcome]:
    ops = op_count(workload, seconds, scale)

    async def main():
        setup_times: List[float] = []
        serving = None
        for repeat in range(repeats):
            if serving is not None:
                await serving.close()
                shutil.rmtree(serving.corpus.directory)
                serving = None
                gc.collect()
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            corpus = build_corpus(rng, scale, workdir / f"index-{repeat}")
            fresh = synth_designs(rng, "ingest", 0, min_designs=ops,
                                  cones_per_design=INGEST_CONES) if workload == "ingest_100k" else ()
            serving = Serving(corpus, fresh)
            await serving.warm_up()
            setup_times.append(time.perf_counter() - start)
        measure = measure_query if workload == "query_100k" else measure_ingest
        stats_before = serving.corpus.model.expr_llm.cache_stats()
        spans_from = len(tracer.spans) if tracer is not None else 0
        try:
            out = await measure(serving, rng, ops, tracer)
            out.peak_rss_mb = self_peak_rss_mb()
            out.spans_from = spans_from
            out.spans_to = len(tracer.spans) if tracer is not None else None
            out.layer = serving_layers(serving, stats_before)
        finally:
            await serving.close()
        return setup_times, out

    return asyncio.run(main())


def serving_layers(serving: Serving, stats_before) -> Dict[str, float]:
    """Layer counters the program itself reports through public ``stats``."""
    stats = serving.frontend.stats()["kinds"]
    after = serving.corpus.model.expr_llm.cache_stats()
    reused = (after["hits"] - stats_before["hits"]) + (after["dedup_hits"] - stats_before["dedup_hits"])
    looked = reused + (after["misses"] - stats_before["misses"])
    return {
        "frontend.rejected": float(sum(k["rejected"] for k in stats.values())),
        "frontend.timeouts": float(sum(k["timeouts"] for k in stats.values())),
        "expr_llm.reuse_ratio": reused / looked if looked else 0.0,
        "index.shards": float(serving.service.index.num_shards),
    }


# ----------------------------------------------------------------------
# replica_100k
# ----------------------------------------------------------------------
def replica_run(seed: int, seconds: float, scale: Scale, workdir: Path,
                tracer: Optional[Tracer], repeats: int) -> Tuple[List[float], Outcome]:
    """Two client threads, one per replica worker, send pre-encoded queries."""
    ops = op_count("replica_100k", seconds, scale)
    setup_times: List[float] = []
    pool = None
    try:
        for repeat in range(repeats):
            if pool is not None:
                pool.close()
                shutil.rmtree(corpus.directory)
                pool = None
                gc.collect()
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            corpus = build_corpus(rng, scale, workdir / f"index-{repeat}")
            shards = corpus.index.num_shards
            corpus.index = None  # the workers serve the directory; drop the writer
            pool = ReplicaPool(corpus.directory, num_replicas=REPLICAS)
            for slot in range(REPLICAS):
                pool.query(corpus.vectors[corpus.eligible[slot]][None, :], k=K, replica=slot)
            setup_times.append(time.perf_counter() - start)

        out = Outcome(spans_from=len(tracer.spans) if tracer is not None else 0)
        sequence = rng.choice(corpus.eligible, size=ops)
        sampled = set(rng.choice(ops, size=min(ops, 16), replace=False).tolist())
        answers: Dict[int, list] = {}
        errors: List[str] = []

        def client(slot: int) -> None:
            for position in range(slot, ops, REPLICAS):
                i = sequence[position]
                with op_scope(tracer, "query"):
                    start = time.perf_counter()
                    try:
                        hits = pool.query(corpus.vectors[i][None, :], k=K, replica=slot)[0]
                    except Exception as error:  # noqa: BLE001 - counted as failed
                        errors.append(repr(error))
                        hits = None
                    out.latencies_ms.append(1e3 * (time.perf_counter() - start))
                answers[position] = hits

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(REPLICAS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.window_s = time.perf_counter() - start
        worker_stats = pool.stats() if tracer is not None else []
        pool.close()
        pool = None
        # Joined children only: the largest replica worker of the run.
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

        # Reference: exact_topk on a read-only open of the same directory.
        local_ms: List[float] = []
        with ReadReplica(corpus.directory, watch=False) as local:
            for position in range(ops):
                i = sequence[position]
                hits = answers.get(position)
                out.attempted += 1
                if not out.check(hits is not None, f"query {position}: {errors[:1]}"):
                    continue
                ok = own_key_found(hits, corpus.keys[i])
                if position in sampled:
                    begin = time.perf_counter()
                    expected = local.query(corpus.vectors[i][None, :], k=K)[0]
                    local_ms.append(1e3 * (time.perf_counter() - begin))
                    ok = ok and [(h.key, h.score) for h in hits] == [
                        (h.key, h.score) for h in expected]
                out.check(ok, f"replica query {position} ({corpus.keys[i]}) mismatch")
        out.spans_to = len(tracer.spans) if tracer is not None else None
        out.units = out.attempted - out.failed
        out.read_latencies_ms = out.latencies_ms
        out.layer = {"index.shards": float(shards)}
        if tracer is not None:
            out.layer.update({
                "replica.ipc_ms": percentile(out.latencies_ms, 50) - percentile(local_ms, 50),
                "replica.reopens": float(sum(s["reopens"] for s in worker_stats)),
                "replica.poll_checks": float(sum(s["poll_checks"] for s in worker_stats)),
            })
        return setup_times, out
    finally:
        if pool is not None:
            pool.close()


# ----------------------------------------------------------------------
# pretrain_tag
# ----------------------------------------------------------------------
@dataclass
class Pretrain:
    pretrainer: TAGFormerPretrainer
    samples: list
    heldout: list


def stratified_by_size(rng: np.random.Generator, cones: Sequence, count: int) -> List:
    """``count`` cones, one drawn from each of ``count`` equal strata by gate count.

    Cone sizes range from 2 to ~30 gates and a design's cones are correlated,
    so a plain draw would give each seed a differently sized corpus (and a
    different step cost); stratifying gives every seed the same size profile.
    """
    order = sorted(range(len(cones)), key=lambda i: (len(cones[i].netlist.gates), i))
    return [cones[int(rng.choice(stratum))] for stratum in np.array_split(order, count)]


def build_pretrain(rng: np.random.Generator, scale: Scale) -> Pretrain:
    config = NetTAGConfig.fast()
    model = NetTAG(config, rng=np.random.default_rng(int(rng.integers(2**31))))
    batch = config.tag_pretrain.batch_size
    # Fixed-size batches: every step trains on exactly ``batch`` samples.
    if scale.train_samples % batch:
        raise ValueError(f"train_samples must be a multiple of the batch size {batch}")
    total = scale.train_samples + scale.heldout_samples
    designs = synth_designs(rng, "train", 4 * total)
    pool = [cone for _, design_cones in designs for cone in design_cones]
    picked = stratified_by_size(rng, pool, total)
    # Every k-th pick in size order is held out, so both sets span all sizes.
    stride = total // scale.heldout_samples
    heldout = set(range(stride - 1, total, stride)[: scale.heldout_samples])
    type_index = pool[0].netlist.library.type_index()
    sample_rng = np.random.default_rng(int(rng.integers(2**31)))
    samples = [
        build_pretrain_sample(netlist_to_tag(cone.netlist, k=config.expression_hops),
                              model.expr_llm, type_index, rng=sample_rng)
        for cone in picked
    ]
    pretrainer = TAGFormerPretrainer(
        model.tagformer,
        num_cell_types=len(type_index),
        config=replace(config.tag_pretrain_config(), num_epochs=10**6),
    )
    return Pretrain(
        pretrainer,
        [sample for i, sample in enumerate(samples) if i not in heldout],
        [sample for i, sample in enumerate(samples) if i in heldout],
    )


def parameter_digest(pretrainer: TAGFormerPretrainer) -> str:
    digest = hashlib.sha256()
    for parameter in pretrainer.parameters():
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


class StepClock:
    """Times each optimiser step: the only hook of an untraced run.

    ``TAGFormerPretrainer.run`` is a single call, so step boundaries are
    observed by wrapping the optimiser's ``step`` (under 1 us per call
    against steps of ~10 ms).  After every ``every``-th step it calls
    ``between`` and starts the next step's clock when that returns, so the
    held-out reads interleave with training without counting as step time.
    In a traced run it also moves the tracer's ambient operation on to the
    next step.
    """

    def __init__(self, tracer: Optional[Tracer], between: Optional[Callable[[], None]] = None,
                 every: int = 1) -> None:
        self.tracer = tracer
        self.between = between
        self.every = max(1, every)
        self.step_ms: List[float] = []
        self.between_s = 0.0
        self._start = 0.0
        self._patched: List[Tuple[type, Callable]] = []

    def __enter__(self) -> "StepClock":
        self._start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.ambient_op = self.tracer.new_op()
        for cls in nn.Optimizer.__subclasses__():
            if "step" in cls.__dict__:
                original = cls.__dict__["step"]
                self._patched.append((cls, original))
                setattr(cls, "step", self._wrap(original))
        return self

    def _wrap(self, original):
        clock = self

        def step(optimizer, *args, **kwargs):
            result = original(optimizer, *args, **kwargs)
            now = time.perf_counter()
            tracer = clock.tracer
            if tracer is not None:
                tracer.record_op(tracer.ambient_op, "step", clock._start, now)
                tracer.ambient_op = None
            clock.step_ms.append(1e3 * (now - clock._start))
            if clock.between is not None and len(clock.step_ms) % clock.every == 0:
                clock.between()
                clock.between_s += time.perf_counter() - now
            if tracer is not None:
                tracer.ambient_op = tracer.new_op()
            clock._start = time.perf_counter()
            return result

        return step

    def __exit__(self, *exc) -> None:
        for cls, original in self._patched:
            setattr(cls, "step", original)
        if self.tracer is not None:
            self.tracer.ambient_op = None


def pretrain_run(seed: int, seconds: float, scale: Scale, tracer: Optional[Tracer],
                 repeats: int) -> Tuple[List[float], Outcome]:
    """A fixed number of Step-2 optimiser steps through ``TAGFormerPretrainer.run``."""
    steps = op_count("pretrain_tag", seconds, scale)
    out = Outcome()
    setup_times: List[float] = []
    replays: List[Tuple[List[float], str]] = []
    check_steps = min(16, steps)
    for repeat in range(repeats):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        job = build_pretrain(rng, scale)
        setup_times.append(time.perf_counter() - start)
        if repeat < repeats - 1:
            # Discarded set-ups replay a short prefix: same-seed runs must end
            # with the same parameters and the measured run must start alike.
            result = job.pretrainer.run(job.samples, max_steps=check_steps)
            replays.append((result.total_losses, parameter_digest(job.pretrainer)))

    # Reads: held-out loss evaluations of the model in training, one
    # training-sized batch at a time (no backward, no optimiser step), the one
    # read of model state this workload makes.  They interleave with the
    # steps, so both sample the host over the whole window.
    eval_rng = np.random.default_rng(seed + 1)
    batch = job.pretrainer.config.batch_size
    batches = [job.heldout[i:i + batch] for i in range(0, len(job.heldout), batch)]
    reads: List[float] = []
    wanted = min(scale.heldout_reads, steps)

    def read() -> None:
        if len(out.read_latencies_ms) >= wanted:
            return
        with op_scope(tracer, "read"):
            start = time.perf_counter()
            loss, _ = job.pretrainer.batch_loss(
                batches[len(out.read_latencies_ms) % len(batches)], eval_rng)
            value = loss.item()
            out.read_latencies_ms.append(1e3 * (time.perf_counter() - start))
        reads.append(value)

    out.spans_from = len(tracer.spans) if tracer is not None else 0
    with StepClock(tracer, read, every=steps // wanted) as clock:
        start = time.perf_counter()
        result = job.pretrainer.run(job.samples, max_steps=steps)
        # Training throughput: the interleaved reads are not training time.
        out.window_s = time.perf_counter() - start - clock.between_s
    out.latencies_ms = clock.step_ms
    out.units = job.pretrainer.config.batch_size * result.steps
    out.digest = parameter_digest(job.pretrainer)

    losses = result.total_losses
    for step, loss in enumerate(losses):
        out.attempted += 1
        out.check(math.isfinite(loss), f"step {step} loss {loss}")
    out.require(result.steps == steps and len(losses) == steps,
                f"ran {result.steps} steps, {len(losses)} losses; expected {steps}")
    window = max(1, steps // 10)
    out.require(statistics.fmean(losses[-window:]) < statistics.fmean(losses[:window]),
                "mean loss over the last window is not below the first")
    # The discarded set-ups train without reads, so equal prefixes also show
    # that a read leaves the training run untouched.
    for prefix, digest in replays:
        out.require(prefix == losses[:check_steps], "same-seed loss curves differ")
        out.require(digest == replays[0][1], "same-seed parameter digests differ")
    out.require(len(reads) == wanted, f"made {len(reads)} held-out reads; expected {wanted}")
    for value in reads:
        out.attempted += 1
        out.check(math.isfinite(value), f"held-out loss {value}")
    out.peak_rss_mb = self_peak_rss_mb()
    return setup_times, out
