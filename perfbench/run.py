#!/usr/bin/env python3
"""Closed-loop benchmark of the query, ingest, replica and pretraining paths.

Run from the repository root::

    python3 perfbench/run.py --workload query_100k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15   # every workload
    python3 perfbench/run.py --smoke                                 # harness self-test

It prints one ``workload/metric value unit`` line per metric and, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes an untraced and a traced pass and reports the per-layer metrics.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("query_100k", "ingest_100k", "replica_100k", "pretrain_tag")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("units_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("read_p50_ms", "ms"),
)

PER_LAYER = (
    ("frontend.rejected", "count"),
    ("frontend.timeouts", "count"),
    ("scheduler.queue_wait_ms", "ms"),
    ("scheduler.flush_ms", "ms"),
    ("scheduler.batch_size", "count"),
    ("scheduler.deadline_flush_ratio", "ratio"),
    ("nettag.encode_ms", "ms"),
    ("nettag.cones_per_call", "count"),
    ("expr_llm.encode_ms", "ms"),
    ("expr_llm.reuse_ratio", "ratio"),
    ("expr_llm.texts_encoded", "count"),
    ("tagformer.forward_ms", "ms"),
    ("search.exact_ms", "ms"),
    ("search.queries_per_call", "count"),
    ("search.segments", "count"),
    ("index.add_ms", "ms"),
    ("index.save_ms", "ms"),
    ("index.shards", "count"),
    ("snapshot.refresh_ms", "ms"),
    ("snapshot.refreshes", "count"),
    ("service.lock_wait_ms", "ms"),
    ("replica.roundtrip_ms", "ms"),
    ("replica.ipc_ms", "ms"),
    ("replica.reopens", "count"),
    ("replica.poll_checks", "count"),
    ("engine.step_ms", "ms"),
    ("tag_pretrain.loss_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
)

# A p90 is reported with the count of samples beyond it; below this many
# operations it rests on fewer than ten samples (see README, "tail_ms").
TAIL_MIN_OPS = 100


def _load_program() -> None:
    """Compile the program's bytecode, then make ``repro`` importable.

    Compiling up front keeps bytecode compilation out of every recorded
    figure: the first run in a fresh tree otherwise pays it inside set-up,
    where the replica workers re-import the program.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({SRC / 'repro'})")
    if not compileall.compile_dir(str(SRC), quiet=2):
        raise SystemExit("error: the program's sources do not compile")
    sys.path.insert(0, str(SRC))


def _stop_children() -> None:
    """Join every child process, the multiprocessing resource tracker too.

    ``ReplicaPool`` joins its workers, but spawning them also starts the
    resource tracker, which would otherwise outlive this process and be left
    as an orphan when it exits.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=15)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _run(workload: str, seed: int, seconds: float, scale, workdir: Path, tracer, repeats: int):
    import workloads as wl

    if workload == "replica_100k":
        return wl.replica_run(seed, seconds, scale, workdir, tracer, repeats)
    if workload == "pretrain_tag":
        return wl.pretrain_run(seed, seconds, scale, tracer, repeats)
    return wl.serving_run(workload, seed, seconds, scale, workdir, tracer, repeats)


def end_to_end(setup_times, out) -> dict:
    import workloads as wl

    latencies = out.latencies_ms
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": out.peak_rss_mb,
        "ok_ratio": (out.attempted - out.failed) / out.attempted,
        "units_per_s": out.units / out.window_s,
        "p50_ms": wl.percentile(latencies, 50),
        "tail_ms": wl.percentile(latencies, 90),
        "read_p50_ms": wl.percentile(out.read_latencies_ms, 50),
    }


def per_layer(workload, seed, seconds, scale, workdir) -> tuple:
    """An untraced pass, then a traced pass on a fresh set-up of the same inputs."""
    import tracing

    _, base = _run(workload, seed, seconds, scale, workdir, None, 1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, out = _run(workload, seed, seconds, scale, workdir, tracer, 1)
    finally:
        tracer.uninstall()
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(tracing.layer_metrics(tracer, out.spans_from, out.spans_to))
    metrics.update(out.layer)
    if workload == "pretrain_tag":
        metrics["engine.step_ms"] = statistics.median(out.latencies_ms)
    metrics["trace.overhead_ratio"] = (out.units / out.window_s) / (base.units / base.window_s)
    out.attempted += base.attempted
    out.failed += base.failed
    out.correct = out.correct and base.correct
    out.problems += base.problems
    return metrics, out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale, workdir: Path):
    """``(metrics {name: value}, outcome)`` of one workload."""
    if trace:
        return per_layer(workload, seed, seconds, scale, workdir)
    setup_times, out = _run(workload, seed, seconds, scale, workdir, None, scale.setup_repeats)
    return end_to_end(setup_times, out), out


def report(workloads, seed: int, seconds: float, trace: bool, scale, workdir: Path) -> dict:
    from repro.bench.host import describe_host, host_snapshot

    units = dict(PER_LAYER if trace else END_TO_END)
    host = host_snapshot()
    print(describe_host(host), flush=True)
    print("host-json " + json.dumps(host), flush=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        metrics, out = run_workload(workload, seed, seconds, trace, scale, workdir)
        ops = len(out.latencies_ms)
        print(f"# {workload}: seed {seed}, {out.attempted} checked operations, "
              f"{ops} timed, window {out.window_s:.2f} s", flush=True)
        if not trace and ops < TAIL_MIN_OPS:
            print(f"# {workload}: tail_ms rests on {ops - math.ceil(0.9 * ops)} samples "
                  f"beyond p90 ({ops} < {TAIL_MIN_OPS} operations)", flush=True)
        if out.digest:
            print(f"# {workload}: parameter digest {out.digest}", flush=True)
        for problem in out.problems:
            print(f"# {workload}: CHECK FAILED: {problem}", flush=True)
        for name, value in metrics.items():
            label = f"{workload}/{name}" if len(workloads) > 1 else name
            print(f"{workload}/{name} {float(value)!r} {units[name]}", flush=True)
            result["metrics"][label] = {"value": float(value), "unit": units[name]}
        result["correct"] = result["correct"] and out.correct and out.failed == 0
        result["attempted"] += out.attempted
        result["failed"] += out.failed
    after = host_snapshot()
    print(describe_host(after), flush=True)
    if host["loaded"]:
        print("# WARNING: the host was loaded when this run started; its figures are suspect",
              flush=True)
    return result


def smoke(seconds: float, workdir: Path) -> int:
    """Every workload at tiny sizes, untraced and traced; checks pass and repeat."""
    import workloads as wl

    failures = []
    digests = []
    for trace in (False, True):
        result = report(WORKLOADS, 7, seconds, trace, wl.SMOKE, workdir)
        names = {f"{w}/{name}" for w in WORKLOADS
                 for name, _ in (PER_LAYER if trace else END_TO_END)}
        if set(result["metrics"]) != names:
            failures.append(f"trace={trace}: metric names differ")
        if not result["correct"] or result["failed"]:
            failures.append(f"trace={trace}: checks failed")
        if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
            failures.append(f"trace={trace}: a metric is not finite")
    for _ in range(2):
        _, out = wl.pretrain_run(7, seconds, wl.SMOKE, None, 1)
        digests.append(out.digest)
    if digests[0] != digests[1]:
        failures.append("same-seed pretraining ended with different parameters")
    for failure in failures:
        print(f"smoke: FAILED: {failure}")
    print("smoke: ok" if not failures else "smoke: failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test the harness at tiny sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    # A terminated run still unwinds through the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Everything the run writes (index directories, temporary files of the
    # program and of its worker processes) stays inside the checkout.
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        import workloads as wl

        if args.smoke:
            return smoke(min(args.seconds, 1.0), workdir)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        result = report(names, args.seed, args.seconds, bool(args.trace), wl.FULL, workdir)
    finally:
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
