"""Cross-modal retrieval benchmark guard (runs in the default selection).

Like ``benchmarks/test_index_throughput.py``, this file is intentionally
unmarked (not ``bench``/``slow``): it needs no pre-training — the projection
heads are fitted at index-build time against whatever encoder weights are
loaded — and it guards the cross-modal engine's contract points on a
≥200-item aligned corpus:

* querying any modality retrieves the aligned partner (or an exact
  vector-level duplicate of it) in the top-10 for ≥ 0.8 of items, across
  every modality pair (RTL ⇄ cone, layout ⇄ cone, RTL ⇄ layout),
* concurrent modality-batched serving is ≥ 3x faster per query than a
  stateless sequential per-query encode+search loop,
* the sequential and concurrent serving paths score identically.

The measured report is written to ``BENCH_crossmodal.json`` at the repo root
(also refreshable via ``scripts/bench_crossmodal.py``).
"""

from __future__ import annotations

import pytest

from repro.bench.crossmodal import (
    MODALITY_PAIRS,
    build_crossmodal_pipeline,
    run_crossmodal_bench,
    save_crossmodal_report,
)

MIN_ITEMS = 220
REQUIRED_RECALL = 0.8
REQUIRED_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def pipeline():
    return build_crossmodal_pipeline(min_items=MIN_ITEMS)


class TestCrossModalBench:
    def test_recall_throughput_and_report(self, pipeline, tmp_path):
        # Best-effort timing on a shared machine; retry once if the speedup
        # gate trips to shield against a scheduling hiccup mid-measurement.
        report = run_crossmodal_bench(pipeline=pipeline, min_items=MIN_ITEMS)
        if report["speedup"]["concurrent_vs_sequential"] < REQUIRED_SPEEDUP:
            report = run_crossmodal_bench(pipeline=pipeline, min_items=MIN_ITEMS)
        # A run leaves no cached embeddings behind: their last bits depend on
        # the flush batching, and a rerun on this pipeline must rebuild the
        # rows it built the first time.
        assert pipeline.model.expr_llm.cache_stats()["size"] == 0
        assert not pipeline.rtl_encoder._cache
        # The committed baseline changes only through the deliberate
        # scripts/bench_crossmodal.py refresh (host-stamped, gated): a test
        # run is often loaded (the suite itself pegs the core), so a test-
        # time rewrite pollutes the regression floor.  Park the report in tmp.
        path = save_crossmodal_report(report, path=tmp_path / "BENCH_crossmodal.json")
        recall = report["quality"]["aligned_pair_recall_at_10"]
        speedup = report["speedup"]["concurrent_vs_sequential"]
        print(
            f"\ncross-modal: recall@10 {recall:.3f}, {speedup:.2f}x concurrent vs "
            f"sequential ({report['latency']['concurrent_batched_per_query_ms']:.2f} "
            f"ms/query batched) -> {path.name}"
        )
        assert report["corpus"]["num_items"] >= MIN_ITEMS
        # Contract 1: every modality pair was measured and none collapsed.
        assert set(report["quality"]["per_pair"]) == {
            f"{a}->{b}" for a, b in MODALITY_PAIRS
        }
        for pair, numbers in report["quality"]["per_pair"].items():
            assert numbers["recall_at_10"] >= 0.5, pair
        # Contract 2: the aligned pretraining objective is served measurably.
        assert recall >= REQUIRED_RECALL
        # Contract 3: concurrent modality-batched serving throughput.
        assert speedup >= REQUIRED_SPEEDUP
        assert report["quality"]["ranking_parity"]
        # The scheduler really batched (otherwise the speedup is accidental).
        assert report["scheduler"]["mean_batch_size"] > 1.0
