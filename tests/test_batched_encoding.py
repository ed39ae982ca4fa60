"""Tests for the batched TAG encoding engine and expression-embedding cache.

Covers the engine's contract points:

* ``BatchedTAG`` packing invariants (offsets, block structure, masks),
* batched-vs-sequential parity on mixed-size cone batches (1e-8), including
  single-graph and empty-batch edge cases, and against the seed's per-cone
  path on a ≥ 16-cone workload,
* the batching itself: a batched encode makes at most a third of the seed
  path's backend kernel calls on that workload,
* LRU expression-embedding cache correctness (enabled == disabled, statistics,
  eviction at capacity),
* bit-identical determinism of two same-seed ``NetTAGPipeline`` runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from encode_reference import (
    api_sequential_encode,
    build_cone_workload,
    cone_tags,
    run_parity_check,
    seed_sequential_encode,
)
from repro.core import NetTAG, NetTAGConfig, NetTAGPipeline
from repro.encoders import ExprLLM, LRUEmbeddingCache, TextEncoderConfig
from repro.netlist import (
    BatchedTAG,
    Netlist,
    chunk_by_node_budget,
    extract_register_cones,
    netlist_to_tag,
)
from repro.nn import Tensor, get_backend, profile_kernels
from repro.rtl import make_controller
from repro.synth import synthesize

# Batched-vs-sequential parity tolerance: the packed engine is equal to the
# per-cone path to 1e-8 under the float64 reference backend; under a float32
# backend the same algebra holds to float32 rounding (the tighter 1e-5
# normwise bound is enforced end-to-end by test_backend_parity.py).
if get_backend().compute_dtype == np.float64:
    PARITY_TOL = dict(atol=1e-8)
else:
    PARITY_TOL = dict(atol=1e-5, rtol=1e-4)


# ----------------------------------------------------------------------
# BatchedTAG structure
# ----------------------------------------------------------------------
class TestBatchedTAGStructure:
    @pytest.fixture(scope="class")
    def tags(self, seq_netlist):
        cones = extract_register_cones(seq_netlist)
        return [netlist_to_tag(cone.netlist) for cone in cones]

    def test_offsets_and_sizes(self, tags):
        batch = BatchedTAG.from_tags(tags)
        assert batch.num_graphs == len(tags)
        assert batch.total_nodes == sum(tag.num_nodes for tag in tags)
        assert batch.total_slots == batch.total_nodes + batch.num_graphs
        for g, tag in enumerate(tags):
            block = batch.graph_slice(g)
            assert block.stop - block.start == tag.num_nodes

    def test_pack_split_round_trip(self, tags):
        batch = BatchedTAG.from_tags(tags)
        rng = np.random.default_rng(0)
        per_graph = [rng.normal(size=(tag.num_nodes, 5)) for tag in tags]
        packed = batch.pack(per_graph)
        for original, recovered in zip(per_graph, batch.split(packed)):
            np.testing.assert_array_equal(original, recovered)

    def test_block_adjacency_is_block_diagonal(self, tags):
        batch = BatchedTAG.from_tags(tags)
        block = batch.block_adjacency
        for g, tag in enumerate(tags):
            sl = batch.graph_slice(g)
            np.testing.assert_array_equal(block[sl, sl], tag.graph.adjacency)
        # Zero outside the blocks.
        mask = np.zeros_like(block, dtype=bool)
        for g in range(batch.num_graphs):
            sl = batch.graph_slice(g)
            mask[sl, sl] = True
        assert np.all(block[~mask] == 0.0)

    def test_attention_mask_matches_segments(self, tags):
        batch = BatchedTAG.from_tags(tags)
        mask = batch.attention_mask
        segments = batch.extended_segment_ids
        assert mask.shape == (batch.total_slots, batch.total_slots)
        np.testing.assert_array_equal(mask, segments[:, None] == segments[None, :])
        # Every row can attend somewhere (at least itself).
        assert mask.diagonal().all()

    def test_cls_rows_connect_only_own_graph(self, tags):
        batch = BatchedTAG.from_tags(tags)
        extended = batch.extended_adjacency
        for g, tag in enumerate(tags):
            row = extended[batch.cls_index(g)]
            sl = batch.graph_slice(g)
            expected_weight = 1.0 / max(tag.num_nodes, 1)
            np.testing.assert_allclose(row[sl], expected_weight)
            assert row[batch.cls_index(g)] == 1.0
            outside = np.delete(row, np.r_[sl, batch.cls_index(g)])
            assert np.all(outside == 0.0)

    def test_plain_list_adjacencies_accepted(self):
        batch = BatchedTAG.from_adjacencies([[[1.0, 0.5], [0.5, 1.0]], [[1.0]]])
        assert batch.total_nodes == 3
        assert batch.extended_adjacency.shape == (5, 5)

    def test_non_square_adjacency_rejected(self):
        with pytest.raises(ValueError):
            BatchedTAG.from_adjacencies([np.zeros((2, 3))])

    def test_chunk_by_node_budget(self):
        assert chunk_by_node_budget([], 10) == []
        assert chunk_by_node_budget([3, 3, 3], 100) == [[0, 1, 2]]
        # The budget counts slots (nodes + one CLS per graph): 5 + 5 <= 10.
        assert chunk_by_node_budget([4, 4, 4], 10) == [[0, 1], [2]]
        # Many tiny graphs cannot overshoot through their CLS rows alone.
        assert chunk_by_node_budget([1] * 6, 4) == [[0, 1], [2, 3], [4, 5]]
        # An oversized graph still gets a singleton chunk.
        assert chunk_by_node_budget([50, 2], 10) == [[0], [1]]
        with pytest.raises(ValueError):
            chunk_by_node_budget([1], 0)


# ----------------------------------------------------------------------
# Batched vs sequential parity
# ----------------------------------------------------------------------
class TestBatchedSequentialParity:
    @pytest.fixture(scope="class")
    def cones(self, seq_netlist):
        cones = extract_register_cones(seq_netlist)
        assert len(cones) >= 3
        return cones

    def test_mixed_size_cone_batch_matches_sequential(self, small_model, cones):
        sequential = [small_model.encode_cone(cone) for cone in cones]
        small_model.clear_caches()
        batched = small_model.encode_batch(cones)
        assert len(batched) == len(cones)
        sizes = {cone.netlist.num_gates for cone in cones}
        assert len(sizes) > 1, "parity workload should mix cone sizes"
        for want, got in zip(sequential, batched):
            np.testing.assert_allclose(got, want, **PARITY_TOL)

    def test_single_cone_batch(self, small_model, cones):
        want = small_model.encode_cone(cones[0])
        got = small_model.encode_batch([cones[0]])
        assert len(got) == 1
        np.testing.assert_allclose(got[0], want, **PARITY_TOL)

    def test_empty_batch(self, small_model):
        assert small_model.encode_batch([]) == []
        assert small_model.encode_tags_batch([]) == []

    def test_empty_tag_yields_zero_embeddings(self, small_model):
        empty = Netlist("empty")
        tag = netlist_to_tag(empty)
        (gates, graph), = small_model.encode_tags_batch([tag])
        assert gates.shape == (0, small_model.gate_embedding_dim)
        assert graph.shape == (small_model.graph_embedding_dim,)
        assert np.all(graph == 0.0)

    def test_chunked_encoding_matches_unchunked(self, small_model, cones):
        tags = [netlist_to_tag(c.netlist, k=small_model.config.expression_hops) for c in cones]
        whole = small_model.encode_batch(cones, tags=tags)
        chunked = small_model.encode_batch(cones, tags=tags, max_nodes_per_chunk=4)
        for want, got in zip(whole, chunked):
            np.testing.assert_allclose(got, want, **PARITY_TOL)

    def test_encode_tags_batch_matches_multigrained(self, small_model, comb_netlist):
        tag = small_model.build_tag(comb_netlist)
        want_gates, want_graph = small_model.encode_tag_multigrained(tag)
        (got_gates, got_graph), = small_model.encode_tags_batch([tag])
        np.testing.assert_allclose(got_gates, want_gates, **PARITY_TOL)
        np.testing.assert_allclose(got_graph, want_graph, **PARITY_TOL)

    def test_embed_cones_uses_batched_engine(self, small_model, cones):
        table = small_model.embed_cones(cones)
        for cone in cones:
            np.testing.assert_allclose(
                table[cone.register_name], small_model.encode_cone(cone), **PARITY_TOL
            )

    def test_tag_count_mismatch_rejected(self, small_model, cones):
        with pytest.raises(ValueError):
            small_model.encode_batch(cones, tags=[])

    def test_forward_batch_gradients_flow(self, small_model, cones):
        """The packed forward is differentiable (pre-training uses it)."""
        tags = [netlist_to_tag(c.netlist) for c in cones[:3]]
        model = small_model.tagformer
        batch = BatchedTAG.from_tags(tags)
        features = Tensor(
            np.random.default_rng(0).normal(size=(batch.total_nodes, model.config.input_dim)),
            requires_grad=True,
        )
        nodes, graphs = model.forward_batch(features, batch)
        (nodes.sum() + graphs.sum()).backward()
        assert features.grad is not None and np.abs(features.grad).sum() > 0
        assert model.cls_token.grad is not None


# ----------------------------------------------------------------------
# Against the seed's per-cone path
# ----------------------------------------------------------------------
class TestSeedPathReference:
    """The seed workload: register cones of four synthesised controllers."""

    @pytest.fixture(scope="class")
    def model(self) -> NetTAG:
        return NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(7))

    @pytest.fixture(scope="class")
    def cones(self):
        workload = build_cone_workload()
        assert len(workload) >= 16
        return workload

    @pytest.fixture(scope="class")
    def tags(self, model, cones):
        return cone_tags(model, cones)

    def test_batched_matches_both_sequential_paths(self, model, cones, tags):
        """Same inputs -> same embeddings, for the seed path and the API path."""
        model.clear_caches()
        batched = model.encode_batch(cones, tags=tags)
        model.clear_caches()
        seed_reference = seed_sequential_encode(model, cones, tags)
        model.clear_caches()
        api_reference = api_sequential_encode(model, cones, tags)
        assert len(batched) == len(cones)
        for got, seed_want, api_want in zip(batched, seed_reference, api_reference):
            np.testing.assert_allclose(got, seed_want, atol=PARITY_TOL["atol"])
            np.testing.assert_allclose(got, api_want, atol=PARITY_TOL["atol"])

    def test_batched_kernel_calls_are_a_third_of_seed(self, model, cones, tags):
        """Packing cones into shared forwards is what makes the batched engine
        fast; counted in backend kernel calls, not seconds."""

        def kernel_calls(encode) -> int:
            model.clear_caches()
            with profile_kernels() as profile:
                encode(cones, tags=tags)
            return sum(profile.calls.values())

        batched = kernel_calls(model.encode_batch)
        seed = kernel_calls(lambda cones, tags: seed_sequential_encode(model, cones, tags))
        assert 0 < batched <= seed / 3, (batched, seed)


class TestRunParityCheck:
    def test_parity_holds_on_a_small_workload(self):
        model = NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(3))
        netlist = synthesize(make_controller("parity", seed=13, num_states=3)).netlist
        cones = extract_register_cones(netlist)[:4]
        max_diff = run_parity_check(model, cones)
        # 1e-8 under the float64 reference backend; float32 compute holds the
        # same algebra to float32 rounding.
        limit = 1e-8 if get_backend().compute_dtype == np.float64 else 1e-5
        assert max_diff <= limit

    def test_parity_failure_raises(self):
        model = NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(3))
        netlist = synthesize(make_controller("parity2", seed=14, num_states=3)).netlist
        cones = extract_register_cones(netlist)[:2]
        with pytest.raises(AssertionError, match="parity"):
            run_parity_check(model, cones, atol=0.0)  # any float noise trips it


# ----------------------------------------------------------------------
# Expression-embedding cache
# ----------------------------------------------------------------------
class TestExpressionEmbeddingCache:
    def _texts(self):
        return [
            "[Name] g1 [Type] NAND2 [Expr] g1 = !(a & b)",
            "[Name] g2 [Type] NAND2 [Expr] g2 = !(x & y)",  # canonical twin of g1
            "[Name] g3 [Type] XOR2 [Expr] g3 = a ^ b",
            "[Name] g1 [Type] NAND2 [Expr] g1 = !(a & b)",  # exact duplicate
        ]

    def test_enabled_and_disabled_caches_agree(self):
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(3))
        texts = self._texts()
        model.set_cache_enabled(False)
        without = model.encode_texts(texts)
        model.set_cache_enabled(True)
        first = model.encode_texts(texts)
        again = model.encode_texts(texts)  # pure cache hits
        np.testing.assert_allclose(first, without, atol=1e-12)
        np.testing.assert_array_equal(first, again)

    def test_canonical_key_shares_entries_across_names(self):
        model = ExprLLM(TextEncoderConfig.preset("small"), rng=np.random.default_rng(3))
        embeddings = model.encode_texts(self._texts())
        # g1 and g2 differ only by signal naming -> same canonical key.
        np.testing.assert_array_equal(embeddings[0], embeddings[1])
        assert not np.allclose(embeddings[0], embeddings[2])
        stats = model.cache_stats()
        assert stats["size"] == 2          # two distinct canonical expressions
        assert stats["misses"] == 2
        assert stats["dedup_hits"] == 2    # canonical twin + exact duplicate (in-call)
        assert stats["hits"] == 0          # nothing was in the LRU yet
        assert 0.0 < stats["reuse_rate"] <= 1.0
        model.encode_texts(self._texts())  # second call: now the LRU serves it
        assert model.cache_stats()["hits"] > 0
        assert 0.0 < model.cache_stats()["hit_rate"] <= 1.0

    def test_eviction_at_capacity_does_not_corrupt_results(self):
        model = ExprLLM(
            TextEncoderConfig.preset("small"),
            rng=np.random.default_rng(3),
            cache_capacity=2,
        )
        texts = [f"[Type] AND2 [Expr] y = a & b{'!' * i}" for i in range(6)]
        first = model.encode_texts(texts)
        stats = model.cache_stats()
        assert stats["evictions"] > 0
        assert stats["size"] <= 2
        second = model.encode_texts(texts)  # mostly recomputed after eviction
        np.testing.assert_allclose(second, first, atol=1e-12)

    def test_lru_cache_unit_behaviour(self):
        cache = LRUEmbeddingCache(capacity=2)
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        assert cache.get("a") is not None   # refresh "a": now "b" is oldest
        cache.put("c", np.array([3.0]))
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.get("b") is None
        assert cache.stats.evictions == 1
        cache.clear()
        assert len(cache) == 0

    def test_batched_encoding_cache_on_off_parity(self, small_model, seq_netlist):
        cones = extract_register_cones(seq_netlist)
        small_model.clear_caches()
        with_cache = small_model.encode_batch(cones)
        reuse_rate = small_model.expr_llm.cache_stats()["reuse_rate"]
        small_model.expr_llm.set_cache_enabled(False)
        try:
            without_cache = small_model.encode_batch(cones)
        finally:
            small_model.expr_llm.set_cache_enabled(True)
        for want, got in zip(with_cache, without_cache):
            np.testing.assert_allclose(got, want, atol=1e-12)
        assert 0.0 <= reuse_rate <= 1.0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestPipelineDeterminism:
    def test_same_seed_runs_are_bit_identical(self, seq_netlist):
        """Two same-seed pipeline runs must produce identical embeddings.

        Guards the rng handling in ``TAGFormer.__init__`` (fixed
        ``default_rng(2)`` for the cls_token mixed with the caller's rng) and
        every other seeded component of the pre-training pipeline.
        """
        corpus = {"suite": [make_controller("det", seed=11, num_states=3, data_width=3)]}

        def run() -> np.ndarray:
            config = NetTAGConfig.fast(use_cross_stage_alignment=False)
            pipeline = NetTAGPipeline(config)
            pipeline.pretrain(corpus)
            embeddings, _ = pipeline.embed_gates(seq_netlist)
            return embeddings

        first = run()
        second = run()
        np.testing.assert_array_equal(first, second)

    def test_untrained_models_with_same_seed_are_identical(self, seq_netlist):
        config = NetTAGConfig.fast()
        a = NetTAG(config, rng=np.random.default_rng(5))
        b = NetTAG(config, rng=np.random.default_rng(5))
        gates_a, _ = a.embed_gates(seq_netlist)
        gates_b, _ = b.embed_gates(seq_netlist)
        np.testing.assert_array_equal(gates_a, gates_b)
