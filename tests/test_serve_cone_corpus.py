"""Index and serving checks on a 500-cone corpus of synthesised controllers.

The corpus holds genuinely repeated cone structures across designs, which is
what makes near-duplicate retrieval non-trivial.  The model is untrained:
none of these checks needs pre-training.

* **Round trip** — save → reopen → query returns the identical ranking with
  bit-equal scores.
* **Approximate search** — HNSW recall@10 ≥ 0.9 at default tuning against
  exact search over the whole corpus.
* **Micro-batching** — a burst of 48 cone queries queued while the scheduler
  worker is held is answered in at most ``1 + ceil(47 / 16)`` flushes, each
  with one encoder pass.
* **Serving parity** — the service scores within 1e-6 of a sequential
  server that encodes each query through the seed's per-cone path.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List

import numpy as np
import pytest

from encode_reference import cone_tags, held_burst, seed_sequential_encode
from repro.core import NetTAG, NetTAGConfig
from repro.netlist import RegisterCone, extract_register_cones, netlist_to_tag
from repro.rtl import make_controller
from repro.serve import (
    CONE_KIND,
    EmbeddingIndex,
    HNSWSearcher,
    NetTAGService,
    cone_key,
    exact_topk,
    recall_at_k,
)
from repro.synth import synthesize

NUM_CONES = 500
NUM_QUERIES = 48
MAX_BATCH_SIZE = 16
K = 10


def build_index_corpus(num_cones: int = NUM_CONES, seed: int = 100) -> List[RegisterCone]:
    """Register cones of synthesised controllers until ``num_cones`` exist.

    State counts and datapath widths cycle so cone sizes are mixed.
    """
    cones: List[RegisterCone] = []
    i = 0
    while len(cones) < num_cones:
        module = make_controller(
            f"corpus_{i}", seed=seed + i, num_states=3 + (i % 6), data_width=3 + (i % 7)
        )
        cones.extend(extract_register_cones(synthesize(module).netlist))
        i += 1
    return cones[:num_cones]


@pytest.fixture(scope="module", autouse=True)
def _reference_backend():
    """The checks are exact-equality statements (bit-equal scores, ranking
    parity across serving paths) stated against the float64 reference
    backend; float32 compute breaks near-ties legitimately."""
    from repro.nn import use_backend

    with use_backend("reference"):
        yield


@pytest.fixture(scope="module")
def model() -> NetTAG:
    return NetTAG(NetTAGConfig.fast(), rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def corpus():
    cones = build_index_corpus()
    assert len(cones) == NUM_CONES
    return cones


@pytest.fixture(scope="module")
def indexed(model, corpus, tmp_path_factory):
    """The corpus encoded in one batched pass and saved as a 128-row-shard index."""
    directory = tmp_path_factory.mktemp("cone-corpus") / "index"
    model.clear_caches()
    vectors = model.encode_batch(corpus, tags=cone_tags(model, corpus))
    keys = [cone_key(f"c{i:04d}", cone.register_name) for i, cone in enumerate(corpus)]
    index = NetTAGService.create_index(model, directory, shard_size=128)
    index.add(keys, np.stack(vectors), kinds=CONE_KIND)
    index.save()
    return directory, index, np.stack(vectors)


class TestIndexQuality:
    def test_round_trip_ranking_is_bit_equal(self, indexed):
        directory, index, vectors = indexed
        probe = vectors[:8]
        before = exact_topk(index, probe, k=K)
        after = exact_topk(EmbeddingIndex.open(directory), probe, k=K)
        for b, a in zip(before, after):
            assert [hit.key for hit in b] == [hit.key for hit in a]
            assert [hit.score for hit in b] == [hit.score for hit in a]

    def test_hnsw_recall_at_10(self, indexed):
        _, index, vectors = indexed
        exact = exact_topk(index, vectors, k=K)
        searcher = HNSWSearcher(seed=0).fit(index)
        assert recall_at_k(exact, searcher.search(vectors, k=K), k=K) >= 0.9


class TestConeQueryBurst:
    @pytest.fixture(scope="class")
    def served(self, model, corpus, indexed):
        """The same 48 queries through a sequential server and a held burst."""
        _, index, _ = indexed
        stride = NUM_CONES // NUM_QUERIES
        queries = [corpus[i] for i in range(0, stride * NUM_QUERIES, stride)]
        # A stateless sequential server: one seed-style (un-packed, raw-text
        # cached within the request) encode per request, then one exact top-k.
        model.clear_caches()
        sequential = []
        for cone in queries:
            tag = netlist_to_tag(cone.netlist, k=model.config.expression_hops)
            vector = seed_sequential_encode(model, [cone], [tag])[0]
            sequential.append(exact_topk(index, vector, k=K)[0])
        model.clear_caches()
        with NetTAGService(
            model, index=index, max_batch_size=MAX_BATCH_SIZE, max_latency_ms=2.0
        ) as service:
            burst, flushes = held_burst(
                service,
                [(cone, CONE_KIND) for cone in queries],
                {CONE_KIND: (model, "encode_batch")},
                k=K,
            )
        return sequential, burst, flushes

    def test_burst_flushes_and_encoder_passes(self, served):
        _, _, flushes = served
        assert len(flushes) <= 1 + math.ceil((NUM_QUERIES - 1) / MAX_BATCH_SIZE)
        for kinds, passes in flushes:
            assert passes == Counter(dict.fromkeys(kinds, 1))

    def test_burst_scores_match_the_sequential_server(self, served):
        # Key-exact agreement is too strict: the sequential path encodes
        # unpacked while the service packs, equal only to ~1e-15, so near-tied
        # corpus scores can swap ranks.  Compare per-rank scores instead.
        sequential, burst, _ = served
        assert len(burst) == NUM_QUERIES
        for seq_row, burst_row in zip(sequential, burst):
            assert len(burst_row) == K
            for s, b in zip(seq_row, burst_row):
                assert abs(s.score - b.score) < 1e-6
