"""Reference encode paths and the register-cone workload they run on.

The batched engine (:meth:`NetTAG.encode_batch`) must produce the same cone
embeddings as the per-cone paths it replaced.  This module keeps those paths
as test references:

* :func:`seed_sequential_encode` — a faithful reimplementation of the seed's
  hot path: one TAGFormer forward per cone, ExprLLM embeddings cached by
  *raw* gate text (gate names make nearly every text unique, so the cache
  almost never deduplicates), no padding trimming.
* :func:`api_sequential_encode` — the per-cone public path
  (:meth:`NetTAG.encode_cone` semantics on pre-built TAGs), which already
  benefits from the canonical expression-embedding cache and padding trim.

plus :func:`fast_clone`, the two parity checks built on them, and
:func:`held_burst`, which counts the flushes and encoder passes a
:class:`~repro.serve.NetTAGService` spends on a burst of queries.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core import NetTAG
from repro.netlist import RegisterCone, TextAttributedGraph, extract_register_cones, netlist_to_tag
from repro.nn import get_backend, use_backend
from repro.rtl import make_controller
from repro.synth import synthesize

_WORKLOAD_SHAPES = ((5, 4, 4), (9, 3, 6), (13, 6, 5), (17, 4, 8), (23, 5, 3))


def build_cone_workload(num_designs: int = 4) -> List[RegisterCone]:
    """Register cones of a few synthesised controller designs (≥ 16 cones).

    The designs vary in state count and datapath width so cone sizes are
    mixed, exercising the batch packer's offset handling.
    """
    cones: List[RegisterCone] = []
    for seed, num_states, data_width in _WORKLOAD_SHAPES[:num_designs]:
        module = make_controller(
            f"bench_{seed}", seed=seed, num_states=num_states, data_width=data_width
        )
        cones.extend(extract_register_cones(synthesize(module).netlist))
    return cones


def cone_tags(model: NetTAG, cones: Sequence[RegisterCone]) -> List[TextAttributedGraph]:
    """The TAG of every cone at the model's expression-hop setting."""
    return [netlist_to_tag(cone.netlist, k=model.config.expression_hops) for cone in cones]


def seed_sequential_encode(
    model: NetTAG, cones: Sequence[RegisterCone], tags: Sequence[TextAttributedGraph]
) -> List[np.ndarray]:
    """The pre-batching reference implementation of the cone hot path.

    Reproduces the seed behaviour exactly: per-cone ExprLLM batches with a
    raw-text embedding cache and full-length padded sequences, then one
    TAGFormer forward per cone.
    """
    expr_llm = model.expr_llm
    raw_cache: Dict[str, np.ndarray] = {}
    outputs: List[np.ndarray] = []
    original_trim = expr_llm.backbone.trim_padding
    expr_llm.backbone.trim_padding = False
    try:
        for cone, tag in zip(cones, tags):
            texts = model.node_texts(tag)
            text_embeddings = np.zeros((len(texts), expr_llm.output_dim))
            to_compute = [i for i, text in enumerate(texts) if text not in raw_cache]
            for start in range(0, len(to_compute), 64):
                chunk = to_compute[start : start + 64]
                ids, mask = expr_llm.tokenizer.encode_batch([texts[i] for i in chunk])
                embedded = expr_llm.backbone.encode_numpy(np.asarray(ids), np.asarray(mask))
                for row, i in enumerate(chunk):
                    raw_cache[texts[i]] = embedded[row]
            for i, text in enumerate(texts):
                text_embeddings[i] = raw_cache[text]
            norms = np.linalg.norm(text_embeddings, axis=1, keepdims=True)
            text_embeddings = text_embeddings / np.maximum(norms, 1e-9)
            semantic = tag.expression_feature_matrix()
            if not model.config.use_text_attributes:
                semantic = np.zeros_like(semantic)
            physical = tag.physical_matrix()
            if not model.config.use_physical_attributes:
                physical = np.zeros_like(physical)
            features = np.concatenate([text_embeddings, semantic, physical], axis=1)
            node_out, graph_out = model.tagformer.encode_numpy(features, tag.graph.adjacency)
            gates, graph = model._multigrained_outputs(tag, features, node_out, graph_out)
            outputs.append(model.cone_embedding_from_outputs(cone, tag, gates, graph))
    finally:
        expr_llm.backbone.trim_padding = original_trim
    return outputs


def api_sequential_encode(
    model: NetTAG, cones: Sequence[RegisterCone], tags: Sequence[TextAttributedGraph]
) -> List[np.ndarray]:
    """:meth:`NetTAG.encode_cone` semantics on pre-built TAGs (one at a time)."""
    outputs: List[np.ndarray] = []
    for cone, tag in zip(cones, tags):
        gates, graph = model.encode_tag_multigrained(tag)
        outputs.append(model.cone_embedding_from_outputs(cone, tag, gates, graph))
    return outputs


def fast_clone(model: NetTAG) -> NetTAG:
    """A ``backend="fast"`` copy of ``model`` carrying identical weights.

    The clone's parameters are the model's float64 weights cast to the fast
    backend's float32 compute dtype, so fast-vs-reference comparisons measure
    the backend, not a different initialisation.
    """
    config = replace(model.config, backend="fast")
    clone = NetTAG(config, rng=np.random.default_rng(model.config.seed))
    clone.load_state_dict(model.state_dict())
    return clone


def run_parity_check(
    model: NetTAG,
    cones: Sequence[RegisterCone],
    atol: Optional[float] = None,
) -> float:
    """Max |batched − seed-sequential| deviation over the workload.

    Raises :class:`AssertionError` when the batched engine and the seed
    reference disagree beyond ``atol``, which defaults to 1e-8 under a
    float64 backend and 1e-5 under float32 compute, where the same algebra
    holds to float32 rounding.
    """
    if atol is None:
        with use_backend(model.config.backend):
            atol = 1e-8 if get_backend().compute_dtype == np.float64 else 1e-5
    tags = cone_tags(model, cones)
    model.clear_caches()
    batched = model.encode_batch(cones, tags=tags)
    model.clear_caches()
    reference = seed_sequential_encode(model, cones, tags)
    max_diff = max(
        float(np.max(np.abs(got - want))) if got.size else 0.0
        for got, want in zip(batched, reference)
    )
    if max_diff > atol:
        raise AssertionError(
            f"batched/sequential parity failure: max deviation {max_diff:.3e} > {atol:.0e}"
        )
    return max_diff


def run_backend_parity(model: NetTAG, cones: Sequence[RegisterCone], rtol: float = 1e-5) -> float:
    """Max normwise relative deviation of the fast backend vs reference.

    Encodes the workload on ``model`` (reference semantics) and on a
    weight-identical ``backend="fast"`` clone, and compares per-cone
    embeddings by normwise relative error — the documented fast-backend
    contract is forwards within ``1e-5`` relative in float32.  Raises
    :class:`AssertionError` past ``rtol``.
    """
    tags = cone_tags(model, cones)
    model.clear_caches()
    reference = model.encode_batch(cones, tags=tags)
    fast = fast_clone(model).encode_batch(cones, tags=tags)
    max_rel = 0.0
    for want, got in zip(reference, fast):
        if not want.size:
            continue
        diff = float(np.linalg.norm(got.astype(np.float64) - want))
        max_rel = max(max_rel, diff / max(float(np.linalg.norm(want)), 1e-12))
    if max_rel > rtol:
        raise AssertionError(
            f"fast/reference backend parity failure: max normwise relative "
            f"deviation {max_rel:.3e} > {rtol:.0e}"
        )
    return max_rel


def held_burst(
    service,
    requests: Sequence[Tuple[object, str]],
    encoders: Mapping[str, Tuple[object, str]],
    k: int = 10,
    timeout: float = 60.0,
) -> Tuple[list, List[Tuple[set, Counter]]]:
    """Queue ``(item, from_kind)`` queries while the scheduler worker is held.

    The worker is held at the start of its first flush, so the burst is
    queued whole before any flush after it is taken: a scheduler that batches
    answers it in at most ``1 + ceil((len(requests) - 1) / max_batch_size)``
    flushes.  ``encoders`` maps each source kind to the ``(owner, method)``
    that makes one encoder pass for it.  Returns the hits per request and,
    per flush, the source kinds it carried and the encoder passes it made.
    """
    scheduler = service._scheduler
    release = threading.Event()
    flushes: List[Tuple[set, Counter]] = []
    flush_fn = scheduler.batch_fn

    def held_flush(batch):
        release.wait()
        flushes.append(({payload[0] for _, payload in batch}, Counter()))
        return flush_fn(batch)

    def counted(kind, encode):
        def encode_and_count(*args, **kwargs):
            flushes[-1][1][kind] += 1
            return encode(*args, **kwargs)

        return encode_and_count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "batch_fn", held_flush)
        for kind, (owner, method) in encoders.items():
            patch.setattr(owner, method, counted(kind, getattr(owner, method)))
        futures = [service.submit_query(item, kind, k=k) for item, kind in requests]
        release.set()
        hits = [future.result(timeout=timeout) for future in futures]
    return hits, flushes
