"""The NetTAG foundation model.

NetTAG combines the frozen-after-Step-1 ExprLLM text encoder with the
TAGFormer graph transformer.  After pre-training it produces embeddings at
three granularities (Section II-F of the paper):

* **gate embeddings** — the TAGFormer node outputs,
* **register-cone embeddings** — the [CLS] embedding of a cone's TAG,
* **circuit embeddings** — the [CLS] embedding for combinational circuits, or
  the sum of all register-cone embeddings for sequential circuits.

These embeddings are then fine-tuned with lightweight task heads
(:mod:`repro.core.finetune`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..encoders import ExprLLM, TAGFormer
from ..netlist import (
    BatchedTAG,
    Netlist,
    RegisterCone,
    TextAttributedGraph,
    chunk_by_node_budget,
    extract_register_cones,
    netlist_to_tag,
)
from .config import NetTAGConfig

# Dense batched attention is O((nodes + graphs)^2); chunking the batch keeps
# the packed forward within a bounded working set while still amortising the
# per-forward Python dispatch cost over many graphs.
DEFAULT_MAX_NODES_PER_CHUNK = 2048


@dataclass
class CircuitEmbedding:
    """Embeddings of one circuit at every granularity NetTAG supports."""

    name: str
    gate_embeddings: np.ndarray                  # (num_gates, dim)
    gate_names: List[str]
    graph_embedding: np.ndarray                  # (dim,)
    cone_embeddings: Dict[str, np.ndarray] = field(default_factory=dict)  # register -> (dim,)
    physical_summary: np.ndarray = field(default_factory=lambda: np.zeros(0))  # summed TAG physical vectors

    @property
    def dim(self) -> int:
        """Width of the circuit-level embedding vector."""
        return int(self.graph_embedding.shape[0])

    def gate_embedding(self, gate_name: str) -> np.ndarray:
        """The embedding row of one gate, looked up by name."""
        index = self.gate_names.index(gate_name)
        return self.gate_embeddings[index]


class NetTAG(nn.Module):
    """ExprLLM + TAGFormer multimodal netlist encoder."""

    def __init__(self, config: Optional[NetTAGConfig] = None, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config or NetTAGConfig()
        rng = rng or np.random.default_rng(self.config.seed)
        # Parameters are created under the configured backend so their dtype
        # matches the kernels that will consume them (float32 under "fast").
        with nn.use_backend(self.config.backend):
            self.expr_llm = ExprLLM(config=self.config.text_encoder_config(), rng=rng)
            self.tagformer = TAGFormer(self.config.tagformer_config(), rng=rng)

    def backend_scope(self):
        """Context manager activating this model's configured backend.

        ``config.backend=None`` inherits the process-wide active backend
        (``REPRO_BACKEND`` / ``nn.set_backend``), making the scope a no-op.
        Every public encode entry point runs inside this scope.
        """
        return nn.use_backend(self.config.backend)

    # ------------------------------------------------------------------
    # TAG-level encoding
    # ------------------------------------------------------------------
    @property
    def output_dim(self) -> int:
        """Width of the fused TAGFormer output embeddings."""
        return self.tagformer.output_dim

    def node_texts(self, tag: TextAttributedGraph) -> List[str]:
        """Node texts respecting the ``use_text_attributes`` ablation switch.

        The "w/o TAG" ablation of Fig. 6 removes the text attributes entirely
        and relies on graph structure plus the numeric physical channel, so
        every node gets the same empty text (a constant embedding).
        """
        if self.config.use_text_attributes:
            return tag.node_texts
        return ["" for _ in tag.nodes]

    def tag_node_features(self, tag: TextAttributedGraph) -> np.ndarray:
        """TAGFormer input features for one TAG (equation (2) of the paper).

        The semantic channel is the ExprLLM embedding of the gate text plus the
        static-analysis features of the symbolic expression; the physical
        channel is the gate's physical characteristic vector.  The ablation
        switches zero out the corresponding channel.
        """
        with self.backend_scope():
            return self._batched_node_features([tag])[0]

    def encode_tag(self, tag: TextAttributedGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Encode one TAG into (node embeddings, graph embedding), as numpy."""
        if tag.num_nodes == 0:
            dim = self.output_dim
            return np.zeros((0, dim)), np.zeros(dim)
        with self.backend_scope():
            features = self._batched_node_features([tag])[0]
            return self.tagformer.encode_numpy(features, tag.graph.adjacency)

    def encode_tag_multigrained(self, tag: TextAttributedGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Encode one TAG keeping the modality-specific inputs in the output.

        Gate embeddings are ``[TAGFormer node output ++ input features ++
        1-hop and 2-hop neighbourhood-propagated input features]``; the graph
        embedding is ``[CLS output ++ mean node output ++ mean input
        features]``.  The propagated channels mirror the simple-GCN branch of
        SGFormer: a gate's functional role depends on the symbolic/physical
        attributes of its fan-in/fan-out neighbourhood, and at CPU scale the
        deterministic propagation keeps that signal even when the small
        pre-trained TAGFormer is noisy.  With
        ``config.multi_grained_embeddings=False`` this degrades to the plain
        fused outputs of :meth:`encode_tag`.
        """
        if tag.num_nodes == 0:
            gate_dim = self.gate_embedding_dim
            return np.zeros((0, gate_dim)), np.zeros(self.graph_embedding_dim)
        with self.backend_scope():
            features = self._batched_node_features([tag])[0]
            node_out, graph_out = self.tagformer.encode_numpy(features, tag.graph.adjacency)
        # Graph readout: [CLS] output plus mean/sum pooling of node outputs and
        # input features, plus the log node count (standard multi-readout).
        return self._multigrained_outputs(tag, features, node_out, graph_out)

    # ------------------------------------------------------------------
    # Batched TAG encoding (the serving hot path)
    # ------------------------------------------------------------------
    def _batched_node_features(self, tags: Sequence[TextAttributedGraph]) -> List[np.ndarray]:
        """Per-tag TAGFormer input features with one ExprLLM pass for the batch.

        Semantically identical to calling :meth:`tag_node_features` per TAG,
        but all gate texts go through a single :meth:`ExprLLM.encode_texts`
        call, so the expression-embedding cache deduplicates repeated
        expressions across every graph in the batch at once.
        """
        texts: List[str] = []
        counts: List[int] = []
        for tag in tags:
            tag_texts = self.node_texts(tag)
            texts.extend(tag_texts)
            counts.append(len(tag_texts))
        all_text_embeddings = self.expr_llm.encode_texts(texts)
        features: List[np.ndarray] = []
        offset = 0
        for tag, count in zip(tags, counts):
            text_embeddings = all_text_embeddings[offset : offset + count]
            offset += count
            semantic = tag.expression_feature_matrix()
            if not self.config.use_text_attributes:
                semantic = np.zeros_like(semantic)
            physical = tag.physical_matrix()
            if not self.config.use_physical_attributes:
                physical = np.zeros_like(physical)
            features.append(np.concatenate([text_embeddings, semantic, physical], axis=1))
        return features

    def encode_tags_batch(
        self,
        tags: Sequence[TextAttributedGraph],
        max_nodes_per_chunk: int = DEFAULT_MAX_NODES_PER_CHUNK,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Batched equivalent of :meth:`encode_tag_multigrained` for many TAGs.

        All graphs are packed into block-diagonal batches (chunked by a node
        budget) and refined in one TAGFormer forward per chunk; ExprLLM sees
        one deduplicated text batch per chunk.  Returns ``(gate_embeddings,
        graph_embedding)`` per input TAG, in order, numerically matching the
        sequential path to ~1e-12.  Empty TAGs yield zero embeddings exactly
        as the sequential path does.
        """
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(tags)
        nonempty: List[int] = []
        for i, tag in enumerate(tags):
            if tag.num_nodes == 0:
                results[i] = (
                    np.zeros((0, self.gate_embedding_dim)),
                    np.zeros(self.graph_embedding_dim),
                )
            else:
                nonempty.append(i)
        with self.backend_scope():
            for chunk in chunk_by_node_budget(
                [tags[i].num_nodes for i in nonempty], max_nodes_per_chunk
            ):
                chunk_indices = [nonempty[c] for c in chunk]
                chunk_tags = [tags[i] for i in chunk_indices]
                features = self._batched_node_features(chunk_tags)
                batch = BatchedTAG.from_tags(chunk_tags)
                packed_features = batch.pack(features)
                node_outputs, graph_outputs = self.tagformer.encode_batch_numpy(
                    packed_features, batch
                )
                chunk_results = self._multigrained_outputs_packed(
                    batch, packed_features, node_outputs, graph_outputs
                )
                for position, tag_index in enumerate(chunk_indices):
                    results[tag_index] = chunk_results[position]
        return results  # type: ignore[return-value]

    def _multigrained_outputs(
        self,
        tag: TextAttributedGraph,
        features: np.ndarray,
        node_out: np.ndarray,
        graph_out: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Multi-grained readout shared by the sequential and batched paths."""
        if not self.config.multi_grained_embeddings:
            return node_out, graph_out
        adjacency = tag.graph.adjacency
        propagated_1hop = adjacency @ features
        propagated_2hop = adjacency @ propagated_1hop
        gate_embeddings = np.concatenate(
            [node_out, features, propagated_1hop, propagated_2hop], axis=1
        )
        graph_embedding = np.concatenate(
            [
                graph_out,
                node_out.mean(axis=0),
                features.mean(axis=0),
                np.log1p(np.maximum(features, 0.0).sum(axis=0)),
                [np.log1p(float(tag.num_nodes))],
            ]
        )
        return gate_embeddings, graph_embedding

    def _multigrained_outputs_packed(
        self,
        batch: BatchedTAG,
        packed_features: np.ndarray,
        node_out: np.ndarray,
        graph_out: np.ndarray,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised multi-grained readout over one packed batch.

        Equivalent to applying :meth:`_multigrained_outputs` per graph: the
        neighbourhood propagation runs per graph on the small per-graph
        adjacencies (bit-identical to the sequential path, and it never
        materialises the dense block-diagonal matrix), and ``np.add.reduceat``
        over the per-graph offsets computes all pooled readouts at once.
        """
        graph_rows = [graph_out[g] for g in range(batch.num_graphs)]
        if not self.config.multi_grained_embeddings:
            return list(zip(batch.split(node_out), graph_rows))
        feature_blocks = batch.split(packed_features)
        hop1_blocks = [a @ f for a, f in zip(batch.adjacencies, feature_blocks)]
        hop2_blocks = [a @ p for a, p in zip(batch.adjacencies, hop1_blocks)]
        propagated_1hop = np.concatenate(hop1_blocks, axis=0)
        propagated_2hop = np.concatenate(hop2_blocks, axis=0)
        gate_packed = np.concatenate(
            [node_out, packed_features, propagated_1hop, propagated_2hop], axis=1
        )
        starts = batch.offsets[:-1]
        sizes = batch.sizes.astype(np.float64)[:, None]
        mean_out = np.add.reduceat(node_out, starts, axis=0) / sizes
        mean_features = np.add.reduceat(packed_features, starts, axis=0) / sizes
        log_sums = np.log1p(
            np.add.reduceat(np.maximum(packed_features, 0.0), starts, axis=0)
        )
        log_counts = np.log1p(sizes)
        graph_embeddings = np.concatenate(
            [graph_out, mean_out, mean_features, log_sums, log_counts], axis=1
        )
        return list(
            zip(batch.split(gate_packed), [graph_embeddings[g] for g in range(batch.num_graphs)])
        )

    def encode_batch(
        self,
        cones: Sequence[RegisterCone],
        tags: Optional[Sequence[TextAttributedGraph]] = None,
        max_nodes_per_chunk: int = DEFAULT_MAX_NODES_PER_CHUNK,
    ) -> List[np.ndarray]:
        """Batched equivalent of :meth:`encode_cone` over many register cones.

        Returns one cone embedding per input cone, in order.  ``tags`` may
        supply pre-built cone TAGs (same order) to skip TAG construction.
        """
        if tags is None:
            tags = [
                netlist_to_tag(cone.netlist, k=self.config.expression_hops)
                for cone in cones
            ]
        if len(tags) != len(cones):
            raise ValueError(f"got {len(tags)} TAGs for {len(cones)} cones")
        encoded = self.encode_tags_batch(tags, max_nodes_per_chunk=max_nodes_per_chunk)
        return [
            self.cone_embedding_from_outputs(cone, tag, gates, graph)
            for cone, tag, (gates, graph) in zip(cones, tags, encoded)
        ]

    def cone_embedding_from_outputs(
        self,
        cone: RegisterCone,
        tag: TextAttributedGraph,
        gate_embeddings: np.ndarray,
        graph_embedding: np.ndarray,
    ) -> np.ndarray:
        """Assemble one cone embedding from its TAG's encoded outputs.

        In multi-grained mode the endpoint register's own gate embedding is
        appended to the graph embedding (the endpoint defines the cone); this
        is the single definition shared by the sequential path, the batched
        path and the seed-path reference the tests keep.
        """
        if not self.config.multi_grained_embeddings:
            return graph_embedding
        index = tag.graph.name_to_index.get(cone.register_name)
        endpoint = (
            gate_embeddings[index]
            if index is not None
            else np.zeros(self.gate_embedding_dim)
        )
        return np.concatenate([graph_embedding, endpoint])

    @property
    def gate_embedding_dim(self) -> int:
        """Width of one gate embedding (multi-grained readout included)."""
        if not self.config.multi_grained_embeddings:
            return self.output_dim
        # Fused output + raw input features + 1-hop and 2-hop propagated features.
        return self.output_dim + 3 * self.tagformer.config.input_dim

    @property
    def graph_embedding_dim(self) -> int:
        """Width of one graph-level embedding (multi-grained readout included)."""
        if not self.config.multi_grained_embeddings:
            return self.output_dim
        return 2 * self.output_dim + 2 * self.tagformer.config.input_dim + 1

    @property
    def index_dim(self) -> int:
        """Width of the shared embedding-index space (``repro.serve``).

        Cone embeddings are the widest vectors the model emits
        (graph embedding ++ endpoint gate embedding); circuit embeddings are
        either exactly that wide (sequential circuits: sum of cone embeddings)
        or narrower (combinational circuits: the graph embedding alone) and
        get zero-padded by :meth:`pad_to_index_dim`, so one index holds both.
        """
        if not self.config.multi_grained_embeddings:
            return self.output_dim
        return self.graph_embedding_dim + self.gate_embedding_dim

    def pad_to_index_dim(self, vector: np.ndarray) -> np.ndarray:
        """Zero-pad an embedding up to :attr:`index_dim` (float64 copy)."""
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] > self.index_dim:
            raise ValueError(
                f"embedding of dim {vector.shape[0]} exceeds index dim {self.index_dim}"
            )
        if vector.shape[0] == self.index_dim:
            return vector.copy()
        padded = np.zeros(self.index_dim)
        padded[: vector.shape[0]] = vector
        return padded

    # ------------------------------------------------------------------
    # Netlist-level embeddings
    # ------------------------------------------------------------------
    def build_tag(self, netlist: Netlist) -> TextAttributedGraph:
        """The text-attributed graph of a netlist at the configured hop count."""
        return netlist_to_tag(netlist, k=self.config.expression_hops)

    def encode_netlist(
        self,
        netlist: Netlist,
        tag: Optional[TextAttributedGraph] = None,
        cones: Optional[Sequence[RegisterCone]] = None,
        max_nodes_per_chunk: int = DEFAULT_MAX_NODES_PER_CHUNK,
    ) -> CircuitEmbedding:
        """Embed a full circuit at all granularities through the batched engine.

        Combinational circuits use the [CLS] embedding of the whole-netlist
        TAG; sequential circuits additionally embed every register cone and
        define the circuit embedding as the sum of cone embeddings.  The
        whole-netlist TAG and every cone TAG are encoded together in packed
        batches (one TAGFormer forward per chunk, one deduplicated ExprLLM
        text batch per chunk).
        """
        tag = tag or self.build_tag(netlist)
        if netlist.is_sequential_design():
            cones = cones if cones is not None else extract_register_cones(netlist)
        else:
            cones = []
        cone_tags = [
            netlist_to_tag(cone.netlist, k=self.config.expression_hops) for cone in cones
        ]
        encoded = self.encode_tags_batch(
            [tag] + cone_tags, max_nodes_per_chunk=max_nodes_per_chunk
        )
        return self._assemble_circuit_embedding(netlist, tag, cones, encoded[0], encoded[1:])

    def _assemble_circuit_embedding(
        self,
        netlist: Netlist,
        tag: TextAttributedGraph,
        cones: Sequence[RegisterCone],
        circuit_encoded: Tuple[np.ndarray, np.ndarray],
        cone_encoded: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> CircuitEmbedding:
        """Assemble one :class:`CircuitEmbedding` from batched TAG outputs.

        Shared by the single-netlist and the directory-batch paths: sequential
        circuits override the graph embedding with the sum of their cone
        embeddings (Section II-F of the paper).
        """
        gate_embeddings, graph_embedding = circuit_encoded
        physical_summary = (
            tag.physical_matrix(normalise=False).sum(axis=0) if tag.num_nodes else np.zeros(0)
        )
        result = CircuitEmbedding(
            name=netlist.name,
            gate_embeddings=gate_embeddings,
            gate_names=list(tag.graph.node_names),
            graph_embedding=graph_embedding,
            physical_summary=physical_summary,
        )
        cone_sum: Optional[np.ndarray] = None
        for cone, (_, cone_embedding) in zip(cones, cone_encoded):
            result.cone_embeddings[cone.register_name] = cone_embedding
            cone_sum = cone_embedding if cone_sum is None else cone_sum + cone_embedding
        if cone_sum is not None:
            result.graph_embedding = cone_sum
        return result

    def embed_circuit(
        self,
        netlist: Netlist,
        tag: Optional[TextAttributedGraph] = None,
        cones: Optional[Sequence[RegisterCone]] = None,
    ) -> CircuitEmbedding:
        """Alias of :meth:`encode_netlist` (kept for the original API name)."""
        return self.encode_netlist(netlist, tag=tag, cones=cones)

    def encode_netlists(
        self,
        netlists: Sequence[Netlist],
        max_nodes_per_chunk: int = DEFAULT_MAX_NODES_PER_CHUNK,
    ) -> List[CircuitEmbedding]:
        """Embed many circuits through one shared batched encoding pass.

        All whole-netlist TAGs and every register-cone TAG across *all* input
        netlists are packed together (chunked by node budget), so the ExprLLM
        expression cache deduplicates repeated gate texts across designs and
        the TAGFormer dispatch cost is amortised over the whole directory —
        the same fast path as :meth:`encode_batch`, lifted to netlist level.
        Results match per-netlist :meth:`encode_netlist` calls to the batched
        engine's numerical parity (~1e-12; chunk packing differs, so the
        floating-point reduction order may differ in the last few ulps).
        """
        tags: List[TextAttributedGraph] = []
        cones_per_netlist: List[List[RegisterCone]] = []
        spans: List[Tuple[int, int]] = []  # (tag index, number of cone tags)
        for netlist in netlists:
            tag = self.build_tag(netlist)
            cones = (
                list(extract_register_cones(netlist))
                if netlist.is_sequential_design()
                else []
            )
            spans.append((len(tags), len(cones)))
            cones_per_netlist.append(cones)
            tags.append(tag)
            tags.extend(
                netlist_to_tag(cone.netlist, k=self.config.expression_hops)
                for cone in cones
            )
        encoded = self.encode_tags_batch(tags, max_nodes_per_chunk=max_nodes_per_chunk)
        return [
            self._assemble_circuit_embedding(
                netlist,
                tags[tag_index],
                cones,
                encoded[tag_index],
                encoded[tag_index + 1 : tag_index + 1 + num_cones],
            )
            for netlist, cones, (tag_index, num_cones) in zip(
                netlists, cones_per_netlist, spans
            )
        ]

    def embed_gates(self, netlist: Netlist, tag: Optional[TextAttributedGraph] = None) -> Tuple[np.ndarray, List[str]]:
        """Gate-level embeddings plus the corresponding gate name order."""
        tag = tag or self.build_tag(netlist)
        embeddings, _ = self.encode_tags_batch([tag])[0]
        return embeddings, list(tag.graph.node_names)

    def encode_cone(self, cone: RegisterCone) -> np.ndarray:
        """Embedding of one register cone.

        The cone embedding is the graph-level embedding of the cone's TAG; in
        multi-grained mode the endpoint register's own gate embedding (whose
        text attribute is the register's next-state expression) is appended,
        since the endpoint is what defines the cone.
        """
        cone_tag = netlist_to_tag(cone.netlist, k=self.config.expression_hops)
        gate_embeddings, graph_embedding = self.encode_tag_multigrained(cone_tag)
        return self.cone_embedding_from_outputs(cone, cone_tag, gate_embeddings, graph_embedding)

    def embed_cones(self, cones: Sequence[RegisterCone]) -> Dict[str, np.ndarray]:
        """Register-cone embeddings keyed by register name (batched)."""
        cones = list(cones)
        embeddings = self.encode_batch(cones)
        return {cone.register_name: emb for cone, emb in zip(cones, embeddings)}

    def circuit_feature_vector(self, netlist: Netlist, embedding: Optional[CircuitEmbedding] = None) -> np.ndarray:
        """Circuit-level feature vector for fine-tuning (Task 4).

        Combines the circuit embedding with the summed per-gate physical
        attributes of the TAG (log-scaled), which is the circuit-level view of
        the physical information NetTAG's node texts already carry.
        """
        embedding = embedding or self.embed_circuit(netlist)
        summary = np.log1p(np.maximum(embedding.physical_summary, 0.0))
        return np.concatenate([embedding.graph_embedding, summary])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path, extra_metadata: Optional[Dict[str, object]] = None) -> "Path":
        """Save the pre-trained model (weights + configuration) to one ``.npz`` file.

        The metadata records the library version (stamped by
        :func:`repro.nn.save_checkpoint`), the configuration preset and any
        caller-supplied provenance such as the pre-training corpus
        fingerprint; :meth:`load` warns when they disagree with the running
        process instead of silently loading.
        """
        has_lora = any("lora_" in name for name, _ in self.named_parameters())
        metadata: Dict[str, object] = {
            "config": self.config.to_dict(),
            "lora": has_lora,
            "preset": self.config.preset,
        }
        metadata.update(extra_metadata or {})
        return nn.save_checkpoint(self, path, metadata=metadata)

    @classmethod
    def load(
        cls,
        path,
        rng: Optional[np.random.Generator] = None,
        expected_metadata: Optional[Dict[str, object]] = None,
    ) -> "NetTAG":
        """Rebuild a model saved with :meth:`save` (configuration included).

        Warns (instead of silently loading) when the checkpoint was written by
        a different library version, or when any key in ``expected_metadata``
        (e.g. ``preset`` or ``corpus_fingerprint``) disagrees with the stored
        value.
        """
        metadata = nn.peek_metadata(path)
        config = NetTAGConfig.from_dict(metadata.get("config", {}))
        model = cls(config, rng=rng)
        if metadata.get("lora"):
            # Mirror ExprLLMPretrainer, which wraps the backbone with the default
            # LoRA scaling before Step-1 pre-training.
            model.expr_llm.enable_lora(rank=config.expr_pretrain.lora_rank)
        nn.load_checkpoint(model, path, expected_metadata=expected_metadata)
        model.clear_caches()
        return model

    def fingerprint(self) -> str:
        """Short content hash of the configuration and every parameter.

        Embedding indexes (``repro.serve``) stamp this into their manifest so
        that querying an index with a different model — retrained weights, a
        different preset — warns instead of silently comparing vectors from
        two embedding spaces.
        """
        import hashlib
        import json

        digest = hashlib.sha256()
        digest.update(
            json.dumps(self.config.to_dict(), sort_keys=True, default=str).encode("utf-8")
        )
        for name, param in self.named_parameters():
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(param.data).tobytes())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the expression-embedding cache (e.g. after loading new weights)."""
        self.expr_llm.clear_cache()
