"""End-to-end NetTAG pipeline: preprocessing, two-step pre-training, alignment.

This module glues every substrate together, mirroring Fig. 2 of the paper:

1. **Circuit preprocessing** — RTL benchmark modules are synthesised to
   post-mapping netlists, chunked into register cones and converted to TAGs;
   the matching RTL cone text and layout graph are kept for cross-stage
   alignment.
2. **Step 1** — ExprLLM is pre-trained with symbolic expression contrastive
   learning on the gate-expression corpus (with LoRA adapters).
3. **Auxiliary encoders** — the RTL and layout encoders are pre-trained with
   their own contrastive objectives and then frozen.
4. **Step 2** — TAGFormer is pre-trained with the node/graph self-supervised
   objectives plus cross-stage alignment.

Every gradient loop runs on the shared :class:`repro.train.Trainer` engine,
so the whole pipeline can be checkpointed mid-training (``checkpoint_every``)
and resumed bit-identically (``resume=True``).  Preprocessing artefacts
(synthesised designs, the expression corpus, the Step-2 samples) are cached on
disk by an :class:`repro.train.ArtifactStore` keyed by config+seed, so a rerun
with a warm ``cache_dir`` skips straight to training; per-stage timers in the
summary make cache hits observable.

The resulting :class:`~repro.core.nettag.NetTAG` model produces embeddings for
the downstream tasks in :mod:`repro.tasks`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..encoders import LayoutEncoder, RTLEncoder, pretrain_layout_encoder, pretrain_rtl_encoder
from ..netlist import (
    Netlist,
    RegisterCone,
    TextAttributedGraph,
    extract_register_cones,
    netlist_to_tag,
    write_verilog,
)
from ..physical import derive_layout_graph
from ..physical.layout_graph import LayoutGraph
from ..pretrain import (
    ExprLLMPretrainer,
    ExprPretrainResult,
    TAGFormerPretrainer,
    TAGPretrainResult,
    build_pretrain_sample,
    collect_expression_corpus,
)
from ..rtl import RTLModule, generate_pretraining_corpus, render_register_cone
from ..synth import synthesize
from ..train import ArtifactStore, RunManifest, StageTiming, fingerprint
from .config import NetTAGConfig
from .nettag import NetTAG

PathLike = Union[str, Path]

# Stage names, in execution order.  Trainer-backed stages keep a periodic
# checkpoint (and a final snapshot) under these names in the checkpoint
# directory; artefact stages cache under them in the artifact store.
STAGE_PREPROCESS = "preprocess"
STAGE_EXPR_CORPUS = "expr_corpus"
STAGE_EXPR_PRETRAIN = "expr_pretrain"
STAGE_RTL_ALIGN = "rtl_align"
STAGE_LAYOUT_ALIGN = "layout_align"
STAGE_SAMPLES = "samples"
STAGE_TAG_PRETRAIN = "tag_pretrain"
# Post-training stages: embedding-index payloads (not part of PIPELINE_STAGES,
# which lists the pre-training stop_after targets).
STAGE_INDEX = "index_build"
STAGE_MULTIMODAL = "multimodal_index"
PIPELINE_STAGES = (
    STAGE_PREPROCESS,
    STAGE_EXPR_CORPUS,
    STAGE_EXPR_PRETRAIN,
    STAGE_RTL_ALIGN,
    STAGE_LAYOUT_ALIGN,
    STAGE_SAMPLES,
    STAGE_TAG_PRETRAIN,
)


def _designs_fingerprint(designs: Sequence["PreprocessedDesign"]) -> str:
    """Content hash of preprocessed designs (rendered netlists, not just names).

    Used to key downstream cached artefacts, so designs that share names and
    sizes but differ in wiring can never collide on a warm cache.
    """
    digest = hashlib.sha256()
    for design in designs:
        digest.update(design.name.encode("utf-8"))
        digest.update(write_verilog(design.netlist).encode("utf-8"))
        digest.update(str(len(design.cones)).encode("utf-8"))
    return digest.hexdigest()[:16]


def _netlist_corpus_digest(netlists: Sequence[Netlist]) -> str:
    """Content hash of a netlist corpus (names + rendered Verilog).

    The cache key of the index-building stages: two corpora that share names
    and sizes but differ in wiring can never collide on a warm cache.
    """
    digest = hashlib.sha256()
    for netlist in netlists:
        digest.update(netlist.name.encode("utf-8"))
        digest.update(write_verilog(netlist).encode("utf-8"))
    return digest.hexdigest()[:16]


def _module_fingerprint(module: Optional[nn.Module]) -> str:
    """Short content hash of a module's parameters (cache-key ingredient)."""
    if module is None:
        return "none"
    digest = hashlib.sha256()
    for name, param in module.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()[:16]


@dataclass
class PreprocessedDesign:
    """All artefacts derived from one RTL design during preprocessing."""

    module: RTLModule
    netlist: Netlist
    cones: List[RegisterCone]
    cone_tags: List[TextAttributedGraph]
    rtl_cone_texts: List[Optional[str]]
    cone_layouts: List[Optional[LayoutGraph]]
    suite: str = "unknown"
    preprocess_seconds: float = 0.0

    @property
    def name(self) -> str:
        """The synthesised netlist's name (the design's corpus identity)."""
        return self.netlist.name


@dataclass
class PretrainSummary:
    """Timing and loss summary of the whole pre-training pipeline."""

    expr_result: Optional[ExprPretrainResult] = None
    tag_result: Optional[TAGPretrainResult] = None
    num_designs: int = 0
    num_cones: int = 0
    num_expressions: int = 0
    preprocess_seconds: float = 0.0
    expr_pretrain_seconds: float = 0.0
    tag_pretrain_seconds: float = 0.0
    alignment_seconds: float = 0.0
    stage_timings: List[StageTiming] = field(default_factory=list)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    resumed: bool = False
    stopped_after: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across every executed pipeline stage."""
        return (
            self.preprocess_seconds
            + self.expr_pretrain_seconds
            + self.tag_pretrain_seconds
            + self.alignment_seconds
        )

    def record_stage(self, timing: StageTiming) -> None:
        """Append one stage's timing to the summary."""
        self.stage_timings.append(timing)

    def stage_report(self) -> List[str]:
        """One human-readable line per executed stage (cache hits marked)."""
        return [timing.describe() for timing in self.stage_timings]


class NetTAGPipeline:
    """Builds, pre-trains and serves a NetTAG foundation model.

    ``cache_dir`` enables on-disk caching of preprocessing artefacts keyed by
    configuration + seed; ``checkpoint_dir`` is where resumable training
    checkpoints live (defaults to ``<cache_dir>/checkpoints`` when only a
    cache directory is given).
    """

    def __init__(
        self,
        config: Optional[NetTAGConfig] = None,
        cache_dir: Optional[PathLike] = None,
        checkpoint_dir: Optional[PathLike] = None,
        model: Optional[NetTAG] = None,
    ) -> None:
        """Build a pipeline, optionally around an existing (loaded) model.

        ``model`` skips constructing a fresh randomly-initialised NetTAG —
        the CLI passes a loaded checkpoint here; its config wins when
        ``config`` is omitted.  The auxiliary encoders then seed from an
        independent stream, so their init does not depend on how the model
        was obtained.
        """
        self.config = config or (model.config if model is not None else NetTAGConfig())
        if model is not None:
            self.model = model
            rng = np.random.default_rng([self.config.seed, 3])
        else:
            rng = np.random.default_rng(self.config.seed)
            self.model = NetTAG(self.config, rng=rng)
        self.rtl_encoder = RTLEncoder(rng=rng) if self.config.use_cross_stage_alignment else None
        self.layout_encoder = LayoutEncoder(rng=rng) if self.config.use_cross_stage_alignment else None
        self.designs: List[PreprocessedDesign] = []
        self.summary = PretrainSummary()
        self.artifacts = ArtifactStore(cache_dir)
        if checkpoint_dir is None and cache_dir is not None:
            checkpoint_dir = Path(cache_dir) / "checkpoints"
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.corpus_fingerprint: Optional[str] = None
        self._pretrained = False

    # ------------------------------------------------------------------
    # Stage keys
    # ------------------------------------------------------------------
    def _corpus_id(self, corpus: Optional[Dict[str, Sequence[RTLModule]]],
                   designs_per_suite: int) -> Dict[str, object]:
        if corpus is None:
            return {"source": "synthetic", "designs_per_suite": designs_per_suite}
        # Custom modules are fingerprinted by rendered content, not just by
        # name: editing a module's logic must invalidate cached artefacts and
        # stale resume checkpoints.
        from ..rtl import render_module

        return {
            "source": "custom",
            "suites": {
                suite: [
                    f"{m.name}:{hashlib.sha256(render_module(m).encode('utf-8')).hexdigest()[:12]}"
                    for m in modules
                ]
                for suite, modules in corpus.items()
            },
        }

    def _preprocess_key(self, corpus_id: Mapping[str, object]) -> Dict[str, object]:
        return {
            "corpus": dict(corpus_id),
            "seed": self.config.seed,
            "expression_hops": self.config.expression_hops,
            "alignment": self.config.use_cross_stage_alignment,
        }

    def _stage_rng(self, salt: int) -> np.random.Generator:
        """Independent per-stage generator, so cached stages can be skipped
        without shifting the random stream of later stages."""
        return np.random.default_rng([self.config.seed, salt])

    # ------------------------------------------------------------------
    # Preprocessing
    # ------------------------------------------------------------------
    def preprocess_module(self, module: RTLModule, suite: str = "unknown",
                          build_alignment_data: Optional[bool] = None) -> PreprocessedDesign:
        """Synthesise one RTL module and derive cones, TAGs and alignment data."""
        start = time.perf_counter()
        build_alignment_data = (
            self.config.use_cross_stage_alignment
            if build_alignment_data is None
            else build_alignment_data
        )
        netlist = synthesize(module).netlist
        cones = extract_register_cones(netlist)
        cone_tags: List[TextAttributedGraph] = []
        rtl_texts: List[Optional[str]] = []
        layouts: List[Optional[LayoutGraph]] = []
        register_names = {r.name for r in module.registers}
        for cone in cones:
            cone_tags.append(netlist_to_tag(cone.netlist, k=self.config.expression_hops))
            rtl_text: Optional[str] = None
            layout: Optional[LayoutGraph] = None
            if build_alignment_data:
                register_group = cone.attributes.get("register_group")
                if isinstance(register_group, str) and register_group in register_names:
                    rtl_text = render_register_cone(module, register_group)
                layout = derive_layout_graph(cone.netlist)
            rtl_texts.append(rtl_text)
            layouts.append(layout)
        elapsed = time.perf_counter() - start
        return PreprocessedDesign(
            module=module,
            netlist=netlist,
            cones=cones,
            cone_tags=cone_tags,
            rtl_cone_texts=rtl_texts,
            cone_layouts=layouts,
            suite=suite,
            preprocess_seconds=elapsed,
        )

    def preprocess_corpus(self, corpus: Optional[Dict[str, Sequence[RTLModule]]] = None,
                          designs_per_suite: int = 2) -> List[PreprocessedDesign]:
        """Preprocess a pre-training corpus (defaults to the synthetic suites).

        With a ``cache_dir``, the synthesised designs (netlists, cones, TAGs
        and alignment data) are stored on disk keyed by config+seed; a rerun
        with the same configuration loads them instead of re-synthesising.
        """
        corpus_id = self._corpus_id(corpus, designs_per_suite)
        key_payload = self._preprocess_key(corpus_id)

        def _compute() -> List[PreprocessedDesign]:
            built = corpus or generate_pretraining_corpus(
                designs_per_suite=designs_per_suite, seed=self.config.seed
            )
            designs: List[PreprocessedDesign] = []
            for suite, modules in built.items():
                for module in modules:
                    designs.append(self.preprocess_module(module, suite=suite))
            return designs

        self.designs = self.artifacts.get_or_compute(STAGE_PREPROCESS, key_payload, _compute)
        timing = self.artifacts.timings[-1]
        self.summary.record_stage(timing)
        self.summary.preprocess_seconds = timing.seconds
        self.summary.num_designs = len(self.designs)
        self.summary.num_cones = sum(len(d.cones) for d in self.designs)
        self.corpus_fingerprint = fingerprint(
            {
                "designs": _designs_fingerprint(self.designs),
                "key": fingerprint(key_payload),
            }
        )
        return self.designs

    # ------------------------------------------------------------------
    # Pre-training
    # ------------------------------------------------------------------
    def _apply_data_fraction(self, items: Sequence, rng: np.random.Generator) -> List:
        items = list(items)
        if self.config.data_fraction >= 1.0 or len(items) <= 2:
            return items
        keep = max(2, int(round(self.config.data_fraction * len(items))))
        indices = rng.choice(len(items), size=keep, replace=False)
        return [items[i] for i in sorted(indices)]

    def _trainer_stage_args(self, stage: str, manifest: Optional[RunManifest],
                            resume: bool, checkpoint_every: int,
                            max_steps: Optional[Mapping[str, int]]) -> Dict[str, object]:
        args: Dict[str, object] = {
            "resume": resume and manifest is not None,
            "checkpoint_every": checkpoint_every,
            "max_steps": (max_steps or {}).get(stage),
        }
        if manifest is not None:
            args["checkpoint_path"] = manifest.checkpoint_path(stage)
        return args

    def _record_trainer_stage(self, stage: str, seconds: float, replayed: bool) -> None:
        self.summary.record_stage(
            StageTiming(name=stage, seconds=seconds, cached=replayed)
        )

    def pretrain(
        self,
        corpus: Optional[Dict[str, Sequence[RTLModule]]] = None,
        designs_per_suite: int = 2,
        resume: bool = False,
        checkpoint_every: int = 0,
        stop_after: Optional[str] = None,
        max_steps: Optional[Mapping[str, int]] = None,
    ) -> PretrainSummary:
        """Run the full two-step pre-training pipeline.

        ``checkpoint_every`` makes every training stage snapshot its full
        state (weights, optimiser moments, schedule step, RNG state, loss
        curves) every N optimiser steps into ``checkpoint_dir``.
        ``resume=True`` continues an interrupted run from those snapshots;
        the combined run is bit-identical to an uninterrupted one.
        ``stop_after`` / ``max_steps`` (a ``{stage: global step}`` mapping)
        stop early — useful to simulate interruption or budget a run.
        """
        if stop_after is not None and stop_after not in PIPELINE_STAGES:
            raise ValueError(f"unknown stage {stop_after!r}; choose from {PIPELINE_STAGES}")
        manifest: Optional[RunManifest] = None
        if self.checkpoint_dir is not None:
            run_key = fingerprint(
                {
                    "config": self.config.to_dict(),
                    "corpus": self._corpus_id(corpus, designs_per_suite),
                }
            )
            manifest = RunManifest(self.checkpoint_dir, run_key)
        self.summary = PretrainSummary(resumed=resume)

        # Stage: preprocessing (artifact-cached).
        if not self.designs:
            self.preprocess_corpus(corpus, designs_per_suite=designs_per_suite)
        else:
            self.summary.num_designs = len(self.designs)
            self.summary.num_cones = sum(len(d.cones) for d in self.designs)
            if self.corpus_fingerprint is None:
                self.corpus_fingerprint = fingerprint(
                    {"designs": _designs_fingerprint(self.designs)}
                )
        trainer_metadata = {
            "preset": self.config.preset,
            "corpus_fingerprint": self.corpus_fingerprint,
        }
        if stop_after == STAGE_PREPROCESS:
            return self._finish_summary(stop_after)

        all_tags = [tag for design in self.designs for tag in design.cone_tags]
        fraction_rng = self._stage_rng(17)
        all_tags = self._apply_data_fraction(all_tags, fraction_rng)

        # Stage: expression corpus (artifact-cached).
        corpus_key = {
            "corpus_fingerprint": self.corpus_fingerprint,
            "data_fraction": self.config.data_fraction,
            "seed": self.config.seed,
            "enabled": self.config.use_expression_contrastive,
        }
        def _compute_corpus() -> List[str]:
            if not self.config.use_expression_contrastive:
                return []
            expressions = collect_expression_corpus(all_tags, max_expressions_per_design=40)
            return self._apply_data_fraction(expressions, fraction_rng)

        expressions = self.artifacts.get_or_compute(STAGE_EXPR_CORPUS, corpus_key, _compute_corpus)
        self.summary.record_stage(self.artifacts.timings[-1])
        self.summary.num_expressions = len(expressions)
        if stop_after == STAGE_EXPR_CORPUS:
            return self._finish_summary(stop_after)

        # Stage: Step-1 expression contrastive pre-training of ExprLLM.
        if self.config.use_expression_contrastive:
            start = time.perf_counter()
            pretrainer = ExprLLMPretrainer(self.model.expr_llm, self.config.expr_pretrain)
            self.summary.expr_result = pretrainer.run(
                expressions,
                metadata=trainer_metadata,
                **self._trainer_stage_args(
                    STAGE_EXPR_PRETRAIN, manifest, resume, checkpoint_every, max_steps
                ),
            )
            self.summary.expr_pretrain_seconds = time.perf_counter() - start
            result = self.summary.expr_result
            self._record_trainer_stage(
                STAGE_EXPR_PRETRAIN, self.summary.expr_pretrain_seconds,
                replayed=result.resumed_from_step > 0 and result.resumed_from_step >= result.steps,
            )
            if not result.completed or stop_after == STAGE_EXPR_PRETRAIN:
                return self._finish_summary(STAGE_EXPR_PRETRAIN)
        elif stop_after == STAGE_EXPR_PRETRAIN:
            return self._finish_summary(stop_after)

        # Stages: auxiliary encoders for cross-stage alignment.
        if self.config.use_cross_stage_alignment and self.rtl_encoder is not None and self.layout_encoder is not None:
            rtl_texts = [t for d in self.designs for t in d.rtl_cone_texts if t]
            layouts = [l for d in self.designs for l in d.cone_layouts if l is not None]

            start = time.perf_counter()
            rtl_result = pretrain_rtl_encoder(
                self.rtl_encoder, rtl_texts, num_steps=4, seed=self.config.seed,
                return_result=True,
                **self._trainer_stage_args(
                    STAGE_RTL_ALIGN, manifest, resume, checkpoint_every, max_steps
                ),
            )
            rtl_seconds = time.perf_counter() - start
            self._record_trainer_stage(
                STAGE_RTL_ALIGN, rtl_seconds,
                replayed=rtl_result.resumed_from_step > 0
                and rtl_result.resumed_from_step >= rtl_result.steps,
            )
            if not rtl_result.completed:
                self.summary.alignment_seconds = rtl_seconds
                return self._finish_summary(STAGE_RTL_ALIGN)
            if stop_after == STAGE_RTL_ALIGN:
                self.summary.alignment_seconds = rtl_seconds
                return self._finish_summary(stop_after)

            start = time.perf_counter()
            layout_result = pretrain_layout_encoder(
                self.layout_encoder, layouts[:8], num_steps=4, seed=self.config.seed,
                return_result=True,
                **self._trainer_stage_args(
                    STAGE_LAYOUT_ALIGN, manifest, resume, checkpoint_every, max_steps
                ),
            )
            layout_seconds = time.perf_counter() - start
            self._record_trainer_stage(
                STAGE_LAYOUT_ALIGN, layout_seconds,
                replayed=layout_result.resumed_from_step > 0
                and layout_result.resumed_from_step >= layout_result.steps,
            )
            self.summary.alignment_seconds = rtl_seconds + layout_seconds
            if not layout_result.completed:
                return self._finish_summary(STAGE_LAYOUT_ALIGN)
        if stop_after in (STAGE_RTL_ALIGN, STAGE_LAYOUT_ALIGN):
            return self._finish_summary(stop_after)

        # Stage: Step-2 sample construction (artifact-cached; keyed on the
        # frozen encoder states so stale samples can never be reused).  The
        # weight fingerprints cost a pass over every parameter, so they are
        # only computed when a cache is actually attached.
        type_index = self.designs[0].netlist.library.type_index()
        samples_key = {
            "corpus_fingerprint": self.corpus_fingerprint,
            "data_fraction": self.config.data_fraction,
            "seed": self.config.seed,
            "graph_contrastive": self.config.use_graph_contrastive,
            "text_attributes": self.config.use_text_attributes,
            "alignment": self.config.use_cross_stage_alignment,
        }
        if self.artifacts.enabled:
            samples_key.update(
                expr_llm=_module_fingerprint(self.model.expr_llm),
                rtl_encoder=_module_fingerprint(self.rtl_encoder),
                layout_encoder=_module_fingerprint(self.layout_encoder),
            )
        samples = self.artifacts.get_or_compute(
            STAGE_SAMPLES, samples_key, lambda: self._build_samples(all_tags, type_index)
        )
        self.summary.record_stage(self.artifacts.timings[-1])
        if stop_after == STAGE_SAMPLES:
            return self._finish_summary(stop_after)

        # Stage: Step-2 TAGFormer pre-training (ExprLLM frozen).
        start = time.perf_counter()
        tag_trainer = TAGFormerPretrainer(
            self.model.tagformer,
            num_cell_types=len(type_index),
            config=self.config.tag_pretrain_config(),
            rtl_dim=self.rtl_encoder.output_dim if self.rtl_encoder is not None else None,
            layout_dim=self.layout_encoder.output_dim if self.layout_encoder is not None else None,
        )
        self.summary.tag_result = tag_trainer.run(
            samples,
            metadata=trainer_metadata,
            **self._trainer_stage_args(
                STAGE_TAG_PRETRAIN, manifest, resume, checkpoint_every, max_steps
            ),
        )
        self.summary.tag_pretrain_seconds = time.perf_counter() - start
        tag_result = self.summary.tag_result
        self._record_trainer_stage(
            STAGE_TAG_PRETRAIN, self.summary.tag_pretrain_seconds,
            replayed=tag_result.resumed_from_step > 0 and tag_result.resumed_from_step >= tag_result.steps,
        )
        if not tag_result.completed:
            return self._finish_summary(STAGE_TAG_PRETRAIN)

        self.model.clear_caches()
        self._pretrained = True
        return self._finish_summary(None)

    def _build_samples(self, all_tags: Sequence[TextAttributedGraph], type_index) -> List:
        samples = []
        sample_rng = self._stage_rng(23)
        tag_lookup = {id(tag): (design, i) for design in self.designs for i, tag in enumerate(design.cone_tags)}
        for tag in all_tags:
            design, cone_index = tag_lookup[id(tag)]
            rtl_text = design.rtl_cone_texts[cone_index] if self.config.use_cross_stage_alignment else None
            layout = design.cone_layouts[cone_index] if self.config.use_cross_stage_alignment else None
            samples.append(
                build_pretrain_sample(
                    tag,
                    self.model.expr_llm,
                    type_index,
                    rng=sample_rng,
                    build_augmented_view=self.config.use_graph_contrastive,
                    rtl_text=rtl_text,
                    rtl_encoder=self.rtl_encoder,
                    layout_graph=layout,
                    layout_encoder=self.layout_encoder,
                    use_text_attributes=self.config.use_text_attributes,
                )
            )
        return samples

    def _finish_summary(self, stopped_after: Optional[str]) -> PretrainSummary:
        self.summary.stopped_after = stopped_after
        self.summary.cache_stats = self.artifacts.stats()
        return self.summary

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_model(self, path: PathLike) -> Path:
        """Save the pre-trained model with full provenance metadata."""
        return self.model.save(
            path, extra_metadata={"corpus_fingerprint": self.corpus_fingerprint}
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def is_pretrained(self) -> bool:
        """Whether the full pre-training pipeline ran to completion."""
        return self._pretrained

    def embed_circuit(self, netlist: Netlist):
        """Embed one netlist at all granularities (see :meth:`NetTAG.embed_circuit`)."""
        return self.model.embed_circuit(netlist)

    def embed_gates(self, netlist: Netlist):
        """Gate-level embeddings plus gate-name order (see :meth:`NetTAG.embed_gates`)."""
        return self.model.embed_gates(netlist)

    def embed_cones(self, cones: Sequence[RegisterCone]):
        """Register-cone embeddings keyed by register name (batched)."""
        return self.model.embed_cones(cones)

    def encode_batch(self, cones: Sequence[RegisterCone]):
        """Batched cone embeddings (list, in cone order) via the batched engine."""
        return self.model.encode_batch(cones)

    def build_index(
        self,
        path: PathLike,
        netlists: Optional[Sequence[Netlist]] = None,
        shard_size: int = 1024,
        overwrite: bool = True,
    ):
        """Encode a corpus and persist it as an :class:`~repro.serve.EmbeddingIndex`.

        ``netlists`` defaults to the pipeline's preprocessed pre-training
        designs.  The encoded ``(key, kind, vector)`` payload is an
        artifact-cached stage keyed by the corpus content and the *current
        model weights*, so rebuilding an index after a config-only path change
        hits the cache while any retraining invalidates it.  The on-disk
        index at ``path`` is rewritten from the payload either way (the index
        itself is a cheap projection of the cached embeddings).
        """
        from ..serve import NetTAGService
        from ..serve.service import encode_index_rows

        if netlists is None:
            if not self.designs:
                self.preprocess_corpus()
            netlists = [design.netlist for design in self.designs]
        netlists = list(netlists)
        key_payload = {
            "corpus": _netlist_corpus_digest(netlists),
            "model": self.model.fingerprint(),
        }

        # encode_index_rows is the single ingest convention shared with
        # NetTAGService.add_netlists, so pipeline-built indexes live in the
        # same vector space as service-ingested rows.
        rows = self.artifacts.get_or_compute(
            STAGE_INDEX, key_payload, lambda: encode_index_rows(self.model, netlists)
        )
        self.summary.record_stage(self.artifacts.timings[-1])
        index = NetTAGService.create_index(
            self.model, path, shard_size=shard_size, overwrite=overwrite
        )
        if rows:
            keys, kinds, vectors = zip(*rows)
            index.add(list(keys), np.stack(vectors), kinds=list(kinds))
        index.save()
        return index

    def multimodal_items(self, designs: Optional[Sequence[PreprocessedDesign]] = None):
        """Aligned ``(cone, RTL text, layout)`` corpus items of the designs.

        These are the cross-stage alignment artefacts preprocessing already
        produced (``rtl_cone_texts`` / ``cone_layouts``), repackaged as
        :class:`~repro.serve.MultimodalCorpusItem` rows for the cross-modal
        index builder; cones missing a modality carry ``None`` there and are
        skipped when that modality's projection head is fitted.
        """
        from ..serve import MultimodalCorpusItem

        items = []
        for design in designs or self.designs:
            for cone, rtl_text, layout in zip(
                design.cones, design.rtl_cone_texts, design.cone_layouts
            ):
                items.append(
                    MultimodalCorpusItem(
                        owner=design.name, cone=cone, rtl_text=rtl_text, layout=layout
                    )
                )
        return items

    def build_multimodal_index(
        self,
        path: PathLike,
        designs: Optional[Sequence[PreprocessedDesign]] = None,
        modalities: Optional[Sequence[str]] = None,
        shard_size: int = 1024,
        overwrite: bool = True,
        l2: float = 1e-6,
    ):
        """Encode one corpus in every modality and persist a cross-modal index.

        Builds on :meth:`build_index`'s conventions: the netlist side uses the
        shared ingest row format, while RTL cone texts and cone layout graphs
        are embedded by the pipeline's (frozen) auxiliary encoders and
        projected into the shared index space by per-modality projection
        heads fitted on the aligned pairs.  The encoded payload — rows *and*
        fitted heads — is an artifact-cached stage keyed by corpus content,
        model weights and both auxiliary encoder weights.  The index
        directory receives a ``multimodal/`` sidecar (encoder weights +
        projection heads), so it stays self-contained for cross-modal
        queries from another process.

        Returns ``(index, cross_modal_encoder)``.
        """
        from ..serve import CrossModalEncoder, MODALITY_KINDS, encode_multimodal_rows
        from ..serve.crossmodal import build_multimodal_index as build_index_core

        if self.rtl_encoder is None or self.layout_encoder is None:
            raise RuntimeError(
                "build_multimodal_index needs the auxiliary encoders; construct "
                "the pipeline with use_cross_stage_alignment=True"
            )
        if designs is None:
            if not self.designs:
                self.preprocess_corpus()
            designs = self.designs
        designs = list(designs)
        netlists = [design.netlist for design in designs]
        items = self.multimodal_items(designs)
        modalities = tuple(modalities or MODALITY_KINDS)
        encoder = CrossModalEncoder(
            self.model,
            rtl_encoder=self.rtl_encoder,
            layout_encoder=self.layout_encoder,
        )
        # The aligned modality content rides the key too: the RTL side can
        # change while synthesis emits a byte-identical netlist (e.g. logic
        # the mapper optimises away), and stale cached rtl/layout rows must
        # not survive that.
        items_digest = hashlib.sha256()
        for item in items:
            items_digest.update(item.key.encode("utf-8"))
            items_digest.update((item.rtl_text or "\0").encode("utf-8"))
            if item.layout is not None:
                items_digest.update(
                    np.ascontiguousarray(item.layout.node_features).tobytes()
                )
        key_payload = {
            "corpus": _netlist_corpus_digest(netlists),
            "items": items_digest.hexdigest()[:16],
            "model": self.model.fingerprint(),
            "modalities": sorted(modalities),
            "l2": l2,
        }
        key_payload.update(encoder.fingerprints())
        payload = self.artifacts.get_or_compute(
            STAGE_MULTIMODAL,
            key_payload,
            lambda: encode_multimodal_rows(
                encoder, netlists, items, modalities=modalities, l2=l2
            ),
        )
        self.summary.record_stage(self.artifacts.timings[-1])
        index = build_index_core(
            encoder,
            path,
            netlists,
            items,
            modalities=modalities,
            shard_size=shard_size,
            overwrite=overwrite,
            l2=l2,
            precomputed=payload,
        )
        return index, encoder

    def serve(
        self,
        index: Optional[PathLike] = None,
        max_batch_size: int = 32,
        max_latency_ms: float = 10.0,
        multimodal: Optional[bool] = None,
    ):
        """A :class:`~repro.serve.NetTAGService` over this pipeline's model.

        ``index`` may be a directory holding an existing embedding index
        (opened with fingerprint validation) or ``None`` for encode-only
        serving.  ``multimodal`` controls whether the index's cross-modal
        sidecar is attached: ``None`` (default) auto-detects it, ``True``
        requires it, ``False`` skips it.
        """
        from ..serve import CrossModalEncoder, NetTAGService

        opened = NetTAGService.open_index(self.model, index) if index is not None else None
        crossmodal = None
        if index is not None and multimodal is not False:
            if CrossModalEncoder.available(index):
                crossmodal = CrossModalEncoder.load(index, self.model)
            elif multimodal:
                raise FileNotFoundError(
                    f"index at {index} has no multimodal sidecar; build it with "
                    "build_multimodal_index first"
                )
        return NetTAGService(
            self.model,
            index=opened,
            max_batch_size=max_batch_size,
            max_latency_ms=max_latency_ms,
            crossmodal=crossmodal,
        )
