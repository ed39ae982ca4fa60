"""Step-1 pre-training: symbolic expression contrastive learning for ExprLLM.

The paper builds a corpus of 2-hop gate expressions, augments each with
random Boolean-equivalence rewrites and trains ExprLLM (with LoRA adapters)
for one epoch using the InfoNCE loss.  :class:`ExprLLMPretrainer` reproduces
that loop at CPU scale on top of the shared :class:`repro.train.Trainer`
engine, which adds periodic checkpointing (with full optimiser state) and
bit-identical resume.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..encoders import ExprLLM
from ..nn import Tensor
from ..train import (
    BatchPlan,
    SamplingPlan,
    ShardedCorpus,
    ShardStreamPlan,
    Trainer,
    TrainerConfig,
    TrainResult,
    TrainTask,
    fingerprint,
)
from .augment import build_expression_pairs
from .objectives import expression_contrastive_loss


@dataclass
class ExprPretrainConfig:
    """Hyper-parameters of Step-1 pre-training."""

    num_steps: int = 40
    batch_size: int = 12
    learning_rate: float = 2e-3
    temperature: float = 0.1
    use_lora: bool = True
    lora_rank: int = 4
    num_rewrites: int = 3
    seed: int = 0
    # shard_size > 0 streams the augmented expression pairs from
    # fingerprinted on-disk shards instead of holding them in memory (and
    # switches to the shard-local ShardStreamPlan schedule; see
    # repro.train.corpus).
    shard_size: int = 0


@dataclass
class ExprPretrainResult:
    """Training curve and summary statistics of Step 1."""

    losses: List[float] = field(default_factory=list)
    num_pairs: int = 0
    steps: int = 0
    resumed_from_step: int = 0
    completed: bool = True

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")


class ExprContrastiveTask(TrainTask):
    """Expression contrastive learning (objective #1) as a shared-engine task.

    With ``config.shard_size > 0`` and a ``shard_dir``, the augmented pairs
    are written once into a fingerprinted :class:`~repro.train.ShardedCorpus`
    and streamed shard-by-shard during training instead of being held in
    memory.
    """

    name = "expr_contrastive"

    def __init__(
        self,
        model: ExprLLM,
        config: ExprPretrainConfig,
        expressions: Sequence[str],
        shard_dir: Optional[Path] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.expressions = list(expressions)
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        self.pairs: List[Tuple[str, str]] = []
        self.corpus: Optional[ShardedCorpus] = None

    @property
    def sharded(self) -> bool:
        """Whether the pairs stream from on-disk shards."""
        return self.config.shard_size > 0 and self.shard_dir is not None

    def _corpus_name(self) -> str:
        digest = hashlib.sha256("\n".join(self.expressions).encode("utf-8")).hexdigest()[:16]
        key = fingerprint(
            {
                "expressions": digest,
                "num_rewrites": self.config.num_rewrites,
                "seed": self.config.seed,
                "shard_size": self.config.shard_size,
            }
        )
        return f"expr-pairs-{key}"

    def setup(self, rng: np.random.Generator) -> BatchPlan:
        pairs = build_expression_pairs(
            self.expressions, rng=rng, num_rewrites=self.config.num_rewrites
        )
        if self.config.use_lora:
            self.model.enable_lora(rank=self.config.lora_rank, rng=rng)
        self.model.train()
        batch_size = min(self.config.batch_size, len(pairs))
        if batch_size < 2:
            batch_size = 2
        if self.sharded:
            assert self.shard_dir is not None
            self.corpus = ShardedCorpus.build_or_open(
                pairs,
                self.shard_dir,
                name=self._corpus_name(),
                shard_size=self.config.shard_size,
            )
            self.pairs = []  # streamed from disk, not materialised
            return ShardStreamPlan(
                len(self.corpus),
                batch_size,
                shard_size=self.config.shard_size,
                num_steps=self.config.num_steps,
                # InfoNCE is degenerate below two samples; skip 1-item
                # trailing shard batches instead of crashing on them.
                min_batch_size=2,
                corpus=self.corpus,
            )
        self.pairs = pairs
        return SamplingPlan(len(self.pairs), batch_size, self.config.num_steps)

    def modules(self) -> Dict[str, object]:
        return {"expr_llm": self.model}

    def trainable_parameters(self) -> List[Tensor]:
        return self.model.trainable_parameters()

    def _batch_pairs(self, indices: np.ndarray) -> List[Tuple[str, str]]:
        if self.corpus is not None:
            return self.corpus.fetch(indices)
        return [self.pairs[i] for i in indices]

    def compute_loss(self, indices: np.ndarray, rng: np.random.Generator) -> Tuple[Tensor, Dict[str, float]]:
        batch = self._batch_pairs(indices)
        anchors = [pair[0] for pair in batch]
        positives = [pair[1] for pair in batch]
        anchor_embeddings = self.model(anchors)
        positive_embeddings = self.model(positives)
        loss = expression_contrastive_loss(
            anchor_embeddings, positive_embeddings, temperature=self.config.temperature
        )
        return loss, {"contrastive": loss.item()}

    def finalize(self) -> None:
        self.model.eval()
        self.model.clear_cache()


class ExprLLMPretrainer:
    """Runs symbolic-expression contrastive pre-training on an :class:`ExprLLM`."""

    def __init__(self, model: ExprLLM, config: Optional[ExprPretrainConfig] = None) -> None:
        self.model = model
        self.config = config or ExprPretrainConfig()
        self.last_train_result: Optional[TrainResult] = None

    def run(
        self,
        expressions: Sequence[str],
        checkpoint_path=None,
        checkpoint_every: int = 0,
        resume: bool = False,
        max_steps: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
        shard_dir=None,
    ) -> ExprPretrainResult:
        """Pre-train on a corpus of expression strings; returns the loss curve.

        With ``checkpoint_path`` set, the trainer snapshots the full training
        state every ``checkpoint_every`` optimiser steps (and at the final
        step); ``resume=True`` continues from such a snapshot bit-identically.
        ``max_steps`` stops early at that global step (leaving a snapshot), so
        an interrupted run can be simulated or budgeted.

        ``config.shard_size`` streams the pair corpus from on-disk shards in
        ``shard_dir`` (a temporary directory when omitted).
        """
        config = self.config
        expressions = [e for e in expressions if e.strip()]
        if len(expressions) < 2:
            return ExprPretrainResult()
        scratch: Optional[tempfile.TemporaryDirectory] = None
        if config.shard_size > 0 and shard_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="expr-shards-")
            shard_dir = scratch.name
        try:
            task = ExprContrastiveTask(self.model, config, expressions, shard_dir=shard_dir)
            trainer = Trainer(
                task,
                TrainerConfig(
                    learning_rate=config.learning_rate,
                    grad_clip=1.0,
                    checkpoint_path=checkpoint_path,
                    checkpoint_every=checkpoint_every,
                    save_final=checkpoint_path is not None,
                    max_steps=max_steps,
                    seed=config.seed,
                ),
                metadata=metadata,
            )
            train_result = trainer.run(resume=resume)
        finally:
            if scratch is not None:
                scratch.cleanup()
        self.last_train_result = train_result
        return ExprPretrainResult(
            losses=list(train_result.losses),
            num_pairs=len(task.corpus) if task.corpus is not None else len(task.pairs),
            steps=train_result.steps,
            resumed_from_step=train_result.resumed_from_step,
            completed=train_result.completed,
        )


def collect_expression_corpus(
    tags: Sequence, max_expressions_per_design: Optional[int] = None, min_tokens: int = 3
) -> List[str]:
    """Gather gate expressions from a list of TAGs for the Step-1 corpus."""
    corpus: List[str] = []
    for tag in tags:
        count = 0
        for node in tag.nodes:
            expression = node.expression
            if len(expression) < min_tokens:
                continue
            corpus.append(expression)
            count += 1
            if max_expressions_per_design is not None and count >= max_expressions_per_design:
                break
    return corpus
