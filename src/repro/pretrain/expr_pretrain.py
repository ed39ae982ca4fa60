"""Step-1 pre-training: symbolic expression contrastive learning for ExprLLM.

The paper builds a corpus of 2-hop gate expressions, augments each with
random Boolean-equivalence rewrites and trains ExprLLM (with LoRA adapters)
for one epoch using the InfoNCE loss.  :class:`ExprLLMPretrainer` reproduces
that loop at CPU scale on top of the shared :class:`repro.train.Trainer`
engine, which adds periodic checkpointing (with full optimiser state) and
bit-identical resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..encoders import ExprLLM
from ..nn import Tensor
from ..train import (
    BatchPlan,
    SamplingPlan,
    Trainer,
    TrainerConfig,
    TrainResult,
    TrainTask,
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
    """Expression contrastive learning (objective #1) as a shared-engine task."""

    name = "expr_contrastive"

    def __init__(
        self, model: ExprLLM, config: ExprPretrainConfig, expressions: Sequence[str]
    ) -> None:
        self.model = model
        self.config = config
        self.expressions = list(expressions)
        self.pairs: List[Tuple[str, str]] = []

    def setup(self, rng: np.random.Generator) -> BatchPlan:
        self.pairs = build_expression_pairs(
            self.expressions, rng=rng, num_rewrites=self.config.num_rewrites
        )
        if self.config.use_lora:
            self.model.enable_lora(rank=self.config.lora_rank, rng=rng)
        self.model.train()
        batch_size = min(self.config.batch_size, len(self.pairs))
        if batch_size < 2:
            batch_size = 2
        return SamplingPlan(len(self.pairs), batch_size, self.config.num_steps)

    def modules(self) -> Dict[str, object]:
        return {"expr_llm": self.model}

    def trainable_parameters(self) -> List[Tensor]:
        return self.model.trainable_parameters()

    def compute_loss(self, indices: np.ndarray, rng: np.random.Generator) -> Tuple[Tensor, Dict[str, float]]:
        batch = [self.pairs[i] for i in indices]
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
    ) -> ExprPretrainResult:
        """Pre-train on a corpus of expression strings; returns the loss curve.

        With ``checkpoint_path`` set, the trainer snapshots the full training
        state every ``checkpoint_every`` optimiser steps (and at the final
        step); ``resume=True`` continues from such a snapshot bit-identically.
        ``max_steps`` stops early at that global step (leaving a snapshot), so
        an interrupted run can be simulated or budgeted.
        """
        config = self.config
        expressions = [e for e in expressions if e.strip()]
        if len(expressions) < 2:
            return ExprPretrainResult()
        task = ExprContrastiveTask(self.model, config, expressions)
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
        self.last_train_result = train_result
        return ExprPretrainResult(
            losses=list(train_result.losses),
            num_pairs=len(task.pairs),
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
