"""Step-2 pre-training: TAGFormer fusion and cross-stage alignment.

With ExprLLM frozen, TAGFormer is trained jointly on the node-level and
graph-level self-supervised objectives (#2.1 masked gate reconstruction,
 #2.2 graph contrastive, #2.3 graph size prediction) plus the cross-stage
alignment objective (#3) against frozen RTL and layout embeddings — equation
(8) of the paper.  The loop itself runs on the shared
:class:`repro.train.Trainer` engine (epoch-permutation scheduling, per-objective
loss instrumentation, periodic checkpointing, deterministic resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..encoders import TAGFormer
from ..netlist import BatchedTAG
from ..nn import Tensor
from ..train import (
    BatchPlan,
    EpochPlan,
    Trainer,
    TrainerConfig,
    TrainResult,
    TrainTask,
)
from .augment import mask_node_indices
from .data import PretrainSample
from .objectives import (
    cross_stage_loss,
    graph_contrastive_loss,
    graph_size_loss,
    masked_gate_features,
    masked_gate_loss,
)


@dataclass
class TAGPretrainConfig:
    """Hyper-parameters and objective switches for Step-2 pre-training.

    The boolean switches implement the Fig. 6 ablations: turning an objective
    off removes its loss term from equation (8).
    """

    num_epochs: int = 3
    batch_size: int = 6
    learning_rate: float = 2e-3
    temperature: float = 0.1
    mask_ratio: float = 0.2
    use_masked_gate: bool = True          # objective #2.1
    use_graph_contrastive: bool = True    # objective #2.2
    use_size_prediction: bool = True      # objective #2.3
    use_cross_stage: bool = True          # objective #3
    masked_gate_weight: float = 1.0
    graph_contrastive_weight: float = 1.0
    size_weight: float = 0.5
    cross_stage_weight: float = 1.0
    seed: int = 0


@dataclass
class TAGPretrainResult:
    """Loss curves per objective and overall."""

    total_losses: List[float] = field(default_factory=list)
    objective_losses: Dict[str, List[float]] = field(default_factory=dict)
    epochs: int = 0
    steps: int = 0
    resumed_from_step: int = 0
    completed: bool = True

    def record(self, name: str, value: float) -> None:
        self.objective_losses.setdefault(name, []).append(value)

    @property
    def final_loss(self) -> float:
        return self.total_losses[-1] if self.total_losses else float("nan")


class TAGPretrainTask(TrainTask):
    """Equation (8) multi-objective training as a shared-engine task."""

    name = "tag_pretrain"

    def __init__(
        self, pretrainer: "TAGFormerPretrainer", samples: Sequence[PretrainSample]
    ) -> None:
        self.pretrainer = pretrainer
        self.samples: List[PretrainSample] = list(samples)

    def setup(self, rng: np.random.Generator) -> BatchPlan:
        self.pretrainer.tagformer.train()
        config = self.pretrainer.config
        # Batches with fewer than two graphs carry no contrastive signal.
        return EpochPlan(
            len(self.samples),
            config.batch_size,
            config.num_epochs,
            min_batch_size=2,
        )

    def modules(self) -> Dict[str, nn.Module]:
        modules: Dict[str, nn.Module] = {
            "tagformer": self.pretrainer.tagformer,
            "gate_classifier": self.pretrainer.gate_classifier,
            "size_regressor": self.pretrainer.size_regressor,
        }
        if self.pretrainer.rtl_projection is not None:
            modules["rtl_projection"] = self.pretrainer.rtl_projection
        if self.pretrainer.layout_projection is not None:
            modules["layout_projection"] = self.pretrainer.layout_projection
        return modules

    def trainable_parameters(self) -> List[Tensor]:
        return self.pretrainer.parameters()

    def compute_loss(self, indices: np.ndarray, rng: np.random.Generator):
        return self.pretrainer.batch_loss([self.samples[i] for i in indices], rng)

    def finalize(self) -> None:
        self.pretrainer.tagformer.eval()


class TAGFormerPretrainer:
    """Trains TAGFormer (+ auxiliary heads) on the Step-2 objectives."""

    def __init__(
        self,
        tagformer: TAGFormer,
        num_cell_types: int,
        config: Optional[TAGPretrainConfig] = None,
        rtl_dim: Optional[int] = None,
        layout_dim: Optional[int] = None,
    ) -> None:
        self.tagformer = tagformer
        self.config = config or TAGPretrainConfig()
        rng = np.random.default_rng(self.config.seed)
        out_dim = tagformer.output_dim
        # Auxiliary decoders (three-layer MLPs, hidden 256 in the paper; scaled here).
        self.gate_classifier = nn.MLP(out_dim, num_cell_types, hidden_sizes=(64,), rng=rng)
        self.size_regressor = nn.MLP(out_dim, num_cell_types, hidden_sizes=(64,), rng=rng)
        self.rtl_projection = nn.Linear(rtl_dim, out_dim, rng=rng) if rtl_dim else None
        self.layout_projection = nn.Linear(layout_dim, out_dim, rng=rng) if layout_dim else None
        self.last_train_result: Optional[TrainResult] = None

    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        params = list(self.tagformer.parameters())
        params += list(self.gate_classifier.parameters())
        params += list(self.size_regressor.parameters())
        if self.rtl_projection is not None:
            params += list(self.rtl_projection.parameters())
        if self.layout_projection is not None:
            params += list(self.layout_projection.parameters())
        return params

    # ------------------------------------------------------------------
    def _encode_features(
        self, features: Sequence[np.ndarray], adjacencies: Sequence[np.ndarray]
    ) -> tuple[List[Tensor], List[Tensor]]:
        """One packed TAGFormer forward over per-sample feature matrices.

        Returns per-sample node/graph embedding tensors (slices of the packed
        outputs, so gradients flow back through the single batched forward).
        """
        batch = BatchedTAG.from_adjacencies(adjacencies)
        packed = Tensor(np.concatenate(list(features), axis=0))
        nodes, graphs = self.tagformer.forward_batch(packed, batch)
        node_embeddings = [nodes[batch.graph_slice(i)] for i in range(batch.num_graphs)]
        graph_embeddings = [graphs[i] for i in range(batch.num_graphs)]
        return node_embeddings, graph_embeddings

    def _encode_batch(self, samples: Sequence[PretrainSample], augmented: bool) -> tuple[List[Tensor], List[Tensor]]:
        return self._encode_features(
            [sample.node_features(augmented=augmented) for sample in samples],
            [sample.adjacency for sample in samples],
        )

    def batch_loss(self, batch: Sequence[PretrainSample], rng: np.random.Generator):
        """Equation (8) loss for one minibatch: (total, per-objective floats).

        Returns ``(None, {})`` when every objective is switched off or lacks
        the data it needs (the engine skips the optimiser step).
        """
        config = self.config
        loss_terms: List[Tensor] = []
        parts: Dict[str, float] = {}

        # Encode original views (also used for contrastive anchors).
        _, graph_original = self._encode_batch(batch, augmented=False)
        graph_original_stack = nn.stack(graph_original, axis=0)

        # Objective #2.1: masked gate reconstruction (one packed pass).
        if config.use_masked_gate:
            masked_indices = [
                mask_node_indices(sample.num_nodes, config.mask_ratio, rng=rng)
                for sample in batch
            ]
            masked_nodes, _ = self._encode_features(
                [
                    masked_gate_features(sample.node_features(), indices)
                    for sample, indices in zip(batch, masked_indices)
                ],
                [sample.adjacency for sample in batch],
            )
            masked_losses = [
                masked_gate_loss(nodes, self.gate_classifier, sample.cell_type_labels, indices)
                for nodes, sample, indices in zip(masked_nodes, batch, masked_indices)
            ]
            term = masked_losses[0]
            for extra in masked_losses[1:]:
                term = term + extra
            term = term * (config.masked_gate_weight / len(masked_losses))
            loss_terms.append(term)
            parts["masked_gate"] = term.item()

        # Objective #2.2: graph contrastive against augmented views.
        if config.use_graph_contrastive and all(
            s.augmented_text_embeddings is not None for s in batch
        ):
            _, graph_augmented = self._encode_batch(batch, augmented=True)
            term = graph_contrastive_loss(
                graph_original_stack, nn.stack(graph_augmented, axis=0), temperature=config.temperature
            ) * config.graph_contrastive_weight
            loss_terms.append(term)
            parts["graph_contrastive"] = term.item()

        # Objective #2.3: graph size prediction.
        if config.use_size_prediction:
            size_losses = [
                graph_size_loss(graph_original[i], self.size_regressor, batch[i].size_target)
                for i in range(len(batch))
            ]
            term = size_losses[0]
            for extra in size_losses[1:]:
                term = term + extra
            term = term * (config.size_weight / len(size_losses))
            loss_terms.append(term)
            parts["size"] = term.item()

        # Objective #3: cross-stage alignment.
        if config.use_cross_stage:
            rtl_rows = [s.rtl_embedding for s in batch]
            layout_rows = [s.layout_embedding for s in batch]
            rtl_tensor = (
                Tensor(np.stack(rtl_rows)) if all(r is not None for r in rtl_rows) else None
            )
            layout_tensor = (
                Tensor(np.stack(layout_rows)) if all(l is not None for l in layout_rows) else None
            )
            if rtl_tensor is not None or layout_tensor is not None:
                term = cross_stage_loss(
                    graph_original_stack,
                    rtl_tensor,
                    layout_tensor,
                    rtl_projection=self.rtl_projection,
                    layout_projection=self.layout_projection,
                    temperature=config.temperature,
                ) * config.cross_stage_weight
                loss_terms.append(term)
                parts["cross_stage"] = term.item()

        if not loss_terms:
            return None, {}
        total = loss_terms[0]
        for term in loss_terms[1:]:
            total = total + term
        return total, parts

    def run(
        self,
        samples: Sequence[PretrainSample],
        checkpoint_path=None,
        checkpoint_every: int = 0,
        resume: bool = False,
        max_steps: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> TAGPretrainResult:
        """Train on the pre-training samples; returns per-objective loss curves.

        Checkpoint/resume semantics match :class:`repro.train.Trainer`: the
        resumed run's curves and final weights are bit-identical to an
        uninterrupted run with the same samples and seed.
        """
        config = self.config
        samples = [s for s in samples if s.num_nodes > 0]
        if len(samples) < 2:
            return TAGPretrainResult()
        task = TAGPretrainTask(self, samples)
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
        return TAGPretrainResult(
            total_losses=list(train_result.losses),
            objective_losses={k: list(v) for k, v in train_result.objective_losses.items()},
            epochs=train_result.epochs,
            steps=train_result.steps,
            resumed_from_step=train_result.resumed_from_step,
            completed=train_result.completed,
        )
