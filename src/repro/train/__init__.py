"""Unified training engine: shared Trainer, batch plans and artefact caching.

Every gradient-based loop in the reproduction — Step-1 ExprLLM contrastive
pre-training, Step-2 TAGFormer multi-objective pre-training, the auxiliary
RTL/layout encoder pre-training and the fine-tuning MLP heads — runs on the
:class:`Trainer` engine, which owns minibatch scheduling, LR schedules,
gradient clipping/accumulation, per-objective loss instrumentation, periodic
checkpointing with full optimiser state, and deterministic (bit-identical)
resume.  :class:`ArtifactStore` caches the pipeline's preprocessing stages on
disk keyed by config+seed fingerprints so reruns skip completed stages.
"""

from .engine import (
    BatchPlan,
    EpochPlan,
    SamplingPlan,
    Trainer,
    TrainerConfig,
    TrainResult,
    TrainTask,
)
from .artifacts import ArtifactStore, RunManifest, StageRun, StageTiming, fingerprint

__all__ = [
    "BatchPlan",
    "EpochPlan",
    "SamplingPlan",
    "Trainer",
    "TrainerConfig",
    "TrainResult",
    "TrainTask",
    "ArtifactStore",
    "RunManifest",
    "StageRun",
    "StageTiming",
    "fingerprint",
]
