"""The shared training engine behind every gradient-based loop in the repo.

NetTAG's two-step pre-training (ExprLLM contrastive, then TAGFormer
multi-objective + cross-stage alignment), the auxiliary RTL/layout encoder
pre-training and the fine-tuning MLP heads previously each carried their own
hand-rolled loop.  :class:`Trainer` factors the loop out once:

* deterministic minibatch scheduling (epoch permutations or per-step random
  sampling) driven by one seeded generator,
* optimiser construction, gradient clipping (per-parameter or global-norm)
  and gradient accumulation,
* an optional cosine LR schedule with warmup,
* per-objective loss instrumentation,
* periodic checkpointing of the *full* training state — module parameters,
  optimiser moments, LR-schedule step, batch-plan state, RNG state and the
  loss curves — and bit-identical resume from such a checkpoint.

A training task plugs in by subclassing :class:`TrainTask`: it prepares its
data in :meth:`TrainTask.setup` (which must be deterministic given the seeded
generator, so a resumed run can rebuild the same data), names the modules to
checkpoint, and computes a scalar loss (plus per-objective float parts) for a
batch of sample indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn import Tensor

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Batch plans
# ----------------------------------------------------------------------
class BatchPlan:
    """Deterministic minibatch schedule over ``num_items`` samples."""

    num_items: int = 0

    def total_steps(self) -> int:  # pragma: no cover - abstract
        """Total optimiser steps the plan schedules."""
        raise NotImplementedError

    def batch_indices(self, step: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """Indices for one step, or ``None`` when the step must be skipped."""
        raise NotImplementedError  # pragma: no cover - abstract

    def epochs_completed(self, step: int) -> int:
        """Fully consumed epochs at a given global step."""
        return 0

    def state_dict(self) -> Dict[str, object]:
        """Resumable plan state (overridden by stateful plans)."""
        return {}

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore plan state saved by :meth:`state_dict`."""
        pass


class EpochPlan(BatchPlan):
    """Per-epoch permutation split into consecutive batches (classic epochs).

    The permutation for an epoch is drawn from the trainer's generator exactly
    when the epoch's first step runs, so the draw order is identical whether
    or not the run was interrupted in between; a mid-epoch resume restores the
    in-flight permutation from the checkpoint instead of redrawing it.
    """

    def __init__(self, num_items: int, batch_size: int, num_epochs: int,
                 min_batch_size: int = 1) -> None:
        if num_items <= 0:
            raise ValueError("EpochPlan needs at least one item")
        self.num_items = num_items
        self.batch_size = max(1, min(batch_size, num_items))
        self.num_epochs = num_epochs
        self.min_batch_size = min_batch_size
        self.steps_per_epoch = -(-num_items // self.batch_size)
        self._permutation: Optional[np.ndarray] = None
        self._perm_epoch = -1

    def total_steps(self) -> int:
        """Total optimiser steps across all epochs."""
        return self.num_epochs * self.steps_per_epoch

    def epochs_completed(self, step: int) -> int:
        """Fully consumed epochs at ``step``."""
        return min(self.num_epochs, step // self.steps_per_epoch)

    def batch_indices(self, step: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """The minibatch indices of one global step (deterministic)."""
        epoch, position = divmod(step, self.steps_per_epoch)
        if position == 0 or self._perm_epoch != epoch:
            if position == 0:
                self._permutation = rng.permutation(self.num_items)
                self._perm_epoch = epoch
            elif self._permutation is None:
                raise RuntimeError(
                    "mid-epoch step without a stored permutation; resume state is missing"
                )
        assert self._permutation is not None
        start = position * self.batch_size
        batch = self._permutation[start : start + self.batch_size]
        if len(batch) < self.min_batch_size:
            return None
        return np.asarray(batch)

    def state_dict(self) -> Dict[str, object]:
        """The in-flight epoch permutation and its cursor."""
        return {
            "permutation": None if self._permutation is None else self._permutation.copy(),
            "perm_epoch": self._perm_epoch,
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore the epoch permutation saved by :meth:`state_dict`."""
        permutation = state.get("permutation")
        self._permutation = (
            None if permutation is None else np.asarray(permutation, dtype=np.int64)
        )
        self._perm_epoch = int(state.get("perm_epoch", -1))


class SamplingPlan(BatchPlan):
    """Random minibatch per step (the step-count-driven contrastive loops).

    ``replace=None`` reproduces the historical policy of sampling with
    replacement only when the corpus is smaller than the batch size.
    """

    def __init__(self, num_items: int, batch_size: int, num_steps: int,
                 replace: Optional[bool] = None) -> None:
        if num_items <= 0:
            raise ValueError("SamplingPlan needs at least one item")
        self.num_items = num_items
        self.batch_size = batch_size
        self.num_steps = num_steps
        self.replace = replace

    def total_steps(self) -> int:
        """Total optimiser steps the plan schedules."""
        return self.num_steps

    def batch_indices(self, step: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """The sampled minibatch indices of one global step (seeded)."""
        size = min(self.batch_size, self.num_items)
        replace = self.num_items < self.batch_size if self.replace is None else self.replace
        return rng.choice(self.num_items, size=size, replace=replace)


# ----------------------------------------------------------------------
# Task interface and result
# ----------------------------------------------------------------------
class TrainTask:
    """One trainable objective: data preparation, modules and loss."""

    name: str = "task"

    def setup(self, rng: np.random.Generator) -> BatchPlan:
        """Prepare data / wrap modules; must be deterministic given ``rng``.

        Called on fresh *and* resumed runs (a resumed run replays the same
        setup, then the checkpoint overwrites parameters, optimiser moments
        and the generator state), so it must not depend on anything but the
        generator and the task's constructor arguments.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def modules(self) -> Dict[str, nn.Module]:
        """Named modules whose parameters belong in the checkpoint."""
        raise NotImplementedError  # pragma: no cover - abstract

    def trainable_parameters(self) -> List[Tensor]:
        """The tensors the optimiser updates (default: every module parameter)."""
        params: List[Tensor] = []
        for module in self.modules().values():
            params.extend(module.parameters())
        return params

    def compute_loss(self, indices: np.ndarray, rng: np.random.Generator) -> Tuple[Tensor, Dict[str, float]]:
        """Loss tensor plus per-objective float parts for one minibatch."""
        raise NotImplementedError  # pragma: no cover - abstract

    def finalize(self) -> None:
        """Called once after the final step (switch to eval, clear caches)."""


@dataclass
class TrainResult:
    """Loss curves and bookkeeping of one (possibly resumed) training run."""

    losses: List[float] = field(default_factory=list)
    objective_losses: Dict[str, List[float]] = field(default_factory=dict)
    learning_rates: List[float] = field(default_factory=list)
    steps: int = 0
    epochs: int = 0
    resumed_from_step: int = 0
    completed: bool = False
    checkpoint_path: Optional[Path] = None

    @property
    def final_loss(self) -> float:
        """The last recorded total loss (NaN when nothing ran)."""
        return self.losses[-1] if self.losses else float("nan")

    @property
    def initial_loss(self) -> float:
        """The first recorded total loss (NaN when nothing ran)."""
        return self.losses[0] if self.losses else float("nan")


# ----------------------------------------------------------------------
# Trainer
# ----------------------------------------------------------------------
@dataclass
class TrainerConfig:
    """Optimisation hyper-parameters shared by every training loop."""

    learning_rate: float = 1e-3
    optimizer: str = "adam"                   # "adam" | "sgd"
    momentum: float = 0.0                     # SGD only
    weight_decay: float = 0.0
    grad_clip: Optional[float] = None         # per-parameter norm clip (Adam)
    global_grad_clip: Optional[float] = None  # global-norm clip across params
    grad_accumulation: int = 1                # micro-batches per optimiser step
    lr_schedule: str = "constant"             # "constant" | "cosine"
    warmup_steps: int = 0
    min_lr: float = 0.0
    checkpoint_every: int = 0                 # steps between snapshots (0 = off)
    checkpoint_path: Optional[PathLike] = None
    save_final: bool = False                  # snapshot at the final step too
    max_steps: Optional[int] = None           # stop early at this global step
    seed: int = 0
    # Numeric backend for the whole run ("reference", "fast", ...); None
    # inherits the process-wide active backend (REPRO_BACKEND / set_backend).
    backend: Optional[str] = None


class Trainer:
    """Runs a :class:`TrainTask` with checkpointing and deterministic resume."""

    def __init__(
        self,
        task: TrainTask,
        config: Optional[TrainerConfig] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.task = task
        self.config = config or TrainerConfig()
        self.metadata = dict(metadata or {})
        if self.config.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be at least 1")
        if self.config.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.config.optimizer!r}")
        if self.config.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr_schedule {self.config.lr_schedule!r}")

    # ------------------------------------------------------------------
    def _build_optimizer(self, parameters: Sequence[Tensor]) -> nn.Optimizer:
        config = self.config
        if config.optimizer == "sgd":
            return nn.SGD(
                parameters, lr=config.learning_rate,
                momentum=config.momentum, weight_decay=config.weight_decay,
            )
        return nn.Adam(
            parameters, lr=config.learning_rate,
            weight_decay=config.weight_decay, grad_clip=config.grad_clip,
        )

    def _build_schedule(self, optimizer: nn.Optimizer, total_steps: int):
        if self.config.lr_schedule == "cosine":
            return nn.CosineSchedule(
                optimizer, total_steps=max(1, total_steps),
                warmup_steps=self.config.warmup_steps, min_lr=self.config.min_lr,
            )
        return nn.ConstantSchedule(optimizer)

    # ------------------------------------------------------------------
    def _save_checkpoint(
        self,
        path: Path,
        step: int,
        optimizer: nn.Optimizer,
        schedule,
        plan: BatchPlan,
        rng: np.random.Generator,
        result: TrainResult,
    ) -> Path:
        state: Dict[str, object] = {
            "step": step,
            "task": self.task.name,
            "engine": "sequential",
            "plan_kind": type(plan).__name__,
            "rng": rng.bit_generator.state,
            "schedule": schedule.state_dict(),
            "losses": np.asarray(result.losses, dtype=np.float64),
            "learning_rates": np.asarray(result.learning_rates, dtype=np.float64),
            "objective_names": sorted(result.objective_losses),
        }
        plan_state = plan.state_dict()
        state["plan"] = {k: v for k, v in plan_state.items() if not isinstance(v, np.ndarray)}
        for key, value in plan_state.items():
            if isinstance(value, np.ndarray):
                state[f"plan_array::{key}"] = value
        for name, values in result.objective_losses.items():
            state[f"objective::{name}"] = np.asarray(values, dtype=np.float64)
        return nn.save_training_checkpoint(
            path, self.task.modules(), optimizer, state=state, metadata=self.metadata
        )

    def _restore_checkpoint(
        self,
        path: Path,
        optimizer: nn.Optimizer,
        schedule,
        plan: BatchPlan,
        rng: np.random.Generator,
        result: TrainResult,
    ) -> int:
        state = nn.load_training_checkpoint(
            path, self.task.modules(), optimizer, expected_metadata=self.metadata
        )
        # Older releases also had a sliced data-parallel engine whose
        # checkpoints differentiate a different computation graph; resuming
        # one here would diverge silently, so refuse it.
        saved_engine = str(state.get("engine", "sequential"))
        if saved_engine != "sequential":
            raise ValueError(
                f"checkpoint {path} was written by the {saved_engine} engine, which "
                "this release no longer has; a resumed run would not match the "
                "original. Restart without resume."
            )
        # The minibatch schedule must match too: a checkpoint of another plan
        # (such as the shard-local schedule of older releases' streamed
        # corpora) would draw entirely different batches while every weight
        # loads fine — the worst kind of silent divergence.  Older
        # checkpoints predate the key; skip then.
        saved_plan = state.get("plan_kind")
        if saved_plan is not None and str(saved_plan) != type(plan).__name__:
            raise ValueError(
                f"checkpoint {path} was written under a {saved_plan} schedule "
                f"but this run uses {type(plan).__name__}; a resumed run would "
                "draw different minibatches. Restart without resume."
            )
        schedule.load_state_dict(state.get("schedule", {}))
        plan_state: Dict[str, object] = dict(state.get("plan", {}))
        for key, value in state.items():
            if key.startswith("plan_array::"):
                plan_state[key[len("plan_array::"):]] = value
        plan.load_state_dict(plan_state)
        rng.bit_generator.state = state["rng"]
        result.losses = [float(v) for v in state.get("losses", [])]
        result.learning_rates = [float(v) for v in state.get("learning_rates", [])]
        result.objective_losses = {
            name: [float(v) for v in state.get(f"objective::{name}", [])]
            for name in state.get("objective_names", [])
        }
        return int(state["step"])

    # ------------------------------------------------------------------
    def _sequential_step(
        self,
        indices: np.ndarray,
        optimizer: nn.Optimizer,
        rng: np.random.Generator,
    ) -> Optional[Tuple[float, Dict[str, float]]]:
        """Classic whole-batch step (with optional gradient accumulation)."""
        config = self.config
        chunks = [
            chunk for chunk in np.array_split(indices, config.grad_accumulation)
            if len(chunk)
        ]
        optimizer.zero_grad()
        step_loss = 0.0
        step_parts: Dict[str, float] = {}
        for chunk in chunks:
            loss, parts = self.task.compute_loss(chunk, rng)
            if loss is None:
                return None
            if len(chunks) > 1:
                loss = loss * (1.0 / len(chunks))
            loss.backward()
            step_loss += loss.item()
            for name, value in parts.items():
                step_parts[name] = step_parts.get(name, 0.0) + value / len(chunks)
        return step_loss, step_parts

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> TrainResult:
        """Train to completion (or ``max_steps``); optionally resume first.

        With ``resume=True`` and an existing ``checkpoint_path``, training
        continues from the snapshot and the combined run is bit-identical to
        one that was never interrupted: parameters, optimiser moments,
        LR-schedule step, in-flight epoch permutation, RNG state and the loss
        history are all restored.

        The entire run — forwards, backwards and optimiser commits — executes
        under ``config.backend`` (``None`` inherits the active backend).
        """
        with nn.use_backend(self.config.backend):
            return self._run(resume)

    def _run(self, resume: bool) -> TrainResult:
        config = self.config
        rng = np.random.default_rng(config.seed)
        plan = self.task.setup(rng)
        parameters = self.task.trainable_parameters()
        result = TrainResult()
        if not parameters or plan.num_items <= 0:
            result.completed = True
            self.task.finalize()
            return result
        optimizer = self._build_optimizer(parameters)
        total_steps = plan.total_steps()
        schedule = self._build_schedule(optimizer, total_steps)

        checkpoint_path = Path(config.checkpoint_path) if config.checkpoint_path else None
        step = 0
        if resume and checkpoint_path is not None and checkpoint_path.exists():
            step = self._restore_checkpoint(
                checkpoint_path, optimizer, schedule, plan, rng, result
            )
            result.resumed_from_step = step
        result.checkpoint_path = checkpoint_path

        stop_at = total_steps if config.max_steps is None else min(total_steps, config.max_steps)
        while step < stop_at:
            indices = plan.batch_indices(step, rng)
            if indices is not None:
                outcome = self._sequential_step(indices, optimizer, rng)
                if outcome is not None:
                    step_loss, step_parts = outcome
                    if config.global_grad_clip is not None:
                        nn.clip_grad_norm(parameters, config.global_grad_clip)
                    optimizer.step()
                    lr = schedule.step()
                    result.losses.append(step_loss)
                    result.learning_rates.append(lr)
                    for name, value in step_parts.items():
                        result.objective_losses.setdefault(name, []).append(value)
            step += 1
            if (
                checkpoint_path is not None
                and config.checkpoint_every
                and step % config.checkpoint_every == 0
                and step < total_steps
            ):
                self._save_checkpoint(
                    checkpoint_path, step, optimizer, schedule, plan, rng, result
                )

        result.steps = step
        result.epochs = plan.epochs_completed(step)
        result.completed = step >= total_steps
        if result.completed:
            self.task.finalize()
            # A final-step snapshot lets a later run "resume" a finished stage
            # as a no-op replay (restoring weights + curves without retraining).
            if (
                checkpoint_path is not None
                and config.save_final
                and step > result.resumed_from_step
            ):
                self._save_checkpoint(
                    checkpoint_path, step, optimizer, schedule, plan, rng, result
                )
        elif checkpoint_path is not None:
            # Early stop (max_steps budget): leave a snapshot at the exact
            # boundary so a resumed run continues bit-identically.
            self._save_checkpoint(
                checkpoint_path, step, optimizer, schedule, plan, rng, result
            )
        return result
