"""Configuration of the NetTAG foundation model and its pre-training pipeline.

The configuration gathers every switch the experiments need:

* architecture sizes (the Fig. 7 model-size scaling study maps the paper's
  110M / 1.3B / 8B ExprLLM backbones onto ``small`` / ``medium`` / ``large``),
* the k-hop expression radius and the TAG content switches (the "w/o TAG"
  ablation of Fig. 6),
* the pre-training objective switches (Fig. 6 ablations of objectives #1,
  #2.1, #2.2, #2.3 and the cross-stage alignment),
* the pre-training data fraction (the Fig. 7 data scaling study).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional

from ..encoders.tagformer import TAGFormerConfig
from ..encoders.text_encoder import TextEncoderConfig
from ..netlist.tag import EXPRESSION_FEATURES, PHYSICAL_FIELDS
from ..pretrain.expr_pretrain import ExprPretrainConfig
from ..pretrain.tag_pretrain import TAGPretrainConfig

MODEL_SIZE_PARAMETER_LABELS: Dict[str, str] = {
    # Display labels used by the Fig. 7 harness (paper's backbone sizes).
    "small": "110M-equivalent",
    "medium": "1.3B-equivalent",
    "large": "8B-equivalent",
}


# Pre-training settings of the removed data-parallel engine and sharded
# corpus streaming, still present in configurations saved by earlier releases.
_REMOVED_PRETRAIN_KEYS = ("num_workers", "world_size", "shard_size")


def _without_removed_keys(section: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in section.items() if k not in _REMOVED_PRETRAIN_KEYS}


@dataclass
class NetTAGConfig:
    """Full configuration of NetTAG (architecture + pre-training + ablations)."""

    # Provenance --------------------------------------------------------
    preset: str = "custom"                  # which factory built this config

    # Architecture ------------------------------------------------------
    model_size: str = "medium"              # ExprLLM backbone preset (Fig. 7a)
    tagformer_dim: int = 64
    tagformer_depth: int = 2
    tagformer_heads: int = 4
    output_dim: int = 64
    expression_hops: int = 2                # k in the k-hop expression extraction

    # TAG content (Fig. 6 "w/o TAG" ablation uses use_text_attributes=False)
    use_text_attributes: bool = True
    use_physical_attributes: bool = True
    # Multi-grained embeddings: keep the modality-specific inputs (ExprLLM text
    # embedding, physical vector) alongside the fused TAGFormer outputs when
    # serving gate / cone / circuit embeddings.  The paper's ExprLLM is an 8B
    # LLM whose node embeddings are far richer than the CPU-sized encoder here;
    # retaining the input modalities compensates for that capability gap (see
    # DESIGN.md, substitution table).
    multi_grained_embeddings: bool = True

    # Pre-training ------------------------------------------------------
    use_expression_contrastive: bool = True     # objective #1
    use_masked_gate: bool = True                 # objective #2.1
    use_graph_contrastive: bool = True           # objective #2.2
    use_size_prediction: bool = True             # objective #2.3
    use_cross_stage_alignment: bool = True       # objective #3
    data_fraction: float = 1.0                   # Fig. 7b data scaling
    expr_pretrain: ExprPretrainConfig = field(default_factory=ExprPretrainConfig)
    tag_pretrain: TAGPretrainConfig = field(default_factory=TAGPretrainConfig)
    seed: int = 0

    # Numeric backend: a name from ``repro.nn.available_backends()``
    # ("reference", "fast", ...) pins the model's kernels; ``None`` inherits
    # whatever backend is active in the process (REPRO_BACKEND / set_backend).
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.model_size not in MODEL_SIZE_PARAMETER_LABELS:
            raise ValueError(
                f"unknown model_size {self.model_size!r}; choose from "
                f"{sorted(MODEL_SIZE_PARAMETER_LABELS)}"
            )
        if self.backend is not None:
            from ..nn.backend import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{sorted(available_backends())}"
                )
        if not 0.0 < self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in (0, 1]")
        if self.expression_hops < 1:
            raise ValueError("expression_hops must be at least 1")

    # ------------------------------------------------------------------
    # Derived component configurations
    # ------------------------------------------------------------------
    def text_encoder_config(self) -> TextEncoderConfig:
        """The ExprLLM text-encoder configuration implied by ``model_size``."""
        return TextEncoderConfig.preset(self.model_size)

    def tagformer_config(self) -> TAGFormerConfig:
        """The TAGFormer configuration implied by the model dimensions."""
        text_dim = self.text_encoder_config().output_dim
        physical_dim = len(PHYSICAL_FIELDS)
        semantic_dim = len(EXPRESSION_FEATURES)
        return TAGFormerConfig(
            input_dim=text_dim + semantic_dim + physical_dim,
            dim=self.tagformer_dim,
            depth=self.tagformer_depth,
            num_heads=self.tagformer_heads,
            output_dim=self.output_dim,
        )

    def tag_pretrain_config(self) -> TAGPretrainConfig:
        """TAG pre-training config with the ablation switches applied."""
        return replace(
            self.tag_pretrain,
            use_masked_gate=self.use_masked_gate,
            use_graph_contrastive=self.use_graph_contrastive,
            use_size_prediction=self.use_size_prediction,
            use_cross_stage=self.use_cross_stage_alignment,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def fast(cls, **overrides) -> "NetTAGConfig":
        """A configuration small enough for unit tests and CI benchmarks."""
        defaults = dict(
            preset="fast",
            model_size="small",
            tagformer_dim=32,
            tagformer_depth=1,
            tagformer_heads=2,
            output_dim=32,
            expr_pretrain=ExprPretrainConfig(num_steps=6, batch_size=6),
            tag_pretrain=TAGPretrainConfig(num_epochs=1, batch_size=4),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper(cls, **overrides) -> "NetTAGConfig":
        """The configuration used by the benchmark harness (still CPU-sized)."""
        defaults = dict(
            preset="paper",
            model_size="medium",
            tagformer_dim=64,
            tagformer_depth=2,
            output_dim=64,
            expr_pretrain=ExprPretrainConfig(num_steps=30, batch_size=10),
            tag_pretrain=TAGPretrainConfig(num_epochs=2, batch_size=6),
        )
        defaults.update(overrides)
        return cls(**defaults)

    # ------------------------------------------------------------------
    # Serialisation (used by NetTAG.save / NetTAG.load checkpoints)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dictionary (nested pre-training configs included)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetTAGConfig":
        """Rebuild a configuration produced by :meth:`to_dict`.

        Models saved by releases that still had the data-parallel training
        engine or sharded corpus streaming carry their settings
        (``_REMOVED_PRETRAIN_KEYS``) in both pre-training configs; they do not
        change how a trained model encodes, so they are dropped.
        """
        data = dict(data)
        expr = data.get("expr_pretrain")
        if isinstance(expr, dict):
            data["expr_pretrain"] = ExprPretrainConfig(**_without_removed_keys(expr))
        tag = data.get("tag_pretrain")
        if isinstance(tag, dict):
            data["tag_pretrain"] = TAGPretrainConfig(**_without_removed_keys(tag))
        return cls(**data)

    def ablated(self, component: str) -> "NetTAGConfig":
        """Return a copy with one component disabled (Fig. 6 rows).

        ``component`` is one of: ``"tag"``, ``"obj1"``, ``"obj2.1"``,
        ``"obj2.2"``, ``"obj2.3"``, ``"align"``.
        """
        mapping = {
            "tag": {"use_text_attributes": False},
            "obj1": {"use_expression_contrastive": False},
            "obj2.1": {"use_masked_gate": False},
            "obj2.2": {"use_graph_contrastive": False},
            "obj2.3": {"use_size_prediction": False},
            "align": {"use_cross_stage_alignment": False},
        }
        if component not in mapping:
            raise ValueError(f"unknown ablation {component!r}; choose from {sorted(mapping)}")
        return replace(self, **mapping[component])
