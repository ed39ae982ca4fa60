"""Quickstart: pre-train a small NetTAG and use its embeddings.

This walks through the full NetTAG workflow on a CPU-sized configuration:

1. pre-train the foundation model on the built-in synthetic circuit corpus
   (Step 1 expression contrastive learning, Step 2 TAGFormer fusion with
   cross-stage alignment),
2. synthesise new circuits with the built-in logic-synthesis substrate,
3. generate multi-grained embeddings (gates, register cones, whole circuit),
4. fine-tune a lightweight classifier head on frozen gate embeddings,
5. persist the corpus in an embedding index and retrieve similar circuits
   through the serving layer (``repro.serve``).

Run with ``python examples/quickstart.py`` (takes well under a minute).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    NetTAGConfig,
    NetTAGPipeline,
    evaluate_classification,
    train_test_split,
)
from repro.rtl import make_controller, make_gnnre_design
from repro.synth import synthesize
from repro.tasks import TASK1_CLASSES, TASK1_CLASS_INDEX, anonymize_gate_names


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Pre-train NetTAG (fast preset: small ExprLLM, one TAGFormer layer).
    # ------------------------------------------------------------------
    config = NetTAGConfig.fast()
    pipeline = NetTAGPipeline(config)
    summary = pipeline.pretrain(designs_per_suite=1)
    print("pre-training finished in", round(summary.total_seconds, 1), "s")
    print("  designs:", summary.num_designs, "| register cones:", summary.num_cones,
          "| expressions:", summary.num_expressions)

    # ------------------------------------------------------------------
    # 2. Embed a combinational circuit.
    # ------------------------------------------------------------------
    module = make_gnnre_design(1, seed=3)
    netlist = synthesize(module).netlist
    embedding = pipeline.embed_circuit(netlist)
    print("\ncombinational design:", netlist.name)
    print("  gates:", netlist.num_gates)
    print("  gate embedding matrix:", embedding.gate_embeddings.shape)
    print("  circuit embedding dim:", embedding.dim)

    # ------------------------------------------------------------------
    # 3. Embed a sequential circuit: it is chunked into register cones.
    # ------------------------------------------------------------------
    controller = synthesize(make_controller("itc99_b01", seed=5)).netlist
    seq_embedding = pipeline.embed_circuit(controller)
    print("\nsequential design:", controller.name)
    print("  registers:", len(controller.registers))
    print("  register-cone embeddings:", len(seq_embedding.cone_embeddings))

    # ------------------------------------------------------------------
    # 4. Fine-tune a lightweight head on frozen gate embeddings
    #    (miniature version of Task 1: gate function identification).
    # ------------------------------------------------------------------
    anonymized, _ = anonymize_gate_names(netlist)
    gate_embeddings, gate_names = pipeline.embed_gates(anonymized)
    labels = []
    keep = []
    for row, name in enumerate(gate_names):
        block = anonymized.gates[name].attributes.get("block")
        if isinstance(block, str) and block in TASK1_CLASS_INDEX:
            labels.append(TASK1_CLASS_INDEX[block])
            keep.append(row)
    features = gate_embeddings[np.asarray(keep)]
    labels = np.asarray(labels)

    split = train_test_split(len(labels), train_fraction=0.6, seed=0, stratify=labels)
    report, _ = evaluate_classification(features, labels, split, head="mlp")
    print("\ngate-function fine-tuning on", len(labels), "labelled gates")
    print("  classes present:", sorted({TASK1_CLASSES[l] for l in labels}))
    print("  test accuracy:", round(report["accuracy"] * 100.0, 1), "%")
    print("  test F1:", round(report["f1"] * 100.0, 1), "%")

    # ------------------------------------------------------------------
    # 5. Persist the corpus in an embedding index and retrieve from it.
    #    (The full serving cookbook, cross-modal queries included, lives in
    #    docs/serving.md and examples/crossmodal_retrieval.py.)
    # ------------------------------------------------------------------
    index_dir = Path(tempfile.mkdtemp(prefix="nettag-quickstart-")) / "index"
    index = pipeline.build_index(index_dir)      # cached pipeline stage
    with pipeline.serve(index=index_dir) as service:
        hits = service.query(controller, "circuit", to_kind="circuit", k=3)
        print(f"\nindexed {len(index)} embeddings; top-3 circuits for "
              f"{controller.name}:")
        for hit in hits:
            print(f"  {hit.score:+.4f}  {hit.key}")


if __name__ == "__main__":
    main()
