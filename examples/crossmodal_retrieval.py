"""Cross-modal retrieval: RTL ⇄ netlist ⇄ layout over one embedding index.

NetTAG's pre-training aligns netlist cone embeddings with the RTL text that
produced them and the layout graph they place into.  This example serves
that alignment end to end:

1. preprocess a small corpus of controller designs, keeping the aligned
   artefacts (register cones + per-register RTL cone text + cone layouts),
2. build a **multimodal index**: circuit/cone rows in the netlist space,
   plus ``rtl`` and ``layout`` rows projected into the same space by
   per-modality projection heads fitted on the aligned corpus,
3. query in every direction through the service — "which netlist cones
   implement this RTL snippet", "which RTL matches this layout region",
   "which layouts match this cone" — with modality-aware request batching,
4. reload the self-contained index directory (weights + projection heads
   travel in a ``multimodal/`` sidecar) the way a fresh process would.

Run with:  PYTHONPATH=src python examples/crossmodal_retrieval.py
(The CLI equivalent: ``python -m repro index build --synthetic 1 ...`` then
``python -m repro index query snippet.rtl --from rtl --to cone ...``; see
docs/serving.md for the full cookbook.)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import NetTAGConfig, NetTAGPipeline
from repro.rtl import make_controller, render_register_cone
from repro.serve import CONE_KIND, LAYOUT_KIND, RTL_KIND, CrossModalEncoder


def show(title: str, hits) -> None:
    print(f"\n{title}")
    for hit in hits:
        print(f"  {hit.score:+.4f}  [{hit.kind}] {hit.key}")


def main() -> None:
    # ------------------------------------------------------------------
    # 1. An aligned corpus: every register cone keeps its RTL text + layout.
    # ------------------------------------------------------------------
    pipeline = NetTAGPipeline(NetTAGConfig.fast())
    modules = [
        make_controller(f"ctrl_{i}", seed=40 + i, num_states=3 + i, data_width=3 + i)
        for i in range(4)
    ]
    pipeline.designs = [pipeline.preprocess_module(m, suite="demo") for m in modules]
    items = pipeline.multimodal_items()
    print(f"corpus: {len(pipeline.designs)} designs, {len(items)} aligned register cones")

    # ------------------------------------------------------------------
    # 2. Build the multimodal index (one encode pass per modality; the
    #    projection heads are fitted on the aligned pairs and persisted
    #    next to the shards).
    # ------------------------------------------------------------------
    index_dir = Path(tempfile.mkdtemp(prefix="nettag-crossmodal-")) / "index"
    index, encoder = pipeline.build_multimodal_index(index_dir)
    print("index kinds:", index.stats()["kinds"])
    print("projection heads:", {
        m: encoder.projection(m).num_anchors for m in (RTL_KIND, LAYOUT_KIND)
    }, "anchors")

    # ------------------------------------------------------------------
    # 3. Query in every direction.  The query RTL comes from an *unseen*
    #    controller, so this is retrieval, not a lookup.
    # ------------------------------------------------------------------
    probe = make_controller("probe", seed=99, num_states=4, data_width=4)
    probe_rtl = render_register_cone(probe, probe.registers[0].name)
    with pipeline.serve(index=index_dir) as service:
        show(
            "netlist cones implementing the probe's FSM register RTL:",
            service.query(probe_rtl, RTL_KIND, to_kind=CONE_KIND, k=3),
        )
        sample = items[0]
        show(
            f"RTL matching the layout of {sample.key}:",
            service.query(sample.layout, LAYOUT_KIND, to_kind=RTL_KIND, k=3),
        )
        show(
            f"layout regions matching the cone {sample.key}:",
            service.query(sample.cone, CONE_KIND, to_kind=LAYOUT_KIND, k=3),
        )

    # ------------------------------------------------------------------
    # 4. The index directory is self-contained: a fresh process reloads the
    #    sidecar (encoders + projection heads, fingerprint-checked) and
    #    keeps answering cross-modal queries.
    # ------------------------------------------------------------------
    reloaded = CrossModalEncoder.load(index_dir, pipeline.model)
    vector = reloaded.encode_queries(RTL_KIND, [probe_rtl])[0]
    print("\nreloaded sidecar projects the probe RTL to a",
          f"{vector.shape[0]}-dim index vector — ready to serve")


if __name__ == "__main__":
    main()
